"""Second-level reduction schedules over shard partials.

Each shard's engine reduces its slice of every query down to one partial
vector; combining partials across shards is a classic sparse allreduce,
and this module models the three canonical schedules over the
:class:`~repro.hw.link.LinkModel` fabric:

* **gather-to-root** — every shard ships its partials to shard 0, whose
  ingress link drains the messages serially: O(S) link time, one step.
  The baseline every tree schedule is measured against.
* **recursive-doubling** — ``log2 S`` butterfly rounds; in round *k*
  node *i* exchanges its full accumulated holdings with node ``i xor
  2^k``.  All rounds run pair-parallel, so link time is O(log S) at full
  message size.
* **reduce-scatter + allgather** — recursive halving scatters ownership
  of query *chunks* (round *k* ships only the chunks belonging to the
  partner's half), then a doubling allgather spreads the fully reduced
  chunks back: ``2·log2 S`` steps shipping roughly half the bytes per
  step.

Non-power-of-two shard counts use the standard fold-in: shards beyond
the largest power of two ship their holdings to a partner in a pre-step
and sit out the butterfly.

**Determinism.**  Floating-point reduction is not associative, so the
*numeric* fold must not depend on which schedule moved the bytes.  All
schedules therefore route *piece-tagged* partials and defer any
numerically non-adjacent combination; the one true fold is
:func:`~repro.core.operators.canonical_fold` — a fixed tournament over
piece ids, shared with the single-node interactive root — applied
when a node holds every present piece of a query.  The message-size
model charges for that honesty: a holding that cannot yet fold ships as
multiple *segments* (one per maximal complete subtree of the
tournament), exactly the deterministic-reduction tax real allreduce
implementations pay for bitwise reproducibility.  Because pieces from
:meth:`~repro.comm.partition.IndexPartition.by_home_rank` are subtrees
of the single-node FAFNIR tree, the tournament reproduces the
single-node root association bit for bit.

Sparsity is first-class (the Tascade framing): a shard only holds — and
only ships — the queries its piece actually touches, so message bytes
track the workload's sharing structure rather than the batch size.

**Masks and the closed-form segment count.**  The routing state is data,
not per-message objects: each query's present pieces are one ``uint64``
piece mask, and each (node, query)'s held pieces another, so a partition
may have at most :data:`MAX_PIECES` (64) pieces — more raise
``ValueError`` when a routing state or a
:class:`~repro.comm.reducer.CrossShardReducer` is built.  A send is mask
arithmetic over all its queries at once.  Its segment count is the number
of tournament nodes ``v`` with ``cond(v) ∧ ¬cond(parent(v))``, where
``cond(v)`` says the query's present pieces under ``v`` are non-empty and
all held: one mask test per (tournament node, query), no recursion.

**Step-start semantics.**  Every send of a step reads the holdings as
they were at the step's start, so in an exchange no node ships back what
its partner sent it in the same step (a 4-node butterfly from one holder
sends 3 messages).  Halving steps, gather and the fold-in pre-step never
read what their own step delivered, so the rule changes only the
doubling exchanges.

**Link faults.**  When a :class:`~repro.faults.plan.FaultPlan` with link
faults is installed, every message's wire time runs through
:meth:`_RoutingState.message_cycles`: a degraded (src, dst) link carries
the message at ``multiplier``× its modeled time, and a seeded drop costs
the policy's detection timeout plus a retransmitted wire time, up to
``max_link_retransmits`` attempts.  The fabric is *eventually reliable* —
in degrade mode an exhausted budget escalates to one host-mediated resend
that always delivers — so link faults inflate modeled cycles without ever
changing which bytes arrive: the canonical fold, and therefore the
numeric answer, is untouched.  Fail-fast mode raises
:class:`~repro.faults.plan.LinkFailedError` on exhaustion instead.

**Tracing.**  :meth:`ReductionSchedule.run` takes the run's
:class:`~repro.obs.tracer.Tracer` and the batch's absolute comm start
cycle; each closed step emits its ``shard_msg_sent``/``shard_reduced``
and link-fault events at the step's end, tagged with the batch.  An
untraced schedule builds no event.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Any, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

import numpy as np

# ``canonical_fold`` is re-exported: this module is where the schedules'
# numeric contract is documented and imported from.
from repro.core.operators import _next_pow2, canonical_fold
from repro.faults.plan import (
    FAULT_LINK_DEGRADED,
    FAULT_LINK_LOSS,
    FaultPlan,
    LinkFailedError,
)
from repro.faults.policy import FaultPolicy
from repro.hw.link import LinkModel
from repro.obs.events import (
    FAULT_DETECTED,
    FAULT_INJECTED,
    MSG_DROPPED,
    MSG_RETRANSMITTED,
    SHARD_MSG_SENT,
    SHARD_REDUCED,
    TraceEvent,
)
from repro.obs.tracer import NULL_TRACER, Tracer

#: Wire overhead per shipped segment: piece-range tag + query id + length.
SEGMENT_HEADER_BYTES = 8

SCHEDULE_GATHER = "gather"
SCHEDULE_REDUCE_SCATTER = "reduce_scatter"
SCHEDULE_RECURSIVE_DOUBLING = "recursive_doubling"


#: Pieces a ``uint64`` piece mask can hold.
MAX_PIECES = 64


def check_piece_count(num_pieces: int) -> None:
    """Raise ``ValueError`` unless ``num_pieces`` fits a piece mask."""
    if num_pieces > MAX_PIECES:
        raise ValueError(
            f"{num_pieces} pieces exceed the limit of {MAX_PIECES}: a "
            "uint64 piece mask holds one bit per piece"
        )


def _prev_pow2(n: int) -> int:
    power = 1
    while power * 2 <= n:
        power *= 2
    return power


@lru_cache(maxsize=None)
def _tournament(num_pieces: int) -> Tuple[np.ndarray, np.ndarray]:
    """The tournament over piece ids as (node piece masks, parent positions).

    Nodes are the heap-numbered subtrees of ``[0, next_pow2(num_pieces))``
    that cover at least one piece, root first; ``parent[k - 1]`` is the
    position of node ``k``'s parent.
    """
    width = _next_pow2(num_pieces)
    span = [0] * (2 * width)
    for piece in range(num_pieces):
        span[width + piece] = 1 << piece
    for node in range(width - 1, 0, -1):
        span[node] = span[2 * node] | span[2 * node + 1]
    nodes = [node for node in range(1, 2 * width) if span[node]]
    position = {node: n for n, node in enumerate(nodes)}
    spans = np.array([span[node] for node in nodes], np.uint64)
    parent = np.array([position[node // 2] for node in nodes[1:]], np.intp)
    spans.setflags(write=False)
    parent.setflags(write=False)
    return spans, parent


def _segments(held: np.ndarray, present: np.ndarray, num_pieces: int) -> np.ndarray:
    """Segments each row of ``held`` (senders × queries piece masks) ships.

    A tournament node starts a segment when the query's present pieces
    under it are non-empty and all held, and its parent's are not: the
    count of maximal fully held subtrees, one mask test per (node, query).
    """
    spans, parent = _tournament(num_pieces)
    window = spans[:, None] & present  # (nodes, queries)
    full = (window != 0)[:, None, :] & ((window[:, None, :] & ~held) == 0)
    full[1:] &= ~full[parent]
    return full.sum(axis=(0, 2))


def _as_positions(queries) -> np.ndarray:
    if isinstance(queries, np.ndarray):
        return queries.astype(np.int64, copy=False)
    return np.fromiter(queries, np.int64, len(queries))


@dataclass(frozen=True)
class CommMessage:
    """One modeled inter-shard message."""

    step: int
    src: int
    dst: int
    payload_bytes: int
    queries: int
    segments: int


@dataclass
class ScheduleOutcome:
    """Cost and routing results of one schedule over one batch's partials.

    ``comm_pe_cycles`` is the makespan of the synchronous step sequence.
    """

    schedule: str
    num_pieces: int
    steps: int
    messages: List[CommMessage] = field(default_factory=list)
    step_cycles: List[int] = field(default_factory=list)
    comm_pe_cycles: int = 0
    total_bytes: int = 0

    @property
    def message_count(self) -> int:
        return len(self.messages)


class _RoutingState:
    """Piece masks per (node, query) plus the bookkeeping all schedules share.

    ``queries`` lists the batch's query positions that some piece touches;
    column ``c`` of ``present`` and ``hold`` is query ``queries[c]``.
    ``present[c]`` has bit ``p`` set when piece ``p`` contributes to the
    query (a real deployment learns this from the query headers it already
    routes); ``hold[n, c]`` has the pieces node ``n`` currently holds.
    """

    def __init__(
        self,
        touched: Mapping[int, Iterable[int]],
        num_pieces: int,
        vector_bytes: int,
        link: LinkModel,
        schedule: str,
        faults: Optional[FaultPlan] = None,
        policy: Optional[FaultPolicy] = None,
        batch: int = 0,
        tracer: Tracer = NULL_TRACER,
        start: int = 0,
    ) -> None:
        check_piece_count(num_pieces)
        self.num_pieces = num_pieces
        self.vector_bytes = vector_bytes
        self.link = link
        self.faults = faults if faults is not None and faults.touches_links else None
        self.policy = policy if policy is not None else FaultPolicy()
        self.batch = batch
        self.tracer = tracer
        self.start = start
        self._pending_faults: List[Tuple[str, Dict[str, Any]]] = []
        columns = [_as_positions(queries) for queries in touched.values()]
        pieces = np.repeat(np.fromiter(touched, np.int64, len(touched)),
                           [len(column) for column in columns])
        if len(pieces) and not (0 <= pieces.min() and pieces.max() < num_pieces):
            raise ValueError(f"touched pieces outside [0, {num_pieces})")
        positions = np.concatenate(columns) if columns else np.zeros(0, np.int64)
        self.queries, column = np.unique(positions, return_inverse=True)
        bit = np.left_shift(np.uint64(1), pieces.astype(np.uint64))
        self.present = np.zeros(len(self.queries), np.uint64)
        np.bitwise_or.at(self.present, column, bit)
        self.hold = np.zeros((num_pieces, len(self.queries)), np.uint64)
        self.hold[pieces, column] = bit
        self.outcome = ScheduleOutcome(schedule=schedule, num_pieces=num_pieces, steps=0)
        self._cursor = 0  # relative PE-cycle end of the last closed step
        self._step_start = 0  # position of the open step's first message

    # --- message construction ---------------------------------------------
    def ship(
        self, step: int, srcs: Sequence[int], dsts: Sequence[int], sent: np.ndarray
    ) -> List[CommMessage]:
        """Deliver row ``i`` of ``sent`` from ``srcs[i]`` to ``dsts[i]``.

        Returns the messages in send order; an empty send puts nothing on
        the wire.  The caller removes what a send gives up from its source.
        """
        segments = _segments(sent, self.present, self.num_pieces).tolist()
        queries = np.count_nonzero(sent, axis=1).tolist()
        np.bitwise_or.at(self.hold, np.asarray(dsts, np.intp), sent)
        segment_bytes = self.vector_bytes + SEGMENT_HEADER_BYTES
        messages: List[CommMessage] = []
        for src, dst, count, shipped in zip(srcs, dsts, queries, segments):
            if not count:
                continue
            message = CommMessage(
                step=step,
                src=src,
                dst=dst,
                payload_bytes=shipped * segment_bytes,
                queries=count,
                segments=shipped,
            )
            self.outcome.messages.append(message)
            self.outcome.total_bytes += message.payload_bytes
            messages.append(message)
        return messages

    # --- faulted wire time -------------------------------------------------
    def message_cycles(self, message: CommMessage) -> int:
        """Modeled wire time of one message, including injected link faults.

        With no link faults installed this is exactly
        ``link.transfer_pe_cycles(payload_bytes)`` — the clean path is
        byte- and cycle-identical to a build without the fault subsystem.
        """
        base = self.link.transfer_pe_cycles(message.payload_bytes)
        plan = self.faults
        if plan is None:
            return base
        site = {"step": message.step, "src": message.src, "dst": message.dst}
        multiplier = plan.link_multiplier(message.src, message.dst)
        per_attempt = base
        if multiplier > 1.0:
            per_attempt = int(math.ceil(base * multiplier))
            self._pending_faults.append(
                (
                    FAULT_INJECTED,
                    dict(site, fault=FAULT_LINK_DEGRADED, multiplier=multiplier),
                )
            )
        total = per_attempt
        attempt = 0
        while plan.message_dropped(
            self.batch, message.step, message.src, message.dst, attempt
        ):
            exhausted = attempt >= self.policy.max_link_retransmits
            self._pending_faults.append(
                (FAULT_INJECTED, dict(site, fault=FAULT_LINK_LOSS, attempt=attempt))
            )
            self._pending_faults.append(
                (
                    MSG_DROPPED,
                    dict(site, bytes=message.payload_bytes, attempt=attempt),
                )
            )
            self._pending_faults.append(
                (
                    FAULT_DETECTED,
                    dict(site, fault=FAULT_LINK_LOSS, fatal=exhausted),
                )
            )
            total += self.policy.link_timeout_cycles
            if exhausted:
                if self.policy.fail_fast:
                    raise LinkFailedError(
                        f"message step {message.step} {message.src}->"
                        f"{message.dst} lost after "
                        f"{self.policy.max_link_retransmits} retransmits"
                    )
                # Eventually-reliable escalation: one host-mediated resend
                # that always delivers, charged at the degraded wire time.
                total += per_attempt
                self._pending_faults.append(
                    (
                        MSG_RETRANSMITTED,
                        dict(site, attempt=attempt + 1, escalated=True),
                    )
                )
                break
            attempt += 1
            total += per_attempt
            self._pending_faults.append(
                (
                    MSG_RETRANSMITTED,
                    dict(site, attempt=attempt, escalated=False),
                )
            )
        return total

    def close_step(self, step: int, cycles: int, inbound: Dict[int, int]) -> None:
        """Account one synchronous step: duration, events, reduce marks.

        A traced step emits its messages, reduce marks and link faults at
        the step's end, ``start`` plus the steps so far, tagged with the
        batch.
        """
        self._cursor += cycles
        self.outcome.step_cycles.append(cycles)
        self.outcome.steps += 1
        pending, self._pending_faults = self._pending_faults, []
        first, self._step_start = self._step_start, len(self.outcome.messages)
        if not self.tracer.enabled:
            return
        cycle = self.start + self._cursor

        def emit(kind: str, args: Dict[str, Any]) -> None:
            args = dict(args, batch=self.batch)
            self.tracer.emit(TraceEvent(kind, cycle=cycle, args=args))

        for message in self.outcome.messages[first:]:
            emit(SHARD_MSG_SENT, {
                "step": step,
                "src": message.src,
                "dst": message.dst,
                "bytes": message.payload_bytes,
                "queries": message.queries,
                "segments": message.segments,
            })
        for node in sorted(inbound):
            emit(SHARD_REDUCED, {
                "step": step,
                "node": node,
                "messages": inbound[node],
                "queries": int(np.count_nonzero(self.hold[node])),
            })
        for kind, args in pending:
            emit(kind, args)

    def finish(self, consumer: int = 0) -> ScheduleOutcome:
        """Close the outcome, asserting the consumer holds every partial."""
        missing = np.flatnonzero(self.present & ~self.hold[consumer])
        if len(missing):
            column = missing[0]
            raise RuntimeError(
                f"schedule {self.outcome.schedule!r} left query "
                f"{self.queries[column]} incomplete at node {consumer}: holds "
                f"{_pieces(self.hold[consumer, column])} of "
                f"{_pieces(self.present[column])}"
            )
        self.outcome.comm_pe_cycles = self._cursor
        return self.outcome

    # --- shared building blocks -------------------------------------------
    def exchange(
        self, distance: int, core: int, select: Optional[np.ndarray] = None
    ) -> None:
        """One pair-parallel step: node ``i`` ships to ``partner = i xor
        distance`` the queries ``select[i]`` marks (default: all it holds),
        giving selected ones up.  Every send reads the holdings as they
        were at the step's start, so no node ships back what its partner
        sent it in the same step."""
        step = self.outcome.steps
        nodes = range(core)
        sent = self.hold[:core].copy()
        if select is not None:
            sent[~select] = 0
            self.hold[:core][select] = 0
        inbound: Dict[int, int] = {}
        pair_cycles: Dict[Tuple[int, int], List[int]] = {}
        partners = [node ^ distance for node in nodes]
        for message in self.ship(step, nodes, partners, sent):
            node, partner = message.src, message.dst
            pair = (min(node, partner), max(node, partner))
            pair_cycles.setdefault(pair, []).append(self.message_cycles(message))
            inbound[partner] = inbound.get(partner, 0) + 1
        turns = max if self.link.duplex else sum
        longest = max((turns(cycles) for cycles in pair_cycles.values()), default=0)
        self.close_step(step, longest, inbound)

    def fold_in_extras(self, core: int) -> None:
        """Pre-step: shards beyond the power-of-two core ship to a partner."""
        if core >= self.num_pieces:
            return
        step = self.outcome.steps
        srcs = list(range(core, self.num_pieces))
        longest = 0
        inbound: Dict[int, int] = {}
        for message in self.ship(step, srcs, [src - core for src in srcs],
                                 self.hold[core:]):
            longest = max(longest, self.message_cycles(message))
            inbound[message.dst] = inbound.get(message.dst, 0) + 1
        self.close_step(step, longest, inbound)


def _pieces(mask: np.uint64) -> List[int]:
    """The piece ids set in ``mask``."""
    mask = int(mask)
    return [piece for piece in range(mask.bit_length()) if mask >> piece & 1]


class ReductionSchedule:
    """Interface: route every shard's partials to the consumer (node 0)."""

    name: str

    def run(
        self,
        touched: Mapping[int, Iterable[int]],
        num_pieces: int,
        vector_bytes: int,
        link: LinkModel,
        faults: Optional[FaultPlan] = None,
        policy: Optional[FaultPolicy] = None,
        batch: int = 0,
        tracer: Tracer = NULL_TRACER,
        start: int = 0,
    ) -> ScheduleOutcome:
        """Model one batch's cross-shard reduction.

        Args:
            touched: piece id → query positions that piece contributes to
                (the sparsity map; pieces may be absent).
            num_pieces: total shard count (piece ids are ``range`` of it).
            vector_bytes: bytes of one partial vector on the wire.
            link: inter-node link model.
            faults: optional chaos script — only its link faults apply here.
            policy: retransmit budget / timeout; defaults to fail-fast.
            batch: batch position, keying the seeded per-message decisions
                and tagging the emitted events.
            tracer: receives each step's ``shard_msg_sent``,
                ``shard_reduced`` and link-fault events.
            start: absolute PE cycle the batch's comm phase starts at; the
                events carry ``start`` plus the steps' cumulative cycles.
        """
        state = _RoutingState(touched, num_pieces, vector_bytes, link, self.name,
                              faults, policy, batch, tracer, start)
        self.route(state)
        return state.finish()

    def route(self, state: _RoutingState) -> None:
        """Move every partial to the consumer through ``state``'s steps."""
        raise NotImplementedError


class GatherToRoot(ReductionSchedule):
    """Everybody ships to shard 0; the root ingress drains serially."""

    name = SCHEDULE_GATHER

    def route(self, state: _RoutingState) -> None:
        if state.num_pieces > 1:
            srcs = range(1, state.num_pieces)
            sent = state.ship(0, srcs, [0] * len(srcs), state.hold[1:])
            cycles = sum(map(state.message_cycles, sent))
            state.close_step(0, cycles, {0: len(sent)} if sent else {})


class RecursiveDoubling(ReductionSchedule):
    """Butterfly exchange: ``log2 S`` pair-parallel full-size rounds."""

    name = SCHEDULE_RECURSIVE_DOUBLING

    def route(self, state: _RoutingState) -> None:
        core = _prev_pow2(state.num_pieces)
        state.fold_in_extras(core)
        distance = 1
        while distance < core:
            state.exchange(distance, core)
            distance *= 2


class ReduceScatterAllgather(ReductionSchedule):
    """Recursive halving over query chunks, then a doubling allgather."""

    name = SCHEDULE_REDUCE_SCATTER

    def route(self, state: _RoutingState) -> None:
        core = _prev_pow2(state.num_pieces)
        state.fold_in_extras(core)
        if core > 1:
            chunk = state.queries % core
            nodes = np.arange(core)
            # Recursive halving: shed the chunks belonging to the partner's
            # half, keep your own; after log2(core) rounds node i owns
            # exactly the fully-combined chunk i.
            distance = core // 2
            while distance >= 1:
                partner_half = (nodes ^ distance) & distance
                state.exchange(
                    distance, core, (chunk & distance) == partner_half[:, None]
                )
                distance //= 2
            # Doubling allgather: fully reduced chunks spread back out so
            # the consumer (and, symmetrically, every node) has the batch.
            distance = 1
            while distance < core:
                state.exchange(distance, core)
                distance *= 2


SCHEDULES: Dict[str, ReductionSchedule] = {
    schedule.name: schedule
    for schedule in (GatherToRoot(), ReduceScatterAllgather(), RecursiveDoubling())
}


def get_schedule(name: str) -> ReductionSchedule:
    """Look up a schedule by name; raises ``KeyError`` for unknown names."""
    try:
        return SCHEDULES[name]
    except KeyError:
        raise KeyError(
            f"unknown reduction schedule {name!r}; available: {sorted(SCHEDULES)}"
        ) from None
