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
from typing import Any, Dict, FrozenSet, List, Mapping, Optional, Set, Tuple

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


def _prev_pow2(n: int) -> int:
    power = 1
    while power * 2 <= n:
        power *= 2
    return power


def segment_count(
    held: FrozenSet[int], present: FrozenSet[int], num_pieces: int
) -> int:
    """Segments needed to ship ``held`` without breaking the canonical fold.

    A run of held pieces may travel as one combined vector only if it
    forms a *complete subtree* of the tournament over the query's present
    pieces; anything else must stay piece-tagged.  The count is therefore
    the number of maximal tournament subtrees fully covered by ``held``.
    """
    if not held:
        return 0

    def count(lo: int, hi: int) -> int:
        window_present = [p for p in present if lo <= p < hi]
        if not window_present:
            return 0
        if all(p in held for p in window_present):
            return 1
        if hi - lo == 1:
            return 0  # present but not held
        mid = (lo + hi) // 2
        return count(lo, mid) + count(mid, hi)

    return count(0, _next_pow2(num_pieces))


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
    """Piece holdings per node plus the bookkeeping all schedules share."""

    def __init__(
        self,
        touched: Mapping[int, FrozenSet[int]],
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
        self.num_pieces = num_pieces
        self.vector_bytes = vector_bytes
        self.link = link
        self.faults = faults if faults is not None and faults.touches_links else None
        self.policy = policy if policy is not None else FaultPolicy()
        self.batch = batch
        self.tracer = tracer
        self.start = start
        self._pending_faults: List[Tuple[str, Dict[str, Any]]] = []
        # present[q]: pieces contributing to query q (global sparsity map;
        # a real deployment learns this from the query headers it already
        # routes, exactly like the engine's header algebra).
        self.present: Dict[int, FrozenSet[int]] = {}
        for piece, queries in touched.items():
            for query in queries:
                existing = self.present.get(query, frozenset())
                self.present[query] = existing | {piece}
        # hold[node][q]: pieces of q currently resident on the node.
        self.hold: List[Dict[int, FrozenSet[int]]] = [
            {query: frozenset({piece}) for query in touched.get(piece, frozenset())}
            for piece in range(num_pieces)
        ]
        self.outcome = ScheduleOutcome(schedule=schedule, num_pieces=num_pieces, steps=0)
        self._cursor = 0  # relative PE-cycle end of the last closed step

    # --- message construction ---------------------------------------------
    def payload(
        self, src: int, queries: Optional[Set[int]] = None
    ) -> Tuple[Dict[int, FrozenSet[int]], int, int]:
        """(holdings shipped, payload bytes, segment count) for one send."""
        holdings = self.hold[src]
        if queries is not None:
            holdings = {q: holdings[q] for q in queries if q in holdings}
        segments = 0
        for query, held in holdings.items():
            segments += segment_count(held, self.present[query], self.num_pieces)
        payload_bytes = segments * (self.vector_bytes + SEGMENT_HEADER_BYTES)
        return holdings, payload_bytes, segments

    def send(
        self, step: int, src: int, dst: int, queries: Optional[Set[int]] = None
    ) -> Optional[CommMessage]:
        """Ship (a slice of) ``src``'s holdings to ``dst``; empty → no wire."""
        holdings, payload_bytes, segments = self.payload(src, queries)
        if not holdings:
            return None
        for query, held in holdings.items():
            self.hold[dst][query] = self.hold[dst].get(query, frozenset()) | held
        if queries is not None:
            for query in list(holdings):
                del self.hold[src][query]
        message = CommMessage(
            step=step,
            src=src,
            dst=dst,
            payload_bytes=payload_bytes,
            queries=len(holdings),
            segments=segments,
        )
        self.outcome.messages.append(message)
        self.outcome.total_bytes += payload_bytes
        return message

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
        if not self.tracer.enabled:
            return
        cycle = self.start + self._cursor

        def emit(kind: str, args: Dict[str, Any]) -> None:
            args = dict(args, batch=self.batch)
            self.tracer.emit(TraceEvent(kind, cycle=cycle, args=args))

        for message in self.outcome.messages:
            if message.step == step:
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
                "queries": len(self.hold[node]),
            })
        for kind, args in pending:
            emit(kind, args)

    def finish(self, consumer: int = 0) -> ScheduleOutcome:
        """Close the outcome, asserting the consumer holds every partial."""
        for query, present in self.present.items():
            held = self.hold[consumer].get(query, frozenset())
            if not held >= present:
                raise RuntimeError(
                    f"schedule {self.outcome.schedule!r} left query {query} "
                    f"incomplete at node {consumer}: holds {sorted(held)} "
                    f"of {sorted(present)}"
                )
        self.outcome.comm_pe_cycles = self._cursor
        return self.outcome

    # --- shared building blocks -------------------------------------------
    def exchange(self, distance: int, core: int, select=None) -> None:
        """One pair-parallel step: node ``i`` ships ``select(i, partner)``
        (default: all it holds) to ``partner = i xor distance``."""
        step = self.outcome.steps
        inbound: Dict[int, int] = {}
        pair_cycles: Dict[Tuple[int, int], List[int]] = {}
        for node in range(core):
            partner = node ^ distance
            queries = select(node, partner) if select is not None else None
            message = self.send(step, node, partner, queries)
            if message is not None:
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
        longest = 0
        inbound: Dict[int, int] = {}
        for src in range(core, self.num_pieces):
            message = self.send(step, src, src - core)
            if message is not None:
                longest = max(longest, self.message_cycles(message))
                inbound[src - core] = inbound.get(src - core, 0) + 1
        self.close_step(step, longest, inbound)


class ReductionSchedule:
    """Interface: route every shard's partials to the consumer (node 0)."""

    name: str

    def run(
        self,
        touched: Mapping[int, FrozenSet[int]],
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
            cycles = 0
            inbound: Dict[int, int] = {}
            for src in range(1, state.num_pieces):
                message = state.send(0, src, 0)
                if message is not None:
                    cycles += state.message_cycles(message)
                    inbound[0] = inbound.get(0, 0) + 1
            state.close_step(0, cycles, inbound)


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
            chunk_of = {query: query % core for query in state.present}
            # Recursive halving: shed the chunks belonging to the partner's
            # half, keep your own; after log2(core) rounds node i owns
            # exactly the fully-combined chunk i.
            distance = core // 2
            while distance >= 1:
                state.exchange(
                    distance,
                    core,
                    lambda node, partner: {
                        query
                        for query in state.hold[node]
                        if chunk_of[query] & distance == partner & distance
                    },
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
