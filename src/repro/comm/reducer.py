"""Cross-shard reduction: split queries over pieces, fold partials back.

The table-parallel execution model has three phases:

1. **Split** (:class:`ShardSplit`) — every query is cut along the
   :class:`~repro.comm.partition.IndexPartition`; each piece gets the
   sub-queries it owns indices of, batched into its own stream.  Empty
   sub-batches are dropped (a shard untouched by a batch does no work and
   ships no bytes — the sparse-awareness contract), with back-pointers
   retained so partials can be reassembled in submission order.
2. **Local reduction** — each shard runs its stream through an ordinary
   :class:`~repro.core.engine.FafnirEngine` under the *partial* operator
   (:func:`partial_operator`): the tree combine runs as usual but the
   host-side finalize is deferred, so a MEAN shard ships raw sums and the
   divide-by-count happens exactly once, at the very end, like the
   single-node engine does.
3. **Combine** (:class:`CrossShardReducer`) — per batch, the partials
   ride a pluggable :class:`~repro.comm.schedule.ReductionSchedule` over
   the modeled link for *timing*, while the *numbers* always go through
   :func:`~repro.core.operators.canonical_fold` — the schedule decides
   cost, never bytes.  Failed partials (every index the shard owned was
   dropped by faults) are skipped by the fold exactly as an absent
   subtree forwards in hardware, and surviving-index counts are summed
   across shards so ok/degraded/failed statuses match the single-node
   verdicts.  A batch's comm phase starts once its contributing partials
   are done and the link is free; the reducer and the schedule emit the
   phase into the runner's tracer at those absolute cycles.

With a subtree-aligned partition the whole three-phase pipeline is
**byte-identical** to running the batches on one node — the property the
reduction differential matrix asserts, including under index-keyed fault
plans.

**Resilience.**  A :class:`~repro.faults.plan.FaultPlan` can make pieces
*straggle* (their local completions stretch by a multiplier; a
:class:`~repro.resilience.hedging.HedgePolicy` races a healthy replica
against the tail) or go *dead* (their partials never arrive — the runner
routes around them by handing the reducer an ``absent_pieces`` set, and
the absent-piece-skipping :func:`canonical_fold` does the rest: surviving
queries stay bit-identical to a run without the dead shard's indices,
affected queries degrade or fail exactly like engine-side drops).  Link
loss and bandwidth degradation are consumed inside the schedules; all of
it is timing-or-absence, never silent numeric change.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import chain
from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.core.config import FafnirConfig
from repro.core.engine import MultiBatchResult
from repro.core.operators import (
    ReductionOperator,
    _identity_finalize,
    canonical_fold,
    get_operator,
)
from repro.comm.partition import IndexPartition
from repro.comm.schedule import (
    ReductionSchedule,
    ScheduleOutcome,
    check_piece_count,
    get_schedule,
)
from repro.faults.plan import (
    FAULT_SHARD_DEAD,
    FAULT_SHARD_STRAGGLER,
    FaultPlan,
)
from repro.faults.policy import (
    STATUS_DEGRADED,
    STATUS_FAILED,
    STATUS_OK,
    FaultPolicy,
)
from repro.hw.link import LinkModel
from repro.obs.events import (
    FAULT_DETECTED,
    FAULT_INJECTED,
    HEDGE_ISSUED,
    TraceEvent,
)
from repro.obs.tracer import NULL_TRACER, Tracer
from repro.resilience.hedging import HedgeAccounting, HedgePolicy, plan_hedges

Batch = Sequence[Sequence[int]]


def partial_operator(operator: Union[str, ReductionOperator]) -> ReductionOperator:
    """The shard-local variant of ``operator``: combine now, finalize never.

    Finalization (MEAN's divide-by-count) must see the *global* surviving
    count, so shards run with it stubbed out and the reducer applies the
    real finalize once after the cross-shard fold.  The stub is the
    module-level :func:`~repro.core.operators._identity_finalize`, keeping
    the operator picklable for worker processes.
    """
    if isinstance(operator, str):
        operator = get_operator(operator)
    return ReductionOperator(operator.name, operator.combine, _identity_finalize)


@dataclass(frozen=True)
class Contributors:
    """One batch's per-piece sub-queries as columns, piece-major and, within
    a piece, in sub-batch order; a piece's stream position is in
    ``groups``.

    Attributes:
        query: the sub-query's query position in the batch.
        piece: the piece owning the sub-query's indices.
        sub: the sub-query's position in its piece's sub-batch.
        size: the sub-query's distinct index count.
        groups: per piece, ``(piece, stream, lo, hi)``: its sub-batch is
            ``stream``-th in its stream and its rows span ``lo:hi``.
    """

    query: np.ndarray
    piece: np.ndarray
    sub: np.ndarray
    size: np.ndarray
    groups: Tuple[Tuple[int, int, int, int], ...]


class ShardSplit:
    """One batch stream cut along a partition into per-piece streams.

    Attributes:
        streams: piece → its list of non-empty sub-batches.
        contributors: per original batch, its sub-queries as
            :class:`Contributors` columns.
        active_pieces: pieces with at least one sub-batch, ascending.
    """

    def __init__(self, batches: Sequence[Batch], partition: IndexPartition) -> None:
        self.partition = partition
        self.num_pieces = partition.num_pieces
        self.streams: Dict[int, List[List[List[int]]]] = {}
        self.contributors: List[Contributors] = []
        for batch in batches:
            self.contributors.append(self._split(batch))
        self.active_pieces: List[int] = sorted(self.streams)

    def _split(self, batch: Batch) -> Contributors:
        """Cut one batch: its sub-queries, piece by piece and within a
        piece in query order, each in its query's index order, join the
        pieces' streams."""
        lengths = [len(query) for query in batch]
        flat = list(chain.from_iterable(batch))
        if not flat:
            empty = np.zeros(0, np.int64)
            return Contributors(empty, empty, empty, empty, ())
        # One stable sort by (piece, query position) keeps index order.
        key = self.partition.owners(np.array(flat, np.int64)) * len(batch) + np.repeat(
            np.arange(len(batch)), lengths)
        order = np.argsort(key, kind="stable")
        key = key[order]
        starts = np.flatnonzero(np.diff(key, prepend=-1))
        piece, query = np.divmod(key[starts], len(batch))
        indices = list(map(flat.__getitem__, order.tolist()))
        bounds = [*starts.tolist(), len(key)]
        subs = [indices[lo:hi] for lo, hi in zip(bounds, bounds[1:])]
        firsts = np.flatnonzero(np.diff(piece, prepend=-1))
        edges = [*firsts.tolist(), len(piece)]
        groups = []
        for owner, lo, hi in zip(piece[firsts].tolist(), edges, edges[1:]):
            stream = self.streams.setdefault(owner, [])
            groups.append((owner, len(stream), lo, hi))
            stream.append(subs[lo:hi])
        return Contributors(
            query=query,
            piece=piece,
            sub=np.arange(len(piece)) - np.repeat(firsts, np.diff(edges)),
            size=np.fromiter(map(len, map(set, subs)), np.int64, len(subs)),
            groups=tuple(groups),
        )

    def shard_streams(self) -> List[List[List[List[int]]]]:
        """The per-piece batch streams, ordered like ``active_pieces``
        (the shard list handed to :meth:`ShardedRunner.run`)."""
        return [self.streams[piece] for piece in self.active_pieces]


@dataclass
class ReducedBatchResult:
    """One batch after the cross-shard fold.

    ``local_ready_pe_cycles`` are per-query completion cycles of the
    slowest contributing *partial* (schedule-independent — they measure
    shard-local work); ``outcome`` carries the schedule's modeled cost for
    the batch's comm phase.
    """

    vectors: List[np.ndarray]
    statuses: List[str]
    local_ready_pe_cycles: List[int]
    outcome: ScheduleOutcome
    comm_start_pe_cycles: int = 0
    comm_end_pe_cycles: int = 0
    hedged_pieces: List[int] = field(default_factory=list)


@dataclass
class ReducedRunResult:
    """A whole batch stream executed table-parallel and reduced."""

    batches: List[ReducedBatchResult]
    schedule: str
    partition: IndexPartition
    link: LinkModel
    shard_results: List[MultiBatchResult] = field(default_factory=list)
    active_pieces: List[int] = field(default_factory=list)
    local_makespan_pe_cycles: int = 0
    comm_pe_cycles: int = 0
    makespan_pe_cycles: int = 0
    absent_pieces: List[int] = field(default_factory=list)
    hedges: HedgeAccounting = field(default_factory=HedgeAccounting)

    @property
    def vectors(self) -> List[np.ndarray]:
        """All reduced vectors, submission order across batches."""
        return [vector for batch in self.batches for vector in batch.vectors]

    @property
    def statuses(self) -> List[str]:
        return [status for batch in self.batches for status in batch.statuses]

    @property
    def total_comm_bytes(self) -> int:
        return sum(batch.outcome.total_bytes for batch in self.batches)

    @property
    def total_messages(self) -> int:
        return sum(batch.outcome.message_count for batch in self.batches)

    @property
    def total_steps(self) -> int:
        return sum(batch.outcome.steps for batch in self.batches)


class CrossShardReducer:
    """Folds per-shard partial results back into per-query answers."""

    def __init__(
        self,
        partition: IndexPartition,
        schedule: Union[str, ReductionSchedule],
        link: Optional[LinkModel] = None,
        operator: Union[str, ReductionOperator] = "sum",
        config: Optional[FafnirConfig] = None,
        faults: Optional[FaultPlan] = None,
        policy: Optional[FaultPolicy] = None,
        hedge: Optional[HedgePolicy] = None,
    ) -> None:
        check_piece_count(partition.num_pieces)
        self.partition = partition
        self.schedule = (
            get_schedule(schedule) if isinstance(schedule, str) else schedule
        )
        self.link = link if link is not None else LinkModel()
        self.operator = (
            get_operator(operator) if isinstance(operator, str) else operator
        )
        self.config = config if config is not None else FafnirConfig()
        self.faults = faults
        self.policy = policy
        self.hedge = hedge

    def combine(
        self,
        batches: Sequence[Batch],
        split: ShardSplit,
        shard_results: Sequence[MultiBatchResult],
        absent_pieces: FrozenSet[int] = frozenset(),
        tracer: Tracer = NULL_TRACER,
    ) -> ReducedRunResult:
        """Fold ``shard_results`` (ordered like ``split.active_pieces``).

        Each shard's partials must have been produced under
        :func:`partial_operator`; this is where the real finalize runs.
        ``absent_pieces`` are active pieces whose partials never arrived
        (dead shards the runner routed around); ``shard_results`` must be
        ordered like the active pieces *minus* the absent ones.

        ``tracer`` receives the comm phase at absolute PE cycles: the
        dead-shard events first, then per batch its straggler and hedge
        events and the schedule's steps.  A batch's comm phase starts once
        its contributing shards (stretched by stragglers, cut by hedges)
        are done and the previous batch has left the link, so it is known
        before the schedule runs.
        """
        present_pieces = [
            piece for piece in split.active_pieces if piece not in absent_pieces
        ]
        by_piece: Dict[int, MultiBatchResult] = dict(
            zip(present_pieces, shard_results)
        )
        if len(by_piece) != len(shard_results):
            raise ValueError(
                f"{len(shard_results)} shard results for "
                f"{len(present_pieces)} present pieces"
            )
        faults = self.faults
        stragglers_active = bool(
            faults is not None and faults.straggler_multipliers
        )
        reduced: List[ReducedBatchResult] = []
        tracing = tracer.enabled
        hedges = HedgeAccounting()
        if tracing:
            for piece in sorted(absent_pieces):
                args = {"fault": FAULT_SHARD_DEAD, "shard": piece}
                tracer.emit(TraceEvent(FAULT_INJECTED, cycle=0, args=args))
                tracer.emit(
                    TraceEvent(FAULT_DETECTED, cycle=0, args=dict(args, fatal=True))
                )
        comm_cursor = 0
        for batch_pos, batch in enumerate(batches):
            columns = split.contributors[batch_pos]
            touched, piece_done, surviving, ready = self._survivors(columns, by_piece)
            vectors, statuses = self._fold(len(batch), columns, by_piece, surviving)
            live = surviving > 0
            local_ready = np.zeros(len(batch), np.int64)
            np.maximum.at(local_ready, columns.query[live], ready[live])
            local_ready = local_ready.tolist()
            hedged_pieces: List[int] = []
            if stragglers_active and piece_done:
                assert faults is not None
                slowed = {
                    piece: int(math.ceil(done * faults.shard_slowdown(piece)))
                    for piece, done in piece_done.items()
                }
                for piece in sorted(slowed):
                    if tracing and slowed[piece] > piece_done[piece]:
                        tracer.emit(
                            TraceEvent(
                                FAULT_INJECTED,
                                cycle=slowed[piece],
                                args={
                                    "fault": FAULT_SHARD_STRAGGLER,
                                    "shard": piece,
                                    "batch": batch_pos,
                                    "multiplier": faults.shard_slowdown(piece),
                                },
                            )
                        )
                effective = slowed
                if self.hedge is not None:
                    effective, decisions = plan_hedges(
                        slowed, piece_done, self.hedge
                    )
                    for decision in decisions:
                        hedges.absorb(decision)
                        hedged_pieces.append(decision.piece)
                        if tracing:
                            tracer.emit(
                                TraceEvent(
                                    HEDGE_ISSUED,
                                    cycle=decision.issued_at,
                                    args={
                                        "shard": decision.piece,
                                        "batch": batch_pos,
                                        "issued_at": decision.issued_at,
                                        "won": decision.won,
                                        "saved": decision.saved_cycles,
                                        "wasted": decision.wasted_cycles,
                                    },
                                )
                            )
                partials_done = max(effective.values(), default=0)
                # Per-query readies stretch with their piece, capped by the
                # post-race effective completion when a hedge cut the tail.
                contrib_ready: List[Dict[int, int]] = [{} for _ in batch]
                for query_pos, piece, slot_ready in zip(
                    columns.query[live].tolist(),
                    columns.piece[live].tolist(),
                    ready[live].tolist(),
                ):
                    contrib_ready[query_pos][piece] = slot_ready
                local_ready = [
                    max(
                        (
                            min(
                                int(
                                    math.ceil(
                                        slot_ready * faults.shard_slowdown(piece)
                                    )
                                ),
                                effective.get(piece, slowed.get(piece, slot_ready)),
                            )
                            for piece, slot_ready in ready_by_piece.items()
                        ),
                        default=0,
                    )
                    for ready_by_piece in contrib_ready
                ]
            else:
                partials_done = max(piece_done.values(), default=0)
            comm_start = max(partials_done, comm_cursor)
            outcome = self.schedule.run(
                touched,
                self.partition.num_pieces,
                self.config.vector_bytes,
                self.link,
                faults=faults,
                policy=self.policy,
                batch=batch_pos,
                tracer=tracer,
                start=comm_start,
            )
            comm_cursor = comm_start + outcome.comm_pe_cycles
            reduced.append(
                ReducedBatchResult(
                    vectors=vectors,
                    statuses=statuses,
                    local_ready_pe_cycles=local_ready,
                    outcome=outcome,
                    comm_start_pe_cycles=comm_start,
                    comm_end_pe_cycles=comm_cursor,
                    hedged_pieces=hedged_pieces,
                )
            )

        local_makespan = max(
            (r.pipeline.pipelined_latency_pe_cycles for r in shard_results),
            default=0,
        )
        return ReducedRunResult(
            batches=reduced,
            schedule=self.schedule.name,
            partition=self.partition,
            link=self.link,
            shard_results=list(shard_results),
            active_pieces=list(split.active_pieces),
            local_makespan_pe_cycles=local_makespan,
            comm_pe_cycles=sum(b.outcome.comm_pe_cycles for b in reduced),
            makespan_pe_cycles=max(local_makespan, comm_cursor),
            absent_pieces=sorted(absent_pieces),
            hedges=hedges,
        )

    @staticmethod
    def _survivors(
        columns: Contributors, by_piece: Dict[int, MultiBatchResult]
    ) -> Tuple[Dict[int, np.ndarray], Dict[int, int], np.ndarray, np.ndarray]:
        """Which of one batch's sub-queries arrived with surviving indices.

        Returns the schedule's touched map (piece → query positions), each
        arrived piece's local completion of the batch, and per sub-query
        its surviving index count (0: dead shard or failed partial, an
        absent subtree that forwards) and its ready cycle.
        """
        surviving = np.zeros(len(columns.query), np.int64)
        ready = np.zeros(len(columns.query), np.int64)
        touched: Dict[int, np.ndarray] = {}
        piece_done: Dict[int, int] = {}
        for piece, stream, lo, hi in columns.groups:
            shard = by_piece.get(piece)
            if shard is None:
                continue  # dead shard — its subtree is absent
            piece_done[piece] = shard.pipeline.batch_completion_cycles[stream]
            result = shard.results[stream]
            surviving[lo:hi] = columns.size[lo:hi]
            dropped = result.dropped_indices
            if dropped:
                surviving[lo:hi] -= [len(dropped & sub) for sub in result.plan.queries]
            ready[lo:hi] = result.ready_pe_cycles
            arrived = columns.query[lo:hi][surviving[lo:hi] > 0]
            if len(arrived):
                touched[piece] = arrived
        return touched, piece_done, surviving, ready

    def _fold(
        self,
        queries: int,
        columns: Contributors,
        by_piece: Dict[int, MultiBatchResult],
        surviving: np.ndarray,
    ) -> Tuple[List[np.ndarray], List[str]]:
        """Each query's finalized vector and status.

        Queries with the same pieces present fold together: one
        :func:`canonical_fold` over (queries × elements) arrays per
        presence pattern, bitwise equal to folding each query alone since
        ``combine`` is elementwise.
        """
        live = surviving > 0
        query, piece, sub = columns.query[live], columns.piece[live], columns.sub[live]
        total = np.bincount(query, surviving[live], minlength=queries).astype(np.int64)
        unique = np.bincount(columns.query, columns.size, minlength=queries).astype(np.int64)
        code = np.where(total == unique, 0, np.where(total > 0, 1, 2)).tolist()
        statuses = [(STATUS_OK, STATUS_DEGRADED, STATUS_FAILED)[n] for n in code]

        pattern = np.zeros(queries, np.uint64)
        np.bitwise_or.at(pattern, query, np.left_shift(np.uint64(1), piece.astype(np.uint64)))
        _, group = np.unique(pattern, return_inverse=True)
        num_pieces = self.partition.num_pieces
        key = group[query] * num_pieces + piece
        order = np.lexsort((query, key))
        key, query, sub = key[order], query[order], sub[order]
        starts = np.flatnonzero(np.diff(key, prepend=-1)).tolist()
        stacked = {
            piece: np.stack(by_piece[piece].results[stream].vectors)
            for piece, stream, lo, hi in columns.groups
            if live[lo:hi].any()
        }
        patterns: Dict[int, Tuple[np.ndarray, Dict[int, np.ndarray]]] = {}
        for lo, hi in zip(starts, starts[1:] + [len(key)]):
            pattern_id, owner = divmod(int(key[lo]), num_pieces)
            members, entries = patterns.setdefault(pattern_id, (query[lo:hi], {}))
            entries[owner] = stacked[owner][sub[lo:hi]]

        vectors: List[np.ndarray] = [None] * queries  # type: ignore[list-item]
        finalize = self.operator.finalize
        counts = total.tolist()
        for members, entries in patterns.values():
            folded = canonical_fold(entries, num_pieces, self.operator.combine)
            for position, row in zip(members.tolist(), folded):
                vectors[position] = finalize(row, counts[position])
        elements = self.config.vector_elements
        for position in np.flatnonzero(total == 0).tolist():
            vectors[position] = np.full(elements, np.nan)
        return vectors, statuses
