"""Cycle-approximate execution of embedding-lookup batches on FAFNIR.

There is one batch path (paper §IV-A, §IV-C):

1. **Host** — batch preprocessing (:mod:`repro.core.batch`) produces the
   unique-index read list and numbers the batch's distinct queries.
2. **Memory** — reads are issued to the DDR4 model
   (:mod:`repro.memory`); each vector's message becomes ready at its DRAM
   completion time, converted into the PE clock domain.
3. **Leaf boundary** — each unique vector is fetched from the source once
   (through the source- and corruption-fault gauntlet when a fault plan
   is installed), and the read occurrences become the leaf FIFOs'
   columns (:class:`~repro.core.sweep.LeafColumns`).
4. **Tree** — :func:`~repro.core.sweep.sweep_stream` folds every leaf
   FIFO that can fold at once, in closed form over each (FIFO, query)
   pair's chain of reads, passes the rest through (a per-FIFO ``folds``
   mask picks which), then computes every PE of a level at once,
   leaves→root.  It writes the vector work as a combine program, which is
   evaluated one batch at a time.  Per-message ready cycles model the
   paper's conflict-free pipelining of distinct queries through distinct
   tree routes (``timing="dataflow"``), or the store-and-forward upper
   bound (``timing="phased"``).

A stream of batches (:meth:`FafnirEngine.run_batches`) runs a *chunk* of
batches at a time: up to :data:`CHUNK_READS` planned reads.  The host
plans each batch of the chunk, then places every read of the chunk in
DRAM with array arithmetic.  Each batch's stateful steps run in batch
order, as a loop of one-batch runs would take them: a memory pass from a
reset memory, then the source fetch or fault gauntlet and the re-plan.
Everything else is built once per chunk, as columns: the leaf FIFOs (home
rank → FIFO, one DRAM→PE cycle conversion), the query ids each read
serves (one canonical rank of the chunk's queries, keyed by batch) and
one matrix of the read vectors, a row per read occurrence.  Step 4 then
sweeps the whole chunk.  A single batch (:meth:`FafnirEngine.run_batch`)
is a chunk of one.

A batch whose plan, memory pass or fetch raises ends its chunk: the
batches before it are swept, and no later batch touches the memory, the
hot tier or the source.  Each batch's trace events are staged while the
chunk runs and replayed in batch order as its result is taken, the
raising batch's before its error, so a stream records and raises exactly
what a loop of one-batch runs does.

Faults are data on that path, not a second engine.  Lost reads and
exhausted fetches form the batch's *drop set*; a fault-free run is the
empty drop set.  A non-empty one re-plans the surviving queries before the
tree runs, so the completion guarantee holds for what remains.

The result is one reduced vector per query, a status per query, and a
:class:`LookupStats` record with everything the evaluation figures need
(latency split, DRAM behaviour, per-level PE work, data movement).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain
from typing import Callable, Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.clocks import convert_cycles, convert_cycles_array
from repro.core.batch import BatchPlan, plan_batch, stream_serving
from repro.core.config import FafnirConfig
from repro.core.operators import ReductionOperator, SUM, get_operator
from repro.core.pe import PEWork
from repro.core.sweep import (
    LeafColumns, SweepResult, ValuePool, fifo_positions, sweep_stream,
)
from repro.core.tree import FafnirTree, TreePE
from repro.faults.plan import (
    FAULT_SOURCE_ERROR,
    FAULT_VECTOR_CORRUPTION,
    FaultPlan,
    SourceFaultError,
    VectorCorruptionError,
)
from repro.faults.policy import (
    STATUS_DEGRADED,
    STATUS_FAILED,
    STATUS_OK,
    FaultPolicy,
)
from repro.memory.config import MemoryConfig
from repro.memory.mapping import RowMajorPlacement
from repro.memory.system import MemorySystem
from repro.memory.trace import AccessStats
from repro.obs.events import (
    BATCH_COMPLETE,
    BATCH_START,
    FAULT_DETECTED,
    FAULT_INJECTED,
    FIFO_ENQUEUE,
    FIFO_STALL,
    KIND_CODES,
    LEAF_INJECT,
    PIPELINE_BATCH,
    QUERY_COMPLETE,
    QUERY_DEGRADED,
    RETRY_ISSUED,
    TraceEvent,
)
from repro.obs.sinks import Sink
from repro.obs.tracer import NULL_TRACER, Tracer
from repro.tiering.cache import HotTierConfig

VectorSource = Callable[[int], np.ndarray]


def _unique_reads(plan: BatchPlan) -> Sequence[int]:
    """``plan.unique_indices`` without the sort: :func:`plan_batch`'s
    deduplicated reads already are the sorted unique indices."""
    return plan.reads if plan.deduplicated else plan.unique_indices


def _query_status(query: FrozenSet[int], dropped: Set[int]) -> str:
    """A query's status given its batch's drop set."""
    remaining = len(query - dropped)
    if remaining == len(query):
        return STATUS_OK
    return STATUS_DEGRADED if remaining else STATUS_FAILED


@dataclass
class LookupStats:
    """Measurements from one batch lookup.

    ``per_pe_work`` maps ``pe_id`` → the :class:`~repro.core.pe.PEWork`
    accumulated across every invocation of that PE during the batch; feed
    it (via this object) to :func:`repro.core.stats.tree_utilization` for
    the per-level / per-chip rollup.  The same quantities are observable
    event-by-event through ``repro.obs`` when the engine is constructed
    with a tracer: ``memory.reads`` counts ``mem_read_complete`` events,
    each query contributes one ``query_complete`` event at its
    ``ready_cycle``, and per-level reduce counts match
    ``repro.obs.per_level_counts``.  The counters here are always
    collected; the event stream is opt-in and purely observational.
    """

    memory: AccessStats
    per_pe_work: Dict[int, PEWork] = field(default_factory=dict)
    latency_pe_cycles: int = 0
    memory_latency_pe_cycles: int = 0
    total_lookups: int = 0
    unique_reads: int = 0
    dram_bytes_read: int = 0
    output_bytes: int = 0
    naive_movement_bytes: int = 0

    @property
    def compute_latency_pe_cycles(self) -> int:
        """Tree-side latency not hidden behind memory accesses."""
        return max(0, self.latency_pe_cycles - self.memory_latency_pe_cycles)

    @property
    def unique_fraction(self) -> float:
        return self.unique_reads / self.total_lookups if self.total_lookups else 0.0

    @property
    def accesses_saved(self) -> int:
        return self.total_lookups - self.unique_reads

    @property
    def total_work(self) -> PEWork:
        total = PEWork()
        for work in self.per_pe_work.values():
            total = total.merged_with(work)
        return total

    @property
    def movement_reduction_factor(self) -> float:
        """Bytes the baseline ships to cores ÷ bytes FAFNIR ships (n·q·v / n·v)."""
        if not self.output_bytes:
            return 0.0
        return self.naive_movement_bytes / self.output_bytes

    def latency_ns(self, config: FafnirConfig) -> float:
        return config.pe_clock.cycles_to_ns(self.latency_pe_cycles)


@dataclass
class LookupResult:
    """Per-query reduced vectors (submission order) and run statistics.

    ``statuses`` holds one entry per query:
    :data:`~repro.faults.policy.STATUS_OK` (all indices folded — every
    query of a fault-free run), :data:`~repro.faults.policy.STATUS_DEGRADED`
    (reduced over the surviving subset; the vector matches a CPU oracle on
    exactly those indices), or :data:`~repro.faults.policy.STATUS_FAILED`
    (no index survived; the vector is all-NaN poison, never silent zeros).
    ``dropped_indices`` is the batch's drop set — empty on a clean run.

    ``ready_pe_cycles`` is each query's completion cycle at the tree root
    (submission order, same length as ``vectors``; failed queries carry 0).
    The batch-level ``stats.latency_pe_cycles`` is its maximum; the
    per-query values let the cross-shard reducer time each query's partial
    individually.
    """

    vectors: List[np.ndarray]
    stats: LookupStats
    plan: BatchPlan
    statuses: List[str]
    dropped_indices: FrozenSet[int] = frozenset()
    ready_pe_cycles: List[int] = field(default_factory=list)

    @property
    def query_statuses(self) -> List[str]:
        return list(self.statuses)


@dataclass
class PipelineStats:
    """Timing of a multi-batch stream through one FAFNIR instance.

    The paper's host streams batch *k*'s reads at the memory while the tree
    is still draining batch *k−1* (§IV, Fig. 13): the memory system is the
    serializing resource, the tree pipelines distinct batches through
    distinct routes.  ``pipelined_latency_pe_cycles`` is the makespan under
    that overlap; ``serial_latency_pe_cycles`` is the no-overlap sum used by
    a batch-at-a-time host.
    """

    batches: int
    total_queries: int
    serial_latency_pe_cycles: int
    pipelined_latency_pe_cycles: int
    memory_busy_pe_cycles: int
    batch_completion_cycles: List[int] = field(default_factory=list)

    @property
    def pipeline_speedup(self) -> float:
        if not self.pipelined_latency_pe_cycles:
            return 1.0
        return self.serial_latency_pe_cycles / self.pipelined_latency_pe_cycles

    def makespan_ns(self, config: FafnirConfig) -> float:
        return config.pe_clock.cycles_to_ns(self.pipelined_latency_pe_cycles)

    def throughput_queries_per_s(self, config: FafnirConfig) -> float:
        ns = self.makespan_ns(config)
        return self.total_queries / (ns * 1e-9) if ns else 0.0


@dataclass
class MultiBatchResult:
    """Results of a streamed batch sequence plus pipeline timing."""

    results: List[LookupResult]
    pipeline: PipelineStats

    @property
    def vectors(self) -> List[np.ndarray]:
        """All per-query outputs, in submission order across batches."""
        return [vector for result in self.results for vector in result.vectors]

    @property
    def statuses(self) -> List[str]:
        """Per-query ``ok``/``degraded``/``failed``, aligned with ``vectors``."""
        return [
            status for result in self.results for status in result.query_statuses
        ]

    @property
    def memory_stats(self) -> AccessStats:
        merged: Optional[AccessStats] = None
        for result in self.results:
            merged = (
                result.stats.memory
                if merged is None
                else merged.merged_with(result.stats.memory)
            )
        return merged if merged is not None else AccessStats()


class FafnirEngine:
    """Executes batches of embedding-lookup queries on one FAFNIR instance."""

    def __init__(
        self,
        config: Optional[FafnirConfig] = None,
        operator: ReductionOperator = SUM,
        memory_config: Optional[MemoryConfig] = None,
        tracer: Optional[Tracer] = None,
        faults: Optional[FaultPlan] = None,
        fault_policy: Optional[FaultPolicy] = None,
        cache: Optional[HotTierConfig] = None,
        timing: str = "dataflow",
    ) -> None:
        """Build one FAFNIR instance.

        Args:
            config: accelerator shape and timing (paper defaults if None).
            operator: reduction operator (name or instance).
            memory_config: DDR4/HBM substrate; must match ``total_ranks``.
            tracer: event tracer threaded through the memory system, every
                PE, and the engine's own host-side hooks; ``None`` installs
                the zero-overhead :data:`~repro.obs.tracer.NULL_TRACER`.
            faults: seeded chaos script; ``None`` (the default) injects
                nothing, so every batch's drop set is empty.
            fault_policy: recovery budgets and the ``fail_fast``/``degrade``
                exhaustion mode (defaults to ``fail_fast``).
            cache: opt-in rank-level hot-index tier
                (:class:`~repro.tiering.cache.HotTierConfig`); ``None``
                (the default) keeps the memory path byte-identical to an
                uncached build.  The tier only changes modeled latency
                and DRAM access counts — functional results are
                invariant.
            timing: ``"dataflow"`` (the default) lets each message advance
                the moment its operands are ready — the optimistic end of
                the hardware.  ``"phased"`` is the store-and-forward upper
                bound: each PE waits for its whole input batch, grinds
                through its compares, then emits one output per cycle.
                Functional outputs and work counts are identical; only
                ready cycles differ.
        """
        if timing not in ("dataflow", "phased"):
            raise ValueError(
                f"unknown timing model {timing!r}; expected 'dataflow' or 'phased'"
            )
        self.timing = timing
        self.config = config or FafnirConfig()
        if isinstance(operator, str):
            operator = get_operator(operator)
        self.operator = operator
        if memory_config is None:
            memory_config = MemoryConfig().scaled_to_ranks(self.config.total_ranks)
        if memory_config.geometry.total_ranks != self.config.total_ranks:
            raise ValueError(
                "memory geometry rank count "
                f"({memory_config.geometry.total_ranks}) does not match the "
                f"FAFNIR configuration ({self.config.total_ranks})"
            )
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.faults = faults
        self.fault_policy = fault_policy if fault_policy is not None else FaultPolicy()
        self.cache_config = cache
        self.memory = MemorySystem(
            memory_config,
            tracer=self.tracer,
            faults=faults,
            fault_policy=self.fault_policy,
            cache=cache,
        )
        self.placement = RowMajorPlacement(memory_config.geometry, self.config.vector_bytes)
        self.tree = FafnirTree(self.config)
        #: Each rank's leaf FIFO (``-1``: wired to no leaf PE).
        self._rank_fifo = np.full(self.config.total_ranks, -1, np.int64)
        for rank, fifo in self._leaf_routes(self.tree.leaves()).items():
            self._rank_fifo[rank] = fifo
        #: The value pool's rows, reused by every sweep.
        self._pool_rows = ValuePool()
        self._stream: Optional[_Stream] = None

    # ------------------------------------------------------------------
    @staticmethod
    def _leaf_routes(leaves: Sequence[TreePE]) -> Dict[int, int]:
        """Each wired rank's leaf FIFO, ``2·leaf + side`` (leaf PEs are
        numbered first, so a leaf's id is its leaf number).

        The side comes from the rank's *position* in ``leaf.leaf_ranks`` —
        the first half of the leaf's ranks share FIFO 0, the rest FIFO 1 —
        so the routing stays correct for non-contiguous or permuted
        rank-to-leaf wirings (arithmetic on ``rank - leaf_ranks[0]`` would
        silently misroute those).
        """
        routes: Dict[int, int] = {}
        for leaf in leaves:
            ranks = leaf.leaf_ranks
            assert ranks is not None
            for position, rank in enumerate(ranks):
                routes[rank] = 2 * leaf.pe_id + (0 if 2 * position < len(ranks) else 1)
        return routes

    def _leaf_fifos(self, indices: Sequence[int], ranks) -> np.ndarray:
        """The leaf FIFO each of ``indices`` feeds, from its home rank in
        ``ranks``."""
        fifos = self._rank_fifo[ranks]
        if fifos.min() < 0:
            bad = int(np.argmax(fifos < 0))
            raise ValueError(
                f"index {indices[bad]}'s rank {ranks[bad]} is wired to no leaf PE"
            )
        return fifos

    def _place(self, reads: Sequence[np.ndarray]) -> Tuple[np.ndarray, np.ndarray]:
        """Place the reads of a chunk's batches (each batch's vector
        indices as an array) in DRAM at once: the indices, batch after
        batch, and the rows of their rank, bank, row and column (see
        :meth:`RowMajorPlacement.locate`)."""
        index = np.concatenate(reads) if reads else np.empty(0, np.int64)
        return index, self.placement.locate(index)

    def _leaf_columns(
        self,
        batches: Sequence["_Prepared"],
        index: np.ndarray,
        rank: np.ndarray,
        tracers: Sequence[Tracer],
    ) -> LeafColumns:
        """The leaf FIFOs of a chunk's batches, as one stream's columns.

        ``index`` and ``rank`` hold the vector index and home rank of every
        read the chunk placed (see :meth:`_place`); batch ``b``'s start at
        ``batches[b].start``.  Every read occurrence of a batch's tree plan
        is one entry, serving the query ids
        :func:`~repro.core.batch.stream_serving` lists for it and ready at
        *its own* read's completion: with deduplication one per index,
        serving every query that contains it; without, one per occurrence,
        serving one query, so the redundant reads the ablation pays for are
        charged individually rather than all riding the earliest copy (they
        later coalesce in the leaf FIFO, exactly as redundant copies
        physically would).  A re-planned batch keeps the reads of the
        indices it did not drop: every query holding such an index
        survives, in submission order, so occurrence ``j`` of an index
        still serves the ``j``-th query containing it and takes the
        ``j``-th read of it.  Each batch's arrivals go to ``tracers[b]``.
        """
        sizes = [len(batch.finish) for batch in batches]
        ends = np.cumsum(sizes)
        starts = np.array([batch.start for batch in batches], np.int64)
        read = np.arange(ends[-1]) + np.repeat(starts - (ends - sizes), sizes)
        index, rank = index[read], rank[read]
        cycle = np.fromiter(chain.from_iterable(batch.finish for batch in batches),
                            np.int64, len(read))
        batch = np.repeat(np.arange(len(batches)), sizes)
        deduplicated = batches[0].plan.deduplicated
        if not deduplicated:  # the ablation's reads run query-major: group them
            order = np.lexsort((index, batch))
            index, rank, cycle = index[order], rank[order], cycle[order]
        if any(b.dropped for b in batches):  # a dropped index's reads serve no query
            keep = np.ones(len(read), bool)
            for lo, hi, b in zip(ends - sizes, ends, batches):
                if b.dropped:
                    keep[lo:hi] = ~np.isin(index[lo:hi], list(b.dropped))
            index, rank, cycle, batch = index[keep], rank[keep], cycle[keep], batch[keep]
        ready = convert_cycles_array(cycle, self.config.dram_clock, self.config.pe_clock)
        fifo = self._rank_fifo[rank]  # every rank checked wired by its batch's _fetch
        serving = stream_serving([b.tree_plan for b in batches])
        values = (batches[0].values if len(batches) == 1
                  else np.concatenate([b.values for b in batches]))
        for b in batches:  # the matrix holds their rows now
            b.values = None
        if not deduplicated:
            values = np.repeat(values, serving.reads, axis=0)
        if tracers[0].enabled:
            edges = np.searchsorted(batch, np.arange(len(batches) + 1)).tolist()
            for b, tracer in enumerate(tracers):
                lo, hi = edges[b], edges[b + 1]
                self._emit_arrivals(tracer, rank[lo:hi], index[lo:hi], ready[lo:hi],
                                    fifo[lo:hi])
        return LeafColumns(
            index=index,
            fifo=fifo,
            ready=ready,
            id_counts=serving.counts,
            ids=serving.ids,
            values=values,
            fifos=2 * len(self.tree.leaves()),
            batch=batch,
        )

    def _emit_arrivals(self, tracer: Tracer, rank: np.ndarray, index: np.ndarray,
                       ready: np.ndarray, fifo: np.ndarray) -> None:
        """Record one batch's arrivals at its leaf FIFOs into ``tracer``, in
        arrival order (tracing enabled only).

        Each emits a ``leaf_inject`` for the read itself and a
        ``fifo_enqueue`` carrying the FIFO's occupancy after the append;
        occupancy beyond ``config.buffer_entries`` additionally raises a
        ``fifo_stall`` — the backpressure signal a sized hardware FIFO
        would assert (the functional model itself is unbounded).
        """
        pe, side, depth = fifo >> 1, fifo & 1, fifo_positions(fifo) + 1
        events = 2 + (depth > self.config.buffer_entries)
        arrival = np.repeat(np.arange(len(fifo)), events)
        step = np.arange(len(arrival)) - (np.cumsum(events) - events)[arrival]
        inject = step == 0
        args = np.c_[side[arrival], depth[arrival]]
        args[inject, 0] = index[arrival[inject]]
        kinds = np.array([KIND_CODES[LEAF_INJECT], KIND_CODES[FIFO_ENQUEUE],
                          KIND_CODES[FIFO_STALL]])
        tracer.emit_columns(
            kinds[step],
            ready[arrival],
            args,
            pe=pe[arrival],
            level=0,  # every leaf PE is on level 0
            rank=np.where(inject, rank[arrival], -1),
        )

    def _run_trees(
        self,
        plans: Sequence[BatchPlan],
        leaf: LeafColumns,
        tracers: Sequence[Tracer],
    ) -> List[Tuple[np.ndarray, List[int], Dict[int, PEWork]]]:
        """Leaf FIFOs → root for a stream of batches, whose leaf columns
        ``leaf`` are keyed by batch: per batch, each of its plan's queries'
        root value and ready cycle, plus the per-PE work.  ``tracers[b]``
        receives batch ``b``'s tree events."""
        return [
            (result.values, result.ready, result.per_pe_work)
            for result in self._sweep(plans, leaf, tracers)
        ]

    def _sweep(
        self,
        plans: Sequence[BatchPlan],
        leaf: LeafColumns,
        tracers: Sequence[Tracer],
    ) -> List[SweepResult]:
        """The closed-form sweep over the engine's current tree, operator
        and timing model."""
        phased = self.timing == "phased"
        return sweep_stream(plans, leaf, self.config, self.tree,
                            self.operator, tracers, phased, self._pool_rows)

    # ------------------------------------------------------------------
    def run_batch(
        self,
        queries: Sequence[Sequence[int]],
        source: VectorSource,
        deduplicate: bool = True,
    ) -> LookupResult:
        """Execute one batch of queries and return reduced vectors + stats.

        Memory starts from cold row buffers, so runs are deterministic.
        Reads are issued exactly once.  Rank faults surface as lost
        indices, leaf-boundary faults (transient source errors, vector
        corruption) during the fetch; under ``fail_fast`` any unrecovered
        fault has raised by the time the drop set is known.  An empty drop
        set runs the plan as is.  Otherwise the surviving queries are
        re-planned (reusing the recorded read completions, so no DRAM
        traffic is double-counted) and every query gets an explicit
        ``ok``/``degraded``/``failed`` status.

        A batch is a stream of one (see :meth:`run_batches`).  Inside
        :meth:`run_batches` each batch still comes through here, in order,
        so a wrapper of this method (a profiler, a span recorder) sees one
        call per batch; the first call of a chunk runs the whole chunk.

        Args:
            queries: batch of index lists (one list per query).
            source: callable giving the stored vector for a global index.
            deduplicate: eliminate redundant reads (the paper's mechanism);
                pass ``False`` for the ablation baseline.
        """
        stream = self._stream
        if stream is None or not stream.holds_next(queries):
            stream = _Stream(self, [queries], source, deduplicate)
        return stream.take()

    def _fetch(self, plan: BatchPlan, located: np.ndarray, source: VectorSource) -> "_Prepared":
        """A planned batch up to its leaf columns: its reads, placed at
        ``located`` (see :meth:`_place`), served from a reset memory, its
        vectors fetched (through the fault gauntlet when a plan is
        installed), and its queries re-planned when indices dropped.

        A read whose home rank is wired to no leaf PE fails the batch here,
        after its fetch, rather than when its chunk's leaf columns are
        built."""
        self.memory.reset()
        served, memory_stats = self.memory.execute(
            self.placement.reads_at(plan.reads, located)
        )
        dropped = {plan.reads[position] for position in self.memory.failed_positions}
        unique = _unique_reads(plan)
        if self.faults is None:  # nothing can fail: one pass, no gauntlet
            values = self._vectors(source, unique)
        else:
            kept = []
            for index in unique:
                if index in dropped:
                    continue
                value = self._fetch_one_vector(source, index)
                if value is None:
                    dropped.add(index)
                else:
                    kept.append(value)
            values = np.array(kept)  # a row per surviving index

        # A non-empty drop set re-plans the surviving queries, so every
        # row serves only queries whose vectors will arrive and the tree's
        # completion guarantee holds for what remains.
        tree_plan = plan
        positions: Sequence[int] = range(len(plan.queries))
        statuses = [STATUS_OK] * len(plan.queries)
        if dropped:
            statuses = [_query_status(query, dropped) for query in plan.queries]
            positions = [
                p for p, status in enumerate(statuses) if status != STATUS_FAILED
            ]
            if positions:
                tree_plan = plan_batch(
                    [plan.queries[p] - dropped for p in positions],
                    max_query_len=self.config.max_query_len,
                    deduplicate=plan.deduplicated,
                )
        self._leaf_fifos(plan.reads, located[0])
        return _Prepared(plan, memory_stats, dropped, statuses, positions, tree_plan,
                         served.finish, values)

    def _collect(
        self,
        batch: "_Prepared",
        tree: Optional[Tuple[np.ndarray, List[int], Dict[int, PEWork]]],
    ) -> LookupResult:
        """A prepared batch's result from its tree's output (``None`` when
        no query reached the tree)."""
        plan, statuses, dropped = batch.plan, batch.statuses, batch.dropped
        vectors: list = [None] * len(plan.queries)
        ready_cycles = [0] * len(plan.queries)
        per_pe_work: Dict[int, PEWork] = {}
        if tree is not None:
            root_values, root_ready, per_pe_work = tree
            for position, query, value, ready in zip(
                batch.positions, batch.tree_plan.queries, root_values, root_ready
            ):
                vectors[position] = self.operator.finalize(value, len(query))
                ready_cycles[position] = ready
                if self.tracer.enabled:
                    self.tracer.emit_packed(
                        QUERY_COMPLETE, ready, args=(position, len(query))
                    )
        for position, status in enumerate(statuses):
            if status == STATUS_OK:
                continue
            if status == STATUS_FAILED:
                vectors[position] = np.full(self.config.vector_elements, np.nan)
            if self.tracer.enabled:
                self.tracer.emit(
                    TraceEvent(
                        QUERY_DEGRADED,
                        cycle=ready_cycles[position],
                        args={
                            "query": position,
                            "status": status,
                            "dropped": sorted(plan.queries[position] & dropped),
                        },
                    )
                )

        memory_stats = batch.memory
        memory_pe_cycles = convert_cycles(
            memory_stats.finish_cycle, self.config.dram_clock, self.config.pe_clock
        )
        stats = LookupStats(
            memory=memory_stats,
            per_pe_work=per_pe_work,
            latency_pe_cycles=max(ready_cycles),
            memory_latency_pe_cycles=memory_pe_cycles,
            total_lookups=plan.total_lookups,
            unique_reads=len(_unique_reads(plan)),
            dram_bytes_read=memory_stats.bytes_read,
            output_bytes=len(plan.queries) * self.config.vector_bytes,
            naive_movement_bytes=plan.total_lookups * self.config.vector_bytes,
        )
        if self.tracer.enabled:
            self.tracer.emit(
                TraceEvent(
                    BATCH_COMPLETE,
                    cycle=stats.latency_pe_cycles,
                    args={
                        "queries": len(plan.queries),
                        "unique_reads": stats.unique_reads,
                        "dropped_indices": len(dropped),
                    },
                )
            )
        return LookupResult(
            vectors=vectors,
            stats=stats,
            plan=plan,
            statuses=statuses,
            dropped_indices=frozenset(dropped),
            ready_pe_cycles=ready_cycles,
        )

    def _vectors(self, source: VectorSource, indices: Sequence[int]) -> np.ndarray:
        """``source(index)`` for each of ``indices``, as the rows of one
        float64 matrix; raises ``ValueError`` naming the first vector of
        the wrong shape."""
        vectors = list(map(source, indices))
        shape = (len(vectors), self.config.vector_elements)
        try:
            matrix = np.array(vectors, np.float64)
        except (TypeError, ValueError):  # ragged or unconvertible: checked below
            matrix = None
        if matrix is not None and matrix.shape == shape:
            return matrix
        vectors = [np.asarray(vector, dtype=np.float64) for vector in vectors]
        for index, vector in zip(indices, vectors):
            if vector.shape != shape[1:]:
                raise ValueError(
                    f"vector {index} has shape {vector.shape}; expected {shape[1:]}"
                )
        return np.stack(vectors)

    def _fetch_one_vector(
        self, source: VectorSource, index: int
    ) -> Optional[np.ndarray]:
        """Fetch one vector through the fault plan's leaf-boundary gauntlet.

        It models two hazards: a flaky source (the fetch attempt raises;
        retried up to ``max_source_retries``) and in-flight corruption (the
        vector arrives bit-flipped or NaN-poisoned; the leaf's modelled
        end-to-end integrity check catches it and the vector is re-read up
        to ``max_corruption_retries``).  Returns the clean vector, ``None``
        when the budget is exhausted under ``degrade``, or raises under
        ``fail_fast``.
        """
        faults = self.faults
        assert faults is not None  # a run without a plan fetches in one pass
        policy = self.fault_policy
        attempt = 0
        while faults.source_raises(index, attempt):
            if not self._leaf_fault(
                FAULT_SOURCE_ERROR, index, attempt, policy.max_source_retries
            ):
                return None
            attempt += 1

        (value,) = self._vectors(source, (index,))
        attempt = 0
        while faults.corrupt_vector(index, attempt, value) is not None:
            if not self._leaf_fault(
                FAULT_VECTOR_CORRUPTION, index, attempt, policy.max_corruption_retries
            ):
                return None
            attempt += 1
        return value

    def _leaf_fault(self, fault: str, index: int, attempt: int, budget: int) -> bool:
        """Record one failed leaf-boundary attempt; returns whether to retry.

        Emits the attempt's inject→detect(→retry) events.  Once ``budget``
        retries are spent the fault is fatal: it raises under ``fail_fast``
        and returns ``False`` under ``degrade`` (the vector is dropped).
        """
        exhausted = attempt >= budget
        if self.tracer.enabled:
            rank = self.placement.home_rank(index)
            base = {"fault": fault, "index": index, "attempt": attempt}
            self.tracer.emit(
                TraceEvent(FAULT_INJECTED, cycle=0, rank=rank, args=dict(base))
            )
            detected = dict(base)
            if exhausted:
                detected["fatal"] = True
            self.tracer.emit(
                TraceEvent(FAULT_DETECTED, cycle=0, rank=rank, args=detected)
            )
            if not exhausted:
                retry = dict(base)
                retry["attempt"] = attempt + 1
                self.tracer.emit(
                    TraceEvent(RETRY_ISSUED, cycle=0, rank=rank, args=retry)
                )
        if exhausted and self.fault_policy.fail_fast:
            if fault == FAULT_SOURCE_ERROR:
                raise SourceFaultError(
                    f"vector source for index {index} kept raising; "
                    f"retry budget ({budget}) exhausted"
                )
            raise VectorCorruptionError(
                f"vector {index} failed its leaf-boundary integrity check on "
                f"every fetch; retry budget ({budget}) exhausted"
            )
        return not exhausted

    # ------------------------------------------------------------------
    def run_batches(
        self,
        batches: Sequence[Sequence[Sequence[int]]],
        source: VectorSource,
        deduplicate: bool = True,
    ) -> MultiBatchResult:
        """Stream a sequence of batches through the engine (paper §IV).

        The host issues batch *k*'s reads the moment the memory system
        frees up, while the tree is still draining batch *k−1* — the memory
        is the serializing resource and batch *k* completes at
        ``memory_start(k) + in_tree_latency(k)``.  The returned
        :class:`PipelineStats` carries that pipelined makespan and the
        batch-at-a-time host's serial sum side by side.

        Batches run a chunk of up to :data:`CHUNK_READS` planned reads at a
        time (see :class:`_Stream`): each batch's memory pass, from a reset
        memory, and its fetch run in batch order, exactly as
        :meth:`run_batch` runs them; the chunk's leaf columns, query ids and
        vector matrix are built at once, and its trees swept as one.
        Results, statuses, ready cycles, work, traced events, raised
        errors, memory and source accesses are those of a loop of
        :meth:`run_batch` calls.
        """
        batches = list(batches)
        if not batches:
            raise ValueError("need at least one batch")
        results: List[LookupResult] = []
        completions: List[int] = []
        memory_cursor = 0
        self._stream = _Stream(self, batches, source, deduplicate)
        try:
            for position, batch in enumerate(batches):
                result = self.run_batch(batch, source, deduplicate=deduplicate)
                stats = result.stats
                completions.append(memory_cursor + stats.latency_pe_cycles)
                if self.tracer.enabled:
                    self.tracer.emit(
                        TraceEvent(
                            PIPELINE_BATCH,
                            cycle=completions[-1],
                            args={
                                "batch": position,
                                "queries": len(result.plan.queries),
                                "memory_start": memory_cursor,
                            },
                        )
                    )
                memory_cursor += stats.memory_latency_pe_cycles
                results.append(result)
        finally:
            self._stream = None

        serial_total = sum(r.stats.latency_pe_cycles for r in results)
        pipeline_stats = PipelineStats(
            batches=len(results),
            total_queries=sum(len(r.plan.queries) for r in results),
            serial_latency_pe_cycles=serial_total,
            pipelined_latency_pe_cycles=max(completions),
            memory_busy_pe_cycles=memory_cursor,
            batch_completion_cycles=completions,
        )
        return MultiBatchResult(results=results, pipeline=pipeline_stats)


#: Read occurrences whose trees are swept as one chunk of a stream.  The
#: sweep's fixed per-level cost is paid once per chunk; its structure
#: arrays grow with the chunk, so the budget keeps them small.  A batch
#: with more reads is a chunk of its own.
CHUNK_READS = 2048


@dataclass
class _Prepared:
    """One batch of a chunk before its tree: its plan, the memory's record,
    its drop set and statuses, the positions of the queries that reach the
    tree and their (re-)plan, each planned read's finish cycle, the
    vectors of the tree plan's unique indices (a row each), where its
    reads start among the chunk's, and its staged events."""

    plan: BatchPlan
    memory: AccessStats
    dropped: Set[int]
    statuses: List[str]
    positions: Sequence[int]
    tree_plan: BatchPlan
    finish: List[int]
    values: Optional[np.ndarray]
    start: int = 0
    stage: Optional["_Stage"] = None


#: A planned batch of a stream: its plan, its reads as an int64 array, and
#: the stage holding its events (``None`` untraced).
_Planned = Tuple[BatchPlan, np.ndarray, Optional["_Stage"]]


class _Stage(Sink):
    """One batch's trace events, held until the batch's turn: every sink
    call, recorded in order and replayed into the tracer's sinks."""

    supports_packed = True

    def __init__(self) -> None:
        self.calls: List[Tuple[str, tuple]] = []

    def record(self, event: TraceEvent) -> None:
        self.calls.append(("record", (event,)))

    def record_packed(self, *fields) -> None:
        self.calls.append(("record_packed", fields))

    def record_columns(self, *fields) -> None:
        self.calls.append(("record_columns", fields))

    def replay(self, tracer: Tracer) -> None:
        for name, fields in self.calls:
            for sink in tracer.sinks:
                getattr(sink, name)(*fields)

    def tracer(self, like: Tracer) -> Tracer:
        """A tracer recording into this stage, dispatching as ``like``."""
        tracer = Tracer([self])
        tracer.all_packed = like.all_packed
        return tracer


class _Stream:
    """A batch stream, run a chunk at a time; results taken in order.

    The first :meth:`take` of a chunk plans batches until their reads
    reach :data:`CHUNK_READS` and places all their reads at once; then each
    batch, in order, runs its memory pass from a reset memory and its
    fetch (:meth:`FafnirEngine._fetch`); then the chunk's leaf columns are
    built and its trees swept as one.  Each batch's events are staged while
    the chunk runs and replayed when the batch is taken, so a traced stream
    is event for event a loop of one-batch runs.  A batch whose plan,
    memory pass or fetch raises ends the chunk: the batches before it are
    swept and taken as usual, and its own take replays its events and
    raises the error.
    """

    def __init__(self, engine: "FafnirEngine", batches: Sequence, source: VectorSource,
                 deduplicate: bool) -> None:
        self.engine, self.batches = engine, batches
        self.source, self.deduplicate = source, deduplicate
        self._taken = 0
        self._swept: List[Tuple[_Prepared, Optional[tuple]]] = []
        self._carried: Optional[_Planned] = None
        self._failed: Optional[Tuple[int, Exception, Optional[_Stage]]] = None

    def holds_next(self, queries) -> bool:
        """Whether ``queries`` is the batch this stream gives out next."""
        return self._taken < len(self.batches) and self.batches[self._taken] is queries

    def take(self) -> LookupResult:
        """The next batch's result (raising its error, if it failed)."""
        tracer = self.engine.tracer
        if not self._swept and self._failed is None:
            self._run_chunk()
        position = self._taken
        self._taken += 1
        if not self._swept:
            failed, error, stage = self._failed
            assert failed == position
            if stage is not None:
                stage.replay(tracer)
            raise error
        batch, tree = self._swept.pop(0)
        if batch.stage is not None:
            batch.stage.replay(tracer)
        return self.engine._collect(batch, tree)

    def _run_chunk(self) -> None:
        engine = self.engine
        index, rank, chunk = self._fetch_chunk()
        treed = [batch for batch in chunk if batch.positions]
        tracers = [self._tracer(batch) for batch in treed]
        trees = iter(engine._run_trees(
            [batch.tree_plan for batch in treed],
            engine._leaf_columns(treed, index, rank, tracers),
            tracers,
        ) if treed else ())
        self._swept = [
            (batch, next(trees) if batch.positions else None) for batch in chunk
        ]

    def _fetch_chunk(self) -> Tuple[np.ndarray, np.ndarray, List[_Prepared]]:
        """The next chunk's batches through their fetch, in order, up to
        the first that raises; and the index and home rank of every read
        the chunk placed."""
        planned = self._plan_chunk()
        index, located = self.engine._place([reads for _, reads, _ in planned])
        chunk: List[_Prepared] = []
        start = 0
        for position, (plan, _, stage) in enumerate(planned, self._taken):
            end = start + len(plan.reads)
            batch = self._fetch(position, plan, located[:, start:end], stage)
            if batch is None:
                break
            batch.start = start
            start = end
            chunk.append(batch)
        return index, located[0], chunk

    def _plan_chunk(self) -> List["_Planned"]:
        """Plan the batches from the next one on until their reads would
        pass :data:`CHUNK_READS` (a batch with more is a chunk of its own).
        A batch whose plan raises ends the chunk, its error kept."""
        chunk: List[_Planned] = []
        reads = 0
        position = self._taken
        while position < len(self.batches):
            planned, self._carried = self._carried or self._plan(position), None
            if planned is None:
                break
            size = len(planned[0].reads)
            if chunk and reads + size > CHUNK_READS:
                self._carried = planned
                break
            chunk.append(planned)
            reads += size
            position += 1
        return chunk

    def _tracer(self, batch: _Prepared) -> Tracer:
        tracer = self.engine.tracer
        return tracer if batch.stage is None else batch.stage.tracer(tracer)

    def _plan(self, position: int) -> Optional["_Planned"]:
        """Batch ``position``'s plan, its reads as an array, and the stage
        holding its events; ``None`` (the error kept for its take) if
        planning raises (an index past int64 raises here too)."""
        engine = self.engine
        queries = self.batches[position]
        stage = _Stage() if engine.tracer.enabled else None
        try:
            if len(queries) > engine.config.batch_size:
                raise ValueError(
                    f"batch of {len(queries)} exceeds configured batch size "
                    f"{engine.config.batch_size}"
                )
            if stage is not None:
                stage.record(TraceEvent(
                    BATCH_START, cycle=0,
                    args={"queries": len(queries), "dedup": self.deduplicate},
                ))
            plan = plan_batch(queries, max_query_len=engine.config.max_query_len,
                              deduplicate=self.deduplicate)
            reads = np.fromiter(plan.reads, np.int64, len(plan.reads))
        except Exception as error:
            self._failed = (position, error, stage)
            return None
        return plan, reads, stage

    def _fetch(self, position: int, plan: BatchPlan, located: np.ndarray,
               stage: Optional[_Stage]) -> Optional[_Prepared]:
        """:meth:`FafnirEngine._fetch` with the batch's events staged;
        ``None`` (the error kept for its take) if that raises."""
        tracer = self.engine.tracer
        sinks = tracer.sinks
        if stage is not None:
            tracer.sinks = [stage]
        try:
            batch = self.engine._fetch(plan, located, self.source)
        except Exception as error:
            self._failed = (position, error, stage)
            return None
        finally:
            tracer.sinks = sinks
        batch.stage = stage
        return batch
