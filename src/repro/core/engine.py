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

A stream of batches (:meth:`FafnirEngine.run_batches`) takes steps 1–3
batch by batch, each from a reset memory, and step 4 for a chunk of
batches at once: up to :data:`CHUNK_READS` read occurrences, keyed by
batch.  A single batch (:meth:`FafnirEngine.run_batch`) is a stream of
one.  While a chunk runs, each batch's trace events are staged; they are
replayed in batch order as its result is taken, so a traced stream
records exactly what a loop of one-batch runs records.

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
from typing import (
    Callable, Dict, FrozenSet, List, Mapping, Optional, Sequence, Set, Tuple,
)

import numpy as np

from repro.clocks import convert_cycles, convert_cycles_array
from repro.core.batch import BatchPlan, plan_batch
from repro.core.config import FafnirConfig
from repro.core.operators import ReductionOperator, SUM, get_operator
from repro.core.pe import PEWork
from repro.core.sweep import LeafColumns, SweepResult, fifo_positions, sweep_stream
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
from repro.memory.mapping import RowMajorPlacement, VectorPlacement
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
        self.placement: VectorPlacement = RowMajorPlacement(
            memory_config.geometry, self.config.vector_bytes
        )
        self.tree = FafnirTree(self.config)
        self._rank_fifo = self._leaf_routes(self.tree.leaves())
        self._stream: Optional[_Stream] = None

    # ------------------------------------------------------------------
    def _read_occurrences(self, reads: Sequence[int]) -> Tuple[List[int], AccessStats]:
        """Issue one read occurrence per entry of ``reads``.

        Returns each occurrence's finish cycle, in ``reads`` order, and the
        memory system's access record.  An occurrence finishes when the
        **last** of its placement's pieces completes (a vector is usable
        only once every piece has arrived).
        """
        placement = self.placement
        served, stats = self.memory.execute(placement.reads_for(reads))
        finish = served.finish
        pieces = placement.pieces_per_vector
        if pieces != 1:
            finish = [
                max(finish[start : start + pieces])
                for start in range(0, len(finish), pieces)
            ]
        return finish, stats

    def _fetch_from_memory(
        self, reads: Sequence[int]
    ) -> Tuple[Tuple[np.ndarray, np.ndarray], Set[int], AccessStats]:
        """Issue every read once.

        Returns ``(finish, lost, stats)``.  Each entry of ``reads`` (a
        plan's ``reads``, or one query's indices) is one *occurrence*: a
        deduplicated plan has one occurrence per unique index, the
        ablation plan one per (query, index) lookup.  ``finish`` is the
        column pair ``(index, cycle)``: every occurrence's index and finish
        cycle (see :meth:`_read_occurrences`), stably sorted by index, so
        an index's occurrences sit together in issue order.  ``lost``
        holds the indices a rank fault lost for good; ``stats`` is the
        memory system's access record for the batch.
        """
        occurrence_finish, stats = self._read_occurrences(reads)
        index = np.asarray(reads, np.int64)
        order = np.argsort(index, kind="stable")
        finish = (index[order], np.asarray(occurrence_finish, np.int64)[order])
        # Any lost piece loses the whole vector; a vector with any lost
        # occurrence is dropped entirely (the engine degrades per index,
        # not per occurrence).
        pieces = self.placement.pieces_per_vector
        lost = {reads[position // pieces] for position in self.memory.failed_positions}
        return finish, lost, stats

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

    def _leaf_fifos(self, indices: Sequence[int]) -> Tuple[list, list]:
        """Each index's home rank and the leaf FIFO it feeds."""
        ranks = list(map(self.placement.home_rank, indices))
        fifos = list(map(self._rank_fifo.get, ranks))
        if None in fifos:
            bad = fifos.index(None)
            raise ValueError(
                f"index {indices[bad]}'s rank {ranks[bad]} is wired to no leaf PE"
            )
        return ranks, fifos

    def _leaf_inputs(
        self,
        plan: BatchPlan,
        finish: Tuple[np.ndarray, np.ndarray],
        values: Mapping[int, np.ndarray],
    ) -> LeafColumns:
        """Build the leaf FIFOs, as columns, from the fetched vectors.

        ``values`` maps each of ``plan``'s unique indices to its vector.
        Every read occurrence is one entry, serving the query ids
        ``plan.serving`` lists for it and ready at *its own* read's
        completion: with deduplication one per index, serving every query
        that contains it; without, one per occurrence, serving one query,
        so the redundant reads the ablation pays for are charged
        individually rather than all riding the earliest copy (they later
        coalesce in the leaf FIFO, exactly as redundant copies physically
        would).  ``finish`` (see :meth:`_fetch_from_memory`) may come from
        the plan ``plan`` re-plans: every query holding a surviving index
        survives, in submission order, so occurrence ``j`` still serves the
        ``j``-th query containing the index, and takes the ``j``-th finish
        cycle of its index.
        """
        unique = plan.unique_indices
        ranks, fifos = self._leaf_fifos(unique)
        serving = plan.serving
        counts = serving.reads
        occurrences = len(serving.counts)
        read_index, read_cycle = finish
        first = np.searchsorted(read_index, unique) - (np.cumsum(counts) - counts)
        cycles = read_cycle[np.repeat(first, counts) + np.arange(occurrences)]
        ready = convert_cycles_array(
            cycles.astype(np.float64), self.config.dram_clock, self.config.pe_clock
        )
        vectors = list(map(values.__getitem__, unique))
        if occurrences != len(unique):  # the ablation reads an index per query
            vectors = [v for v, n in zip(vectors, counts.tolist()) for _ in range(n)]
        index = np.repeat(np.array(unique, np.int64), counts)
        fifo = np.repeat(np.array(fifos, np.int64), counts)
        if self.tracer.enabled:
            self._emit_arrivals(np.repeat(np.array(ranks, np.int64), counts),
                                index, ready, fifo)
        return LeafColumns(
            index=index,
            fifo=fifo,
            ready=ready,
            id_counts=serving.counts,
            ids=serving.ids,
            values=vectors,
            fifos=2 * len(self.tree.leaves()),
            batch=np.zeros(len(index), np.int64),
        )

    def _emit_arrivals(self, rank: np.ndarray, index: np.ndarray,
                       ready: np.ndarray, fifo: np.ndarray) -> None:
        """Record each occurrence's arrival at its leaf FIFO, in arrival
        order (tracing enabled only).

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
        self.tracer.emit_columns(
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
        leaves: Sequence[LeafColumns],
        tracers: Sequence[Tracer],
    ) -> List[Tuple[np.ndarray, List[int], Dict[int, PEWork]]]:
        """Leaf FIFOs → root for a stream of batches: per batch, each of its
        plan's queries' root value and ready cycle, plus the per-PE work.
        ``tracers[b]`` receives batch ``b``'s tree events."""
        return [
            (result.values, result.ready, result.per_pe_work)
            for result in self._sweep(plans, leaves, tracers)
        ]

    def _sweep(
        self,
        plans: Sequence[BatchPlan],
        leaves: Sequence[LeafColumns],
        tracers: Sequence[Tracer],
    ) -> List[SweepResult]:
        """The closed-form sweep over the engine's current tree, operator
        and timing model."""
        phased = self.timing == "phased"
        return sweep_stream(plans, leaves, self.config, self.tree,
                            self.operator, tracers, phased)

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

    def _prepare(
        self, queries: Sequence[Sequence[int]], source: VectorSource, deduplicate: bool
    ) -> "_Prepared":
        """A batch up to its tree: planned, fetched from a reset memory,
        through the fault gauntlet, and re-planned when indices dropped."""
        if len(queries) > self.config.batch_size:
            raise ValueError(
                f"batch of {len(queries)} exceeds configured batch size "
                f"{self.config.batch_size}"
            )
        self.memory.reset()
        if self.tracer.enabled:
            self.tracer.emit(
                TraceEvent(
                    BATCH_START,
                    cycle=0,
                    args={"queries": len(queries), "dedup": deduplicate},
                )
            )

        plan = plan_batch(
            queries, max_query_len=self.config.max_query_len, deduplicate=deduplicate
        )
        finish_cycles, dropped, memory_stats = self._fetch_from_memory(plan.reads)
        unique = plan.unique_indices
        if self.faults is None:  # nothing can fail: one pass, no gauntlet
            values = dict(zip(unique, self._fetch_vectors(source, unique)))
        else:
            values = {}
            for index in unique:
                if index in dropped:
                    continue
                value = self._fetch_one_vector(source, index)
                if value is None:
                    dropped.add(index)
                else:
                    values[index] = value

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
                    deduplicate=deduplicate,
                )
        leaf = self._leaf_inputs(tree_plan, finish_cycles, values) if positions else None
        return _Prepared(plan, memory_stats, dropped, statuses, positions, tree_plan, leaf)

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
            unique_reads=len(plan.unique_indices),
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
                        "unique_reads": len(plan.unique_indices),
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

    def _fetch_vectors(
        self, source: VectorSource, indices: Sequence[int]
    ) -> List[np.ndarray]:
        """``source(index)`` as float64 for each of ``indices``; raises
        ``ValueError`` naming the first vector of the wrong shape."""
        vectors = [np.asarray(source(index), dtype=np.float64) for index in indices]
        shape = (self.config.vector_elements,)
        if {vector.shape for vector in vectors} - {shape}:
            bad = next(n for n, vector in enumerate(vectors) if vector.shape != shape)
            raise ValueError(
                f"vector {indices[bad]} has shape {vectors[bad].shape}; "
                f"expected {shape}"
            )
        return vectors

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

        (value,) = self._fetch_vectors(source, (index,))
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

        Each batch is planned and fetched on its own, from a reset memory,
        exactly as :meth:`run_batch` does; the trees of up to
        :data:`CHUNK_READS` read occurrences of batches are then swept as
        one (see :class:`_Stream`).  Results, statuses, ready cycles, work,
        traced events and raised errors are those of a loop of
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
    """One batch of a stream before its tree: its plan, the memory's
    record, its drop set and statuses, the positions of the queries that
    reach the tree, their (re-)plan and leaf columns (``None`` when none
    does), and its staged events."""

    plan: BatchPlan
    memory: AccessStats
    dropped: Set[int]
    statuses: List[str]
    positions: Sequence[int]
    tree_plan: BatchPlan
    leaf: Optional[LeafColumns]
    stage: Optional["_Stage"] = None


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
    """A batch stream, swept a chunk at a time; results taken in order.

    The first :meth:`take` of a chunk prepares its batches one by one
    (:meth:`FafnirEngine._prepare`: plan, reset memory, fetch, gauntlet,
    re-plan) until they hold :data:`CHUNK_READS` read occurrences, then
    sweeps their trees as one.  Each batch's events are staged while the
    chunk runs and replayed when the batch is taken, so a traced stream is
    event for event a loop of one-batch runs.  A batch whose preparation
    raises ends the chunk: the batches before it are swept and taken as
    usual, and its own take replays its events and raises the error.
    """

    def __init__(self, engine: "FafnirEngine", batches: Sequence, source: VectorSource,
                 deduplicate: bool) -> None:
        self.engine, self.batches = engine, batches
        self.source, self.deduplicate = source, deduplicate
        self._taken = 0
        self._swept: List[Tuple[_Prepared, Optional[tuple]]] = []
        self._carried: Optional[_Prepared] = None
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
        chunk: List[_Prepared] = []
        reads = 0
        position = self._taken
        while position < len(self.batches):
            batch, self._carried = self._carried or self._prepare(position), None
            if batch is None:
                break
            size = 0 if batch.leaf is None else len(batch.leaf.index)
            if chunk and reads + size > CHUNK_READS:
                self._carried = batch
                break
            chunk.append(batch)
            reads += size
            position += 1
        treed = [batch for batch in chunk if batch.leaf is not None]
        trees = iter(self.engine._run_trees(
            [batch.tree_plan for batch in treed],
            [batch.leaf for batch in treed],
            [self._tracer(batch) for batch in treed],
        ) if treed else ())
        self._swept = [
            (batch, None if batch.leaf is None else next(trees)) for batch in chunk
        ]

    def _tracer(self, batch: _Prepared) -> Tracer:
        tracer = self.engine.tracer
        return tracer if batch.stage is None else batch.stage.tracer(tracer)

    def _prepare(self, position: int) -> Optional[_Prepared]:
        """Prepare batch ``position`` with its events staged; ``None`` (the
        error kept for its take) if that raises."""
        tracer = self.engine.tracer
        stage = _Stage() if tracer.enabled else None
        sinks = tracer.sinks
        if stage is not None:
            tracer.sinks = [stage]
        try:
            batch = self.engine._prepare(
                self.batches[position], self.source, self.deduplicate
            )
        except Exception as error:
            self._failed = (position, error, stage)
            return None
        finally:
            tracer.sinks = sinks
        batch.stage = stage
        return batch
