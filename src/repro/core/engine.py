"""Cycle-approximate execution of embedding-lookup batches on FAFNIR.

The engine glues the three layers together:

1. **Host** — batch preprocessing (:mod:`repro.core.batch`) produces the
   unique-index read list and initial headers.
2. **Memory** — reads are issued to the DDR4 model
   (:mod:`repro.memory`); each vector's message becomes ready at its DRAM
   completion time, converted into the PE clock domain.
3. **Tree** — messages flow leaves→root through
   :class:`~repro.core.pe.ProcessingElement` instances; per-message ready
   cycles model the paper's conflict-free pipelining of distinct queries
   through distinct tree routes.

The result is one reduced vector per query plus a :class:`LookupStats`
record with everything the evaluation figures need (latency split, DRAM
behaviour, per-level PE work, data movement).
"""

from __future__ import annotations

from collections import Counter as _Counter
from dataclasses import dataclass, field
from typing import Callable, Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.clocks import convert_cycles
from repro.core.batch import BatchPlan, plan_batch
from repro.core.config import FafnirConfig
from repro.core.header import Header, Message
from repro.core.operators import ReductionOperator, SUM, get_operator
from repro.core.pe import PEWork, ProcessingElement
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
from repro.memory.request import ReadRequest
from repro.memory.system import MemorySystem
from repro.memory.trace import AccessStats
from repro.obs.events import (
    BATCH_COMPLETE,
    BATCH_START,
    FAULT_DETECTED,
    FAULT_INJECTED,
    FIFO_ENQUEUE,
    FIFO_STALL,
    LEAF_INJECT,
    PIPELINE_BATCH,
    QUERY_COMPLETE,
    QUERY_DEGRADED,
    RETRY_ISSUED,
    TraceEvent,
)
from repro.obs.tracer import NULL_TRACER, Tracer
from repro.tiering.cache import HotTierConfig

VectorSource = Callable[[int], np.ndarray]


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

    ``statuses`` is populated by fault-injected runs under a ``degrade``
    policy: per query, :data:`~repro.faults.policy.STATUS_OK` (all indices
    folded), :data:`~repro.faults.policy.STATUS_DEGRADED` (reduced over
    the surviving subset — the vector matches a CPU oracle on exactly
    those indices), or :data:`~repro.faults.policy.STATUS_FAILED` (no
    index survived; the vector is all-NaN poison, never silent zeros).
    ``None`` means the run saw no fault machinery — every query is ``ok``.

    ``ready_pe_cycles`` is each query's completion cycle at the tree root
    (submission order, same length as ``vectors``; failed queries carry 0).
    The batch-level ``stats.latency_pe_cycles`` is its maximum; the
    per-query values let the cross-shard reducer time each query's partial
    individually.
    """

    vectors: List[np.ndarray]
    stats: LookupStats
    plan: BatchPlan
    statuses: Optional[List[str]] = None
    dropped_indices: FrozenSet[int] = frozenset()
    ready_pe_cycles: List[int] = field(default_factory=list)

    @property
    def query_statuses(self) -> List[str]:
        if self.statuses is not None:
            return list(self.statuses)
        return [STATUS_OK] * len(self.vectors)


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
    events: Optional[List[TraceEvent]] = None

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
        check_values: bool = False,
        tracer: Optional[Tracer] = None,
        rank_order: Optional[Sequence[int]] = None,
        faults: Optional[FaultPlan] = None,
        fault_policy: Optional[FaultPolicy] = None,
        cache: Optional[HotTierConfig] = None,
        placement: Optional[VectorPlacement] = None,
    ) -> None:
        """Build one FAFNIR instance.

        Args:
            config: accelerator shape and timing (paper defaults if None).
            operator: reduction operator (name or instance).
            memory_config: DDR4/HBM substrate; must match ``total_ranks``.
            check_values: enable the merge-unit value-consistency assertion.
            tracer: event tracer threaded through the memory system, every
                PE, and the engine's own host-side hooks; ``None`` installs
                the zero-overhead :data:`~repro.obs.tracer.NULL_TRACER`.
            rank_order: optional permutation of ``range(total_ranks)``
                rewiring ranks to leaf PEs (boards whose physical wiring
                does not follow the logical numbering).
            faults: seeded chaos script; ``None`` (the default) keeps every
                code path byte-identical to a fault-free build.
            fault_policy: recovery budgets and the ``fail_fast``/``degrade``
                exhaustion mode (defaults to ``fail_fast``).
            cache: opt-in rank-level hot-index tier
                (:class:`~repro.tiering.cache.HotTierConfig`); ``None``
                (the default) keeps the memory path byte-identical to an
                uncached build.  The tier only changes modeled latency
                and DRAM access counts — functional results are
                invariant.
            placement: optional data-placement override (any
                :class:`~repro.memory.mapping.VectorPlacement`, e.g. a
                placement-optimizer
                :class:`~repro.tiering.placement.PermutedRankPlacement`);
                ``None`` uses the paper's row-major placement.
        """
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
        self.placement: VectorPlacement = (
            placement
            if placement is not None
            else RowMajorPlacement(
                memory_config.geometry, self.config.vector_bytes
            )
        )
        self.tree = FafnirTree(self.config, rank_order=rank_order)
        self._check_values = check_values
        self._last_memory_stats = AccessStats()
        self._lost_read_indices: Set[int] = set()

    # ------------------------------------------------------------------
    def _fetch_from_memory(self, plan: BatchPlan) -> Dict[int, List[int]]:
        """Issue all planned reads; returns per-index DRAM finish cycles.

        Each entry of ``plan.reads`` is one *occurrence*: a deduplicated
        plan has one occurrence per unique index, the ablation plan one per
        (query, index) lookup.  The result maps each index to its
        occurrences' finish cycles in issue order, where an occurrence
        finishes when the **last** of its split requests completes (a vector
        is usable only once every piece has arrived).
        """
        requests: List[ReadRequest] = []
        occurrences: List[tuple] = []
        for index in plan.reads:
            pieces = self.placement.requests_for(index)
            occurrences.append((index, len(requests), len(requests) + len(pieces)))
            requests.extend(pieces)
        completions, stats = self.memory.execute(requests)
        self._last_memory_stats = stats

        finish: Dict[int, List[int]] = {}
        lost_positions = self.memory.failed_positions
        self._lost_read_indices = set()
        for index, start, stop in occurrences:
            cycle = max(
                completion.finish_cycle for completion in completions[start:stop]
            )
            finish.setdefault(index, []).append(cycle)
            if lost_positions and not lost_positions.isdisjoint(range(start, stop)):
                # Any lost split request loses the whole vector; a vector
                # with any lost occurrence is dropped entirely (the engine
                # degrades per index, not per occurrence).
                self._lost_read_indices.add(index)
        return finish

    @staticmethod
    def _fifo_side(leaf: TreePE, rank: int) -> int:
        """Which of the leaf PE's two input FIFOs a rank feeds.

        Derived from the rank's *position* in ``leaf.leaf_ranks`` — the
        first half of the leaf's ranks share FIFO 0, the rest FIFO 1 — so
        the routing stays correct for non-contiguous or permuted
        rank-to-leaf wirings (arithmetic on ``rank - leaf_ranks[0]`` would
        silently misroute those).
        """
        ranks = leaf.leaf_ranks
        assert ranks is not None
        try:
            position = ranks.index(rank)
        except ValueError:
            raise ValueError(
                f"rank {rank} is not wired to leaf PE {leaf.pe_id} "
                f"(ranks {ranks})"
            ) from None
        return 0 if 2 * position < len(ranks) else 1

    def _leaf_inputs(
        self,
        plan: BatchPlan,
        finish_cycles: Dict[int, List[int]],
        source: VectorSource,
    ) -> Dict[int, List[List[Message]]]:
        """Build each leaf PE's two input FIFOs from the fetched vectors.

        With deduplication each index yields one message.  The ablation
        path instead emits one message per read occurrence, each carrying
        the entry of the query that occurrence serves and becoming ready at
        *its own* read's completion — the redundant reads the ablation pays
        for are charged individually rather than all riding the earliest
        copy (they later coalesce in the leaf FIFO, exactly as redundant
        copies physically would).
        """
        per_leaf: Dict[int, List[List[Message]]] = {
            leaf.pe_id: [[], []] for leaf in self.tree.leaves()
        }
        vector_elements = self.config.vector_elements
        queries_using: Dict[int, List] = {}
        if not plan.deduplicated:
            for query in plan.queries:
                for index in query:
                    queries_using.setdefault(index, []).append(query)
        for index in plan.unique_indices:
            value = np.asarray(source(index), dtype=np.float64)
            if value.shape != (vector_elements,):
                raise ValueError(
                    f"vector {index} has shape {value.shape}; expected "
                    f"({vector_elements},)"
                )
            rank = self.placement.home_rank(index)
            assert rank is not None
            leaf = self.tree.leaf_for_rank(rank)
            side = self._fifo_side(leaf, rank)
            fifo = per_leaf[leaf.pe_id][side]
            cycles = finish_cycles[index]
            if plan.deduplicated:
                ready = convert_cycles(
                    cycles[0], self.config.dram_clock, self.config.pe_clock
                )
                fifo.append(
                    Message(
                        header=plan.headers[index], value=value, ready_cycle=ready
                    )
                )
                if self.tracer.enabled:
                    self._emit_inject(leaf, side, rank, index, ready, len(fifo))
            else:
                # plan.reads lists occurrences query-major, so occurrence j
                # of this index belongs to the j-th query containing it.
                for query, cycle in zip(queries_using[index], cycles):
                    ready = convert_cycles(
                        cycle, self.config.dram_clock, self.config.pe_clock
                    )
                    fifo.append(
                        Message(
                            header=Header.make({index}, [query - {index}]),
                            value=value,
                            ready_cycle=ready,
                        )
                    )
                    if self.tracer.enabled:
                        self._emit_inject(
                            leaf, side, rank, index, ready, len(fifo)
                        )
        return per_leaf

    def _emit_inject(
        self,
        leaf: TreePE,
        side: int,
        rank: int,
        index: int,
        ready: int,
        depth: int,
    ) -> None:
        """Record one vector's arrival at a leaf FIFO (tracing enabled only).

        Emits a ``leaf_inject`` for the message itself and a
        ``fifo_enqueue`` carrying the FIFO's occupancy after the append;
        occupancy beyond ``config.buffer_entries`` additionally raises a
        ``fifo_stall`` — the backpressure signal a sized hardware FIFO
        would assert (the functional model itself is unbounded).
        """
        self.tracer.emit_packed(
            LEAF_INJECT,
            ready,
            pe=leaf.pe_id,
            level=leaf.level,
            rank=rank,
            args=(index,),
        )
        self.tracer.emit_packed(
            FIFO_ENQUEUE,
            ready,
            pe=leaf.pe_id,
            level=leaf.level,
            args=(side, depth),
        )
        if depth > self.config.buffer_entries:
            self.tracer.emit_packed(
                FIFO_STALL,
                ready,
                pe=leaf.pe_id,
                level=leaf.level,
                args=(side, depth),
            )

    def _run_tree(
        self, leaf_inputs: Dict[int, List[List[Message]]]
    ) -> tuple:
        """Propagate messages leaves→root; returns (root outputs, per-PE work)."""
        outputs: Dict[int, List[Message]] = {}
        per_pe_work: Dict[int, PEWork] = {}
        for pe_id in self.tree.bottom_up_ids():
            node = self.tree.pe(pe_id)
            pe = ProcessingElement(
                self.config,
                self.operator,
                name=f"PE{pe_id}",
                check_values=self._check_values,
                tracer=self.tracer,
                pe_id=pe_id,
                level=node.level,
            )
            if node.is_leaf:
                # Items from one rank stream through one FIFO and may
                # self-combine there (general workloads; a no-op for the
                # paper's one-vector-per-rank queries).
                fold_work = PEWork()
                raw_a, raw_b = leaf_inputs[pe_id]
                input_a = pe.fold_stream(raw_a, fold_work)
                input_b = pe.fold_stream(raw_b, fold_work)
            else:
                fold_work = PEWork()
                left, right = node.children  # type: ignore[misc]
                input_a = outputs.get(left, [])
                input_b = outputs.get(right, [])
            result = pe.process(input_a, input_b)
            outputs[pe_id] = result.outputs
            per_pe_work[pe_id] = result.work.merged_with(fold_work)
        return outputs[self.tree.root_id], per_pe_work

    def _collect_results(
        self,
        plan: BatchPlan,
        root_outputs: Sequence[Message],
        query_positions: Optional[Sequence[int]] = None,
    ) -> tuple:
        """Match root messages to queries; returns (vectors, completion cycles).

        ``query_positions`` relabels the emitted ``query_complete`` events
        when ``plan`` is a degraded re-plan whose queries map back to
        different submission positions in the original batch.
        """
        by_indices: Dict[frozenset, Message] = {}
        for message in root_outputs:
            if message.header.complete_entries:
                by_indices[message.indices] = message

        vectors: List[np.ndarray] = []
        ready_cycles: List[int] = []
        for position, query in enumerate(plan.queries):
            message = by_indices.get(query)
            if message is None:
                raise RuntimeError(
                    f"tree failed to complete query {position} "
                    f"({sorted(query)}) — FAFNIR's completion guarantee was "
                    "violated; this is a bug"
                )
            vectors.append(self.operator.finalize(message.value.copy(), len(query)))
            ready_cycles.append(message.ready_cycle)
            if self.tracer.enabled:
                label = (
                    query_positions[position]
                    if query_positions is not None
                    else position
                )
                self.tracer.emit_packed(
                    QUERY_COMPLETE,
                    message.ready_cycle,
                    args=(label, len(query)),
                )
        return vectors, ready_cycles

    # ------------------------------------------------------------------
    def run_batch(
        self,
        queries: Sequence[Sequence[int]],
        source: VectorSource,
        deduplicate: bool = True,
        reset_memory: bool = True,
    ) -> LookupResult:
        """Execute one batch of queries and return reduced vectors + stats.

        Args:
            queries: batch of index lists (one list per query).
            source: callable giving the stored vector for a global index.
            deduplicate: eliminate redundant reads (the paper's mechanism);
                pass ``False`` for the ablation baseline.
            reset_memory: start from cold row buffers (deterministic runs).
        """
        if len(queries) > self.config.batch_size:
            raise ValueError(
                f"batch of {len(queries)} exceeds configured batch size "
                f"{self.config.batch_size}"
            )
        if self.faults is not None:
            return self._run_batch_faulty(queries, source, deduplicate, reset_memory)
        if reset_memory:
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
        finish_cycles = self._fetch_from_memory(plan)
        leaf_inputs = self._leaf_inputs(plan, finish_cycles, source)
        root_outputs, per_pe_work = self._run_tree(leaf_inputs)
        vectors, ready_cycles = self._collect_results(plan, root_outputs)

        memory_stats = self._last_memory_stats
        memory_pe_cycles = convert_cycles(
            memory_stats.finish_cycle, self.config.dram_clock, self.config.pe_clock
        )
        stats = LookupStats(
            memory=memory_stats,
            per_pe_work=per_pe_work,
            latency_pe_cycles=max(ready_cycles) if ready_cycles else 0,
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
                    },
                )
            )
        return LookupResult(
            vectors=vectors, stats=stats, plan=plan, ready_pe_cycles=ready_cycles
        )

    # --- fault-injected execution -------------------------------------
    def _run_batch_faulty(
        self,
        queries: Sequence[Sequence[int]],
        source: VectorSource,
        deduplicate: bool,
        reset_memory: bool,
    ) -> LookupResult:
        """One batch under an installed :class:`FaultPlan`.

        Memory reads are issued exactly once; rank faults surface as lost
        indices via :attr:`MemorySystem.failed_positions`, leaf-boundary
        faults (transient source errors, vector corruption) surface during
        prefetch.  Under ``fail_fast`` any unrecovered fault has already
        raised by the time the drop set is known; under ``degrade`` the
        batch is re-planned without the dropped indices so the tree's
        completion guarantee holds for what remains, and every query gets
        an explicit ``ok``/``degraded``/``failed`` status.
        """
        if reset_memory:
            self.memory.reset()
        if self.tracer.enabled:
            self.tracer.emit(
                TraceEvent(
                    BATCH_START,
                    cycle=0,
                    args={
                        "queries": len(queries),
                        "dedup": deduplicate,
                        "faults": True,
                    },
                )
            )

        plan = plan_batch(
            queries, max_query_len=self.config.max_query_len, deduplicate=deduplicate
        )
        finish_cycles = self._fetch_from_memory(plan)
        dropped: Set[int] = set(self._lost_read_indices)
        values: Dict[int, np.ndarray] = {}
        for index in plan.unique_indices:
            if index in dropped:
                continue
            value = self._fetch_one_vector(source, index)
            if value is None:
                dropped.add(index)
            else:
                values[index] = value

        statuses: Optional[List[str]] = None
        if not dropped:
            leaf_inputs = self._leaf_inputs(plan, finish_cycles, values.__getitem__)
            root_outputs, per_pe_work = self._run_tree(leaf_inputs)
            vectors, ready_cycles = self._collect_results(plan, root_outputs)
            statuses = [STATUS_OK] * len(vectors)
        else:
            vectors, ready_cycles, statuses, per_pe_work = self._run_degraded(
                plan, finish_cycles, values, dropped, deduplicate
            )

        memory_stats = self._last_memory_stats
        memory_pe_cycles = convert_cycles(
            memory_stats.finish_cycle, self.config.dram_clock, self.config.pe_clock
        )
        stats = LookupStats(
            memory=memory_stats,
            per_pe_work=per_pe_work,
            latency_pe_cycles=max(ready_cycles) if ready_cycles else 0,
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

    def _fetch_one_vector(
        self, source: VectorSource, index: int
    ) -> Optional[np.ndarray]:
        """Fetch one vector through the source- and corruption-fault gauntlet.

        Models two leaf-boundary hazards: a flaky source (the fetch
        attempt raises; retried up to ``max_source_retries``) and in-flight
        corruption (the vector arrives bit-flipped or NaN-poisoned; the
        leaf's modelled end-to-end integrity check catches it and the
        vector is re-read up to ``max_corruption_retries``).  Returns the
        clean vector, ``None`` when the budget is exhausted under
        ``degrade``, or raises under ``fail_fast``.
        """
        assert self.faults is not None
        plan = self.faults
        policy = self.fault_policy
        rank = self.placement.home_rank(index)

        attempt = 0
        while plan.source_raises(index, attempt):
            exhausted = attempt >= policy.max_source_retries
            self._emit_leaf_fault(
                FAULT_SOURCE_ERROR, rank, index, attempt, exhausted
            )
            if exhausted:
                if policy.fail_fast:
                    raise SourceFaultError(
                        f"vector source for index {index} kept raising; "
                        f"retry budget ({policy.max_source_retries}) exhausted"
                    )
                return None
            attempt += 1

        value = np.asarray(source(index), dtype=np.float64)

        attempt = 0
        while True:
            corrupted = plan.corrupt_vector(index, attempt, value)
            if corrupted is None:
                return value
            exhausted = attempt >= policy.max_corruption_retries
            self._emit_leaf_fault(
                FAULT_VECTOR_CORRUPTION, rank, index, attempt, exhausted
            )
            if exhausted:
                if policy.fail_fast:
                    raise VectorCorruptionError(
                        f"vector {index} failed its leaf-boundary integrity "
                        f"check on every fetch; retry budget "
                        f"({policy.max_corruption_retries}) exhausted"
                    )
                return None
            attempt += 1

    def _emit_leaf_fault(
        self,
        fault: str,
        rank: Optional[int],
        index: int,
        attempt: int,
        exhausted: bool,
    ) -> None:
        """One inject→detect(→retry) step of a leaf-boundary fault."""
        if not self.tracer.enabled:
            return
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

    def _run_degraded(
        self,
        plan: BatchPlan,
        finish_cycles: Dict[int, List[int]],
        values: Dict[int, np.ndarray],
        dropped: Set[int],
        deduplicate: bool,
    ) -> Tuple[List[np.ndarray], List[int], List[str], Dict[int, PEWork]]:
        """Complete a batch that lost vectors: re-plan, run, degrade.

        The surviving indices are re-planned so every header's query sets
        reference only vectors that will actually arrive — the tree's
        completion guarantee then holds for the reduced batch.  Each
        original query maps to ``ok`` (untouched), ``degraded`` (reduced
        over its surviving subset; the output matches a CPU oracle on
        exactly those indices), or ``failed`` (nothing survived; all-NaN).
        Memory reads were already issued once — the re-plan reuses the
        recorded completion cycles, so no DRAM traffic is double-counted.
        """
        vector_elements = self.config.vector_elements
        statuses: List[str] = []
        effective: List[List[int]] = []
        for query in plan.queries:
            remaining = sorted(query - dropped)
            effective.append(remaining)
            if len(remaining) == len(query):
                statuses.append(STATUS_OK)
            elif remaining:
                statuses.append(STATUS_DEGRADED)
            else:
                statuses.append(STATUS_FAILED)

        surviving = [
            (position, indices)
            for position, indices in enumerate(effective)
            if indices
        ]
        per_pe_work: Dict[int, PEWork] = {}
        sub_vectors: List[np.ndarray] = []
        sub_ready: List[int] = []
        if surviving:
            sub_plan = plan_batch(
                [indices for _, indices in surviving],
                max_query_len=self.config.max_query_len,
                deduplicate=deduplicate,
            )
            needed = _Counter(sub_plan.reads)
            sub_finish = {
                index: (finish_cycles[index] + [finish_cycles[index][-1]] * count)[
                    :count
                ]
                for index, count in needed.items()
            }
            leaf_inputs = self._leaf_inputs(
                sub_plan, sub_finish, values.__getitem__
            )
            root_outputs, per_pe_work = self._run_tree(leaf_inputs)
            sub_vectors, sub_ready = self._collect_results(
                sub_plan,
                root_outputs,
                query_positions=[position for position, _ in surviving],
            )

        vectors: List[np.ndarray] = []
        ready_cycles: List[int] = []
        cursor = 0
        for position, query in enumerate(plan.queries):
            if statuses[position] == STATUS_FAILED:
                vectors.append(np.full(vector_elements, np.nan))
                ready_cycles.append(0)
            else:
                vectors.append(sub_vectors[cursor])
                ready_cycles.append(sub_ready[cursor])
                cursor += 1
            if statuses[position] != STATUS_OK and self.tracer.enabled:
                self.tracer.emit(
                    TraceEvent(
                        QUERY_DEGRADED,
                        cycle=ready_cycles[-1],
                        args={
                            "query": position,
                            "status": statuses[position],
                            "dropped": sorted(query & dropped),
                        },
                    )
                )
        return vectors, ready_cycles, statuses, per_pe_work

    # ------------------------------------------------------------------
    def run_batches(
        self,
        batches: Sequence[Sequence[Sequence[int]]],
        source: VectorSource,
        deduplicate: bool = True,
        pipeline: bool = True,
    ) -> MultiBatchResult:
        """Stream a sequence of batches through the engine (paper §IV).

        With ``pipeline=True`` the host issues batch *k*'s reads the moment
        the memory system frees up, while the tree is still draining batch
        *k−1* — the memory is the serializing resource and batch *k*
        completes at ``memory_start(k) + in_tree_latency(k)``.  With
        ``pipeline=False`` each batch waits for the previous one's root
        outputs (batch-at-a-time host), which is the serial sum.

        Functional outputs are identical either way; only the
        :class:`PipelineStats` timing differs.
        """
        if not batches:
            raise ValueError("need at least one batch")
        results: List[LookupResult] = []
        completions: List[int] = []
        memory_cursor = 0
        serial_cursor = 0
        for position, batch in enumerate(batches):
            result = self.run_batch(
                batch, source, deduplicate=deduplicate, reset_memory=True
            )
            stats = result.stats
            if pipeline:
                completions.append(memory_cursor + stats.latency_pe_cycles)
            else:
                completions.append(serial_cursor + stats.latency_pe_cycles)
                serial_cursor += stats.latency_pe_cycles
            if self.tracer.enabled:
                self.tracer.emit(
                    TraceEvent(
                        PIPELINE_BATCH,
                        cycle=completions[-1],
                        args={
                            "batch": position,
                            "queries": len(result.plan.queries),
                            "memory_start": memory_cursor,
                            "pipelined": pipeline,
                        },
                    )
                )
            memory_cursor += stats.memory_latency_pe_cycles
            results.append(result)

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
