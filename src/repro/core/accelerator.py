"""Public facade: the FAFNIR accelerator as a downstream user sees it.

Typical use::

    from repro import FafnirAccelerator
    from repro.workloads import EmbeddingTableSet

    tables = EmbeddingTableSet.random(num_tables=32, rows_per_table=4096,
                                      vector_bytes=512, seed=7)
    fafnir = FafnirAccelerator(operator="sum")
    result = fafnir.lookup(tables.vector, [[3, 77, 515], [77, 9]])
    result.vectors       # one reduced 128-element vector per query
    result.stats         # latency / DRAM / data-movement measurements
"""

from __future__ import annotations

from typing import Optional, Sequence, Union

from repro.core.config import FafnirConfig
from repro.core.engine import FafnirEngine, LookupResult, VectorSource
from repro.core.operators import ReductionOperator, get_operator


class FafnirAccelerator:
    """A configured FAFNIR instance with a stable, small public API."""

    def __init__(
        self,
        config: Optional[FafnirConfig] = None,
        operator: Union[str, ReductionOperator] = "sum",
    ) -> None:
        if isinstance(operator, str):
            operator = get_operator(operator)
        self.config = config or FafnirConfig()
        self.operator = operator
        self._engine = FafnirEngine(
            config=self.config,
            operator=operator,
        )

    @property
    def engine(self) -> FafnirEngine:
        """The underlying engine, for advanced inspection."""
        return self._engine

    def lookup(
        self,
        source: VectorSource,
        queries: Sequence[Sequence[int]],
        deduplicate: bool = True,
    ) -> LookupResult:
        """Gather-and-reduce a batch of queries.

        Batches larger than the hardware batch size are served as several
        hardware-sized sub-batches (paper §IV-B: "larger batch sizes defined
        by software ... are served as several small batches at hardware").
        """
        hardware_batch = self.config.batch_size
        if len(queries) <= hardware_batch:
            return self._engine.run_batch(queries, source, deduplicate=deduplicate)

        merged: Optional[LookupResult] = None
        for start in range(0, len(queries), hardware_batch):
            chunk = queries[start : start + hardware_batch]
            result = self._engine.run_batch(chunk, source, deduplicate=deduplicate)
            merged = result if merged is None else _concatenate(merged, result)
        assert merged is not None
        return merged


def _concatenate(first: LookupResult, second: LookupResult) -> LookupResult:
    """Fold a later sub-batch's results into an accumulated LookupResult."""
    from dataclasses import replace

    stats = first.stats
    other = second.stats
    merged_stats = replace(
        stats,
        memory=stats.memory.merged_with(other.memory),
        latency_pe_cycles=stats.latency_pe_cycles + other.latency_pe_cycles,
        memory_latency_pe_cycles=stats.memory_latency_pe_cycles
        + other.memory_latency_pe_cycles,
        total_lookups=stats.total_lookups + other.total_lookups,
        unique_reads=stats.unique_reads + other.unique_reads,
        dram_bytes_read=stats.dram_bytes_read + other.dram_bytes_read,
        output_bytes=stats.output_bytes + other.output_bytes,
        naive_movement_bytes=stats.naive_movement_bytes
        + other.naive_movement_bytes,
    )
    merged_stats.per_pe_work = {
        pe_id: stats.per_pe_work.get(pe_id, _empty_work()).merged_with(
            other.per_pe_work.get(pe_id, _empty_work())
        )
        for pe_id in set(stats.per_pe_work) | set(other.per_pe_work)
    }
    from repro.core.batch import BatchPlan

    merged_plan = BatchPlan(
        queries=first.plan.queries + second.plan.queries,
        reads=first.plan.reads + second.plan.reads,
        deduplicated=first.plan.deduplicated and second.plan.deduplicated,
    )
    return LookupResult(
        vectors=first.vectors + second.vectors,
        stats=merged_stats,
        plan=merged_plan,
        statuses=first.statuses + second.statuses,
        dropped_indices=first.dropped_indices | second.dropped_indices,
        # ``second`` ran after ``first``: its ready cycles start at that latency.
        ready_pe_cycles=first.ready_pe_cycles
        + [cycle + stats.latency_pe_cycles for cycle in second.ready_pe_cycles],
    )


def _empty_work():
    from repro.core.pe import PEWork

    return PEWork()
