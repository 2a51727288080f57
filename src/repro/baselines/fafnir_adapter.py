"""Adapter exposing the FAFNIR engine through the baseline interface.

The evaluation benches compare engines through the common
:class:`~repro.baselines.base.GatherEngine` API; this adapter maps
:class:`~repro.core.engine.LookupStats` onto a :class:`GatherTiming`.

Requests larger than one hardware batch are chunked and streamed through
:meth:`FafnirEngine.run_batches`, whose :class:`PipelineStats` carries both
host models.  With ``pipeline=True`` (default) the reported in-tree time is
the pipelined makespan — chunk *k*'s memory phase overlaps chunk *k−1*'s
tree traversal (paper §IV's host/tree pipelining); with ``pipeline=False``
it is the batch-at-a-time host's serial sum.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.baselines.base import (
    GatherEngine,
    GatherResult,
    GatherTiming,
    HostLink,
    VectorSource,
)
from repro.core.config import FafnirConfig
from repro.core.engine import FafnirEngine
from repro.core.operators import ReductionOperator, SUM
from repro.memory.config import MemoryConfig
from repro.obs.tracer import Tracer


class FafnirGatherEngine(GatherEngine):
    """FAFNIR behind the common gather-engine interface."""

    name = "fafnir"

    def __init__(
        self,
        config: Optional[FafnirConfig] = None,
        memory_config: Optional[MemoryConfig] = None,
        operator: ReductionOperator = SUM,
        link: Optional[HostLink] = None,
        deduplicate: bool = True,
        pipeline: bool = True,
        tracer: Optional[Tracer] = None,
    ) -> None:
        super().__init__(operator)
        self.engine = FafnirEngine(
            config=config,
            operator=operator,
            memory_config=memory_config,
            tracer=tracer,
        )
        self.link = link or HostLink(
            channels=self.engine.memory.config.geometry.channels
        )
        self.deduplicate = deduplicate
        self.pipeline = pipeline

    @property
    def config(self) -> FafnirConfig:
        return self.engine.config

    def lookup(
        self, queries: Sequence[Sequence[int]], source: VectorSource
    ) -> GatherResult:
        hardware_batch = self.config.batch_size
        chunks = [
            queries[start : start + hardware_batch]
            for start in range(0, len(queries), hardware_batch)
        ]

        multi = self.engine.run_batches(
            chunks, source, deduplicate=self.deduplicate
        )

        bytes_to_core = 0
        dram_reads = 0
        ndp_reduced = 0
        memory_pe_cycles = 0
        for result in multi.results:
            stats = result.stats
            bytes_to_core += stats.output_bytes
            dram_reads += stats.memory.reads
            ndp_reduced += stats.total_work.reduces
            memory_pe_cycles += stats.memory_latency_pe_cycles

        pe_clock = self.config.pe_clock
        memory_ns = pe_clock.cycles_to_ns(memory_pe_cycles)
        # The pipelined makespan overlaps chunk k's reads with chunk k−1's
        # tree traversal; the serial sum is the batch-at-a-time host.
        pipeline = multi.pipeline
        in_tree_ns = pe_clock.cycles_to_ns(
            pipeline.pipelined_latency_pe_cycles
            if self.pipeline
            else pipeline.serial_latency_pe_cycles
        )
        transfer_ns = self.link.transfer_ns(bytes_to_core)
        timing = GatherTiming(
            memory_ns=memory_ns,
            ndp_compute_ns=max(0.0, in_tree_ns - memory_ns),
            core_compute_ns=0.0,
            transfer_ns=transfer_ns,
            total_ns=in_tree_ns + transfer_ns,
        )
        return GatherResult(
            vectors=multi.vectors,
            timing=timing,
            memory_stats=multi.memory_stats,
            bytes_to_core=bytes_to_core,
            dram_reads=dram_reads,
            ndp_reduced_vectors=ndp_reduced,
            core_reduced_vectors=0,
        )
