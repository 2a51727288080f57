"""No-NDP baseline: gather everything to the cores (paper Fig. 2a).

Every embedding vector of every query crosses the memory channels and the
host link; all ``n·(q−1)·v`` reduction operations run on the CPU.  Redundant
indices are read (and shipped) once per occurrence — this engine is the
``n·q·v`` data-movement yardstick of §III-A.
"""

from __future__ import annotations

from typing import Sequence

from repro.baselines.base import (
    CoreComputeModel,
    GatherEngine,
    GatherResult,
    GatherTiming,
    HostLink,
    VectorSource,
    functional_reduce,
)
from repro.clocks import DRAM_CLOCK
from repro.core.batch import plan_batch
from repro.core.operators import ReductionOperator, SUM
from repro.memory.config import MemoryConfig
from repro.memory.mapping import RowMajorPlacement
from repro.memory.system import MemorySystem


class CpuGatherEngine(GatherEngine):
    """Processor-centric embedding lookup with no near-data processing."""

    name = "cpu-baseline"

    def __init__(
        self,
        memory_config: MemoryConfig = None,
        operator: ReductionOperator = SUM,
        vector_bytes: int = 512,
        link: HostLink = None,
        core: CoreComputeModel = None,
    ) -> None:
        super().__init__(operator)
        self.memory_config = memory_config or MemoryConfig()
        self.vector_bytes = vector_bytes
        self.memory = MemorySystem(self.memory_config)
        self.placement = RowMajorPlacement(
            self.memory_config.geometry, vector_bytes
        )
        self.link = link or HostLink(
            channels=self.memory_config.geometry.channels
        )
        self.core = core or CoreComputeModel()

    def lookup(
        self, queries: Sequence[Sequence[int]], source: VectorSource
    ) -> GatherResult:
        self.memory.reset()
        plan = plan_batch(queries, deduplicate=False)

        _, stats = self.memory.execute(self.placement.reads_for(plan.reads))

        memory_ns = DRAM_CLOCK.cycles_to_ns(stats.finish_cycle)
        bytes_to_core = plan.total_lookups * self.vector_bytes
        transfer_ns = self.link.transfer_ns(bytes_to_core)

        elements = self.vector_bytes // 4
        element_ops = sum(
            (len(query) - 1) * elements for query in plan.queries
        )
        core_ns = self.core.reduce_ns(element_ops, plan.total_lookups)

        timing = GatherTiming(
            memory_ns=memory_ns,
            ndp_compute_ns=0.0,
            core_compute_ns=core_ns,
            transfer_ns=transfer_ns,
            # Transfer overlaps the tail of the reads; core reduction of a
            # query can only start once its last vector arrives, so the
            # serial chain is reads → link residue → reduction.
            total_ns=memory_ns + transfer_ns + core_ns,
        )
        return GatherResult(
            vectors=functional_reduce(plan.queries, source, self.operator),
            timing=timing,
            memory_stats=stats,
            bytes_to_core=bytes_to_core,
            dram_reads=stats.reads,
            ndp_reduced_vectors=0,
            core_reduced_vectors=plan.total_lookups,
        )
