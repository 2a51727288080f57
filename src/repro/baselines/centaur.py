"""Centaur model (paper §III-D).

Centaur accepts the data movement of sparse gathering and attacks the
*communication* instead: embedding vectors cross **high-bandwidth links**
(the paper's CPU+FPGA package) to a separate reduction unit near the cores.
Unlike TensorDIMM it does not reduce data movement — it moves the same
``n·q·v`` elements faster.  It serves as the "throw bandwidth at it"
comparison point: FAFNIR still wins because it moves ``q×`` fewer bytes in
the first place.
"""

from __future__ import annotations

from typing import Sequence

from repro.baselines.base import (
    GatherEngine,
    GatherResult,
    GatherTiming,
    HostLink,
    VectorSource,
    functional_reduce,
)
from repro.clocks import DRAM_CLOCK, PE_CLOCK
from repro.core.batch import plan_batch
from repro.core.operators import ReductionOperator, SUM
from repro.memory.config import MemoryConfig
from repro.memory.mapping import RowMajorPlacement
from repro.memory.system import MemorySystem

# The package-level reduction unit chews an arriving vector per cycle pair.
REDUCTION_UNIT_STAGE_CYCLES = 8


class CentaurGatherEngine(GatherEngine):
    """High-bandwidth-link gather with a near-core reduction unit."""

    name = "centaur"

    def __init__(
        self,
        memory_config: MemoryConfig = None,
        operator: ReductionOperator = SUM,
        vector_bytes: int = 512,
        link_multiplier: float = 4.0,
    ) -> None:
        """``link_multiplier``: how much faster Centaur's serial links are
        than the baseline host link (its defining feature)."""
        super().__init__(operator)
        if link_multiplier <= 0:
            raise ValueError("link_multiplier must be positive")
        self.memory_config = memory_config or MemoryConfig()
        self.vector_bytes = vector_bytes
        self.memory = MemorySystem(self.memory_config)
        self.placement = RowMajorPlacement(
            self.memory_config.geometry, vector_bytes
        )
        base = HostLink(channels=self.memory_config.geometry.channels)
        self.link = HostLink(
            bandwidth_gbps_per_channel=base.bandwidth_gbps_per_channel
            * link_multiplier,
            channels=base.channels,
            base_latency_ns=base.base_latency_ns,
        )

    def lookup(
        self, queries: Sequence[Sequence[int]], source: VectorSource
    ) -> GatherResult:
        self.memory.reset()
        plan = plan_batch(queries, deduplicate=False)

        _, stats = self.memory.execute(self.placement.reads_for(plan.reads))
        memory_ns = DRAM_CLOCK.cycles_to_ns(stats.finish_cycle)

        # Every raw vector crosses the (fast) link to the reduction unit.
        bytes_to_core = plan.total_lookups * self.vector_bytes
        transfer_ns = self.link.transfer_ns(bytes_to_core)

        # The reduction unit pipelines: one chained stage per folded vector.
        reduction_stages = sum(max(0, len(q) - 1) for q in plan.queries)
        longest = max(max(0, len(q) - 1) for q in plan.queries)
        unit_cycles = (longest + len(plan.queries) - 1) * REDUCTION_UNIT_STAGE_CYCLES
        unit_ns = PE_CLOCK.cycles_to_ns(unit_cycles)

        timing = GatherTiming(
            memory_ns=memory_ns,
            ndp_compute_ns=unit_ns,
            core_compute_ns=0.0,
            transfer_ns=transfer_ns,
            total_ns=memory_ns + transfer_ns + unit_ns,
        )
        return GatherResult(
            vectors=functional_reduce(plan.queries, source, self.operator),
            timing=timing,
            memory_stats=stats,
            bytes_to_core=bytes_to_core,
            dram_reads=stats.reads,
            ndp_reduced_vectors=reduction_stages,
            core_reduced_vectors=0,
        )
