"""RecNMP model (paper §III-C/E, Fig. 2c).

RecNMP keeps whole vectors in single ranks (row-major) and fuses
gather-reduce inside each DIMM's NMP unit.  Its strength — rank-level
parallelism with intact row-buffer locality — and its weakness — reliance on
*spatial locality* — both emerge here:

* vectors of one query that happen to share a DIMM are reduced locally and
  only the partial sum is shipped;
* vectors alone in their DIMM are shipped to the cores **raw**, where the
  CPU finishes the reduction.  With random placement the chance that two
  related vectors share a DIMM falls with system size (birthday paradox,
  §III-C), so data movement is not guaranteed to shrink.

Optionally each rank gets a 128 KB vector cache (§III-E) to absorb redundant
accesses — RecNMP's answer to the sharing FAFNIR exploits with its
unique-index batch mechanism.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

from repro.baselines.base import (
    CoreComputeModel,
    GatherEngine,
    GatherResult,
    GatherTiming,
    HostLink,
    VectorSource,
    functional_reduce,
)
from repro.baselines.cache import RankCacheArray
from repro.clocks import DRAM_CLOCK, PE_CLOCK
from repro.core.batch import plan_batch
from repro.core.operators import ReductionOperator, SUM
from repro.memory.config import MemoryConfig
from repro.memory.mapping import RowMajorPlacement
from repro.memory.system import MemorySystem

# One chained gather-reduce stage of a DIMM NMP unit, in 200 MHz cycles
# (element-wise add of an arriving vector into the local partial sum).
NMP_STAGE_CYCLES = 16


class RecNmpGatherEngine(GatherEngine):
    """Rank-parallel NDP reduction limited by spatial locality."""

    name = "recnmp"

    def __init__(
        self,
        memory_config: MemoryConfig = None,
        operator: ReductionOperator = SUM,
        vector_bytes: int = 512,
        link: HostLink = None,
        core: CoreComputeModel = None,
        with_cache: bool = False,
        cache_bytes: int = 128 * 1024,
        max_cache_hit_rate: float = 0.5,
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
        self.with_cache = with_cache
        self.max_cache_hit_rate = max_cache_hit_rate
        self._caches = (
            RankCacheArray(
                self.memory_config.geometry.total_ranks,
                size_bytes=cache_bytes,
                vector_bytes=vector_bytes,
            )
            if with_cache
            else None
        )

    # ------------------------------------------------------------------
    def _dimm_groups(
        self, query: frozenset
    ) -> Dict[Tuple[int, int], List[int]]:
        """Partition a query's indices by the DIMM holding each vector."""
        groups: Dict[Tuple[int, int], List[int]] = {}
        geometry = self.memory_config.geometry
        for index in sorted(query):
            rank = self.placement.home_rank(index)
            assert rank is not None
            groups.setdefault(geometry.dimm_of(rank), []).append(index)
        return groups

    def lookup(
        self, queries: Sequence[Sequence[int]], source: VectorSource
    ) -> GatherResult:
        self.memory.reset()
        if self._caches is not None:
            self._caches.reset()
        # RecNMP reads per occurrence; only the cache absorbs repeats.
        plan = plan_batch(queries, deduplicate=False)

        misses: List[int] = []
        cache_hits = 0
        for index in plan.reads:
            rank = self.placement.home_rank(index)
            assert rank is not None
            if self._caches is not None and self._caches.access(rank, index):
                # The paper observes rank caches cannot exceed ~50 % hit
                # rate in production traces; clamp optimistic synthetic
                # locality to that bound by re-issuing excess hits as reads.
                total = self._caches.stats.accesses
                if cache_hits + 1 <= self.max_cache_hit_rate * total:
                    cache_hits += 1
                    continue
            misses.append(index)
        _, stats = self.memory.execute(self.placement.reads_for(misses))
        memory_ns = DRAM_CLOCK.cycles_to_ns(stats.finish_cycle)

        # Spatial-locality partition: per query, per DIMM.
        shipped_items = 0
        ndp_chain_per_dimm: Dict[Tuple[int, int], int] = {}
        ndp_reduced = 0
        core_element_ops = 0
        core_vectors = 0
        elements = self.vector_bytes // 4
        for query in plan.queries:
            groups = self._dimm_groups(query)
            shipped_items += len(groups)
            for dimm, members in groups.items():
                if len(members) > 1:
                    ndp_chain_per_dimm[dimm] = (
                        ndp_chain_per_dimm.get(dimm, 0) + len(members) - 1
                    )
                    ndp_reduced += len(members) - 1
            # The core combines the shipped items (partials + raws).
            core_element_ops += (len(groups) - 1) * elements
            core_vectors += len(groups)

        ndp_cycles = (
            max(ndp_chain_per_dimm.values()) * NMP_STAGE_CYCLES
            if ndp_chain_per_dimm
            else 0
        )
        ndp_ns = PE_CLOCK.cycles_to_ns(ndp_cycles)
        bytes_to_core = shipped_items * self.vector_bytes
        transfer_ns = self.link.transfer_ns(bytes_to_core)
        core_ns = self.core.reduce_ns(core_element_ops, core_vectors)

        timing = GatherTiming(
            memory_ns=memory_ns,
            ndp_compute_ns=ndp_ns,
            core_compute_ns=core_ns,
            transfer_ns=transfer_ns,
            total_ns=memory_ns + ndp_ns + transfer_ns + core_ns,
        )
        return GatherResult(
            vectors=functional_reduce(plan.queries, source, self.operator),
            timing=timing,
            memory_stats=stats,
            bytes_to_core=bytes_to_core,
            dram_reads=stats.reads,
            ndp_reduced_vectors=ndp_reduced,
            core_reduced_vectors=core_vectors,
            cache_hits=cache_hits,
        )
