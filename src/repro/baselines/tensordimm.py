"""TensorDIMM model (paper §III-A/B, Fig. 2b).

TensorDIMM stripes every embedding vector **column-major** across all ranks
and reduces inside the DIMMs, shipping only output vectors to the cores
(data movement ``n·v``, as good as FAFNIR).  Its two weaknesses, both of
which emerge from this model:

* **memory** — each vector read touches every rank for a thin slice from an
  effectively random row, destroying row-buffer locality (paper measures
  4.45× RecNMP/FAFNIR's single-query memory latency, up to 16× with no row
  hits at all);
* **compute** — the ``q−1`` reductions of one query are *pipelined*, not
  parallel: each DIMM-side NMP unit chains element-wise adds over arriving
  slices, so only ``v`` scalar operations run in parallel system-wide
  (2.5× FAFNIR's parallel-tree compute latency in Fig. 11).
"""

from __future__ import annotations

from typing import List, Sequence

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
from repro.memory.mapping import ColumnMajorPlacement
from repro.memory.system import MemorySystem

# One pipeline stage of the TensorDIMM NMP adder chain, in 200 MHz cycles:
# pop two slices from the FIFO, element-wise add, push.  Chosen so a 16-index
# query's chained reduction lands in the 2-3× range the paper's Fig. 11
# reports against FAFNIR's 5-level parallel tree.
PIPELINE_STAGE_CYCLES = 24

# How many vector reads the in-order adder chain keeps in flight.  The NMP
# units consume slices in query order, so distinct-vector reads cannot
# exploit rank-level parallelism the way RecNMP/FAFNIR do (§III-B: "only v
# scalar operations can be performed in parallel ... the rest can be
# pipelined").  A shallow depth reproduces the paper's observation that
# TensorDIMM's memory time is ~4.45× RecNMP's per query and ~15× at batch
# scale (Fig. 13).
VECTOR_PIPELINE_DEPTH = 1


class TensorDimmGatherEngine(GatherEngine):
    """Rank-striped NDP reduction with pipelined (serial) per-query adds."""

    name = "tensordimm"

    def __init__(
        self,
        memory_config: MemoryConfig = None,
        operator: ReductionOperator = SUM,
        vector_bytes: int = 512,
        link: HostLink = None,
    ) -> None:
        super().__init__(operator)
        self.memory_config = memory_config or MemoryConfig()
        self.vector_bytes = vector_bytes
        self.memory = MemorySystem(self.memory_config)
        self.placement = ColumnMajorPlacement(
            self.memory_config.geometry, vector_bytes
        )
        self.link = link or HostLink(
            channels=self.memory_config.geometry.channels
        )

    def lookup(
        self, queries: Sequence[Sequence[int]], source: VectorSource
    ) -> GatherResult:
        self.memory.reset()
        # TensorDIMM has no redundant-access elimination: every occurrence
        # of every index is read (§III-E).
        plan = plan_batch(queries, deduplicate=False)

        # Vectors stream through the in-order adder chain: vector k's slice
        # reads are issued only once vector k − VECTOR_PIPELINE_DEPTH has
        # fully arrived, modelling the chain's limited look-ahead.
        stats = None
        vector_finish: List[int] = []
        for position, index in enumerate(plan.reads):
            gate = position - VECTOR_PIPELINE_DEPTH
            issue = vector_finish[gate] if gate >= 0 else 0
            _, batch_stats = self.memory.execute(
                self.placement.reads_for([index], issue_cycle=issue)
            )
            vector_finish.append(batch_stats.finish_cycle)
            stats = batch_stats if stats is None else stats.merged_with(batch_stats)
        assert stats is not None
        memory_ns = DRAM_CLOCK.cycles_to_ns(stats.finish_cycle)

        # NMP compute: per query, q−1 chained reduction stages; queries
        # pipeline behind one another one stage apart.
        chained_stages = sum(max(0, len(q) - 1) for q in plan.queries)
        longest_chain = max(max(0, len(q) - 1) for q in plan.queries)
        ndp_cycles = (
            longest_chain * PIPELINE_STAGE_CYCLES
            + (len(plan.queries) - 1) * PIPELINE_STAGE_CYCLES
        )
        ndp_ns = PE_CLOCK.cycles_to_ns(ndp_cycles)

        bytes_to_core = len(plan.queries) * self.vector_bytes
        transfer_ns = self.link.transfer_ns(bytes_to_core)

        timing = GatherTiming(
            memory_ns=memory_ns,
            ndp_compute_ns=ndp_ns,
            core_compute_ns=0.0,
            transfer_ns=transfer_ns,
            # The adder chain overlaps slice arrival; the final stages and
            # the output transfer trail the last read.
            total_ns=memory_ns + ndp_ns + transfer_ns,
        )
        return GatherResult(
            vectors=functional_reduce(plan.queries, source, self.operator),
            timing=timing,
            memory_stats=stats,
            bytes_to_core=bytes_to_core,
            dram_reads=stats.reads,
            ndp_reduced_vectors=chained_stages,
            core_reduced_vectors=0,
        )
