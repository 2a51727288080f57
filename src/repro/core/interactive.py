"""Interactive (single-query) processing mode (paper §IV-C).

The batch mechanism is an optimisation, not a requirement: "the same
mechanism can also be used for interactive processing, in which all nodes
would either forward or reduce without performing any comparisons".  With a
single in-flight query, every value in the tree belongs to it, so a PE
simply reduces whenever both inputs hold data and forwards otherwise — no
headers, no compare units on the critical path.

That makes the whole tree a closed form.  Every PE on the query's path adds
one compare-free stage and the root is ``num_levels`` stages above the
leaves, so the latency is the latest leaf-ready cycle plus
``stage_cycles × num_levels``.  Each leaf folds its rank-local vectors in
index order, and the internal PEs are a balanced tournament over the leaves
in which a PE with one live input forwards it — exactly
:func:`~repro.core.operators.canonical_fold` with one piece per leaf, the
same fold the cross-shard reducer uses.  Reads go through the batch
engine's placement and memory system, vectors through its fetch, and
ranks to leaves through its routing table; only the tree walk differs.
``tests/interactive_oracle.py`` keeps the per-PE walk as the differential
oracle.

This mode is what a latency-critical online recommendation service would
use for one-off lookups; the batch engine amortises far better under load
(see ``examples/interactive_latency.py`` and the mode-comparison tests).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Sequence

import numpy as np

from repro.clocks import convert_cycles
from repro.core.config import FafnirConfig
from repro.core.engine import FafnirEngine, VectorSource
from repro.core.operators import ReductionOperator, SUM, canonical_fold
from repro.memory.trace import AccessStats


@dataclass
class InteractiveResult:
    """One query's reduced vector plus latency measurements."""

    vector: np.ndarray
    latency_pe_cycles: int
    memory_latency_pe_cycles: int
    memory: AccessStats


class InteractiveEngine(FafnirEngine):
    """Single-query lookups with compare-free PEs, on the batch engine's
    memory, placement, tree and fetch path."""

    def __init__(
        self,
        config: Optional[FafnirConfig] = None,
        operator: ReductionOperator = SUM,
    ) -> None:
        super().__init__(config, operator)

    @property
    def stage_cycles(self) -> int:
        """Per-PE latency without the compare unit: just the reduce paths."""
        latencies = self.config.latencies
        return max(latencies.reduce_value, latencies.forward)

    def lookup_one(
        self, query: Sequence[int], source: VectorSource
    ) -> InteractiveResult:
        """Gather-and-reduce one query with minimal latency."""
        config = self.config
        indices = sorted(set(map(int, query)))
        if not indices:
            raise ValueError("query must contain at least one index")
        if len(indices) > config.max_query_len:
            raise ValueError(
                f"query of {len(indices)} indices exceeds the configured "
                f"maximum of {config.max_query_len}"
            )
        if indices[0] < 0:
            raise ValueError("vector_id must be non-negative")
        self.memory.reset()
        placement = self.placement
        located = placement.locate(np.array(indices, np.int64))
        served, stats = self.memory.execute(placement.reads_at(indices, located))

        combine = self.operator.combine
        leaves: Dict[int, np.ndarray] = {}
        fifos = self._leaf_fifos(indices, located[0]).tolist()
        for fifo, value in zip(fifos, self._vectors(source, indices)):
            partial = leaves.get(fifo >> 1)
            leaves[fifo >> 1] = value if partial is None else combine(partial, value)

        value = canonical_fold(leaves, config.num_leaf_pes, combine)
        return InteractiveResult(
            vector=self.operator.finalize(value.copy(), len(indices)),
            latency_pe_cycles=convert_cycles(
                max(served.finish), config.dram_clock, config.pe_clock
            )
            + self.stage_cycles * self.tree.num_levels,
            memory_latency_pe_cycles=convert_cycles(
                stats.finish_cycle, config.dram_clock, config.pe_clock
            ),
            memory=stats,
        )
