"""Interactive (single-query) processing mode (paper §IV-C).

The batch mechanism is an optimisation, not a requirement: "the same
mechanism can also be used for interactive processing, in which all nodes
would either forward or reduce without performing any comparisons".  With a
single in-flight query, every value in the tree belongs to it, so a PE
simply reduces whenever both inputs hold data and forwards otherwise — no
headers, no compare units on the critical path.

This mode is what a latency-critical online recommendation service would
use for one-off lookups; the batch engine amortises far better under load
(see ``examples/interactive_latency.py`` and the mode-comparison tests).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.clocks import convert_cycles
from repro.core.config import FafnirConfig
from repro.core.engine import VectorSource
from repro.core.operators import ReductionOperator, SUM, get_operator
from repro.core.tree import FafnirTree
from repro.memory.config import MemoryConfig
from repro.memory.mapping import RowMajorPlacement
from repro.memory.request import ReadRequest
from repro.memory.system import MemorySystem
from repro.memory.trace import AccessStats


@dataclass
class InteractiveResult:
    """One query's reduced vector plus latency measurements."""

    vector: np.ndarray
    latency_pe_cycles: int
    memory_latency_pe_cycles: int
    memory: AccessStats

    @property
    def tree_latency_pe_cycles(self) -> int:
        return self.latency_pe_cycles - self.memory_latency_pe_cycles


class InteractiveEngine:
    """Single-query lookups with compare-free PEs."""

    def __init__(
        self,
        config: Optional[FafnirConfig] = None,
        operator: ReductionOperator = SUM,
    ) -> None:
        self.config = config or FafnirConfig()
        if isinstance(operator, str):
            operator = get_operator(operator)
        self.operator = operator
        memory_config = MemoryConfig().scaled_to_ranks(self.config.total_ranks)
        self.memory = MemorySystem(memory_config)
        self.placement = RowMajorPlacement(
            memory_config.geometry, self.config.vector_bytes
        )
        self.tree = FafnirTree(self.config)

    @property
    def stage_cycles(self) -> int:
        """Per-PE latency without the compare unit: just the reduce paths."""
        latencies = self.config.latencies
        return max(latencies.reduce_value, latencies.forward)

    def lookup_one(
        self, query: Sequence[int], source: VectorSource
    ) -> InteractiveResult:
        """Gather-and-reduce one query with minimal latency."""
        indices = sorted(set(int(i) for i in query))
        if not indices:
            raise ValueError("query must contain at least one index")
        if len(indices) > self.config.max_query_len:
            raise ValueError(
                f"query of {len(indices)} indices exceeds the configured "
                f"maximum of {self.config.max_query_len}"
            )
        self.memory.reset()

        requests: List[ReadRequest] = []
        for index in indices:
            requests.extend(self.placement.requests_for(index))
        completions, stats = self.memory.execute(requests)
        # A placement may split one vector into several row-aligned reads
        # (all tagged with the same index); the vector is only usable once
        # its *last* piece lands, so keep the max finish cycle per index.
        finish: Dict[int, int] = {}
        for completion in completions:
            tag = completion.request.tag
            previous = finish.get(tag)
            if previous is None or completion.finish_cycle > previous:
                finish[tag] = completion.finish_cycle

        # Seed each leaf input side with (partial value, ready cycle).
        per_pe: Dict[int, List[Tuple[np.ndarray, int]]] = {}
        for index in indices:
            value = np.asarray(source(index), dtype=np.float64)
            if value.shape != (self.config.vector_elements,):
                raise ValueError(
                    f"vector {index} has shape {value.shape}; expected "
                    f"({self.config.vector_elements},)"
                )
            rank = self.placement.home_rank(index)
            assert rank is not None
            leaf = self.tree.leaf_for_rank(rank)
            ready = convert_cycles(
                finish[index], self.config.dram_clock, self.config.pe_clock
            )
            per_pe.setdefault(leaf.pe_id, []).append((value, ready))

        stage = self.stage_cycles
        outputs: Dict[int, Optional[Tuple[np.ndarray, int]]] = {}
        for pe_id in self.tree.bottom_up_ids():
            node = self.tree.pe(pe_id)
            if node.is_leaf:
                items = per_pe.get(pe_id, [])
            else:
                left, right = node.children  # type: ignore[misc]
                items = [
                    item
                    for item in (outputs.get(left), outputs.get(right))
                    if item is not None
                ]
            if not items:
                outputs[pe_id] = None
                continue
            # The PE folds everything it sees — no comparisons needed.
            value, ready = items[0]
            for other_value, other_ready in items[1:]:
                value = self.operator.combine(value, other_value)
                ready = max(ready, other_ready)
            outputs[pe_id] = (value, ready + stage)

        root = outputs[self.tree.root_id]
        assert root is not None
        value, ready = root
        return InteractiveResult(
            vector=self.operator.finalize(value.copy(), len(indices)),
            latency_pe_cycles=ready,
            memory_latency_pe_cycles=convert_cycles(
                stats.finish_cycle, self.config.dram_clock, self.config.pe_clock
            ),
            memory=stats,
        )
