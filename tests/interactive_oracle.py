"""The per-PE interactive walk: the specification ``lookup_one`` must match.

``repro.core.interactive.InteractiveEngine.lookup_one`` computes a single
query's result in closed form.  This module keeps the walk it replaced, as
the differential oracle: every PE of the tree, leaves→root, reduces
whatever inputs it holds (a leaf its rank-local vectors in index order, an
internal PE its two children) and forwards otherwise, adding one
compare-free stage per PE.  It reads memory, placement and tree from the
engine it is given, so a patched ``engine.placement`` takes effect here
too.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.clocks import convert_cycles
from repro.core.engine import VectorSource
from repro.core.interactive import InteractiveEngine, InteractiveResult


def lookup_one(
    engine: InteractiveEngine, query: Sequence[int], source: VectorSource
) -> InteractiveResult:
    """Gather-and-reduce one query by walking every PE through dicts."""
    config = engine.config
    indices = sorted(set(int(i) for i in query))
    if not indices:
        raise ValueError("query must contain at least one index")
    if len(indices) > config.max_query_len:
        raise ValueError(
            f"query of {len(indices)} indices exceeds the configured "
            f"maximum of {config.max_query_len}"
        )
    engine.memory.reset()

    reads = engine.placement.reads_for(indices)
    served, stats = engine.memory.execute(reads)
    # A placement may split one vector into several row-aligned reads (all
    # tagged with the same index); the vector is only usable once its
    # *last* piece lands, so keep the max finish cycle per index.
    finish: Dict[int, int] = {}
    for tag, cycle in zip(reads.tag, served.finish):
        previous = finish.get(tag)
        if previous is None or cycle > previous:
            finish[tag] = cycle

    # Seed each leaf input side with (partial value, ready cycle).
    tree = engine.tree
    leaf_of = {rank: leaf.pe_id for leaf in tree.leaves() for rank in leaf.leaf_ranks}
    per_pe: Dict[int, List[Tuple[np.ndarray, int]]] = {}
    for index in indices:
        value = np.asarray(source(index), dtype=np.float64)
        if value.shape != (config.vector_elements,):
            raise ValueError(
                f"vector {index} has shape {value.shape}; expected "
                f"({config.vector_elements},)"
            )
        rank = engine.placement.home_rank(index)
        assert rank is not None
        ready = convert_cycles(finish[index], config.dram_clock, config.pe_clock)
        per_pe.setdefault(leaf_of[rank], []).append((value, ready))

    stage = engine.stage_cycles
    outputs: Dict[int, Optional[Tuple[np.ndarray, int]]] = {}
    levels = [tree.level_ids(level) for level in range(tree.num_levels)]
    for pe_id in (pe_id for level in levels for pe_id in level):
        node = tree.pe(pe_id)
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
            value = engine.operator.combine(value, other_value)
            ready = max(ready, other_ready)
        outputs[pe_id] = (value, ready + stage)

    root = outputs[levels[-1][0]]
    assert root is not None
    value, ready = root
    return InteractiveResult(
        vector=engine.operator.finalize(value.copy(), len(indices)),
        latency_pe_cycles=ready,
        memory_latency_pe_cycles=convert_cycles(
            stats.finish_cycle, config.dram_clock, config.pe_clock
        ),
        memory=stats,
    )
