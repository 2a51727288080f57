"""FAFNIR tree topology (paper Fig. 4a).

The tree's leaves attach to the ranks of the memory system (one leaf PE per
two ranks in the reference configuration) and internal PEs pairwise combine
subtrees up to a single root.  PEs are grouped into *DIMM/rank nodes* (the
7-PE subtree covering one channel's 8 ranks) and the *channel node* (the 3
PEs joining the four channels) — the physical chips of the paper's ASIC and
FPGA implementations.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.core.config import FafnirConfig
from repro.memory.config import MemoryGeometry


@dataclass(frozen=True)
class TreePE:
    """One position in the tree.

    Attributes:
        pe_id: unique id; leaves come first, then level by level to the root.
        level: 0 for leaves, increasing toward the root.
        children: ids of the two child PEs (None for leaves).
        leaf_ranks: global rank ids feeding this PE (leaves only).
    """

    pe_id: int
    level: int
    children: Optional[Tuple[int, int]]
    leaf_ranks: Optional[Tuple[int, ...]]

    @property
    def is_leaf(self) -> bool:
        return self.children is None


class FafnirTree:
    """The static PE interconnect for a given configuration."""

    def __init__(self, config: FafnirConfig) -> None:
        self.config = config
        self._pes: Dict[int, TreePE] = {}
        self._levels: List[List[int]] = []
        self._build()

    def _build(self) -> None:
        per_leaf = self.config.ranks_per_leaf_pe
        next_id = 0
        current: List[int] = []
        for leaf in range(self.config.num_leaf_pes):
            ranks = tuple(range(leaf * per_leaf, (leaf + 1) * per_leaf))
            self._pes[next_id] = TreePE(
                pe_id=next_id, level=0, children=None, leaf_ranks=ranks
            )
            current.append(next_id)
            next_id += 1
        self._levels.append(list(current))

        level = 1
        while len(current) > 1:
            parents: List[int] = []
            for left, right in zip(current[0::2], current[1::2]):
                self._pes[next_id] = TreePE(
                    pe_id=next_id,
                    level=level,
                    children=(left, right),
                    leaf_ranks=None,
                )
                parents.append(next_id)
                next_id += 1
            self._levels.append(list(parents))
            current = parents
            level += 1

    # ------------------------------------------------------------------
    @property
    def num_pes(self) -> int:
        return len(self._pes)

    @property
    def num_levels(self) -> int:
        return len(self._levels)

    def pe(self, pe_id: int) -> TreePE:
        return self._pes[pe_id]

    def level_ids(self, level: int) -> List[int]:
        return list(self._levels[level])

    def leaves(self) -> List[TreePE]:
        return [self._pes[i] for i in self._levels[0]]

    def covered_ranks(self, pe_id: int) -> Tuple[int, ...]:
        """All memory ranks in the subtree rooted at ``pe_id``."""
        pe = self._pes[pe_id]
        if pe.is_leaf:
            assert pe.leaf_ranks is not None
            return pe.leaf_ranks
        left, right = pe.children  # type: ignore[misc]
        return self.covered_ranks(left) + self.covered_ranks(right)

    # ------------------------------------------------------------------
    def node_grouping(self, geometry: MemoryGeometry) -> Dict[int, str]:
        """Assign each PE to a physical chip (paper Fig. 4a).

        PEs whose subtree stays within one channel belong to that channel's
        *DIMM/rank node*; PEs joining multiple channels form the *channel
        node*.  For the 32-rank reference system this yields four 7-PE
        DIMM/rank nodes and one 3-PE channel node.
        """
        grouping: Dict[int, str] = {}
        for pe_id in self._pes:
            channels = {
                geometry.channel_of(rank) for rank in self.covered_ranks(pe_id)
            }
            if len(channels) == 1:
                grouping[pe_id] = f"dimm_rank_node_ch{channels.pop()}"
            else:
                grouping[pe_id] = "channel_node"
        return grouping
