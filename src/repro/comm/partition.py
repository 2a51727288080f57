"""Index-space partitioning for table-parallel sharding.

A single FAFNIR node holds every embedding table; at multi-node scale the
tables themselves are partitioned, each node owns a slice of the index
space, and a query's reduction spans nodes.  :class:`IndexPartition`
names that ownership: ``owner(index)`` → *piece* id (the shard holding
the index), and ``owners`` for a whole array of indices, which the
cross-shard reducer splits batches with.

:meth:`IndexPartition.by_home_rank` builds the partition the runner
uses: pieces are contiguous rank ranges of the single-node row-major
placement (vector ``i`` lives in rank ``i mod R``).  When the piece count
is a power of two dividing the leaf count, every piece is exactly an
aligned subtree of the single-node reduction tree, so a shard's partial
over its piece equals that subtree's value **bit for bit** and the
canonical pairwise fold over pieces reproduces the single-node root
association exactly — the property the reduction differential matrix
asserts.  Range-sharded (``contiguous``) and literal (``explicit``)
partitions are *not* subtree-aligned; the property tests use them for
exactly that.

Partitions are plain picklable data so they ship to worker processes
alongside the engine configuration.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Dict, List, Tuple

import numpy as np

from repro.core.config import FafnirConfig

#: Partition modes (how ``owner`` maps an index to a piece).
MODE_HOME_RANK = "home_rank"
MODE_CONTIGUOUS = "contiguous"
MODE_EXPLICIT = "explicit"


@dataclass(frozen=True)
class IndexPartition:
    """Ownership of the global index space by ``num_pieces`` shards.

    :meth:`by_home_rank` builds the partition the runner uses; the raw
    fields describe one of three modes:

    * ``home_rank`` — ``rank_owner[index % total_ranks]`` decides.
    * ``contiguous`` — ``index // piece_span``, indices past the last
      piece's range clamping to it (range sharding).
    * ``explicit`` — a literal index → piece map.
    """

    num_pieces: int
    mode: str = MODE_HOME_RANK
    rank_owner: Tuple[int, ...] = ()
    total_ranks: int = 32
    piece_span: int = 0
    explicit_owner: Dict[int, int] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.num_pieces < 1:
            raise ValueError("need at least one piece")
        if self.mode not in (MODE_HOME_RANK, MODE_CONTIGUOUS, MODE_EXPLICIT):
            raise ValueError(f"unknown partition mode {self.mode!r}")
        if self.mode == MODE_HOME_RANK and len(self.rank_owner) != self.total_ranks:
            raise ValueError(
                f"rank_owner covers {len(self.rank_owner)} ranks, "
                f"expected {self.total_ranks}"
            )
        if self.mode == MODE_CONTIGUOUS and self.piece_span < 1:
            raise ValueError("piece_span must be positive")
        for index, piece in self.explicit_owner.items():
            if not 0 <= piece < self.num_pieces:
                raise ValueError(
                    f"index {index} assigned to piece {piece} outside "
                    f"[0, {self.num_pieces})"
                )

    # --- constructors ------------------------------------------------------
    @classmethod
    def by_home_rank(cls, config: FafnirConfig, pieces: int) -> "IndexPartition":
        """Partition by the single-node home rank, contiguous rank ranges.

        Ranks are divided into ``pieces`` contiguous runs, as evenly as
        possible, snapped onto leaf-PE boundaries whenever the leaf count
        allows.  A power-of-two ``pieces`` dividing the leaf count yields
        subtree-aligned pieces — the bit-exact composition case.
        """
        if pieces > config.total_ranks:
            raise ValueError(
                f"{pieces} pieces exceed {config.total_ranks} ranks "
                "(a piece must own at least one rank)"
            )
        per_leaf = config.ranks_per_leaf_pe
        owner: List[int] = []
        if config.num_leaf_pes >= pieces:
            # Divide whole leaves: every piece boundary is a leaf boundary.
            leaves_base, leaves_extra = divmod(config.num_leaf_pes, pieces)
            for piece in range(pieces):
                leaves = leaves_base + (1 if piece < leaves_extra else 0)
                owner.extend([piece] * (leaves * per_leaf))
        else:
            base, extra = divmod(config.total_ranks, pieces)
            for piece in range(pieces):
                owner.extend([piece] * (base + (1 if piece < extra else 0)))
        return cls(
            num_pieces=pieces,
            mode=MODE_HOME_RANK,
            rank_owner=tuple(owner),
            total_ranks=config.total_ranks,
        )

    # --- ownership ---------------------------------------------------------
    def owner(self, index: int) -> int:
        """The piece holding ``index``."""
        if index < 0:
            raise ValueError("index must be non-negative")
        if self.mode == MODE_HOME_RANK:
            return self.rank_owner[index % self.total_ranks]
        if self.mode == MODE_CONTIGUOUS:
            return min(index // self.piece_span, self.num_pieces - 1)
        try:
            return self.explicit_owner[index]
        except KeyError:
            raise KeyError(f"index {index} is not assigned to any piece") from None

    def owners(self, indices: np.ndarray) -> np.ndarray:
        """:meth:`owner` of every entry of the int array ``indices``, with
        the same errors."""
        if self.mode == MODE_EXPLICIT:
            return np.array(list(map(self.owner, indices.tolist())), np.int64)
        if (indices < 0).any():
            raise ValueError("index must be non-negative")
        if self.mode == MODE_HOME_RANK:
            return self._rank_owners[indices % self.total_ranks]
        return np.minimum(indices // self.piece_span, self.num_pieces - 1)

    @cached_property
    def _rank_owners(self) -> np.ndarray:
        return np.array(self.rank_owner, np.int64)
