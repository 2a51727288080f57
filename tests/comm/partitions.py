"""Partitions only the tests build: range sharding, literal maps, the
subtree-alignment predicate, and the per-query split.

:class:`~repro.comm.partition.IndexPartition` serves all three modes; the
runner builds only :meth:`~repro.comm.partition.IndexPartition.by_home_rank`
partitions, so the other constructors live here.
"""

from typing import Dict, List, Sequence

from repro.comm.partition import (
    MODE_CONTIGUOUS,
    MODE_EXPLICIT,
    MODE_HOME_RANK,
    IndexPartition,
)
from repro.core.config import FafnirConfig


def contiguous(universe: int, pieces: int) -> IndexPartition:
    """Equal index ranges over ``[0, universe)`` (range sharding)."""
    if universe < 1:
        raise ValueError("universe must be positive")
    return IndexPartition(
        num_pieces=pieces,
        mode=MODE_CONTIGUOUS,
        piece_span=max(1, -(-universe // pieces)),
    )


def explicit(owner_of: Dict[int, int], pieces: int) -> IndexPartition:
    """A literal index → piece map (arbitrary partitions)."""
    return IndexPartition(
        num_pieces=pieces, mode=MODE_EXPLICIT, explicit_owner=dict(owner_of)
    )


def subtree_aligned(partition: IndexPartition, config: FafnirConfig) -> bool:
    """Whether every piece is an aligned subtree of ``config``'s tree
    (the precondition for bit-exact single-node composition)."""
    if partition.mode != MODE_HOME_RANK or config.total_ranks != partition.total_ranks:
        return False
    pieces = partition.num_pieces
    if pieces & (pieces - 1):
        return False
    leaves = config.num_leaf_pes
    if pieces > leaves or leaves % pieces:
        return False
    span = config.total_ranks // pieces
    return all(
        partition.rank_owner[rank] == rank // span
        for rank in range(config.total_ranks)
    )


def split_query(partition: IndexPartition, query: Sequence[int]) -> Dict[int, List[int]]:
    """Per-piece sub-queries, one ``owner`` call per index, preserving the
    query's index order; pieces with no index in the query are absent.
    The reference for ``ShardSplit``'s column split."""
    pieces: Dict[int, List[int]] = {}
    for index in query:
        pieces.setdefault(partition.owner(int(index)), []).append(int(index))
    return pieces
