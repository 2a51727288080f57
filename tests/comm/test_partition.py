"""Unit tests for index-space partitioning."""

import pytest

from repro.comm.partition import IndexPartition
from repro.core.config import FafnirConfig
from tests.comm.partitions import contiguous, explicit, split_query, subtree_aligned


def _config(ranks=16, per_leaf=2):
    return FafnirConfig(total_ranks=ranks, ranks_per_leaf_pe=per_leaf)


def test_by_home_rank_covers_every_rank_contiguously():
    config = _config(16, 2)  # 8 leaves
    partition = IndexPartition.by_home_rank(config, 4)
    assert partition.rank_owner == (0, 0, 0, 0, 1, 1, 1, 1, 2, 2, 2, 2, 3, 3, 3, 3)


def test_by_home_rank_owner_follows_modulo_placement():
    config = _config(16, 2)
    partition = IndexPartition.by_home_rank(config, 4)
    for index in range(100):
        assert partition.owner(index) == partition.rank_owner[index % 16]


def test_by_home_rank_snaps_to_leaf_boundaries_when_uneven():
    config = _config(16, 2)  # 8 leaves of 2 ranks
    partition = IndexPartition.by_home_rank(config, 3)
    # 8 leaves over 3 pieces → 3/3/2 leaves → 6/6/4 ranks.
    counts = [partition.rank_owner.count(piece) for piece in range(3)]
    assert counts == [6, 6, 4]
    # Every piece boundary falls on a leaf (2-rank) boundary.
    for boundary in range(0, 16, 2):
        assert partition.rank_owner[boundary] == partition.rank_owner[boundary + 1]


def test_by_home_rank_rejects_more_pieces_than_ranks():
    with pytest.raises(ValueError, match="exceed"):
        IndexPartition.by_home_rank(_config(8, 2), 9)


def test_contiguous_ranges():
    partition = contiguous(universe=100, pieces=4)
    assert partition.owner(0) == 0
    assert partition.owner(24) == 0
    assert partition.owner(25) == 1
    assert partition.owner(99) == 3
    # Indices past the universe clamp to the last piece instead of raising.
    assert partition.owner(1000) == 3


def test_explicit_mapping_and_errors():
    partition = explicit({0: 1, 5: 0, 9: 1}, pieces=2)
    assert partition.owner(5) == 0
    assert partition.owner(9) == 1
    with pytest.raises(KeyError):
        partition.owner(3)
    with pytest.raises(ValueError, match="outside"):
        explicit({1: 7}, pieces=2)


def test_split_query_preserves_order_and_omits_untouched_pieces():
    config = _config(16, 2)
    partition = IndexPartition.by_home_rank(config, 4)
    # All indices home to ranks 0..3 → piece 0 only.
    query = [32, 0, 16, 3]
    split = split_query(partition, query)
    assert set(split) == {0}
    assert split[0] == [32, 0, 16, 3]  # original order, untouched pieces absent


def test_split_query_partitions_without_loss():
    config = _config(16, 2)
    partition = IndexPartition.by_home_rank(config, 4)
    query = list(range(40))
    split = split_query(partition, query)
    recombined = sorted(index for piece in split.values() for index in piece)
    assert recombined == query
    for piece, indices in split.items():
        assert all(partition.owner(index) == piece for index in indices)


def test_subtree_alignment():
    config = _config(16, 2)
    assert subtree_aligned(IndexPartition.by_home_rank(config, 4), config)
    assert subtree_aligned(IndexPartition.by_home_rank(config, 8), config)
    # Non-power-of-two piece counts are not aligned subtrees.
    assert not subtree_aligned(IndexPartition.by_home_rank(config, 3), config)
    # Range sharding ignores the tree entirely.
    assert not subtree_aligned(contiguous(100, 4), config)
    # A different machine shape breaks the alignment claim.
    other = _config(32, 2)
    assert not subtree_aligned(IndexPartition.by_home_rank(config, 4), other)


def test_validation():
    with pytest.raises(ValueError, match="at least one piece"):
        IndexPartition(num_pieces=0)
    with pytest.raises(ValueError, match="unknown partition mode"):
        IndexPartition(num_pieces=2, mode="banana")
    with pytest.raises(ValueError, match="covers"):
        IndexPartition(num_pieces=2, rank_owner=(0, 1), total_ranks=4)
    with pytest.raises(ValueError, match="non-negative"):
        contiguous(16, 2).owner(-1)
