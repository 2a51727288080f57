"""Tests for tree topology and node grouping (paper Fig. 4a)."""

import pytest

from repro.core import FafnirConfig, FafnirEngine, FafnirTree
from repro.memory import MemoryConfig


@pytest.fixture
def reference_tree():
    """The paper's 32-rank, 1PE:2R tree: 16 leaves, 31 PEs, 5 levels."""
    return FafnirTree(FafnirConfig())


class TestTopology:
    def test_reference_tree_has_31_pes(self, reference_tree):
        assert reference_tree.num_pes == 31
        assert reference_tree.num_levels == 5

    def test_leaves_cover_all_ranks_disjointly(self, reference_tree):
        seen = set()
        for leaf in reference_tree.leaves():
            assert leaf.leaf_ranks is not None
            assert not (set(leaf.leaf_ranks) & seen)
            seen.update(leaf.leaf_ranks)
        assert seen == set(range(32))

    def test_root_covers_every_rank(self, reference_tree):
        (root,) = reference_tree.level_ids(reference_tree.num_levels - 1)
        assert set(reference_tree.covered_ranks(root)) == set(range(32))

    def test_bottom_up_order_children_before_parents(self, reference_tree):
        """PE ids run leaves first, level by level, so a parent's id is
        above its children's."""
        levels = [reference_tree.level_ids(level)
                  for level in range(reference_tree.num_levels)]
        order = [pe_id for level in levels for pe_id in level]
        assert order == list(range(reference_tree.num_pes))
        for pe_id in order:
            node = reference_tree.pe(pe_id)
            if node.children:
                left, right = node.children
                assert left < pe_id and right < pe_id

    def test_leaf_for_rank(self, reference_tree):
        """Each rank pair feeds one leaf, first rank on FIFO 0, second on
        FIFO 1 (the engine's rank → FIFO table, FIFO ``2·leaf + side``)."""
        routes = FafnirEngine._leaf_routes(reference_tree.leaves())
        assert (routes[0], routes[1], routes[31]) == (0, 1, 31)
        assert reference_tree.pe(routes[31] // 2).leaf_ranks == (30, 31)
        assert 32 not in routes

    def test_one_pe_per_rank_configuration(self):
        tree = FafnirTree(FafnirConfig(ranks_per_leaf_pe=1))
        assert len(tree.leaves()) == 32
        assert tree.num_pes == 63

    def test_one_pe_per_four_ranks_configuration(self):
        tree = FafnirTree(FafnirConfig(ranks_per_leaf_pe=4))
        assert len(tree.leaves()) == 8
        assert tree.num_pes == 15

    def test_small_tree(self):
        tree = FafnirTree(FafnirConfig(total_ranks=8, ranks_per_leaf_pe=2))
        assert tree.num_pes == 7
        assert tree.num_levels == 3


class TestNodeGrouping:
    def test_reference_grouping_is_4_dimm_nodes_plus_channel_node(
        self, reference_tree
    ):
        """Paper Fig. 4a: four 7-PE DIMM/rank nodes and one 3-PE channel node."""
        geometry = MemoryConfig().geometry
        grouping = reference_tree.node_grouping(geometry)
        counts = {}
        for group in grouping.values():
            counts[group] = counts.get(group, 0) + 1
        assert counts["channel_node"] == 3
        dimm_nodes = [g for g in counts if g.startswith("dimm_rank_node")]
        assert len(dimm_nodes) == 4
        assert all(counts[g] == 7 for g in dimm_nodes)

    def test_root_belongs_to_channel_node(self, reference_tree):
        geometry = MemoryConfig().geometry
        grouping = reference_tree.node_grouping(geometry)
        (root,) = reference_tree.level_ids(reference_tree.num_levels - 1)
        assert grouping[root] == "channel_node"

    def test_leaves_belong_to_dimm_nodes(self, reference_tree):
        geometry = MemoryConfig().geometry
        grouping = reference_tree.node_grouping(geometry)
        for leaf in reference_tree.leaves():
            assert grouping[leaf.pe_id].startswith("dimm_rank_node")


class TestConnections:
    def test_tree_link_count(self, reference_tree):
        links = [child for pe_id in range(reference_tree.num_pes)
                 for child in reference_tree.pe(pe_id).children or ()]
        assert sorted(links) == list(range(30))  # every PE but the root, once


class TestConfigValidation:
    def test_non_power_of_two_leaves_rejected(self):
        with pytest.raises(ValueError, match="power of two"):
            FafnirConfig(total_ranks=24, ranks_per_leaf_pe=2)

    def test_indivisible_rank_grouping_rejected(self):
        with pytest.raises(ValueError, match="divide evenly"):
            FafnirConfig(total_ranks=32, ranks_per_leaf_pe=3)

    def test_derived_quantities(self):
        config = FafnirConfig()
        assert config.num_leaf_pes == 16
        assert config.tree_levels == 5
        assert config.num_pes == 31
        assert config.vector_elements == 128
        assert config.index_bits == 5
        assert config.header_bytes == pytest.approx(10.0)
        assert config.entry_bytes == pytest.approx(522.0)

    def test_with_batch_size(self):
        config = FafnirConfig().with_batch_size(8)
        assert config.batch_size == 8
        assert config.compute_units == 8
        assert config.total_ranks == 32

    def test_with_ranks(self):
        config = FafnirConfig().with_ranks(8)
        assert config.total_ranks == 8
        assert config.num_leaf_pes == 4

    def test_with_ranks_rejects_explicit_non_divisor(self):
        # An explicit ranks-per-leaf is honoured or refused, never replaced.
        with pytest.raises(ValueError, match="divide evenly"):
            FafnirConfig().with_ranks(2, 4)
        with pytest.raises(ValueError, match="divide evenly"):
            FafnirConfig().with_ranks(12, 8)
        assert FafnirConfig().with_ranks(8, 4).ranks_per_leaf_pe == 4

    def test_with_ranks_falls_back_to_one_per_leaf(self):
        config = FafnirConfig().with_ranks(2)
        assert config.total_ranks == 2
        assert config.ranks_per_leaf_pe in (1, 2)
