"""Tests for tree-utilisation aggregation."""

import numpy as np
import pytest

from repro.core import FafnirEngine, tree_utilization
from repro.workloads import EmbeddingTableSet, QueryGenerator


@pytest.fixture(scope="module")
def lookup():
    tables = EmbeddingTableSet(rows_per_table=10_000, seed=1)
    engine = FafnirEngine()
    batch = QueryGenerator.paper_calibrated(tables, seed=2).batch(16)
    result = engine.run_batch(batch, tables.vector)
    return engine, result


class TestTreeUtilization:
    def test_levels_cover_whole_tree(self, lookup):
        engine, result = lookup
        utilization = tree_utilization(
            engine.tree, result.stats, engine.memory.config.geometry
        )
        assert len(utilization.levels) == engine.tree.num_levels
        assert sum(level.pes for level in utilization.levels) == engine.tree.num_pes

    def test_totals_match_engine_stats(self, lookup):
        engine, result = lookup
        utilization = tree_utilization(
            engine.tree, result.stats, engine.memory.config.geometry
        )
        assert utilization.total.reduces == result.stats.total_work.reduces
        assert utilization.total.forwards == result.stats.total_work.forwards

    def test_per_chip_grouping(self, lookup):
        engine, result = lookup
        utilization = tree_utilization(
            engine.tree, result.stats, engine.memory.config.geometry
        )
        chips = set(utilization.per_chip)
        assert "channel_node" in chips
        assert sum(1 for c in chips if c.startswith("dimm_rank_node")) == 4

    def test_channel_node_performs_cross_channel_reductions(self, lookup):
        """The paper's argument: without the channel node these reductions
        would land on the cores."""
        engine, result = lookup
        utilization = tree_utilization(
            engine.tree, result.stats, engine.memory.config.geometry
        )
        channel = utilization.per_chip["channel_node"].reduces
        assert 0 < channel < utilization.total.reduces
