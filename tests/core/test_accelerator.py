"""Tests for the public FafnirAccelerator facade."""

import numpy as np
import pytest

from repro.core import FafnirAccelerator, FafnirConfig


def make_source(seed=0, elements=128):
    rng = np.random.default_rng(seed)
    store = {}

    def source(index):
        if index not in store:
            store[index] = rng.normal(size=elements)
        return store[index]

    return source


class TestFacade:
    def test_operator_accepts_string(self):
        accelerator = FafnirAccelerator(operator="max")
        assert accelerator.operator.name == "max"

    def test_lookup_returns_one_vector_per_query(self):
        accelerator = FafnirAccelerator()
        source = make_source()
        result = accelerator.lookup(source, [[1, 2], [3], [4, 5, 6]])
        assert len(result.vectors) == 3
        assert all(v.shape == (128,) for v in result.vectors)

    def test_verify_against_oracle(self):
        accelerator = FafnirAccelerator()
        source = make_source(seed=2)
        rng = np.random.default_rng(3)
        queries = [list(rng.choice(1024, size=8, replace=False)) for _ in range(16)]
        result = accelerator.lookup(source, queries)
        for query, produced in zip(result.plan.queries, result.vectors):
            expected = accelerator.operator.reduce_many(
                [source(i) for i in sorted(query)])
            assert np.allclose(produced, expected, rtol=1e-9)

    def test_software_batches_split_into_hardware_batches(self):
        """Paper §IV-B: larger software batches are served as several small
        hardware batches."""
        config = FafnirConfig(batch_size=4)
        accelerator = FafnirAccelerator(config=config)
        source = make_source(seed=4)
        rng = np.random.default_rng(5)
        queries = [list(rng.choice(256, size=4, replace=False)) for _ in range(10)]
        result = accelerator.lookup(source, queries)
        assert len(result.vectors) == 10
        # Stats accumulate across the three hardware batches (4 + 4 + 2).
        assert result.stats.total_lookups == sum(len(q) for q in queries)
        assert len(result.plan.queries) == 10
        # Every output still matches the oracle.
        for query, vector in zip(queries, result.vectors):
            want = np.sum([source(i) for i in set(query)], axis=0)
            assert np.allclose(vector, want)

    def test_split_batches_keep_the_unique_index_set(self):
        """An index shared across hardware batches is read once per batch,
        but counted once among the lookup's unique indices."""
        accelerator = FafnirAccelerator(config=FafnirConfig(batch_size=2))
        queries = [[9, 4], [4, 1], [9, 7], [4, 2, 9]]
        result = accelerator.lookup(make_source(seed=9), queries)
        assert result.plan.reads == (1, 4, 9, 2, 4, 7, 9)
        assert result.plan.unique_indices == (1, 2, 4, 7, 9)
        assert result.plan.unique_fraction == pytest.approx(5 / 9)
        assert result.plan.accesses_saved == 2

    def test_split_batches_accumulate_latency(self):
        config = FafnirConfig(batch_size=2)
        accelerator = FafnirAccelerator(config=config)
        source = make_source(seed=6)
        single = accelerator.lookup(source, [[1, 2], [3, 4]])
        double = accelerator.lookup(source, [[1, 2], [3, 4], [5, 6], [7, 8]])
        assert double.stats.latency_pe_cycles > single.stats.latency_pe_cycles

    def test_split_batches_keep_per_query_ready_cycles(self):
        """An oversize lookup reports one ready cycle per query, later
        sub-batches offset by the earlier ones' latency."""
        from repro.workloads import EmbeddingTableSet, QueryGenerator

        tables = EmbeddingTableSet.random(seed=7)
        queries = QueryGenerator.paper_calibrated(tables, seed=8).batch(40)
        accelerator = FafnirAccelerator(config=FafnirConfig(batch_size=32))
        result = accelerator.lookup(tables.vector, queries)
        assert len(result.vectors) == 40
        assert len(result.ready_pe_cycles) == len(result.vectors)
        assert max(result.ready_pe_cycles) == result.stats.latency_pe_cycles
        head = accelerator.lookup(tables.vector, queries[:32])
        assert result.ready_pe_cycles[:32] == head.ready_pe_cycles
        assert min(result.ready_pe_cycles[32:]) > head.stats.latency_pe_cycles

    def test_engine_property_exposed(self):
        accelerator = FafnirAccelerator()
        assert accelerator.engine.config is accelerator.config
