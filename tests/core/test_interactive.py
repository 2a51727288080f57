"""Tests for the interactive (single-query) mode (§IV-C)."""

import numpy as np
import pytest

from repro.core import FafnirConfig, FafnirEngine, InteractiveEngine, get_operator
from repro.memory import ReadColumns


def make_source(seed=0, elements=128):
    rng = np.random.default_rng(seed)
    store = {}

    def source(index):
        if index not in store:
            store[index] = rng.normal(size=elements)
        return store[index]

    return source


class TestInteractive:
    def test_matches_oracle(self):
        engine = InteractiveEngine()
        source = make_source(seed=1)
        query = [3, 77, 515, 1030]
        result = engine.lookup_one(query, source)
        want = np.sum([source(i) for i in query], axis=0)
        assert np.allclose(result.vector, want)

    def test_matches_batch_engine_result(self):
        source = make_source(seed=2)
        query = [10, 43, 76, 109, 200]
        interactive = InteractiveEngine().lookup_one(query, source)
        batch = FafnirEngine(FafnirConfig(batch_size=1)).run_batch(
            [query], source
        )
        assert np.allclose(interactive.vector, batch.vectors[0])

    def test_lower_latency_than_batch_path(self):
        """Compare-free PEs: the single query travels the tree faster than
        through the full header-processing pipeline."""
        source = make_source(seed=3)
        query = [1, 34, 67, 100, 133, 166, 199, 232]
        interactive = InteractiveEngine().lookup_one(query, source)
        batch = FafnirEngine(FafnirConfig(batch_size=1)).run_batch([query], source)
        assert interactive.latency_pe_cycles < batch.stats.latency_pe_cycles

    def test_mean_operator(self):
        operator = get_operator("mean")
        engine = InteractiveEngine(operator=operator)
        source = make_source(seed=4)
        query = [5, 70, 135]
        result = engine.lookup_one(query, source)
        assert np.allclose(result.vector, np.mean([source(i) for i in query], axis=0))

    def test_operator_accepts_string(self):
        engine = InteractiveEngine(operator="max")
        assert engine.operator.name == "max"

    def test_single_index(self):
        engine = InteractiveEngine()
        source = make_source(seed=5)
        result = engine.lookup_one([42], source)
        assert np.allclose(result.vector, source(42))

    def test_same_rank_indices_fold(self):
        engine = InteractiveEngine()
        source = make_source(seed=6)
        query = [0, 32, 64]  # all homed in rank 0
        result = engine.lookup_one(query, source)
        assert np.allclose(result.vector, np.sum([source(i) for i in query], axis=0))

    def test_validation(self):
        engine = InteractiveEngine()
        source = make_source()
        with pytest.raises(ValueError):
            engine.lookup_one([], source)
        with pytest.raises(ValueError):
            engine.lookup_one(list(range(17)), source)
        with pytest.raises(ValueError):
            engine.lookup_one([1], lambda i: np.zeros(3))

    def test_latency_includes_memory(self):
        engine = InteractiveEngine()
        source = make_source(seed=7)
        result = engine.lookup_one([1, 2, 3], source)
        assert result.latency_pe_cycles > result.memory_latency_pe_cycles >= 0
        assert result.memory.reads == 3

    def test_stage_is_compare_free(self):
        engine = InteractiveEngine()
        latencies = engine.config.latencies
        assert engine.stage_cycles < latencies.compare
        assert engine.stage_cycles == max(latencies.reduce_value, latencies.forward)


class _SplitPlacement:
    """Wraps a placement so every vector arrives as two row-aligned pieces,
    with the *first-listed* piece finishing last (large issue delay)."""

    pieces_per_vector = 2

    def __init__(self, inner, late_by_dram_cycles):
        self._inner = inner
        self._late = late_by_dram_cycles
        self.vector_bytes = inner.vector_bytes

    def home_rank(self, vector_id):
        return self._inner.home_rank(vector_id)

    def locate(self, vector_ids):
        return self._inner.locate(vector_ids)

    def reads_for(self, vector_ids, issue_cycle=0):
        return self.reads_at(vector_ids, self.locate(np.array(vector_ids, np.int64)),
                             issue_cycle)

    def reads_at(self, vector_ids, located, issue_cycle=0):
        whole = self._inner.reads_at(vector_ids, located, issue_cycle)
        reads = ReadColumns()
        for rank, bank, row, column, size, issue, tag in zip(
            whole.rank, whole.bank, whole.row, whole.column, whole.bytes,
            whole.issue, whole.tag,
        ):
            half = size // 2
            reads.append(rank, bank, row, column, half, issue + self._late, tag)
            reads.append(rank, bank, row, column + half, size - half, issue, tag)
        return reads


class TestMultiRequestPlacement:
    """Regression: ``finish[index]`` kept only the *last* completion, so a
    vector split across several reads could be consumed before its
    slowest piece had landed."""

    def test_latency_covers_slowest_piece(self):
        from repro.clocks import convert_cycles

        delay_dram_cycles = 50_000
        engine = InteractiveEngine()
        engine.placement = _SplitPlacement(engine.placement, delay_dram_cycles)
        source = make_source(seed=8)
        result = engine.lookup_one([7], source)
        floor = convert_cycles(
            delay_dram_cycles, engine.config.dram_clock, engine.config.pe_clock
        )
        assert result.latency_pe_cycles >= floor
        assert np.allclose(result.vector, source(7))
        assert result.memory.reads == 2

    def test_multi_piece_matches_single_piece_vector(self):
        source = make_source(seed=9)
        query = [3, 77, 515, 1030]
        single = InteractiveEngine().lookup_one(query, source)
        split_engine = InteractiveEngine()
        split_engine.placement = _SplitPlacement(split_engine.placement, 1_000)
        split = split_engine.lookup_one(query, source)
        assert np.allclose(single.vector, split.vector)
        assert split.latency_pe_cycles >= single.latency_pe_cycles
