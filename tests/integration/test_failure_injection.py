"""Failure-injection tests: the system fails loudly, not wrongly."""

import numpy as np
import pytest

from repro.core import FafnirConfig, FafnirEngine, SUM
from repro.faults import (
    FaultError,
    FaultPlan,
    FaultPolicy,
    STATUS_DEGRADED,
    STATUS_FAILED,
    STATUS_OK,
    STATUSES,
)
from repro.memory import MemoryConfig
from tests.pe_oracle import Header, Message, ProcessingElement


def good_source(index):
    rng = np.random.default_rng(1000 + index)
    return rng.normal(size=128)


class TestSourceFailures:
    def test_raising_source_propagates(self):
        engine = FafnirEngine()

        def broken(index):
            raise KeyError(f"vector {index} missing from storage")

        with pytest.raises(KeyError, match="missing from storage"):
            engine.run_batch([[1, 2]], broken)

    def test_wrong_dtype_is_coerced_not_corrupted(self):
        engine = FafnirEngine()
        result = engine.run_batch([[1, 2]], lambda i: np.full(128, i, dtype=np.int32))
        assert result.vectors[0].dtype == np.float64
        assert np.allclose(result.vectors[0], 3.0)

    def test_nan_values_propagate_visibly(self):
        """A poisoned vector poisons exactly the queries using it."""
        engine = FafnirEngine()

        def poisoned(index):
            if index == 2:
                return np.full(128, np.nan)
            return good_source(index)

        result = engine.run_batch([[1, 2], [3, 4]], poisoned)
        assert np.isnan(result.vectors[0]).all()
        assert not np.isnan(result.vectors[1]).any()

    def test_shape_mismatch_rejected_before_tree(self):
        engine = FafnirEngine()
        with pytest.raises(ValueError, match="expected"):
            engine.run_batch([[1]], lambda i: np.zeros((2, 64)))


class TestHeaderTampering:
    def test_overlapping_entry_rejected_at_construction(self):
        with pytest.raises(ValueError, match="overlaps"):
            Header.make({1, 2}, [{2, 3}])

    def test_reduce_with_non_matching_partner_rejected(self):
        header = Header.make({1}, [{2, 3}])
        with pytest.raises(ValueError, match="not contained"):
            header.reduced_with(frozenset({9}), frozenset({2, 3}))

    def test_merge_unit_catches_value_divergence(self):
        """check_values turns a silently-wrong merge into a loud failure."""
        config = FafnirConfig(batch_size=8, total_ranks=8, ranks_per_leaf_pe=2)
        pe = ProcessingElement(config, SUM, check_values=True)
        clean = Message(Header.make({1}, [{2}]), np.ones(4))
        tampered = Message(Header.make({1}, [{2, 3}]), np.full(4, 99.0))
        partner = Message(Header.make({2}, [{1}, {1, 3}]), np.ones(4))
        with pytest.raises(AssertionError, match="merge-unit invariant"):
            pe.process([clean, tampered], [partner])


class TestSeededChaos:
    """Property test over seeded chaos runs: every query accounted, every
    surviving result correct against a CPU oracle, fail_fast unchanged."""

    RANKS = 8
    ELEMENTS = 16

    def make_engine(self, **kwargs):
        return FafnirEngine(
            config=FafnirConfig(
                batch_size=16,
                max_query_len=8,
                vector_bytes=self.ELEMENTS * 4,
                total_ranks=self.RANKS,
                ranks_per_leaf_pe=2,
                num_tables=self.RANKS,
            ),
            memory_config=MemoryConfig().scaled_to_ranks(self.RANKS),
            **kwargs,
        )

    def source(self, index):
        return np.random.default_rng(50_000 + index).normal(size=self.ELEMENTS)

    def chaos_plan(self, seed):
        return FaultPlan(
            seed=seed,
            rank_latency_multipliers={0: 4.0},
            rank_timeout_probability={1: 0.3},
            vector_corruption_probability=0.1,
            source_failure_probability=0.1,
        )

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_every_query_accounted_and_correct(self, seed):
        rng = np.random.default_rng(1_000 + seed)
        queries = [
            rng.choice(64, size=int(rng.integers(2, 8)), replace=False).tolist()
            for _ in range(int(rng.integers(4, 13)))
        ]
        engine = self.make_engine(
            faults=self.chaos_plan(seed),
            fault_policy=FaultPolicy.graceful(max_read_retries=1),
        )
        result = engine.run_batch(queries, self.source)

        assert len(result.vectors) == len(queries)
        statuses = result.query_statuses
        assert all(status in STATUSES for status in statuses)
        dropped = result.dropped_indices
        for query, vector, status in zip(queries, result.vectors, statuses):
            survivors = [i for i in sorted(set(query)) if i not in dropped]
            if status == STATUS_FAILED:
                assert not survivors
                assert np.isnan(vector).all(), "failed queries are NaN poison"
            else:
                if status == STATUS_OK:
                    assert len(survivors) == len(set(query))
                else:
                    assert status == STATUS_DEGRADED
                    assert 0 < len(survivors) < len(set(query))
                oracle = sum(self.source(i) for i in survivors)
                assert np.allclose(vector, oracle), (
                    "degraded results must match the CPU oracle on exactly "
                    "the surviving indices"
                )

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_chaos_run_is_reproducible(self, seed):
        queries = [[1, 2, 3], [4, 5, 6], [7, 8], [9, 10, 11]]
        runs = []
        for _ in range(2):
            engine = self.make_engine(
                faults=self.chaos_plan(seed),
                fault_policy=FaultPolicy.graceful(max_read_retries=1),
            )
            runs.append(engine.run_batch(queries, self.source))
        assert runs[0].query_statuses == runs[1].query_statuses
        assert runs[0].dropped_indices == runs[1].dropped_indices
        for a, b in zip(runs[0].vectors, runs[1].vectors):
            assert a.tobytes() == b.tobytes()

    def test_fail_fast_reproduces_todays_exceptions(self):
        """Under the default policy an unrecoverable fault raises a typed
        error, exactly like the pre-fault-subsystem failure modes above."""
        plan = FaultPlan(seed=0, source_failure_probability=1.0)
        engine = self.make_engine(faults=plan)
        with pytest.raises(FaultError):
            engine.run_batch([[1, 2]], self.source)

    def test_no_plan_is_not_a_chaos_run(self):
        """Without a FaultPlan the engine never invents fault machinery:
        a raising source propagates untouched (no retries, no statuses)."""
        engine = self.make_engine()
        calls = []

        def flaky(index):
            calls.append(index)
            raise KeyError(index)

        with pytest.raises(KeyError):
            engine.run_batch([[1, 2]], flaky)
        assert len(calls) == 1, "no retry loop without a plan"


class TestConfigurationGuards:
    def test_engine_rejects_query_longer_than_hardware(self):
        engine = FafnirEngine(FafnirConfig(max_query_len=4))
        with pytest.raises(ValueError, match="exceeding"):
            engine.run_batch([[1, 2, 3, 4, 5]], good_source)

    def test_engine_rejects_batch_larger_than_hardware(self):
        engine = FafnirEngine(FafnirConfig(batch_size=2))
        with pytest.raises(ValueError, match="exceeds configured batch size"):
            engine.run_batch([[1], [2], [3]], good_source)

    def test_operator_name_typo_is_loud(self):
        from repro.core import get_operator

        with pytest.raises(KeyError, match="available"):
            get_operator("summ")
