"""Fault-tolerant sharded serving: crash/hang detection and re-dispatch."""

import numpy as np
import pytest

from repro.core import FafnirConfig, ShardedRunner, shard_batches
from repro.faults import FaultPlan, FaultPolicy, ShardFailedError, recovery_report

RANKS = 8
ELEMENTS = 16

BATCHES = [
    [[1, 2, 3], [4, 5]],
    [[6, 7], [8, 9, 10]],
    [[11, 12], [13]],
    [[14, 15], [16, 17]],
]


def make_config():
    return FafnirConfig(
        batch_size=8,
        max_query_len=6,
        vector_bytes=ELEMENTS * 4,
        total_ranks=RANKS,
        ranks_per_leaf_pe=2,
        num_tables=RANKS,
    )


def make_runner(**kwargs):
    return ShardedRunner(config=make_config(), **kwargs)


def vector_source(index):
    """Module-level (picklable) deterministic vector store."""
    return np.random.default_rng(70_000 + index).normal(size=ELEMENTS)


def all_events(results):
    return [event for result in results for event in (result.events or [])]


def assert_same_vectors(expected, actual):
    assert len(expected) == len(actual)
    for a, b in zip(expected, actual):
        assert len(a.vectors) == len(b.vectors)
        for va, vb in zip(a.vectors, b.vectors):
            assert va.tobytes() == vb.tobytes()


@pytest.fixture(scope="module")
def shards():
    return shard_batches(BATCHES, 4)


@pytest.fixture(scope="module")
def clean(shards):
    return make_runner(trace=True, max_workers=4).run(shards, vector_source)


class TestEmptyStream:
    def test_shard_batches_of_nothing_is_empty(self):
        assert shard_batches([], 4) == []

    def test_run_of_no_shards_is_empty(self):
        assert make_runner().run([], vector_source) == []


class TestCrashRecovery:
    def test_pool_crash_is_redispatched_with_identical_results(
        self, shards, clean
    ):
        plan = FaultPlan(seed=0, crash_shards=frozenset({0}), crash_attempts=1)
        runner = make_runner(
            trace=True,
            max_workers=4,
            faults=plan,
            fault_policy=FaultPolicy.graceful(shard_timeout_s=60.0),
        )
        results = runner.run(shards, vector_source)
        assert_same_vectors(clean, results)
        report = recovery_report(all_events(results))
        assert report.injected.get("worker_crash") == 1
        assert report.redispatches >= 1
        assert report.recovered == report.total_detected

    def test_serial_crash_recovery_records_same_lifecycle(self, shards, clean):
        plan = FaultPlan(seed=0, crash_shards=frozenset({0}), crash_attempts=1)
        runner = make_runner(
            trace=True,
            max_workers=1,
            faults=plan,
            fault_policy=FaultPolicy.graceful(),
        )
        results = runner.run(shards, vector_source)
        assert_same_vectors(clean, results)
        report = recovery_report(all_events(results))
        assert report.injected.get("worker_crash") == 1
        assert report.detected.get("worker_crash") == 1
        assert report.redispatches == 1

    def test_persistent_crash_exhausts_budget_under_fail_fast(self, shards):
        plan = FaultPlan(seed=0, crash_shards=frozenset({0}), crash_attempts=10)
        runner = make_runner(
            max_workers=4,
            faults=plan,
            fault_policy=FaultPolicy(max_shard_retries=1),
        )
        with pytest.raises(ShardFailedError, match="re-dispatch budget"):
            runner.run(shards, vector_source)

    def test_dead_shard_under_fail_fast_raises(self):
        runner = make_runner(max_workers=1, reduction="gather", num_shards=4)
        dead = runner.run_reduced(BATCHES, vector_source).active_pieces[0]
        plan = FaultPlan(seed=0, dead_shards=frozenset({dead}))
        failing = make_runner(
            max_workers=1,
            reduction="gather",
            num_shards=4,
            faults=plan,
            fault_policy=FaultPolicy(),
        )
        with pytest.raises(ShardFailedError, match="dead shard"):
            failing.run_reduced(BATCHES, vector_source)

    def test_persistent_serial_crash_raises_too(self, shards):
        plan = FaultPlan(seed=0, crash_shards=frozenset({0}), crash_attempts=10)
        runner = make_runner(
            max_workers=1,
            faults=plan,
            fault_policy=FaultPolicy(max_shard_retries=1),
        )
        with pytest.raises(ShardFailedError, match="re-dispatch budget"):
            runner.run(shards, vector_source)


class TestHangRecovery:
    def test_watchdog_catches_hung_worker(self, shards, clean):
        plan = FaultPlan(
            seed=0,
            hang_shards=frozenset({1}),
            crash_attempts=1,
            hang_seconds=3.0,
        )
        runner = make_runner(
            trace=True,
            max_workers=4,
            faults=plan,
            fault_policy=FaultPolicy.graceful(shard_timeout_s=0.5),
        )
        results = runner.run(shards, vector_source)
        assert_same_vectors(clean, results)
        report = recovery_report(all_events(results))
        assert report.detected.get("worker_hang", 0) >= 1
        assert report.redispatches >= 1

    def test_hangs_are_skipped_in_process(self, shards, clean):
        """The serial path has no watchdog and no second process — hangs
        must not fire there (the run would just sleep pointlessly)."""
        plan = FaultPlan(
            seed=0,
            hang_shards=frozenset({1}),
            crash_attempts=1,
            hang_seconds=30.0,
        )
        runner = make_runner(trace=True, max_workers=1, faults=plan,
                             fault_policy=FaultPolicy.graceful())
        results = runner.run(shards, vector_source)  # returns promptly
        assert_same_vectors(clean, results)


class TestFaultPlanShipsToWorkers:
    def test_leaf_faults_fire_inside_worker_processes(self, shards, clean):
        """A corruption plan must produce fault events from inside the
        worker replicas — the plan travels with the engine config."""
        plan = FaultPlan(seed=3, vector_corruption_probability=0.3)
        runner = make_runner(
            trace=True,
            max_workers=4,
            faults=plan,
            fault_policy=FaultPolicy.graceful(shard_timeout_s=60.0),
        )
        results = runner.run(shards, vector_source)
        assert_same_vectors(clean, results)
        report = recovery_report(all_events(results))
        assert report.injected.get("vector_corruption", 0) >= 1
        assert report.recovered == report.total_detected
