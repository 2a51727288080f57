"""Fault-tolerant sharded serving: crash/hang detection and re-dispatch."""

from concurrent.futures import ProcessPoolExecutor

import numpy as np
import pytest

from repro.core import FafnirConfig, ShardedRunner, shard_batches
from repro.faults import FaultPlan, FaultPolicy, ShardFailedError, recovery_report
from repro.obs import InMemorySink, Tracer
from repro.obs.events import (
    BATCH_START,
    FAULT_DETECTED,
    FAULT_INJECTED,
    SHARD_REDISPATCHED,
    TraceEvent,
)
from repro.resilience import HedgePolicy

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


def traced_runner(**kwargs):
    """A runner tracing into a fresh in-memory sink: (runner, sink)."""
    sink = InMemorySink()
    return make_runner(tracer=Tracer([sink]), **kwargs), sink


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
    runner, _ = traced_runner(max_workers=4)
    return runner.run(shards, vector_source)


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
        runner, sink = traced_runner(
            max_workers=4,
            faults=plan,
            fault_policy=FaultPolicy.graceful(shard_timeout_s=60.0),
        )
        results = runner.run(shards, vector_source)
        assert_same_vectors(clean, results)
        report = recovery_report(sink.events)
        assert report.injected.get("worker_crash") == 1
        assert report.redispatches >= 1
        assert report.recovered == report.total_detected

    def test_serial_crash_recovery_records_same_lifecycle(self, shards, clean):
        plan = FaultPlan(seed=0, crash_shards=frozenset({0}), crash_attempts=1)
        runner, sink = traced_runner(
            max_workers=1,
            faults=plan,
            fault_policy=FaultPolicy.graceful(),
        )
        results = runner.run(shards, vector_source)
        assert_same_vectors(clean, results)
        report = recovery_report(sink.events)
        assert report.injected.get("worker_crash") == 1
        assert report.detected.get("worker_crash") == 1
        assert report.redispatches == 1
        # Shard 0's lifecycle precedes its stream, which opens the run's.
        assert [event.kind for event in sink.events[:4]] == [
            FAULT_INJECTED, FAULT_DETECTED, SHARD_REDISPATCHED, BATCH_START
        ]

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
        runner, sink = traced_runner(
            max_workers=4,
            faults=plan,
            fault_policy=FaultPolicy.graceful(shard_timeout_s=0.5),
        )
        results = runner.run(shards, vector_source)
        assert_same_vectors(clean, results)
        report = recovery_report(sink.events)
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
        runner, _ = traced_runner(max_workers=1, faults=plan,
                                  fault_policy=FaultPolicy.graceful())
        results = runner.run(shards, vector_source)  # returns promptly
        assert_same_vectors(clean, results)


class TestFaultPlanShipsToWorkers:
    def test_leaf_faults_fire_inside_worker_processes(self, shards, clean):
        """A corruption plan must produce fault events from inside the
        worker replicas — the plan travels with the engine config."""
        plan = FaultPlan(seed=3, vector_corruption_probability=0.3)
        runner, sink = traced_runner(
            max_workers=4,
            faults=plan,
            fault_policy=FaultPolicy.graceful(shard_timeout_s=60.0),
        )
        results = runner.run(shards, vector_source)
        assert_same_vectors(clean, results)
        report = recovery_report(sink.events)
        assert report.injected.get("vector_corruption", 0) >= 1
        assert report.recovered == report.total_detected


def _pool_lost_after_first_round(monkeypatch):
    """Processes spawn for the first pool only; later pools raise OSError."""
    calls = []

    def pool(*args, **kwargs):
        calls.append(None)
        if len(calls) > 1:
            raise OSError("process spawning unavailable")
        return ProcessPoolExecutor(*args, **kwargs)

    monkeypatch.setattr("repro.core.sharding.ProcessPoolExecutor", pool)


class TestOneRetryRule:
    """A shard crash ends the same way whichever path the shard ran on:
    a pool that stays up, a pool lost after its first round (the rest runs
    in-process from each shard's recorded attempt), or one worker."""

    @pytest.mark.parametrize("graceful", [False, True], ids=["fail_fast", "graceful"])
    @pytest.mark.parametrize("budget", [0, 1, 2])
    @pytest.mark.parametrize("crash_attempts", [1, 2, 10])
    def test_crash_outcome_is_path_independent(
        self, shards, clean, monkeypatch, crash_attempts, budget, graceful
    ):
        policy = (
            FaultPolicy.graceful(max_shard_retries=budget)
            if graceful
            else FaultPolicy(max_shard_retries=budget)
        )
        plan = FaultPlan(
            seed=0, crash_shards=frozenset({0}), crash_attempts=crash_attempts
        )
        outcomes = {}
        for path in ("pool", "pool lost", "one worker"):
            if path == "pool lost":
                _pool_lost_after_first_round(monkeypatch)
            runner, sink = traced_runner(
                max_workers=1 if path == "one worker" else 2,
                faults=plan,
                fault_policy=policy,
            )
            try:
                outcomes[path] = runner.run(shards, vector_source)
            except ShardFailedError:
                outcomes[path] = None
            monkeypatch.undo()
            detected = [
                (event.args["shard"], event.args["attempt"])
                for event in sink.events
                if event.kind == FAULT_DETECTED and "attempt" in event.args
            ]
            assert len(detected) == len(set(detected)), (path, detected)
            assert (0, 0) in detected, path

        # Degrade grants one last in-process attempt past the budget.
        recovers = crash_attempts <= budget + graceful
        for path, results in outcomes.items():
            assert (results is not None) == recovers, path
            if results is not None:
                assert_same_vectors(clean, results)


class TestUntracedRunBuildsNoEvents:
    def test_untraced_reduced_run_builds_no_trace_event(self, monkeypatch):
        """Without a tracer no part of a sharded run — shard lifecycle,
        link faults, stragglers, hedges, dead shards, schedule steps —
        constructs a single event."""
        built = []
        post_init = TraceEvent.__post_init__

        def counting(event):
            built.append(event.kind)
            post_init(event)

        monkeypatch.setattr(TraceEvent, "__post_init__", counting)
        plan = FaultPlan(
            seed=0,
            link_loss_probability=0.5,
            straggler_multipliers={1: 4.0},
            dead_shards=frozenset({3}),
            crash_shards=frozenset({0}),
            crash_attempts=1,
        )

        def run(**kwargs):
            return make_runner(
                max_workers=1,
                reduction="gather",
                num_shards=4,
                faults=plan,
                fault_policy=FaultPolicy.graceful(),
                hedge=HedgePolicy(),
                **kwargs,
            ).run_reduced(BATCHES, vector_source)

        untraced = run()
        assert built == []
        assert untraced.hedges.issued == 1
        assert untraced.absent_pieces == [3]

        sink = InMemorySink()
        traced = run(tracer=Tracer([sink]))
        kinds = set(built)
        assert {"msg_dropped", "hedge_issued", "shard_redispatched"} <= kinds
        assert len(built) == len(sink.events)
        assert [v.tobytes() for v in traced.vectors] == [
            v.tobytes() for v in untraced.vectors
        ]
