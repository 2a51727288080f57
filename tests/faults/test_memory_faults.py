"""Memory-side fault injection: degraded ranks, read timeouts, backoff."""

from dataclasses import dataclass

import pytest

from repro.faults import FaultPlan, FaultPolicy, RankTimeoutError
from repro.memory import MemoryConfig, MemorySystem, ReadColumns
from repro.obs import InMemorySink, Tracer
from repro.obs.events import (
    CLOCK_DRAM,
    FAULT_DETECTED,
    FAULT_INJECTED,
    RETRY_ISSUED,
)

RANKS = 8


def make_requests(count=4, rank=0):
    reads = ReadColumns()
    for i in range(count):
        reads.append(rank, i % 4, i, 0, 64)
    return reads


def join(*batches):
    reads = ReadColumns()
    for batch in batches:
        reads.extend(batch)
    return reads


def make_system(**kwargs):
    return MemorySystem(MemoryConfig().scaled_to_ranks(RANKS), **kwargs)


@dataclass
class OneRetryPlan(FaultPlan):
    """Times out every rank-0 read exactly once (attempt 0 only).

    The probability entry keeps ``touches_memory`` true; the override makes
    the decision exact instead of sampled.
    """

    def __post_init__(self):
        self.rank_timeout_probability = {0: 1.0}
        super().__post_init__()

    def read_times_out(self, rank, position, attempt):
        return rank == 0 and attempt == 0


def always_timeout_plan():
    """Probability 1 is itself deterministic: every rank-0 read times out
    on every attempt, so the retry budget always exhausts."""
    return FaultPlan(seed=0, rank_timeout_probability={0: 1.0})


class TestNoPlanByteIdentity:
    def test_completions_identical_without_plan(self):
        requests = make_requests()
        clean, _ = make_system().execute(requests)
        gated, _ = make_system(faults=None).execute(requests)
        assert clean == gated

    def test_non_memory_plan_leaves_completions_untouched(self):
        """A plan with only leaf/shard faults must not perturb the memory
        path (``touches_memory`` gates the per-completion loop)."""
        requests = make_requests()
        clean, _ = make_system().execute(requests)
        plan = FaultPlan(seed=0, vector_corruption_probability=1.0,
                         crash_shards=frozenset({0}))
        faulty, _ = make_system(faults=plan).execute(requests)
        assert clean == faulty


class TestRankDegradation:
    def test_multiplier_stretches_service_time(self):
        requests = make_requests()
        clean, _ = make_system().execute(requests)
        plan = FaultPlan(seed=0, rank_latency_multipliers={0: 3.0})
        slow, _ = make_system(faults=plan).execute(requests)
        for start, finish, degraded in zip(clean.start, clean.finish, slow.finish):
            assert degraded == start + round((finish - start) * 3.0)
        assert slow.start == clean.start

    def test_other_ranks_untouched(self):
        requests = make_requests(rank=1)
        clean, _ = make_system().execute(requests)
        plan = FaultPlan(seed=0, rank_latency_multipliers={0: 3.0})
        faulty, _ = make_system(faults=plan).execute(requests)
        assert clean == faulty

    def test_degradation_emits_fault_injected(self):
        sink = InMemorySink()
        plan = FaultPlan(seed=0, rank_latency_multipliers={0: 2.0})
        make_system(faults=plan, tracer=Tracer([sink])).execute(make_requests(2))
        injected = [e for e in sink.events if e.kind == FAULT_INJECTED]
        assert len(injected) == 2
        assert all(e.clock == CLOCK_DRAM for e in injected)
        assert all(e.args["fault"] == "rank_degraded" for e in injected)


class TestReadTimeouts:
    def test_one_timeout_recovers_with_backoff_accounting(self):
        requests = make_requests(1)
        clean, _ = make_system().execute(requests)
        policy = FaultPolicy(read_timeout_cycles=100, read_retry_backoff_cycles=10)
        sink = InMemorySink()
        system = make_system(
            faults=OneRetryPlan(seed=0), fault_policy=policy, tracer=Tracer([sink])
        )
        recovered, _ = system.execute(requests)
        # One timeout: the watchdog fires 100 cycles past the nominal finish
        # and the retry waits 10 more before re-issuing.
        assert recovered.finish[0] == clean.finish[0] + 110
        assert not system.failed_positions
        retries = [e for e in sink.events if e.kind == RETRY_ISSUED]
        assert len(retries) == 1
        assert retries[0].args["backoff_cycles"] == 10

    def test_backoff_is_exponential(self):
        @dataclass
        class TwoRetryPlan(FaultPlan):
            def __post_init__(self):
                self.rank_timeout_probability = {0: 1.0}
                super().__post_init__()

            def read_times_out(self, rank, position, attempt):
                return rank == 0 and attempt < 2

        requests = make_requests(1)
        clean, _ = make_system().execute(requests)
        policy = FaultPolicy(read_timeout_cycles=100, read_retry_backoff_cycles=10)
        system = make_system(faults=TwoRetryPlan(seed=0), fault_policy=policy)
        recovered, _ = system.execute(requests)
        # (100 + 10) + (100 + 20): two deadlines, backoff doubling per attempt.
        assert recovered.finish[0] == clean.finish[0] + 230

    def test_exhaustion_raises_under_fail_fast(self):
        policy = FaultPolicy(max_read_retries=1)
        system = make_system(faults=always_timeout_plan(), fault_policy=policy)
        with pytest.raises(RankTimeoutError, match="retry budget"):
            system.execute(make_requests(1))

    def test_exhaustion_degrades_into_failed_positions(self):
        policy = FaultPolicy.graceful(max_read_retries=1)
        system = make_system(faults=always_timeout_plan(), fault_policy=policy)
        requests = join(make_requests(2), make_requests(2, rank=1))
        served, _ = system.execute(requests)
        assert system.failed_positions == {0, 1}
        assert len(served.finish) == 4

    def test_failed_positions_reset_per_execute(self):
        policy = FaultPolicy.graceful(max_read_retries=0)
        system = make_system(faults=always_timeout_plan(), fault_policy=policy)
        system.execute(make_requests(1))
        assert system.failed_positions == {0}
        system.execute(make_requests(1, rank=1))
        assert system.failed_positions == set()

    def test_fatal_detection_is_marked(self):
        sink = InMemorySink()
        policy = FaultPolicy.graceful(max_read_retries=0)
        system = make_system(
            faults=always_timeout_plan(),
            fault_policy=policy,
            tracer=Tracer([sink]),
        )
        system.execute(make_requests(1))
        detections = [e for e in sink.events if e.kind == FAULT_DETECTED]
        assert len(detections) == 1
        assert detections[0].args["fatal"] is True
