"""Integration tests: overload control in serving.

Deadline-aware load shedding (``overload=``), exercised end to end
against the byte-identity contract: with protection installed but idle,
the serving path must produce exactly the bytes of an unprotected run.
"""

import pytest

from repro.faults import STATUS_SHED
from repro.obs import metrics_from_events
from repro.resilience import OverloadPolicy
from repro.serving import (
    ContinuousBatcher,
    OpenLoopGenerator,
    RampStage,
    Request,
    ServingSimulator,
)
from repro.workloads import EmbeddingTableSet, QueryGenerator

SLO_US = 25.0


@pytest.fixture(scope="module")
def tables():
    return EmbeddingTableSet.random(seed=0)


def open_load(tables, qps, n_requests=120, slo_us=SLO_US, seed=2):
    duration_us = n_requests / qps * 1e6
    return OpenLoopGenerator(
        QueryGenerator.paper_calibrated(tables, seed=seed, query_len=16),
        [RampStage(qps=qps, duration_us=duration_us)],
        slo_us=slo_us,
        seed=seed,
    )


def make_simulator(**kwargs):
    return ServingSimulator(
        batcher=ContinuousBatcher(batch_size=16, window=64), **kwargs
    )


def _burst(tables, protect):
    # Probe capacity with an instantaneous burst, then offer 2× capacity
    # for long enough that the backlog outgrows the SLO budget.
    probe = make_simulator().run(
        open_load(tables, qps=1e9, n_requests=120), tables.vector
    )
    capacity = probe.observed_qps
    n = max(120, int(capacity * SLO_US * 3 / 1e6))
    simulator = make_simulator(overload=OverloadPolicy() if protect else None)
    return simulator.run(
        open_load(tables, qps=2 * capacity, n_requests=n), tables.vector
    )


class _OneRequest:
    """A load source offering exactly one request."""

    def __init__(self, request):
        self.request = request

    def initial(self):
        return [self.request]

    def on_complete(self, request, complete_us):
        return None


class TestLoadShedding:
    def test_shedding_keeps_the_admitted_stream_on_slo(self, tables):
        burst = _burst(tables, protect=False)
        shed = _burst(tables, protect=True)
        assert shed.shed_fraction > 0.0
        admitted = [r for r in shed.records if r.status != STATUS_SHED]
        admitted_ok = sum(1 for r in admitted if r.slo_met) / len(admitted)
        assert admitted_ok >= burst.slo_attainment
        assert shed.latency_percentile_us(99) <= burst.latency_percentile_us(99)

    def test_shed_requests_count_as_slo_misses(self, tables):
        shed = _burst(tables, protect=True)
        for record in shed.records:
            if record.status == STATUS_SHED:
                assert not record.slo_met
                # Shed immediately at arrival, never dispatched.
                assert record.complete_us == record.request.arrival_us
                assert record.batch_index == -1

    def test_shed_latencies_excluded_from_percentiles(self, tables):
        shed = _burst(tables, protect=True)
        served = [r.latency_us for r in shed.records if r.status != STATUS_SHED]
        assert shed.latency_percentile_us(100) == max(served)
        # Sheds report zero latency; the floor percentile must still be a
        # served request's latency, not a shed's zero.
        assert shed.latency_percentile_us(0.1) >= min(served) > 0.0

    def test_shed_events_and_metrics_agree(self, tables):
        shed = _burst(tables, protect=True)
        shed_events = [e for e in shed.events if e.kind == "request_shed"]
        assert len(shed_events) == shed.shed_requests > 0
        for event in shed_events:
            assert event.args["estimated_us"] > 0
        counters = shed.metrics.counters()
        assert counters["serving.requests.shed"] == shed.shed_requests
        derived = metrics_from_events(shed.events).counters()
        assert derived["events.request_shed"] == shed.shed_requests
        assert derived["serving.shed"] == shed.shed_requests
        statuses = [record.status for record in shed.records]
        assert statuses.count(STATUS_SHED) == shed.shed_requests

    def test_shed_event_is_stamped_in_pe_cycles(self, tables):
        """A shed at 2.9 µs is PE cycle 580 at 200 MHz — converted through
        the PE clock, not the µs value truncated to 2."""
        request = Request(
            request_id=0, indices=(1, 2), arrival_us=2.9, deadline_us=2.9
        )
        simulator = make_simulator(
            overload=OverloadPolicy(initial_service_us=1.0)
        )
        report = simulator.run(_OneRequest(request), tables.vector)
        assert simulator.config.pe_clock.freq_mhz == 200
        (event,) = [e for e in report.events if e.kind == "request_shed"]
        assert event.clock == "pe"
        assert event.cycle == 580

    def test_underload_sheds_nothing_and_stays_byte_identical(self, tables):
        plain = make_simulator().run(open_load(tables, qps=2e6), tables.vector)
        guarded = make_simulator(overload=OverloadPolicy()).run(
            open_load(tables, qps=2e6), tables.vector
        )
        assert guarded.shed_requests == 0
        assert guarded.slo_attainment == 1.0
        assert set(plain.vectors) == set(guarded.vectors)
        for request_id, vector in plain.vectors.items():
            assert guarded.vectors[request_id].tobytes() == vector.tobytes()

