"""End-to-end tests for the serving simulator."""

import numpy as np
import pytest

from repro.core import FafnirConfig, FafnirEngine, InteractiveEngine
from repro.serving import (
    ClosedLoopGenerator,
    ContinuousBatcher,
    OpenLoopGenerator,
    RampStage,
    ServingSimulator,
)
from repro.workloads import EmbeddingTableSet, QueryGenerator


@pytest.fixture(scope="module")
def tables():
    return EmbeddingTableSet.random(seed=0)


def open_load(tables, qps, n_requests=120, slo_us=25.0, seed=2):
    duration_us = n_requests / qps * 1e6
    return OpenLoopGenerator(
        QueryGenerator.paper_calibrated(tables, seed=seed, query_len=16),
        [RampStage(qps=qps, duration_us=duration_us)],
        slo_us=slo_us,
        seed=seed,
    )


def make_simulator(batch_size=16, window=64, margin=3.0, **kwargs):
    return ServingSimulator(
        batcher=ContinuousBatcher(
            batch_size=batch_size, window=window, dispatch_margin_us=margin
        ),
        **kwargs,
    )


class TestServingSimulator:
    def test_every_request_served_exactly_once(self, tables):
        load = open_load(tables, qps=2e6)
        report = make_simulator().run(load, tables.vector)
        served = sorted(record.request.request_id for record in report.records)
        assert served == sorted(set(served))
        assert len(report.vectors) == len(report.records)
        assert sum(len(m) for m in report.members) == len(report.records)

    def test_timeline_invariants(self, tables):
        load = open_load(tables, qps=2e6)
        report = make_simulator().run(load, tables.vector)
        assert report.records
        for record in report.records:
            assert record.request.arrival_us <= record.dispatch_us
            assert record.dispatch_us < record.complete_us
            assert 1 <= record.batch_size <= 16

    def test_byte_identical_to_offline_engine(self, tables):
        """Acceptance: for identical formed batches, online results match
        the offline path byte for byte — batched dispatches the
        FafnirEngine, singleton dispatches the InteractiveEngine."""
        load = OpenLoopGenerator(
            QueryGenerator.paper_calibrated(tables, seed=2, query_len=16),
            [
                RampStage(qps=2e4, duration_us=1_000.0),
                RampStage(qps=4e6, duration_us=30.0),
            ],
            slo_us=25.0,
            seed=2,
        )
        report = make_simulator().run(load, tables.vector)
        config = FafnirConfig()
        offline = FafnirEngine(config=config)
        interactive = InteractiveEngine(config)
        records = {record.request.request_id: record for record in report.records}
        kinds = set()
        for index, (queries, member_ids) in enumerate(
            zip(report.batches, report.members)
        ):
            used_interactive = records[member_ids[0]].interactive
            kinds.add(used_interactive)
            if used_interactive:
                (query,) = queries
                expected = [interactive.lookup_one(query, tables.vector).vector]
            else:
                expected = offline.run_batch(queries, tables.vector).vectors
            for slot, request_id in enumerate(member_ids):
                assert records[request_id].batch_index == index
                online = report.vectors[request_id]
                assert online.tobytes() == expected[slot].tobytes()
        assert kinds == {True, False}

    def test_slo_attainment_degrades_past_saturation(self, tables):
        """Capacity is ~batch_size / service_time; far past it queueing
        delay must show up as missed SLOs."""
        healthy = make_simulator().run(
            open_load(tables, qps=2e6, slo_us=25.0), tables.vector
        )
        swamped = make_simulator().run(
            open_load(tables, qps=40e6, n_requests=400, slo_us=25.0), tables.vector
        )
        assert healthy.slo_attainment == 1.0
        assert swamped.slo_attainment < healthy.slo_attainment
        assert swamped.latency_percentile_us(99) > healthy.latency_percentile_us(99)

    def test_low_load_uses_interactive_fallback(self, tables):
        report = make_simulator().run(
            open_load(tables, qps=2e4, n_requests=40), tables.vector
        )
        assert report.interactive_dispatches > 0
        assert report.metrics.counters()["serving.dispatch.interactive"] > 0
        # Results still correct: each singleton equals the CPU oracle.
        for record in report.records:
            if record.interactive:
                want = np.sum(
                    [tables.vector(i) for i in set(record.request.indices)], axis=0
                )
                got = report.vectors[record.request.request_id]
                assert np.allclose(got, want)

    def test_dedup_savings_reported(self, tables):
        report = make_simulator().run(open_load(tables, qps=4e6), tables.vector)
        assert report.total_lookups > report.unique_reads > 0
        assert 0.0 < report.dedup_savings_fraction < 1.0

    def test_metrics_threaded_through_obs(self, tables):
        load = open_load(tables, qps=2e6)
        report = make_simulator().run(load, tables.vector)
        snapshot = report.metrics.snapshot()
        n = len(report.records)
        assert snapshot["counters"]["serving.requests"] == n
        assert snapshot["histograms"]["serving.latency_us"]["count"] == n
        assert snapshot["histograms"]["serving.queue_us"]["count"] == n
        assert snapshot["histograms"]["serving.batch_size"]["count"] == len(
            report.batches
        )
        assert snapshot["gauges"]["serving.queue_depth"]["high_water"] >= 1
        # Report-level percentiles agree with the registry's histogram.
        assert report.latency_percentile_us(99) == pytest.approx(
            report.metrics.histogram("serving.latency_us").percentile(99)
        )

    def test_closed_loop_serves_full_quota(self, tables):
        load = ClosedLoopGenerator(
            QueryGenerator.paper_calibrated(tables, seed=5, query_len=16),
            users=24,
            think_time_us=4.0,
            slo_us=25.0,
            requests_per_user=3,
            seed=5,
        )
        report = make_simulator().run(load, tables.vector)
        assert len(report.records) == 24 * 3
        assert report.slo_attainment > 0.0

    def test_deterministic_end_to_end(self, tables):
        first = make_simulator().run(open_load(tables, qps=2e6), tables.vector)
        second = make_simulator().run(open_load(tables, qps=2e6), tables.vector)
        assert first.summary() == second.summary()
        assert first.batches == second.batches

    def test_batch_size_must_fit_engine(self):
        with pytest.raises(ValueError):
            ServingSimulator(
                batcher=ContinuousBatcher(batch_size=64),
                config=FafnirConfig(batch_size=32),
            )

    def test_empty_load_is_empty_report(self, tables):
        class NoLoad:
            def initial(self):
                return []

            def on_complete(self, request, complete_us):
                return None

        report = make_simulator().run(NoLoad(), tables.vector)
        assert report.records == []
        assert report.slo_attainment == 1.0
        assert report.summary()["requests"] == 0.0
