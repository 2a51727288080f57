"""Engine-level fault injection: corruption, source faults, degradation."""

import numpy as np
import pytest

from repro.core import FafnirConfig, FafnirEngine
from repro.faults import (
    FaultPlan,
    FaultPolicy,
    STATUS_DEGRADED,
    STATUS_FAILED,
    STATUS_OK,
    SourceFaultError,
    VectorCorruptionError,
)
from repro.memory import MemoryConfig
from repro.obs import InMemorySink, Tracer
from repro.obs.events import (
    BATCH_COMPLETE,
    BATCH_START,
    FAULT_DETECTED,
    FAULT_INJECTED,
    QUERY_DEGRADED,
)

RANKS = 8
ELEMENTS = 16


def make_engine(**kwargs):
    return FafnirEngine(
        config=FafnirConfig(
            batch_size=8,
            max_query_len=6,
            vector_bytes=ELEMENTS * 4,
            total_ranks=RANKS,
            ranks_per_leaf_pe=2,
            num_tables=RANKS,
        ),
        memory_config=MemoryConfig().scaled_to_ranks(RANKS),
        **kwargs,
    )


def vector_source(index):
    return np.random.default_rng(90_000 + index).normal(size=ELEMENTS)


QUERIES = [[1, 2, 3], [4, 5], [1, 6, 7, 8], [9, 10]]


def oracle(query, dropped=frozenset()):
    survivors = [i for i in sorted(set(query)) if i not in dropped]
    return sum(vector_source(i) for i in survivors)


class TestCleanPathEquivalence:
    def test_zero_probability_plan_matches_fault_free_run(self):
        """An installed plan with nothing firing must reproduce the
        fault-free run bit for bit — same vectors, timing, work and
        event stream (batch start/complete args included)."""
        clean_sink, faulty_sink = InMemorySink(), InMemorySink()
        clean = make_engine(tracer=Tracer([clean_sink])).run_batch(
            QUERIES, vector_source
        )
        idle_plan = FaultPlan(seed=0)
        faulty = make_engine(
            faults=idle_plan,
            fault_policy=FaultPolicy.graceful(),
            tracer=Tracer([faulty_sink]),
        ).run_batch(QUERIES, vector_source)
        assert faulty.statuses == [STATUS_OK] * len(QUERIES)
        assert clean.statuses == [STATUS_OK] * len(QUERIES)
        assert faulty.dropped_indices == frozenset()
        for a, b in zip(clean.vectors, faulty.vectors):
            assert a.tobytes() == b.tobytes()
        assert (
            faulty.stats.latency_pe_cycles == clean.stats.latency_pe_cycles
        )
        assert faulty.stats.per_pe_work == clean.stats.per_pe_work
        assert faulty.ready_pe_cycles == clean.ready_pe_cycles
        assert [(e.kind, e.cycle, e.args) for e in faulty_sink.events] == [
            (e.kind, e.cycle, e.args) for e in clean_sink.events
        ]
        kinds = [e.kind for e in clean_sink.events]
        assert kinds[0] == BATCH_START and kinds[-1] == BATCH_COMPLETE

    def test_no_plan_statuses_default_to_ok(self):
        result = make_engine().run_batch(QUERIES, vector_source)
        assert result.statuses == [STATUS_OK] * len(QUERIES)
        assert result.query_statuses == [STATUS_OK] * len(QUERIES)


class TestCorruptionRecovery:
    def test_recovered_corruption_matches_oracle(self):
        plan = FaultPlan(seed=3, vector_corruption_probability=0.3)
        result = make_engine(
            faults=plan, fault_policy=FaultPolicy.graceful()
        ).run_batch(QUERIES, vector_source)
        assert result.query_statuses == [STATUS_OK] * len(QUERIES)
        for query, vector in zip(QUERIES, result.vectors):
            assert np.allclose(vector, oracle(query))

    def test_persistent_corruption_raises_under_fail_fast(self):
        plan = FaultPlan(seed=3, vector_corruption_probability=1.0)
        with pytest.raises(VectorCorruptionError, match="retry budget"):
            make_engine(faults=plan).run_batch(QUERIES, vector_source)

    def test_persistent_source_fault_raises_under_fail_fast(self):
        plan = FaultPlan(seed=3, source_failure_probability=1.0)
        with pytest.raises(SourceFaultError, match="retry budget"):
            make_engine(faults=plan).run_batch(QUERIES, vector_source)

    def test_corruption_events_recorded(self):
        sink = InMemorySink()
        plan = FaultPlan(seed=3, vector_corruption_probability=0.3)
        make_engine(
            faults=plan,
            fault_policy=FaultPolicy.graceful(),
            tracer=Tracer([sink]),
        ).run_batch(QUERIES, vector_source)
        injected = [
            e for e in sink.events
            if e.kind == FAULT_INJECTED and e.args["fault"] == "vector_corruption"
        ]
        detected = [
            e for e in sink.events
            if e.kind == FAULT_DETECTED and e.args["fault"] == "vector_corruption"
        ]
        assert injected and len(injected) == len(detected)


class TestGracefulDegradation:
    def test_lost_rank_degrades_exactly_its_queries(self):
        plan = FaultPlan(seed=0, rank_timeout_probability={0: 1.0})

        result = make_engine(
            faults=plan,
            fault_policy=FaultPolicy.graceful(max_read_retries=0),
        ).run_batch(QUERIES, vector_source)
        dropped = result.dropped_indices
        assert dropped, "rank 0 holds some queried index in this layout"
        for query, vector, status in zip(
            QUERIES, result.vectors, result.query_statuses
        ):
            survivors = set(query) - dropped
            if not survivors:
                assert status == STATUS_FAILED
                assert np.isnan(vector).all()
            elif survivors == set(query):
                assert status == STATUS_OK
                assert np.allclose(vector, oracle(query))
            else:
                assert status == STATUS_DEGRADED
                assert np.allclose(vector, oracle(query, dropped))

    def test_all_sources_failing_marks_every_query_failed(self):
        plan = FaultPlan(seed=1, source_failure_probability=1.0)
        result = make_engine(
            faults=plan, fault_policy=FaultPolicy.graceful()
        ).run_batch(QUERIES, vector_source)
        assert result.query_statuses == [STATUS_FAILED] * len(QUERIES)
        for vector in result.vectors:
            assert np.isnan(vector).all()

    def test_query_degraded_events_emitted(self):
        sink = InMemorySink()
        plan = FaultPlan(seed=1, source_failure_probability=1.0)
        make_engine(
            faults=plan,
            fault_policy=FaultPolicy.graceful(),
            tracer=Tracer([sink]),
        ).run_batch(QUERIES, vector_source)
        degraded = [e for e in sink.events if e.kind == QUERY_DEGRADED]
        assert len(degraded) == len(QUERIES)
        assert all(e.args["status"] == STATUS_FAILED for e in degraded)
        assert sorted(e.args["query"] for e in degraded) == list(
            range(len(QUERIES))
        )

    def test_degradation_works_without_deduplication(self):
        plan = FaultPlan(seed=1, source_failure_probability=0.4)
        result = make_engine(
            faults=plan, fault_policy=FaultPolicy.graceful()
        ).run_batch(QUERIES, vector_source, deduplicate=False)
        for query, vector, status in zip(
            QUERIES, result.vectors, result.query_statuses
        ):
            if status == STATUS_FAILED:
                assert np.isnan(vector).all()
            else:
                assert np.allclose(
                    vector, oracle(query, result.dropped_indices)
                )


class TestMultiBatchStatuses:
    def test_statuses_concatenate_across_batches(self):
        plan = FaultPlan(seed=1, source_failure_probability=1.0)
        engine = make_engine(faults=plan, fault_policy=FaultPolicy.graceful())
        run = engine.run_batches([QUERIES[:2], QUERIES[2:]], vector_source)
        assert run.statuses == [STATUS_FAILED] * len(QUERIES)
        assert len(run.vectors) == len(QUERIES)

    def test_clean_multibatch_statuses_all_ok(self):
        run = make_engine().run_batches([QUERIES[:2], QUERIES[2:]], vector_source)
        assert run.statuses == [STATUS_OK] * len(QUERIES)
