"""Acceptance tests: the event stream describes the same run as the stats.

The tracer and :class:`LookupStats` observe one simulation through two
independent paths — events at each emission site, counters aggregated by
the PEs and the memory system.  These tests pin the two together on real
engine runs, which is what makes a captured trace trustworthy evidence.
"""

import numpy as np
import pytest

from repro.core.config import FafnirConfig
from repro.core.engine import FafnirEngine
from repro.core.sharding import ShardedRunner, shard_batches
from repro.core.stats import trace_mismatches, tree_utilization
from repro.obs import (
    BATCH_COMPLETE,
    BATCH_START,
    FIFO_ENQUEUE,
    FIFO_STALL,
    InMemorySink,
    LEAF_INJECT,
    MEM_READ_COMPLETE,
    MEM_READ_ISSUE,
    NULL_TRACER,
    PE_REDUCE,
    PIPELINE_BATCH,
    QUERY_COMPLETE,
    TraceEvent,
    Tracer,
    chrome_trace_json,
    per_level_counts,
)

UNIVERSE = 256


def _table(config, seed=0):
    rng = np.random.default_rng(seed)
    return {
        index: rng.standard_normal(config.vector_elements)
        for index in range(UNIVERSE)
    }


def _queries(count, length, seed=1):
    rng = np.random.default_rng(seed)
    return [
        rng.choice(UNIVERSE, size=length, replace=False).tolist()
        for _ in range(count)
    ]


@pytest.fixture
def config():
    return FafnirConfig(
        total_ranks=8, vector_bytes=64, batch_size=16, max_query_len=8
    )


@pytest.fixture
def traced_run(config):
    table = _table(config)
    queries = _queries(12, 4)
    sink = InMemorySink()
    engine = FafnirEngine(config=config, tracer=Tracer([sink]))
    result = engine.run_batch(queries, table.__getitem__)
    return engine, result, sink.events, queries


class TestStatsCrossCheck:
    def test_reduce_events_match_level_aggregation(self, traced_run):
        engine, result, events, _ = traced_run
        utilization = tree_utilization(
            engine.tree, result.stats, engine.memory.config.geometry
        )
        event_levels = per_level_counts(events)
        for level in utilization.levels:
            assert event_levels.get(level.level, 0) == level.work.reduces

    def test_memory_events_match_access_stats(self, traced_run):
        _, result, events, _ = traced_run
        issues = [e for e in events if e.kind == MEM_READ_ISSUE]
        completes = [e for e in events if e.kind == MEM_READ_COMPLETE]
        assert len(issues) == len(completes) == result.stats.memory.reads
        assert (
            sum(e.args["bytes"] for e in completes)
            == result.stats.memory.bytes_read
        )
        assert (
            max(e.cycle for e in completes) == result.stats.memory.finish_cycle
        )

    def test_query_completions_match_batch(self, traced_run):
        _, result, events, queries = traced_run
        completions = [e for e in events if e.kind == QUERY_COMPLETE]
        assert len(completions) == len(queries)
        assert {e.args["query"] for e in completions} == set(
            range(len(queries))
        )
        assert (
            max(e.cycle for e in completions)
            == result.stats.latency_pe_cycles
        )

    def test_leaf_injects_match_unique_reads(self, traced_run):
        _, result, events, _ = traced_run
        injects = [e for e in events if e.kind == LEAF_INJECT]
        assert len(injects) == result.stats.unique_reads
        enqueues = [e for e in events if e.kind == FIFO_ENQUEUE]
        assert len(enqueues) == len(injects)

    def test_leaf_arrival_event_fields(self, traced_run):
        """Each arrival is a ``leaf_inject`` at the index's home rank, then
        a ``fifo_enqueue`` (no rank) with the FIFO's depth after it."""
        engine, _, events, _ = traced_run
        arrivals = [e for e in events if e.kind in (LEAF_INJECT, FIFO_ENQUEUE)]
        depth = {}
        for inject, enqueue in zip(arrivals[0::2], arrivals[1::2]):
            index = inject.args["index"]
            rank = engine.placement.home_rank(index)
            (fifo,) = engine._leaf_fifos([index], [rank]).tolist()
            leaf, side = divmod(fifo, 2)
            assert (inject.kind, inject.rank, inject.pe, inject.level) == (
                LEAF_INJECT, rank, leaf, 0
            )
            depth[fifo] = depth.get(fifo, 0) + 1
            assert enqueue == TraceEvent(
                FIFO_ENQUEUE, cycle=inject.cycle, pe=leaf, level=0,
                args={"fifo": side, "depth": depth[fifo]},
            )

    def test_no_dedup_injects_every_occurrence(self, config):
        table = _table(config)
        queries = _queries(12, 4)
        sink = InMemorySink()
        engine = FafnirEngine(config=config, tracer=Tracer([sink]))
        result = engine.run_batch(queries, table.__getitem__, deduplicate=False)
        injects = [e for e in sink.events if e.kind == LEAF_INJECT]
        assert len(injects) == result.stats.total_lookups

    def test_batch_bracketing_events(self, traced_run):
        _, result, events, _ = traced_run
        assert events[0].kind == BATCH_START
        assert events[-1].kind == BATCH_COMPLETE
        assert events[-1].cycle == result.stats.latency_pe_cycles


class TestTraceMismatches:
    """The one trace-vs-stats checker used by ``repro.cli trace`` and the
    benches: clean on a real run, and each seeded break is reported."""

    def test_clean_run_has_no_mismatches(self, traced_run):
        engine, result, events, _ = traced_run
        assert trace_mismatches(engine, result, events) == []

    @pytest.mark.parametrize(
        "kind, reported",
        [(QUERY_COMPLETE, "queries"), (MEM_READ_COMPLETE, "DRAM reads")],
    )
    def test_dropped_event_is_reported(self, traced_run, kind, reported):
        engine, result, events, _ = traced_run
        position = next(i for i, event in enumerate(events) if event.kind == kind)
        broken = events[:position] + events[position + 1 :]
        mismatches = trace_mismatches(engine, result, broken)
        assert len(mismatches) == 1
        assert reported in mismatches[0] and kind in mismatches[0]

    def test_dropped_reduce_is_reported_per_level(self, traced_run):
        engine, result, events, _ = traced_run
        position = next(i for i, event in enumerate(events) if event.kind == PE_REDUCE)
        level = events[position].level
        broken = events[:position] + events[position + 1 :]
        assert trace_mismatches(engine, result, broken) == [
            f"level {level}: {per_level_counts(events)[level]} reduces in stats, "
            f"{per_level_counts(events)[level] - 1} in events"
        ]


class TestFifoStall:
    def test_stall_emitted_past_buffer_capacity(self):
        # batch_size sets buffer_entries; 2 ranks funnel a whole batch's
        # messages into two FIFOs, so depth exceeds a small capacity.
        config = FafnirConfig(
            total_ranks=2, vector_bytes=64, batch_size=2, max_query_len=8
        )
        table = _table(config)
        rng = np.random.default_rng(3)
        queries = [
            rng.choice(UNIVERSE, size=8, replace=False).tolist()
            for _ in range(2)
        ]
        sink = InMemorySink()
        engine = FafnirEngine(config=config, tracer=Tracer([sink]))
        engine.run_batch(queries, table.__getitem__)
        stalls = [e for e in sink.events if e.kind == FIFO_STALL]
        assert stalls
        assert all(
            e.args["depth"] > config.buffer_entries for e in stalls
        )


class TestTracingIsObservationOnly:
    def test_untraced_engine_uses_null_tracer(self, config):
        engine = FafnirEngine(config=config)
        assert engine.tracer is NULL_TRACER
        assert not engine.tracer.enabled

    def test_traced_and_untraced_runs_identical(self, config):
        table = _table(config)
        queries = _queries(10, 4)
        traced = FafnirEngine(config=config, tracer=Tracer([InMemorySink()]))
        untraced = FafnirEngine(config=config)
        a = traced.run_batch(queries, table.__getitem__)
        b = untraced.run_batch(queries, table.__getitem__)
        assert all(
            x.tobytes() == y.tobytes() for x, y in zip(a.vectors, b.vectors)
        )
        assert a.stats.latency_pe_cycles == b.stats.latency_pe_cycles
        assert a.stats.per_pe_work == b.stats.per_pe_work

    def test_disabled_tracer_records_nothing(self, config):
        sink = InMemorySink()
        tracer = Tracer([])  # no sinks: disabled
        assert not tracer.enabled
        engine = FafnirEngine(config=config, tracer=tracer)
        engine.run_batch(_queries(4, 4), _table(config).__getitem__)
        assert not sink.events


class TestChromeExport:
    def test_engine_trace_exports_valid_chrome_json(self, traced_run):
        import json

        _, _, events, _ = traced_run
        document = chrome_trace_json(events)
        json.dumps(document)  # serialisable
        phases = {record["ph"] for record in document["traceEvents"]}
        assert {"M", "X", "i", "C"} <= phases
        non_meta = [r for r in document["traceEvents"] if r["ph"] != "M"]
        assert len(non_meta) == len(events)


class TestMultiBatchTracing:
    def test_run_batches_emits_pipeline_events(self, config):
        table = _table(config)
        batches = [_queries(6, 4, seed=s) for s in range(3)]
        sink = InMemorySink()
        engine = FafnirEngine(config=config, tracer=Tracer([sink]))
        multi = engine.run_batches(batches, table.__getitem__)
        pipeline_events = [
            e for e in sink.events if e.kind == PIPELINE_BATCH
        ]
        assert [e.args["batch"] for e in pipeline_events] == [0, 1, 2]
        assert [
            e.cycle for e in pipeline_events
        ] == multi.pipeline.batch_completion_cycles

    def test_sharded_runner_returns_event_streams(self, config):
        table = _table(config)
        batches = [_queries(4, 4, seed=s) for s in range(4)]
        shards = shard_batches(batches, 2)
        sink = InMemorySink()
        runner = ShardedRunner(config=config, max_workers=2, tracer=Tracer([sink]))
        results = runner.run(shards, table.__getitem__)
        assert len(results) == len(shards)
        # The runner's one stream is each replica's stream, in shard order.
        streams = []
        for shard in shards:
            shard_sink = InMemorySink()
            engine = FafnirEngine(config=config, tracer=Tracer([shard_sink]))
            engine.run_batches(shard, table.__getitem__)
            streams.append(shard_sink.events)
        assert sink.events == [event for events in streams for event in events]
        for events in streams:
            assert events
            kinds = {e.kind for e in events}
            assert QUERY_COMPLETE in kinds
            assert MEM_READ_COMPLETE in kinds

    def test_sharded_runner_untraced_has_no_events(self, config):
        table = _table(config)
        batches = [_queries(4, 4, seed=s) for s in range(2)]
        runner = ShardedRunner(config=config, max_workers=1)
        results = runner.run(shard_batches(batches, 2), table.__getitem__)
        assert runner.tracer is NULL_TRACER
        assert all(not hasattr(result, "events") for result in results)
