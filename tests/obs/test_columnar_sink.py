"""ColumnarSink: packed recording must materialize the exact object stream.

The columnar sink's whole contract is equivalence — a run traced through
packed typed-array columns must read back as precisely the TraceEvent
list an :class:`InMemorySink` would have captured, bools and all.  These
tests pin that equivalence on real engine runs (including fault runs,
whose events travel the object side table) plus the ring-overwrite
semantics the engine-level tests don't reach.
"""

import numpy as np
import pytest

from repro.core.config import FafnirConfig
from repro.core.engine import FafnirEngine
from repro.faults.plan import FaultPlan
from repro.obs import (
    ColumnarSink,
    InMemorySink,
    MEM_READ_COMPLETE,
    PE_REDUCE,
    QUERY_COMPLETE,
    TraceEvent,
    Tracer,
)
from repro.obs.events import (
    EVENT_KINDS,
    FIFO_ENQUEUE,
    KIND_CODES,
    LEAF_INJECT,
    PE_FORWARD,
)

UNIVERSE = 128


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
        total_ranks=8, vector_bytes=64, batch_size=8, max_query_len=8
    )


class TestMaterializationEquivalence:
    def test_engine_run_matches_inmemory_capture(self, config):
        table = _table(config)
        queries = _queries(8, 4)
        object_sink = InMemorySink()
        FafnirEngine(config=config, tracer=Tracer([object_sink])).run_batch(
            queries, table.__getitem__
        )
        columnar = ColumnarSink()
        FafnirEngine(config=config, tracer=Tracer([columnar])).run_batch(
            queries, table.__getitem__
        )
        assert columnar.to_events() == object_sink.events

    def test_mixed_sinks_fall_back_to_object_path(self, config):
        # One object sink alongside the columnar one forces the tracer's
        # fallback; both must still capture identical streams.
        table = _table(config)
        queries = _queries(6, 4)
        columnar = ColumnarSink()
        object_sink = InMemorySink()
        tracer = Tracer([columnar, object_sink])
        assert not tracer.all_packed
        FafnirEngine(config=config, tracer=tracer).run_batch(
            queries, table.__getitem__
        )
        assert columnar.to_events() == object_sink.events

    def test_fault_run_matches_inmemory_capture(self, config):
        table = _table(config)
        queries = _queries(8, 4)
        plan = lambda: FaultPlan(
            seed=7,
            rank_latency_multipliers={1: 1.5},
            rank_timeout_probability={2: 0.2},
        )
        object_sink = InMemorySink()
        FafnirEngine(
            config=config, tracer=Tracer([object_sink]), faults=plan()
        ).run_batch(queries, table.__getitem__)
        columnar = ColumnarSink()
        FafnirEngine(
            config=config, tracer=Tracer([columnar]), faults=plan()
        ).run_batch(queries, table.__getitem__)
        assert columnar.to_events() == object_sink.events

    def test_row_hit_materializes_as_bool(self, config):
        table = _table(config)
        columnar = ColumnarSink()
        FafnirEngine(config=config, tracer=Tracer([columnar])).run_batch(
            _queries(4, 4), table.__getitem__
        )
        completes = [
            e for e in columnar.to_events() if e.kind == MEM_READ_COMPLETE
        ]
        assert completes
        assert all(isinstance(e.args["row_hit"], bool) for e in completes)

    def test_events_property_matches_to_events(self, config):
        columnar = ColumnarSink()
        FafnirEngine(config=config, tracer=Tracer([columnar])).run_batch(
            _queries(4, 4), _table(config).__getitem__
        )
        assert columnar.events == columnar.to_events()


class TestRingSemantics:
    def test_overwrite_keeps_most_recent_window(self):
        sink = ColumnarSink(capacity=4)
        tracer = Tracer([sink])
        for cycle in range(10):
            tracer.emit_packed(PE_REDUCE, cycle, pe=1, level=0, args=(28,))
        assert len(sink) == 4
        assert sink.recorded == 10
        assert sink.dropped == 6
        assert [e.cycle for e in sink.to_events()] == [6, 7, 8, 9]

    def test_overwrite_evicts_side_table_objects(self):
        sink = ColumnarSink(capacity=3)
        tracer = Tracer([sink])
        tracer.emit(TraceEvent("batch_start", cycle=0))
        for cycle in range(1, 6):
            tracer.emit_packed(PE_FORWARD, cycle, pe=0, level=0, args=(14,))
        # The object slot was overwritten; no leak, and the window reads.
        assert not sink._objects
        assert [e.cycle for e in sink.to_events()] == [3, 4, 5]

    def test_column_runs_wrap_and_evict_like_single_events(self):
        """``emit_columns`` runs, one longer than the ring, read back as the
        same window as one ``emit_packed`` per event."""
        kinds = np.array([KIND_CODES[PE_REDUCE], KIND_CODES[PE_FORWARD]] * 3)
        runs = [(kinds[:2], [1, 2]), (kinds, [3, 4, 5, 6, 7, 8]), (kinds[:3], [9, 10, 11])]
        by_column, by_row = ColumnarSink(capacity=4), ColumnarSink(capacity=4)
        for sink in (by_column, by_row):
            Tracer([sink]).emit(TraceEvent("batch_start", cycle=0))
        for run_kinds, cycles in runs:
            args = np.array(cycles)[:, None] * 10
            Tracer([by_column]).emit_columns(
                run_kinds, cycles, args, pe=np.arange(len(cycles)), level=2
            )
            for code, cycle, pe, row in zip(run_kinds.tolist(), cycles,
                                            range(len(cycles)), args.tolist()):
                Tracer([by_row]).emit_packed(
                    EVENT_KINDS[code], cycle, pe=pe, level=2, args=tuple(row)
                )
        assert by_column.recorded == by_row.recorded == 12
        assert not by_column._objects
        assert by_column.to_events() == by_row.to_events()
        assert [e.cycle for e in by_column.to_events()] == [8, 9, 10, 11]

    def test_column_runs_reach_object_sinks_as_events(self):
        """Without a packed sink, ``emit_columns`` emits one event per row:
        ``-1`` is an unset field and each kind takes its schema's args."""
        sink = InMemorySink()
        Tracer([sink]).emit_columns(
            [KIND_CODES[LEAF_INJECT], KIND_CODES[FIFO_ENQUEUE]], [5, 5],
            [[42, 0], [1, 2]], pe=3, level=0, rank=[7, -1],
        )
        assert sink.events == [
            TraceEvent(LEAF_INJECT, cycle=5, pe=3, level=0, rank=7,
                       args={"index": 42}),
            TraceEvent(FIFO_ENQUEUE, cycle=5, pe=3, level=0,
                       args={"fifo": 1, "depth": 2}),
        ]

    def test_clear_resets(self):
        sink = ColumnarSink(capacity=8)
        tracer = Tracer([sink])
        tracer.emit_packed(QUERY_COMPLETE, 5, args=(0, 4))
        sink.clear()
        assert len(sink) == 0
        assert sink.to_events() == []


class TestTracerCapability:
    def test_all_packed_flag(self):
        assert Tracer([ColumnarSink()]).all_packed
        assert not Tracer([InMemorySink()]).all_packed
        assert not Tracer([]).all_packed

    def test_add_sink_updates_flag(self):
        tracer = Tracer([])
        tracer.add_sink(ColumnarSink())
        assert tracer.enabled and tracer.all_packed
        tracer.add_sink(InMemorySink())
        assert tracer.enabled and not tracer.all_packed
