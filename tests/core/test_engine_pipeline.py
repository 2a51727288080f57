"""Tests for the streaming multi-batch runner, sharding, and the two fixes
this PR carries: position-based leaf FIFO routing and per-occurrence
completion timing for the dedup ablation."""

import numpy as np
import pytest

from repro.baselines.fafnir_adapter import FafnirGatherEngine
from repro.core import (
    FafnirConfig,
    FafnirEngine,
    ShardedRunner,
    fleet_makespan_pe_cycles,
    shard_batches,
)
from repro.core.batch import plan_batch
from repro.core.tree import TreePE
from repro.memory import MemoryConfig
from repro.obs import InMemorySink, Tracer
from repro.workloads import EmbeddingTableSet, QueryGenerator
from tests.pe_oracle import leaf_inputs

RANKS = 8
ELEMENTS = 16


def make_config(batch_size=8, max_query_len=6):
    return FafnirConfig(
        batch_size=batch_size,
        max_query_len=max_query_len,
        vector_bytes=ELEMENTS * 4,
        total_ranks=RANKS,
        ranks_per_leaf_pe=2,
        num_tables=RANKS,
    )


def make_engine(**kwargs):
    return FafnirEngine(
        config=make_config(),
        memory_config=MemoryConfig().scaled_to_ranks(RANKS),
        **kwargs,
    )


def vector_source(index):
    """Module-level (picklable) deterministic vector store."""
    return np.random.default_rng(80_000 + index).normal(size=ELEMENTS)


def make_batches(num_batches=3, seed=0):
    rng = np.random.default_rng(seed)
    return [
        [
            rng.choice(48, size=int(rng.integers(2, 7)),
                       replace=False).tolist()
            for _ in range(int(rng.integers(2, 9)))
        ]
        for _ in range(num_batches)
    ]


class TestRunBatches:
    def test_outputs_match_sequential_run_batch(self):
        batches = make_batches(3)
        streamed = make_engine().run_batches(batches, vector_source)
        reference = make_engine()
        expected = [
            vector
            for batch in batches
            for vector in reference.run_batch(batch, vector_source).vectors
        ]
        assert len(streamed.vectors) == len(expected)
        for a, b in zip(streamed.vectors, expected):
            assert a.tobytes() == b.tobytes()

    def test_pipelined_makespan_at_most_serial(self):
        batches = make_batches(4, seed=5)
        run = make_engine().run_batches(batches, vector_source)
        stats = run.pipeline
        assert stats.batches == 4
        assert stats.total_queries == sum(len(b) for b in batches)
        assert (
            stats.pipelined_latency_pe_cycles
            <= stats.serial_latency_pe_cycles
        )
        assert stats.pipeline_speedup >= 1.0
        assert len(stats.batch_completion_cycles) == 4
        assert (
            max(stats.batch_completion_cycles)
            == stats.pipelined_latency_pe_cycles
        )

    def test_serial_mode_sums_batch_latencies(self):
        batches = make_batches(3, seed=7)
        run = make_engine().run_batches(batches, vector_source)
        latencies = [r.stats.latency_pe_cycles for r in run.results]
        assert run.pipeline.serial_latency_pe_cycles == sum(latencies)

    def test_pipeline_flag_is_timing_only(self):
        """The adapter's ``pipeline`` flag only picks which of one run's
        makespans it reports; the serial one is the sum of batch latencies."""
        config = make_config()
        queries = [query for batch in make_batches(3, seed=9) for query in batch]
        overlapped = FafnirGatherEngine(config=config).lookup(queries, vector_source)
        serial = FafnirGatherEngine(config=config, pipeline=False).lookup(
            queries, vector_source
        )
        for a, b in zip(overlapped.vectors, serial.vectors):
            assert a.tobytes() == b.tobytes()
        size = config.batch_size
        run = make_engine().run_batches(
            [queries[i : i + size] for i in range(0, len(queries), size)],
            vector_source,
        )
        stats = run.pipeline
        assert stats.serial_latency_pe_cycles == sum(
            r.stats.latency_pe_cycles for r in run.results
        )
        transfer = serial.timing.transfer_ns
        assert serial.timing.total_ns == pytest.approx(
            config.pe_clock.cycles_to_ns(stats.serial_latency_pe_cycles) + transfer
        )
        assert overlapped.timing.total_ns == pytest.approx(
            config.pe_clock.cycles_to_ns(stats.pipelined_latency_pe_cycles)
            + transfer
        )

    def test_empty_stream_rejected(self):
        with pytest.raises(ValueError):
            make_engine().run_batches([], vector_source)

    def test_results_depend_on_dedup(self):
        """Redundant-access elimination shortens the pipelined makespan of
        a paper-calibrated stream (never lengthens it)."""
        tables = EmbeddingTableSet(rows_per_table=50_000, seed=9)
        generator = QueryGenerator.paper_calibrated(tables, seed=10)
        batches = [generator.batch(16) for _ in range(3)]

        def makespan(deduplicate):
            engine = FafnirEngine(FafnirConfig(batch_size=16))
            run = engine.run_batches(
                batches, tables.vector, deduplicate=deduplicate
            )
            return run.pipeline.pipelined_latency_pe_cycles

        assert makespan(True) <= makespan(False)


class TestShardedRunner:
    def test_round_robin_sharding(self):
        batches = [[f"b{i}"] for i in range(5)]
        buckets = shard_batches(batches, 2)
        assert buckets == [
            [["b0"], ["b2"], ["b4"]],
            [["b1"], ["b3"]],
        ]
        with pytest.raises(ValueError):
            shard_batches(batches, 0)

    def test_shards_match_direct_engines(self):
        shards = shard_batches(make_batches(4, seed=11), 2)
        runner = ShardedRunner(
            config=make_config(),
            max_workers=2,
        )
        sharded = runner.run(shards, vector_source)
        assert len(sharded) == 2
        for shard, result in zip(shards, sharded):
            direct = make_engine().run_batches(shard, vector_source)
            assert len(result.vectors) == len(direct.vectors)
            for a, b in zip(result.vectors, direct.vectors):
                assert a.tobytes() == b.tobytes()
            assert (
                result.pipeline.pipelined_latency_pe_cycles
                == direct.pipeline.pipelined_latency_pe_cycles
            )

    def test_fleet_makespan_is_max_over_shards(self):
        shards = shard_batches(make_batches(3, seed=13), 2)
        runner = ShardedRunner(
            config=make_config(),
            max_workers=1,  # serial fallback path
        )
        results = runner.run(shards, vector_source)
        assert fleet_makespan_pe_cycles(results) == max(
            r.pipeline.pipelined_latency_pe_cycles for r in results
        )


class TestSerialFallback:
    """Process spawning being unavailable must be invisible to callers:
    identical results and (traced) identical event streams."""

    def _runner(self, max_workers=2):
        """A traced runner and the sink its one stream lands in."""
        sink = InMemorySink()
        runner = ShardedRunner(
            config=make_config(),
            max_workers=max_workers,
            tracer=Tracer([sink]),
        )
        return runner, sink

    def test_pool_creation_failure_falls_back_in_process(self, monkeypatch):
        shards = shard_batches(make_batches(3, seed=17), 2)
        runner, expected_sink = self._runner()
        expected = runner.run(shards, vector_source)

        def no_processes(*args, **kwargs):
            raise OSError("process spawning unavailable")

        monkeypatch.setattr(
            "repro.core.sharding.ProcessPoolExecutor", no_processes
        )
        runner, fallback_sink = self._runner()
        fallback = runner.run(shards, vector_source)
        assert len(fallback) == len(expected)
        for a, b in zip(expected, fallback):
            for va, vb in zip(a.vectors, b.vectors):
                assert va.tobytes() == vb.tobytes()
        assert expected_sink.events == fallback_sink.events

    def test_submit_failure_falls_back_in_process(self, monkeypatch):
        """OSError at submission (not pool creation) is still cannot-spawn,
        not a worker death — same serial fallback, no re-dispatch loop."""

        class BrokenSubmitPool:
            def __init__(self, *args, **kwargs):
                pass

            def submit(self, *args, **kwargs):
                raise OSError("fork failed")

            def shutdown(self, *args, **kwargs):
                pass

        shards = shard_batches(make_batches(2, seed=19), 2)
        runner, expected_sink = self._runner()
        expected = runner.run(shards, vector_source)
        monkeypatch.setattr(
            "repro.core.sharding.ProcessPoolExecutor", BrokenSubmitPool
        )
        runner, fallback_sink = self._runner()
        fallback = runner.run(shards, vector_source)
        for a, b in zip(expected, fallback):
            for va, vb in zip(a.vectors, b.vectors):
                assert va.tobytes() == vb.tobytes()
        assert expected_sink.events == fallback_sink.events

    def test_traced_events_ship_across_processes(self):
        """A traced multi-process run returns the same per-shard event
        streams an in-process run records."""
        shards = shard_batches(make_batches(2, seed=29), 2)
        runner, pooled_sink = self._runner()
        runner.run(shards, vector_source)
        runner, serial_sink = self._runner(max_workers=1)
        runner.run(shards, vector_source)
        assert pooled_sink.events
        assert pooled_sink.events == serial_sink.events


class TestLeafRouting:
    def test_fifo_side_uses_rank_position(self):
        """Non-contiguous leaf wiring: side comes from the rank's position
        in ``leaf_ranks``, not from arithmetic on the first rank's id."""
        leaf = TreePE(pe_id=3, level=0, children=None, leaf_ranks=(6, 1))
        assert FafnirEngine._leaf_routes([leaf]) == {6: 6, 1: 7}

    def test_fifo_side_splits_wider_leaves_in_half(self):
        leaf = TreePE(
            pe_id=0, level=0, children=None, leaf_ranks=(9, 4, 11, 2)
        )
        routes = FafnirEngine._leaf_routes([leaf])
        assert [routes[r] for r in (9, 4, 11, 2)] == [0, 0, 1, 1]

    def test_unwired_rank_is_rejected(self):
        engine = make_engine()
        leaf = engine.tree.leaves()[0]
        routes = FafnirEngine._leaf_routes(
            [TreePE(pe_id=leaf.pe_id, level=0, children=None, leaf_ranks=(0,))]
        )
        engine._rank_fifo = np.full(engine.config.total_ranks, -1, np.int64)
        engine._rank_fifo[list(routes)] = list(routes.values())
        assert engine._leaf_fifos([0], [0]).tolist() == [2 * leaf.pe_id]
        with pytest.raises(ValueError, match="wired to no leaf PE"):
            engine.run_batch([[0, 1]], vector_source)


class TestDedupAblationTiming:
    def test_fetch_returns_per_occurrence_completions(self):
        engine = make_engine()
        queries = [[1, 2, 3], [1, 2, 4], [1, 5, 6]]
        plan = plan_batch(queries, deduplicate=False)
        leaf = leaf_inputs(engine, plan, vector_source)
        index = leaf.index
        # Sorted by index: index 1 is read three times, index 2 twice, the
        # rest once.
        assert index.tolist() == [1, 1, 1, 2, 2, 3, 4, 5, 6]
        # Later occurrences of the same index never finish earlier.
        ones = leaf.ready[index == 1].tolist()
        assert ones == sorted(ones)

    def test_ablation_latency_not_below_dedup(self):
        queries = [[1, 2, 3], [1, 2, 4], [1, 5, 6], [2, 3, 7]]
        dedup = make_engine().run_batch(queries, vector_source)
        ablation = make_engine().run_batch(
            queries, vector_source, deduplicate=False
        )
        assert (
            ablation.stats.latency_pe_cycles
            >= dedup.stats.latency_pe_cycles
        )
        assert ablation.stats.memory.bytes_read > dedup.stats.memory.bytes_read

    def test_ablation_vectors_identical_to_dedup(self):
        queries = make_batches(1, seed=23)[0]
        dedup = make_engine().run_batch(queries, vector_source)
        ablation = make_engine().run_batch(
            queries, vector_source, deduplicate=False
        )
        for a, b in zip(dedup.vectors, ablation.vectors):
            assert a.tobytes() == b.tobytes()
