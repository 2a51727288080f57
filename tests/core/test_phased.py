"""Tests for the phased (store-and-forward) timing model."""

import numpy as np
import pytest

from repro.core import FafnirConfig, FafnirEngine
from repro.core.stats import trace_mismatches
from repro.obs import InMemorySink, Tracer
from repro.workloads import EmbeddingTableSet, QueryGenerator


@pytest.fixture(scope="module")
def workload():
    tables = EmbeddingTableSet(rows_per_table=50_000, seed=20)
    batch = QueryGenerator.paper_calibrated(tables, seed=21).batch(16)
    return tables, batch


class TestPhasedEngine:
    def test_functional_outputs_identical_to_dataflow(self, workload):
        tables, batch = workload
        config = FafnirConfig(batch_size=16)
        dataflow = FafnirEngine(config).run_batch(batch, tables.vector)
        phased = FafnirEngine(config, timing="phased").run_batch(
            batch, tables.vector
        )
        for a, b in zip(dataflow.vectors, phased.vectors):
            assert a.tobytes() == b.tobytes()

    def test_phased_latency_upper_bounds_dataflow(self, workload):
        """Dataflow lets messages race ahead; phased waits for whole
        batches — the two bracket the hardware."""
        tables, batch = workload
        config = FafnirConfig(batch_size=16)
        dataflow = FafnirEngine(config).run_batch(batch, tables.vector)
        phased = FafnirEngine(config, timing="phased").run_batch(
            batch, tables.vector
        )
        assert (
            phased.stats.latency_pe_cycles >= dataflow.stats.latency_pe_cycles
        )

    def test_work_counts_identical(self, workload):
        """Timing models differ; the work performed must not."""
        tables, batch = workload
        config = FafnirConfig(batch_size=16)
        dataflow = FafnirEngine(config).run_batch(batch, tables.vector)
        phased = FafnirEngine(config, timing="phased").run_batch(
            batch, tables.vector
        )
        for counter in ("compares", "reduces", "forwards"):
            assert getattr(dataflow.stats.total_work, counter) == getattr(
                phased.stats.total_work, counter
            )
        assert dataflow.stats.memory.reads == phased.stats.memory.reads

    def test_phased_matches_oracle(self, workload):
        tables, batch = workload
        engine = FafnirEngine(
            FafnirConfig(batch_size=16), timing="phased"
        )
        result = engine.run_batch(batch, tables.vector)
        for query, vector in zip(result.plan.queries, result.vectors):
            want = np.sum([tables.vector(i) for i in query], axis=0)
            assert np.allclose(vector, want)

    def test_phased_latency_still_ordered_vs_memory(self, workload):
        tables, batch = workload
        phased = FafnirEngine(
            FafnirConfig(batch_size=16), timing="phased"
        ).run_batch(batch, tables.vector)
        assert (
            phased.stats.latency_pe_cycles
            > phased.stats.memory_latency_pe_cycles
        )

    def test_traced_run_matches_stats(self, workload):
        """The phased tree emits the same ``pe_*`` events as the dataflow
        one, so a traced phased run agrees with its stats."""
        tables, batch = workload
        sink = InMemorySink()
        engine = FafnirEngine(
            FafnirConfig(batch_size=16), tracer=Tracer([sink]), timing="phased"
        )
        result = engine.run_batch(batch, tables.vector)
        assert trace_mismatches(engine, result, sink.events) == []

    def test_pe_operations_match_dataflow_in_order(self, workload):
        """Phased retiming changes only stamps: each PE hands its parent the
        canonical list order, so every PE performs the dataflow run's
        operations in the same order."""
        tables, batch = workload
        config = FafnirConfig(batch_size=16)
        streams = []
        for timing in ("dataflow", "phased"):
            sink = InMemorySink()
            FafnirEngine(config, tracer=Tracer([sink]), timing=timing).run_batch(
                batch, tables.vector
            )
            streams.append(
                [
                    (e.kind, e.pe, e.args)
                    for e in sink.events
                    if e.kind.startswith("pe_")
                ]
            )
        assert streams[0] == streams[1]

    def test_unknown_timing_model_rejected(self):
        with pytest.raises(ValueError, match="unknown timing model"):
            FafnirEngine(FafnirConfig(batch_size=16), timing="bogus")
