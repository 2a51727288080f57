"""Ablation — batch pipelining: latency metric vs throughput metric.

The paper's Fig. 13 speedups are throughput-flavoured: under load FAFNIR
overlaps batch k+1's DRAM reads with batch k's tree traversal.  This bench
quantifies how much the pipelined (steady-state) cost per batch undercuts
the end-to-end latency our other benches report — the effect behind the
magnitude gap documented in EXPERIMENTS.md.  The overlap is
``FafnirEngine.run_batches``' pipeline model; the steady-state cost per
batch is the mean gap between consecutive batch completions.
"""

import pytest

from _common import reference_tables, run_once, write_report
from repro.analysis import Table
from repro.core import FafnirConfig, FafnirEngine
from repro.workloads import QueryGenerator

BATCH_SIZES = (8, 16, 32)
STREAM_BATCHES = 6


def test_ablation_throughput_pipelining(benchmark):
    tables = reference_tables()

    def run():
        rows = {}
        for batch_size in BATCH_SIZES:
            generator = QueryGenerator.paper_calibrated(tables, seed=21)
            config = FafnirConfig(batch_size=batch_size)
            engine = FafnirEngine(config)
            batches = [generator.batch(batch_size) for _ in range(STREAM_BATCHES)]
            pipeline = engine.run_batches(batches, tables.vector).pipeline
            completions = pipeline.batch_completion_cycles
            rows[batch_size] = {
                "serial": pipeline.serial_latency_pe_cycles,
                "pipelined": pipeline.pipelined_latency_pe_cycles,
                "speedup": pipeline.pipeline_speedup,
                "steady": (completions[-1] - completions[0])
                / (len(completions) - 1),
                "qps": pipeline.throughput_queries_per_s(config),
            }
        return rows

    rows = run_once(benchmark, run)

    table = Table(
        ["batch", "serial_cycles", "pipelined_cycles", "pipeline_speedup", "Mqueries/s"]
    )
    for batch_size in BATCH_SIZES:
        row = rows[batch_size]
        table.add_row(
            [
                batch_size,
                row["serial"],
                row["pipelined"],
                f"{row['speedup']:.2f}×",
                f"{row['qps'] / 1e6:.2f}",
            ]
        )
    write_report("ablation_throughput", table)

    # Pipelining always helps, and throughput (queries/s) grows with batch
    # size — the paper's scalability claim in throughput terms.
    for batch_size in BATCH_SIZES:
        assert rows[batch_size]["speedup"] > 1.1
    qps = [rows[b]["qps"] for b in BATCH_SIZES]
    assert qps == sorted(qps)
    # Steady-state cost per batch is below the full latency.
    for batch_size in BATCH_SIZES:
        assert rows[batch_size]["steady"] < rows[batch_size]["serial"] / STREAM_BATCHES
