"""Ablation — timing-model bracket: dataflow vs phased vs interactive.

The hardware's true latency lies between the optimistic dataflow timing
(messages race ahead the moment their operands arrive, §IV-A's conflict-free
routes) and the conservative phased timing (each PE waits for its whole
input batch).  Interactive mode (compare-free PEs, §IV-C) gives the
single-query floor.  All three produce identical functional results.
"""

import numpy as np
import pytest

from _common import calibrated_batch, reference_tables, run_once, write_report
from repro.analysis import Table
from repro.core import FafnirConfig, FafnirEngine, InteractiveEngine


def test_ablation_timing_models(benchmark):
    tables = reference_tables()
    batch = calibrated_batch(tables, batch_size=16)

    def run():
        config = FafnirConfig(batch_size=16)
        dataflow = FafnirEngine(config).run_batch(batch, tables.vector)
        phased = FafnirEngine(config, timing="phased").run_batch(
            batch, tables.vector
        )
        interactive = InteractiveEngine(config)
        single_cycles = [
            interactive.lookup_one(query, tables.vector).latency_pe_cycles
            for query in batch
        ]
        return dataflow, phased, single_cycles

    dataflow, phased, single_cycles = run_once(benchmark, run)

    table = Table(["model", "batch_latency_cycles", "per_query_cycles"])
    table.add_row(
        [
            "dataflow (optimistic)",
            dataflow.stats.latency_pe_cycles,
            f"{dataflow.stats.latency_pe_cycles / 16:.1f}",
        ]
    )
    table.add_row(
        [
            "phased (conservative)",
            phased.stats.latency_pe_cycles,
            f"{phased.stats.latency_pe_cycles / 16:.1f}",
        ]
    )
    table.add_row(
        [
            "interactive ×16 (serial)",
            sum(single_cycles),
            f"{np.mean(single_cycles):.1f}",
        ]
    )
    write_report("ablation_timing_models", table)

    # Same functional outputs.
    for a, b in zip(dataflow.vectors, phased.vectors):
        assert np.allclose(a, b)
    # The bracket: dataflow ≤ phased; a single interactive query beats both
    # per-query latencies but loses on serial throughput.
    assert dataflow.stats.latency_pe_cycles <= phased.stats.latency_pe_cycles
    assert min(single_cycles) < dataflow.stats.latency_pe_cycles
    assert sum(single_cycles) > dataflow.stats.latency_pe_cycles
