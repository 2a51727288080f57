"""Table IV — compute-unit latencies and the PE critical path @200 MHz.

Paper: compare 12 cycles, reduce(value) 4, reduce(header) 16, forward 2;
reduce and forward are parallel paths, so the critical path is governed by
compare + reduce.  This bench verifies the configured model and measures the
simulator's per-PE stage behaviour against it, through the engine: a query
whose two vectors meet at a PE pays the reduce path, a lone vector the
forward path.
"""

import numpy as np

from _common import run_once, write_report
from repro.analysis import Table
from repro.core import FafnirConfig, FafnirEngine
from repro.memory import MemoryConfig


def test_table4_compute_unit_latencies(benchmark):
    config = FafnirConfig()
    latencies = config.latencies

    def run():
        # Two ranks feed the two FIFOs of one leaf PE, which is also the
        # root: a query's tree time is that PE's path, plus issue stalls
        # (none for a single output).
        machine = config.with_ranks(2, ranks_per_leaf_pe=2)
        engine = FafnirEngine(
            config=machine, memory_config=MemoryConfig().scaled_to_ranks(2)
        )
        pair = [0, 1]
        assert {engine.placement.home_rank(index) for index in pair} == {0, 1}

        def tree_cycles(query):
            result = engine.run_batch(
                [query], lambda index: np.zeros(machine.vector_elements)
            )
            return (
                result.ready_pe_cycles[0]
                - result.stats.memory_latency_pe_cycles
            )

        return tree_cycles(pair), tree_cycles([pair[0]])

    reduce_latency, forward_latency = run_once(benchmark, run)

    table = Table(["operation", "cycles", "paper_cycles"])
    table.add_row(["compare", latencies.compare, 12])
    table.add_row(["reduce (value)", latencies.reduce_value, 4])
    table.add_row(["reduce (header)", latencies.reduce_header, 16])
    table.add_row(["forward", latencies.forward, 2])
    table.add_row(["reduce path (measured)", reduce_latency, "compare+16"])
    table.add_row(["forward path (measured)", forward_latency, "compare+2"])
    write_report("table4_latency", table)

    assert latencies.compare == 12
    assert latencies.reduce_value == 4
    assert latencies.reduce_header == 16
    assert latencies.forward == 2
    # Critical path: reduce is the slower parallel branch after compare.
    assert latencies.critical_path == latencies.reduce_path == 28
    assert reduce_latency == latencies.reduce_path
    assert forward_latency == latencies.forward_path
    # At 200 MHz one PE stage is 140 ns.
    assert config.pe_clock.cycles_to_ns(latencies.critical_path) == 140.0
