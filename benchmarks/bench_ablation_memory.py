"""Ablation — memory-controller knobs: scheduling policy and refresh.

Neither knob is in the paper, but both gate how much of the reported
behaviour comes from the DRAM substrate vs the accelerator: FR-FCFS recovers
row hits the in-order scheduler loses, and refresh blackouts tax long
streaming runs.
"""

import dataclasses

import pytest

from _common import calibrated_batch, reference_tables, run_once, write_report
from repro.analysis import Table
from repro.core import FafnirConfig, FafnirEngine
from repro.memory import MemoryConfig, MemorySystem, ReadColumns


def test_ablation_memory_controller(benchmark):
    tables = reference_tables()
    batch = calibrated_batch(tables, batch_size=32)

    def run():
        rows = {}
        # Scheduling: a row-interleaved torture stream on one bank.
        stream = ReadColumns()
        for i in range(64):
            stream.append(rank=0, bank=0, row=i % 4, column=(i // 4) * 64, bytes_=64)
        for policy in ("fcfs", "frfcfs"):
            system = MemorySystem(MemoryConfig.small_test_system(), policy=policy)
            _, stats = system.execute(stream)
            rows[f"policy={policy}"] = {
                "finish_dram_cycles": stats.finish_cycle,
                "row_hit_rate": stats.row_hit_rate,
            }
        # Refresh: the same FAFNIR batch with and without blackouts.
        base = MemoryConfig().scaled_to_ranks(32)
        with_refresh = MemoryConfig(
            geometry=base.geometry,
            timing=dataclasses.replace(base.timing, refresh_enabled=True),
            energy=base.energy,
        )
        for label, memory_config in (("refresh=off", base), ("refresh=on", with_refresh)):
            engine = FafnirEngine(
                FafnirConfig(batch_size=32), memory_config=memory_config
            )
            result = engine.run_batch(batch, tables.vector)
            rows[label] = {
                "finish_dram_cycles": result.stats.memory.finish_cycle,
                "row_hit_rate": result.stats.memory.row_hit_rate,
            }
        return rows

    rows = run_once(benchmark, run)

    table = Table(["configuration", "dram_finish_cycles", "row_hit_rate_%"])
    for label, row in rows.items():
        table.add_row(
            [
                label,
                row["finish_dram_cycles"],
                f"{100 * row['row_hit_rate']:.1f}",
            ]
        )
    write_report("ablation_memory", table)

    # FR-FCFS strictly improves the interleaved stream.
    assert (
        rows["policy=frfcfs"]["finish_dram_cycles"]
        < rows["policy=fcfs"]["finish_dram_cycles"]
    )
    assert (
        rows["policy=frfcfs"]["row_hit_rate"] > rows["policy=fcfs"]["row_hit_rate"]
    )
    # Refresh never speeds anything up; for this sub-tREFI batch its cost
    # is bounded (a rank blackout or two at most).
    assert (
        rows["refresh=on"]["finish_dram_cycles"]
        >= rows["refresh=off"]["finish_dram_cycles"]
    )
    assert (
        rows["refresh=on"]["finish_dram_cycles"]
        <= rows["refresh=off"]["finish_dram_cycles"] + 2 * 420
    )
