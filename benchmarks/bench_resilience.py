"""End-to-end resilience: chaos-cell inflation vs the clean baseline.

The reference chaos cell couples the faults a production gather-reduce
fleet actually sees: 1% cross-shard message loss, one straggler shard at
4× slowdown, and an arrival burst at 2× serving capacity.  This bench
measures what the resilience stack buys back:

* **reduction side** — the chaos cell under the graceful policy must
  keep every reduced vector byte-identical to the clean run (loss and
  stragglers are timing faults); hedged re-dispatch must pull the
  makespan back toward clean (first-result-wins);
* **serving side** — at 2× capacity without protection, queueing delay
  grows with the backlog and attainment collapses; with deadline-aware
  shedding the *admitted* stream must stay above the recorded floor.

Headline numbers (makespan inflation unhedged vs hedged, burst p99 and
attainment with and without shedding, the admitted-stream floor) are
appended to ``BENCH_resilience.json`` so the trajectory travels with the
repo.  The cells are those of the registered ``resilience`` experiment,
which also checks every reduced vector against the clean run.
``FAFNIR_SMOKE=1`` shrinks the workload for CI smoke runs.
"""

import os
import time

from _common import append_trajectory, run_once, write_report
from repro.analysis import Table
from repro.experiments import get_experiment

SMOKE = bool(int(os.environ.get("FAFNIR_SMOKE", "0")))

BATCHES = 2 if SMOKE else 4
BATCH_SIZE = 16 if SMOKE else 32
N_REQUESTS = 80 if SMOKE else 200
#: Recorded floor on the admitted stream's SLO attainment under the
#: reference burst — the number CI holds future revisions to.
ATTAINMENT_FLOOR = 0.75


def test_resilience_chaos_cell(benchmark):
    def experiment():
        start = time.perf_counter()
        result = get_experiment("resilience").run(
            min_attainment=ATTAINMENT_FLOOR,
            batches=BATCHES,
            batch_size=BATCH_SIZE,
            requests=N_REQUESTS,
        )
        return result, time.perf_counter() - start

    result, wall_s = run_once(benchmark, experiment)
    assert not result.failures, result.failures
    data = result.data
    clean, unhedged, hedged = (
        data["clean"], data["chaos_unhedged"], data["chaos_hedged"]
    )
    capacity_qps, burst, shed = data["capacity_qps"], data["burst"], data["shed"]
    admitted_ok = data["admitted_attainment"]

    clean_bytes = [vector.tobytes() for vector in clean.vectors]
    unhedged_identical = [
        vector.tobytes() for vector in unhedged.vectors
    ] == clean_bytes
    hedged_identical = [
        vector.tobytes() for vector in hedged.vectors
    ] == clean_bytes
    unhedged_inflation = unhedged.makespan_pe_cycles / clean.makespan_pe_cycles
    hedged_inflation = hedged.makespan_pe_cycles / clean.makespan_pe_cycles

    table = Table(["quantity", "clean", "chaos", "protected"])
    table.add_row(
        [
            "reduction makespan (cycles)",
            clean.makespan_pe_cycles,
            unhedged.makespan_pe_cycles,
            hedged.makespan_pe_cycles,
        ]
    )
    table.add_row(
        [
            "serving p99 (µs)",
            "-",
            f"{burst.latency_percentile_us(99):.2f}",
            f"{shed.latency_percentile_us(99):.2f}",
        ]
    )
    table.add_row(
        [
            "SLO attainment",
            "-",
            f"{burst.slo_attainment:.3f}",
            f"{shed.slo_attainment:.3f} ({admitted_ok:.3f} admitted)",
        ]
    )

    record = {
        "smoke": SMOKE,
        "link_loss": data["link_loss"],
        "straggler_factor": data["straggler_factor"],
        "burst_factor": data["burst_factor"],
        "slo_us": data["slo_us"],
        "attainment_floor": ATTAINMENT_FLOOR,
        "clean_makespan_cycles": clean.makespan_pe_cycles,
        "unhedged_makespan_cycles": unhedged.makespan_pe_cycles,
        "hedged_makespan_cycles": hedged.makespan_pe_cycles,
        "unhedged_inflation": round(unhedged_inflation, 4),
        "hedged_inflation": round(hedged_inflation, 4),
        "hedge_wins": hedged.hedges.wins,
        "hedge_saved_cycles": hedged.hedges.saved_cycles,
        "capacity_qps": round(capacity_qps, 1),
        "burst_p99_us": round(burst.latency_percentile_us(99), 3),
        "shed_p99_us": round(shed.latency_percentile_us(99), 3),
        "burst_attainment": round(burst.slo_attainment, 4),
        "shed_attainment": round(shed.slo_attainment, 4),
        "admitted_attainment": round(admitted_ok, 4),
        "shed_fraction": round(shed.shed_fraction, 4),
        "wall_s": round(wall_s, 4),
    }
    write_report("resilience", table, record=record)
    append_trajectory("resilience", record)

    # Timing faults must never change reduced bytes, hedging must pay,
    # and the admitted stream must hold the recorded floor while the
    # unprotected burst falls below it.
    assert unhedged_identical and hedged_identical
    assert unhedged_inflation > 1.0
    assert hedged_inflation <= unhedged_inflation
    assert hedged.hedges.wins >= 1
    assert shed.shed_fraction > 0.0
    assert admitted_ok >= ATTAINMENT_FLOOR
    assert burst.slo_attainment < ATTAINMENT_FLOOR
    assert shed.latency_percentile_us(99) <= burst.latency_percentile_us(99)
