"""Cross-shard reduction sweep: schedule cost vs shard count, verified.

FAFNIR's on-package tree stops at the node boundary; at multi-node scale
the per-shard partials ride a second-level reduction schedule over an
inter-node link (src/repro/comm/).  This bench sweeps the three schedules
over shard counts on the paper's 32-rank configuration and records the
collective-cost crossover the topology predicts:

* gather-to-root serializes S−1 messages into the root's ingress, so its
  comm cycles grow linearly with the shard count;
* recursive-doubling runs log2(S) pair-parallel rounds, so it overtakes
  gather as S grows — by 8 shards the butterfly must win on modeled
  cycles (the acceptance criterion this bench enforces);
* reduce-scatter + allgather pays 2·log2(S) half-sized steps — more steps
  but smaller messages, the bandwidth-bound regime's schedule.

The sweep is the registered ``reduce`` experiment, which verifies every
cell byte-identical to the single-node engine before its cost is
recorded — a schedule that got faster by reducing differently would be
measuring a different computation.

Headline numbers are appended to ``BENCH_reduction.json`` so the
trajectory travels with the repo.  ``FAFNIR_SMOKE=1`` shrinks the batch
stream for CI smoke runs.
"""

import os

from _common import append_trajectory, run_once, write_report
from repro.analysis import Table
from repro.experiments import get_experiment

SMOKE = bool(int(os.environ.get("FAFNIR_SMOKE", "0")))

SHARD_COUNTS = [2, 4, 8, 16]
BATCHES = 2 if SMOKE else 4
BATCH_SIZE = 16 if SMOKE else 32


def test_reduction_sweep(benchmark):
    result = run_once(
        benchmark,
        lambda: get_experiment("reduce").run(
            shard_counts=SHARD_COUNTS, batches=BATCHES, batch_size=BATCH_SIZE
        ),
    )
    assert not result.failures, result.failures
    data = result.data

    table = Table(
        [
            "shards",
            "schedule",
            "steps",
            "messages",
            "comm_bytes",
            "comm_cycles",
            "makespan_cycles",
            "identical",
            "wall_s",
        ]
    )
    levels = []
    for cell in data["cells"]:
        shards, name, reduced = cell["shards"], cell["schedule"], cell["reduced"]
        identical, wall_s = cell["identical"], cell["wall_s"]
        table.add_row(
            [
                shards,
                name,
                reduced.total_steps,
                reduced.total_messages,
                reduced.total_comm_bytes,
                reduced.comm_pe_cycles,
                reduced.makespan_pe_cycles,
                "yes" if identical else "NO",
                f"{wall_s:.3f}",
            ]
        )
        levels.append(
            {
                "shards": shards,
                "schedule": name,
                "steps": reduced.total_steps,
                "messages": reduced.total_messages,
                "comm_bytes": reduced.total_comm_bytes,
                "comm_cycles": reduced.comm_pe_cycles,
                "makespan_cycles": reduced.makespan_pe_cycles,
                "identical": identical,
                "wall_s": round(wall_s, 4),
            }
        )

    record = {
        "smoke": SMOKE,
        "batches": BATCHES,
        "batch_size": BATCH_SIZE,
        "query_len": data["query_len"],
        "link": data["link"].to_dict(),
        "levels": levels,
    }
    write_report("reduction", table, record=record)
    append_trajectory("reduction", record)

    # Correctness first: every schedule at every shard count reproduces
    # the single-node bytes.
    for level in levels:
        assert level["identical"], (level["shards"], level["schedule"])

    by_cell = {(l["shards"], l["schedule"]): l for l in levels}
    # Gather's serialized root ingress scales linearly; the butterfly's
    # log-depth schedule must beat it on modeled comm cycles at ≥8 shards.
    for shards in (8, 16):
        assert (
            by_cell[(shards, "recursive_doubling")]["comm_cycles"]
            < by_cell[(shards, "gather")]["comm_cycles"]
        ), shards
    # Step counts follow the textbook bounds: gather is one step per batch,
    # the butterfly log2(S) per batch, reduce-scatter+allgather twice that.
    for shards in SHARD_COUNTS:
        log2 = shards.bit_length() - 1
        assert by_cell[(shards, "gather")]["steps"] == BATCHES
        assert by_cell[(shards, "recursive_doubling")]["steps"] == BATCHES * log2
        assert by_cell[(shards, "reduce_scatter")]["steps"] == BATCHES * 2 * log2
