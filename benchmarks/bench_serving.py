"""Online serving sweep: latency, SLO attainment, and dedup vs offered load.

FAFNIR's batch dedup only pays off if the host can *form* shared batches,
and an online server can only wait for sharers while the latency SLO
allows.  This bench drives the continuous-batching front-end with Poisson
arrivals at several offered-QPS levels and records the trade the paper's
host-side story implies:

* at low load the batcher spends SLO budget waiting for sharers, so p50
  sits near the SLO but attainment stays perfect and dedup is real;
* near capacity batches fill on their own — latency drops while dedup
  savings rise with the arrival density;
* far past capacity queueing delay shows up as missed SLOs.

Headline numbers per level (p50/p99 latency, SLO attainment, dedup
savings) are appended to ``BENCH_serving.json`` so the trajectory travels
with the repo (same rev/date convention as the other perf benches).

``FAFNIR_SMOKE=1`` shrinks the request counts so the bench finishes in
seconds on CI smoke runs.
"""

import os

from _common import append_trajectory, run_once, write_report
from repro.analysis import Table
from repro.experiments import get_experiment

SMOKE = bool(int(os.environ.get("FAFNIR_SMOKE", "0")))

QPS_LEVELS = [0.5e6, 2e6, 6e6, 12e6]
REQUESTS = 150 if SMOKE else 600


def test_serving_sweep(benchmark):
    result = run_once(
        benchmark,
        lambda: get_experiment("serve").run(qps=QPS_LEVELS, requests=REQUESTS),
    )
    assert not result.failures, result.failures
    data = result.data

    table = Table(
        [
            "offered_qps",
            "requests",
            "mean_batch",
            "p50_us",
            "p99_us",
            "slo_attain",
            "dedup_savings",
            "wall_s",
        ]
    )
    levels = []
    for level in data["levels"]:
        qps, wall_s = level["qps"], level["wall_s"]
        summary = level["report"].summary()
        table.add_row(
            [
                f"{qps / 1e6:.2f}M",
                int(summary["requests"]),
                f"{summary['mean_batch_size']:.1f}",
                f"{summary['p50_us']:.2f}",
                f"{summary['p99_us']:.2f}",
                f"{summary['slo_attainment']:.3f}",
                f"{summary['dedup_savings_fraction']:.3f}",
                f"{wall_s:.3f}",
            ]
        )
        levels.append(
            {
                "qps": qps,
                "requests": int(summary["requests"]),
                "mean_batch": round(summary["mean_batch_size"], 2),
                "p50_us": round(summary["p50_us"], 3),
                "p99_us": round(summary["p99_us"], 3),
                "slo_attainment": round(summary["slo_attainment"], 4),
                "dedup_savings": round(summary["dedup_savings_fraction"], 4),
                "wall_s": round(wall_s, 4),
            }
        )

    record = {
        "smoke": SMOKE,
        "slo_us": data["slo_us"],
        "batch_size": data["batch_size"],
        "window": data["window"],
        "margin_us": data["margin_us"],
        "levels": levels,
    }
    write_report("serving", table, record=record)
    append_trajectory("serving", record)

    # Qualitative shape: attainment must be perfect well under capacity and
    # no better at the highest offered load; dedup savings must be real at
    # every level and grow (weakly) with the arrival density, because denser
    # arrivals give the window more sharers to group.
    by_qps = {level["qps"]: level for level in levels}
    assert by_qps[0.5e6]["slo_attainment"] == 1.0
    assert by_qps[12e6]["slo_attainment"] <= by_qps[2e6]["slo_attainment"]
    for level in levels:
        assert level["dedup_savings"] > 0.0
    assert by_qps[6e6]["dedup_savings"] >= by_qps[0.5e6]["dedup_savings"]
    # Denser arrivals fill batches: mean batch size is non-decreasing.
    assert by_qps[12e6]["mean_batch"] >= by_qps[0.5e6]["mean_batch"]
