"""Measure one workload in this process and print its record as JSON.

Started by ``run.py``, one fresh process per workload.  ``--setup-only``
stops after building the workload's part of the simulator and prints how
long that took, counted from before ``import repro``.

Host times are reported scaled to the host speed measured alongside them
(see ``hostspeed.py``); the wall-clock values stay in the record.
"""

import time

import hostspeed

SETUP_SLOWDOWN = hostspeed.slowdown()
T0 = time.perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import pathlib  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402

import numpy as np  # noqa: E402

SUITE = pathlib.Path(__file__).resolve().parent
sys.path.insert(0, str(SUITE.parents[1] / "src"))

import spans  # noqa: E402
import workloads  # noqa: E402
from repro.validation import validate_anchors  # noqa: E402

#: Timed reps 1..MODEL_REPS run in every run whatever ``--seconds`` says;
#: modeled metrics and per-layer counts come from them, so they repeat
#: exactly for a seed.
MODEL_REPS = 3
#: A host metric whose IQR exceeds this share of its median is unstable.
UNSTABLE_IQR = 0.10


def summary(values):
    """Median, quartiles and count of one host metric's per-rep samples."""
    values = list(values)
    if len(values) > 1:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    median = statistics.median(values)
    return {
        "median": median,
        "q1": q1,
        "q3": q3,
        "n": len(values),
        "unstable": (q3 - q1) > UNSTABLE_IQR * median,
    }


def gather_probe(rows=1 << 16, elements=128):
    """A function timing one ``np.take`` of random 512 B rows, in bytes/s.

    The table is 32 MiB; reads and the contiguous writes both count, as in
    the gather roofline bench.
    """
    rng = np.random.default_rng(0)
    table = rng.standard_normal((rows, elements), dtype=np.float32)
    indices = rng.integers(0, rows, rows // 2)
    out = np.empty((len(indices), elements), dtype=np.float32)

    def probe():
        start = time.perf_counter()
        np.take(table, indices, axis=0, out=out)
        return 2 * out.nbytes / (time.perf_counter() - start)

    return probe


def timed_run(workload, state, inputs, source):
    """Wall time and result of one run.

    Collections inside the run scan only objects the run created: without
    the freeze, the same 128x64 batch slowed from 2.5 s to 3.9 s over eight
    reps in one process as the header caches filled and every collection
    walked them.
    """
    gc.collect()
    gc.freeze()
    try:
        start = time.perf_counter()
        result = workload.run(state, inputs, source)
        return time.perf_counter() - start, result
    finally:
        gc.unfreeze()


def measure(workload, state, seed, seconds, trace=False):
    """Run warm-up rep 0, then timed reps until ``seconds`` have passed.

    Every rep's outputs are checked against the oracle.  With ``trace`` each
    timed rep runs twice on the same inputs, plain and with span wrappers
    installed, and workloads with a program-tracer pass run a third time
    with the program's columnar sink on; gather bandwidth is sampled before
    every rep for the roofline fraction.
    """
    attempted = failed = 0
    wall_rates, unique_bytes_per_s = [], []
    slowdowns = [hostspeed.slowdown()]
    modeled = []
    model_lookups = 0
    plain_s, wrapped_s, program_rates, program_events = [], [], [], []
    recorder = spans.SpanRecorder() if trace else None
    gather = gather_probe() if trace else None
    gather_rates = []
    start = time.perf_counter()
    rep = 0
    while rep <= MODEL_REPS or time.perf_counter() - start < seconds:
        inputs = workload.inputs(seed, rep)
        expected = workloads.oracle(inputs)
        source = inputs.vectors.__getitem__
        runs = []
        if gather is not None:
            gather_rates.extend(gather() for _ in range(5))

        wall, result = timed_run(workload, state, inputs, source)
        runs.append(result)
        if rep and trace:
            plain_s.append(wall)
            with recorder:
                traced_wall, traced = timed_run(
                    workload, state, inputs, recorder.source(source)
                )
            recorder.end_rep(traced_wall, rep, workload.members(traced))
            wrapped_s.append(traced_wall)
            runs.append(traced)
            if workload.traced_pass:
                engine, sink = workload.traced_setup()
                program_wall, program = timed_run(workload, engine, inputs, source)
                program_rates.append(inputs.lookups / program_wall)
                program_events.append(sink.recorded)
                runs.append(program)
        for output in runs:
            attempted += len(inputs.queries)
            failed += workloads.failures(*workload.outputs(output), expected)

        if rep:
            wall_rates.append(inputs.lookups / wall)
            unique_bytes_per_s.append(
                workload.unique_reads(result) * workload.config.vector_bytes / wall
            )
            if rep <= MODEL_REPS:
                modeled.append(workload.modeled(result))
                model_lookups += inputs.lookups
            if rep == MODEL_REPS:
                # The program's caches keep growing with the rep count, so
                # the peak is read after the reps every run makes.
                peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        rep += 1
        slowdowns.append(hostspeed.slowdown())

    # Each timed rep is scaled by the mean slowdown measured on either side.
    lookups_per_s = [
        rate * (slowdowns[timed] + slowdowns[timed + 1]) / 2
        for timed, rate in enumerate(wall_rates, start=1)
    ]
    anchors = validate_anchors()
    record = {
        "workload": workload.name,
        "seed": seed,
        "reps": rep - 1,
        "attempted": attempted,
        "failed": failed,
        "anchors_held": sum(anchor.ok for anchor in anchors) / len(anchors),
        "peak_rss_mb": peak_rss_mb,
        "host": {
            "lookups_per_s": summary(lookups_per_s),
            "wall_lookups_per_s": summary(wall_rates),
            "unique_bytes_per_s": summary(unique_bytes_per_s),
            "slowdown": summary(slowdowns),
        },
    }
    latencies = sorted(value for rep_model in modeled for value in rep_model.latencies_us)
    # Modeled latencies fall on a 5 ns grid, and on serve-trickle half of
    # them sit at the batcher's 22 us hold, so p50 and p99 read the same for
    # every seed; the mean and the mean of the slowest 1% still move.
    record["modeled"] = {
        "modeled_queries_per_s": sum(m.queries for m in modeled)
        / sum(m.seconds for m in modeled),
        "modeled_mean_us": statistics.fmean(latencies),
        "modeled_tail_us": statistics.fmean(latencies[-max(1, len(latencies) // 100):]),
        "modeled_p50_us": spans.percentile(latencies, 50),
        "modeled_p99_us": spans.percentile(latencies, 99),
        "samples": len(latencies),
    }
    if trace:
        layers = spans.layer_metrics(recorder, MODEL_REPS, model_lookups)
        layers["trace.overhead"] = statistics.median(wrapped_s) / statistics.median(plain_s)
        traced_rate = statistics.median(program_rates) if program_rates else 0.0
        layers["engine.roofline_frac"] = (
            statistics.median(unique_bytes_per_s) / statistics.median(gather_rates)
        )
        layers["obs.events"] = sum(program_events[:MODEL_REPS])
        layers["obs.traced_lookups_per_s"] = traced_rate
        layers["obs.overhead"] = (
            statistics.median(wall_rates) / traced_rate if traced_rate else 0.0
        )
        record["layers"] = layers
        record["spans"] = spans.spans_document(recorder)
    return record


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    workload = workloads.all_workloads()[args.workload]
    state = workload.setup()
    setup_wall_s = time.perf_counter() - T0
    if args.setup_only:
        print(json.dumps({"setup_s": setup_wall_s / SETUP_SLOWDOWN}))
        return
    record = measure(workload, state, args.seed, args.seconds, bool(args.trace))
    if args.trace:
        out = SUITE / "out"
        out.mkdir(exist_ok=True)
        with open(out / f"{workload.name}.spans.json", "w") as handle:
            json.dump(record.pop("spans"), handle)
    record["setup_s"] = setup_wall_s / SETUP_SLOWDOWN
    record["setup_wall_s"] = setup_wall_s
    print(json.dumps(record))


if __name__ == "__main__":
    main()
