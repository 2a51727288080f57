"""The repo benchmark: seeded workloads, end-to-end and per-layer metrics.

    python3 benchmarks/suite/run.py [--workload NAME]... [--seed N]
        [--seconds S] [--trace [0|1]] [--out PATH]

Each workload runs in a fresh worker process, one at a time.  Without
``--trace`` the run prints every end-to-end metric of ``BENCHMARK.json``;
with it, every per-layer metric from a run with span wrappers installed.
The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; the full record, with quartiles
and sample counts, goes to ``--out``.  The exit code is non-zero when an
output misses the oracle or a paper anchor fails.
"""

import argparse
import json
import pathlib
import statistics
import subprocess
import sys

SUITE = pathlib.Path(__file__).resolve().parent
ROOT = SUITE.parents[1]
#: Fresh processes that only set up, besides the worker's own set-up.
SETUP_PROBES = 4
WORKER_TIMEOUT_S = 170


def worker(name, *args):
    """Run the worker for one workload and return its JSON record."""
    completed = subprocess.run(
        [sys.executable, str(SUITE / "worker.py"), "--workload", name, *args],
        stdout=subprocess.PIPE,
        text=True,
        cwd=ROOT,
        timeout=WORKER_TIMEOUT_S,
    )
    if completed.returncode != 0:
        raise RuntimeError(f"worker for {name} exited with {completed.returncode}")
    return json.loads(completed.stdout.strip().splitlines()[-1])


def end_to_end(record, setup_samples):
    return {
        "lookups_per_s": record["host"]["lookups_per_s"]["median"],
        "setup_s": statistics.median(setup_samples),
        "peak_rss_mb": record["peak_rss_mb"],
        "anchors_held": record["anchors_held"],
        **{
            name: value
            for name, value in record["modeled"].items()
            if name != "samples"
        },
    }


def main(argv=None):
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [workload["name"] for workload in declared["workloads"]]
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("--workload", action="append", choices=names,
                        help="repeatable; default: every workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=declared["run_seconds"],
                        help="measuring time per workload (default %(default)s)")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1), help="report the per-layer metrics")
    parser.add_argument("--out", type=pathlib.Path,
                        default=SUITE / "out" / "results.json")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no simulator sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    declared_metrics = declared["per_layer" if args.trace else "end_to_end"]
    units = {metric["name"]: metric["unit"] for metric in declared_metrics}
    selected = args.workload or names
    run_args = ["--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace)]
    results = {}
    for name in selected:
        setup_samples = [] if args.trace else [
            worker(name, "--setup-only")["setup_s"] for _ in range(SETUP_PROBES)
        ]
        record = worker(name, *run_args)
        if args.trace:
            values = record["layers"]
        else:
            setup_samples.append(record["setup_s"])
            values = end_to_end(record, setup_samples)
        missing = set(units) - set(values)
        if missing:
            raise RuntimeError(f"{name} did not report {sorted(missing)}")
        results[name] = {
            "metrics": {metric: values[metric] for metric in units},
            "setup_samples": setup_samples,
            "record": record,
        }
        print(f"== {name}: {record['reps']} timed reps, "
              f"{record['failed']}/{record['attempted']} outputs failed")
        for metric, unit in units.items():
            value = values[metric]
            shown = "null" if value is None else f"{value:.6g}"
            print(f"  {metric:32s} {shown:>14s} {unit}")
        spread = record["host"]["lookups_per_s"]
        if spread["unstable"] and not args.trace:
            print(f"warning: {name} lookups_per_s is unstable: IQR "
                  f"{spread['q1']:.4g}..{spread['q3']:.4g} around "
                  f"{spread['median']:.4g}", file=sys.stderr)

    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text(json.dumps({
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "workloads": results,
    }, indent=1))

    attempted = sum(r["record"]["attempted"] for r in results.values())
    failed = sum(r["record"]["failed"] for r in results.values())
    anchors_ok = all(r["record"]["anchors_held"] == 1.0 for r in results.values())
    metrics = {}
    for name, result in results.items():
        prefix = "" if len(results) == 1 else f"{name}:"
        for metric, value in result["metrics"].items():
            metrics[prefix + metric] = {"value": value, "unit": units[metric]}
    correct = failed == 0 and anchors_ok
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
