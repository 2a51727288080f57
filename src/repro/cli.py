"""Command-line interface for the FAFNIR reproduction.

Subcommands mirror the things a user actually does with the library:

* ``lookup``  — run a batch of embedding lookups on a chosen engine and
  print latency/data-movement measurements;
* ``compare`` — run the same batch on every engine and print the
  Fig. 11/13-style comparison table;
* ``spmv``    — multiply a synthetic sparse matrix on FAFNIR vs Two-Step;
* ``pagerank`` — rank a synthetic graph end to end;
* ``hw``      — print the hardware bookkeeping tables (buffers, area,
  power, FPGA utilization, connections);
* ``trace``   — capture a cycle-level event trace of one FAFNIR batch as
  Chrome ``trace_event`` JSON (open in Perfetto / ``chrome://tracing``),
  cross-check it against the run's ``LookupStats`` and print the derived
  metrics;
* ``validate`` / ``experiments`` — check the paper's numeric anchors, and
  regenerate any registered paper figure or table.

The system sweeps are registered experiments (:mod:`repro.experiments.sweeps`)
that this module only drives: every option is a keyword argument of the
runner, the result table is printed, each failed check prints a ``FAIL:``
line, and any failure makes the exit code 1.

* ``chaos``   — degraded ranks, flaky reads, vector corruption and a crashing
  shard worker through the sharded runner (``--seed``, ``--quick``,
  ``--out`` Chrome trace);
* ``serve``   — online serving sweep over offered QPS levels under a 25 µs
  SLO (``--qps``, ``--requests``, ``--closed-loop``, ``--users``,
  ``--cache-kb``, ``--min-attainment``);
* ``reduce``  — cross-shard reduction schedules × shard counts, every cell
  byte-identical to the single-node engine (``--shards``, ``--operator``);
* ``cache``   — hot-index tier hit rate, DRAM reads saved and p99 per cache
  size and Zipf skew, plus hit/no-hit control streams (``--sizes-kb``);
* ``resilience`` — link loss, stragglers, dead shards and an overload burst
  (``--min-attainment``, ``--out`` JSON summary).

Run ``python -m repro.cli <subcommand> --help`` for options.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional

import numpy as np

from repro.analysis import Table
from repro.baselines import (
    CentaurGatherEngine,
    CpuGatherEngine,
    FafnirGatherEngine,
    RecNmpGatherEngine,
    TensorDimmGatherEngine,
)
from repro.baselines.twostep import TwoStepSpmvEngine
from repro.core import FafnirConfig
from repro.core.engine import FafnirEngine
from repro.core.stats import trace_mismatches, tree_utilization
from repro.experiments import ExperimentResult, get_experiment, list_experiments
from repro.hw import (
    AsicPower,
    ConnectionComparison,
    reference_system_area,
    size_buffers,
    table5,
)
from repro.obs import (
    ChromeTraceSink,
    InMemorySink,
    JsonlSink,
    Tracer,
    chrome_trace_json,
    metrics_from_events,
    per_level_counts,
)
from repro.sparse import laplacian_2d, rmat
from repro.spmv import FafnirSpmvEngine, pagerank
from repro.validation import validate_anchors
from repro.workloads import EmbeddingTableSet, QueryGenerator

ENGINES = {
    "fafnir": lambda: FafnirGatherEngine(),
    "recnmp": lambda: RecNmpGatherEngine(),
    "recnmp-cache": lambda: RecNmpGatherEngine(with_cache=True),
    "tensordimm": lambda: TensorDimmGatherEngine(),
    "centaur": lambda: CentaurGatherEngine(),
    "cpu": lambda: CpuGatherEngine(),
}


def _batch_size(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _query_len(text: str) -> int:
    value = int(text)
    limit = FafnirConfig().max_query_len
    if not 1 <= value <= limit:
        raise argparse.ArgumentTypeError(f"must be in 1..{limit}, got {value}")
    return value


def _make_batch(batch_size: int, query_len: int, seed: int):
    tables = EmbeddingTableSet.random(seed=seed)
    generator = QueryGenerator.paper_calibrated(
        tables, seed=seed, query_len=query_len
    )
    return tables, generator.batch(batch_size)


def _cmd_lookup(args: argparse.Namespace) -> int:
    tables, batch = _make_batch(args.batch_size, args.query_len, args.seed)
    engine = ENGINES[args.engine]()
    result = engine.lookup(batch, tables.vector)
    timing = result.timing
    print(f"engine: {args.engine}")
    print(f"batch: {len(batch)} queries × {args.query_len} lookups")
    print(f"total latency: {timing.total_ns / 1000:.2f} µs")
    print(
        f"  memory {timing.memory_ns / 1000:.2f} µs | ndp "
        f"{timing.ndp_compute_ns / 1000:.2f} µs | core "
        f"{timing.core_compute_ns / 1000:.2f} µs | transfer "
        f"{timing.transfer_ns / 1000:.2f} µs"
    )
    print(f"DRAM reads: {result.dram_reads}, bytes to core: {result.bytes_to_core}")
    if result.cache_hits:
        print(f"cache hits: {result.cache_hits}")
    return 0


def _cmd_compare(args: argparse.Namespace) -> int:
    tables, batch = _make_batch(args.batch_size, args.query_len, args.seed)
    table = Table(["engine", "total_us", "speedup_vs_cpu", "bytes_to_core", "dram_reads"])
    baseline_ns: Optional[float] = None
    for name in ("cpu", "tensordimm", "centaur", "recnmp", "recnmp-cache", "fafnir"):
        result = ENGINES[name]().lookup(batch, tables.vector)
        if baseline_ns is None:
            baseline_ns = result.total_ns
        table.add_row(
            [
                name,
                f"{result.total_ns / 1000:.2f}",
                f"{baseline_ns / result.total_ns:.2f}×",
                result.bytes_to_core,
                result.dram_reads,
            ]
        )
    print(table.render())
    return 0


def _cmd_spmv(args: argparse.Namespace) -> int:
    if args.kind == "stencil":
        matrix = laplacian_2d(args.size)
    else:
        matrix = rmat(args.size.bit_length(), edge_factor=8, seed=args.seed)
    x = np.random.default_rng(args.seed).normal(size=matrix.shape[1])
    fafnir = FafnirSpmvEngine().multiply(matrix, x)
    twostep = TwoStepSpmvEngine().multiply(matrix, x)
    assert np.allclose(fafnir.y, twostep.y)
    table = Table(["engine", "step1_us", "merge_us", "total_us"])
    for name, stats in (("fafnir", fafnir.stats), ("two-step", twostep.stats)):
        table.add_row(
            [
                name,
                f"{stats.step1_ns / 1000:.1f}",
                f"{stats.merge_ns / 1000:.1f}",
                f"{stats.total_ns / 1000:.1f}",
            ]
        )
    print(f"matrix: {matrix.shape[0]}×{matrix.shape[1]}, nnz {matrix.nnz}")
    print(table.render())
    print(
        f"fafnir speedup: {twostep.stats.total_ns / fafnir.stats.total_ns:.2f}×"
    )
    return 0


def _cmd_pagerank(args: argparse.Namespace) -> int:
    graph = rmat(args.scale, edge_factor=8, seed=args.seed)
    result = pagerank(graph, FafnirSpmvEngine(), tolerance=args.tolerance)
    print(
        f"graph: {graph.shape[0]} vertices, {graph.nnz} edges — "
        f"converged={result.converged} in {result.iterations} iterations, "
        f"modelled hw time {result.total_ns / 1e6:.3f} ms"
    )
    top = np.argsort(result.values)[::-1][: args.top]
    for vertex in top:
        print(f"  vertex {vertex}: {result.values[vertex]:.6f}")
    return 0


def _cmd_hw(args: argparse.Namespace) -> int:
    config = FafnirConfig(batch_size=args.batch_size)
    sizing = size_buffers(config)
    area = reference_system_area()
    power = AsicPower()
    connections = ConnectionComparison(
        memory_devices=config.total_ranks, compute_devices=4
    )
    table = Table(["quantity", "value"])
    table.add_row(["PEs", config.num_pes])
    table.add_row(["tree levels", config.tree_levels])
    table.add_row(["PE buffer (KB)", f"{sizing.pe_buffer_kb:.1f}"])
    table.add_row(["DIMM/rank node buffer (KB)", f"{sizing.dimm_rank_node_kb:.1f}"])
    table.add_row(["system area (mm²)", f"{area.total_mm2:.3f}"])
    table.add_row(["system power (mW)", f"{power.total_mw:.2f}"])
    table.add_row(["connections (tree)", connections.fafnir])
    table.add_row(["connections (all-to-all)", connections.all_to_all])
    print(table.render())
    print("\nFPGA utilization (XCVU9P, %):")
    for resource, percent in table5().items():
        print(f"  {resource:8s} {percent:6.2f}")
    return 0


def _print_result(result: ExperimentResult) -> int:
    """Print a result and its failed checks; the exit code is 1 if any."""
    print(result.render())
    for failure in result.failures:
        print(f"FAIL: {failure}")
    return 1 if result.failures else 0


def _cmd_experiments(args: argparse.Namespace) -> int:
    if args.list or not args.run:
        for experiment in list_experiments():
            print(f"  {experiment.experiment_id:12s} {experiment.title}")
        return 0
    status = 0
    for experiment_id in args.run:
        status = max(status, _print_result(get_experiment(experiment_id).run()))
        print()
    return status


#: What ``--out`` writes for the sweeps that take it.
_OUT_PAYLOADS = {
    "chaos": lambda result: chrome_trace_json(result.data["events"]),
    "resilience": lambda result: result.data["summary"],
}


def _cmd_sweep(args: argparse.Namespace) -> int:
    """Run the registered experiment named like the subcommand; every
    other parsed option is a keyword argument of its runner."""
    options = {
        name: value
        for name, value in vars(args).items()
        if name not in ("command", "func", "out")
    }
    result = get_experiment(args.command).run(**options)
    status = _print_result(result)
    if getattr(args, "out", None):
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(_OUT_PAYLOADS[args.command](result), handle, indent=2)
        print(f"wrote {args.out}")
    return status


def _cmd_trace(args: argparse.Namespace) -> int:
    config = FafnirConfig(batch_size=args.batch_size)
    tables, batch = _make_batch(args.batch_size, args.query_len, args.seed)
    memory_sink = InMemorySink()
    tracer = Tracer([memory_sink, ChromeTraceSink(args.out)])
    if args.jsonl:
        tracer.add_sink(JsonlSink(args.jsonl))
    engine = FafnirEngine(config=config, tracer=tracer)
    result = engine.run_batch(batch, tables.vector, deduplicate=args.dedup)
    tracer.close()

    events = memory_sink.events
    print(f"traced {len(batch)} queries × {args.query_len} lookups")
    print(f"chrome trace: {args.out} ({len(events)} events)")
    if args.jsonl:
        print(f"jsonl trace:  {args.jsonl}")

    utilization = tree_utilization(
        engine.tree, result.stats, engine.memory.config.geometry
    )
    event_levels = per_level_counts(events)
    table = Table(["level", "pes", "reduces(stats)", "reduces(events)"])
    for level in utilization.levels:
        traced = event_levels.get(level.level, 0)
        table.add_row([level.level, level.pes, level.work.reduces, traced])
    print(table.render())
    # The event stream and LookupStats observe the same run independently:
    # any disagreement makes the run untrustworthy.
    mismatches = trace_mismatches(engine, result, events)
    for mismatch in mismatches:
        print(f"MISMATCH between event stream and LookupStats: {mismatch}")
    if mismatches:
        return 1

    snapshot = metrics_from_events(events).snapshot()
    print("\nevent counts:")
    for name, value in snapshot["counters"].items():
        if name.startswith("events."):
            print(f"  {name[len('events.'):]:18s} {value}")
    latency = snapshot["histograms"].get("query.latency_pe_cycles")
    if latency:
        print(
            "query latency (PE cycles): "
            f"p50 {latency['p50']:.0f} | p95 {latency['p95']:.0f} | "
            f"p99 {latency['p99']:.0f} | max {latency['max']:.0f}"
        )
    return 0


def _cmd_validate(args: argparse.Namespace) -> int:
    checks = validate_anchors()
    failures = 0
    for check in checks:
        print(check)
        if not check.ok:
            failures += 1
    print(f"\n{len(checks) - failures}/{len(checks)} anchors hold")
    return 1 if failures else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro", description="FAFNIR reproduction CLI"
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    lookup = subparsers.add_parser("lookup", help="run one batch on one engine")
    lookup.add_argument("--engine", choices=sorted(ENGINES), default="fafnir")
    lookup.add_argument("--batch-size", type=_batch_size, default=32)
    lookup.add_argument("--query-len", type=_query_len, default=16)
    lookup.add_argument("--seed", type=int, default=0)
    lookup.set_defaults(func=_cmd_lookup)

    compare = subparsers.add_parser("compare", help="compare all engines")
    compare.add_argument("--batch-size", type=_batch_size, default=32)
    compare.add_argument("--query-len", type=_query_len, default=16)
    compare.add_argument("--seed", type=int, default=0)
    compare.set_defaults(func=_cmd_compare)

    spmv = subparsers.add_parser("spmv", help="SpMV: FAFNIR vs Two-Step")
    spmv.add_argument("--kind", choices=("stencil", "graph"), default="stencil")
    spmv.add_argument("--size", type=int, default=64)
    spmv.add_argument("--seed", type=int, default=0)
    spmv.set_defaults(func=_cmd_spmv)

    rank = subparsers.add_parser("pagerank", help="PageRank on FAFNIR SpMV")
    rank.add_argument("--scale", type=int, default=10)
    rank.add_argument("--seed", type=int, default=0)
    rank.add_argument("--tolerance", type=float, default=1e-8)
    rank.add_argument("--top", type=int, default=5)
    rank.set_defaults(func=_cmd_pagerank)

    hw = subparsers.add_parser("hw", help="hardware bookkeeping tables")
    hw.add_argument("--batch-size", type=_batch_size, default=32)
    hw.set_defaults(func=_cmd_hw)

    trace = subparsers.add_parser(
        "trace", help="capture a cycle-level event trace of one batch"
    )
    trace.add_argument("--batch-size", type=_batch_size, default=32)
    trace.add_argument("--query-len", type=_query_len, default=16)
    trace.add_argument("--seed", type=int, default=0)
    trace.add_argument(
        "--out", default="fafnir_trace.json", help="Chrome trace JSON path"
    )
    trace.add_argument(
        "--jsonl", default=None, help="also write a compact JSONL event log"
    )
    trace.add_argument(
        "--no-dedup",
        dest="dedup",
        action="store_false",
        help="trace the no-deduplication ablation instead",
    )
    trace.set_defaults(func=_cmd_trace)

    def sweep(name: str, help_text: str) -> argparse.ArgumentParser:
        sub = subparsers.add_parser(name, help=help_text)
        sub.add_argument("--seed", type=int, default=0)
        sub.add_argument(
            "--quick", action="store_true", help="small configuration for CI smoke runs"
        )
        sub.set_defaults(func=_cmd_sweep)
        return sub

    chaos = sweep("chaos", "seeded fault-injection sweep with recovery report")
    chaos.add_argument(
        "--out", default=None, help="optional Chrome trace JSON of the chaos run"
    )

    serve = sweep("serve", "online serving sweep under a latency SLO")
    serve.add_argument(
        "--qps",
        type=float,
        nargs="+",
        default=None,
        help="offered QPS levels to sweep (default: 0.5M 2M 6M 12M)",
    )
    serve.add_argument("--requests", type=int, default=400, help="requests per level")
    serve.add_argument(
        "--closed-loop",
        action="store_true",
        help="fixed user population with think time instead of Poisson arrivals",
    )
    serve.add_argument("--users", type=int, default=32, help="closed-loop users")
    serve.add_argument(
        "--min-attainment",
        type=float,
        default=None,
        help="exit nonzero if worst SLO attainment falls below this floor",
    )
    serve.add_argument(
        "--cache-kb",
        type=int,
        default=None,
        help="enable the hot-index tier with this many KB per rank",
    )

    reduce = sweep("reduce", "cross-shard reduction schedule sweep")
    reduce.add_argument(
        "--shards",
        dest="shard_counts",
        type=int,
        nargs="+",
        default=None,
        help="shard counts to sweep (default: 2 4 8 16)",
    )
    reduce.add_argument(
        "--operator", choices=("sum", "mean", "min", "max"), default="sum"
    )

    resilience = sweep(
        "resilience", "chaos sweep: link faults, stragglers, dead shards, overload"
    )
    resilience.add_argument(
        "--min-attainment",
        type=float,
        default=None,
        help="floor on the admitted stream's SLO attainment under burst",
    )
    resilience.add_argument(
        "--out", default=None, help="write a JSON summary to this path"
    )

    cache = sweep("cache", "hot-index tier sweep: hit rate & p99 vs size and skew")
    cache.add_argument(
        "--sizes-kb",
        type=int,
        nargs="+",
        default=None,
        help="per-rank cache sizes to sweep in KB (default: 16 64 128 256)",
    )

    validate = subparsers.add_parser(
        "validate", help="check the paper's numeric anchors"
    )
    validate.set_defaults(func=_cmd_validate)

    experiments = subparsers.add_parser(
        "experiments", help="regenerate paper figures/tables"
    )
    experiments.add_argument("--list", action="store_true", help="list experiments")
    experiments.add_argument(
        "--run", nargs="*", metavar="ID", help="experiment ids to run (e.g. fig13)"
    )
    experiments.set_defaults(func=_cmd_experiments)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
