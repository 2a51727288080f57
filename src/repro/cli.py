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
  Chrome ``trace_event`` JSON (open in Perfetto / ``chrome://tracing``)
  and print the derived metrics;
* ``chaos``   — run a seeded fault-injection sweep (degraded ranks, flaky
  reads, vector corruption, a crashing shard worker) through the sharded
  runner under the graceful-degradation policy and print the recovery
  report: injected vs detected vs recovered, per-query statuses, and the
  p99 latency inflation against a clean baseline;
* ``serve``   — drive the online serving front-end: Poisson (or
  closed-loop) arrivals at one or more QPS levels through the admission +
  continuous-batching scheduler under a latency SLO, printing p50/p99
  latency, SLO attainment, dedup savings, and mean batch size per level;
* ``reduce``  — sweep the cross-shard reduction schedules (gather-to-root,
  reduce-scatter + allgather, recursive-doubling) over shard counts on a
  modeled inter-node link, verifying every cell byte-identical to the
  single-node engine and printing messages/bytes/steps/comm-cycle costs;
* ``cache``   — sweep the opt-in hot-index tier (``src/repro/tiering``)
  over per-rank cache sizes and Zipf skews: hit rate, DRAM reads saved on
  top of dedup alone, and p99 query latency per cell, with every cached
  run verified byte-identical to its uncached twin.

Run ``python -m repro.cli <subcommand> --help`` for options.
"""

from __future__ import annotations

import argparse
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
from repro.hw import (
    AsicPower,
    ConnectionComparison,
    reference_system_area,
    size_buffers,
    table5,
)
from repro.core.engine import FafnirEngine
from repro.core.sharding import ShardedRunner, fleet_makespan_pe_cycles, shard_batches
from repro.core.stats import tree_utilization
from repro.faults import FaultPlan, FaultPolicy, STATUSES, recovery_report
from repro.obs import (
    ChromeTraceSink,
    InMemorySink,
    JsonlSink,
    Tracer,
    metrics_from_events,
    per_level_counts,
)
from repro.sparse import laplacian_2d, rmat
from repro.experiments import get_experiment, list_experiments
from repro.validation import validate_anchors
from repro.spmv import FafnirSpmvEngine, pagerank
from repro.workloads import EmbeddingTableSet, QueryGenerator

ENGINES = {
    "fafnir": lambda: FafnirGatherEngine(),
    "recnmp": lambda: RecNmpGatherEngine(),
    "recnmp-cache": lambda: RecNmpGatherEngine(with_cache=True),
    "tensordimm": lambda: TensorDimmGatherEngine(),
    "centaur": lambda: CentaurGatherEngine(),
    "cpu": lambda: CpuGatherEngine(),
}


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


def _cmd_experiments(args: argparse.Namespace) -> int:
    if args.list or not args.run:
        for experiment in list_experiments():
            print(f"  {experiment.experiment_id:12s} {experiment.title}")
        return 0
    for experiment_id in args.run:
        result = get_experiment(experiment_id).run()
        print(result.render())
        print()
    return 0


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

    # Cross-check: reduce events per level must equal the LookupStats
    # level aggregation — the two observability paths agree or the run
    # is untrustworthy.
    utilization = tree_utilization(
        engine.tree, result.stats, engine.memory.config.geometry
    )
    event_levels = per_level_counts(events)
    table = Table(["level", "pes", "reduces(stats)", "reduces(events)"])
    mismatch = False
    for level in utilization.levels:
        traced = event_levels.get(level.level, 0)
        mismatch = mismatch or traced != level.work.reduces
        table.add_row([level.level, level.pes, level.work.reduces, traced])
    print(table.render())
    if mismatch:
        print("MISMATCH between event stream and LookupStats aggregation")
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


def _cmd_chaos(args: argparse.Namespace) -> int:
    """Seeded chaos sweep through the fault-tolerant sharded runner."""
    import json

    from repro.obs.sinks import chrome_trace_json

    if args.quick:
        batches, shards, batch_size, query_len = 2, 2, 8, 8
    else:
        batches, shards, batch_size, query_len = 8, 4, 32, 16
    tables = EmbeddingTableSet.random(seed=args.seed)
    generator = QueryGenerator.paper_calibrated(
        tables, seed=args.seed, query_len=query_len
    )
    stream = [generator.batch(batch_size) for _ in range(batches)]
    shard_streams = shard_batches(stream, shards)
    total_queries = sum(len(batch) for batch in stream)

    clean_runner = ShardedRunner(trace=True)
    clean = clean_runner.run(shard_streams, tables.vector)

    plan = FaultPlan(
        seed=args.seed,
        rank_latency_multipliers={0: 4.0, 1: 4.0},
        rank_timeout_probability={2: 0.2},
        vector_corruption_probability=0.01,
        crash_shards=frozenset({0}),
        crash_attempts=1,
    )
    policy = FaultPolicy.graceful(shard_timeout_s=args.shard_timeout)
    runner = ShardedRunner(trace=True, faults=plan, fault_policy=policy)
    results = runner.run(shard_streams, tables.vector)

    events = [
        event
        for result in results
        for event in (result.events or [])
    ]
    statuses = [status for result in results for status in result.statuses]
    print(
        f"chaos run: seed {args.seed}, {total_queries} queries in "
        f"{batches} batches across {len(shard_streams)} shards"
    )
    print(
        "faults: ranks 0,1 degraded 4.0×, rank 2 flaky (p=0.2), "
        "1% vector corruption, shard 0 worker crash"
    )
    print()
    print(recovery_report(events).render())

    counts = {status: statuses.count(status) for status in STATUSES}
    accounted = sum(counts.values())
    print(
        f"  query statuses: "
        + ", ".join(f"{counts[s]} {s}" for s in STATUSES)
        + f" ({accounted}/{total_queries} accounted)"
    )

    clean_p99 = (
        metrics_from_events(
            [e for r in clean for e in (r.events or [])]
        )
        .histogram("query.latency_pe_cycles")
        .percentile(99)
    )
    chaos_p99 = (
        metrics_from_events(events)
        .histogram("query.latency_pe_cycles")
        .percentile(99)
    )
    inflation = chaos_p99 / clean_p99 if clean_p99 else 0.0
    print(
        f"  p99 query latency: {clean_p99:.0f} → {chaos_p99:.0f} PE cycles "
        f"({inflation:.2f}× inflation)"
    )
    print(
        f"  fleet makespan: {fleet_makespan_pe_cycles(clean)} → "
        f"{fleet_makespan_pe_cycles(results)} PE cycles"
    )
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(chrome_trace_json(events), handle)
        print(f"  chrome trace: {args.out} ({len(events)} events)")
    return 0 if accounted == total_queries else 1


def _cmd_serve(args: argparse.Namespace) -> int:
    """Online serving sweep: one simulated run per offered QPS level."""
    from repro.serving import (
        ClosedLoopGenerator,
        ContinuousBatcher,
        OpenLoopGenerator,
        RampStage,
        ServingSimulator,
    )

    qps_levels = args.qps or ([0.5e6, 4e6] if args.quick else [0.5e6, 2e6, 6e6, 12e6])
    n_requests = 120 if args.quick else args.requests
    tables = EmbeddingTableSet.random(seed=args.seed)
    tier = None
    if args.cache_kb:
        from repro.tiering import HotTierConfig

        tier = HotTierConfig(
            size_bytes=args.cache_kb * 1024, line_bytes=tables.vector_bytes
        )
    columns = [
        "offered_qps",
        "requests",
        "mean_batch",
        "interactive",
        "p50_us",
        "p99_us",
        "slo_attain",
        "dedup_savings",
    ]
    if tier is not None:
        columns.append("cache_hit")
    table = Table(columns)
    worst_attainment = 1.0
    for qps in qps_levels:
        queries = QueryGenerator.paper_calibrated(
            tables, seed=args.seed + 1, query_len=args.query_len
        )
        if args.closed_loop:
            load = ClosedLoopGenerator(
                queries,
                users=args.users,
                think_time_us=args.think_us,
                slo_us=args.slo_us,
                requests_per_user=max(1, n_requests // args.users),
                seed=args.seed + 2,
            )
        else:
            load = OpenLoopGenerator(
                queries,
                [RampStage(qps=qps, duration_us=n_requests / qps * 1e6)],
                slo_us=args.slo_us,
                seed=args.seed + 2,
            )
        simulator = ServingSimulator(
            batcher=ContinuousBatcher(
                batch_size=args.batch_size,
                window=args.window,
                dispatch_margin_us=args.margin_us,
            ),
            interactive_fallback=not args.no_interactive,
            cache=tier,
        )
        report = simulator.run(load, tables.vector)
        summary = report.summary()
        worst_attainment = min(worst_attainment, summary["slo_attainment"])
        row = [
            f"{qps / 1e6:.2f}M",
            int(summary["requests"]),
            f"{summary['mean_batch_size']:.1f}",
            int(summary["interactive_dispatches"]),
            f"{summary['p50_us']:.2f}",
            f"{summary['p99_us']:.2f}",
            f"{summary['slo_attainment']:.3f}",
            f"{summary['dedup_savings_fraction']:.3f}",
        ]
        if tier is not None:
            row.append(f"{summary['cache_hit_rate']:.3f}")
        table.add_row(row)
    mode = "closed-loop" if args.closed_loop else "open-loop (Poisson)"
    cache_note = f", cache {args.cache_kb} KB/rank" if tier is not None else ""
    print(
        f"serving sweep: {mode}, SLO {args.slo_us:.1f} µs, batch "
        f"{args.batch_size}, window {args.window}, seed {args.seed}"
        f"{cache_note}"
    )
    print(table.render())
    if args.min_attainment is not None and worst_attainment < args.min_attainment:
        print(
            f"FAIL: worst SLO attainment {worst_attainment:.3f} below floor "
            f"{args.min_attainment:.3f}"
        )
        return 1
    return 0


def _cmd_reduce(args: argparse.Namespace) -> int:
    """Cross-shard reduction sweep: schedules × shard counts, verified."""
    from repro.comm import SCHEDULES, LinkModel

    if args.quick:
        shard_counts = [2, 4]
        batches_n, batch_size, query_len = 2, 8, 8
        config = FafnirConfig(
            total_ranks=16, ranks_per_leaf_pe=2, batch_size=8, max_query_len=8
        )
    else:
        shard_counts = args.shards or [2, 4, 8, 16]
        batches_n, batch_size, query_len = 4, 32, 16
        config = FafnirConfig()
    link = LinkModel(
        latency_ns=args.link_latency_ns, bandwidth_gb_s=args.link_gb_s
    )
    tables = EmbeddingTableSet.random(seed=args.seed)
    generator = QueryGenerator.paper_calibrated(
        tables, seed=args.seed, query_len=query_len
    )
    stream = [generator.batch(batch_size) for _ in range(batches_n)]

    single = FafnirEngine(config=config, operator=args.operator)
    baseline = single.run_batches(stream, tables.vector)
    expected = [vector.tobytes() for vector in baseline.vectors]

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
        ]
    )
    failures = 0
    for shards in shard_counts:
        for name in sorted(SCHEDULES):
            runner = ShardedRunner(
                config=config,
                operator=args.operator,
                max_workers=1,
                reduction=name,
                num_shards=shards,
                link=link,
            )
            reduced = runner.run_reduced(stream, tables.vector)
            identical = [
                vector.tobytes() for vector in reduced.vectors
            ] == expected
            failures += 0 if identical else 1
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
                ]
            )
    total = len(stream) * len(stream[0])
    print(
        f"reduction sweep: {total} queries in {batches_n} batches, "
        f"operator {args.operator}, link {link.latency_ns:.0f} ns + "
        f"{link.bandwidth_gb_s:.0f} GB/s, seed {args.seed}"
    )
    print(table.render())
    if failures:
        print(f"FAIL: {failures} cells diverged from the single-node engine")
        return 1
    print("all cells byte-identical to the single-node engine")
    return 0


def _cmd_resilience(args: argparse.Namespace) -> int:
    """Chaos sweep through the end-to-end resilience stack.

    Reduction side: link loss, a straggler shard (hedged vs unhedged),
    and a dead shard (route-around vs fail-fast) on the cross-shard
    reduction.  Serving side: an overload burst at ~2× capacity with and
    without admission control.  ``--check`` turns the invariants into a
    non-zero exit code for CI.
    """
    import json

    from repro.comm import LinkModel
    from repro.resilience import HedgePolicy, OverloadPolicy
    from repro.serving import (
        ContinuousBatcher,
        OpenLoopGenerator,
        RampStage,
        ServingSimulator,
    )

    seed = args.seed
    if args.quick:
        shards, batches_n, batch_size, query_len = 4, 2, 8, 8
        config = FafnirConfig(
            total_ranks=16, ranks_per_leaf_pe=2, batch_size=8, max_query_len=8
        )
        n_requests = 60
    else:
        shards, batches_n, batch_size, query_len = 4, 4, 32, 16
        config = FafnirConfig()
        n_requests = 200
    tables = EmbeddingTableSet.random(seed=seed)
    generator = QueryGenerator.paper_calibrated(
        tables, seed=seed, query_len=query_len
    )
    stream = [generator.batch(batch_size) for _ in range(batches_n)]
    link = LinkModel(latency_ns=300.0, bandwidth_gb_s=20.0)
    failures: List[str] = []

    def check(condition: bool, label: str) -> None:
        if not condition:
            failures.append(label)

    def runner(**kwargs) -> ShardedRunner:
        return ShardedRunner(
            config=config,
            max_workers=1,
            reduction="gather",
            num_shards=shards,
            link=link,
            **kwargs,
        )

    table = Table(
        ["scenario", "outcome", "comm_cycles", "makespan", "identical"]
    )
    clean = runner().run_reduced(stream, tables.vector)
    clean_bytes = [vector.tobytes() for vector in clean.vectors]
    table.add_row(
        ["clean", "ok", clean.comm_pe_cycles, clean.makespan_pe_cycles, "-"]
    )

    # Installed-but-idle protection must not perturb a single byte.
    idle = runner(
        faults=FaultPlan(seed=seed),
        fault_policy=FaultPolicy.graceful(),
        hedge=HedgePolicy(),
    ).run_reduced(stream, tables.vector)
    idle_identical = [v.tobytes() for v in idle.vectors] == clean_bytes
    check(idle_identical, "idle protection not byte-identical")
    table.add_row(
        [
            "idle protection",
            "ok",
            idle.comm_pe_cycles,
            idle.makespan_pe_cycles,
            "yes" if idle_identical else "NO",
        ]
    )

    # Link loss: retransmissions inflate comm cycles, never change bytes.
    # The reference cell samples at the configured (low) rate; the stress
    # cell drops half of all messages so the inflation invariant always
    # has drops to bite on (a handful of messages at 1% may sample none).
    def lossy_run(probability: float):
        plan = FaultPlan(seed=seed, link_loss_probability=probability)
        result = runner(
            faults=plan, fault_policy=FaultPolicy.graceful()
        ).run_reduced(stream, tables.vector)
        identical = [v.tobytes() for v in result.vectors] == clean_bytes
        drops = recovery_report(result.events).injected.get("link_loss", 0)
        check(
            identical, f"link loss {probability:.0%} changed reduced bytes"
        )
        table.add_row(
            [
                f"link loss {probability:.0%}",
                f"{drops} drops",
                result.comm_pe_cycles,
                result.makespan_pe_cycles,
                "yes" if identical else "NO",
            ]
        )
        return result, drops

    lossy, _ = lossy_run(args.link_loss)
    stressed, stress_drops = lossy_run(0.5)
    check(stress_drops > 0, "50% link loss sampled no drops")
    check(
        stressed.comm_pe_cycles > clean.comm_pe_cycles,
        "link loss did not inflate comm cycles",
    )

    # One straggler shard, unhedged vs hedged: first-result-wins should
    # pull the makespan back toward clean.
    active = clean.active_pieces
    straggler_piece = active[len(active) // 2]
    straggler_plan = FaultPlan(
        seed=seed,
        straggler_multipliers={straggler_piece: args.straggler_factor},
    )
    unhedged = runner(
        faults=straggler_plan, fault_policy=FaultPolicy.graceful()
    ).run_reduced(stream, tables.vector)
    hedged = runner(
        faults=straggler_plan,
        fault_policy=FaultPolicy.graceful(),
        hedge=HedgePolicy(),
    ).run_reduced(stream, tables.vector)
    hedged_identical = [v.tobytes() for v in hedged.vectors] == clean_bytes
    check(hedged_identical, "hedging changed reduced bytes")
    check(
        hedged.makespan_pe_cycles <= unhedged.makespan_pe_cycles,
        "hedged makespan above unhedged",
    )
    check(hedged.hedges.wins >= 1, "hedging never won a race")
    table.add_row(
        [
            f"straggler ×{args.straggler_factor:.0f}",
            "unhedged",
            unhedged.comm_pe_cycles,
            unhedged.makespan_pe_cycles,
            "yes",
        ]
    )
    table.add_row(
        [
            f"straggler ×{args.straggler_factor:.0f}",
            f"hedged ({hedged.hedges.wins} wins, "
            f"{hedged.hedges.saved_cycles} cyc saved)",
            hedged.comm_pe_cycles,
            hedged.makespan_pe_cycles,
            "yes" if hedged_identical else "NO",
        ]
    )

    # Dead shard: graceful routes around it (untouched queries stay
    # bit-identical), fail-fast refuses to serve partial answers.
    dead_piece = active[0]
    dead_plan = FaultPlan(seed=seed, dead_shards=frozenset({dead_piece}))
    routed = runner(
        faults=dead_plan, fault_policy=FaultPolicy.graceful()
    ).run_reduced(stream, tables.vector)
    statuses = routed.statuses
    flat_queries = [query for batch in stream for query in batch]
    untouched_identical = True
    touched = 0
    for position, query in enumerate(flat_queries):
        hits_dead = any(
            routed.partition.owner(index) == dead_piece for index in query
        )
        if hits_dead:
            touched += 1
            untouched_identical &= statuses[position] != "ok"
        else:
            untouched_identical &= (
                routed.vectors[position].tobytes() == clean_bytes[position]
            )
    check(untouched_identical, "dead-shard route-around broke untouched queries")
    check(touched > 0, "dead shard touched no queries (pick a hotter piece)")
    try:
        runner(faults=dead_plan, fault_policy=FaultPolicy()).run_reduced(
            stream, tables.vector
        )
        fail_fast_raised = False
    except Exception:
        fail_fast_raised = True
    check(fail_fast_raised, "fail-fast served answers from a dead shard")
    table.add_row(
        [
            f"dead shard (piece {dead_piece})",
            f"{touched} queries degraded, fail-fast "
            + ("raises" if fail_fast_raised else "DID NOT RAISE"),
            routed.comm_pe_cycles,
            routed.makespan_pe_cycles,
            "yes" if untouched_identical else "NO",
        ]
    )

    print(
        f"reduction resilience: {len(flat_queries)} queries, {shards} shards, "
        f"seed {seed}"
    )
    print(table.render())
    print()

    # ---- serving overload ------------------------------------------------
    def serve_run(qps: float, count: int, protect: bool) -> "ServingReport":
        load = OpenLoopGenerator(
            QueryGenerator.paper_calibrated(
                tables, seed=seed + 1, query_len=query_len
            ),
            [RampStage(qps=qps, duration_us=count / qps * 1e6)],
            slo_us=args.slo_us,
            seed=seed + 2,
        )
        simulator = ServingSimulator(
            batcher=ContinuousBatcher(batch_size=16, window=64),
            overload=OverloadPolicy() if protect else None,
        )
        return simulator.run(load, tables.vector)

    # Probe capacity: swamp the server and read back the drain rate.
    probe = serve_run(1e9, n_requests, protect=False)
    capacity_qps = probe.observed_qps
    # The burst must outlast the SLO budget's worth of backlog, or the
    # queue drains before anyone can miss.
    burst_n = max(n_requests, int(capacity_qps * args.slo_us * 3 / 1e6))
    base = serve_run(0.5 * capacity_qps, n_requests, protect=False)
    burst = serve_run(args.burst_factor * capacity_qps, burst_n, protect=False)
    shed = serve_run(args.burst_factor * capacity_qps, burst_n, protect=True)
    admitted = [r for r in shed.records if r.status != "shed"]
    admitted_ok = sum(1 for r in admitted if r.slo_met) / max(len(admitted), 1)
    burst_ok = sum(1 for r in burst.records if r.slo_met) / max(
        len(burst.records), 1
    )
    check(
        admitted_ok >= burst_ok,
        "shedding did not improve the admitted stream's attainment",
    )
    check(
        shed.latency_percentile_us(99) <= burst.latency_percentile_us(99),
        "shedding did not improve served p99",
    )
    serving_table = Table(
        ["scenario", "offered_qps", "attainment", "p99_us", "shed"]
    )
    for label, report in (
        (f"base ({0.5:.1f}× capacity)", base),
        (f"burst ({args.burst_factor:.1f}× capacity)", burst),
        (f"burst + shedding", shed),
    ):
        serving_table.add_row(
            [
                label,
                f"{report.observed_qps / 1e6:.2f}M",
                f"{report.slo_attainment:.3f}",
                f"{report.latency_percentile_us(99):.2f}",
                f"{report.shed_fraction:.3f}",
            ]
        )
    print(
        f"serving overload: capacity ≈ {capacity_qps / 1e6:.2f}M qps, "
        f"SLO {args.slo_us:.1f} µs, admitted stream on-SLO "
        f"{admitted_ok:.3f} vs {burst_ok:.3f} unprotected"
    )
    print(serving_table.render())

    if args.min_attainment is not None:
        check(
            admitted_ok >= args.min_attainment,
            f"admitted attainment {admitted_ok:.3f} below floor "
            f"{args.min_attainment:.3f}",
        )

    if args.out:
        payload = {
            "seed": seed,
            "clean_comm_cycles": clean.comm_pe_cycles,
            "lossy_comm_cycles": lossy.comm_pe_cycles,
            "unhedged_makespan": unhedged.makespan_pe_cycles,
            "hedged_makespan": hedged.makespan_pe_cycles,
            "hedge_wins": hedged.hedges.wins,
            "capacity_qps": capacity_qps,
            "burst_attainment": burst.slo_attainment,
            "shed_attainment": shed.slo_attainment,
            "admitted_attainment": admitted_ok,
            "shed_fraction": shed.shed_fraction,
            "failures": failures,
        }
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=2)
        print(f"summary written to {args.out}")

    if failures:
        print("FAIL:")
        for failure in failures:
            print(f"  - {failure}")
        return 1 if args.check else 0
    print("all resilience invariants held")
    return 0


def _cmd_cache(args: argparse.Namespace) -> int:
    """Hot-index tier sweep: hit rate and p99 vs cache size and Zipf α.

    Every cached cell is compared byte-for-byte against the dedup-only
    baseline it shares a stream with — the tier is a timing mechanism and
    any functional divergence fails the sweep.  ``--check`` runs the CI
    smoke assertions instead: a skewed stream must hit, a uniform stream
    of never-repeating ids must not.
    """
    from repro.tiering import HotTierConfig

    if args.quick:
        batches_n, batch_size, query_len = 3, 8, 8
        config = FafnirConfig(
            total_ranks=8, ranks_per_leaf_pe=2, batch_size=8, max_query_len=8
        )
        sizes_kb = args.sizes_kb or [8, 32]
        alphas = args.alphas or [1.05]
        hot_rows = 512
    else:
        batches_n, batch_size, query_len = 6, 32, 16
        config = FafnirConfig()
        sizes_kb = args.sizes_kb or [16, 64, 128, 256]
        alphas = args.alphas or [0.8, 1.05, 1.65]
        hot_rows = 4096
    tables = EmbeddingTableSet.random(seed=args.seed)

    def run_stream(alpha: float, tier) -> dict:
        generator = QueryGenerator(
            tables,
            query_len=query_len,
            skew=alpha,
            hot_rows=hot_rows,
            seed=args.seed,
        )
        stream = [generator.batch(batch_size) for _ in range(batches_n)]
        engine = FafnirEngine(config=config, cache=tier)
        result = engine.run_batches(stream, tables.vector, deduplicate=True)
        cycles = sorted(
            cycle for item in result.results for cycle in item.ready_pe_cycles
        )
        stats = engine.memory.cache_stats
        return {
            "bytes": tuple(vector.tobytes() for vector in result.vectors),
            "reads": result.memory_stats.reads,
            "hit_rate": stats.hit_rate,
            "hits": stats.hits,
            "p99": cycles[min(len(cycles) - 1, int(len(cycles) * 0.99))],
        }

    if args.check:
        tier = HotTierConfig(
            size_bytes=128 * 1024, line_bytes=config.vector_bytes
        )
        skewed = run_stream(1.05, tier)
        # Uniform control: sequential never-repeating ids cannot hit a
        # demand-filled cache (dedup removes within-batch repeats anyway).
        unique = iter(range(10**9))
        batches = [
            [[next(unique) for _ in range(query_len)] for _ in range(batch_size)]
            for _ in range(batches_n)
        ]
        engine = FafnirEngine(config=config, cache=tier)
        engine.run_batches(batches, make_unique_source(config), deduplicate=True)
        uniform = engine.memory.cache_stats
        print(
            f"check: zipf hit rate {skewed['hit_rate']:.3f}, "
            f"uniform hit rate {uniform.hit_rate:.3f}"
        )
        if skewed["hit_rate"] <= 0.0:
            print("FAIL: Zipf(1.05) stream produced no cache hits")
            return 1
        if uniform.hit_rate != 0.0:
            print("FAIL: uniform-unique stream produced cache hits")
            return 1
        print("cache smoke passed")
        return 0

    table = Table(
        [
            "alpha",
            "cache_kb",
            "hit_rate",
            "dram_reads",
            "read_drop",
            "p99_cycles",
            "identical",
        ]
    )
    failures = 0
    for alpha in alphas:
        baseline = run_stream(alpha, None)
        table.add_row(
            [
                f"{alpha:.2f}",
                "dedup-only",
                "—",
                baseline["reads"],
                "—",
                baseline["p99"],
                "—",
            ]
        )
        for kb in sizes_kb:
            tier = HotTierConfig(
                size_bytes=kb * 1024,
                line_bytes=config.vector_bytes,
                policy=args.policy,
            )
            cached = run_stream(alpha, tier)
            identical = cached["bytes"] == baseline["bytes"]
            failures += 0 if identical else 1
            drop = (
                1.0 - cached["reads"] / baseline["reads"]
                if baseline["reads"]
                else 0.0
            )
            table.add_row(
                [
                    f"{alpha:.2f}",
                    kb,
                    f"{cached['hit_rate']:.3f}",
                    cached["reads"],
                    f"{drop:.1%}",
                    cached["p99"],
                    "yes" if identical else "NO",
                ]
            )
    total = batches_n * batch_size
    print(
        f"hot-index tier sweep: {total} queries × {query_len} lookups per "
        f"cell, {config.total_ranks} ranks, line "
        f"{config.vector_bytes} B, policy {args.policy}, seed {args.seed}"
    )
    print(table.render())
    if failures:
        print(f"FAIL: {failures} cached cells diverged from dedup-only")
        return 1
    print("all cached cells byte-identical to the dedup-only baseline")
    return 0


class make_unique_source:
    """Deterministic vector source for arbitrarily large unique-id streams."""

    def __init__(self, config: FafnirConfig):
        self.elements = config.vector_elements

    def __call__(self, index: int) -> np.ndarray:
        return np.random.default_rng(index).standard_normal(self.elements)


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
    lookup.add_argument("--batch-size", type=int, default=32)
    lookup.add_argument("--query-len", type=int, default=16)
    lookup.add_argument("--seed", type=int, default=0)
    lookup.set_defaults(func=_cmd_lookup)

    compare = subparsers.add_parser("compare", help="compare all engines")
    compare.add_argument("--batch-size", type=int, default=32)
    compare.add_argument("--query-len", type=int, default=16)
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
    hw.add_argument("--batch-size", type=int, default=32)
    hw.set_defaults(func=_cmd_hw)

    trace = subparsers.add_parser(
        "trace", help="capture a cycle-level event trace of one batch"
    )
    trace.add_argument("--batch-size", type=int, default=32)
    trace.add_argument("--query-len", type=int, default=16)
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

    chaos = subparsers.add_parser(
        "chaos", help="seeded fault-injection sweep with recovery report"
    )
    chaos.add_argument("--seed", type=int, default=0)
    chaos.add_argument(
        "--quick",
        action="store_true",
        help="small configuration for CI smoke runs",
    )
    chaos.add_argument(
        "--shard-timeout",
        type=float,
        default=60.0,
        help="wall-clock seconds before a shard worker is declared hung",
    )
    chaos.add_argument(
        "--out", default=None, help="optional Chrome trace JSON of the chaos run"
    )
    chaos.set_defaults(func=_cmd_chaos)

    serve = subparsers.add_parser(
        "serve", help="online serving sweep under a latency SLO"
    )
    serve.add_argument(
        "--qps",
        type=float,
        nargs="+",
        default=None,
        help="offered QPS levels to sweep (default: 0.5M 2M 6M 12M)",
    )
    serve.add_argument("--requests", type=int, default=400, help="requests per level")
    serve.add_argument("--query-len", type=int, default=16)
    serve.add_argument("--batch-size", type=int, default=16)
    serve.add_argument(
        "--window", type=int, default=64, help="sharing-aware reorder window"
    )
    serve.add_argument("--slo-us", type=float, default=25.0, help="latency SLO (µs)")
    serve.add_argument(
        "--margin-us",
        type=float,
        default=3.0,
        help="dispatch a partial batch this many µs before the oldest deadline",
    )
    serve.add_argument("--seed", type=int, default=0)
    serve.add_argument(
        "--closed-loop",
        action="store_true",
        help="fixed user population with think time instead of Poisson arrivals",
    )
    serve.add_argument("--users", type=int, default=32, help="closed-loop users")
    serve.add_argument(
        "--think-us", type=float, default=4.0, help="closed-loop think time (µs)"
    )
    serve.add_argument(
        "--no-interactive",
        action="store_true",
        help="disable the low-load single-query fallback path",
    )
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
    serve.add_argument(
        "--quick",
        action="store_true",
        help="small configuration for CI smoke runs",
    )
    serve.set_defaults(func=_cmd_serve)

    reduce = subparsers.add_parser(
        "reduce", help="cross-shard reduction schedule sweep"
    )
    reduce.add_argument("--seed", type=int, default=0)
    reduce.add_argument(
        "--shards",
        type=int,
        nargs="+",
        default=None,
        help="shard counts to sweep (default: 2 4 8 16)",
    )
    reduce.add_argument(
        "--operator", choices=("sum", "mean", "min", "max"), default="sum"
    )
    reduce.add_argument(
        "--link-latency-ns",
        type=float,
        default=500.0,
        help="inter-node link latency per message (ns)",
    )
    reduce.add_argument(
        "--link-gb-s",
        type=float,
        default=25.0,
        help="inter-node link bandwidth (GB/s)",
    )
    reduce.add_argument(
        "--quick",
        action="store_true",
        help="small configuration for CI smoke runs",
    )
    reduce.set_defaults(func=_cmd_reduce)

    resilience = subparsers.add_parser(
        "resilience",
        help="chaos sweep: link faults, stragglers, dead shards, overload",
    )
    resilience.add_argument("--seed", type=int, default=0)
    resilience.add_argument(
        "--link-loss",
        type=float,
        default=0.01,
        help="per-message loss probability on the cross-shard links",
    )
    resilience.add_argument(
        "--straggler-factor",
        type=float,
        default=4.0,
        help="slowdown multiplier of the straggling shard",
    )
    resilience.add_argument(
        "--burst-factor",
        type=float,
        default=2.0,
        help="overload burst as a multiple of measured serving capacity",
    )
    resilience.add_argument("--slo-us", type=float, default=25.0)
    resilience.add_argument(
        "--min-attainment",
        type=float,
        default=None,
        help="floor on the admitted stream's SLO attainment under burst",
    )
    resilience.add_argument(
        "--out", default=None, help="write a JSON summary to this path"
    )
    resilience.add_argument(
        "--check",
        action="store_true",
        help="CI smoke: exit non-zero when any resilience invariant fails",
    )
    resilience.add_argument(
        "--quick",
        action="store_true",
        help="small configuration for CI smoke runs",
    )
    resilience.set_defaults(func=_cmd_resilience)

    cache = subparsers.add_parser(
        "cache", help="hot-index tier sweep: hit rate & p99 vs size and skew"
    )
    cache.add_argument("--seed", type=int, default=0)
    cache.add_argument(
        "--sizes-kb",
        type=int,
        nargs="+",
        default=None,
        help="per-rank cache sizes to sweep in KB (default: 16 64 128 256)",
    )
    cache.add_argument(
        "--alphas",
        type=float,
        nargs="+",
        default=None,
        help="Zipf skews to sweep (default: 0.8 1.05 1.65)",
    )
    cache.add_argument(
        "--policy", choices=("lru", "fifo"), default="lru"
    )
    cache.add_argument(
        "--check",
        action="store_true",
        help="CI smoke: assert hits under Zipf, zero hits under uniform-unique",
    )
    cache.add_argument(
        "--quick",
        action="store_true",
        help="small configuration for CI smoke runs",
    )
    cache.set_defaults(func=_cmd_cache)

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
