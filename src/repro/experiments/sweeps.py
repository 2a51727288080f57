"""System sweeps: fault injection, serving, reduction, tiering, resilience.

Each sweep is defined once here and driven by both the CLI subcommand of
the same name and its perf bench (``bench_serving.py``,
``bench_reduction.py``, ``bench_ablation_cache.py``,
``bench_resilience.py``).  Keyword arguments set the sizes: ``quick=True``
is the small CI configuration, and the benches pass the stream sizes they
record.  Every sweep checks its own invariants — byte-identity against an
unperturbed run, cache-control hit/no-hit, resilience properties, SLO
floors — and lists each violation in :attr:`ExperimentResult.failures`.
"""

from __future__ import annotations

import time
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.analysis.report import Table
from repro.comm import SCHEDULES, LinkModel
from repro.core.config import FafnirConfig
from repro.core.engine import FafnirEngine
from repro.core.sharding import ShardedRunner, fleet_makespan_pe_cycles, shard_batches
from repro.experiments.base import ExperimentResult, register
from repro.faults import (
    STATUSES,
    FaultPlan,
    FaultPolicy,
    ShardFailedError,
    recovery_report,
)
from repro.obs import InMemorySink, Tracer, metrics_from_events, nearest_rank
from repro.resilience import HedgePolicy, OverloadPolicy
from repro.serving import (
    ClosedLoopGenerator,
    ContinuousBatcher,
    OpenLoopGenerator,
    RampStage,
    ServingReport,
    ServingSimulator,
)
from repro.tiering import HotTierConfig
from repro.workloads import EmbeddingTableSet, QueryGenerator

#: Serving front-end settings shared by the ``serve`` and ``resilience``
#: sweeps: latency SLO, hardware batch, sharing-aware reorder window, and
#: the dispatch margin before the oldest request's deadline.
SLO_US = 25.0
SERVE_BATCH = 16
SERVE_WINDOW = 64
SERVE_MARGIN_US = 3.0

#: Resilience fault magnitudes: reference per-message link loss, straggler
#: slowdown, and overload burst as a multiple of measured capacity.
LINK_LOSS = 0.01
STRAGGLER_FACTOR = 4.0
BURST_FACTOR = 2.0


def _quick_config(ranks: int) -> FafnirConfig:
    return FafnirConfig(
        total_ranks=ranks, ranks_per_leaf_pe=2, batch_size=8, max_query_len=8
    )


def _stream(tables, seed: int, query_len: int, batch_size: int, batches: int):
    generator = QueryGenerator.paper_calibrated(
        tables, seed=seed, query_len=query_len
    )
    return [generator.batch(batch_size) for _ in range(batches)]


def _bytes(vectors) -> List[bytes]:
    return [vector.tobytes() for vector in vectors]


def _yes(flag: bool) -> str:
    return "yes" if flag else "NO"


def _open_loop(tables, seed: int, query_len: int, qps: float, count: int):
    """Poisson arrivals of ``count`` paper-calibrated requests at ``qps``."""
    return OpenLoopGenerator(
        QueryGenerator.paper_calibrated(tables, seed=seed + 1, query_len=query_len),
        [RampStage(qps=qps, duration_us=count / qps * 1e6)],
        slo_us=SLO_US,
        seed=seed + 2,
    )


def _simulator(**options) -> ServingSimulator:
    """The serving front-end both serving sweeps share."""
    batcher = ContinuousBatcher(
        batch_size=SERVE_BATCH, window=SERVE_WINDOW, dispatch_margin_us=SERVE_MARGIN_US
    )
    return ServingSimulator(batcher=batcher, **options)


@register("chaos", "seeded fault injection through the sharded runner")
def chaos(seed: int = 0, quick: bool = False) -> ExperimentResult:
    """Degraded ranks, flaky reads, vector corruption and a crashing shard
    worker under the graceful policy, against a clean baseline."""
    batches, shards, batch_size, query_len = (2, 2, 8, 8) if quick else (8, 4, 32, 16)
    tables = EmbeddingTableSet.random(seed=seed)
    stream = _stream(tables, seed, query_len, batch_size, batches)
    shard_streams = shard_batches(stream, shards)
    total = sum(len(batch) for batch in stream)

    clean_sink, chaos_sink = InMemorySink(), InMemorySink()
    clean = ShardedRunner(tracer=Tracer([clean_sink])).run(shard_streams, tables.vector)
    plan = FaultPlan(
        seed=seed,
        rank_latency_multipliers={0: 4.0, 1: 4.0},
        rank_timeout_probability={2: 0.2},
        vector_corruption_probability=0.01,
        crash_shards=frozenset({0}),
        crash_attempts=1,
    )
    policy = FaultPolicy.graceful(shard_timeout_s=60.0)
    results = ShardedRunner(
        tracer=Tracer([chaos_sink]), faults=plan, fault_policy=policy
    ).run(shard_streams, tables.vector)
    events = chaos_sink.events
    statuses = [status for result in results for status in result.statuses]
    counts = {status: statuses.count(status) for status in STATUSES}
    accounted = sum(counts.values())

    def p99(sink: InMemorySink) -> float:
        return (
            metrics_from_events(sink.events)
            .histogram("query.latency_pe_cycles")
            .percentile(99)
        )

    clean_p99, chaos_p99 = p99(clean_sink), p99(chaos_sink)
    table = Table(["quantity", "clean", "chaos"])
    table.add_row(
        ["p99 query latency (PE cycles)", f"{clean_p99:.0f}", f"{chaos_p99:.0f}"]
    )
    table.add_row(
        [
            "fleet makespan (PE cycles)",
            fleet_makespan_pe_cycles(clean),
            fleet_makespan_pe_cycles(results),
        ]
    )
    inflation = chaos_p99 / clean_p99 if clean_p99 else 0.0
    notes = "\n".join(
        [
            "faults: ranks 0,1 degraded 4.0×, rank 2 flaky (p=0.2), "
            "1% vector corruption, shard 0 worker crash",
            recovery_report(events).render(),
            "  query statuses: "
            + ", ".join(f"{counts[s]} {s}" for s in STATUSES)
            + f" ({accounted}/{total} accounted)",
            f"  p99 inflation: {inflation:.2f}×",
        ]
    )
    failures = []
    if accounted != total:
        failures.append(f"{total - accounted} of {total} queries unaccounted")
    return ExperimentResult(
        "chaos",
        f"chaos run: seed {seed}, {total} queries in {batches} batches "
        f"across {len(shard_streams)} shards",
        table,
        data={"events": events},
        notes=notes,
        failures=failures,
    )


@register("serve", "online serving sweep under a latency SLO")
def serve(
    seed: int = 0,
    quick: bool = False,
    qps: Optional[Sequence[float]] = None,
    requests: int = 400,
    closed_loop: bool = False,
    users: int = 32,
    cache_kb: Optional[int] = None,
    min_attainment: Optional[float] = None,
) -> ExperimentResult:
    """One simulated serving run per offered QPS level (``quick`` runs
    120 requests per level)."""
    qps_levels = list(qps or ([0.5e6, 4e6] if quick else [0.5e6, 2e6, 6e6, 12e6]))
    requests = 120 if quick else requests
    tables = EmbeddingTableSet.random(seed=seed)
    tier = None
    if cache_kb:
        tier = HotTierConfig(size_bytes=cache_kb * 1024, line_bytes=tables.vector_bytes)
    columns = ["offered_qps", "requests", "mean_batch", "interactive", "p50_us",
               "p99_us", "slo_attain", "dedup_savings"]
    table = Table(columns + (["cache_hit"] if tier is not None else []))
    levels = []
    for level in qps_levels:
        if closed_loop:
            load = ClosedLoopGenerator(
                QueryGenerator.paper_calibrated(tables, seed=seed + 1, query_len=16),
                users=users,
                think_time_us=4.0,
                slo_us=SLO_US,
                requests_per_user=max(1, requests // users),
                seed=seed + 2,
            )
        else:
            load = _open_loop(tables, seed, 16, level, requests)
        start = time.perf_counter()
        report = _simulator(cache=tier).run(load, tables.vector)
        wall_s = time.perf_counter() - start
        levels.append({"qps": level, "report": report, "wall_s": wall_s})
        summary = report.summary()
        row = [
            f"{level / 1e6:.2f}M",
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
    failures = []
    worst = min(entry["report"].slo_attainment for entry in levels)
    if min_attainment is not None and worst < min_attainment:
        failures.append(
            f"worst SLO attainment {worst:.3f} below floor {min_attainment:.3f}"
        )
    mode = "closed-loop" if closed_loop else "open-loop (Poisson)"
    cache_note = f", cache {cache_kb} KB/rank" if tier is not None else ""
    return ExperimentResult(
        "serve",
        f"serving sweep: {mode}, SLO {SLO_US:.1f} µs, batch {SERVE_BATCH}, "
        f"window {SERVE_WINDOW}, seed {seed}{cache_note}",
        table,
        data={
            "levels": levels,
            "slo_us": SLO_US,
            "batch_size": SERVE_BATCH,
            "window": SERVE_WINDOW,
            "margin_us": SERVE_MARGIN_US,
        },
        failures=failures,
    )


@register("reduce", "cross-shard reduction schedules vs shard count")
def reduce(
    seed: int = 0,
    quick: bool = False,
    shard_counts: Optional[Sequence[int]] = None,
    operator: str = "sum",
    batches: int = 4,
    batch_size: int = 32,
) -> ExperimentResult:
    """Every schedule at every shard count on a PCIe-class link, each cell
    verified byte-identical to the single-node engine."""
    query_len = 16
    if quick:
        shard_counts, batches, batch_size, query_len = [2, 4], 2, 8, 8
        config = _quick_config(16)
    else:
        shard_counts = shard_counts or [2, 4, 8, 16]
        config = FafnirConfig(batch_size=batch_size)
    link = LinkModel()
    tables = EmbeddingTableSet.random(seed=seed)
    stream = _stream(tables, seed, query_len, batch_size, batches)
    baseline = FafnirEngine(config=config, operator=operator).run_batches(
        stream, tables.vector
    )
    expected = _bytes(baseline.vectors)

    table = Table(["shards", "schedule", "steps", "messages", "comm_bytes",
                   "comm_cycles", "makespan_cycles", "identical"])
    cells, failures = [], []
    for shards in shard_counts:
        for name in sorted(SCHEDULES):
            runner = ShardedRunner(
                config=config,
                operator=operator,
                max_workers=1,
                reduction=name,
                num_shards=shards,
                link=link,
            )
            start = time.perf_counter()
            reduced = runner.run_reduced(stream, tables.vector)
            wall_s = time.perf_counter() - start
            identical = _bytes(reduced.vectors) == expected
            if not identical:
                failures.append(
                    f"{name} at {shards} shards diverged from the single-node engine"
                )
            cells.append({"shards": shards, "schedule": name, "reduced": reduced,
                          "identical": identical, "wall_s": wall_s})
            table.add_row([shards, name, reduced.total_steps, reduced.total_messages,
                           reduced.total_comm_bytes, reduced.comm_pe_cycles,
                           reduced.makespan_pe_cycles, _yes(identical)])
    return ExperimentResult(
        "reduce",
        f"reduction sweep: {batches * batch_size} queries in {batches} batches, "
        f"operator {operator}, link {link.latency_ns:.0f} ns + "
        f"{link.bandwidth_gb_s:.0f} GB/s, seed {seed}",
        table,
        data={"cells": cells, "link": link, "batches": batches,
              "batch_size": batch_size, "query_len": query_len},
        notes="" if failures else "all cells byte-identical to the single-node engine",
        failures=failures,
    )


@register("cache", "hot-index tier: hit rate and p99 vs cache size and Zipf skew")
def cache(
    seed: int = 0,
    quick: bool = False,
    sizes_kb: Optional[Sequence[int]] = None,
    alphas: Optional[Sequence[float]] = None,
    batches: Optional[int] = None,
) -> ExperimentResult:
    """Per-rank LRU tier sizes × Zipf skews on top of dedup.

    Every cached cell must be byte-identical to the dedup-only run on the
    same stream.  Two control streams run on a 128 KB/rank tier: Zipf(1.05)
    must hit, and a uniform stream of never-repeating ids must not.
    """
    if quick:
        batches, batch_size, query_len, hot_rows = batches or 3, 8, 8, 512
        config = _quick_config(8)
        sizes_kb, alphas = sizes_kb or [8, 32], alphas or [1.05]
    else:
        batches, batch_size, query_len, hot_rows = batches or 6, 32, 16, 4096
        config = FafnirConfig()
        sizes_kb = sizes_kb or [16, 64, 128, 256]
        alphas = alphas or [0.8, 1.05, 1.65]
    tables = EmbeddingTableSet.random(seed=seed)

    def tier(kb: int) -> HotTierConfig:
        return HotTierConfig(size_bytes=kb * 1024, line_bytes=config.vector_bytes)

    def run(batch_stream, source, cache_tier) -> Dict[str, object]:
        engine = FafnirEngine(config=config, cache=cache_tier)
        result = engine.run_batches(batch_stream, source, deduplicate=True)
        cycles = sorted(c for item in result.results for c in item.ready_pe_cycles)
        stats = engine.memory.cache_stats
        return {
            "bytes": _bytes(result.vectors),
            "reads": result.memory_stats.reads,
            "hit_rate": stats.hit_rate,
            "hits": stats.hits,
            "p99": nearest_rank(cycles, 99),
        }

    def zipf(alpha: float, cache_tier) -> Dict[str, object]:
        generator = QueryGenerator(
            tables, query_len=query_len, skew=alpha, hot_rows=hot_rows, seed=seed
        )
        stream = [generator.batch(batch_size) for _ in range(batches)]
        return run(stream, tables.vector, cache_tier)

    table = Table(["alpha", "cache_kb", "hit_rate", "dram_reads", "read_drop",
                   "p99_cycles", "identical"])
    cells, failures = [], []
    for alpha in alphas:
        baseline = zipf(alpha, None)
        table.add_row([f"{alpha:.2f}", "dedup-only", "—", baseline["reads"], "—",
                       baseline["p99"], "—"])
        for kb in sizes_kb:
            cached = zipf(alpha, tier(kb))
            identical = cached["bytes"] == baseline["bytes"]
            if not identical:
                failures.append(f"α={alpha:.2f}, {kb} KB diverged from dedup-only")
            reads = baseline["reads"]
            drop = 1.0 - cached["reads"] / reads if reads else 0.0
            cells.append({"alpha": alpha, "cache_kb": kb, "baseline": baseline,
                          "cached": cached, "drop": drop})
            table.add_row([f"{alpha:.2f}", kb, f"{cached['hit_rate']:.3f}",
                           cached["reads"], f"{drop:.1%}", cached["p99"],
                           _yes(identical)])

    reference = next(
        (c["cached"] for c in cells if (c["alpha"], c["cache_kb"]) == (1.05, 128)),
        None,
    ) or zipf(1.05, tier(128))
    # Sequential never-repeating ids cannot hit a demand-filled cache
    # (dedup removes within-batch repeats anyway).
    unique = iter(range(10**9))
    uniform_stream = [
        [[next(unique) for _ in range(query_len)] for _ in range(batch_size)]
        for _ in range(batches)
    ]
    elements = config.vector_elements
    uniform = run(
        uniform_stream,
        lambda index: np.random.default_rng(index).standard_normal(elements),
        tier(128),
    )
    notes = [
        f"check: zipf hit rate {reference['hit_rate']:.3f}, "
        f"uniform hit rate {uniform['hit_rate']:.3f}"
    ]
    if not failures:
        notes.append("all cached cells byte-identical to the dedup-only baseline")
    cell_failures = len(failures)
    if reference["hit_rate"] <= 0.0:
        failures.append("Zipf(1.05) stream produced no cache hits")
    if uniform["hit_rate"] != 0.0:
        failures.append("uniform-unique stream produced cache hits")
    if len(failures) == cell_failures:
        notes.append("cache smoke passed")
    return ExperimentResult(
        "cache",
        f"hot-index tier sweep: {batches * batch_size} queries × {query_len} "
        f"lookups per cell, {config.total_ranks} ranks, line "
        f"{config.vector_bytes} B, policy lru, seed {seed}",
        table,
        data={"cells": cells, "batches": batches, "batch_size": batch_size,
              "query_len": query_len, "hot_rows": hot_rows,
              "line_bytes": config.vector_bytes},
        notes="\n".join(notes),
        failures=failures,
    )


@register("resilience", "chaos sweep: link faults, stragglers, dead shards, overload")
def resilience(
    seed: int = 0,
    quick: bool = False,
    min_attainment: Optional[float] = None,
    batches: int = 4,
    batch_size: int = 32,
    requests: int = 200,
) -> ExperimentResult:
    """The resilience stack under reduction and serving faults.

    Reduction side (gather schedule, 4 shards): installed-but-idle
    protection, link loss, a straggler shard unhedged vs hedged, the
    combined loss + straggler chaos cell, and a dead shard (route-around
    vs fail-fast).  Serving side: an overload burst at ``BURST_FACTOR``×
    measured capacity with and without deadline-aware shedding.
    """
    shards, query_len = 4, 16
    if quick:
        batches, batch_size, query_len, requests = 2, 8, 8, 60
        config = _quick_config(16)
    else:
        config = FafnirConfig()
    tables = EmbeddingTableSet.random(seed=seed)
    stream = _stream(tables, seed, query_len, batch_size, batches)
    link = LinkModel(latency_ns=300.0, bandwidth_gb_s=20.0)
    failures: List[str] = []

    def check(condition: bool, label: str) -> None:
        if not condition:
            failures.append(label)

    def reduced(plan=None, policy=None, hedge=None, tracer=None):
        if plan is not None and policy is None:
            policy = FaultPolicy.graceful()
        runner = ShardedRunner(
            config=config,
            max_workers=1,
            reduction="gather",
            num_shards=shards,
            link=link,
            faults=plan,
            fault_policy=policy,
            hedge=hedge,
            tracer=tracer,
        )
        return runner.run_reduced(stream, tables.vector)

    table = Table(["scenario", "outcome", "comm_cycles", "makespan", "identical"])

    def row(label, outcome, result, identical="-"):
        table.add_row([label, outcome, result.comm_pe_cycles,
                       result.makespan_pe_cycles, identical])

    clean = reduced()
    clean_bytes = _bytes(clean.vectors)
    row("clean", "ok", clean)

    def timing_cell(label, outcome, result):
        """A timing-only fault: reduced bytes must match the clean run."""
        identical = _bytes(result.vectors) == clean_bytes
        check(identical, f"{label} changed reduced bytes")
        row(label, outcome, result, _yes(identical))

    # Installed-but-idle protection must not perturb a single byte.
    idle = reduced(FaultPlan(seed=seed), hedge=HedgePolicy())
    timing_cell("idle protection", "ok", idle)

    # Link loss: retransmissions inflate comm cycles, never change bytes.
    # The stress cell drops half of all messages so the inflation check
    # always has drops to bite on (a handful of messages at 1% may sample
    # none).
    lossy = {}
    for probability in (LINK_LOSS, 0.5):
        sink = InMemorySink()
        result = reduced(FaultPlan(seed=seed, link_loss_probability=probability),
                         tracer=Tracer([sink]))
        drops = recovery_report(sink.events).injected.get("link_loss", 0)
        timing_cell(f"link loss {probability:.0%}", f"{drops} drops", result)
        lossy[probability] = (result, drops)
    stressed, stress_drops = lossy[0.5]
    check(stress_drops > 0, "50% link loss sampled no drops")
    check(stressed.comm_pe_cycles > clean.comm_pe_cycles,
          "link loss did not inflate comm cycles")

    # One straggler shard, unhedged vs hedged (first result wins), alone
    # and combined with link loss in the reference chaos cell.
    active = clean.active_pieces
    straggler = {active[len(active) // 2]: STRAGGLER_FACTOR}
    cells = {}
    straggler_label = f"straggler ×{STRAGGLER_FACTOR:.0f}"
    for label, loss in (
        (straggler_label, 0.0),
        (f"loss {LINK_LOSS:.0%} + {straggler_label}", LINK_LOSS),
    ):
        plan = FaultPlan(seed=seed, link_loss_probability=loss,
                         straggler_multipliers=straggler)
        unhedged, hedged = reduced(plan), reduced(plan, hedge=HedgePolicy())
        timing_cell(label, "unhedged", unhedged)
        timing_cell(label, f"hedged ({hedged.hedges.wins} wins, "
                    f"{hedged.hedges.saved_cycles} cyc saved)", hedged)
        check(hedged.makespan_pe_cycles <= unhedged.makespan_pe_cycles,
              f"{label}: hedged makespan above unhedged")
        check(hedged.hedges.wins >= 1, f"{label}: hedging never won a race")
        cells[loss] = (unhedged, hedged)

    # Dead shard: graceful routes around it (untouched queries stay
    # bit-identical), fail-fast refuses to serve partial answers.
    dead_piece = active[0]
    dead_plan = FaultPlan(seed=seed, dead_shards=frozenset({dead_piece}))
    routed = reduced(dead_plan)
    flat_queries = [query for batch in stream for query in batch]
    untouched_identical, touched = True, 0
    for position, query in enumerate(flat_queries):
        if any(routed.partition.owner(index) == dead_piece for index in query):
            touched += 1
            untouched_identical &= routed.statuses[position] != "ok"
        else:
            untouched_identical &= (
                routed.vectors[position].tobytes() == clean_bytes[position]
            )
    check(untouched_identical, "dead-shard route-around broke untouched queries")
    check(touched > 0, "dead shard touched no queries (pick a hotter piece)")
    try:
        reduced(dead_plan, policy=FaultPolicy())
        fail_fast_raised = False
    except ShardFailedError:
        fail_fast_raised = True
    check(fail_fast_raised, "fail-fast served answers from a dead shard")
    row(f"dead shard (piece {dead_piece})",
        f"{touched} queries degraded, fail-fast "
        + ("raises" if fail_fast_raised else "DID NOT RAISE"),
        routed, _yes(untouched_identical))

    # ---- serving overload ------------------------------------------------
    def serve_run(qps: float, count: int, protect: bool) -> ServingReport:
        simulator = _simulator(overload=OverloadPolicy() if protect else None)
        return simulator.run(
            _open_loop(tables, seed, query_len, qps, count), tables.vector
        )

    # Probe capacity: swamp the server and read back the drain rate.  The
    # burst must outlast the SLO budget's worth of backlog, or the queue
    # drains before anyone can miss.
    capacity_qps = serve_run(1e9, requests, protect=False).observed_qps
    burst_n = max(requests, int(capacity_qps * SLO_US * 3 / 1e6))
    base = serve_run(0.5 * capacity_qps, requests, protect=False)
    burst = serve_run(BURST_FACTOR * capacity_qps, burst_n, protect=False)
    shed = serve_run(BURST_FACTOR * capacity_qps, burst_n, protect=True)

    def on_slo(records) -> float:
        return sum(1 for r in records if r.slo_met) / max(len(records), 1)

    admitted_ok = on_slo([r for r in shed.records if r.status != "shed"])
    burst_ok = on_slo(burst.records)
    check(admitted_ok >= burst_ok,
          "shedding did not improve the admitted stream's attainment")
    check(shed.latency_percentile_us(99) <= burst.latency_percentile_us(99),
          "shedding did not improve served p99")
    if min_attainment is not None:
        check(admitted_ok >= min_attainment,
              f"admitted attainment {admitted_ok:.3f} below floor {min_attainment:.3f}")

    serving_table = Table(["scenario", "offered_qps", "attainment", "p99_us", "shed"])
    for label, report in ((f"base ({0.5:.1f}× capacity)", base),
                          (f"burst ({BURST_FACTOR:.1f}× capacity)", burst),
                          ("burst + shedding", shed)):
        serving_table.add_row([label, f"{report.observed_qps / 1e6:.2f}M",
                               f"{report.slo_attainment:.3f}",
                               f"{report.latency_percentile_us(99):.2f}",
                               f"{report.shed_fraction:.3f}"])
    notes = [
        "",
        f"serving overload: capacity ≈ {capacity_qps / 1e6:.2f}M qps, SLO "
        f"{SLO_US:.1f} µs, admitted stream on-SLO {admitted_ok:.3f} vs "
        f"{burst_ok:.3f} unprotected",
        serving_table.render(),
    ]
    if not failures:
        notes.append("all resilience invariants held")
    unhedged, hedged = cells[0.0]
    summary = {
        "seed": seed,
        "clean_comm_cycles": clean.comm_pe_cycles,
        "lossy_comm_cycles": lossy[LINK_LOSS][0].comm_pe_cycles,
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
    return ExperimentResult(
        "resilience",
        f"reduction resilience: {len(flat_queries)} queries, {shards} shards, "
        f"seed {seed}",
        table,
        data={
            "summary": summary,
            "clean": clean,
            "chaos_unhedged": cells[LINK_LOSS][0],
            "chaos_hedged": cells[LINK_LOSS][1],
            "capacity_qps": capacity_qps,
            "burst": burst,
            "shed": shed,
            "admitted_attainment": admitted_ok,
            "link_loss": LINK_LOSS,
            "straggler_factor": STRAGGLER_FACTOR,
            "burst_factor": BURST_FACTOR,
            "slo_us": SLO_US,
        },
        notes="\n".join(notes),
        failures=failures,
    )
