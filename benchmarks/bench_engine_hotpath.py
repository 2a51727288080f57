"""Hot-path regression bench: the closed-form tree sweep and tracing cost.

The engine computes every PE of a tree level in a handful of array ops
(``repro.core.sweep``).  Its executable specification is the object PE
model kept in the test suite (``tests/pe_oracle.py``): one pure-Python
``O(entries × partners)`` scan and merge per PE, plus the scalar leaf fold.
This bench runs the tree stage of two batches — the same leaf FIFOs →
root — through both and proves the vectors, per-PE work and ready cycles
byte-identical.  The 256-query, 64-rank uniform batch folds on every leaf
FIFO; it carries the tracked speedup floor, so the speedup is tracked
like any other reproduced figure and a regression (someone re-introducing
a per-message Python loop) fails CI.  The paper-configured 32×16 Zipf
batch over 32 ranks (one table per rank, so no FIFO can fold) times the
leaf boundary's fold-free path; its speedup is recorded beside the first.
A stream of 50 such batches runs through ``run_batches``, which sweeps the
trees of a chunk of batches at once, and as a loop of ``run_batch`` calls;
the two must agree byte for byte, and the stream's speedup and both
tracemalloc peaks are recorded (no floor).

The oracle runs once; the sweep is timed repeatedly and the best run is
used.  The tracing guard below times whole batches in process CPU time,
with competing configurations *interleaved* so drifting host load biases
every contestant equally rather than penalising whichever ran last.  Headline numbers
append to the repo-root ``BENCH_hotpath.json`` / ``BENCH_tracing.json``
trajectories.
"""

import gc
import os
import statistics
import sys
import time
import tracemalloc

import numpy as np

from _common import (
    REPO_ROOT,
    append_trajectory,
    calibrated_batch,
    reference_tables,
    run_once,
    write_report,
)
from repro.analysis import Table
from repro.core import FafnirConfig, FafnirEngine, plan_batch
from repro.memory import MemoryConfig
from repro.obs import ColumnarSink, InMemorySink, Tracer
from repro.workloads import QueryGenerator

sys.path.insert(0, str(REPO_ROOT))
from tests import pe_oracle  # noqa: E402

QUERIES = 256
RANKS = 64
QUERY_LEN = 64
UNIVERSE = 8192
ELEMENTS = 128
# ≥3× is the tracked bar on a quiet host; shared CI runners may override
# the floor (FAFNIR_HOTPATH_MIN_SPEEDUP) — a per-message Python loop
# brought back into the sweep lands near 1× and still fails.
REQUIRED_SPEEDUP = float(os.environ.get("FAFNIR_HOTPATH_MIN_SPEEDUP", "3.0"))
# Acceptance bound for in-memory tracing through the packed columnar sink.
TRACING_MAX_OVERHEAD = float(os.environ.get("FAFNIR_TRACING_MAX_OVERHEAD", "1.15"))
SWEEP_REPEATS = 3
# The paper's configuration: one 32-query Zipf batch, q = 16, 32 ranks.
ZIPF_QUERIES = 32
ZIPF_REPEATS = 20
# A stream of paper-configured batches: run_batches against a run_batch loop.
STREAM_BATCHES = 50
STREAM_REPEATS = 5


def _workload():
    config = FafnirConfig(
        batch_size=QUERIES,
        max_query_len=QUERY_LEN,
        vector_bytes=ELEMENTS * 4,
        total_ranks=RANKS,
        ranks_per_leaf_pe=2,
        num_tables=RANKS,
    )
    memory = MemoryConfig().scaled_to_ranks(RANKS)
    rng = np.random.default_rng(7)
    queries = [
        rng.choice(UNIVERSE, size=QUERY_LEN, replace=False).tolist()
        for _ in range(QUERIES)
    ]
    # Pre-filled so vector generation is not timed inside any run.
    vectors = {}
    for query in queries:
        for index in query:
            if index not in vectors:
                vectors[index] = np.random.default_rng(10_000 + index).normal(
                    size=ELEMENTS
                )
    return config, memory, queries, vectors


def _run(config, memory, queries, vectors, tracer=None):
    """One batch on a fresh engine: (process CPU seconds, result)."""
    instance = FafnirEngine(config=config, memory_config=memory, tracer=tracer)
    start = time.process_time()
    result = instance.run_batch(queries, vectors.__getitem__)
    return time.process_time() - start, result


def _timed(tree_stage):
    start = time.perf_counter()
    result = tree_stage()
    return time.perf_counter() - start, result


def _zipf_workload():
    config = FafnirConfig()
    queries = calibrated_batch(reference_tables(), ZIPF_QUERIES)
    vectors = {
        index: np.random.default_rng(20_000 + index).normal(
            size=config.vector_elements
        )
        for index in sorted({index for query in queries for index in query})
    }
    return config, MemoryConfig().scaled_to_ranks(config.total_ranks), queries, vectors


def _stream_workload():
    config = FafnirConfig()
    queries = QueryGenerator.paper_calibrated(reference_tables(), seed=3)
    batches = queries.batches(STREAM_BATCHES, ZIPF_QUERIES)
    vectors = {
        index: np.random.default_rng(30_000 + index).normal(size=config.vector_elements)
        for index in sorted({index for batch in batches for query in batch for index in query})
    }
    return config, batches, vectors


def _stream_observables(results):
    return [
        ([vector.tobytes() for vector in result.vectors], result.statuses,
         result.ready_pe_cycles, result.stats.per_pe_work)
        for result in results
    ]


def _stream_stages(config, batches, vectors):
    """The stream through ``run_batches`` and as a ``run_batch`` loop:
    asserts identical results and returns each one's best process CPU
    seconds (runs interleaved) and tracemalloc peak bytes."""
    source = vectors.__getitem__

    def streamed():
        return FafnirEngine(config=config).run_batches(batches, source).results

    def looped():
        engine = FafnirEngine(config=config)
        return [engine.run_batch(batch, source) for batch in batches]

    cases = {"stream": streamed, "loop": looped}
    assert _stream_observables(streamed()) == _stream_observables(looped())
    seconds = {name: [] for name in cases}
    for _ in range(STREAM_REPEATS):
        for name, run in cases.items():
            gc.collect()
            start = time.process_time()
            run()
            seconds[name].append(time.process_time() - start)
    peaks = {}
    for name, run in cases.items():
        gc.collect()
        tracemalloc.start()
        run()
        peaks[name] = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
    return {name: min(times) for name, times in seconds.items()}, peaks


def _tree_stages(config, memory, queries, vectors, repeats, benchmark=None):
    """One batch's tree stage on the object oracle (once) and the sweep
    (best of ``repeats``); asserts both give identical physics and returns
    ``(oracle_s, sweep_s)``."""
    engine = FafnirEngine(config=config, memory_config=memory)
    plan = plan_batch(queries, max_query_len=config.max_query_len)
    leaf_inputs = pe_oracle.leaf_inputs(engine, plan, vectors.__getitem__)

    def sweep_run():
        return _timed(lambda: engine._run_trees([plan], leaf_inputs, [engine.tracer])[0])

    oracle_s, oracle = _timed(lambda: pe_oracle.run_tree(engine, plan, leaf_inputs))
    sweep_s, sweep = run_once(benchmark, sweep_run) if benchmark else sweep_run()
    for _ in range(repeats - 1):
        sweep_s = min(sweep_s, sweep_run()[0])

    # Identical physics: same vectors (bit for bit), same timing, same work.
    sweep_values, sweep_ready, sweep_work = sweep
    oracle_values, oracle_ready, oracle_work = oracle
    assert len(sweep_values) == len(oracle_values) == len(queries)
    assert sweep_values.tobytes() == oracle_values.tobytes()
    assert sweep_ready == oracle_ready
    assert sweep_work == oracle_work
    return oracle_s, sweep_s


def test_engine_hotpath_speedup(benchmark):
    workload = _workload()
    oracle_s, sweep_s = _tree_stages(*workload, SWEEP_REPEATS, benchmark)
    speedup = oracle_s / sweep_s
    zipf_oracle_s, zipf_sweep_s = _tree_stages(*_zipf_workload(), ZIPF_REPEATS)
    zipf_speedup = zipf_oracle_s / zipf_sweep_s
    stream_s, stream_peak = _stream_stages(*_stream_workload())
    stream_speedup = stream_s["loop"] / stream_s["stream"]

    table = Table(["batch", "tree stage", "wall_s", "speedup"])
    table.add_row(["uniform 256×64", "object PE oracle", f"{oracle_s:.3f}", "1.00×"])
    table.add_row(["uniform 256×64", "closed-form sweep", f"{sweep_s:.3f}",
                   f"{speedup:.2f}×"])
    table.add_row(["zipf 32×16", "object PE oracle", f"{zipf_oracle_s:.4f}", "1.00×"])
    table.add_row(["zipf 32×16", "closed-form sweep", f"{zipf_sweep_s:.4f}",
                   f"{zipf_speedup:.2f}×"])
    table.add_row([f"{STREAM_BATCHES} zipf batches", "run_batch loop (whole run)",
                   f"{stream_s['loop']:.4f}", "1.00×"])
    table.add_row([f"{STREAM_BATCHES} zipf batches", "run_batches (whole run)",
                   f"{stream_s['stream']:.4f}", f"{stream_speedup:.2f}×"])
    record = {
        "config": _config_record(workload[0]),
        "oracle_tree_s": round(oracle_s, 4),
        "sweep_tree_s": round(sweep_s, 4),
        "speedup": round(speedup, 3),
        "zipf_config": {"batch_size": ZIPF_QUERIES, "query_len": 16, "ranks": 32,
                        "vector_elements": FafnirConfig().vector_elements},
        "zipf_oracle_tree_s": round(zipf_oracle_s, 5),
        "zipf_sweep_tree_s": round(zipf_sweep_s, 5),
        "zipf_speedup": round(zipf_speedup, 3),
        "stream_batches": STREAM_BATCHES,
        "stream_loop_cpu_s": round(stream_s["loop"], 4),
        "stream_cpu_s": round(stream_s["stream"], 4),
        "stream_speedup": round(stream_speedup, 3),
        "stream_loop_peak_bytes": stream_peak["loop"],
        "stream_peak_bytes": stream_peak["stream"],
    }
    write_report("engine_hotpath", table, record=record)
    append_trajectory("hotpath", record)

    assert speedup >= REQUIRED_SPEEDUP, (
        f"tree sweep only {speedup:.2f}× faster than the object oracle "
        f"({oracle_s:.3f}s vs {sweep_s:.3f}s); required {REQUIRED_SPEEDUP}×"
    )


def _config_record(config):
    return {
        "batch_size": QUERIES,
        "query_len": QUERY_LEN,
        "ranks": RANKS,
        "universe": UNIVERSE,
        "vector_elements": ELEMENTS,
    }


def test_tracing_disabled_no_overhead(benchmark):
    """The sweep above runs with tracing disabled — this guard checks that state really is free, and bounds the cost of
    recording through the packed columnar sink.

    Every emit site is behind an ``if tracer.enabled`` test, so an engine
    with a *disabled* tracer must (a) record nothing and (b) run at the
    same speed as the default ``NULL_TRACER`` engine.  Runs are timed in
    process CPU time (``time.process_time``), which other processes on a
    shared host do not inflate as they do wall time: on wall clocks the
    same tree measured the columnar sink at 1.40× and then 0.55×.  Each
    contestant run is also *bracketed* by null runs and scored as a ratio
    against the mean of its neighbours, so drift within the process biases
    every contestant alike; the best ratio across rounds carries the
    assertion.  No recorded sink outlives its run, and the heap is
    collected before every timed run, so a run pays for the garbage it
    makes and not for earlier runs': a retained in-memory sink (~70k
    events) made every later run's full collections dearer (collector CPU
    0.07 → 0.11–0.13 s of a ~0.35 s run).  The object
    in-memory sink is reported for information only; the columnar sink
    carries the tracked overhead bound.
    """
    config, memory, queries, vectors = _workload()
    repeats = 5

    def disabled_tracer():
        tracer = Tracer([])
        assert not tracer.enabled
        return tracer

    contestants = [
        ("disabled", disabled_tracer),
        ("columnar", lambda: Tracer([ColumnarSink()])),
        ("in-memory", lambda: Tracer([InMemorySink()])),
    ]
    ratios = {name: [] for name, _ in contestants}
    cpu = {name: [] for name, _ in contestants}
    null_cpu = []
    results = {}

    def timed(factory=None):
        gc.collect()  # the previous run's garbage is not this run's cost
        tracer = factory() if factory is not None else None
        return _run(config, memory, queries, vectors, tracer)

    def bracketed_rounds():
        # Untimed warm-up: the first batch a process runs pays page
        # faults and allocator growth that later runs don't — without
        # this, whoever runs first looks fastest by a wide margin.
        timed()
        for _ in range(repeats):
            null_s, results["null"] = timed()
            null_cpu.append(null_s)
            for name, factory in contestants:
                seconds, results[name] = timed(factory)
                cpu[name].append(seconds)
                after_s, _unused = timed()
                null_cpu.append(after_s)
                ratios[name].append(seconds / ((null_s + after_s) / 2))
                null_s = after_s

    run_once(benchmark, bracketed_rounds)
    keys = [("disabled", "disabled"), ("columnar", "columnar"), ("inmemory", "in-memory")]
    baseline_s = min(null_cpu)
    overhead = {name: min(values) for name, values in ratios.items()}

    table = Table(["tracer", "cpu_s", "vs_neighbouring_null"])
    table.add_row(["null (default)", f"{baseline_s:.3f}", "1.00×"])
    for name, label in [
        ("disabled", "disabled"),
        ("columnar", "columnar sink"),
        ("in-memory", "in-memory sink"),
    ]:
        table.add_row(
            [label, f"{min(cpu[name]):.3f}", f"{overhead[name]:.2f}×"]
        )
    record = {
        "config": _config_record(config),
        "clock": "process_time",
        "null_cpu_s": round(baseline_s, 4),
        "disabled_cpu_s": round(min(cpu["disabled"]), 4),
        "columnar_cpu_s": round(min(cpu["columnar"]), 4),
        "inmemory_cpu_s": round(min(cpu["in-memory"]), 4),
        "columnar_overhead": round(overhead["columnar"], 3),
        "disabled_overhead": round(overhead["disabled"], 3),
        "inmemory_overhead": round(overhead["in-memory"], 3),
        # The spread behind the best-of-rounds figures above.
        "repeats": repeats,
        "null_cpu_s_median": round(statistics.median(null_cpu), 4),
        **{
            f"{key}_cpu_s_median": round(statistics.median(cpu[name]), 4)
            for key, name in keys
        },
        **{
            f"{key}_overhead_median": round(statistics.median(ratios[name]), 3)
            for key, name in keys
        },
    }
    write_report("engine_tracing_overhead", table, record=record)
    append_trajectory("tracing", record)

    # Identical physics regardless of tracer state.
    for name in ("disabled", "columnar", "in-memory"):
        for a, b in zip(results["null"].vectors, results[name].vectors):
            assert a.tobytes() == b.tobytes()
        assert (
            results["null"].stats.latency_pe_cycles
            == results[name].stats.latency_pe_cycles
        )
    columnar_sink, object_sink = ColumnarSink(), InMemorySink()
    for sink in (columnar_sink, object_sink):
        _run(config, memory, queries, vectors, Tracer([sink]))
    assert len(columnar_sink) and object_sink.events, "tracers recorded nothing"
    assert columnar_sink.to_events() == object_sink.events

    # Disabled tracing costs nothing measurable: neighbour-normalized
    # ratios, so only genuine per-event work can separate the two.
    assert overhead["disabled"] <= 1.05, (
        f"disabled tracer ran {overhead['disabled']:.2f}× its neighbouring "
        "null runs — the no-op path is no longer free"
    )
    assert overhead["columnar"] <= TRACING_MAX_OVERHEAD, (
        f"columnar-sink tracing cost {overhead['columnar']:.2f}× vs "
        f"neighbouring null runs; bound {TRACING_MAX_OVERHEAD}×"
    )
