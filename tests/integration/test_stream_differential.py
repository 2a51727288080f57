"""A swept batch stream against a loop of one-batch runs, at scale.

``FafnirEngine.run_batches`` sweeps the trees of a chunk of batches at
once and evaluates their vectors from one combine program; ``run_batch``
is the one-batch stream.  :data:`RUNS` seeded streams of 1–12 batches
must give, through ``run_batches``, exactly what a fresh engine gives
batch by batch through ``run_batch``: vector bytes, statuses, drop sets,
ready cycles, per-PE work, every :class:`LookupStats` field, the
:class:`PipelineStats`, and, traced, the event stream in order (into
object sinks and into a packed columnar sink).  A fail-fast stream must
raise the loop's error after recording the loop's events, and every
traced stream keeps each batch's events in one run, as today's engine
records them.

The streams cover deduplication on and off, ``dataflow`` and ``phased``
timing, every reduction operator, a hot-index tier (warm across the
stream's batches), fault plans that re-plan batches under ``degrade``
and raise under ``fail_fast``, and chunk budgets from a few reads to the
engine's own, so that chunks hold one or many batches and batches larger
than the budget run as chunks of their own.  A small-budget stream also
evaluates its combine steps a few rows at a time.

A failing batch at every position of a one-chunk stream, for each way a
batch can fail (its plan, its memory pass, its fetch), must end the
stream as the loop ends: the same error after the same results, events,
hot-tier hits and misses, and the same ordered source calls.
"""

import numpy as np
import pytest

import repro.core.engine as engine_module
import repro.core.sweep as sweep_module
from repro.core import FafnirConfig, FafnirEngine, get_operator
from repro.faults import FaultPlan, FaultPolicy, STATUS_DEGRADED, STATUS_FAILED
from repro.memory import MemoryConfig
from repro.obs import ColumnarSink, InMemorySink, Tracer
from repro.obs.events import (
    BATCH_COMPLETE, BATCH_START, FAULT_DETECTED, PIPELINE_BATCH, TraceEvent,
)
from repro.tiering.cache import HotTierConfig

RUNS = 600
CHUNKS = 12
ELEMENTS = 4


def source(index):
    return np.random.default_rng(70_000 + index).normal(size=ELEMENTS)


def random_case(seed):
    """One machine, engine options, stream and chunk budget."""
    rng = np.random.default_rng(seed)
    per_leaf = int(rng.choice([1, 2, 4]))
    ranks = max(2, per_leaf * int(rng.choice([1, 2, 4, 8])))
    universe = int(rng.integers(4, 400))
    width = int(rng.integers(1, 9))
    batch_size = int(rng.integers(1, 20))
    batches = []
    for _ in range(int(rng.integers(1, 13))):
        batch = [
            rng.choice(universe, size=min(universe, int(rng.integers(1, width + 1))),
                       replace=False).tolist()
            for _ in range(int(rng.integers(1, batch_size + 1)))
        ]
        if rng.random() < 0.2:
            batch += batch[: int(rng.integers(1, 3))]
        batches.append(batch)
    config = FafnirConfig(
        batch_size=max(map(len, batches)),
        max_query_len=width,
        vector_bytes=ELEMENTS * 4,
        total_ranks=ranks,
        ranks_per_leaf_pe=per_leaf if ranks % per_leaf == 0 else 1,
        num_tables=ranks,
    )
    options = {"memory_config": MemoryConfig().scaled_to_ranks(ranks)}
    if rng.random() < 0.3:
        options["timing"] = "phased"
    if rng.random() < 0.4:
        options["operator"] = get_operator(str(rng.choice(["min", "max", "mean"])))
    if rng.random() < 0.2:
        options["cache"] = HotTierConfig(size_bytes=4096, line_bytes=64, ways=2)
    if rng.random() < 0.3:
        options["faults"] = FaultPlan(
            seed=seed,
            rank_timeout_probability={int(rng.integers(ranks)): float(rng.choice([0.2, 1.0]))},
            source_failure_probability=float(rng.choice([0.0, 0.1])),
            vector_corruption_probability=float(rng.choice([0.0, 0.05])),
        )
        options["fault_policy"] = (
            FaultPolicy(max_read_retries=0, max_source_retries=0, max_corruption_retries=0)
            if rng.random() < 0.3
            else FaultPolicy.graceful(max_read_retries=0, max_source_retries=0)
        )
    budget = int(rng.choice([1, 8, 40, 200, engine_module.CHUNK_READS]))
    tracing = str(rng.choice(["none", "objects", "columns"]))
    return config, options, batches, bool(rng.random() < 0.6), budget, tracing


def engine_for(case):
    """A fresh engine for ``case`` and a thunk reading its events."""
    config, options, _, _, _, tracing = case
    if tracing == "none":
        return FafnirEngine(config=config, **options), list
    sink = InMemorySink() if tracing == "objects" else ColumnarSink()
    engine = FafnirEngine(config=config, tracer=Tracer([sink]), **options)
    if tracing == "objects":
        return engine, lambda: list(sink.events)
    return engine, sink.to_events


def observables(result):
    stats = result.stats
    return {
        "vectors": [vector.tobytes() for vector in result.vectors],
        "statuses": result.statuses,
        "dropped": result.dropped_indices,
        "ready": result.ready_pe_cycles,
        "stats": (stats.memory, stats.per_pe_work, stats.latency_pe_cycles,
                  stats.memory_latency_pe_cycles, stats.total_lookups,
                  stats.unique_reads, stats.dram_bytes_read, stats.output_bytes,
                  stats.naive_movement_bytes),
    }


def streamed(case):
    """``run_batches`` under the case's chunk budget: per-batch
    observables and pipeline, or the raised error; and the events."""
    _, _, batches, deduplicate, budget, _ = case
    engine, events = engine_for(case)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(engine_module, "CHUNK_READS", budget)
        patch.setattr(sweep_module, "STEP_ROWS", max(1, budget // 8))
        try:
            run = engine.run_batches(batches, source, deduplicate)
        except Exception as error:  # noqa: BLE001 - compared with the loop's
            return ("raised", type(error), str(error)), events()
    return ([observables(result) for result in run.results], run.pipeline), events()


def looped(case):
    """The same stream as one ``run_batch`` call per batch, composed as the
    paper's pipeline: the expected ``streamed(case)``."""
    _, _, batches, deduplicate, _, tracing = case
    engine, events = engine_for(case)
    results, completions, cursor, marks = [], [], 0, []
    try:
        for position, batch in enumerate(batches):
            result = engine.run_batch(batch, source, deduplicate)
            completions.append(cursor + result.stats.latency_pe_cycles)
            if tracing != "none":  # where run_batches records the batch
                marks.append((len(events()), TraceEvent(
                    PIPELINE_BATCH, cycle=completions[-1],
                    args={"batch": position, "queries": len(result.plan.queries),
                          "memory_start": cursor},
                )))
            cursor += result.stats.memory_latency_pe_cycles
            results.append(result)
    except Exception as error:  # noqa: BLE001 - compared with the stream's
        outcome = ("raised", type(error), str(error))
    else:
        stats = engine_module.PipelineStats(
            batches=len(results),
            total_queries=sum(len(result.plan.queries) for result in results),
            serial_latency_pe_cycles=sum(r.stats.latency_pe_cycles for r in results),
            pipelined_latency_pe_cycles=max(completions),
            memory_busy_pe_cycles=cursor,
            batch_completion_cycles=completions,
        )
        outcome = ([observables(result) for result in results], stats)
    recorded = events()
    for at, event in reversed(marks):
        recorded.insert(at, event)
    return outcome, recorded


def batch_shape_problems(outcome, events):
    """Breaches of a traced stream's shape, which both sides would share
    had the engine's one-batch stream broken it: every batch's events are
    one run from ``batch_start`` to ``batch_complete`` and its
    ``pipeline_batch``; a raising batch's run ends on its fatal detection.
    """
    kinds = [event.kind for event in events]
    starts = [at for at, kind in enumerate(kinds) if kind == BATCH_START]
    runs = [kinds[lo:hi] for lo, hi in zip(starts, starts[1:] + [len(kinds)])]
    problems = [] if starts and starts[0] == 0 else ["events before the first batch"]
    whole = runs[:-1] if outcome[0] == "raised" else runs
    for position, run in enumerate(whole):
        if run[-2:] != [BATCH_COMPLETE, PIPELINE_BATCH] or run.count(BATCH_COMPLETE) != 1:
            problems.append(f"batch {position} is not one run: {run[:3]}...{run[-3:]}")
    if outcome[0] == "raised":
        if not runs or BATCH_COMPLETE in runs[-1]:
            problems.append("the raising batch completed")
        elif not (events[-1].kind == FAULT_DETECTED and events[-1].args.get("fatal")):
            problems.append(f"the raising batch ends on {kinds[-1]}")
    else:
        if len(runs) != len(outcome[0]):
            problems.append(f"{len(runs)} batch runs for {len(outcome[0])} batches")
    return problems


@pytest.mark.parametrize("chunk", range(CHUNKS))
def test_stream_matches_a_loop_of_batches(chunk):
    for seed in range(chunk, RUNS, CHUNKS):
        case = random_case(seed)
        outcome, events = streamed(case)
        assert (outcome, events) == looped(case), f"seed {seed}: stream diverged"
        if case[-1] != "none":
            problems = batch_shape_problems(outcome, events)
            assert not problems, f"seed {seed}: " + "; ".join(problems)


def test_streams_cover_every_class():
    """The draws reach every axis the stream must get right."""
    seen = set()
    for seed in range(RUNS):
        case = random_case(seed)
        config, options, batches, deduplicate, budget, tracing = case
        seen.update(key for key in options if key != "memory_config")
        seen.add(("dedup", deduplicate))
        seen.add(("tracing", tracing))
        seen.add(("timing", options.get("timing", "dataflow")))
        seen.add(("operator", options.get("operator", get_operator("sum")).name))
        outcome, _ = streamed(case)
        if outcome[0] == "raised":
            seen.add("raised")
            continue
        per_batch, pipeline = outcome
        reads = [stats[5] for stats in (result["stats"] for result in per_batch)]
        if "faults" in options and not options["fault_policy"].fail_fast:
            statuses = {status for result in per_batch for status in result["statuses"]}
            if STATUS_DEGRADED in statuses:
                seen.add("re-planned")
            if STATUS_FAILED in statuses:
                seen.add("failed")
        if max(reads) > budget:
            seen.add("over budget")
        if len(batches) > 1 and sum(reads) <= budget:
            seen.add("one chunk")
        if len(batches) > 1 and max(reads) < budget < sum(reads):
            seen.add("many chunks")
        seen.add(("batches", min(len(batches), 12)))
    assert {"timing", "operator", "cache", "faults"} <= seen
    assert {("dedup", True), ("dedup", False)} <= seen
    assert {("tracing", mode) for mode in ("none", "objects", "columns")} <= seen
    assert {("timing", "dataflow"), ("timing", "phased")} <= seen
    assert {("operator", name) for name in ("sum", "min", "max", "mean")} <= seen
    assert {"raised", "re-planned", "failed", "over budget", "one chunk",
            "many chunks"} <= seen
    assert {("batches", 1), ("batches", 12)} <= seen


#: Ways a batch fails: three plan errors, an index past int64, a wrong-shape
#: vector, a fail-fast rank timeout in its memory pass, a fail-fast source
#: fault in its fetch, and a read from a rank wired to no leaf PE.
FAILURES = ("empty", "negative", "too long", "huge index", "wrong shape",
            "rank timeout", "source fault", "unwired rank")
BATCHES = 4  # one chunk
RANKS = 8
FLAKY = 5  # the rank that times out (or is wired to no leaf PE)
BAD = 3 * RANKS + 1  # the vector of the wrong shape


def failing_case(kind, position, deduplicate):
    """Engine options, a one-chunk stream whose batch ``position`` fails
    with ``kind``, the vector source (logging every call), and the source's
    log."""
    config = FafnirConfig(batch_size=3, max_query_len=3, vector_bytes=ELEMENTS * 4,
                          total_ranks=RANKS, num_tables=RANKS)
    options = {
        "memory_config": MemoryConfig().scaled_to_ranks(RANKS),
        "cache": HotTierConfig(size_bytes=4096, line_bytes=64, ways=2),
    }
    plan = None
    if kind == "rank timeout":
        plan = FaultPlan(seed=1, rank_timeout_probability={FLAKY: 1.0})
    elif kind == "source fault":
        plan = FaultPlan(seed=1, source_failure_probability=0.5)
    if plan is not None:
        options["faults"] = plan
        options["fault_policy"] = FaultPolicy(max_read_retries=0, max_source_retries=0)
    # Healthy indices: off the flaky rank, not the bad vector, and fetched
    # at the first attempt under the source-fault plan.
    healthy = [index for index in range(60)
               if index % RANKS != FLAKY and index != BAD
               and not FaultPlan(seed=1, source_failure_probability=0.5).source_raises(index, 0)]
    rng = np.random.default_rng(100 * position + FAILURES.index(kind))
    batches = [
        [rng.choice(healthy[:12], size=int(rng.integers(1, 4)), replace=False).tolist()
         for _ in range(int(rng.integers(1, 4)))]
        for _ in range(BATCHES)
    ]
    culprit = {
        "empty": [],
        "negative": [healthy[0], -1],
        "too long": healthy[:4],
        "huge index": [healthy[0], 2**63],
        "wrong shape": [healthy[1], BAD],
        "rank timeout": [healthy[2], 2 * RANKS + FLAKY],
        "unwired rank": [healthy[2], 2 * RANKS + FLAKY],
        "source fault": [healthy[3], next(index for index in range(60) if index not in healthy
                                          and index % RANKS != FLAKY and index != BAD)],
    }[kind]
    batches[position] = [batches[position][0], culprit]
    calls = []

    def logged(index):
        calls.append(index)
        return np.zeros(ELEMENTS + 1) if index == BAD else source(index)

    return config, options, batches, deduplicate, logged, calls, kind == "unwired rank"


def run_until_raise(case, stream):
    """The case through ``run_batches`` (``stream``) or a loop of
    ``run_batch``: the raised error, each batch's observables before it,
    the events (a loop's with ``pipeline_batch`` where the stream records
    it), the tier's hits and misses, and the source calls."""
    config, options, batches, deduplicate, logged, calls, unwired = case
    sink = InMemorySink()
    engine = FafnirEngine(config=config, tracer=Tracer([sink]), **options)
    if unwired:
        engine._rank_fifo[FLAKY] = -1
    results, marks = [], []
    run = engine.run_batch

    def recorded(*args, **kwargs):
        result = run(*args, **kwargs)
        results.append(observables(result))
        return result

    engine.run_batch = recorded
    with pytest.raises(Exception) as raised:
        if stream:
            engine.run_batches(batches, logged, deduplicate)
        else:
            cursor = 0
            for position, batch in enumerate(batches):
                result = engine.run_batch(batch, logged, deduplicate)
                marks.append((len(sink.events), TraceEvent(
                    PIPELINE_BATCH, cycle=cursor + result.stats.latency_pe_cycles,
                    args={"batch": position, "queries": len(result.plan.queries),
                          "memory_start": cursor},
                )))
                cursor += result.stats.memory_latency_pe_cycles
    events = list(sink.events)
    for at, event in reversed(marks):
        events.insert(at, event)
    tier = engine.memory.cache_stats
    return ((raised.type, str(raised.value)), results, events, (tier.hits, tier.misses),
            list(calls))


@pytest.mark.parametrize("deduplicate", [True, False])
@pytest.mark.parametrize("kind", FAILURES)
def test_a_failing_batch_ends_the_stream_as_the_loop(kind, deduplicate):
    for position in range(BATCHES):
        streamed_run = run_until_raise(failing_case(kind, position, deduplicate), True)
        looped_run = run_until_raise(failing_case(kind, position, deduplicate), False)
        assert streamed_run == looped_run, f"{kind} at batch {position} diverged"
        (error, message), results, _, _, _ = streamed_run
        assert (error.__name__, len(results)) == (EXPECTED[kind], position), message


EXPECTED = {"empty": "ValueError", "negative": "ValueError", "too long": "ValueError",
            "huge index": "OverflowError", "wrong shape": "ValueError",
            "rank timeout": "RankTimeoutError", "source fault": "SourceFaultError",
            "unwired rank": "ValueError"}
