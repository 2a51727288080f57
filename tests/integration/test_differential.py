"""Differential harness: FAFNIR vs a CPU oracle across randomized configs.

Two independent implementations of the same contract are compared on
randomly drawn machines and workloads:

* **functional** — the tree's per-query outputs must equal a plain NumPy
  reduction of the same table rows, whatever the tree arity, rank count,
  batch shape, or dedup setting;
* **behavioural** — the engine's closed-form tree sweep and the object PE
  oracle, swapped through the shared ``on_pe_paths`` fixture, must emit
  *identical* event streams (same kinds, cycles, PEs, levels, args; the
  tree's PE events compared as one multiset per PE, since the sweep orders
  a level's events differently) and identical per-level event counts,
  recorded through in-memory sinks.  Byte-identical outputs could still
  hide divergent internal scheduling; stream equality cannot.

The comparison runs plain, traced (object and columnar sinks), and
fault-injected (latency degradation + read timeouts) — the two tree
implementations must be indistinguishable in every observable, not just on
the happy path.

Configs are drawn from a seeded RNG so every run covers the same
machines (failures reproduce) while spanning the space far wider than
hand-written cases would.
"""

import numpy as np
import pytest

from repro.core.config import FafnirConfig
from repro.core.engine import FafnirEngine
from repro.core.operators import MAX, MEAN, SUM
from repro.faults import FaultPlan
from repro.obs import ColumnarSink, InMemorySink, Tracer, per_level_counts
from tests.conftest import tree_event_fingerprint

UNIVERSE = 512


def random_setup(seed):
    """Draw one machine + workload: (config, queries, dedup)."""
    rng = np.random.default_rng(seed)
    leaves = int(rng.choice([2, 4, 8]))
    ranks_per_leaf = int(rng.choice([1, 2, 4]))
    total_ranks = leaves * ranks_per_leaf
    max_query_len = int(rng.integers(2, 9))
    batch_size = int(rng.integers(2, 17))
    config = FafnirConfig(
        total_ranks=total_ranks,
        ranks_per_leaf_pe=ranks_per_leaf,
        batch_size=batch_size,
        max_query_len=max_query_len,
        vector_bytes=int(rng.choice([32, 64, 128])),
    )
    num_queries = int(rng.integers(1, batch_size + 1))
    queries = [
        rng.choice(
            UNIVERSE, size=rng.integers(1, max_query_len + 1), replace=False
        ).tolist()
        for _ in range(num_queries)
    ]
    deduplicate = bool(rng.random() < 0.7)
    return config, queries, deduplicate


def make_table(config, seed):
    rng = np.random.default_rng(10_000 + seed)
    return {
        index: rng.standard_normal(config.vector_elements)
        for index in range(UNIVERSE)
    }


def cpu_reduce(operator, table, query):
    """The oracle: reduce the same rows with plain NumPy."""
    rows = [np.asarray(table[index], dtype=np.float64) for index in sorted(query)]
    return operator.reduce_many(rows)


SEEDS = range(12)


@pytest.mark.parametrize("seed", SEEDS)
def test_fafnir_matches_cpu_reduction(seed):
    config, queries, deduplicate = random_setup(seed)
    table = make_table(config, seed)
    engine = FafnirEngine(config=config)
    result = engine.run_batch(
        queries, table.__getitem__, deduplicate=deduplicate
    )
    assert len(result.vectors) == len(queries)
    for query, vector in zip(queries, result.vectors):
        expected = cpu_reduce(SUM, table, query)
        np.testing.assert_allclose(vector, expected, rtol=1e-12, atol=1e-12)


@pytest.mark.parametrize("operator", [SUM, MAX, MEAN], ids=lambda o: o.name)
def test_fafnir_matches_cpu_reduction_all_operators(operator):
    config, queries, deduplicate = random_setup(99)
    table = make_table(config, 99)
    engine = FafnirEngine(config=config, operator=operator)
    result = engine.run_batch(
        queries, table.__getitem__, deduplicate=deduplicate
    )
    for query, vector in zip(queries, result.vectors):
        expected = cpu_reduce(operator, table, query)
        np.testing.assert_allclose(vector, expected, rtol=1e-12, atol=1e-12)


def _fingerprint(result, events):
    """Every observable of one engine run, as ``==``-comparable data."""
    return {
        "vectors": [vector.tobytes() for vector in result.vectors],
        "latency": result.stats.latency_pe_cycles,
        "work": result.stats.per_pe_work,
        "statuses": result.query_statuses,
        "ready": result.ready_pe_cycles,
        "events": tree_event_fingerprint(events),
        # Implied by stream equality, but kept explicit: if streams ever
        # diverge, the level histogram localizes which tree stage drifted.
        "levels": per_level_counts(events),
    }


def _traced_run(config, queries, table, deduplicate, **kwargs):
    sink = InMemorySink()
    engine = FafnirEngine(config=config, tracer=Tracer([sink]), **kwargs)
    result = engine.run_batch(
        queries, table.__getitem__, deduplicate=deduplicate
    )
    return _fingerprint(result, sink.events)


@pytest.mark.parametrize("seed", SEEDS)
def test_scalar_and_vector_kernels_emit_identical_event_streams(
    seed, on_pe_paths
):
    """sweep == oracle on vectors, latency, ready cycles, ``PEWork``,
    statuses and the event stream (``on_pe_paths`` asserts the equality)."""
    config, queries, deduplicate = random_setup(seed)
    table = make_table(config, seed)
    observed = on_pe_paths(
        lambda: _traced_run(config, queries, table, deduplicate)
    )
    assert len(observed["vectors"]) == len(queries)
    assert observed["events"][1], "run recorded no PE events"


@pytest.mark.parametrize("seed", SEEDS)
def test_three_engine_paths_are_indistinguishable(seed, on_pe_paths):
    """The default engine == the sweep inside the fixture == the object
    oracle, on every observable: the fixture's patches leave the default
    path itself untouched."""
    config, queries, deduplicate = random_setup(seed)
    table = make_table(config, seed)

    def run():
        return _traced_run(config, queries, table, deduplicate)

    assert run() == on_pe_paths(run)


@pytest.mark.parametrize("seed", SEEDS)
def test_pe_paths_agree_under_faults(seed, on_pe_paths):
    """Fault injection exercises retry/timeout paths the happy-path seeds
    never reach; sweep and oracle must agree there too — same degraded
    timings, same statuses, same streams."""
    config, queries, deduplicate = random_setup(seed)
    table = make_table(config, seed)
    plan = FaultPlan(
        seed=seed,
        rank_latency_multipliers={1: 1.4},
        rank_timeout_probability={0: 0.15},
    )
    on_pe_paths(
        lambda: _traced_run(
            config, queries, table, deduplicate, faults=plan
        )
    )


@pytest.mark.parametrize("seed", SEEDS)
def test_columnar_sink_materializes_object_stream(seed):
    """The packed columnar ring buffer and the object in-memory sink are
    two encodings of one stream: recording a run through both at once
    must materialize to ``==``-equal event lists."""
    config, queries, deduplicate = random_setup(seed)
    table = make_table(config, seed)
    columnar = ColumnarSink()
    objects = InMemorySink()
    engine = FafnirEngine(config=config, tracer=Tracer([columnar, objects]))
    engine.run_batch(queries, table.__getitem__, deduplicate=deduplicate)
    assert objects.events, "run recorded nothing"
    assert len(columnar) == len(objects.events)
    assert columnar.to_events() == objects.events


@pytest.mark.parametrize("seed", SEEDS)
def test_dedup_ablation_is_functionally_invisible(seed):
    """Redundant-access elimination is a performance mechanism: outputs
    with and without it must agree on every random machine."""
    config, queries, _ = random_setup(seed)
    table = make_table(config, seed)

    def run(deduplicate):
        engine = FafnirEngine(config=config)
        return engine.run_batch(
            queries, table.__getitem__, deduplicate=deduplicate
        )

    with_dedup = run(True)
    without = run(False)
    for a, b in zip(with_dedup.vectors, without.vectors):
        np.testing.assert_allclose(a, b, rtol=1e-12, atol=1e-12)
    # The ablation can only read more, never less.
    assert (
        without.stats.memory.reads >= with_dedup.stats.memory.reads
    )
