"""Differential matrix: the hot-index tier must be functionally invisible.

The tier (:mod:`repro.tiering`) is a *timing* mechanism — a hit replaces
a DRAM read's modeled latency, nothing else.  This suite pits cached
runs against uncached runs on randomly drawn machines and Zipf-skewed
multi-batch streams (repeats across batches are what make the cache
actually hit) and requires:

* byte-identical vectors, identical per-query statuses, and identical
  per-PE work counters on both tree implementations (the closed-form sweep
  and the object PE oracle, swapped by ``on_pe_paths``);
* the same invariance under fault injection, in both fail-fast-survivable
  and degrade modes — injected read timeouts are keyed by batch position,
  and the tier keeps positions intact, so the *same* queries degrade;
* identical per-level reduce/forward/merge counts derived from traces
  (PE work seen through the event stream, not just the aggregates);
* modeled DRAM access counts strictly non-increasing with the cache on,
  and strictly decreasing once a skewed stream has warmed the tier.
"""

import numpy as np
import pytest

from repro.core.config import FafnirConfig
from repro.core.engine import FafnirEngine
from repro.faults import FaultPlan, FaultPolicy
from repro.faults.policy import MODE_DEGRADE
from repro.obs import InMemorySink, Tracer, per_level_counts
from repro.obs.events import (
    CACHE_HIT,
    CACHE_MISS,
    PE_FORWARD,
    PE_MERGE,
    PE_REDUCE,
)
from repro.tiering import HotTierConfig

UNIVERSE = 96  # small on purpose: cross-batch repeats keep the tier hot


def random_setup(seed):
    """One machine + skewed multi-batch stream + random tier geometry."""
    rng = np.random.default_rng(seed)
    leaves = int(rng.choice([2, 4, 8]))
    ranks_per_leaf = int(rng.choice([1, 2]))
    config = FafnirConfig(
        total_ranks=leaves * ranks_per_leaf,
        ranks_per_leaf_pe=ranks_per_leaf,
        batch_size=int(rng.integers(2, 13)),
        max_query_len=6,
        vector_bytes=int(rng.choice([32, 64])),
    )
    # Zipf-ish popularity over a small universe: rank r of the universe is
    # drawn ∝ 1/(r+1), so a handful of ids dominate every batch.
    weights = 1.0 / np.arange(1, UNIVERSE + 1)
    probabilities = weights / weights.sum()
    batches = []
    for _ in range(int(rng.integers(2, 5))):
        batch = []
        for _ in range(int(rng.integers(1, config.batch_size + 1))):
            length = int(rng.integers(1, 7))
            pool = rng.choice(
                UNIVERSE, size=length, replace=False, p=probabilities
            )
            batch.append([int(index) for index in pool])
        batches.append(batch)
    cache = HotTierConfig(
        size_bytes=int(rng.choice([2, 4, 8])) * 1024,
        line_bytes=int(rng.choice([128, 256])),
        ways=int(rng.choice([2, 4, 8])),
        policy=str(rng.choice(["lru", "fifo"])),
        hit_latency_cycles=int(rng.integers(0, 9)),
    )
    deduplicate = bool(rng.random() < 0.7)
    return config, batches, cache, deduplicate


class make_source:
    """Picklable deterministic vector source (crosses process pools)."""

    def __init__(self, seed, elements):
        self.seed = seed
        self.elements = elements

    def __call__(self, index):
        rng = np.random.default_rng(50_000 + self.seed * 1000 + index)
        return rng.standard_normal(self.elements)


def run_variant(
    config,
    batches,
    source,
    cache,
    deduplicate,
    faults=None,
    fault_policy=None,
    trace=False,
):
    sink = InMemorySink() if trace else None
    instance = FafnirEngine(
        config=config,
        cache=cache,
        faults=faults,
        fault_policy=fault_policy,
        tracer=Tracer([sink]) if sink is not None else None,
    )
    result = instance.run_batches(batches, source, deduplicate=deduplicate)
    functional = (
        tuple(vector.tobytes() for vector in result.vectors),
        tuple(result.statuses),
        tuple(
            tuple(sorted(item.stats.per_pe_work.items()))
            for item in result.results
        ),
    )
    reads = result.memory_stats.reads
    events = sink.events if sink is not None else None
    return functional, reads, events, instance


SEEDS = range(10)


@pytest.mark.parametrize("seed", SEEDS)
def test_cached_runs_are_byte_identical_across_engines(seed, on_pe_paths):
    config, batches, cache, deduplicate = random_setup(seed)
    source = make_source(seed, config.vector_elements)

    reference, base_reads, _, _ = run_variant(
        config, batches, source, None, deduplicate
    )

    def cached_run():
        functional, reads, _, instance = run_variant(
            config, batches, source, cache, deduplicate
        )
        stats = instance.memory.cache_stats
        return functional, reads, (stats.hits, stats.misses, stats.accesses)

    cached, cached_reads, (hits, misses, accesses) = on_pe_paths(cached_run)
    assert cached == reference, "diverged under cache"
    assert cached_reads <= base_reads
    assert hits + misses == accesses
    # Every hit is exactly one DRAM read that did not happen (vector
    # reads are single-piece on these geometries only when the vector
    # fits one column; in general a hit removes >= 1 request).
    if hits:
        assert cached_reads < base_reads


@pytest.mark.parametrize("seed", SEEDS)
def test_cached_runs_are_byte_identical_under_faults(seed, on_pe_paths):
    """Fault injection is keyed by batch position; a cached run keeps
    positions intact, so the same reads degrade in both worlds."""
    config, batches, cache, deduplicate = random_setup(seed)
    source = make_source(seed, config.vector_elements)
    plan = FaultPlan(
        seed=seed,
        rank_latency_multipliers={1: 1.4},
        rank_timeout_probability={0: 0.2},
    )
    policy = FaultPolicy(mode=MODE_DEGRADE, max_read_retries=1)

    reference, base_reads, _, _ = run_variant(
        config,
        batches,
        source,
        None,
        deduplicate,
        faults=plan,
        fault_policy=policy,
    )
    cached, cached_reads = on_pe_paths(
        lambda: run_variant(
            config,
            batches,
            source,
            cache,
            deduplicate,
            faults=plan,
            fault_policy=policy,
        )[:2]
    )
    assert cached == reference, "diverged under cache + faults"
    assert cached_reads <= base_reads


@pytest.mark.parametrize("seed", SEEDS[:5])
def test_trace_derived_pe_work_is_invariant(seed):
    """Per-level reduce/forward/merge *counts* from the event stream must
    not move when the tier turns on (cycles may — timing is the point)."""
    config, batches, cache, deduplicate = random_setup(seed)
    source = make_source(seed, config.vector_elements)

    _, _, base_events, _ = run_variant(
        config, batches, source, None, deduplicate, trace=True
    )
    _, _, cached_events, _ = run_variant(
        config, batches, source, cache, deduplicate, trace=True
    )
    for kind in (PE_REDUCE, PE_FORWARD, PE_MERGE):
        assert per_level_counts(base_events, kind) == per_level_counts(
            cached_events, kind
        )
    hits = sum(1 for e in cached_events if e.kind == CACHE_HIT)
    misses = sum(1 for e in cached_events if e.kind == CACHE_MISS)
    assert not any(e.kind == CACHE_HIT for e in base_events)
    # The events agree with the tier's own accounting.
    assert hits + misses > 0


def test_warmed_zipf_stream_strictly_reduces_dram_reads():
    """Deterministic pin: one hot id repeated across batches must hit."""
    config = FafnirConfig(
        total_ranks=4,
        ranks_per_leaf_pe=1,
        batch_size=4,
        max_query_len=4,
        vector_bytes=64,
    )
    source = make_source(0, config.vector_elements)
    batches = [[[0, 1, 2]], [[0, 5, 9]], [[0, 13, 2]]]
    _, base_reads, _, _ = run_variant(config, batches, source, None, True)
    cache = HotTierConfig(size_bytes=4096, line_bytes=64)
    _, cached_reads, _, instance = run_variant(
        config, batches, source, cache, True
    )
    # id 0 re-read twice, id 2 once: three DRAM reads replaced by hits.
    assert instance.memory.cache_stats.hits == 3
    assert cached_reads == base_reads - 3


def test_uncached_system_is_untouched():
    """cache=None must leave the memory system's behavior and accounting
    exactly as before the tier existed (the opt-in contract)."""
    config = FafnirConfig(
        total_ranks=4,
        ranks_per_leaf_pe=1,
        batch_size=4,
        max_query_len=4,
        vector_bytes=64,
    )
    engine = FafnirEngine(config=config)
    assert engine.memory.tier is None
    assert engine.memory.cache_stats.accesses == 0
    source = make_source(1, config.vector_elements)
    result = engine.run_batch([[0, 1], [0, 2]], source)
    assert engine.memory.cache_stats.accesses == 0
    assert len(result.vectors) == 2
