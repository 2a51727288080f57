"""Property-based tests for the hot-index cache model.

The set-associative :class:`HotIndexCache` is checked against an
independently written *reference* model — a fully-associative LRU built
on an ``OrderedDict`` — plus structural invariants that must hold for
every access sequence:

* with one set (fully-associative geometry) the real cache's hit/miss
  stream equals the reference's, access for access;
* more generally, whenever no set ever overflows its ways, set indexing
  is invisible and the streams still agree;
* LRU evicts exactly the least-recently-used line of a full set;
* ``hits + misses == accesses`` always, hit_rate stays within [0, 1],
  and an untouched cache reports exactly 0.0;
* interleaving accesses across a tier's ranks never lets one rank's
  stream influence another's.
"""

from collections import OrderedDict

import pytest
from hypothesis import given, settings, strategies as st

from repro.tiering import (
    CacheStats,
    HotIndexCache,
    HotIndexTier,
    HotTierConfig,
    POLICY_FIFO,
    POLICY_LRU,
)

ids = st.integers(min_value=0, max_value=255)
sequences = st.lists(ids, min_size=0, max_size=200)


def contains(cache, vector_id):
    """Whether ``vector_id`` is resident, without touching the stats or
    the recency order."""
    index = (vector_id // cache.set_stride) % cache.num_sets
    return vector_id in cache._sets.get(index, ())


def per_rank_stats(tier, num_ranks):
    """Each rank's hit/miss stats; an uncached rank's are all zero."""
    return [CacheStats() if tier.cache_for(rank) is None else tier.cache_for(rank).stats
            for rank in range(num_ranks)]


class ReferenceLRU:
    """Fully-associative LRU over an OrderedDict — the oracle."""

    def __init__(self, capacity):
        self.capacity = capacity
        self.entries = OrderedDict()

    def access(self, vector_id):
        if vector_id in self.entries:
            self.entries.move_to_end(vector_id)
            return True
        self.entries[vector_id] = True
        if len(self.entries) > self.capacity:
            self.entries.popitem(last=False)
        return False


@settings(max_examples=120, deadline=None)
@given(sequence=sequences, ways=st.integers(min_value=1, max_value=16))
def test_single_set_cache_matches_fully_associative_reference(sequence, ways):
    """One set ⇒ the set-associative model *is* fully associative."""
    line = 64
    cache = HotIndexCache(size_bytes=ways * line, line_bytes=line, ways=ways)
    assert cache.num_sets == 1
    reference = ReferenceLRU(ways)
    for vector_id in sequence:
        assert cache.access(vector_id) == reference.access(vector_id)


@settings(max_examples=120, deadline=None)
@given(
    sequence=sequences,
    num_sets=st.integers(min_value=1, max_value=8),
    ways=st.integers(min_value=1, max_value=8),
)
def test_streams_match_reference_when_no_set_overflows(
    sequence, num_sets, ways
):
    """Set indexing is invisible until some set exceeds its ways.

    A fully-associative reference with unbounded capacity and a
    set-associative cache agree on every access up to the first moment a
    set would have to evict; the test truncates each drawn sequence at
    that point, so the property covers arbitrary prefixes.
    """
    line = 64
    cache = HotIndexCache(
        size_bytes=num_sets * ways * line, line_bytes=line, ways=ways
    )
    reference = ReferenceLRU(capacity=10**9)  # never evicts
    occupancy = {}
    for vector_id in sequence:
        index = vector_id % cache.num_sets
        resident = contains(cache, vector_id)
        if not resident and occupancy.get(index, 0) >= cache.ways:
            break  # this access would evict; the models may now diverge
        if not resident:
            occupancy[index] = occupancy.get(index, 0) + 1
        assert cache.access(vector_id) == reference.access(vector_id)


@settings(max_examples=120, deadline=None)
@given(ways=st.integers(min_value=1, max_value=12))
def test_lru_evicts_least_recently_used(ways):
    """Fill one set, touch everything but the LRU, insert — LRU leaves."""
    line = 64
    cache = HotIndexCache(size_bytes=ways * line, line_bytes=line, ways=ways)
    for vector_id in range(ways):
        assert cache.access(vector_id) is False
    # Re-touch all but id 0, making 0 the least recently used.
    for vector_id in range(1, ways):
        assert cache.access(vector_id) is True
    assert cache.access(ways) is False  # evicts 0
    assert not contains(cache, 0)
    for vector_id in range(1, ways + 1):
        assert contains(cache, vector_id)


@settings(max_examples=120, deadline=None)
@given(ways=st.integers(min_value=2, max_value=12))
def test_fifo_ignores_recency(ways):
    """FIFO evicts the oldest *insertion* even if it was just re-touched."""
    line = 64
    cache = HotIndexCache(
        size_bytes=ways * line, line_bytes=line, ways=ways, policy=POLICY_FIFO
    )
    for vector_id in range(ways):
        cache.access(vector_id)
    assert cache.access(0) is True  # hit, but FIFO order unchanged
    assert cache.access(ways) is False  # still evicts 0
    assert not contains(cache, 0)


@settings(max_examples=120, deadline=None)
@given(
    sequence=sequences,
    policy=st.sampled_from([POLICY_LRU, POLICY_FIFO]),
    size_lines=st.integers(min_value=1, max_value=64),
    ways=st.integers(min_value=1, max_value=8),
)
def test_stats_invariants(sequence, policy, size_lines, ways):
    """hits + misses == accesses; hit_rate in [0, 1]; floats everywhere."""
    line = 64
    if size_lines < ways:
        size_lines = ways
    cache = HotIndexCache(
        size_bytes=size_lines * line, line_bytes=line, ways=ways, policy=policy
    )
    hits = sum(1 for vector_id in sequence if cache.access(vector_id))
    stats = cache.stats
    assert stats.hits == hits
    assert stats.hits + stats.misses == stats.accesses == len(sequence)
    assert isinstance(stats.hit_rate, float)
    assert 0.0 <= stats.hit_rate <= 1.0


@settings(max_examples=100, deadline=None)
@given(
    accesses=st.lists(
        st.tuples(st.integers(min_value=0, max_value=3), ids),
        min_size=0,
        max_size=200,
    )
)
def test_tier_ranks_are_independent(accesses):
    """Interleaved (rank, id) streams behave like isolated per-rank caches."""
    config = HotTierConfig(size_bytes=8 * 64, line_bytes=64, ways=2)
    tier = HotIndexTier(config, num_ranks=4)
    # The tier strides set indexing by the rank count (rank-local
    # addressing); the isolated oracles must index identically.
    isolated = {
        rank: HotIndexCache(
            size_bytes=8 * 64, line_bytes=64, ways=2, set_stride=4
        )
        for rank in range(4)
    }
    for rank, vector_id in accesses:
        assert tier.access(rank, vector_id) == isolated[rank].access(vector_id)
    merged = CacheStats()
    for cache in isolated.values():
        merged = merged.merged_with(cache.stats)
    assert tier.stats == merged
    per_rank = per_rank_stats(tier, 4)
    assert [s.accesses for s in per_rank] == [
        isolated[rank].stats.accesses for rank in range(4)
    ]


def test_set_stride_spreads_rank_residue_streams():
    """A rank behind ``id % num_ranks`` routing sees only one residue
    class; stride-1 indexing folds that stream into a single set (8 ways
    of effective capacity), while striding by the rank count spreads it
    across every set — the regression that motivated ``set_stride``."""
    ids = [3 + 32 * k for k in range(64)]  # everything rank 3 ever sees
    strided = HotIndexCache(
        size_bytes=64 * 64, line_bytes=64, ways=8, set_stride=32
    )
    for vector_id in ids:
        strided.access(vector_id)
    assert all(contains(strided, vector_id) for vector_id in ids)
    folded = HotIndexCache(size_bytes=64 * 64, line_bytes=64, ways=8)
    for vector_id in ids:
        folded.access(vector_id)
    assert sum(contains(folded, v) for v in ids) == folded.ways
    # And the tier wires the stride in automatically.
    tier = HotIndexTier(
        HotTierConfig(size_bytes=64 * 64, line_bytes=64, ways=8), num_ranks=32
    )
    assert tier.cache_for(3).set_stride == 32


def test_untouched_cache_reports_zero_hit_rate():
    assert HotIndexCache().stats.hit_rate == 0.0
    assert CacheStats().hit_rate == 0.0
    assert isinstance(CacheStats(hits=0, misses=0).hit_rate, float)


def test_hit_rate_is_clamped_and_exact_at_the_edges():
    assert CacheStats(hits=5, misses=0).hit_rate == 1.0
    assert CacheStats(hits=0, misses=5).hit_rate == 0.0
    with pytest.raises(ValueError):
        CacheStats(hits=-1, misses=0)


def test_invalid_parameters_rejected():
    with pytest.raises(ValueError):
        HotIndexCache(size_bytes=0)
    with pytest.raises(ValueError):
        HotIndexCache(size_bytes=64, line_bytes=64, ways=2)  # capacity < ways
    with pytest.raises(ValueError):
        HotIndexCache(policy="random")
    with pytest.raises(ValueError):
        HotIndexCache(set_stride=0)
    with pytest.raises(ValueError):
        HotTierConfig(policy="mru")
    with pytest.raises(ValueError):
        HotTierConfig(hit_latency_cycles=-1)
    with pytest.raises(ValueError):
        HotIndexTier(HotTierConfig(), num_ranks=0)


def test_zero_budget_rank_is_uncached():
    # A budget below one line holds zero lines: every rank is uncached.
    tier = HotIndexTier(HotTierConfig(size_bytes=32, line_bytes=64), num_ranks=2)
    assert tier.cache_for(0) is None and tier.cache_for(1) is None
    assert tier.access(0, 5) is False
    assert tier.access(0, 5) is False  # never warms
    assert tier.stats.accesses == 0  # uncached ranks don't count
    assert per_rank_stats(tier, 2) == [CacheStats(), CacheStats()]


def test_tiny_budget_clamps_ways():
    config = HotTierConfig(size_bytes=3 * 64, line_bytes=64, ways=8)
    tier = HotIndexTier(config, num_ranks=1)
    cache = tier.cache_for(0)
    assert cache is not None
    assert cache.ways == 3
