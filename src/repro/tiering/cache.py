"""Rank-level hot-index cache: the shared model behind baseline and tier.

RecNMP (PAPERS.md) attacks the same redundant-gather problem as FAFNIR
from the other side: instead of deduplicating a batch before it reaches
memory, it deploys a small cache per rank that short-circuits DRAM reads
for *hot* embedding vectors (128 KB per rank buys at most a ~50 % hit
rate in the paper).  The two mechanisms compose — dedup removes
intra-batch redundancy, the cache removes cross-batch popularity
redundancy — which is exactly the ablation ``repro.cli cache`` and
``benchmarks/bench_ablation_cache.py`` measure.

This module is the single source of truth for that cache model:

* :class:`CacheStats` — hit/miss accounting shared by every consumer;
* :class:`HotIndexCache` — one set-associative cache keyed by vector id,
  with a configurable size / line / associativity / replacement policy;
* :class:`HotTierConfig` — a frozen, picklable description of a
  per-rank tier, safe to ship to :class:`~repro.core.sharding`
  worker processes;
* :class:`HotIndexTier` — the per-rank cache array a
  :class:`~repro.memory.system.MemorySystem` consults before its channel
  controllers.

``baselines/cache.py`` (the RecNMP baseline model) delegates to
:class:`HotIndexCache`, so the baseline's numbers and the FAFNIR tier
can never drift apart.

The tier is a *timing* model only: a hit replaces a DRAM read's modeled
latency with ``hit_latency_cycles`` and removes it from the access
stats, but the vector's value still comes from the engine's source —
functional results are byte-identical with the tier on or off (the
contract ``tests/integration/test_cache_differential.py`` enforces).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

#: Replacement policies understood by :class:`HotIndexCache`.
POLICY_LRU = "lru"
POLICY_FIFO = "fifo"
POLICIES = (POLICY_LRU, POLICY_FIFO)


@dataclass
class CacheStats:
    """Hit/miss accounting for one cache (or an aggregate of many).

    ``hit_rate`` is defined as exactly ``0.0`` for an untouched cache
    (never a division error or a NaN), is always a plain Python float,
    and is clamped to ``[0.0, 1.0]`` so aggregation arithmetic upstream
    can never push it out of range.
    """

    hits: int = 0
    misses: int = 0

    def __post_init__(self) -> None:
        if self.hits < 0 or self.misses < 0:
            raise ValueError("hits and misses must be non-negative")

    @property
    def accesses(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        accesses = self.accesses
        if accesses <= 0:
            return 0.0
        return min(1.0, float(self.hits) / float(accesses))

    def merged_with(self, other: "CacheStats") -> "CacheStats":
        return CacheStats(
            hits=self.hits + other.hits, misses=self.misses + other.misses
        )

    def to_dict(self) -> Dict[str, float]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "accesses": self.accesses,
            "hit_rate": self.hit_rate,
        }


class HotIndexCache:
    """One set-associative cache of hot vector ids.

    Capacity is ``size_bytes // line_bytes`` lines (one whole vector per
    line, as RecNMP caches whole embeddings); a line's set is selected by
    ``(vector_id // set_stride) % num_sets``.  ``set_stride`` defaults to
    1 (the classic ``id % num_sets`` indexing the RecNMP baseline uses);
    a rank-local cache behind an interleaved placement must pass the
    rank count instead, because every id routed to one rank shares the
    same ``id % num_ranks`` residue — indexing raw ids there would fold
    the whole rank into a single set.  ``policy`` picks the eviction
    order within a set: ``"lru"`` (hits refresh recency) or ``"fifo"``
    (insertion order only).
    """

    def __init__(
        self,
        size_bytes: int = 128 * 1024,
        line_bytes: int = 512,
        ways: int = 8,
        policy: str = POLICY_LRU,
        set_stride: int = 1,
    ) -> None:
        if size_bytes <= 0 or line_bytes <= 0 or ways <= 0 or set_stride <= 0:
            raise ValueError("cache parameters must be positive")
        if policy not in POLICIES:
            raise ValueError(
                f"unknown replacement policy {policy!r}; choose from {POLICIES}"
            )
        capacity = size_bytes // line_bytes
        if capacity < ways:
            raise ValueError(
                f"cache of {size_bytes} B holds {capacity} lines, fewer "
                f"than {ways} ways"
            )
        self.size_bytes = size_bytes
        self.line_bytes = line_bytes
        self.num_sets = max(1, capacity // ways)
        self.ways = ways
        self.policy = policy
        self.set_stride = set_stride
        self._sets: Dict[int, List[int]] = {}
        self.stats = CacheStats()

    @property
    def capacity_lines(self) -> int:
        return self.num_sets * self.ways

    def access(self, vector_id: int) -> bool:
        """Touch a vector id; returns True on hit.  Misses allocate."""
        if vector_id < 0:
            raise ValueError("vector_id must be non-negative")
        index = (vector_id // self.set_stride) % self.num_sets
        entries = self._sets.setdefault(index, [])
        if vector_id in entries:
            if self.policy == POLICY_LRU:
                entries.remove(vector_id)
                entries.append(vector_id)  # most-recently-used at the tail
            self.stats.hits += 1
            return True
        self.stats.misses += 1
        entries.append(vector_id)
        if len(entries) > self.ways:
            entries.pop(0)
        return False

    def reset(self) -> None:
        """Drop all cached lines and the stats."""
        self._sets.clear()
        self.stats = CacheStats()


@dataclass(frozen=True)
class HotTierConfig:
    """Frozen description of a rank-level hot-index tier.

    Plain picklable data: engines, the serving simulator, and
    :class:`~repro.core.sharding.ShardedRunner` workers all receive this
    *description* and build their own stateful :class:`HotIndexTier` from
    it, so cache state never has to cross a process boundary.

    Attributes:
        size_bytes: per-rank capacity (RecNMP's reference point is
            128 KB/rank); a budget below one line disables the caches.
        line_bytes: bytes per cached line — one whole vector at the
            paper's 512 B reference.
        ways: set associativity (clamped when a small
            budget holds fewer lines than ways).
        policy: ``"lru"`` or ``"fifo"`` eviction within a set.
        hit_latency_cycles: modeled DRAM-clock latency of a hit — the
            near-rank SRAM lookup replacing the full DRAM access.
    """

    size_bytes: int = 128 * 1024
    line_bytes: int = 512
    ways: int = 8
    policy: str = POLICY_LRU
    hit_latency_cycles: int = 4

    def __post_init__(self) -> None:
        if self.size_bytes < 0 or self.line_bytes <= 0 or self.ways <= 0:
            raise ValueError("cache parameters must be positive")
        if self.policy not in POLICIES:
            raise ValueError(
                f"unknown replacement policy {self.policy!r}; "
                f"choose from {POLICIES}"
            )
        if self.hit_latency_cycles < 0:
            raise ValueError("hit_latency_cycles must be non-negative")


class HotIndexTier:
    """One :class:`HotIndexCache` per rank, built from a config.

    A rank whose configured budget holds zero lines carries no cache —
    its reads always go to DRAM and are not counted as tier accesses.
    Budgets smaller than ``ways`` lines clamp the associativity instead
    of erroring.

    Per-rank caches index sets with ``set_stride = num_ranks``: the
    memory system routes ids to ranks by ``id % num_ranks``, so every id
    one rank ever sees shares the same low residue, and indexing raw ids
    (stride 1) would collapse a rank's whole id stream into one set —
    ``ways`` lines of effective capacity no matter the budget.  Striding
    by the rank count indexes on the rank-local address instead, exactly
    like a real per-rank cache indexing rank-local DRAM addresses.
    """

    def __init__(self, config: HotTierConfig, num_ranks: int) -> None:
        if num_ranks <= 0:
            raise ValueError("num_ranks must be positive")
        self.config = config
        self.num_ranks = num_ranks
        lines = config.size_bytes // config.line_bytes
        self._caches: List[Optional[HotIndexCache]] = []
        for _ in range(num_ranks):
            if lines <= 0:
                self._caches.append(None)
                continue
            self._caches.append(
                HotIndexCache(
                    size_bytes=config.size_bytes,
                    line_bytes=config.line_bytes,
                    ways=min(config.ways, lines),
                    policy=config.policy,
                    set_stride=num_ranks,
                )
            )

    @property
    def hit_latency_cycles(self) -> int:
        return self.config.hit_latency_cycles

    def cache_for(self, rank: int) -> Optional[HotIndexCache]:
        return self._caches[rank]

    def access(self, rank: int, vector_id: int) -> bool:
        """Touch ``vector_id`` on ``rank``; False when the rank is uncached."""
        cache = self._caches[rank]
        if cache is None:
            return False
        return cache.access(vector_id)

    def reset(self) -> None:
        for cache in self._caches:
            if cache is not None:
                cache.reset()

    @property
    def stats(self) -> CacheStats:
        total = CacheStats()
        for cache in self._caches:
            if cache is not None:
                total = total.merged_with(cache.stats)
        return total
