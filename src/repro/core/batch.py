"""Host-side batch preprocessing (paper §IV-C, Fig. 6b).

Before a batch of queries is issued to the tree, the host:

1. normalises each query to a set of global vector indices,
2. extracts the batch's **unique** indices — each is read from DRAM exactly
   once, however many queries share it, and
3. numbers the batch's distinct queries once, and lists the queries each
   read serves — the ids behind the paper's initial header for a unique
   index, whose ``queries`` field holds each query's *other* indices.

The ``deduplicate=False`` path issues one read per (query, index) occurrence
instead — the ablation the paper uses to separate FAFNIR's parallel-tree
speedup (Fig. 13 solid bars) from its redundant-access elimination
(striped bars, Fig. 15).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import chain
from typing import FrozenSet, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

Query = FrozenSet[int]


class Serving(NamedTuple):
    """The query ids a stream's read occurrences serve, as columns.

    ``reads[u]`` is the number of read occurrences of the ``u``-th
    (batch, unique index) pair; occurrence ``n`` (all of one pair's
    occurrences together, in the pairs' order) serves ``counts[n]`` query
    ids, and ``ids`` holds them all, occurrence-major.
    """

    reads: np.ndarray
    counts: np.ndarray
    ids: np.ndarray


@dataclass(frozen=True)
class BatchPlan:
    """Everything the engine needs to run one batch.

    Attributes:
        queries: normalised query index sets, in submission order.
        reads: vector indices to fetch from memory (unique, or one per
            occurrence when deduplication is disabled).
        deduplicated: whether redundant reads were eliminated.

    The derived views below are computed on first use, so callers that
    only count reads (the baselines, the schedulers) never pay for them.
    """

    queries: Tuple[Query, ...]
    reads: Tuple[int, ...]
    deduplicated: bool

    @cached_property
    def distinct(self) -> Tuple[Query, ...]:
        """The batch's distinct queries in first-appearance order; a
        query's position here is its *query id*."""
        return tuple(dict.fromkeys(self.queries))

    @cached_property
    def query_ids(self) -> Tuple[int, ...]:
        """Each query's id, in submission order."""
        position = {query: n for n, query in enumerate(self.distinct)}
        return tuple(map(position.__getitem__, self.queries))

    @cached_property
    def total_lookups(self) -> int:
        """Sum of query lengths — the naive access count."""
        return sum(map(len, self.queries))

    @cached_property
    def unique_indices(self) -> Tuple[int, ...]:
        return tuple(sorted(set(self.reads)))

    @property
    def unique_fraction(self) -> float:
        """Fraction of lookups that are unique (paper Fig. 3)."""
        total = self.total_lookups
        return len(self.unique_indices) / total if total else 0.0

    @property
    def accesses_saved(self) -> int:
        """Memory reads avoided relative to the naive plan (paper Fig. 15)."""
        return self.total_lookups - len(self.reads)


def normalize_queries(
    raw_queries: Sequence[Sequence[int]], max_query_len: Optional[int] = None
) -> Tuple[Query, ...]:
    """Validate and canonicalise a batch of queries.

    Duplicate indices *within* one query are collapsed (the tree's header
    algebra works on sets); duplicate queries across the batch are kept —
    they are distinct outputs that happen to be equal.
    """
    if not raw_queries:
        raise ValueError("batch must contain at least one query")
    queries: List[Query] = []
    for position, raw in enumerate(raw_queries):
        query = frozenset(map(int, raw))
        if not query:
            raise ValueError(f"query {position} is empty")
        if min(query) < 0:
            raise ValueError(f"query {position} contains a negative index")
        if max_query_len is not None and len(query) > max_query_len:
            raise ValueError(
                f"query {position} has {len(query)} indices, "
                f"exceeding the configured maximum of {max_query_len}"
            )
        queries.append(query)
    return tuple(queries)


def plan_batch(
    raw_queries: Sequence[Sequence[int]],
    max_query_len: Optional[int] = None,
    deduplicate: bool = True,
) -> BatchPlan:
    """Build the read list for one batch."""
    queries = normalize_queries(raw_queries, max_query_len)
    if deduplicate:
        reads = tuple(sorted(set().union(*queries)))
    else:
        reads = tuple(index for query in queries for index in sorted(query))
    return BatchPlan(queries=queries, reads=reads, deduplicated=deduplicate)


def stream_serving(plans: Sequence[BatchPlan]) -> Serving:
    """The query ids the read occurrences of a stream of batches serve, as
    columns.

    Occurrences run batch after batch, each batch's grouped by unique
    index, ascending (the order of :attr:`BatchPlan.unique_indices`).
    Query ids run across the stream: a batch's distinct queries
    (:attr:`BatchPlan.distinct`) are numbered after those of the batches
    before it.  With deduplication an index has one read, serving every
    distinct query of its batch that contains it in canonical order: by
    length, then sorted indices.  That is the order of the paper's initial
    header entries ``q − {index}``, since dropping a common index from two
    queries keeps their order.  Without deduplication ``reads`` lists the
    occurrences query-major, so occurrence ``j`` of an index serves the
    ``j``-th query containing it, in submission order.  Every plan of a
    stream shares one ``deduplicated`` flag.
    """
    deduplicated = plans[0].deduplicated
    per_batch = [plan.distinct if deduplicated else plan.queries for plan in plans]
    queries = list(chain.from_iterable(per_batch))
    sizes = np.fromiter(map(len, queries), np.int64, len(queries))
    ends = np.cumsum(sizes)
    index = np.fromiter(chain.from_iterable(queries), np.int64, int(ends[-1]))
    owner = np.repeat(np.arange(len(queries)), sizes)
    # Each (query, index) entry keyed by batch, then index, then the
    # query's canonical rank (or, without deduplication, its submission
    # order, by a stable sort).  Indices too large for one key are
    # renumbered densely, in order.
    span = int(index.max()) + 1
    if len(plans) * span * len(queries) >= 2**62:
        _, index = np.unique(index, return_inverse=True)
        span = int(index.max()) + 1
    key = index
    if len(plans) > 1:
        batch = np.repeat(np.arange(len(plans)), list(map(len, per_batch)))
        key = batch[owner] * span + index
    if deduplicated:
        rank = _canonical_rank(sizes, index, owner, ends)
        order = np.argsort(key * len(queries) + rank[owner])
        ids = owner[order]
    else:
        order = np.argsort(key, kind="stable")
        first = np.cumsum([0] + [len(plan.distinct) for plan in plans[:-1]])
        ids = np.array([n for plan in plans for n in plan.query_ids], np.int64)
        ids = (ids + np.repeat(first, list(map(len, per_batch))))[owner[order]]
    key = key[order]
    edge = np.ones(len(key) + 1, bool)  # occurrence run starts, then the end
    np.not_equal(key[1:], key[:-1], out=edge[1:-1])
    bounds = np.flatnonzero(edge)
    per_index = bounds[1:] - bounds[:-1]
    if deduplicated:
        return Serving(np.ones(len(per_index), np.int64), per_index, ids)
    return Serving(per_index, np.ones(len(ids), np.int64), ids)


def _canonical_rank(sizes, index, owner, ends) -> np.ndarray:
    """Each query's rank by (length, sorted indices), from one key per
    query: its length and row-sorted indices as big-endian bytes, which
    compare in that order.  Rows are padded with zeros, which sort first:
    alike for queries of one length.  Equal queries tie."""
    width = int(sizes.max())
    rows = np.zeros((len(sizes), width), np.int64)
    rows[owner, np.arange(len(index)) - (ends - sizes)[owner]] = index
    rows.sort(axis=1)
    key = np.empty((len(sizes), width + 1), ">i8")
    key[:, 0] = sizes
    key[:, 1:] = rows
    rank = np.empty(len(sizes), np.int64)
    rank[np.argsort(key.view(f"V{8 * (width + 1)}").ravel())] = np.arange(len(sizes))
    return rank
