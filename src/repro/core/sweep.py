"""Closed-form tree sweep: every PE of one level in a handful of array ops.

On engine-built inputs a PE's output messages are exactly the distinct
projections ``q ∩ idx(subtree)`` of the batch's queries (paper §IV-B, the
source of the ``min(nm+n+m, B)`` bound).  Whether a query reaches a PE on
the left input, the right input or both therefore fixes everything the PE
does with it: on both sides each entry finds the other side's message for
the query (two reduces, one dropped by the merge unit as a duplicate); on
one side nothing on the other input lies inside the entry (one forward).

So routing is a group-by, not a search.  A message is named by the pair
(left id, right id) of the child messages it came from, ``-1`` for an
absent side; the children cover disjoint indices, so equal pairs mean equal
index sets.  Each level keeps a (query × node) table of message ids, and
one group-by over the pairs of its live cells gives the level's messages.
Per PE, with ``|A|``, ``|B|`` the inputs' message counts: ``compares =
|B|·pending_A + |A|·pending_B`` (``pending``: the query is not complete
below that child), ``reduces = 2·both``, ``duplicates_removed = both``,
``forwards`` = one-sided queries, ``merges`` = messages built from more
than one raw compute-unit output, ``outputs`` = messages and
``peak_input_occupancy = max(|A|, |B|)``, counted for every PE at once
after the last level.

A message is ready ``forward_path`` after its child message, or
``reduce_path`` after the later of its two.  The issue limit would stall
the message ranked ``r`` within its PE under (ready, sorted indices) by
``r // compute_units`` cycles, but a PE emits at most one message per
distinct query and the paper sizes ``compute_units = B``, so that stall
is always zero.  Phased timing emits the message ``r`` cycles after the
PE's store-and-forward start, so only it ranks.  A reduce message carries
``combine(left, right)``, computed once per level for all of them.

The leaf FIFO fold (:func:`repro.core.pe.fold_stream`) stays the one
sequential step; its rows carry the plan's query ids and go straight into
the leaf table.  The result matches the
per-message PE model (the test suite's differential oracle) byte for byte
in vectors, ready cycles and work counters, and traced runs emit the same
``pe_reduce``/``pe_forward``/``pe_merge`` events per PE — in a different
order within a level.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from typing import Dict, FrozenSet, List, Mapping, Sequence, Tuple

import numpy as np

from repro.core.batch import BatchPlan
from repro.core.config import FafnirConfig
from repro.core.operators import ReductionOperator
from repro.core.pe import PEWork, Row, fold_stream
from repro.core.tree import FafnirTree
from repro.obs.events import KIND_CODES, PE_FORWARD, PE_MERGE, PE_REDUCE
from repro.obs.tracer import Tracer

Query = FrozenSet[int]
LeafInputs = Mapping[int, Sequence[Sequence[Row]]]
_ABSENT = np.iinfo(np.int64).max


@dataclass
class SweepResult:
    """One batch through the tree.

    ``values`` and ``ready`` are aligned with the plan's ``queries``.
    ``ids`` holds the message-id tables, one row per query id (the plan's
    ``distinct`` queries, copied to ``queries``) and ``-1`` where the
    query has no index below: ``ids[0]`` has a column per leaf FIFO (FIFO
    ``2k+s`` is side ``s`` of leaf ``k``), ``ids[level + 1]`` a column per
    node of that level.
    """

    values: np.ndarray
    ready: List[int]
    per_pe_work: Dict[int, PEWork]
    queries: Tuple[Query, ...]
    ids: List[np.ndarray]


def sweep_tree(
    plan: BatchPlan,
    leaf_inputs: LeafInputs,
    config: FafnirConfig,
    tree: FafnirTree,
    operator: ReductionOperator,
    tracer: Tracer,
    phased: bool,
) -> SweepResult:
    """Run the PE tree over one batch's leaf FIFOs, level by level.

    The FIFO rows carry ``plan``'s query ids (:attr:`BatchPlan.distinct`).
    """
    units = config.compute_units
    reduce_path = config.latencies.reduce_path
    forward_path = config.latencies.forward_path
    # Level L+1's node k joins level L's nodes 2k and 2k+1.
    levels = [tree.level_ids(level) for level in range(tree.num_levels)]
    distinct = plan.distinct
    lengths = np.fromiter(map(len, distinct), np.int64, len(distinct))

    # Leaf boundary: fold each FIFO (FIFO 2k+s is side s of leaf k) and
    # give each (query, FIFO) the id of the row carrying the query.
    fold_work: List[PEWork] = []
    messages: List[Tuple[Row, int]] = []
    cells: List[Tuple[int, int, int]] = []
    for leaf, pe_id in enumerate(levels[0]):
        fold_work.append(PEWork())
        for side, stream in enumerate(leaf_inputs[pe_id]):
            if not stream:
                continue
            fifo = 2 * leaf + side
            folded = fold_stream(stream, distinct, fold_work[-1], operator,
                                 reduce_path, tracer, pe_id, 0)
            for row in folded:
                message = len(messages)
                cells.extend((query, fifo, message) for query in row[1])
                messages.append((row, fifo))

    table = np.full((len(distinct), 2 * len(fold_work)), -1, np.int64)
    rows, columns, ids = np.array(cells, np.int64).T
    table[rows, columns] = ids
    value = np.stack([row[2] for row, _ in messages])
    ready = np.array([row[3] for row, _ in messages], np.int64)
    size = np.array([len(row[0]) for row, _ in messages], np.int64)
    position = np.array([fifo for _, fifo in messages], np.int64)
    issue_order = _IssueOrder(distinct, lengths, messages)

    # Structure: every level's messages, sizes and values, and the rows its
    # work counters count, with PEs numbered level by level from the leaves.
    tables, steps, counted = [table], [], []
    base = 0
    for pe_ids in levels:
        left, right = table[:, 0::2], table[:, 1::2]
        node, query = np.nonzero(((left >= 0) | (right >= 0)).T)
        a, b = left[query, node], right[query, node]
        key = (a + 1) * (len(size) + 1) + (b + 1)
        _, first, group, members = np.unique(
            key, return_index=True, return_inverse=True, return_counts=True
        )
        g_a, g_b, g_node = a[first], b[first], node[first]
        both = (g_a >= 0) & (g_b >= 0)
        source = np.where(g_a >= 0, g_a, g_b)
        pair = np.flatnonzero(both)
        pa, pb = g_a[pair], g_b[pair]
        g_size, g_value = size[source], value[source]
        if pair.size:
            g_size[pair] += size[pb]
            g_value[pair] = operator.combine(value[pa], value[pb])
        raw_rows = np.where(both, 2 * members, members)
        length = lengths[query]
        counted.append((
            base + node, both[group],  # each (query, node) row: two-sided?
            (a >= 0) & (size[a] < length), (b >= 0) & (size[b] < length),
            base + g_node, raw_rows > 1,  # each message: merged?
            base + (position >> 1), position & 1,  # each input: its side
        ))
        steps.append((node, group, g_node, both, source, pa, pb, raw_rows,
                      query[first], position))
        table = np.full((len(distinct), len(pe_ids)), -1, np.int64)
        table[query, node] = group
        tables.append(table)
        value, size, position = g_value, g_size, g_node
        base += len(pe_ids)

    pe, two_sided, pending_a, pending_b, out, merged, fed, side = map(
        np.concatenate, zip(*counted)
    )

    def count(pes, where=Ellipsis):
        return np.bincount(pes[where], minlength=base)

    size_a, size_b = count(fed, side == 0), count(fed, side == 1)
    duplicates = count(pe, two_sided)
    counters = [  # PEWork's fields, in order
        size_b * count(pe, pending_a) + size_a * count(pe, pending_b),  # compares
        2 * duplicates,  # reduces
        count(pe, ~two_sided),  # forwards
        count(out, merged),  # merges
        duplicates,  # duplicates_removed
        np.zeros(base, np.int64),  # entries_consumed
        count(out),  # outputs
        np.maximum(size_a, size_b),  # peak_input_occupancy
    ]
    works = [PEWork(*row) for row in zip(*(c.tolist() for c in counters))]
    for leaf, fold in enumerate(fold_work):
        works[leaf] = works[leaf].merged_with(fold)
    per_pe_work = dict(zip(chain.from_iterable(levels), works))
    compares = np.array([work.compares for work in works], np.int64)

    # Timing, level by level.
    base = 0
    for level, (pe_ids, step) in enumerate(zip(levels, steps)):
        node, group, g_node, both, source, pa, pb, raw_rows, rep, position = step
        raw = ready[source] + forward_path
        raw[both] = np.maximum(ready[pa], ready[pb]) + reduce_path
        if phased:
            start = np.zeros(len(pe_ids), np.int64)
            np.maximum.at(start, position >> 1, ready)
            work = np.maximum(compares[base : base + len(pe_ids)], 1)
            busy = (work - 1) // units + 1 + reduce_path
            rank = issue_order.rank(level, g_node, raw, rep)
            ready = start[g_node] + busy[g_node] + rank
        else:
            # A PE emits one message per distinct projection, so at most
            # B = compute_units of them: the issue limit's stall, rank //
            # compute_units, is zero.
            ready = raw
        if tracer.enabled:
            _emit(tracer, reduce_path, forward_path, level, pe_ids,
                  node, group, g_node, both, raw, raw_rows)
        base += len(pe_ids)

    root = table[:, 0]
    incomplete = np.flatnonzero((root < 0) | (size[root] != lengths))
    if incomplete.size:
        raise RuntimeError(
            f"tree failed to complete query {sorted(distinct[incomplete[0]])} "
            "— FAFNIR's completion guarantee was violated; this is a bug"
        )
    message = root[list(plan.query_ids)]
    return SweepResult(
        value[message], ready[message].tolist(), per_pe_work, distinct, tables
    )


def _emit(tracer, reduce_path, forward_path, level, pe_ids, node, group,
          g_node, both, raw, raw_rows) -> None:
    """One level's PE events, exactly as the per-message PEs count them:
    per (node, query) row in order two ``pe_reduce`` if two-sided, else
    one ``pe_forward``; then a ``pe_merge`` per merged message."""
    two_sided = both[group]
    row = np.repeat(np.arange(len(group)), np.where(two_sided, 2, 1))
    reduced = two_sided[row]
    merged = np.flatnonzero(raw_rows > 1)
    pe_ids = np.asarray(pe_ids)
    tracer.emit_columns(
        np.r_[np.where(reduced, KIND_CODES[PE_REDUCE], KIND_CODES[PE_FORWARD]),
              np.full(len(merged), KIND_CODES[PE_MERGE])],
        np.r_[raw[group[row]], raw[merged]],
        np.r_[np.where(reduced, reduce_path, forward_path),
              raw_rows[merged]][:, None],
        pe=np.r_[pe_ids[node[row]], pe_ids[g_node[merged]]],
        level=level,
    )


class _IssueOrder:
    """Issue order within a PE: by ready cycle, ties by sorted indices.

    A message's indices are its queries' indices homed below its node, so a
    tie is broken on a representative query's sorted index row with the
    other indices masked out.  Padding sorts as ``-1``, which puts a proper
    prefix first, as Python tuple order does.  The index table is built on
    the batch's first tie.
    """

    def __init__(self, queries, lengths, messages) -> None:
        self._source, self._table = (queries, lengths, messages), None

    def _index_table(self) -> Tuple[np.ndarray, np.ndarray]:
        queries, lengths, messages = self._source
        leaf_of = {i: fifo >> 1 for row, fifo in messages for i in row[0]}
        known = np.array(sorted(leaf_of), np.int64)
        leaves = np.array([leaf_of[i] for i in known.tolist()], np.int64)
        filled = np.arange(int(lengths.max())) < lengths[:, None]
        indices = np.full(filled.shape, -1, np.int64)
        indices[filled] = np.fromiter(
            chain.from_iterable(map(sorted, queries)), np.int64, filled.sum()
        )
        leaf = np.full(filled.shape, -1, np.int64)
        leaf[filled] = leaves[np.searchsorted(known, indices[filled])]
        return indices, leaf

    def rank(self, level, node, ready, representative) -> np.ndarray:
        order = np.lexsort((ready, node))
        tied = (np.diff(node[order]) == 0) & (np.diff(ready[order]) == 0)
        if tied.any():
            in_run = np.r_[tied, False] | np.r_[False, tied]
            runs = order[in_run]
            if self._table is None:
                self._table = self._index_table()
            indices, leaf = self._table
            rows = representative[runs]
            below = (leaf[rows] >> level) == node[runs, None]
            key = np.where(below, indices[rows], _ABSENT)
            key.sort(axis=1)
            key[key == _ABSENT] = -1
            columns = [key[:, c] for c in range(key.shape[1] - 1, -1, -1)]
            order[in_run] = runs[np.lexsort((*columns, ready[runs], node[runs]))]
        ordered = node[order]
        rank = np.empty(len(order), np.int64)
        rank[order] = np.arange(len(order)) - np.searchsorted(ordered, ordered)
        return rank
