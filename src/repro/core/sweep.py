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

The leaf boundary takes the batch's read occurrences as columns
(:class:`LeafColumns`).  A FIFO can fold exactly when one of its queries
or one of its indices arrives twice (paper §IV-B: two indices of one
query homed in the same rank; or, without deduplication, two reads of one
index).  A per-FIFO ``folds`` mask picks between two closed forms.  On a
FIFO that cannot fold the fold is the identity: each read stays one
message, and the only work is the compares, ``Σ position × #(ids whose
query has more than one index)``.  Every FIFO that can fold is folded at
once, with loops over chain steps only.  A chain is one (FIFO, query)
pair's non-duplicate reads in arrival order, ``s_1..s_k`` with ``S_m =
{s_1..s_m}``: its value is ``V_m = combine(v(s_m), V_{m-1})`` and its
ready cycle ``R_m = max(r_m, R(partner)) + reduce_path``, the partner
being the first-created row with index set ``S_{m-1}`` still live at that
step (with deduplication every such row is ready at ``R_{m-1}``; without,
it can be another query's copy of the read).  Rows with equal index sets
left at the end merge into one message.

The result matches the per-message PE model and its sequential leaf fold
(the test suite's differential oracle) byte for byte in vectors, ready
cycles and work counters, and traced runs emit the same
``pe_reduce``/``pe_forward``/``pe_merge`` events per PE — in a different
order within a level.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from typing import Dict, FrozenSet, List, Sequence, Tuple

import numpy as np

from repro.core.batch import BatchPlan
from repro.core.config import FafnirConfig
from repro.core.operators import ReductionOperator
from repro.core.pe import PEWork
from repro.core.tree import FafnirTree
from repro.obs.events import KIND_CODES, PE_FORWARD, PE_MERGE, PE_REDUCE
from repro.obs.tracer import Tracer

Query = FrozenSet[int]
_ABSENT = np.iinfo(np.int64).max


@dataclass
class LeafColumns:
    """One batch's leaf FIFOs as columns, one entry per read occurrence in
    arrival order: its vector ``index``, its ``fifo`` (FIFO ``2k+s`` is side
    ``s`` of leaf ``k``), its ``ready`` PE cycle, the number of query ids it
    serves (``id_counts``) and its vector (``values``); ``ids`` holds the
    served query ids, occurrence-major
    (:attr:`~repro.core.batch.BatchPlan.serving`).  ``fifos`` is the tree's
    FIFO count.  All copies of one index arrive together."""

    index: np.ndarray
    fifo: np.ndarray
    ready: np.ndarray
    id_counts: np.ndarray
    ids: np.ndarray
    values: Sequence[np.ndarray]
    fifos: int


@dataclass
class LeafMessages:
    """The leaf FIFOs' messages, numbered FIFO-major, then in folded order
    (arrival order on a FIFO that cannot fold).

    ``value``, ``ready``, ``size`` (indices folded in) and ``fifo`` hold one
    entry per message; ``table`` is the (query id × FIFO) table of message
    ids, ``-1`` where the query has no index on the FIFO; ``work`` is each
    leaf PE's fold work.
    """

    table: np.ndarray
    value: np.ndarray
    ready: np.ndarray
    size: np.ndarray
    fifo: np.ndarray
    work: List[PEWork]


def fifo_positions(fifo: np.ndarray) -> np.ndarray:
    """Each occurrence's 0-based arrival position in its FIFO ``fifo``."""
    order = np.argsort(fifo, kind="stable")
    ordered = fifo[order]
    position = np.empty(len(fifo), np.int64)
    position[order] = np.arange(len(fifo)) - np.searchsorted(ordered, ordered)
    return position


def leaf_messages(
    queries: Sequence[Query],
    leaf: LeafColumns,
    operator: ReductionOperator,
    reduce_path: int,
    tracer: Tracer,
) -> LeafMessages:
    """Fold the FIFOs that can fold; pass every other FIFO through as is.

    ``queries[q]`` is the index set of query id ``q``.
    """
    fifo, occurrences = leaf.fifo, len(leaf.fifo)
    counts, query = leaf.id_counts, leaf.ids
    carrier = np.repeat(np.arange(occurrences), counts)  # each id's occurrence

    # A FIFO can fold iff a (FIFO, query id) or a (FIFO, index) pair repeats.
    folds = np.zeros(leaf.fifos, bool)
    pair = np.sort(fifo[carrier] * len(queries) + query)
    folds[pair[1:][pair[1:] == pair[:-1]] // len(queries)] = True
    by_index = np.argsort(leaf.index, kind="stable")
    folds[fifo[by_index[1:][np.diff(leaf.index[by_index]) == 0]]] = True
    free = ~folds[fifo]

    # The identity fold's compares: a query of more than one index scans
    # every row buffered before its own.
    position = fifo_positions(fifo)
    lengths = np.fromiter(map(len, queries), np.int64, len(queries))
    multi = np.bincount(carrier, lengths[query] > 1, minlength=occurrences)
    counters = np.zeros((6, leaf.fifos // 2), np.int64)  # PEWork's, per leaf PE
    counters[0] = np.bincount(fifo[free] >> 1, (position * multi)[free],
                              minlength=leaf.fifos // 2)
    folded = (_fold(lengths, leaf, query, carrier, counts, folds, operator,
                    reduce_path, tracer, counters)
              if folds.any() else None)

    # Number the messages FIFO-major; a free occurrence keeps its position.
    per_fifo = np.bincount(fifo[free], minlength=leaf.fifos)
    if folded is not None:
        per_fifo += np.bincount(folded.fifo, minlength=leaf.fifos)
    offset = np.cumsum(per_fifo) - per_fifo
    message = offset[fifo] + position
    total = int(per_fifo.sum())
    table = np.full((len(queries), leaf.fifos), -1, np.int64)
    kept = free[carrier]
    table[query[kept], fifo[carrier[kept]]] = message[carrier[kept]]
    ready = np.empty(total, np.int64)
    ready[message[free]] = leaf.ready[free]
    size = np.ones(total, np.int64)
    # Each message's vector: its occurrence's, or (after the occurrences)
    # its folded message's.
    source = leaf.values
    vector = np.empty(total, np.int64)
    vector[message[free]] = np.flatnonzero(free)
    if folded is not None:
        at = offset[folded.fifo] + np.arange(len(folded.fifo)) - np.searchsorted(
            folded.fifo, folded.fifo)
        cells = folded.table >= 0
        table[cells] = at[folded.table[cells]]
        ready[at], size[at] = folded.ready, folded.size
        source = [*source, *folded.value]
        vector[at] = occurrences + np.arange(len(at))
    value = np.stack(list(map(source.__getitem__, vector.tolist())))
    work = [PEWork(*row) for row in zip(*counters.tolist())]
    message_fifo = np.repeat(np.arange(leaf.fifos), per_fifo)
    return LeafMessages(table, value, ready, size, message_fifo, work)


def _fold(lengths, leaf, query, carrier, counts, folds, operator, reduce_path,
          tracer, counters) -> LeafMessages:
    """The FIFOs in ``folds`` through the leaf fold, all at once.

    Adds the fold's work to ``counters`` (a row per :class:`PEWork`
    field, from ``compares`` to ``entries_consumed``; a column per leaf PE)
    and returns the folded FIFOs' messages, numbered FIFO-major from 0
    (``table`` holds those numbers and ``work`` is empty).  The loops run
    over chain steps only.
    """
    pick = np.flatnonzero(folds[leaf.fifo[carrier]])
    n, q = carrier[pick], query[pick]
    index = leaf.index[n]
    # A second (index, query id) pair is a duplicate: it never enters a chain.
    by = np.lexsort((q, index))
    again = (index[by[1:]] == index[by[:-1]]) & (q[by[1:]] == q[by[:-1]])
    duplicate = np.zeros(len(pick), bool)
    duplicate[by[1:][again]] = True
    pes = leaf.fifos // 2
    counters[4] += np.bincount(leaf.fifo[n[duplicate]] >> 1, minlength=pes)
    pick, n, q, index = pick[~duplicate], n[~duplicate], q[~duplicate], index[~duplicate]
    f = leaf.fifo[n]

    # Keys of the fold's steps, in its order: arrival, then phase — 0 for
    # each id's step (reduce and consume), 1 for the arrival's own row, 2
    # for each produced row — then the id's position in the arrival.
    width = int(counts.max())
    step = 3 * width * n + pick - (np.cumsum(counts) - counts)[n]
    made = step + 2 * width
    never = 3 * width * len(leaf.fifo)  # after every step
    span = never + 1

    # Chains: each (FIFO, query id)'s reads in arrival order; m is the step.
    c = np.lexsort((q, f))
    new = np.r_[True, (f[c[1:]] != f[c[:-1]]) | (q[c[1:]] != q[c[:-1]])]
    head = np.maximum.accumulate(np.where(new, np.arange(len(c)), 0))
    m = np.empty(len(c), np.int64)
    m[c] = np.arange(len(c)) - head + 1
    prev, nxt = np.full(len(c), -1), np.full(len(c), -1)
    linked = ~new[1:]
    prev[c[1:][linked]] = c[:-1][linked]
    nxt[c[:-1][linked]] = c[1:][linked]
    last = c[np.r_[new[1:], True]]
    gone = np.where(nxt >= 0, step[nxt], never)  # when the pair's row loses it

    # Index sets: {index} at step 1; step m's set names (step m-1's set,
    # index), so equal names are equal sets.
    known, first, dense = np.unique(index, return_index=True, return_inverse=True)
    set_of = dense.copy()
    steps = int(m.max())
    by_step = np.argsort(m, kind="stable")
    bounds = np.searchsorted(m[by_step], np.arange(1, steps + 2))
    at_step = [by_step[bounds[s - 1] : bounds[s]] for s in range(2, steps + 1)]
    founders, sizes = [], [np.ones(len(known), np.int64)]
    base = len(known)
    for s, at in enumerate(at_step, start=2):
        name = set_of[prev[at]] * len(known) + dense[at]
        _, founder, inverse = np.unique(name, return_index=True, return_inverse=True)
        set_of[at] = base + inverse
        founders.append(at[founder])
        sizes.append(np.full(len(founder), s))
        base += len(founder)

    # Rows: one per arrival keeping an id (the step-1 ids), one per
    # produced pair (step ≥ 2).  A row is live from its creation until the
    # step that consumes its last query.
    starts = np.flatnonzero(m == 1)
    opens = np.r_[True, n[starts[1:]] != n[starts[:-1]]]
    arrival = starts[opens]
    produced = np.flatnonzero(m >= 2)
    row_set = np.r_[set_of[arrival], set_of[produced]]
    created = np.r_[3 * width * n[arrival] + width, made[produced]]
    emptied = np.r_[np.maximum.reduceat(gone[starts], np.flatnonzero(opens)),
                    gone[produced]]
    row_fifo = np.r_[f[arrival], f[produced]]
    row_of = np.empty(len(c), np.int64)
    row_of[produced] = len(arrival) + np.arange(len(produced))

    # A step's partner is the first-created row with the chain's previous
    # set still live at that step: the first, in creation order, whose
    # emptied key — or an earlier row's — reaches it.
    by_set = np.lexsort((created, row_set))
    reach = np.maximum.accumulate(row_set[by_set] * span + emptied[by_set])
    partner = np.empty(len(c), np.int64)
    partner[produced] = by_set[np.searchsorted(
        reach, set_of[prev[produced]] * span + step[produced])]

    ready = np.empty(len(row_set), np.int64)
    ready[: len(arrival)] = leaf.ready[n[arrival]]
    # Set values; a step-1 set's id is its index's dense id.
    vector = leaf.values[0]
    value = np.empty((base, *vector.shape), vector.dtype)
    np.stack(list(map(leaf.values.__getitem__, n[first].tolist())),
             out=value[: len(known)])
    for at, founder in zip(at_step, founders):
        ready[row_of[at]] = np.maximum(leaf.ready[n[at]], ready[partner[at]]) + reduce_path
        value[set_of[founder]] = operator.combine(value[dense[founder]],
                                                  value[set_of[prev[founder]]])
    size = np.concatenate(sizes)

    # Compares: the rows live at each charged step, on its FIFO — every
    # id step of a multi-index query, and every produced row whose query
    # is still incomplete.
    incomplete = produced[m[produced] < lengths[q[produced]]]
    charged = np.r_[step[lengths[q] > 1], made[incomplete]]
    charged_fifo = np.r_[f[lengths[q] > 1], f[incomplete]]
    low, key = charged_fifo * span, charged_fifo * span + charged
    opened = np.sort(row_fifo * span + created)
    closed = np.sort(row_fifo * span + emptied)
    live = (np.searchsorted(opened, key) - np.searchsorted(opened, low)
            - np.searchsorted(closed, key) + np.searchsorted(closed, low))
    counters[0] += np.bincount(charged_fifo >> 1, live, minlength=pes).astype(np.int64)
    reduces = np.bincount(f[produced] >> 1, minlength=pes)
    counters[1] += reduces
    counters[5] += 2 * reduces  # each consumes its entry and its partner's

    # Messages: the sets of the rows live at the end, FIFO-major, each in
    # the order of its first live row; two or more rows of a set merge.
    final = np.flatnonzero(emptied == never)
    grouped = final[np.lexsort((created[final], row_set[final]))]
    opens = np.r_[True, row_set[grouped[1:]] != row_set[grouped[:-1]]]
    runs = np.flatnonzero(opens)
    lead = grouped[opens]
    members = np.diff(np.r_[runs, len(grouped)])
    message_ready = np.maximum.reduceat(ready[grouped], runs)
    order = np.lexsort((created[lead], row_fifo[lead]))
    lead, members, message_ready = lead[order], members[order], message_ready[order]
    message_set, message_fifo = row_set[lead], row_fifo[lead]
    merged = np.flatnonzero(members > 1)
    counters[3] += np.bincount(message_fifo[merged] >> 1, minlength=pes)
    message_of = np.empty(base, np.int64)
    message_of[message_set] = np.arange(len(lead))
    table = np.full((len(lengths), leaf.fifos), -1, np.int64)
    table[q[last], f[last]] = message_of[set_of[last]]

    if tracer.enabled:  # per FIFO: its reduces in arrival order, then merges
        merge = np.r_[np.zeros(len(produced), bool), np.ones(len(merged), bool)]
        at_fifo = np.r_[f[produced], message_fifo[merged]]
        order = np.lexsort((merge, at_fifo))
        tracer.emit_columns(
            np.where(merge, KIND_CODES[PE_MERGE], KIND_CODES[PE_REDUCE])[order],
            np.r_[ready[len(arrival):], message_ready[merged]][order],
            np.r_[np.full(len(produced), reduce_path), members[merged]][order, None],
            pe=at_fifo[order] >> 1,
            level=0,
        )
    return LeafMessages(table, value[message_set], message_ready,
                        size[message_set], message_fifo, [])


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
    leaf_inputs: LeafColumns,
    config: FafnirConfig,
    tree: FafnirTree,
    operator: ReductionOperator,
    tracer: Tracer,
    phased: bool,
) -> SweepResult:
    """Run the PE tree over one batch's leaf FIFOs, level by level.

    The occurrences serve ``plan``'s query ids (:attr:`BatchPlan.distinct`).
    """
    units = config.compute_units
    reduce_path = config.latencies.reduce_path
    forward_path = config.latencies.forward_path
    # Level L+1's node k joins level L's nodes 2k and 2k+1.
    levels = [tree.level_ids(level) for level in range(tree.num_levels)]
    distinct = plan.distinct
    lengths = np.fromiter(map(len, distinct), np.int64, len(distinct))

    # Leaf boundary: each (query, FIFO) gets the id of the message carrying
    # the query, FIFO 2k+s being side s of leaf k.
    boundary = leaf_messages(distinct, leaf_inputs, operator, reduce_path, tracer)
    table, value, ready, size, position = (
        boundary.table, boundary.value, boundary.ready, boundary.size,
        boundary.fifo,
    )
    issue_order = _IssueOrder(distinct, lengths, leaf_inputs)

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
    for n, fold in enumerate(boundary.work):
        works[n] = works[n].merged_with(fold)
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

    def __init__(self, queries, lengths, leaf: LeafColumns) -> None:
        self._source, self._table = (queries, lengths, leaf), None

    def _index_table(self) -> Tuple[np.ndarray, np.ndarray]:
        queries, lengths, leaf = self._source
        known, first = np.unique(leaf.index, return_index=True)
        leaves = leaf.fifo[first] >> 1
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
