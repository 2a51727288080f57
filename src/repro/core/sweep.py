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
PE's store-and-forward start, so only it ranks.

**A stream of batches is swept as one.**  The batches of a stream are
independent trees, so :func:`sweep_stream` runs the structure of all of
them in one pass: query ids are numbered across the stream (the batches'
distinct queries, batch after batch), the (query × FIFO) and (query ×
node) tables keep each batch's own columns, and everything grouped per
FIFO or per PE is keyed ``batch·FIFOs + fifo`` or ``batch·PEs + pe``.
Message ids run batch after batch at every level, so a batch's messages
are one contiguous range and its events and work are slices.

**Vectors move only where they combine.**  The sweep does not carry
vectors: a message names a row of its batch's value pool, and the sweep
writes a :class:`CombineProgram` — the pool's leaf rows (read vectors),
then one (row, row) pair per combine, for the fold-chain steps and each
level's reduces.  A forward copies its child's row id.  The program is
evaluated one batch at a time, so the pool holds one batch's rows, in a
buffer (:class:`ValuePool`) the engine keeps between sweeps: its leaf
rows are one ``take`` from the stream's matrix of read vectors, and each
step writes its rows in place through the operator's ufunc.  Only
the root rows are gathered.

The leaf boundary takes the read occurrences as columns
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
order within a level.  Each batch's events go to its own tracer, in the
order a one-batch sweep emits them.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate, chain
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
#: Rows of one combine step evaluated at a time (see
#: :meth:`CombineProgram.evaluate`).
STEP_ROWS = 256


@dataclass
class LeafColumns:
    """Leaf FIFOs as columns, one entry per read occurrence in arrival
    order: its ``batch`` in the stream (0 for a single batch), its vector
    ``index``, its ``fifo`` (FIFO ``2k+s`` is side ``s`` of leaf ``k``), its
    ``ready`` PE cycle, the number of query ids it serves (``id_counts``)
    and its vector (the row of ``values``, an occurrences × elements
    float64 matrix); ``ids`` holds the served query ids, numbered across
    the stream, occurrence-major (:func:`~repro.core.batch.stream_serving`).
    ``fifos`` is the tree's FIFO count.  All copies of one index in one
    batch arrive together."""

    index: np.ndarray
    fifo: np.ndarray
    ready: np.ndarray
    id_counts: np.ndarray
    ids: np.ndarray
    values: np.ndarray
    fifos: int
    batch: np.ndarray


class ValuePool:
    """Rows that :meth:`CombineProgram.evaluate` writes each batch's pool
    into, kept from one evaluation to the next.

    An evaluation writes every pool row before it reads it, so one buffer
    serves every batch and chunk an engine sweeps.  It grows to the
    largest pool asked for and never shrinks.  A pool allocated and freed
    per chunk left the process's peak resident size to where the allocator
    put the next chunk's blocks: on repeated 128×64-query batches (a
    13,260-row pool) it read 4.5 MB above a reused pool.
    """

    def __init__(self) -> None:
        self._buffer = np.empty((0, 0))

    def rows(self, count: int, width: int, dtype: np.dtype) -> np.ndarray:
        """``count`` rows of ``width`` ``dtype`` elements, contents undefined."""
        if (len(self._buffer) < count or self._buffer.shape[1] != width
                or self._buffer.dtype != dtype):
            self._buffer = None  # free the old buffer before allocating
            self._buffer = np.empty((count, width), dtype)
        return self._buffer[:count]


class CombineProgram:
    """A swept stream's vector work, as rows of one value pool per batch.

    Rows are numbered stream-wide in the order they are written: first the
    leaf rows, each the vector of one read occurrence (``leaf``), then
    each appended step's rows, ``combine(row a, row b)`` for each of its
    pairs.  Every step lists its pairs batch after batch and reads only
    rows written before it, so a batch's pool is its leaf rows followed by
    its share of each step, in step order.
    """

    def __init__(self, leaf: np.ndarray, batch: np.ndarray) -> None:
        self.leaf = leaf
        self.rows = len(leaf)
        self._batches = [batch]
        self._pairs: List[Tuple[np.ndarray, np.ndarray]] = []

    def append(self, a: np.ndarray, b: np.ndarray, batch: np.ndarray) -> np.ndarray:
        """One step: a new row ``combine(a[i], b[i])`` per pair, for batch
        ``batch[i]`` (non-decreasing).  Returns the new rows' ids."""
        rows = np.arange(self.rows, self.rows + len(a))
        self.rows += len(a)
        self._batches.append(batch)
        self._pairs.append((a, b))
        return rows

    def evaluate(
        self,
        values: np.ndarray,
        combine: np.ufunc,
        wanted: Sequence[np.ndarray],
        pool_rows: ValuePool,
    ) -> List[np.ndarray]:
        """Each batch's pool, one batch at a time, from ``values`` (a row
        per leaf occurrence); returns the rows ``wanted[b]`` of batch
        ``b``'s pool.

        Every row is written in place, in rows of ``pool_rows``: the leaf
        rows are taken from ``values``; a step's rows are its ``a`` rows,
        combined with its ``b`` rows through the element-wise ufunc
        ``combine``'s ``out``, a block of :data:`STEP_ROWS` rows at a time,
        so only one block of ``b`` rows is ever gathered outside the pool.
        """
        local, bounds, sizes = self._layout(len(wanted))
        pairs = self._pairs if local is None else [(local[a], local[b]) for a, b in self._pairs]
        size = max(sizes)
        block = pool_rows.rows(size + min(STEP_ROWS, self.rows), values.shape[1], values.dtype)
        buffer, scratch = block[:size], block[size:]
        pools = []
        for k, rows in enumerate(wanted):
            pool = buffer[: sizes[k]]  # one batch's pool at a time
            lo, hi = bounds[0][k], bounds[0][k + 1]
            end = hi - lo
            # Rows are in range and never overlap the output: mode="clip"
            # spares take's buffered copy.
            np.take(values, self.leaf[lo:hi], axis=0, out=pool[:end], mode="clip")
            for (a, b), step in zip(pairs, bounds[1:]):
                for lo in range(step[k], step[k + 1], STEP_ROWS):
                    hi = min(lo + STEP_ROWS, step[k + 1])
                    out, other = pool[end : end + hi - lo], scratch[: hi - lo]
                    np.take(pool[:end], a[lo:hi], axis=0, out=out, mode="clip")
                    np.take(pool[:end], b[lo:hi], axis=0, out=other, mode="clip")
                    combine(out, other, out=out)
                    end += hi - lo
            pools.append(pool[rows if local is None else local[rows]])
        return pools

    def _layout(self, batches: int):
        """Each row's place in its batch's pool (``None``: the row id, for
        one batch), where each batch's rows start and end in the leaf rows
        and in every step, and each batch's pool size."""
        if batches == 1:
            return None, [[0, len(steps)] for steps in self._batches], [self.rows]
        batch = np.concatenate(self._batches)
        order = np.argsort(batch, kind="stable")
        sizes = np.bincount(batch, minlength=batches)
        local = np.empty(len(batch), np.int64)
        local[order] = np.arange(len(batch)) - (np.cumsum(sizes) - sizes)[batch[order]]
        edges = np.arange(batches + 1)
        bounds = [np.searchsorted(steps, edges).tolist() for steps in self._batches]
        return local, bounds, sizes.tolist()


@dataclass
class LeafMessages:
    """The leaf FIFOs' messages, numbered by FIFO key ``batch·fifos +
    fifo``, then in folded order (arrival order on a FIFO that cannot
    fold).

    ``row`` (the message's row of ``program``), ``ready``, ``size``
    (indices folded in) and ``fifo`` (its FIFO key) hold one entry per
    message; ``table`` is the (query id × FIFO) table of message ids,
    ``-1`` where the query has no index on the FIFO; ``work`` is the fold
    work, a row per :class:`PEWork` field from ``compares`` to
    ``entries_consumed`` and a column per leaf PE key ``batch·PEs + pe``.
    """

    table: np.ndarray
    row: np.ndarray
    ready: np.ndarray
    size: np.ndarray
    fifo: np.ndarray
    work: np.ndarray
    program: CombineProgram


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
    reduce_path: int,
    tracers: Sequence[Tracer],
) -> LeafMessages:
    """Fold the FIFOs that can fold; pass every other FIFO through as is.

    ``queries[q]`` is the index set of query id ``q``; the columns hold
    ``len(tracers)`` batches, and ``tracers[b]`` receives batch ``b``'s
    fold events.
    """
    fifos, batches = leaf.fifos, len(tracers)
    keys = batches * fifos
    fifo = leaf.batch * fifos + leaf.fifo  # FIFO keys
    occurrences = len(fifo)
    counts, query = leaf.id_counts, leaf.ids
    carrier = np.repeat(np.arange(occurrences), counts)  # each id's occurrence

    # A FIFO can fold iff a (FIFO, query id) or a (FIFO, index) pair
    # repeats.  An index read in two batches is two reads: name each
    # (batch, index) pair densely.
    folds = np.zeros(keys, bool)
    pair = np.sort(fifo[carrier] * len(queries) + query)
    folds[pair[1:][pair[1:] == pair[:-1]] // len(queries)] = True
    by_index = np.lexsort((leaf.index, leaf.batch))
    fresh = np.r_[True, (np.diff(leaf.index[by_index]) != 0)
                  | (np.diff(leaf.batch[by_index]) != 0)]
    folds[fifo[by_index[~fresh]]] = True
    index = np.empty(occurrences, np.int64)
    index[by_index] = np.cumsum(fresh) - 1
    free = ~folds[fifo]

    # The identity fold's compares: a query of more than one index scans
    # every row buffered before its own.
    position = fifo_positions(fifo)
    lengths = np.fromiter(map(len, queries), np.int64, len(queries))
    multi = np.bincount(carrier, lengths[query] > 1, minlength=occurrences)
    counters = np.zeros((6, keys // 2), np.int64)  # PEWork's, per leaf PE key
    counters[0] = np.bincount(fifo[free] >> 1, (position * multi)[free],
                              minlength=keys // 2)
    folded = (_fold(lengths, leaf, fifo, index, query, carrier, counts, folds,
                    reduce_path, tracers, counters)
              if folds.any() else None)

    # Leaf rows: each free occurrence's vector and each folded index's.
    kept = np.flatnonzero(free)
    occurrence = kept if folded is None else np.union1d(kept, folded.known)
    program = CombineProgram(occurrence, leaf.batch[occurrence])

    # Number the messages FIFO-major; a free occurrence keeps its position.
    per_fifo = np.bincount(fifo[free], minlength=keys)
    if folded is not None:
        per_fifo += np.bincount(folded.fifo, minlength=keys)
    offset = np.cumsum(per_fifo) - per_fifo
    message = offset[fifo] + position
    total = int(per_fifo.sum())
    table = np.full((len(queries), fifos), -1, np.int64)
    cell = free[carrier]
    table[query[cell], leaf.fifo[carrier[cell]]] = message[carrier[cell]]
    ready = np.empty(total, np.int64)
    ready[message[free]] = leaf.ready[free]
    size = np.ones(total, np.int64)
    row = np.empty(total, np.int64)
    row[message[free]] = np.searchsorted(occurrence, kept)
    if folded is not None:
        at = offset[folded.fifo] + np.arange(len(folded.fifo)) - np.searchsorted(
            folded.fifo, folded.fifo)
        cells = folded.table >= 0
        table[cells] = at[folded.table[cells]]
        ready[at], size[at] = folded.ready, folded.size
        # Set rows: a one-index set is its index's leaf row; each chain
        # step combines its index's row with the previous set's.
        set_row = np.empty(folded.sets, np.int64)
        set_row[: len(folded.known)] = np.searchsorted(occurrence, folded.known)
        for made, first, rest, batch in folded.steps:
            set_row[made] = program.append(set_row[first], set_row[rest], batch)
        row[at] = set_row[folded.message_set]
    message_fifo = np.repeat(np.arange(keys), per_fifo)
    return LeafMessages(table, row, ready, size, message_fifo, counters, program)


@dataclass
class _Folded:
    """The folding FIFOs' messages (see :func:`_fold`)."""

    table: np.ndarray
    ready: np.ndarray
    size: np.ndarray
    fifo: np.ndarray
    message_set: np.ndarray
    known: np.ndarray
    sets: int
    steps: List[Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]]


def _fold(lengths, leaf, fifo, index, query, carrier, counts, folds,
          reduce_path, tracers, counters) -> _Folded:
    """The FIFOs in ``folds`` through the leaf fold, all at once.

    ``fifo`` holds each occurrence's FIFO key and ``index`` its dense
    (batch, index) name.  Adds the fold's work to ``counters`` (a row per
    :class:`PEWork` field, from ``compares`` to ``entries_consumed``; a
    column per leaf PE key) and returns the folded FIFOs' messages,
    numbered FIFO-major from 0 (``table`` holds those numbers), each with
    its index set.  Sets are named densely: one per folded index
    (``known``, its first occurrence), then one per distinct chain prefix;
    ``steps`` lists, per chain step, the sets it makes and the two sets
    each combines, with their batches.  The loops run over chain steps
    only.
    """
    pick = np.flatnonzero(folds[fifo[carrier]])
    n, q = carrier[pick], query[pick]
    index = index[n]
    # A second (index, query id) pair is a duplicate: it never enters a chain.
    by = np.lexsort((q, index))
    again = (index[by[1:]] == index[by[:-1]]) & (q[by[1:]] == q[by[:-1]])
    duplicate = np.zeros(len(pick), bool)
    duplicate[by[1:][again]] = True
    keys = len(folds) // 2
    counters[4] += np.bincount(fifo[n[duplicate]] >> 1, minlength=keys)
    pick, n, q, index = pick[~duplicate], n[~duplicate], q[~duplicate], index[~duplicate]
    f = fifo[n]

    # Keys of the fold's steps, in its order: arrival, then phase — 0 for
    # each id's step (reduce and consume), 1 for the arrival's own row, 2
    # for each produced row — then the id's position in the arrival.
    width = int(counts.max())
    step = 3 * width * n + pick - (np.cumsum(counts) - counts)[n]
    made = step + 2 * width
    never = 3 * width * len(fifo)  # after every step
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
    chains = []
    for at, founder in zip(at_step, founders):
        ready[row_of[at]] = np.maximum(leaf.ready[n[at]], ready[partner[at]]) + reduce_path
        chains.append((set_of[founder], dense[founder], set_of[prev[founder]],
                       leaf.batch[n[founder]]))
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
    counters[0] += np.bincount(charged_fifo >> 1, live, minlength=keys).astype(np.int64)
    reduces = np.bincount(f[produced] >> 1, minlength=keys)
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
    counters[3] += np.bincount(message_fifo[merged] >> 1, minlength=keys)
    message_of = np.empty(base, np.int64)
    message_of[message_set] = np.arange(len(lead))
    table = np.full((len(lengths), leaf.fifos), -1, np.int64)
    table[q[last], leaf.fifo[n[last]]] = message_of[set_of[last]]

    if tracers[0].enabled:  # per FIFO: its reduces in arrival order, then merges
        merge = np.r_[np.zeros(len(produced), bool), np.ones(len(merged), bool)]
        at_fifo = np.r_[f[produced], message_fifo[merged]]
        order = np.lexsort((merge, at_fifo))
        kinds = np.where(merge, KIND_CODES[PE_MERGE], KIND_CODES[PE_REDUCE])[order]
        cycles = np.r_[ready[len(arrival):], message_ready[merged]][order]
        args = np.r_[np.full(len(produced), reduce_path), members[merged]][order, None]
        at_fifo = at_fifo[order]
        fifos = leaf.fifos
        edges = np.searchsorted(at_fifo, np.arange(len(tracers) + 1) * fifos).tolist()
        folding = folds.reshape(len(tracers), fifos).any(axis=1).tolist()
        for batch, tracer in enumerate(tracers):
            if folding[batch]:  # as a one-batch sweep emits, if it folds
                lo, hi = edges[batch], edges[batch + 1]
                tracer.emit_columns(kinds[lo:hi], cycles[lo:hi], args[lo:hi],
                                    pe=(at_fifo[lo:hi] % fifos) >> 1, level=0)
    return _Folded(table, message_ready, size[message_set], message_fifo,
                   message_set, n[first], base, chains)


@dataclass
class SweepResult:
    """One batch through the tree.

    ``values`` and ``ready`` are aligned with the plan's ``queries``.
    ``ids`` holds the message-id tables, one row per query id (the plan's
    ``distinct`` queries, copied to ``queries``) and ``-1`` where the
    query has no index below: ``ids[0]`` has a column per leaf FIFO (FIFO
    ``2k+s`` is side ``s`` of leaf ``k``), ``ids[level + 1]`` a column per
    node of that level.  Ids are numbered across the swept stream.
    """

    values: np.ndarray
    ready: List[int]
    per_pe_work: Dict[int, PEWork]
    queries: Tuple[Query, ...]
    ids: List[np.ndarray]


def sweep_stream(
    plans: Sequence[BatchPlan],
    leaf: LeafColumns,
    config: FafnirConfig,
    tree: FafnirTree,
    operator: ReductionOperator,
    tracers: Sequence[Tracer],
    phased: bool,
    pool_rows: ValuePool,
) -> List[SweepResult]:
    """Run the PE tree over a stream of batches, level by level.

    ``leaf`` holds every batch's read occurrences, keyed by its ``batch``
    column; batch ``b``'s serve ``plans[b]``'s query ids
    (:attr:`BatchPlan.distinct`), numbered across the stream.
    ``tracers[b]`` receives batch ``b``'s events.  The structure of every
    batch is swept at once and dropped, then each batch's vectors are
    evaluated on their own, in rows of ``pool_rows``.
    """
    per_batch = [len(plan.distinct) for plan in plans]
    first_id = [0, *accumulate(per_batch)][:-1]
    program, rows, swept = _structure(plans, leaf, first_id, config, tree,
                                      tracers, phased)
    values = program.evaluate(leaf.values, operator.combine, rows, pool_rows)
    return [SweepResult(value, ready, work, plan.distinct, ids)
            for plan, value, (ready, work, ids) in zip(plans, values, swept)]


def _structure(plans, leaf, first_id, config, tree, tracers, phased):
    """The stream's structure: its combine program, each batch's root rows
    in submission order, and each batch's ready cycles, per-PE work and
    message-id tables (see :class:`SweepResult`)."""
    batches = len(plans)
    units = config.compute_units
    reduce_path = config.latencies.reduce_path
    forward_path = config.latencies.forward_path
    # Level L+1's node k joins level L's nodes 2k and 2k+1.
    levels = [tree.level_ids(level) for level in range(tree.num_levels)]
    pes = sum(map(len, levels))
    distinct = [query for plan in plans for query in plan.distinct]
    per_batch = [len(plan.distinct) for plan in plans]
    owner = np.repeat(np.arange(batches), per_batch)  # each query id's batch
    lengths = np.fromiter(map(len, distinct), np.int64, len(distinct))

    # Leaf boundary: each (query, FIFO) gets the id of the message carrying
    # the query, FIFO 2k+s being side s of leaf k.
    boundary = leaf_messages(distinct, leaf, reduce_path, tracers)
    table, row, ready, size = boundary.table, boundary.row, boundary.ready, boundary.size
    batch, position = np.divmod(boundary.fifo, leaf.fifos)
    program = boundary.program
    issue_order = _IssueOrder(distinct, lengths, leaf)

    # Structure: every level's messages, sizes and rows, and the rows its
    # work counters count, with PEs numbered level by level from the leaves
    # and keyed batch·PEs + pe.
    tables, steps, counted = [table], [], []
    base = 0
    for pe_ids in levels:
        left, right = table[:, 0::2], table[:, 1::2]
        node, query = np.nonzero(((left >= 0) | (right >= 0)).T)
        a, b = left[query, node], right[query, node]
        key_a = a
        if batches > 1:
            # Message ids run batch after batch: an absent left side keys
            # just below its batch's first message, keeping batches apart.
            start = np.searchsorted(batch, np.arange(batches))
            key_a = np.where(a >= 0, a, start[owner[query]] - 1)
        key = (key_a + 1) * (len(size) + 1) + (b + 1)
        _, first, group, members = np.unique(
            key, return_index=True, return_inverse=True, return_counts=True
        )
        g_a, g_b, g_node, rep = a[first], b[first], node[first], query[first]
        g_batch = owner[rep]
        g_pe = g_batch * pes + (base + g_node)
        both = (g_a >= 0) & (g_b >= 0)
        source = np.where(g_a >= 0, g_a, g_b)
        pair = np.flatnonzero(both)
        pa, pb = g_a[pair], g_b[pair]
        g_size, g_row = size[source], row[source]
        if pair.size:
            g_size[pair] += size[pb]
            g_row[pair] = program.append(row[pa], row[pb], g_batch[pair])
        raw_rows = np.where(both, 2 * members, members)
        length = lengths[query]
        counted.append((
            g_pe[group], both[group],  # each (query, node) row: two-sided?
            (a >= 0) & (size[a] < length), (b >= 0) & (size[b] < length),
            g_pe, raw_rows > 1,  # each message: merged?
        ))
        steps.append((node, query, group, g_node, g_batch, both, source, pa, pb,
                      raw_rows, rep, position, batch))
        table = np.full((len(distinct), len(pe_ids)), -1, np.int64)
        table[query, node] = group
        tables.append(table)
        row, size, position, batch = g_row, g_size, g_node, g_batch
        base += len(pe_ids)

    pe, two_sided, pending_a, pending_b, out, merged = map(
        np.concatenate, zip(*counted)
    )

    def count(keys, where=Ellipsis):
        return np.bincount(keys[where], minlength=batches * pes)

    # A PE's inputs are its children's outputs (the leaf FIFOs' messages
    # at the leaves).
    outputs = count(out)
    fed = np.bincount(boundary.fifo, minlength=batches * leaf.fifos).reshape(batches, -1)
    size_a, size_b = np.empty((2, batches, pes), np.int64)
    base = 0
    for pe_ids in levels:
        width = len(pe_ids)
        size_a[:, base : base + width], size_b[:, base : base + width] = fed[:, 0::2], fed[:, 1::2]
        fed = outputs.reshape(batches, pes)[:, base : base + width]
        base += width
    size_a, size_b = size_a.ravel(), size_b.ravel()
    duplicates = count(pe, two_sided)
    counters = np.array([  # PEWork's fields, in order
        size_b * count(pe, pending_a) + size_a * count(pe, pending_b),  # compares
        2 * duplicates,  # reduces
        count(pe, ~two_sided),  # forwards
        count(out, merged),  # merges
        duplicates,  # duplicates_removed
        np.zeros(batches * pes, np.int64),  # entries_consumed
        outputs,
        np.maximum(size_a, size_b),  # peak_input_occupancy
    ])
    leaf_pes = leaf.fifos // 2  # the leaf PEs come first: add their folds
    counters[:6].reshape(6, batches, pes)[:, :, :leaf_pes] += boundary.work.reshape(
        6, batches, leaf_pes)
    compares = counters[0].reshape(batches, pes)

    # Timing, level by level.
    ready = boundary.ready
    base = 0
    for level, (pe_ids, step) in enumerate(zip(levels, steps)):
        (node, query, group, g_node, g_batch, both, source, pa, pb, raw_rows,
         rep, position, batch) = step
        raw = ready[source] + forward_path
        raw[both] = np.maximum(ready[pa], ready[pb]) + reduce_path
        width = len(pe_ids)
        if phased:
            start = np.zeros(batches * width, np.int64)
            np.maximum.at(start, batch * width + (position >> 1), ready)
            work = np.maximum(compares[:, base : base + width].ravel(), 1)
            busy = (work - 1) // units + 1 + reduce_path
            keyed = g_batch * width + g_node
            rank = issue_order.rank(level, keyed, g_node, raw, rep)
            ready = start[keyed] + busy[keyed] + rank
        else:
            # A PE emits one message per distinct projection, so at most
            # B = compute_units of them: the issue limit's stall, rank //
            # compute_units, is zero.
            ready = raw
        if tracers[0].enabled:
            at = owner[query]
            order = np.argsort(at, kind="stable")
            row_edges = np.searchsorted(at[order], np.arange(batches + 1)).tolist()
            edges = np.searchsorted(g_batch, np.arange(batches + 1)).tolist()
            for k, tracer in enumerate(tracers):
                rows = order[row_edges[k] : row_edges[k + 1]]
                lo, hi = edges[k], edges[k + 1]
                _emit(tracer, reduce_path, forward_path, level, pe_ids, node[rows],
                      group[rows] - lo, g_node[lo:hi], both[lo:hi], raw[lo:hi],
                      raw_rows[lo:hi])
        base += width

    root = table[:, 0]
    incomplete = np.flatnonzero((root < 0) | (size[root] != lengths))
    if incomplete.size:
        raise RuntimeError(
            f"tree failed to complete query {sorted(distinct[incomplete[0]])} "
            "— FAFNIR's completion guarantee was violated; this is a bug"
        )
    messages = [root[first + np.array(plan.query_ids, np.int64)]
                for plan, first in zip(plans, first_id)]
    pe_order = list(chain.from_iterable(levels))
    works = [PEWork(*fields) for fields in counters.T.tolist()]
    swept = []
    for k, message in enumerate(messages):
        lo, hi = first_id[k], first_id[k] + per_batch[k]
        swept.append((ready[message].tolist(),
                      dict(zip(pe_order, works[k * pes : (k + 1) * pes])),
                      [ids[lo:hi] for ids in tables]))
    return program, [row[message] for message in messages], swept


def _emit(tracer, reduce_path, forward_path, level, pe_ids, node, group,
          g_node, both, raw, raw_rows) -> None:
    """One batch's level of PE events, exactly as the per-message PEs count
    them: per (node, query) row in order two ``pe_reduce`` if two-sided,
    else one ``pe_forward``; then a ``pe_merge`` per merged message."""
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
    the stream's first tie.
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

    def rank(self, level, pe, node, ready, representative) -> np.ndarray:
        """Each message's rank within its PE key ``pe`` (its ``node`` of
        the level, in its batch)."""
        order = np.lexsort((ready, pe))
        tied = (np.diff(pe[order]) == 0) & (np.diff(ready[order]) == 0)
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
            order[in_run] = runs[np.lexsort((*columns, ready[runs], pe[runs]))]
        ordered = pe[order]
        rank = np.empty(len(order), np.int64)
        rank[order] = np.arange(len(order)) - np.searchsorted(ordered, ordered)
        return rank
