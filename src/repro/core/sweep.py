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
index sets.  Each level keeps a (node × query) table of message ids, and
one group-by over the pairs of its live cells gives the level's messages:
one stable argsort of the pair keys and a flag where each run of equal
keys starts (:func:`group_by`), the ids coming out in key order as
``np.unique`` numbers them.  The level loop carries only what the next
level groups — the table and each message's size, row and batch — and
appends the level's reduces to the combine program; everything else is
computed once after it, over every level's cells and messages
concatenated.  Per PE, with ``|A|``, ``|B|`` the inputs' message counts:
``compares = |B|·pending_A + |A|·pending_B`` (``pending``: the query is
not complete below that child), ``reduces = 2·both``,
``duplicates_removed = both``, ``forwards`` = one-sided queries,
``merges`` = messages built from more than one raw compute-unit output,
``outputs`` = messages and ``peak_input_occupancy = max(|A|, |B|)``,
counted for every PE at once after the last level.

A message is ready ``forward_path`` after its child message, or
``reduce_path`` after the later of its two; after the level loop, a few
array ops per level stamp these, each level reading the one below.  The
issue limit would stall the message ranked ``r`` within its PE under
(ready, sorted indices) by ``r // compute_units`` cycles, but a PE emits
at most one message per distinct query and the paper sizes
``compute_units = B``, so that stall is always zero.  Phased timing
emits the message ``r`` cycles after the PE's store-and-forward start,
so only it ranks.

**A stream of batches is swept as one.**  The batches of a stream are
independent trees, so :func:`sweep_stream` runs the structure of all of
them in one pass: query ids are numbered across the stream (the batches'
distinct queries, batch after batch), the (query × FIFO) and (node ×
query) tables hold every batch's queries side by side, and everything
grouped per FIFO or per PE is keyed ``batch·FIFOs + fifo`` or
``batch·PEs + pe``.
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
from functools import lru_cache
from itertools import accumulate, chain, starmap
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
#: A ready cycle below every other, read for an absent side.
_NEVER = np.array([np.iinfo(np.int64).min])
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
    order = fifo.argsort(kind="stable")
    ordered = fifo[order]
    position = np.empty(len(fifo), np.int64)
    position[order] = np.arange(len(fifo)) - ordered.searchsorted(ordered)
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
    carrier = np.arange(occurrences).repeat(counts)  # each id's occurrence

    # A FIFO can fold iff a (FIFO, query id) or a (FIFO, index) pair
    # repeats.  An index read in two batches is two reads.
    folds = np.zeros(keys, bool)
    pair = fifo[carrier] * len(queries) + query
    pair.sort()
    folds[pair[1:][pair[1:] == pair[:-1]] // len(queries)] = True
    by_index = np.lexsort((leaf.index, leaf.batch))
    ordered, in_batch = leaf.index[by_index], leaf.batch[by_index]
    fresh = np.empty(occurrences, bool)  # the first read of its (batch, index)
    fresh[:1] = True
    np.not_equal(ordered[1:], ordered[:-1], out=fresh[1:])
    fresh[1:] |= in_batch[1:] != in_batch[:-1]
    folds[fifo[by_index[~fresh]]] = True
    free = ~folds[fifo]

    # The identity fold's compares: a query of more than one index scans
    # every row buffered before its own.
    position = fifo_positions(fifo)
    lengths = np.fromiter(map(len, queries), np.int64, len(queries))
    multi = np.bincount(carrier, lengths[query] > 1, minlength=occurrences)
    counters = np.zeros((6, keys // 2), np.int64)  # PEWork's, per leaf PE key
    kept = free.nonzero()[0]
    counters[0] = np.bincount(fifo[kept] >> 1, (position * multi)[kept],
                              minlength=keys // 2)
    folded = None
    if folds.any():
        # Name each (batch, index) pair densely.
        index = np.empty(occurrences, np.int64)
        index[by_index] = fresh.cumsum() - 1
        folded = _fold(lengths, leaf, fifo, index, query, carrier, counts, folds,
                       reduce_path, tracers, counters)

    # Leaf rows: each free occurrence's vector and each folded index's.
    occurrence = kept if folded is None else np.union1d(kept, folded.known)
    program = CombineProgram(occurrence, leaf.batch[occurrence])

    # Number the messages FIFO-major; a free occurrence keeps its position.
    per_fifo = np.bincount(fifo[kept], minlength=keys)
    if folded is not None:
        per_fifo += np.bincount(folded.fifo, minlength=keys)
    offset = per_fifo.cumsum() - per_fifo
    message = offset[fifo] + position
    total = len(kept) + (0 if folded is None else len(folded.fifo))
    table = np.empty((len(queries), fifos), np.int64)
    table.fill(-1)
    cell = free[carrier]
    at = carrier[cell]
    table[query[cell], leaf.fifo[at]] = message[at]
    at = message[kept]
    ready = np.empty(total, np.int64)
    ready[at] = leaf.ready[kept]
    size = np.ones(total, np.int64)
    row = np.empty(total, np.int64)
    row[at] = occurrence.searchsorted(kept)
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
    message_fifo = np.arange(keys).repeat(per_fifo)
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
    new = np.concatenate(([True], (f[c[1:]] != f[c[:-1]]) | (q[c[1:]] != q[c[:-1]])))
    head = np.maximum.accumulate(np.where(new, np.arange(len(c)), 0))
    m = np.empty(len(c), np.int64)
    m[c] = np.arange(len(c)) - head + 1
    prev, nxt = np.full(len(c), -1), np.full(len(c), -1)
    linked = ~new[1:]
    prev[c[1:][linked]] = c[:-1][linked]
    nxt[c[:-1][linked]] = c[1:][linked]
    last = c[np.concatenate((new[1:], [True]))]
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
    opens = np.concatenate(([True], n[starts[1:]] != n[starts[:-1]]))
    arrival = starts[opens]
    produced = np.flatnonzero(m >= 2)
    row_set = np.concatenate((set_of[arrival], set_of[produced]))
    created = np.concatenate((3 * width * n[arrival] + width, made[produced]))
    emptied = np.concatenate((np.maximum.reduceat(gone[starts], np.flatnonzero(opens)),
                              gone[produced]))
    row_fifo = np.concatenate((f[arrival], f[produced]))
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
    multi = lengths[q] > 1
    charged = np.concatenate((step[multi], made[incomplete]))
    charged_fifo = np.concatenate((f[multi], f[incomplete]))
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
    opens = np.concatenate(([True], row_set[grouped[1:]] != row_set[grouped[:-1]]))
    runs = np.flatnonzero(opens)
    lead = grouped[opens]
    members = np.diff(runs, append=len(grouped))
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
        merge = np.arange(len(produced) + len(merged)) >= len(produced)
        at_fifo = np.concatenate((f[produced], message_fifo[merged]))
        order = np.lexsort((merge, at_fifo))
        kinds = np.where(merge, KIND_CODES[PE_MERGE], KIND_CODES[PE_REDUCE])[order]
        cycles = np.concatenate((ready[len(arrival):], message_ready[merged]))[order]
        args = np.concatenate((np.full(len(produced), reduce_path), members[merged]))[order, None]
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


def group_by(key: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Group equal keys with one stable sort: the position of each group's
    first key and each key's group, groups numbered in key order — what
    ``np.unique(key, return_index=True, return_inverse=True)[1:]`` gives."""
    order = key.argsort(kind="stable")
    ordered = key[order]
    new = np.empty(len(key), np.int64)  # 1 where a sorted key starts a group
    new[:1] = 0
    np.not_equal(ordered[1:], ordered[:-1], out=new[1:])
    group = np.empty(len(key), np.int64)
    group[order] = new.cumsum()
    new[:1] = 1
    return order[new.astype(bool)], group


@lru_cache(maxsize=None)
def _children(fifos: int, widths: Tuple[int, ...]) -> np.ndarray:
    """Each PE's left input among one batch's FIFOs and then its PEs (the
    right input is the next one): leaf PE ``k`` reads FIFOs ``2k`` and
    ``2k+1``, and any other PE ``k`` of a level its nodes ``2k`` and
    ``2k+1`` on the level below.  Cached per tree shape, so read-only."""
    starts = accumulate((fifos, *widths[:-1]), initial=0)
    children = np.concatenate([start + 2 * np.arange(width)
                               for start, width in zip(starts, widths)])
    children.flags.writeable = False
    return children


def _structure(plans, leaf, first_id, config, tree, tracers, phased):
    """The stream's structure: its combine program, each batch's root rows
    in submission order, and each batch's ready cycles, per-PE work and
    message-id tables (see :class:`SweepResult`)."""
    batches = len(plans)
    reduce_path = config.latencies.reduce_path
    forward_path = config.latencies.forward_path
    # Level L+1's node k joins level L's nodes 2k and 2k+1.
    levels = [tree.level_ids(level) for level in range(tree.num_levels)]
    widths = [len(pe_ids) for pe_ids in levels]
    pes = sum(widths)
    distinct = [query for plan in plans for query in plan.distinct]
    per_batch = [len(plan.distinct) for plan in plans]
    owner = np.arange(batches).repeat(per_batch)  # each query id's batch
    lengths = np.fromiter(map(len, distinct), np.int64, len(distinct))

    # Leaf boundary: each (query, FIFO) gets the id of the message carrying
    # the query, FIFO 2k+s being side s of leaf k.
    boundary = leaf_messages(distinct, leaf, reduce_path, tracers)
    size, row = boundary.size, boundary.row
    batch = boundary.fifo // leaf.fifos
    program = boundary.program

    # Structure, level by level.  A level groups a table with a row per
    # node of the level below (per FIFO at the leaves) and a column per
    # query id.  Its cells are its live (node, query) pairs, node-major,
    # and a cell's message is named by its pair (left id, right id).  Only
    # what the next level groups is carried: the table and each message's
    # size, row and batch.
    table = boundary.table.T
    tables, lives, groups, sides = [], [], [], []
    for width in widths:
        children = table.reshape(width, 2, len(distinct))
        left, right = children[:, 0], children[:, 1]
        live = np.maximum(left, right) >= 0
        a, b = left[live], right[live]
        key = a * (len(size) + 1)
        if batches > 1:
            # Message ids run batch after batch: an absent left side keys
            # just below its batch's first message, keeping batches apart.
            below = batch.searchsorted(np.arange(batches)) - 1
            absent = a < 0
            key[absent] = below[np.broadcast_to(owner, live.shape)[live][absent]] * (len(size) + 1)
        key += b
        first, group = group_by(key)
        g_a, g_b = a[first], b[first]
        source = np.maximum(g_a, g_b)  # a side present (either, on both)
        g_size, g_row, g_batch = size[source], row[source], batch[source]
        pair = (np.minimum(g_a, g_b) >= 0).nonzero()[0]
        if len(pair):
            pa, pb = g_a[pair], g_b[pair]
            g_size[pair] = size[pa] + size[pb]
            g_row[pair] = program.append(row[pa], row[pb], g_batch[pair])
        table = np.empty(live.shape, np.int64)
        table.fill(-1)
        table[live] = group
        tables.append(table)
        lives.append(live)
        groups.append(group)
        sides.append((g_a, g_b, g_size))
        size, row, batch = g_size, g_row, g_batch

    # Then every level's cells and messages at once, messages numbered
    # level after level.  The stacked live masks have a row per PE, so a
    # cell's row is its PE.
    ends = list(accumulate((len(g_a) for g_a, _, _ in sides), initial=0))
    cell_ends = list(accumulate(map(len, groups), initial=0))
    pe, query = np.concatenate(lives).nonzero()
    pe += owner[query] * pes  # a cell's PE key: batch·PEs + pe
    group = np.concatenate(groups)
    group += np.array(ends[:-1]).repeat(np.diff(cell_ends))
    g_a, g_b, g_size = map(np.concatenate, zip(*sides))
    both = np.minimum(g_a, g_b) >= 0
    members = np.bincount(group, minlength=len(both))  # cells per message
    out = np.empty(len(both), np.int64)  # a message's PE key
    out[group] = pe
    # A cell whose message holds fewer indices than its query is pending
    # on the PE above.
    at_leaf = boundary.table
    fifo_open = ((at_leaf >= 0) & (boundary.size[at_leaf] < lengths[:, None])).nonzero()
    pe_open = pe[g_size[group] < lengths[query]]

    def count(keys, where=Ellipsis):
        return np.bincount(keys[where], minlength=batches * pes)

    # A PE's inputs are its children: leaf FIFOs at the leaves, the level
    # below's PEs above them.  Per input, its messages and its pending
    # queries, laid out per batch as the FIFOs and then the PEs.
    fifo_keys = batches * leaf.fifos
    outputs = count(out)
    inputs = np.concatenate((
        np.array((np.bincount(boundary.fifo, minlength=fifo_keys),
                  np.bincount(owner[fifo_open[0]] * leaf.fifos + fifo_open[1],
                              minlength=fifo_keys))).reshape(2, batches, -1),
        np.array((outputs, count(pe_open))).reshape(2, batches, -1),
    ), axis=2)
    children = _children(leaf.fifos, tuple(widths))
    size_a, pending_a = inputs[:, :, children].reshape(2, -1)
    size_b, pending_b = inputs[:, :, children + 1].reshape(2, -1)
    duplicates = count(pe, both[group])
    counters = np.array([  # PEWork's fields, in order
        size_b * pending_a + size_a * pending_b,  # compares
        2 * duplicates,  # reduces
        count(pe) - duplicates,  # forwards
        count(out, both | (members > 1)),  # merges
        duplicates,  # duplicates_removed
        np.zeros(batches * pes, np.int64),  # entries_consumed
        outputs,
        np.maximum(size_a, size_b),  # peak_input_occupancy
    ])
    leaf_pes = leaf.fifos // 2  # the leaf PEs come first: add their folds
    counters[:6].reshape(6, batches, pes)[:, :, :leaf_pes] += boundary.work.reshape(
        6, batches, leaf_pes)

    # Timing, level by level.  A level's ready cycles end in a sentinel
    # below every cycle, which an absent side (``-1``) reads.
    path = np.where(both, reduce_path, forward_path)
    ready = np.concatenate((boundary.ready, _NEVER))
    if phased:
        compares = counters[0].reshape(batches, pes)
        issue_order = _IssueOrder(distinct, lengths, leaf)
        rep = np.empty(len(both), np.int64)  # a query the message carries
        rep[group] = query
        parent = boundary.fifo >> 1  # each input's PE key on the level above
    pe_ids = np.fromiter(chain.from_iterable(levels), np.int64, pes)
    base = 0
    for level, width in enumerate(widths):
        lo, hi = ends[level], ends[level + 1]
        raw = np.maximum(ready[g_a[lo:hi]], ready[g_b[lo:hi]])
        raw += path[lo:hi]
        if phased:
            start = np.zeros(batches * width, np.int64)
            np.maximum.at(start, parent, ready[:-1])
            work = np.maximum(compares[:, base : base + width].ravel(), 1)
            busy = (work - 1) // config.compute_units + 1 + reduce_path
            in_batch, node = np.divmod(out[lo:hi], pes)
            node -= base
            keyed = in_batch * width + node
            rank = issue_order.rank(level, keyed, node, raw, rep[lo:hi])
            ready = np.concatenate((start[keyed] + busy[keyed] + rank, _NEVER))
            parent = keyed >> 1
        else:
            # A PE emits one message per distinct projection, so at most
            # B = compute_units of them: the issue limit's stall, rank //
            # compute_units, is zero.
            ready = np.concatenate((raw, _NEVER))
        if tracers[0].enabled:
            rows = slice(cell_ends[level], cell_ends[level + 1])
            _emit(tracers, reduce_path, forward_path, level, pe_ids, owner,
                  pe[rows], query[rows], group[rows] - lo, out[lo:hi], both[lo:hi],
                  raw, members[lo:hi] << both[lo:hi])
        base += width

    root = table[0]
    complete = (root >= 0) & (size[root] == lengths)
    if not complete.all():
        raise RuntimeError(
            f"tree failed to complete query {sorted(distinct[complete.argmin()])} "
            "— FAFNIR's completion guarantee was violated; this is a bug"
        )
    ids = [boundary.table, *(table.T for table in tables)]
    pe_order = pe_ids.tolist()
    works = list(starmap(PEWork, counters.T.tolist()))
    swept, rows = [], []
    for k, (plan, lo) in enumerate(zip(plans, first_id)):
        message = root[lo + np.array(plan.query_ids, np.int64)]
        rows.append(row[message])
        swept.append((ready[message].tolist(),
                      dict(zip(pe_order, works[k * pes : (k + 1) * pes])),
                      [level_ids[lo : lo + per_batch[k]] for level_ids in ids]))
    return program, rows, swept


def _emit(tracers, reduce_path, forward_path, level, pe_ids, owner, pe, query,
          group, out, both, raw, raw_rows) -> None:
    """One level of PE events, each batch's to its own tracer, exactly as
    the per-message PEs count them: per (node, query) cell in order two
    ``pe_reduce`` if two-sided, else one ``pe_forward``; then a
    ``pe_merge`` per merged message.  The cells' PE keys, query ids and
    messages come node-major; ``out`` holds each message's PE key."""
    pes = len(pe_ids)
    edges = np.arange(len(tracers) + 1)
    cell_batch = owner[query]
    cells = cell_batch.argsort(kind="stable")  # batch-major, node-major within
    two_sided = both[group[cells]]
    row = cells.repeat(1 + two_sided)  # a cell's events
    ends = np.concatenate(([0], (1 + two_sided).cumsum()))
    event_edges = ends[cell_batch[cells].searchsorted(edges)].tolist()
    reduced = both[group[row]]
    kinds = np.where(reduced, KIND_CODES[PE_REDUCE], KIND_CODES[PE_FORWARD])
    cycles = raw[group[row]]
    args = np.where(reduced, reduce_path, forward_path)
    at = pe_ids[pe[row] % pes]
    merged = (raw_rows > 1).nonzero()[0]
    merge_edges = (out[merged] // pes).searchsorted(edges).tolist()
    merge_cycles, merge_args = raw[merged], raw_rows[merged]
    merge_at = pe_ids[out[merged] % pes]
    for k, tracer in enumerate(tracers):
        lo, hi = event_edges[k], event_edges[k + 1]
        first, last = merge_edges[k], merge_edges[k + 1]
        tracer.emit_columns(
            np.concatenate((kinds[lo:hi], np.full(last - first, KIND_CODES[PE_MERGE]))),
            np.concatenate((cycles[lo:hi], merge_cycles[first:last])),
            np.concatenate((args[lo:hi], merge_args[first:last]))[:, None],
            pe=np.concatenate((at[lo:hi], merge_at[first:last])),
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
