"""The object PE model: the executable specification the tree sweep must match.

``repro.core.sweep`` computes every PE of a tree level, and every leaf FIFO
fold, in closed form from the batch's read occurrences as columns
(``repro.core.sweep.LeafColumns``).  This module keeps the per-message
model they replaced, as the differential oracle:

* :class:`Header` and :class:`Message` — the paper's header algebra
  (§IV-B, Fig. 4/6): the ``indices`` folded into a value and one
  remaining-index *entry* per query still needing it.  A :data:`Row`
  ``(indices, query ids, value, ready)`` names each entry's query by its
  id instead; :func:`to_messages` and :func:`to_rows` translate, and
  :func:`leaf_rows` views leaf columns as each FIFO's stream of rows.
* :class:`ProcessingElement` — one PE (paper Fig. 5).  For every *entry*
  (outstanding query remainder) of every input message its compute units
  either **reduce** with the widest partner message on the other input whose
  ``indices`` lie inside the entry, or **forward** the entry unchanged;
  complete entries are always forwarded.  Both inputs are scanned, so a
  reduction is found twice; the **merge unit** groups the raw outputs by
  ``indices`` set, dropping exact duplicates (paper Fig. 6d).  Finite compute
  units add a one-output-per-unit-per-cycle issue limit.
* :func:`fold_stream` — the leaf FIFO fold, one arrival at a time: the only
  sequential fold, and the reference for the sweep's closed form
  (``repro.core.sweep.leaf_messages``).  :func:`fold_rows` runs it over
  rows, and :func:`fold_every_fifo` over every FIFO of one batch's leaf
  columns, giving a :class:`Boundary`; :func:`leaf_boundary` is the sweep's
  leaf boundary with the same signature and result, its combine program
  evaluated.
* :func:`run_tree` — the object sweep leaves→root, one batch of
  ``FafnirEngine._run_trees``.

Everything here is ``O(entries × partners)`` pure Python, written for
clarity rather than speed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain
from typing import (
    AbstractSet, Dict, FrozenSet, Iterable, List, Optional, Sequence, Tuple,
)

import numpy as np

import repro.core.sweep as sweep_module
from repro.core.batch import stream_serving
from repro.core.config import FafnirConfig
from repro.core.operators import ReductionOperator
from repro.core.pe import PEWork
from repro.core.sweep import LeafColumns, ValuePool
from repro.obs.events import PE_FORWARD, PE_MERGE, PE_REDUCE
from repro.obs.tracer import NULL_TRACER, Tracer

Indices = FrozenSet[int]

#: One message on a leaf FIFO: (indices, query ids, value, ready cycle).
Row = Tuple[Indices, Sequence[int], np.ndarray, int]


def sorted_tuple(indices: Indices) -> Tuple[int, ...]:
    """Ascending tuple of an index set."""
    return tuple(sorted(indices))


def entry_sort_key(entry: Indices) -> Tuple[int, Tuple[int, ...]]:
    """Canonical ordering key for header entries."""
    return (len(entry), tuple(sorted(entry)))


@dataclass(frozen=True)
class Header:
    """The (indices, queries) pair attached to every in-tree value.

    ``indices`` is the set of embedding-vector indices already folded into
    the carried value.  ``entries`` (the paper's *queries* field) holds one
    remaining-index set per query that still needs the value; an empty
    entry means the value *is* that query's answer.  The paper's example: a
    value ``v50 ⊕ v11`` with one query still needing 94 and 26 has header
    ``[indices: {50, 11} | queries: {94, 26}]``.
    """

    indices: Indices
    entries: Tuple[Indices, ...]

    def __post_init__(self) -> None:
        if not self.indices:
            raise ValueError("a header must cover at least one index")
        for entry in self.entries:
            if entry and not entry.isdisjoint(self.indices):
                raise ValueError(
                    f"entry {sorted(entry)} overlaps indices {sorted(self.indices)}"
                )

    @staticmethod
    def make(indices: Iterable[int], entries: Iterable[Iterable[int]]) -> "Header":
        """A canonical header: entries deduplicated (two queries needing the
        same remainder on the same value are served alike, the merge
        unit's dedup) and sorted by :func:`entry_sort_key`."""
        unique = {frozenset(entry) for entry in entries}
        return Header(frozenset(indices), tuple(sorted(unique, key=entry_sort_key)))

    @staticmethod
    def initial(unique_index: int, queries: Sequence[Iterable[int]]) -> "Header":
        """Host-side header for one unique index of a batch (§IV-C, Fig. 6b):
        per query containing the index, the query's other indices."""
        entries = [
            frozenset(query) - {unique_index}
            for query in queries
            if unique_index in frozenset(query)
        ]
        if not entries:
            raise ValueError(
                f"index {unique_index} does not appear in any query of the batch"
            )
        return Header.make({unique_index}, entries)

    @property
    def complete_entries(self) -> Tuple[Indices, ...]:
        """Entries already satisfied: the carried value answers those queries."""
        return tuple(entry for entry in self.entries if not entry)

    @property
    def pending_entries(self) -> Tuple[Indices, ...]:
        """Entries still waiting for more indices to be folded in."""
        return tuple(entry for entry in self.entries if entry)

    def completed_queries(self) -> Tuple[Indices, ...]:
        """Full index sets of the queries this message fully answers (at
        most one: entries are deduplicated)."""
        return (self.indices,) if self.complete_entries else ()

    def reduced_with(self, other_indices: Indices, entry: Indices) -> "Header":
        """Header of the reduction of this value (via ``entry``) with a partner.

        ``entry`` must be one of ours and contain the partner's indices —
        the paper's match condition "B[x].queries[j] contains all elements
        of A[i].indices".
        """
        if entry not in self.entries:
            raise ValueError("entry does not belong to this header")
        if not other_indices <= entry:
            raise ValueError("partner indices are not contained in the entry")
        return Header(self.indices | other_indices, (entry - other_indices,))

    def forwarded(self, entry: Indices) -> "Header":
        """Header carrying just one of our entries onward unchanged."""
        if entry not in self.entries:
            raise ValueError("entry does not belong to this header")
        return Header(self.indices, (entry,))

    def merged_with(self, other: "Header") -> "Header":
        """Merge two headers for the *same* data (equal ``indices`` sets)."""
        if self.indices != other.indices:
            raise ValueError("only headers with equal indices may merge")
        return Header.make(self.indices, self.entries + other.entries)

    def header_bits(self, index_bits: int, max_query_len: int) -> int:
        """Wire size in bits: ``q`` index slots of ``index_bits`` each (10 B
        for q=16 with 5-bit ids, Table I discussion)."""
        if index_bits <= 0 or max_query_len <= 0:
            raise ValueError("index_bits and max_query_len must be positive")
        return index_bits * max_query_len

    def __repr__(self) -> str:
        inx = ",".join(str(i) for i in sorted(self.indices))
        parts = ["|".join(str(i) for i in sorted(e)) or "∅" for e in self.entries]
        return f"[indices:{inx} queries:{'; '.join(parts)}]"


@dataclass
class Message:
    """A value in flight through the tree, with its header and the PE-clock
    cycle at which it is available to the consuming PE."""

    header: Header
    value: np.ndarray
    ready_cycle: int = 0

    def __post_init__(self) -> None:
        self.value = np.asarray(self.value, dtype=np.float64)
        if self.ready_cycle < 0:
            raise ValueError("ready_cycle must be non-negative")

    @property
    def indices(self) -> Indices:
        return self.header.indices

    @property
    def entries(self) -> Tuple[Indices, ...]:
        return self.header.entries


def to_messages(rows: Sequence[Row], queries: Sequence[Indices]) -> List[Message]:
    """Engine rows as messages: query id ``q`` becomes the entry
    ``queries[q] − indices``."""
    return [
        Message(Header.make(indices, [queries[q] - indices for q in ids]), value, ready)
        for indices, ids, value, ready in rows
    ]


def to_rows(messages: Sequence[Message], queries: Sequence[Indices]) -> List[Row]:
    """Messages as engine rows: entry ``e`` becomes the id of the query
    ``indices ∪ e`` in ``queries``, in entry order."""
    query_id = {query: n for n, query in enumerate(queries)}
    return [
        (m.indices, [query_id[m.indices | entry] for entry in m.entries],
         m.value, m.ready_cycle)
        for m in messages
    ]


def serving_lists(plan) -> Dict[int, List[Tuple[int, ...]]]:
    """``stream_serving([plan])`` as a dict: per unique index, one id tuple
    per read occurrence."""
    serving = stream_serving([plan])
    ends = np.cumsum(serving.counts).tolist()
    ids = serving.ids.tolist()
    tuples = [tuple(ids[end - count:end])
              for end, count in zip(ends, serving.counts.tolist())]
    lists, start = {}, 0
    for index, reads in zip(plan.unique_indices, serving.reads.tolist()):
        lists[index] = tuples[start:start + reads]
        start += reads
    return lists


def id_tuples(leaf: LeafColumns) -> List[Tuple[int, ...]]:
    """The query ids each occurrence of ``leaf`` serves, one tuple each."""
    ends = np.cumsum(leaf.id_counts).tolist()
    ids = leaf.ids.tolist()
    return [tuple(ids[end - count:end])
            for end, count in zip(ends, leaf.id_counts.tolist())]


def id_columns(tuples: Sequence[Sequence[int]]) -> Dict[str, np.ndarray]:
    """Per-occurrence id tuples as :class:`LeafColumns`' ``id_counts`` and
    ``ids`` keyword arguments."""
    return {
        "id_counts": np.array([len(ids) for ids in tuples], np.int64),
        "ids": np.array([q for ids in tuples for q in ids], np.int64),
    }


def leaf_inputs(engine, plan, source) -> LeafColumns:
    """A planned batch's leaf columns, through ``engine``'s own front end
    for a chunk of one batch: placement, memory pass, fetch and leaf
    columns (a fault-free engine keeps ``plan`` as its tree plan)."""
    index, located = engine._place([np.array(plan.reads, np.int64)])
    batch = engine._fetch(plan, located, source)
    return engine._leaf_columns([batch], index, located[0], [engine.tracer])


def batch_columns(leaf: LeafColumns, plans) -> List[LeafColumns]:
    """A stream's leaf columns as each batch's own: its rows, with its
    query ids numbered from 0."""
    edges = np.searchsorted(leaf.batch, np.arange(len(plans) + 1)).tolist()
    id_edges = np.r_[0, np.cumsum(leaf.id_counts)][edges].tolist()
    columns, first = [], 0
    for b, plan in enumerate(plans):
        lo, hi = edges[b], edges[b + 1]
        columns.append(LeafColumns(
            index=leaf.index[lo:hi], fifo=leaf.fifo[lo:hi], ready=leaf.ready[lo:hi],
            id_counts=leaf.id_counts[lo:hi],
            ids=leaf.ids[id_edges[b]:id_edges[b + 1]] - first,
            values=leaf.values[lo:hi], fifos=leaf.fifos,
            batch=np.zeros(hi - lo, np.int64),
        ))
        first += len(plan.distinct)
    return columns


def leaf_rows(leaf: LeafColumns) -> List[List[Row]]:
    """Each FIFO's stream of single-index rows, in arrival order, listed by
    FIFO key ``batch·fifos + fifo`` (the FIFO itself for one batch)."""
    batches = int(leaf.batch.max()) + 1 if len(leaf.batch) else 1
    streams: List[List[Row]] = [[] for _ in range(batches * leaf.fifos)]
    keys = leaf.batch * leaf.fifos + leaf.fifo
    for index, key, ids, value, ready in zip(
        leaf.index.tolist(), keys.tolist(), id_tuples(leaf), leaf.values,
        leaf.ready.tolist(),
    ):
        streams[key].append((frozenset((index,)), ids, value, ready))
    return streams


def _without(message: Message, removed: AbstractSet[Indices]) -> Optional[Message]:
    """``message`` minus its ``removed`` entries; ``None`` if none remain."""
    if not removed:
        return message
    remaining = tuple(entry for entry in message.entries if entry not in removed)
    if not remaining:
        return None
    # A subsequence of a canonical entry tuple is still canonical.
    return Message(Header(message.indices, remaining), message.value, message.ready_cycle)


@dataclass
class PEResult:
    outputs: List[Message]
    work: PEWork


@dataclass
class _RawOutput:
    """A compute-unit output before the merge unit."""

    indices: FrozenSet[int]
    entry: FrozenSet[int]
    value: np.ndarray
    ready_cycle: int


class ProcessingElement:
    """One node of the FAFNIR tree, one message at a time.

    Instances are stateless between invocations; :meth:`process` consumes the
    two input FIFOs' contents for one batch and returns merged outputs.
    ``check_values`` makes the merge unit assert that every output it merges
    carries the same value.
    """

    def __init__(
        self,
        config: FafnirConfig,
        operator: ReductionOperator,
        name: str = "PE",
        check_values: bool = False,
        tracer: Tracer = NULL_TRACER,
        pe_id: Optional[int] = None,
        level: Optional[int] = None,
    ) -> None:
        self.config = config
        self.operator = operator
        self.name = name
        self.check_values = check_values
        # Events are emitted exactly where the PEWork counters increment.
        self.tracer = tracer
        self.pe_id = pe_id
        self.level = level

    def _emit_op(self, kind: str, cycle: int, dur_cycles: int) -> None:
        self.tracer.emit_packed(
            kind, cycle, pe=self.pe_id, level=self.level, args=(dur_cycles,)
        )

    def _emit_merge(self, cycle: int, members: int) -> None:
        self.tracer.emit_packed(
            PE_MERGE, cycle, pe=self.pe_id, level=self.level, args=(members,)
        )

    # ------------------------------------------------------------------
    # Compute units
    # ------------------------------------------------------------------
    def _scan_side(
        self,
        own: Sequence[Message],
        partners: Sequence[Message],
        work: PEWork,
        raw: List[_RawOutput],
    ) -> None:
        latencies = self.config.latencies
        tracer = self.tracer
        for message in own:
            for entry in message.entries:
                best = None
                if entry:
                    # Reduce with the *widest* contained partner (first on
                    # ties): the other input holds one message covering
                    # exactly this query's indices beneath that subtree.
                    for partner in partners:
                        work.compares += 1
                        if partner.indices <= entry:
                            if best is None or len(partner.indices) > len(
                                best.indices
                            ):
                                best = partner
                if best is not None:
                    work.reduces += 1
                    ready = (
                        max(message.ready_cycle, best.ready_cycle)
                        + latencies.reduce_path
                    )
                    if tracer.enabled:
                        self._emit_op(PE_REDUCE, ready, latencies.reduce_path)
                    raw.append(
                        _RawOutput(
                            indices=message.indices | best.indices,
                            entry=entry - best.indices,
                            value=self.operator.combine(message.value, best.value),
                            ready_cycle=ready,
                        )
                    )
                else:
                    # No partner, or a finished answer: travels up untouched.
                    work.forwards += 1
                    ready = message.ready_cycle + latencies.forward_path
                    if tracer.enabled:
                        self._emit_op(PE_FORWARD, ready, latencies.forward_path)
                    raw.append(
                        _RawOutput(
                            indices=message.indices,
                            entry=entry,
                            value=message.value,
                            ready_cycle=ready,
                        )
                    )

    # ------------------------------------------------------------------
    # Merge unit
    # ------------------------------------------------------------------
    def _merge(self, raw: List[_RawOutput], work: PEWork) -> List[Message]:
        """Group raw outputs by indices set; dedup and concatenate entries."""
        groups: Dict[FrozenSet[int], List[_RawOutput]] = {}
        for output in raw:
            groups.setdefault(output.indices, []).append(output)

        merged: List[Message] = []
        for indices, members in groups.items():
            seen_entries = set()
            entries: List[FrozenSet[int]] = []
            ready = 0
            for member in members:
                if member.entry in seen_entries:
                    work.duplicates_removed += 1
                else:
                    seen_entries.add(member.entry)
                    entries.append(member.entry)
                ready = max(ready, member.ready_cycle)
            if len(members) > 1:
                work.merges += 1
                if self.tracer.enabled:
                    self._emit_merge(ready, len(members))
            if self.check_values:
                reference = members[0].value
                for member in members[1:]:
                    if member.value is not reference and not np.allclose(
                        member.value, reference
                    ):
                        raise AssertionError(
                            f"{self.name}: merge-unit invariant violated — "
                            f"outputs with indices {sorted(indices)} carry "
                            "different values"
                        )
            merged.append(
                Message(
                    header=Header(
                        indices=indices,
                        entries=tuple(sorted(entries, key=entry_sort_key)),
                    ),
                    value=members[0].value,
                    ready_cycle=ready,
                )
            )
        return merged

    def _apply_issue_limit(self, outputs: List[Message]) -> List[Message]:
        """Finite compute units: at most ``compute_units`` outputs per cycle.

        Stalls go in (ready_cycle, sorted indices) order: the earliest-ready
        outputs grab the free units first.  The list is then handed on in
        canonical sorted-indices order, so the parent's matching never
        depends on when memory delivered the operands.
        """
        units = self.config.compute_units
        outputs.sort(key=lambda m: (m.ready_cycle, sorted_tuple(m.indices)))
        for position, message in enumerate(outputs):
            message.ready_cycle += position // units
        outputs.sort(key=lambda m: sorted_tuple(m.indices))
        return outputs

    def process(
        self, input_a: Sequence[Message], input_b: Sequence[Message]
    ) -> PEResult:
        """Run one batch through this PE.

        Either input may be empty (e.g. a rank holding no requested vector),
        in which case everything on the other input is forwarded — the paper's
        automatic-forward case for PE (4|15) in Fig. 6.
        """
        work = PEWork(peak_input_occupancy=max(len(input_a), len(input_b)))
        raw: List[_RawOutput] = []
        self._scan_side(input_a, input_b, work, raw)
        self._scan_side(input_b, input_a, work, raw)
        outputs = self._apply_issue_limit(self._merge(raw, work))
        work.outputs = len(outputs)
        return PEResult(outputs=outputs, work=work)

    def fold_stream(self, stream: Sequence[Message], work: PEWork) -> List[Message]:
        """The scalar leaf FIFO fold (:func:`fold_stream`) on this PE."""
        return fold_stream(
            stream,
            work,
            self.operator,
            self.config.latencies.reduce_path,
            self.tracer,
            self.pe_id,
            self.level,
        )

    def theoretical_output_bound(self, n: int, m: int) -> int:
        """Paper §IV-B: at most min(nm + n + m, B) distinct outputs."""
        return min(n * m + n + m, self.config.batch_size)


def fold_stream(
    stream: Sequence[Message],
    work: PEWork,
    operator: ReductionOperator,
    reduce_path: int,
    tracer: Tracer = NULL_TRACER,
    pe_id: Optional[int] = None,
    level: Optional[int] = None,
    partners: Optional[List[Tuple[Message, Message]]] = None,
) -> List[Message]:
    """Combine messages arriving sequentially on *one* leaf input FIFO.

    A general sparse-gathering workload may home two indices of one query
    in the same rank (the paper's tables are one per rank, Fig. 4b, so its
    queries never do).  Those items stream through the leaf PE's FIFO one
    after another, and the compute units compare each arriving entry
    against every buffered row (Fig. 5), charging the reduce path per
    combination.

    Each arriving entry reduces with the widest already-buffered match,
    first on ties.  The reduction consumes the query it serves: entry ``e``
    leaves its message, and ``q − best.indices`` leaves the first buffered
    ``best.indices`` row carrying it, where ``q = indices ∪ e``.  The
    reduced message then arrives in turn.  A second arrival of one
    ``(indices, entry)`` pair is a duplicate and is dropped.  Finally
    same-``indices`` rows coalesce, ready at the latest of them.

    ``best`` need not be the row that loses the entry: without
    deduplication it can be another query's copy of the same read, with
    another ready cycle.  Given a list, ``partners`` receives each
    reduction's ``(best, row that lost the entry)``.
    """
    buffer: List[Message] = []
    seen: set = set()

    def emit(kind: str, cycle: int, arg: int) -> None:
        tracer.emit_packed(kind, cycle, pe=pe_id, level=level, args=(arg,))

    def consume(indices: FrozenSet[int], entry: FrozenSet[int]) -> Optional[Message]:
        for position, row in enumerate(buffer):
            if row.indices == indices and entry in row.entries:
                work.entries_consumed += 1
                kept = _without(row, {entry})
                if kept is None:
                    del buffer[position]
                else:
                    buffer[position] = kept
                return row
        return None

    def insert(message: Message) -> None:
        produced: List[Message] = []
        removed = set()
        for entry in message.entries:
            if (message.indices, entry) in seen:
                work.duplicates_removed += 1
                removed.add(entry)
                continue
            seen.add((message.indices, entry))
            if not entry:
                continue
            best = None
            for other in buffer:
                work.compares += 1
                if other.indices <= entry:
                    if best is None or len(other.indices) > len(best.indices):
                        best = other
            if best is None:
                continue
            work.reduces += 1
            ready = max(message.ready_cycle, best.ready_cycle) + reduce_path
            if tracer.enabled:
                emit(PE_REDUCE, ready, reduce_path)
            produced.append(
                Message(
                    header=message.header.reduced_with(best.indices, entry),
                    value=operator.combine(message.value, best.value),
                    ready_cycle=ready,
                )
            )
            removed.add(entry)
            work.entries_consumed += 1
            owner = consume(best.indices, (message.indices | entry) - best.indices)
            if partners is not None:
                partners.append((best, owner))
        kept = _without(message, removed)
        if kept is not None:
            buffer.append(kept)
        for combined in produced:
            insert(combined)

    for message in stream:
        insert(message)

    groups: Dict[FrozenSet[int], List[Message]] = {}
    for message in buffer:
        groups.setdefault(message.indices, []).append(message)
    coalesced: List[Message] = []
    for members in groups.values():
        base = members[0]
        if len(members) > 1:
            header, ready = base.header, base.ready_cycle
            for member in members[1:]:
                header = header.merged_with(member.header)
                ready = max(ready, member.ready_cycle)
            work.merges += 1
            if tracer.enabled:
                emit(PE_MERGE, ready, len(members))
            base = Message(header=header, value=base.value, ready_cycle=ready)
        coalesced.append(base)
    return coalesced


def fold_rows(
    stream: Sequence[Row],
    queries: Sequence[Indices],
    work: PEWork,
    operator: ReductionOperator,
    reduce_path: int,
    tracer: Tracer = NULL_TRACER,
    pe_id: Optional[int] = None,
    level: Optional[int] = None,
    partners: Optional[List[Tuple[Message, Message]]] = None,
) -> List[Row]:
    """:func:`fold_stream` over rows: rows in, rows out, through
    :func:`to_messages` and :func:`to_rows`."""
    messages = to_messages(stream, queries)
    folded = fold_stream(messages, work, operator, reduce_path, tracer, pe_id,
                         level, partners)
    return to_rows(folded, queries)


@dataclass
class Boundary:
    """One batch's leaf messages with their values, numbered FIFO-major in
    folded order: the (query id × FIFO) ``table`` of message ids, each
    message's ``value``, ``ready`` cycle, ``size`` (indices folded in) and
    ``fifo``, and each leaf PE's fold ``work``."""

    table: np.ndarray
    value: np.ndarray
    ready: np.ndarray
    size: np.ndarray
    fifo: np.ndarray
    work: List[PEWork]


def leaf_boundary(queries, leaf, operator, reduce_path, tracer=NULL_TRACER) -> Boundary:
    """``repro.core.sweep.leaf_messages`` on one batch's leaf columns, its
    messages' values evaluated from its combine program."""
    messages = sweep_module.leaf_messages(queries, leaf, reduce_path, [tracer])
    (value,) = messages.program.evaluate(
        leaf.values, operator.combine, [messages.row], ValuePool()
    )
    work = [PEWork(*counts) for counts in messages.work.T.tolist()]
    return Boundary(messages.table, value, messages.ready, messages.size,
                    messages.fifo, work)


def fold_every_fifo(queries, leaf, operator, reduce_path, tracer=NULL_TRACER) -> Boundary:
    """:func:`leaf_boundary` by :func:`fold_rows` on every FIFO of one
    batch's leaf columns."""
    work = [PEWork() for _ in range(leaf.fifos // 2)]
    cells, messages = [], []
    for fifo, stream in enumerate(leaf_rows(leaf)):
        if not stream:
            continue
        folded = fold_rows(stream, queries, work[fifo >> 1], operator,
                           reduce_path, tracer, fifo >> 1, 0)
        for indices, ids, value, ready in folded:
            cells += [(query, fifo, len(messages)) for query in ids]
            messages.append((len(indices), fifo, value, ready))
    table = np.full((len(queries), leaf.fifos), -1, np.int64)
    rows, columns, ids = np.array(cells, np.int64).T
    table[rows, columns] = ids
    size, fifo, value, ready = zip(*messages)
    return Boundary(table, np.stack(value), np.array(ready, np.int64),
                    np.array(size, np.int64), np.array(fifo, np.int64), work)


def retime_phased(
    config: FafnirConfig,
    inputs: Sequence[Message],
    outputs: Sequence[Message],
    work: PEWork,
) -> None:
    """Restamp one PE's outputs with store-and-forward timing.

    The PE starts when the last of its inputs is ready, spends its compare
    workload spread over the compute units plus one reduce-path drain, then
    emits one output per cycle in (dataflow ready, sorted indices) order.
    """
    start = max((message.ready_cycle for message in inputs), default=0)
    busy = (
        math.ceil(max(1, work.compares) / config.compute_units)
        + config.latencies.reduce_path
    )
    emit_order = sorted(outputs, key=lambda m: (m.ready_cycle, sorted_tuple(m.indices)))
    for position, message in enumerate(emit_order):
        message.ready_cycle = start + busy + position


def run_tree(
    engine, plan, leaf_inputs, check_values: bool = False,
    tracer: Optional[Tracer] = None,
) -> Tuple[np.ndarray, List[int], Dict[int, PEWork]]:
    """One batch of ``FafnirEngine._run_trees`` by object PEs: one
    ``process`` per PE.

    ``leaf_inputs`` is the engine's ``LeafColumns``; every leaf FIFO's
    rows (:func:`leaf_rows`) go through :func:`fold_rows` and become
    messages.  Returns each of ``plan``'s queries' root value and ready
    cycle, and the per-PE work, exactly as the engine's sweep does.  Events
    go to ``tracer`` (the engine's when ``None``).
    """
    tracer = engine.tracer if tracer is None else tracer
    tree = engine.tree
    streams = leaf_rows(leaf_inputs)
    levels = [tree.level_ids(level) for level in range(tree.num_levels)]
    outputs: Dict[int, List[Message]] = {}
    per_pe_work: Dict[int, PEWork] = {}
    for pe_id in chain.from_iterable(levels):
        node = tree.pe(pe_id)
        pe = ProcessingElement(
            engine.config,
            engine.operator,
            name=f"PE{pe_id}",
            check_values=check_values,
            tracer=tracer,
            pe_id=pe_id,
            level=node.level,
        )
        fold_work = PEWork()
        if node.is_leaf:
            input_a, input_b = (
                to_messages(
                    fold_rows(rows, plan.distinct, fold_work, engine.operator,
                              engine.config.latencies.reduce_path,
                              tracer, pe_id, node.level),
                    plan.distinct,
                )
                for rows in streams[2 * pe_id : 2 * pe_id + 2]  # leaves come first
            )
        else:
            left, right = node.children
            input_a, input_b = outputs[left], outputs[right]
        result = pe.process(input_a, input_b)
        work = result.work.merged_with(fold_work)
        if engine.timing == "phased":
            retime_phased(engine.config, [*input_a, *input_b], result.outputs, work)
        outputs[pe_id] = result.outputs
        per_pe_work[pe_id] = work

    by_indices = {
        message.indices: message
        for message in outputs[levels[-1][0]]
        if message.header.complete_entries
    }
    values, ready = [], []
    for query in plan.queries:
        message = by_indices.get(query)
        if message is None:
            raise RuntimeError(f"tree failed to complete query {sorted(query)}")
        values.append(message.value)
        ready.append(message.ready_cycle)
    return np.stack(values), ready, per_pe_work


def outputs_by_pe(engine, plan, leaf_inputs) -> Dict[int, List[Message]]:
    """Every PE's merged output messages from one object sweep."""
    recorded: Dict[int, List[Message]] = {}
    process = ProcessingElement.process

    def recording(pe, input_a, input_b):
        result = process(pe, input_a, input_b)
        recorded[pe.pe_id] = result.outputs
        return result

    ProcessingElement.process = recording
    try:
        run_tree(engine, plan, leaf_inputs)
    finally:
        ProcessingElement.process = process
    return recorded
