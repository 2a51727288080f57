"""Processing-element model: compute units plus merge unit (paper Fig. 5).

A PE takes two input message lists (A from its left child or rank pair, B
from its right), and for every *entry* (outstanding query remainder) of every
input message decides among three actions:

* **reduce** — a partner message on the other input whose ``indices`` are all
  contained in the entry exists; combine the values, union the indices, and
  shrink the entry by the partner's indices.
* **forward** — no partner matches; pass the value along with that entry
  unchanged.
* complete entries (empty remainder) are always forwarded — the value is a
  finished query answer on its way to the root.

The compute units examine both directions (A-entries against B-indices and
vice versa), so the same reduction is typically discovered twice; the
**merge unit** then groups raw outputs by ``indices`` set, removing exact
duplicates and concatenating the query entries of outputs that carry the
same data (paper Fig. 6d).

Timing is annotated per message: an output is ready one pipeline stage after
the later of its parents, and the PE's finite compute units impose a simple
one-output-per-unit-per-cycle issue limit on top.

Each compute-unit step has two exact implementations, picked per
invocation by input size:

* the scalar pure-Python ``O(entries × partners)`` scan and fold — the
  executable specification, and the faster choice for small invocations;
* exact-match lookup kernels that find each entry's partner with one hash
  lookup of ``entry ∩ covered`` (``covered`` being the union of the
  candidates' indices) and combine all of a scan's matched values in one
  batched ``operator.combine`` call.  Any contained candidate lies inside
  that key, so a candidate equal to it is the spec's widest, first-on-ties
  match; when none equals it, a scalar scan decides (see
  :func:`_partner_of`).  They take over at ``_VECTOR_SCAN_CUTOVER``
  entry-vs-partner pairs and ``_VECTOR_FOLD_CUTOVER`` streamed messages.

Both produce byte-identical outputs, headers, ready cycles, and
:class:`PEWork` counters, so the cutovers are purely performance knobs
(tests force either path everywhere by patching them; see
``benchmarks/bench_engine_hotpath.py`` for the tracked speedup).
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import AbstractSet, Dict, FrozenSet, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.config import FafnirConfig
from repro.core.header import Header, Message, entry_sort_key, sorted_tuple
from repro.core.operators import ReductionOperator
from repro.obs.events import PE_FORWARD, PE_MERGE, PE_REDUCE
from repro.obs.tracer import NULL_TRACER, Tracer

# Below this many entry-vs-partner pairs (streamed messages for the fold)
# building the lookup tables costs more than the loop they replace; both
# paths are exact, so the cutovers are purely performance knobs.
_VECTOR_SCAN_CUTOVER = 64
_VECTOR_FOLD_CUTOVER = 8


def _widest_contained(
    entry: FrozenSet[int], candidates: Sequence[Optional[Message]]
) -> int:
    """Position of the first widest candidate whose indices lie in ``entry``.

    Returns -1 when no candidate is contained.  This is the scalar spec's
    choice, by a scan of every candidate; ``None`` marks a removed row and
    is skipped.
    """
    best, width = -1, 0
    for position, candidate in enumerate(candidates):
        if candidate is None:
            continue
        size = len(candidate.indices)
        if size > width and candidate.indices <= entry:
            best, width = position, size
    return best


def _partner_of(
    entry: FrozenSet[int],
    covered: AbstractSet[int],
    first_with: Dict[FrozenSet[int], int],
    candidates: Sequence[Optional[Message]],
) -> int:
    """:func:`_widest_contained` by one hash lookup, exact for any input.

    ``covered`` is the union of the candidates' ``indices`` and
    ``first_with`` maps each distinct ``indices`` set to its first position.
    Every candidate is non-empty and lies inside ``covered``, so a candidate
    contained in ``entry`` is contained in ``key = entry & covered``.  An
    empty key therefore matches nothing.  A candidate equal to ``key`` is as
    wide as any contained candidate can be, and every contained candidate of
    that width equals ``key``, so the first one is exactly the spec's widest
    match with the first winning ties.  Only when no candidate equals
    ``key`` does the lookup fall back to the scan.  ``covered`` may be any
    superset of that union (the leaf fold keeps every index it has
    buffered, consumed rows included); the argument only needs every
    candidate inside it.  Engine-built inputs never reach the scan:
    the tree spans every rank, so the other input holds the one live
    message for the entry's query beneath that subtree, and it covers
    exactly the entry's indices there — which is ``key``.
    """
    key = entry & covered
    if not key:
        return -1
    position = first_with.get(key)
    if position is None:
        return _widest_contained(entry, candidates)
    return position


def _without(
    message: Message, removed: AbstractSet[FrozenSet[int]]
) -> Optional[Message]:
    """``message`` minus its ``removed`` entries; ``None`` if none remain."""
    if not removed:
        return message
    remaining = tuple(entry for entry in message.entries if entry not in removed)
    if not remaining:
        return None
    # A subsequence of a canonical entry tuple is still canonical.
    return Message(
        header=Header(indices=message.indices, entries=remaining),
        value=message.value,
        ready_cycle=message.ready_cycle,
        hops=message.hops,
    )


@dataclass
class PEWork:
    """Operation counts for one PE invocation (drives timing/power stats).

    These counters are the ground truth the event stream must agree with:
    when a :class:`~repro.obs.Tracer` is attached, every ``reduces`` /
    ``forwards`` / ``merges`` increment also emits one ``pe_reduce`` /
    ``pe_forward`` / ``pe_merge`` :class:`~repro.obs.TraceEvent`, so
    ``repro.obs.per_level_counts(events)`` equals the per-level sums
    produced by :func:`repro.core.stats.tree_utilization` over
    ``LookupStats.per_pe_work``.  The scalar spec and the lookup kernels
    increment (and therefore emit) at the same semantic points, which is
    what makes their event streams comparable with ``==``.
    """

    compares: int = 0
    reduces: int = 0
    forwards: int = 0
    merges: int = 0
    duplicates_removed: int = 0
    entries_consumed: int = 0
    outputs: int = 0
    peak_input_occupancy: int = 0

    def merged_with(self, other: "PEWork") -> "PEWork":
        return PEWork(
            compares=self.compares + other.compares,
            reduces=self.reduces + other.reduces,
            forwards=self.forwards + other.forwards,
            merges=self.merges + other.merges,
            duplicates_removed=self.duplicates_removed + other.duplicates_removed,
            entries_consumed=self.entries_consumed + other.entries_consumed,
            outputs=self.outputs + other.outputs,
            peak_input_occupancy=max(
                self.peak_input_occupancy, other.peak_input_occupancy
            ),
        )


@dataclass
class PEResult:
    outputs: List[Message]
    work: PEWork


@dataclass
class _RawOutput:
    """A compute-unit output before the merge unit.

    ``source_header`` is set on forwards: it names the input message whose
    entry this row carries unchanged, letting the merge unit reuse that
    message's (already canonical) header when a group turns out to be one
    message forwarded intact.
    """

    indices: FrozenSet[int]
    entry: FrozenSet[int]
    value: np.ndarray
    ready_cycle: int
    hops: int
    was_reduce: bool
    source_header: Optional[Header] = None


class ProcessingElement:
    """One node of the FAFNIR tree.

    Instances are stateless between invocations; :meth:`process` consumes the
    two input FIFOs' contents for one batch and returns merged outputs.
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
        # Tracing: events are emitted exactly where the PEWork counters
        # increment, on both code paths, so scalar and vector runs produce
        # ==-equal event streams (asserted by the differential tests).
        # Every emission is guarded by ``tracer.enabled`` — one attribute
        # read when tracing is off.
        self.tracer = tracer
        self.pe_id = pe_id
        self.level = level

    # ------------------------------------------------------------------
    # Tracing
    # ------------------------------------------------------------------
    def _emit_op(self, kind: str, cycle: int, dur_cycles: int) -> None:
        """Emit one PE-operation event (callers guard on ``tracer.enabled``)."""
        self.tracer.emit_packed(
            kind,
            cycle,
            pe=self.pe_id,
            level=self.level,
            args=(dur_cycles,),
        )

    def _emit_merge(self, cycle: int, members: int) -> None:
        """Emit one merge-unit event (callers guard on ``tracer.enabled``)."""
        self.tracer.emit_packed(
            PE_MERGE,
            cycle,
            pe=self.pe_id,
            level=self.level,
            args=(members,),
        )

    # ------------------------------------------------------------------
    # Compute units — kernel dispatch
    # ------------------------------------------------------------------
    def _scan_side(
        self,
        own: Sequence[Message],
        partners: Sequence[Message],
        work: PEWork,
        raw: List[_RawOutput],
    ) -> None:
        pairs = sum(len(m.entries) for m in own) * max(1, len(partners))
        if pairs >= _VECTOR_SCAN_CUTOVER:
            self._scan_side_vector(own, partners, work, raw)
            return
        self._scan_side_scalar(own, partners, work, raw)

    def _scan_side_scalar(
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
                if not entry:
                    # Finished answer: travels up untouched.
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
                            hops=message.hops + 1,
                            was_reduce=False,
                            source_header=message.header,
                        )
                    )
                    continue
                # Reduce with the *maximal* matching partner.  The subtree-
                # completion invariant guarantees the other input holds one
                # message covering exactly this query's indices beneath that
                # subtree; reducing with it (rather than every smaller
                # partial) is what keeps the PE's output count within the
                # paper's min(nm+n+m, B) bound.
                best = None
                for partner in partners:
                    work.compares += 1
                    if partner.indices <= entry:
                        if best is None or len(partner.indices) > len(best.indices):
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
                            value=self.operator.combine(
                                message.value, best.value
                            ),
                            ready_cycle=ready,
                            hops=max(message.hops, best.hops) + 1,
                            was_reduce=True,
                        )
                    )
                else:
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
                            hops=message.hops + 1,
                            was_reduce=False,
                            source_header=message.header,
                        )
                    )

    def _scan_side_vector(
        self,
        own: Sequence[Message],
        partners: Sequence[Message],
        work: PEWork,
        raw: List[_RawOutput],
    ) -> None:
        """Exact-match lookup equivalent of :meth:`_scan_side_scalar`.

        One row per (message, entry) pair, in scalar scan order.  Each
        distinct entry finds its partner with one hash lookup
        (:func:`_partner_of`); all matched values are combined in one batched
        ``operator.combine`` call, and the surviving Python loop only
        materialises the raw-output records.
        """
        latencies = self.config.latencies
        msg_of: List[int] = []
        entries: List[FrozenSet[int]] = []
        for position, message in enumerate(own):
            for entry in message.entries:
                msg_of.append(position)
                entries.append(entry)
        rows = len(entries)
        if rows == 0:
            return

        num_partners = len(partners)
        first_with: Dict[FrozenSet[int], int] = {}
        for position, partner in enumerate(partners):
            first_with.setdefault(partner.indices, position)
        covered = frozenset().union(*first_with)
        # Identical entries choose identical partners, so each distinct entry
        # is looked up once; an empty entry never matches and is forwarded.
        choice_of: Dict[FrozenSet[int], int] = {}
        for entry in entries:
            if entry not in choice_of:
                choice_of[entry] = _partner_of(
                    entry, covered, first_with, partners
                )
        best_of = np.fromiter((choice_of[e] for e in entries), np.int64, rows)

        # The scalar loop charges one compare per partner for every
        # non-empty entry, match or not.
        work.compares += num_partners * sum(1 for entry in entries if entry)

        msg_index = np.asarray(msg_of, dtype=np.int64)
        reduce_rows = np.nonzero(best_of >= 0)[0]
        if reduce_rows.size:
            own_ready = np.fromiter(
                (m.ready_cycle for m in own), np.int64, len(own)
            )
            own_hops = np.fromiter((m.hops for m in own), np.int64, len(own))
            partner_ready = np.fromiter(
                (p.ready_cycle for p in partners), np.int64, num_partners
            )
            partner_hops = np.fromiter(
                (p.hops for p in partners), np.int64, num_partners
            )
            chosen = best_of[reduce_rows]
            own_values = np.stack([m.value for m in own])
            partner_values = np.stack([p.value for p in partners])
            combined = self.operator.combine(
                own_values[msg_index[reduce_rows]], partner_values[chosen]
            )
            reduce_ready = (
                np.maximum(own_ready[msg_index[reduce_rows]], partner_ready[chosen])
                + latencies.reduce_path
            ).tolist()
            reduce_hops = (
                np.maximum(own_hops[msg_index[reduce_rows]], partner_hops[chosen]) + 1
            ).tolist()

        best_list = best_of.tolist()
        own_indices = [m.indices for m in own]
        partner_list = list(partners)
        forward_path = latencies.forward_path
        tracer = self.tracer
        # Rows of one message matched to one partner share the same union;
        # caching it also reuses the frozenset object, so the merge unit's
        # group dict hashes each (large, near-root) union once.
        union_cache: Dict[Tuple[int, int], FrozenSet[int]] = {}
        slot = 0
        for row in range(rows):
            message = own[msg_of[row]]
            entry = entries[row]
            best_index = best_list[row]
            if best_index >= 0:
                # reduce_rows is ascending, so a running slot counter walks
                # the batched-combine results in row order.
                partner = partner_list[best_index]
                pair = (msg_of[row], best_index)
                union = union_cache.get(pair)
                if union is None:
                    union = own_indices[msg_of[row]] | partner.indices
                    union_cache[pair] = union
                work.reduces += 1
                if tracer.enabled:
                    self._emit_op(
                        PE_REDUCE, reduce_ready[slot], latencies.reduce_path
                    )
                raw.append(
                    _RawOutput(
                        indices=union,
                        entry=entry - partner.indices,
                        value=combined[slot],
                        ready_cycle=reduce_ready[slot],
                        hops=reduce_hops[slot],
                        was_reduce=True,
                    )
                )
                slot += 1
            else:
                work.forwards += 1
                if tracer.enabled:
                    self._emit_op(
                        PE_FORWARD,
                        message.ready_cycle + forward_path,
                        forward_path,
                    )
                raw.append(
                    _RawOutput(
                        indices=own_indices[msg_of[row]],
                        entry=entry,
                        value=message.value,
                        ready_cycle=message.ready_cycle + forward_path,
                        hops=message.hops + 1,
                        was_reduce=False,
                        source_header=message.header,
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
            # Fast path: one input message forwarded intact (every one of
            # its entries, nothing else in the group).  The merged header
            # would be rebuilt from exactly the source header's canonical
            # entries, so reuse it; ready/hops are uniform across members.
            source = members[0].source_header
            if (
                source is not None
                and len(members) == len(source.entries)
                and all(m.source_header is source for m in members)
            ):
                if len(members) > 1:
                    work.merges += 1
                    if self.tracer.enabled:
                        self._emit_merge(members[0].ready_cycle, len(members))
                merged.append(
                    Message(
                        header=source,
                        value=members[0].value,
                        ready_cycle=members[0].ready_cycle,
                        hops=members[0].hops,
                    )
                )
                continue
            seen_entries = set()
            entries: List[FrozenSet[int]] = []
            ready = 0
            hops = 0
            for member in members:
                if member.entry in seen_entries:
                    work.duplicates_removed += 1
                else:
                    seen_entries.add(member.entry)
                    entries.append(member.entry)
                ready = max(ready, member.ready_cycle)
                hops = max(hops, member.hops)
            if len(members) > 1:
                work.merges += 1
                if self.tracer.enabled:
                    self._emit_merge(ready, len(members))
            if self.check_values:
                reference = members[0].value
                for member in members[1:]:
                    if not np.allclose(member.value, reference):
                        raise AssertionError(
                            f"{self.name}: merge-unit invariant violated — "
                            f"outputs with indices {sorted(indices)} carry "
                            "different values"
                        )
            # ``entries`` is already deduplicated above; sorting it
            # canonically here is exactly Header.make minus the redundant
            # second dedup pass (a single entry needs no sort at all).
            if len(entries) == 1:
                canonical = (entries[0],)
            else:
                canonical = tuple(sorted(entries, key=entry_sort_key))
            merged.append(
                Message(
                    header=Header(indices=indices, entries=canonical),
                    value=members[0].value,
                    ready_cycle=ready,
                    hops=hops,
                )
            )
        return merged

    def _apply_issue_limit(self, outputs: List[Message]) -> List[Message]:
        """Finite compute units: at most ``compute_units`` outputs per cycle."""
        units = self.config.compute_units
        # Stalls are assigned in (ready_cycle, sorted indices) order: the
        # earliest-ready outputs grab the free units first.  Sorting by the
        # cheap int key first and breaking ties per run avoids materialising
        # the sorted-indices key for messages whose ready cycle is unique —
        # near the root those index sets hold thousands of members.
        outputs.sort(key=operator.attrgetter("ready_cycle"))
        start = 0
        total = len(outputs)
        while start < total:
            stop = start + 1
            ready = outputs[start].ready_cycle
            while stop < total and outputs[stop].ready_cycle == ready:
                stop += 1
            if stop - start > 1:
                outputs[start:stop] = sorted(
                    outputs[start:stop], key=lambda m: sorted_tuple(m.indices)
                )
            start = stop
        for position, message in enumerate(outputs):
            message.ready_cycle += position // units
        # Hand the list to the parent level in canonical sorted-indices
        # order.  The stall assignment above is timing (who waits for a
        # free unit); the *list* order steers the parent's greedy matching
        # and merge grouping, which must not depend on when memory happened
        # to deliver the operands — the invariant that keeps functional
        # outputs byte-identical under the opt-in hot-index tier.  Indices
        # sets are unique after the merge unit, so this is a strict total
        # order.
        outputs.sort(key=lambda m: sorted_tuple(m.indices))
        return outputs

    # ------------------------------------------------------------------
    def process(
        self, input_a: Sequence[Message], input_b: Sequence[Message]
    ) -> PEResult:
        """Run one batch through this PE.

        Either input may be empty (e.g. a rank holding no requested vector),
        in which case everything on the other input is forwarded — the paper's
        automatic-forward case for PE (4|15) in Fig. 6.
        """
        work = PEWork(
            peak_input_occupancy=max(len(input_a), len(input_b))
        )
        raw: List[_RawOutput] = []
        self._scan_side(input_a, input_b, work, raw)
        self._scan_side(input_b, input_a, work, raw)
        outputs = self._merge(raw, work)
        outputs = self._apply_issue_limit(outputs)
        work.outputs = len(outputs)
        return PEResult(outputs=outputs, work=work)

    # ------------------------------------------------------------------
    # Intra-FIFO streaming combination (leaf PEs)
    # ------------------------------------------------------------------
    def fold_stream(self, stream: Sequence[Message], work: PEWork) -> List[Message]:
        """Combine messages arriving sequentially on *one* input FIFO.

        In the paper's reference workload a query touches at most one vector
        per rank (table-number bits select the rank, Fig. 4b), so vectors
        needing each other always arrive on *different* PE inputs.  A general
        sparse-gathering library cannot assume that: two indices of one query
        may be homed in the same rank.  Physically those items stream through
        the leaf PE's FIFO one after another, and the compute units compare
        each arriving item against the entries already buffered (Fig. 5 shows
        the units iterating over the buffer).  This method models that
        streaming self-combination, charging the reduce path per combination
        but no forward cost for items that merely sit in the buffer.

        Messages that do not interact pass through untouched, so for
        paper-style workloads this is an identity with zero added latency.

        Combination is greedy: each arriving entry reduces with the *maximal*
        already-buffered match — the running accumulator for its query
        within this FIFO.  A reduction consumes the query it serves, as the
        paper's header moves matched indices out of ``queries`` (§IV-B):
        arriving entry ``e`` on message ``m`` reduces with ``best`` for query
        ``q = m.indices ∪ e``, so ``e`` leaves ``m`` and ``q − best.indices``
        leaves the buffered row with ``best.indices`` that carries it.  Only
        the combined message carries ``q`` on; a message left with no entries
        is dropped.  An entry that reaches the fold a second time on the same
        ``indices`` (a reduction found twice, or a repeated read of one query
        without deduplication) is a duplicate and is dropped too.  After the
        fold the buffer therefore holds exactly one live entry per query
        touching this FIFO: ``q − S`` on the message for ``S = q ∩ FIFO``.
        """
        if len(stream) >= _VECTOR_FOLD_CUTOVER:
            return self._fold_stream_vector(stream, work)
        return self._fold_stream_scalar(stream, work)

    def _fold_stream_scalar(
        self, stream: Sequence[Message], work: PEWork
    ) -> List[Message]:
        latencies = self.config.latencies
        buffer: List[Message] = []
        seen: set = set()

        def consume(indices: FrozenSet[int], entry: FrozenSet[int]) -> None:
            """Drop ``entry`` from the first buffered row with ``indices``
            that carries it, and the row itself once it carries nothing."""
            for position, row in enumerate(buffer):
                if row.indices == indices and entry in row.entries:
                    work.entries_consumed += 1
                    kept = _without(row, {entry})
                    if kept is None:
                        del buffer[position]
                    else:
                        buffer[position] = kept
                    return

        def insert(message: Message) -> None:
            produced: List[Message] = []
            removed = set()
            for entry in message.entries:
                if (message.indices, entry) in seen:
                    # This query's copy of these indices already entered the
                    # fold: a reduction found twice, or a repeated read
                    # without deduplication.
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
                if best is not None:
                    work.reduces += 1
                    ready = (
                        max(message.ready_cycle, best.ready_cycle)
                        + latencies.reduce_path
                    )
                    if self.tracer.enabled:
                        self._emit_op(PE_REDUCE, ready, latencies.reduce_path)
                    produced.append(
                        Message(
                            header=message.header.reduced_with(
                                best.indices, entry
                            ),
                            value=self.operator.combine(
                                message.value, best.value
                            ),
                            ready_cycle=ready,
                            hops=max(message.hops, best.hops),
                        )
                    )
                    removed.add(entry)
                    work.entries_consumed += 1
                    consume(best.indices, (message.indices | entry) - best.indices)
            kept = _without(message, removed)
            if kept is not None:
                buffer.append(kept)
            for combined in produced:
                insert(combined)

        # FIFO arrival order — the deterministic append order built by
        # ``FafnirEngine._leaf_inputs`` — not ready-cycle order: which pairs
        # fold (and therefore the reduced values' float association) must
        # not depend on DRAM scheduling or the hot-index tier, only the
        # ready arithmetic may.
        for message in stream:
            insert(message)
        return self._coalesce(buffer, work)

    def _fold_stream_vector(
        self, stream: Sequence[Message], work: PEWork
    ) -> List[Message]:
        """Exact-match lookup equivalent of :meth:`_fold_stream_scalar`.

        Buffer rows keep their positions: a consumed row becomes ``None``.
        The live rows are mirrored by ``rows_by_indices`` (their positions,
        grouped by ``indices`` set) and ``first_row``, and ``buffered`` is the
        union of every ``indices`` set ever buffered — a superset of the live
        rows' union, which is all :func:`_partner_of` needs — so each
        arriving entry finds its greedy match with one hash lookup instead of
        a scan of the buffer.  Insertion order, greedy-match choices,
        consumed entries and all ``PEWork`` counters are identical to the
        scalar fold.
        """
        latencies = self.config.latencies
        buffer: List[Optional[Message]] = []
        live = 0
        buffered: set = set()
        seen: set = set()
        first_row: Dict[FrozenSet[int], int] = {}
        rows_by_indices: Dict[FrozenSet[int], List[int]] = {}

        def consume(indices: FrozenSet[int], entry: FrozenSet[int]) -> None:
            nonlocal live
            rows = rows_by_indices[indices]
            for row in rows:
                message = buffer[row]
                if entry in message.entries:
                    work.entries_consumed += 1
                    kept = _without(message, {entry})
                    buffer[row] = kept
                    if kept is None:
                        live -= 1
                        rows.remove(row)
                        if rows:
                            first_row[indices] = rows[0]
                        else:
                            del rows_by_indices[indices], first_row[indices]
                    return

        def insert(message: Message) -> None:
            nonlocal live
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
                work.compares += live
                choice = _partner_of(entry, buffered, first_row, buffer)
                if choice < 0:
                    continue
                best = buffer[choice]
                work.reduces += 1
                ready = (
                    max(message.ready_cycle, best.ready_cycle)
                    + latencies.reduce_path
                )
                if self.tracer.enabled:
                    self._emit_op(PE_REDUCE, ready, latencies.reduce_path)
                produced.append(
                    Message(
                        header=message.header.reduced_with(best.indices, entry),
                        value=self.operator.combine(message.value, best.value),
                        ready_cycle=ready,
                        hops=max(message.hops, best.hops),
                    )
                )
                removed.add(entry)
                work.entries_consumed += 1
                consume(best.indices, (message.indices | entry) - best.indices)
            kept = _without(message, removed)
            if kept is not None:
                first_row.setdefault(kept.indices, len(buffer))
                rows_by_indices.setdefault(kept.indices, []).append(len(buffer))
                buffered.update(kept.indices)
                buffer.append(kept)
                live += 1
            for combined in produced:
                insert(combined)

        # FIFO arrival order, matching the scalar fold exactly.
        for message in stream:
            insert(message)
        return self._coalesce(
            [message for message in buffer if message is not None], work
        )

    def _coalesce(self, messages: List[Message], work: PEWork) -> List[Message]:
        """Merge same-``indices`` messages without charging PE latency."""
        groups: Dict[FrozenSet[int], List[Message]] = {}
        for message in messages:
            groups.setdefault(message.indices, []).append(message)
        coalesced: List[Message] = []
        for members in groups.values():
            base = members[0]
            if len(members) == 1:
                coalesced.append(base)
                continue
            header = base.header
            ready = base.ready_cycle
            hops = base.hops
            for member in members[1:]:
                header = header.merged_with(member.header)
                ready = max(ready, member.ready_cycle)
                hops = max(hops, member.hops)
            work.merges += 1
            if self.tracer.enabled:
                self._emit_merge(ready, len(members))
            coalesced.append(
                Message(
                    header=header, value=base.value, ready_cycle=ready, hops=hops
                )
            )
        return coalesced

    def theoretical_output_bound(self, n: int, m: int) -> int:
        """Paper §IV-B: at most min(nm + n + m, B) distinct outputs."""
        return min(n * m + n + m, self.config.batch_size)
