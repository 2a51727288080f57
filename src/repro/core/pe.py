"""Processing-element model (paper Fig. 5): work counters and the leaf fold.

A PE's compute units take every *entry* (outstanding query remainder) of
its two inputs and either **reduce** it with the partner message on the
other input whose ``indices`` lie inside it or **forward** it; the **merge
unit** then groups the outputs by ``indices`` (paper Fig. 6d).  Above the
leaf FIFOs that routing has a closed form, computed level by level in
:mod:`repro.core.sweep`.  The one sequential step is the leaf FIFO fold,
:func:`fold_stream`, where two indices of one query homed in the same rank
meet and arrival order decides which pairs fold.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import AbstractSet, Dict, FrozenSet, List, Optional, Sequence

from repro.core.header import Message, Header
from repro.core.operators import ReductionOperator
from repro.obs.events import PE_MERGE, PE_REDUCE
from repro.obs.tracer import NULL_TRACER, Tracer


@dataclass
class PEWork:
    """Operation counts for one PE invocation (drives timing/power stats).

    These counters are the ground truth the event stream must agree with:
    when a :class:`~repro.obs.Tracer` is attached, every ``reduces`` /
    ``forwards`` / ``merges`` increment also emits one ``pe_reduce`` /
    ``pe_forward`` / ``pe_merge`` :class:`~repro.obs.TraceEvent`, so
    ``repro.obs.per_level_counts(events)`` equals the per-level sums
    produced by :func:`repro.core.stats.tree_utilization` over
    ``LookupStats.per_pe_work``.
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


def _partner_of(
    entry: FrozenSet[int],
    covered: AbstractSet[int],
    first_with: Dict[FrozenSet[int], int],
) -> int:
    """Position of the buffered row ``entry`` reduces with, or -1 for none.

    ``covered`` is a superset of the buffered rows' indices and
    ``first_with`` maps each distinct ``indices`` set to its first position.
    A row contained in ``entry`` is contained in ``key = entry & covered``,
    so a row equal to ``key`` is the widest match (first on ties) and an
    empty key matches nothing.  In a stream built like a leaf FIFO (one
    message per read index, carrying the remainders of the queries it
    serves) the buffered row for the entry's query covers exactly ``key``;
    any other miss means the stream is not one, and is an error.
    """
    key = entry & covered
    if not key:
        return -1
    position = first_with.get(key)
    if position is None:
        raise ValueError(
            f"no buffered row equals {sorted(key)} for entry {sorted(entry)}: "
            "the stream was not built like a leaf FIFO"
        )
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
    header = Header(indices=message.indices, entries=remaining)
    return Message(header, message.value, message.ready_cycle, message.hops)


def fold_stream(
    stream: Sequence[Message],
    work: PEWork,
    operator: ReductionOperator,
    reduce_path: int,
    tracer: Tracer = NULL_TRACER,
    pe_id: Optional[int] = None,
    level: Optional[int] = None,
) -> List[Message]:
    """Combine messages arriving sequentially on *one* leaf input FIFO.

    A general sparse-gathering workload may home two indices of one query
    in the same rank (the paper's tables are one per rank, Fig. 4b, so its
    queries never do).  Those items stream through the leaf PE's FIFO one
    after another, and the compute units compare each arrival against the
    buffered entries (Fig. 5), charging the reduce path per combination.

    Combination is greedy, in FIFO arrival order: each arriving entry ``e``
    on message ``m`` reduces with the widest buffered row ``best`` inside
    it (first on ties), and the reduction consumes the query
    ``q = m.indices ∪ e`` it serves (§IV-B): ``e`` leaves ``m`` and
    ``q − best.indices`` leaves the first live ``best.indices`` row that
    carries it.  A message left with no entries is dropped, a second
    arrival of one ``(indices, entry)`` pair is a duplicate, and finally
    rows with equal ``indices`` coalesce.  The result holds one entry per
    query touching the FIFO: ``q − S`` on the message for ``S = q ∩ FIFO``.
    Buffer rows keep their positions (a consumed row becomes ``None``), and
    each arrival finds its match with one :func:`_partner_of` lookup; a
    stream not built like a leaf FIFO can miss it and raises ``ValueError``.
    """
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
            choice = _partner_of(entry, buffered, first_row)
            if choice < 0:
                continue
            best = buffer[choice]
            work.reduces += 1
            ready = max(message.ready_cycle, best.ready_cycle) + reduce_path
            if tracer.enabled:
                tracer.emit_packed(
                    PE_REDUCE, ready, pe=pe_id, level=level, args=(reduce_path,)
                )
            header = message.header.reduced_with(best.indices, entry)
            value = operator.combine(message.value, best.value)
            produced.append(Message(header, value, ready, max(message.hops, best.hops)))
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

    # FIFO arrival order — the deterministic append order built by
    # ``FafnirEngine._leaf_inputs`` — not ready-cycle order: which pairs fold
    # (and therefore the reduced values' float association) must not depend
    # on DRAM scheduling or the hot-index tier, only the ready arithmetic may.
    for message in stream:
        insert(message)

    # Rows with equal indices carry the same data: the merge unit coalesces
    # them without charging PE latency.
    groups: Dict[FrozenSet[int], List[Message]] = {}
    for message in buffer:
        if message is not None:
            groups.setdefault(message.indices, []).append(message)
    coalesced: List[Message] = []
    for indices, members in groups.items():
        if len(members) > 1:
            ready = max(member.ready_cycle for member in members)
            work.merges += 1
            if tracer.enabled:
                tracer.emit_packed(
                    PE_MERGE, ready, pe=pe_id, level=level, args=(len(members),)
                )
            header = Header.make(indices, [e for m in members for e in m.entries])
            hops = max(member.hops for member in members)
            members = [Message(header, members[0].value, ready, hops)]
        coalesced.append(members[0])
    return coalesced
