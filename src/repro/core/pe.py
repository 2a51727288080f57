"""Processing-element model (paper Fig. 5): work counters and the leaf fold.

A PE's compute units take every *entry* (outstanding query remainder) of
its two inputs and either **reduce** it with the partner message on the
other input whose ``indices`` lie inside it or **forward** it; the **merge
unit** then groups the outputs by ``indices`` (paper Fig. 6d).  Above the
leaf FIFOs that routing has a closed form, computed level by level in
:mod:`repro.core.sweep`.  The one sequential step is the leaf FIFO fold,
:func:`fold_stream`, where two indices of one query homed in the same rank
meet and arrival order decides which pairs fold.  It runs only on the
FIFOs that can fold: on a FIFO where no query and no index arrives twice
it is the identity, which the sweep's leaf boundary computes in closed
form.

A message is a :data:`Row` ``(indices, query ids, value, ready)``: the
indices folded into the value, and the ids of the queries it still
serves.  That is the paper's header (§IV-B, Fig. 6) with each remainder
``q − indices`` named by its query, the batch's distinct query ``q`` in
:attr:`repro.core.batch.BatchPlan.distinct`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.operators import ReductionOperator
from repro.obs.events import KIND_CODES, PE_MERGE, PE_REDUCE
from repro.obs.tracer import NULL_TRACER, Tracer

#: One message on a leaf FIFO: (indices, query ids, value, ready cycle).
Row = Tuple[FrozenSet[int], Sequence[int], np.ndarray, int]


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


def fold_stream(
    stream: Sequence[Row],
    queries: Sequence[FrozenSet[int]],
    work: PEWork,
    operator: ReductionOperator,
    reduce_path: int,
    tracer: Tracer = NULL_TRACER,
    pe_id: Optional[int] = None,
    level: Optional[int] = None,
) -> List[Row]:
    """Combine the rows arriving sequentially on *one* leaf input FIFO.

    A general sparse-gathering workload may home two indices of one query
    in the same rank (the paper's tables are one per rank, Fig. 4b, so its
    queries never do).  Those items stream through the leaf PE's FIFO one
    after another, and the compute units compare each arrival against the
    buffered entries (Fig. 5), charging the reduce path per combination.
    ``queries[q]`` is the index set of query id ``q``.

    Combination is greedy, in FIFO arrival order.  An arriving row with
    indices ``I`` takes its query ids in order; query ``q`` reduces with
    the widest buffered row ``best`` inside ``q − I`` (first on ties), and
    the reduction consumes ``q`` (§IV-B): it leaves the arrival and the
    first live ``best`` row that carries it, and rides on to a new row
    ``I ∪ best``.  A row left with no ids is dropped, a second arrival of
    one ``(I, q)`` pair is a duplicate, and finally rows with equal indices
    coalesce, their ids in canonical order (by length, then sorted
    indices).  The result carries each query touching the FIFO once, on
    the row for ``S = q ∩ FIFO``.

    Buffer rows keep their positions (a consumed row becomes ``None``).
    Every row inside ``q − I`` lies inside ``key = (q − I) ∩ covered``
    (``covered``: every buffered index), so a row equal to ``key`` is the
    widest match, found with one dict lookup, and an empty key matches
    nothing.  In a stream built like a leaf FIFO (one row per read,
    serving the queries that read is for) the buffered row for ``q``
    covers exactly ``key``; any other miss means the stream is not one,
    and raises ``ValueError``.
    """
    buffer: List[Optional[list]] = []  # [indices, ids, value, ready]
    live = 0
    covered: set = set()
    seen: set = set()
    first_row: Dict[FrozenSet[int], int] = {}
    rows_of: Dict[FrozenSet[int], List[int]] = {}
    events: List[Tuple[int, int, int]] = []  # (kind code, cycle, arg)

    def consume(indices: FrozenSet[int], query_id: int) -> None:
        nonlocal live
        positions = rows_of[indices]
        for position in positions:
            ids = buffer[position][1]
            if query_id in ids:
                work.entries_consumed += 1
                ids.remove(query_id)
                if not ids:
                    buffer[position] = None
                    live -= 1
                    positions.remove(position)
                    if positions:
                        first_row[indices] = positions[0]
                    else:
                        del rows_of[indices], first_row[indices]
                return

    def insert(indices: FrozenSet[int], ids: Sequence[int], value, ready: int) -> None:
        nonlocal live
        kept: List[int] = []
        produced: List[Row] = []
        for query_id in ids:
            if (indices, query_id) in seen:
                work.duplicates_removed += 1
                continue
            seen.add((indices, query_id))
            query = queries[query_id]
            if len(query) == len(indices):  # the value answers the query
                kept.append(query_id)
                continue
            work.compares += live
            key = (query & covered) - indices
            if not key:
                kept.append(query_id)
                continue
            position = first_row.get(key)
            if position is None:
                raise ValueError(
                    f"no buffered row equals {sorted(key)} for entry "
                    f"{sorted(query - indices)}: the stream was not built "
                    "like a leaf FIFO"
                )
            partner, _, partner_value, partner_ready = buffer[position]
            work.reduces += 1
            at = max(ready, partner_ready) + reduce_path
            if tracer.enabled:
                events.append((KIND_CODES[PE_REDUCE], at, reduce_path))
            produced.append(
                (indices | partner, [query_id], operator.combine(value, partner_value), at)
            )
            work.entries_consumed += 1
            consume(partner, query_id)
        if kept:
            first_row.setdefault(indices, len(buffer))
            rows_of.setdefault(indices, []).append(len(buffer))
            covered.update(indices)
            buffer.append([indices, kept, value, ready])
            live += 1
        for row in produced:
            insert(*row)

    # FIFO arrival order — the deterministic order of the occurrences in
    # ``FafnirEngine._leaf_inputs`` — not ready-cycle order: which pairs fold
    # (and therefore the reduced values' float association) must not depend
    # on DRAM scheduling or the hot-index tier, only the ready arithmetic may.
    for row in stream:
        insert(*row)

    # Rows with equal indices carry the same data: the merge unit coalesces
    # them without charging PE latency.
    groups: Dict[FrozenSet[int], List[list]] = {}
    for row in buffer:
        if row is not None:
            groups.setdefault(row[0], []).append(row)
    folded: List[Row] = []
    for indices, members in groups.items():
        _, ids, value, ready = members[0]
        if len(members) > 1:
            ready = max(member[3] for member in members)
            work.merges += 1
            if tracer.enabled:
                events.append((KIND_CODES[PE_MERGE], ready, len(members)))
            ids = sorted(
                (query_id for member in members for query_id in member[1]),
                key=lambda q: (len(queries[q]), sorted(queries[q])),
            )
        folded.append((indices, ids, value, ready))
    if events:
        kinds, cycles, args = zip(*events)
        tracer.emit_columns(kinds, cycles, np.array(args)[:, None], pe=pe_id,
                            level=level)
    return folded
