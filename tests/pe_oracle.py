"""The object PE model: the executable specification the tree sweep must match.

``repro.core.sweep`` computes every PE of a tree level in closed form.  This
module keeps the per-message model it replaced, as the differential oracle:

* :class:`ProcessingElement` — one PE (paper Fig. 5).  For every *entry*
  (outstanding query remainder) of every input message its compute units
  either **reduce** with the widest partner message on the other input whose
  ``indices`` lie inside the entry, or **forward** the entry unchanged;
  complete entries are always forwarded.  Both inputs are scanned, so a
  reduction is found twice; the **merge unit** groups the raw outputs by
  ``indices`` set, dropping exact duplicates (paper Fig. 6d).  Finite compute
  units add a one-output-per-unit-per-cycle issue limit.
* :func:`fold_stream` — the scalar leaf FIFO fold, the reference for
  ``repro.core.pe.fold_stream``'s lookup fold (same signature).
* :func:`run_tree` — the object sweep leaves→root, a drop-in replacement for
  ``FafnirEngine._run_tree``.

Everything here is ``O(entries × partners)`` pure Python, written for
clarity rather than speed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.config import FafnirConfig
from repro.core.header import Header, Message, entry_sort_key, sorted_tuple
from repro.core.operators import ReductionOperator
from repro.core.pe import PEWork, _without
from repro.obs.events import PE_FORWARD, PE_MERGE, PE_REDUCE
from repro.obs.tracer import NULL_TRACER, Tracer


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
    hops: int


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
                            hops=max(message.hops, best.hops) + 1,
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
                            hops=message.hops + 1,
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
                    hops=hops,
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
) -> List[Message]:
    """Combine messages arriving sequentially on *one* leaf input FIFO.

    The specification of ``repro.core.pe.fold_stream`` (same signature),
    by a scan of the whole buffer per arriving entry.  Each arriving entry
    reduces with the widest already-buffered match (first on ties).  The
    reduction consumes the query it serves: entry ``e`` leaves its message
    and ``q − best.indices`` leaves the first buffered ``best.indices`` row
    carrying it, where ``q = indices ∪ e``.  A second arrival of one
    ``(indices, entry)`` pair is a duplicate and is dropped.  Finally
    same-``indices`` rows coalesce.
    """
    buffer: List[Message] = []
    seen: set = set()

    def emit(kind: str, cycle: int, arg: int) -> None:
        tracer.emit_packed(kind, cycle, pe=pe_id, level=level, args=(arg,))

    def consume(indices: FrozenSet[int], entry: FrozenSet[int]) -> None:
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

    for message in stream:
        insert(message)

    groups: Dict[FrozenSet[int], List[Message]] = {}
    for message in buffer:
        groups.setdefault(message.indices, []).append(message)
    coalesced: List[Message] = []
    for members in groups.values():
        base = members[0]
        if len(members) > 1:
            header, ready, hops = base.header, base.ready_cycle, base.hops
            for member in members[1:]:
                header = header.merged_with(member.header)
                ready = max(ready, member.ready_cycle)
                hops = max(hops, member.hops)
            work.merges += 1
            if tracer.enabled:
                emit(PE_MERGE, ready, len(members))
            base = Message(header=header, value=base.value, ready_cycle=ready, hops=hops)
        coalesced.append(base)
    return coalesced


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
    engine, plan, leaf_inputs, check_values: bool = False
) -> Tuple[np.ndarray, List[int], Dict[int, PEWork]]:
    """``FafnirEngine._run_tree`` by object PEs: one ``process`` per PE.

    Returns each of ``plan``'s queries' root value and ready cycle, and the
    per-PE work, exactly as the engine's sweep does.
    """
    tree = engine.tree
    outputs: Dict[int, List[Message]] = {}
    per_pe_work: Dict[int, PEWork] = {}
    for pe_id in tree.bottom_up_ids():
        node = tree.pe(pe_id)
        pe = ProcessingElement(
            engine.config,
            engine.operator,
            name=f"PE{pe_id}",
            check_values=check_values,
            tracer=engine.tracer,
            pe_id=pe_id,
            level=node.level,
        )
        fold_work = PEWork()
        if node.is_leaf:
            raw_a, raw_b = leaf_inputs[pe_id]
            input_a = pe.fold_stream(raw_a, fold_work)
            input_b = pe.fold_stream(raw_b, fold_work)
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
        for message in outputs[tree.root_id]
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
