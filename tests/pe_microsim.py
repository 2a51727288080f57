"""Cycle-stepped microsimulation of one PE (paper Fig. 5).

The engines in :mod:`repro.core.engine` charge a PE a fixed pipeline-stage
latency per message plus an issue limit.  This module simulates the PE's
microarchitecture as described in the paper — per-compute-unit sequential
comparison of one input item's query entries against every item of the
other input, parallel reduce/forward paths, and a one-result-per-cycle merge
unit — and is used to check that the coarse model's latency and throughput
assumptions are sound (``tests/core/test_microsim.py``).

Operation:

* every (message, entry) pair is a *task*; tasks are assigned round-robin
  to the ``compute_units`` units in input order;
* a unit issues one comparison per cycle; an entry's reduce/forward decision
  falls when its scan over the partner input completes (choosing the
  maximal matching partner, as the tree's PEs do);
* the decided result then traverses the reduce path (compare + reduce) or
  the forward path (compare + forward);
* the merge unit retires one result per cycle, deduplicating and merging
  same-data outputs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.config import FafnirConfig
from repro.core.operators import ReductionOperator, SUM
from tests.pe_oracle import Header, Message


@dataclass
class MicrosimReport:
    """Cycle-level outcome of one PE batch."""

    outputs: List[Message]
    finish_cycle: int
    comparisons: int
    unit_busy_cycles: List[int]
    merge_retires: int

    @property
    def unit_utilization(self) -> float:
        """Mean fraction of the busy window each compute unit spent comparing."""
        if self.finish_cycle <= 0:
            return 0.0
        return float(np.mean(self.unit_busy_cycles)) / self.finish_cycle


@dataclass
class _Task:
    message: Message
    entry: FrozenSet[int]
    side: str
    start_cycle: int = 0
    decide_cycle: int = 0


class PEMicrosim:
    """One PE at comparison granularity."""

    def __init__(
        self, config: FafnirConfig, operator: ReductionOperator = SUM
    ) -> None:
        self.config = config
        self.operator = operator

    def run(
        self, input_a: Sequence[Message], input_b: Sequence[Message]
    ) -> MicrosimReport:
        latencies = self.config.latencies
        units = self.config.compute_units

        # Build tasks: one per (message, pending entry); complete entries
        # bypass the compute units (pure forward).
        tasks: List[_Task] = []
        bypass: List[Tuple[Message, FrozenSet[int]]] = []
        for side, own in (("A", input_a), ("B", input_b)):
            for message in own:
                for entry in message.entries:
                    if entry:
                        tasks.append(_Task(message=message, entry=entry, side=side))
                    else:
                        bypass.append((message, entry))

        # Round-robin tasks onto units; each unit scans sequentially.
        unit_free = [0] * units
        unit_busy = [0] * units
        comparisons = 0
        results: List[Tuple[int, FrozenSet[int], FrozenSet[int], np.ndarray]] = []
        # (ready_cycle, indices, entry, value)

        for position, task in enumerate(tasks):
            unit = position % units
            partners = input_b if task.side == "A" else input_a
            scan_length = max(1, len(partners))
            start = max(unit_free[unit], task.message.ready_cycle)
            task.start_cycle = start
            task.decide_cycle = start + scan_length
            unit_free[unit] = task.decide_cycle
            unit_busy[unit] += scan_length
            comparisons += len(partners)

            best: Optional[Message] = None
            for partner in partners:
                if partner.indices <= task.entry:
                    if best is None or len(partner.indices) > len(best.indices):
                        best = partner
            if best is not None:
                ready = (
                    max(task.decide_cycle, best.ready_cycle)
                    + latencies.reduce_path
                )
                results.append(
                    (
                        ready,
                        task.message.indices | best.indices,
                        task.entry - best.indices,
                        self.operator.combine(task.message.value, best.value),
                    )
                )
            else:
                ready = task.decide_cycle + latencies.forward_path
                results.append(
                    (
                        ready,
                        task.message.indices,
                        task.entry,
                        task.message.value,
                    )
                )

        for message, entry in bypass:
            results.append(
                (
                    message.ready_cycle + latencies.forward_path,
                    message.indices,
                    entry,
                    message.value,
                )
            )

        # Merge unit: one retirement per cycle, dedup + same-data merging.
        results.sort(key=lambda item: (item[0], sorted(item[1])))
        merge_free = 0
        merge_retires = 0
        grouped: Dict[FrozenSet[int], Dict[str, object]] = {}
        finish = 0
        for ready, indices, entry, value in results:
            retire = max(ready, merge_free) + 1
            merge_free = retire
            merge_retires += 1
            finish = max(finish, retire)
            slot = grouped.setdefault(
                indices,
                {"entries": set(), "value": value, "ready": 0},
            )
            slot["entries"].add(entry)
            slot["ready"] = max(slot["ready"], retire)  # type: ignore[arg-type]

        outputs = [
            Message(
                header=Header.make(indices, sorted(slot["entries"], key=sorted)),
                value=slot["value"],
                ready_cycle=slot["ready"],
            )
            for indices, slot in grouped.items()
        ]
        return MicrosimReport(
            outputs=outputs,
            finish_cycle=finish,
            comparisons=comparisons,
            unit_busy_cycles=unit_busy,
            merge_retires=merge_retires,
        )
