"""Processing-element model (paper Fig. 5): the work counters.

A PE's compute units take every *entry* (outstanding query remainder) of
its two inputs and either **reduce** it with the partner message on the
other input whose ``indices`` lie inside it or **forward** it; the **merge
unit** then groups the outputs by ``indices`` (paper Fig. 6d).  A leaf PE
first folds each input FIFO, where two indices of one query homed in the
same rank meet and arrival order decides which pairs fold.  Both have a
closed form, computed for every PE of a level at once in
:mod:`repro.core.sweep`; :class:`PEWork` is what it counts per PE.
"""

from __future__ import annotations

from dataclasses import dataclass


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
