"""Tree-utilisation reporting: where the work lands inside the FAFNIR tree.

Aggregates per-PE :class:`~repro.core.pe.PEWork` records by tree level and
by physical chip (DIMM/rank nodes vs channel node, Fig. 4a) — the view the
paper uses to argue the channel node is the key to full NDP reduction and
that load depends only on the vector→rank mapping.  :func:`trace_mismatches`
checks the same aggregation against a run's event stream.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List

from repro.core.engine import FafnirEngine, LookupResult, LookupStats
from repro.core.pe import PEWork
from repro.core.tree import FafnirTree
from repro.memory.config import MemoryGeometry
from repro.obs.events import MEM_READ_COMPLETE, QUERY_COMPLETE, TraceEvent
from repro.obs.metrics import per_level_counts


@dataclass
class LevelUtilization:
    """Work aggregated over one tree level."""

    level: int
    pes: int
    work: PEWork


@dataclass
class TreeUtilization:
    """Per-level and per-chip aggregation of one lookup's tree work."""

    levels: List[LevelUtilization]
    per_chip: Dict[str, PEWork]

    @property
    def total(self) -> PEWork:
        total = PEWork()
        for level in self.levels:
            total = total.merged_with(level.work)
        return total


def tree_utilization(
    tree: FafnirTree, stats: LookupStats, geometry: MemoryGeometry
) -> TreeUtilization:
    """Aggregate a lookup's per-PE work by level and by physical chip."""
    levels: List[LevelUtilization] = []
    for level in range(tree.num_levels):
        ids = tree.level_ids(level)
        work = PEWork()
        for pe_id in ids:
            work = work.merged_with(stats.per_pe_work.get(pe_id, PEWork()))
        levels.append(LevelUtilization(level=level, pes=len(ids), work=work))

    grouping = tree.node_grouping(geometry)
    per_chip: Dict[str, PEWork] = {}
    for pe_id, chip in grouping.items():
        work = stats.per_pe_work.get(pe_id, PEWork())
        per_chip[chip] = per_chip.get(chip, PEWork()).merged_with(work)
    return TreeUtilization(levels=levels, per_chip=per_chip)


def trace_mismatches(
    engine: FafnirEngine, result: LookupResult, events: Iterable[TraceEvent]
) -> List[str]:
    """Disagreements between a traced run's events and its ``LookupStats``.

    The event stream and the stats are independent observers of the same
    run, so per-level reduce counts, DRAM read completions and query
    completions must agree; each disagreement is returned as one line.
    """
    events = list(events)
    mismatches: List[str] = []
    traced = per_level_counts(events)
    utilization = tree_utilization(
        engine.tree, result.stats, engine.memory.config.geometry
    )
    for level in utilization.levels:
        seen = traced.get(level.level, 0)
        if seen != level.work.reduces:
            mismatches.append(
                f"level {level.level}: {level.work.reduces} reduces in stats, "
                f"{seen} in events"
            )
    reads = sum(1 for event in events if event.kind == MEM_READ_COMPLETE)
    if reads != result.stats.memory.reads:
        mismatches.append(
            f"{result.stats.memory.reads} DRAM reads in stats, {reads} "
            f"{MEM_READ_COMPLETE} events"
        )
    completed = sum(1 for event in events if event.kind == QUERY_COMPLETE)
    if completed != len(result.plan.queries):
        mismatches.append(
            f"{len(result.plan.queries)} queries in the batch, {completed} "
            f"{QUERY_COMPLETE} events"
        )
    return mismatches
