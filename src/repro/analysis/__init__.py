"""Analysis utilities: sharing, locality, data movement, reporting."""

from repro.analysis.locality import (
    expected_lonely_vectors,
    expected_ndp_reducible_fraction,
    expected_occupied_devices,
    measured_colocation_fraction,
    prob_all_same_device,
)
from repro.analysis.movement import MovementModel
from repro.analysis.report import Table
from repro.analysis.unique import (
    UniqueIndexStats,
    max_accesses_per_rank,
    per_rank_access_counts,
    unique_fraction_stats,
)

__all__ = [
    "MovementModel",
    "Table",
    "UniqueIndexStats",
    "expected_lonely_vectors",
    "expected_ndp_reducible_fraction",
    "expected_occupied_devices",
    "max_accesses_per_rank",
    "measured_colocation_fraction",
    "per_rank_access_counts",
    "prob_all_same_device",
    "unique_fraction_stats",
]
