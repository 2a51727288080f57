"""Cycle-approximate DDR4-like memory substrate.

This package is the DRAM the FAFNIR tree (and every baseline) reads from.
It models the three first-order effects the paper's evaluation depends on:
row-buffer hits vs conflicts, bank/rank-level parallelism, and per-channel
data-bus serialisation.
"""

from repro.memory.config import (
    DramEnergy,
    DramTiming,
    MemoryConfig,
    MemoryGeometry,
)
from repro.memory.hbm import HBM2_GEOMETRY, HBM2_TIMING, hbm2_stack
from repro.memory.mapping import (
    ColumnMajorPlacement,
    RowMajorPlacement,
    StreamPlacement,
    VectorPlacement,
)
from repro.memory.reads import ReadColumns, ServedReads
from repro.memory.system import MemorySystem
from repro.memory.trace import AccessStats

__all__ = [
    "AccessStats",
    "ColumnMajorPlacement",
    "DramEnergy",
    "DramTiming",
    "HBM2_GEOMETRY",
    "HBM2_TIMING",
    "hbm2_stack",
    "MemoryConfig",
    "MemoryGeometry",
    "MemorySystem",
    "ReadColumns",
    "RowMajorPlacement",
    "ServedReads",
    "StreamPlacement",
    "VectorPlacement",
]
