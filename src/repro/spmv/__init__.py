"""SpMV on FAFNIR: planner, engine, streaming costs, and applications."""

from repro.spmv.apps import AppResult, bfs, jacobi_solve, pagerank, sssp
from repro.spmv.fafnir_spmv import (
    FafnirSpmvEngine,
    FafnirSpmvParameters,
    STREAM_ENTRY_BYTES,
)
from repro.spmv.interface import SpmvEngine, SpmvResult, SpmvStats
from repro.spmv.planner import SpmvPlan, sweep
from repro.spmv.semiring import (
    MAX_TIMES,
    MIN_PLUS,
    OR_AND,
    PLUS_TIMES,
    Semiring,
    get_semiring,
)

__all__ = [
    "AppResult",
    "FafnirSpmvEngine",
    "FafnirSpmvParameters",
    "STREAM_ENTRY_BYTES",
    "SpmvEngine",
    "SpmvPlan",
    "SpmvResult",
    "SpmvStats",
    "MAX_TIMES",
    "MIN_PLUS",
    "OR_AND",
    "PLUS_TIMES",
    "Semiring",
    "get_semiring",
    "sssp",
    "bfs",
    "jacobi_solve",
    "pagerank",
    "sweep",
]
