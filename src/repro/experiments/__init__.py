"""Runnable reproductions of every paper figure and table, plus the
system sweeps (chaos, serve, reduce, cache, resilience).

Importing this package registers all experiments; use
:func:`list_experiments` / :func:`get_experiment` or the CLI's
``experiments`` subcommand to run them.
"""

from repro.experiments.base import (
    Experiment,
    ExperimentResult,
    get_experiment,
    list_experiments,
    register,
)

# Importing these modules populates the registry.
from repro.experiments import embedding as _embedding  # noqa: F401
from repro.experiments import hardware as _hardware  # noqa: F401
from repro.experiments import spmv_experiments as _spmv  # noqa: F401
from repro.experiments import sweeps as _sweeps  # noqa: F401

__all__ = [
    "Experiment",
    "ExperimentResult",
    "get_experiment",
    "list_experiments",
    "register",
]
