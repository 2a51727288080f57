"""Experiment framework: each paper figure/table as a runnable object.

A :class:`Experiment` couples an id ("fig13"), a description, and a runner
returning an :class:`ExperimentResult` — a rendered table plus the raw data
series the asserting benches and the CLI both consume, and the list of
built-in checks that failed.  The registry lets
``python -m repro.cli experiments --run fig13`` regenerate any single
artifact without pytest; keyword arguments to :meth:`Experiment.run` reach
the runner, so callers pick the sweep size.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List

from repro.analysis.report import Table


@dataclass
class ExperimentResult:
    """One experiment's reproduced artifact."""

    experiment_id: str
    title: str
    table: Table
    data: Dict[str, object] = field(default_factory=dict)
    notes: str = ""
    #: One line per built-in check that failed; empty when the run is sound.
    failures: List[str] = field(default_factory=list)

    def render(self) -> str:
        lines = [f"== {self.experiment_id}: {self.title} ==", self.table.render()]
        if self.notes:
            lines.append(self.notes)
        return "\n".join(lines)


@dataclass(frozen=True)
class Experiment:
    """A registered, runnable reproduction of one paper artifact."""

    experiment_id: str
    title: str
    runner: Callable[..., ExperimentResult]

    def run(self, **kwargs: Any) -> ExperimentResult:
        result = self.runner(**kwargs)
        if result.experiment_id != self.experiment_id:
            raise RuntimeError(
                f"runner for {self.experiment_id} returned result tagged "
                f"{result.experiment_id}"
            )
        return result


_REGISTRY: Dict[str, Experiment] = {}


def register(experiment_id: str, title: str):
    """Decorator registering a runner under an experiment id."""

    Runner = Callable[..., ExperimentResult]

    def wrap(runner: Runner) -> Runner:
        if experiment_id in _REGISTRY:
            raise ValueError(f"experiment {experiment_id!r} already registered")
        _REGISTRY[experiment_id] = Experiment(
            experiment_id=experiment_id, title=title, runner=runner
        )
        return runner

    return wrap


def get_experiment(experiment_id: str) -> Experiment:
    try:
        return _REGISTRY[experiment_id]
    except KeyError:
        raise KeyError(
            f"unknown experiment {experiment_id!r}; available: "
            f"{sorted(_REGISTRY)}"
        ) from None


def list_experiments() -> List[Experiment]:
    return [_REGISTRY[key] for key in sorted(_REGISTRY)]
