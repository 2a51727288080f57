"""Tests for the experiment registry and lightweight runners.

The heavyweight performance experiments are exercised by the benches in
``benchmarks/``; here we verify the registry machinery and run the cheap
bookkeeping experiments end to end.
"""

import pytest

from repro.experiments import (
    ExperimentResult,
    get_experiment,
    list_experiments,
    register,
)

EXPECTED_IDS = {
    "cache",
    "chaos",
    "connections",
    "fig02",
    "fig03",
    "fig09",
    "fig11",
    "fig12",
    "fig13",
    "fig14",
    "fig15",
    "fig16",
    "reduce",
    "resilience",
    "serve",
    "table1",
    "table4",
    "table5",
    "table6",
}


class TestRegistry:
    def test_every_paper_artifact_registered(self):
        ids = {experiment.experiment_id for experiment in list_experiments()}
        assert ids == EXPECTED_IDS

    def test_get_unknown_raises(self):
        with pytest.raises(KeyError, match="unknown experiment"):
            get_experiment("fig99")

    def test_duplicate_registration_rejected(self):
        with pytest.raises(ValueError, match="already registered"):
            register("table1", "duplicate")(lambda: None)

    def test_runner_id_mismatch_detected(self):
        @register("selftest-mismatch", "mismatching runner")
        def bad_runner():
            from repro.analysis import Table

            return ExperimentResult("other-id", "x", Table(["a"]))

        with pytest.raises(RuntimeError, match="tagged"):
            get_experiment("selftest-mismatch").run()


class TestBookkeepingExperiments:
    @pytest.mark.parametrize(
        "experiment_id",
        ["table1", "table4", "table5", "table6", "fig16", "connections", "fig09"],
    )
    def test_runs_and_renders(self, experiment_id):
        result = get_experiment(experiment_id).run()
        assert result.experiment_id == experiment_id
        text = result.render()
        assert experiment_id in text
        assert len(text.splitlines()) >= 4

    def test_fig03_runs(self):
        result = get_experiment("fig03").run()
        stats = result.data["stats"]
        fractions = [entry.mean_unique_fraction for entry in stats]
        assert fractions == sorted(fractions, reverse=True)

    def test_fig11_runs(self):
        result = get_experiment("fig11").run()
        assert result.data["memory_ratio"] > 1.0
        assert result.data["compute_ratio"] > 1.0


class TestSystemSweeps:
    """Each system sweep at its quick size passes its own built-in checks."""

    @pytest.mark.parametrize(
        "experiment_id", ["chaos", "serve", "reduce", "cache", "resilience"]
    )
    def test_quick_run_has_no_failures(self, experiment_id):
        result = get_experiment(experiment_id).run(quick=True)
        assert result.experiment_id == experiment_id
        assert result.failures == []
        assert experiment_id in result.render()

    def test_floor_is_reported_as_failure(self):
        result = get_experiment("serve").run(quick=True, qps=[5e5], min_attainment=1.01)
        assert result.failures == [
            "worst SLO attainment 1.000 below floor 1.010"
        ]
