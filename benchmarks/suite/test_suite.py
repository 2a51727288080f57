"""Self-test of the benchmark on tiny workload sizes.

    PYTHONPATH=src python -m pytest benchmarks/suite -q
"""

import pytest

import spans
import worker
import workloads
from repro.core import FafnirEngine

TINY = {
    "offline-uniform": lambda: workloads.OfflineUniform(
        queries=8, lookups=8, universe=512, ranks=8
    ),
    "offline-zipf": lambda: workloads.OfflineZipf(batches=3, batch_size=8),
    "serve-burst": lambda: workloads.Serve("serve-burst", qps=6e6, requests=64),
    "serve-trickle": lambda: workloads.Serve("serve-trickle", qps=2e3, requests=32),
    "sharded-zipf": lambda: workloads.ShardedZipf(batches=3, batch_size=8),
}


def test_tiny_workloads_cover_the_benchmark():
    assert set(TINY) == set(workloads.all_workloads())


@pytest.mark.parametrize("name", sorted(TINY))
def test_same_seed_gives_identical_modeled_metrics(name):
    first, second = TINY[name](), TINY[name]()
    a = worker.measure(first, first.setup(), seed=3, seconds=0)
    b = worker.measure(second, second.setup(), seed=3, seconds=0)
    assert a["modeled"] == b["modeled"]
    assert a["attempted"] > 0 and a["failed"] == 0
    assert a["anchors_held"] == 1.0


@pytest.mark.parametrize("name", sorted(TINY))
def test_seed_and_rep_change_the_inputs(name):
    workload = TINY[name]()
    base = workload.inputs(0, 1).queries
    assert workload.inputs(0, 1).queries == base
    assert workload.inputs(1, 1).queries != base
    assert workload.inputs(0, 2).queries != base


@pytest.mark.parametrize("name", sorted(TINY))
def test_corrupted_source_vector_is_counted_as_failed(name):
    workload = TINY[name]()
    inputs = workload.inputs(0, 1)
    expected = workloads.oracle(inputs)
    index = inputs.queries[0][0]
    inputs.vectors[index] = inputs.vectors[index] + 1.0
    result = workload.run(workload.setup(), inputs, inputs.vectors.__getitem__)
    failed = workloads.failures(*workload.outputs(result), expected)
    assert 0 < failed <= len(inputs.queries)


@pytest.mark.parametrize("name", sorted(TINY))
def test_span_self_times_sum_to_rep_wall(name):
    workload = TINY[name]()
    record = worker.measure(workload, workload.setup(), seed=0, seconds=0, trace=True)
    layers = record["layers"]
    assert layers["trace.coverage"] == pytest.approx(1.0, abs=0.05)
    assert record["failed"] == 0
    assert all(value is not None for value in layers.values())
    assert (layers["comm.fold_s"] > 0) == (name == "sharded-zipf")
    assert (layers["obs.events"] > 0) == (name == "offline-zipf")


def test_request_spans_are_joined_through_batch_members():
    workload = TINY["serve-burst"]()
    record = worker.measure(workload, workload.setup(), seed=0, seconds=0, trace=True)
    document = record["spans"]
    names = document["names"]
    rep = document["reps"][0]
    request_spans = spans.spans_of_request(rep, request_id=5)
    found = {names[span[0]] for span in request_spans}
    assert found & spans.DISPATCHES
    assert "memory" in found


def test_missing_hook_yields_null_not_a_crash():
    hooks = tuple(
        spans.Hook("engine", hook.module, "FafnirEngine.gone") if hook.name == "engine"
        else hook
        for hook in spans.HOOKS
    ) + (spans.Hook("sharding.gone", "repro.no_such_module", "run"),)
    workload = TINY["offline-zipf"]()
    state = workload.setup()
    inputs = workload.inputs(0, 1)
    original = FafnirEngine.run_batch
    recorder = spans.SpanRecorder(hooks)
    with recorder:
        wall, _ = worker.timed_run(
            workload, state, inputs, recorder.source(inputs.vectors.__getitem__)
        )
    recorder.end_rep(wall, rep=1)
    assert FafnirEngine.run_batch is original
    assert sorted(recorder.missing) == ["engine", "sharding.gone"]
    metrics = spans.layer_metrics(recorder, count_reps=1, lookups=inputs.lookups)
    assert metrics["engine.self_s"] is None
    assert metrics["sharding.self_s"] is None
    assert metrics["memory.calls"] == len(inputs.work)
