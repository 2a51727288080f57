"""Differential matrix: single-node engines vs every cross-shard schedule.

The cross-shard reduction (src/repro/comm/) claims byte-identity with the
single-node tree for subtree-aligned partitions: each shard computes an
exact subtree of the single-node tournament, and the canonical fold
replays the missing upper levels in the same association.  This module
pits the single-node engine on both tree implementations (the
closed-form sweep and the object PE oracle, swapped by the
``on_pe_paths`` fixture) against every sharded ``reduction=`` schedule at
power-of-two
shard counts and requires bit-for-bit agreement on vectors and statuses —
on clean runs and under index-keyed fault injection, where retries and
dropped rows must land on exactly the same queries in both worlds.

Latencies are compared where the model says they must agree: the three
sharded schedules share identical shard-local per-query latencies (a
schedule only re-times the comm phase), and the two single-node tree
implementations share identical latencies.  Single-node and sharded latencies
legitimately differ — a shard's private memory system sees less
contention than one node serving the whole stream.
"""

import numpy as np
import pytest

from repro.comm import SCHEDULES, IndexPartition, LinkModel
from repro.core.config import FafnirConfig
from repro.core.engine import FafnirEngine
from repro.core.sharding import ShardedRunner
from repro.faults import FaultPlan, FaultPolicy
from repro.obs import SHARD_MSG_SENT, SHARD_REDUCED, InMemorySink, Tracer

UNIVERSE = 512
LINK = LinkModel(latency_ns=300.0, bandwidth_gb_s=20.0)


def random_setup(seed):
    """One machine + stream whose partitions stay subtree-aligned."""
    rng = np.random.default_rng(seed)
    leaves = int(rng.choice([4, 8]))
    ranks_per_leaf = int(rng.choice([1, 2, 4]))
    config = FafnirConfig(
        total_ranks=leaves * ranks_per_leaf,
        ranks_per_leaf_pe=ranks_per_leaf,
        batch_size=int(rng.integers(2, 13)),
        max_query_len=8,
        vector_bytes=int(rng.choice([32, 64])),
    )
    batches = [
        [
            rng.choice(
                UNIVERSE, size=rng.integers(1, 9), replace=False
            ).tolist()
            for _ in range(rng.integers(1, config.batch_size + 1))
        ]
        for _ in range(int(rng.integers(1, 4)))
    ]
    return config, batches


class make_source:
    """Picklable deterministic vector source (crosses process pools)."""

    def __init__(self, seed, elements):
        self.seed = seed
        self.elements = elements

    def __call__(self, index):
        rng = np.random.default_rng(30_000 + self.seed * 1000 + index)
        return rng.standard_normal(self.elements)


def run_single(config, batches, source, **kwargs):
    """One single-node run as (vector bytes, statuses, latencies)."""
    instance = FafnirEngine(config=config, operator="sum", **kwargs)
    result = instance.run_batches(batches, source)
    latencies = [
        cycles for item in result.results for cycles in item.ready_pe_cycles
    ]
    vectors = [vector.tobytes() for vector in result.vectors]
    return vectors, result.statuses, latencies


def run_sharded(config, batches, source, schedule, shards, **kwargs):
    runner = ShardedRunner(
        config=config,
        operator="sum",
        max_workers=1,
        reduction=schedule,
        num_shards=shards,
        link=LINK,
        **kwargs,
    )
    reduced = runner.run_reduced(batches, source)
    return reduced


SEEDS = range(8)


@pytest.mark.parametrize("seed", SEEDS)
def test_matrix_agrees_on_vectors_and_statuses(seed, on_pe_paths):
    """Every cell — the default engine and both tree paths x {2,4} shards x
    3 schedules — produces the same bytes and the same per-query
    statuses."""
    config, batches = random_setup(seed)
    source = make_source(seed, config.vector_elements)

    ref_bytes, ref_statuses, _ = run_single(config, batches, source)
    paths_bytes, paths_statuses, _ = on_pe_paths(
        lambda: run_single(config, batches, source)
    )
    assert paths_bytes == ref_bytes
    assert paths_statuses == ref_statuses

    for shards in (2, 4):
        for name in sorted(SCHEDULES):
            reduced = run_sharded(config, batches, source, name, shards)
            assert [v.tobytes() for v in reduced.vectors] == ref_bytes, (
                shards,
                name,
            )
            assert reduced.statuses == ref_statuses


@pytest.mark.parametrize("seed", SEEDS)
def test_local_latencies_are_schedule_independent(seed, on_pe_paths):
    """A schedule re-times only the comm phase: per-query shard-local
    latencies must be identical across all three schedules (and the
    single-node tree paths must agree with each other)."""
    config, batches = random_setup(seed)
    source = make_source(seed, config.vector_elements)

    on_pe_paths(lambda: run_single(config, batches, source)[2])

    sharded = {
        name: [
            cycles
            for batch in run_sharded(config, batches, source, name, 4).batches
            for cycles in batch.local_ready_pe_cycles
        ]
        for name in sorted(SCHEDULES)
    }
    assert len({tuple(lat) for lat in sharded.values()}) == 1
    # And the comm phase genuinely differs between schedules, so the
    # equality above is not vacuous.
    ends = {
        name: run_sharded(config, batches, source, name, 4).comm_pe_cycles
        for name in sorted(SCHEDULES)
    }
    assert len(set(ends.values())) > 1


@pytest.mark.parametrize("seed", range(6))
def test_matrix_agrees_under_fault_injection(seed):
    """Index-keyed faults (corruption, source failures) drop the same rows
    in every cell, so byte-identity must survive degraded and failed
    queries — including the NaN fill of fully failed ones."""
    config, batches = random_setup(seed)
    source = make_source(seed, config.vector_elements)
    plan = FaultPlan(
        seed=seed,
        vector_corruption_probability=0.4,
        source_failure_probability=0.25,
    )
    policy = FaultPolicy.graceful(
        max_corruption_retries=0, max_source_retries=0
    )

    ref_bytes, ref_statuses, _ = run_single(
        config, batches, source, faults=plan, fault_policy=policy
    )
    assert set(ref_statuses) != {"ok"}, "faults never fired; weak test"

    for shards in (2, 4):
        for name in sorted(SCHEDULES):
            reduced = run_sharded(
                config,
                batches,
                source,
                name,
                shards,
                faults=plan,
                fault_policy=policy,
            )
            assert [v.tobytes() for v in reduced.vectors] == ref_bytes, (
                shards,
                name,
            )
            assert reduced.statuses == ref_statuses


@pytest.mark.parametrize("seed", range(4))
def test_crashed_shard_is_redispatched_before_the_tree_completes(seed):
    """A shard crash re-dispatches that shard's sub-stream; the fold then
    completes with the replacement partials, byte-identical to a clean
    run, and the re-dispatch is visible in the shard-local trace."""
    config, batches = random_setup(seed)
    source = make_source(seed, config.vector_elements)

    clean = run_sharded(config, batches, source, "recursive_doubling", 4)
    sink = InMemorySink()
    crashed = ShardedRunner(
        config=config,
        operator="sum",
        max_workers=1,
        tracer=Tracer([sink]),
        reduction="recursive_doubling",
        num_shards=4,
        link=LINK,
        # Crash the first *active* position: tiny streams may touch a
        # single piece, and crash plans address active shard positions.
        faults=FaultPlan(seed=seed, crash_shards={0}, crash_attempts=1),
    ).run_reduced(batches, source)

    assert [v.tobytes() for v in crashed.vectors] == [
        v.tobytes() for v in clean.vectors
    ]
    assert crashed.statuses == clean.statuses
    redispatches = [
        event for event in sink.events if event.kind == "shard_redispatched"
    ]
    assert redispatches, "crash never surfaced in the trace"


@pytest.mark.parametrize("seed", range(4))
def test_serial_and_process_paths_ship_identical_reduction_events(seed):
    """Satellite fix: the serial fallback (max_workers=1) must emit the
    same comm event stream as the process-pool path — the events are
    synthesized from deterministic partials, so the execution vehicle
    may not leak into the trace."""
    config, batches = random_setup(seed)
    source = make_source(seed, config.vector_elements)

    def run(workers):
        sink = InMemorySink()
        runner = ShardedRunner(
            config=config,
            operator="sum",
            max_workers=workers,
            tracer=Tracer([sink]),
            reduction="reduce_scatter",
            num_shards=4,
            link=LINK,
        )
        return runner.run_reduced(batches, source), sink.events

    serial, serial_events = run(1)
    pooled, pooled_events = run(2)

    assert [v.tobytes() for v in serial.vectors] == [
        v.tobytes() for v in pooled.vectors
    ]
    # One stream: the shard-local streams in shard order, then the comm
    # phase.  Same sub-batches, same engine, same physics, regardless of
    # which process hosted them.
    assert serial_events == pooled_events
    comm = [event for event in serial_events if "step" in event.args]
    assert comm, "reduction emitted no comm events"
    kinds = {event.kind for event in comm}
    assert kinds == {SHARD_MSG_SENT, SHARD_REDUCED}
    assert serial_events[-len(comm):] == comm
    # Each comm event sits at its step's end within its batch's comm phase.
    for event in comm:
        batch = serial.batches[event.args["batch"]]
        steps = batch.outcome.step_cycles[: event.args["step"] + 1]
        assert event.cycle == batch.comm_start_pe_cycles + sum(steps)
    assert len(serial.shard_results) == len(pooled.shard_results)


@pytest.mark.parametrize("seed", range(4))
def test_resilience_hooks_idle_are_byte_and_cycle_identical(seed):
    """Installing the resilience machinery without any fault to react to
    must be a no-op: an empty FaultPlan under the graceful policy, with
    hedging armed, produces the same bytes, statuses, comm cycles, and
    makespan as the plain run — and issues zero hedges."""
    from repro.resilience import HedgePolicy

    config, batches = random_setup(seed)
    source = make_source(seed, config.vector_elements)

    for name in sorted(SCHEDULES):
        plain = run_sharded(config, batches, source, name, 4)
        armed = run_sharded(
            config,
            batches,
            source,
            name,
            4,
            faults=FaultPlan(seed=seed),
            fault_policy=FaultPolicy.graceful(),
            hedge=HedgePolicy(),
        )
        assert [v.tobytes() for v in armed.vectors] == [
            v.tobytes() for v in plain.vectors
        ], name
        assert armed.statuses == plain.statuses
        assert armed.comm_pe_cycles == plain.comm_pe_cycles
        assert armed.makespan_pe_cycles == plain.makespan_pe_cycles
        assert armed.hedges.issued == 0
