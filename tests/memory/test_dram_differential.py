"""The column pass against the object DRAM model, at scale.

:data:`SETS` seeded request sets, each run through
``MemorySystem.execute`` and through ``tests/dram_oracle.py``'s
``ObjectMemorySystem`` on a second system of the same shape.  The sets are
drawn across the axes the pass has to survive: five geometries, refresh on
(with a dense blackout grid) and off, zero, random and tied issue cycles,
16/64/100/512 B reads, row-major, column-major and stream placements next
to hand-drawn reads, 1–3 calls carrying bank and bus state without a
reset, FCFS and FR-FCFS, a hot-index tier, and rank faults under the
``degrade`` policy.  Every call must agree on every per-read column, the
``AccessStats``, ``failed_positions``, the tier's stats and the traced
event stream.
"""

import dataclasses

import numpy as np
import pytest

from repro.faults import FaultPlan, FaultPolicy
from repro.memory import (
    ColumnMajorPlacement,
    MemoryConfig,
    MemorySystem,
    ReadColumns,
    RowMajorPlacement,
    StreamPlacement,
    hbm2_stack,
)
from repro.obs import InMemorySink, Tracer
from repro.tiering.cache import HotTierConfig
from tests import dram_oracle

SETS = 1000
CHUNKS = 10
SIZES = (16, 64, 100, 512)
GEOMETRIES = ("small", "quad", "eight", "sweep", "hbm")


def memory_config(name, refresh):
    config = {
        "small": MemoryConfig.small_test_system,
        "quad": MemoryConfig,
        "eight": lambda: MemoryConfig().scaled_to_ranks(8),
        "sweep": lambda: MemoryConfig.rank_sweep(4),
        "hbm": hbm2_stack,
    }[name]()
    if refresh:
        # A dense blackout grid so that random issue cycles land in it.
        timing = dataclasses.replace(
            config.timing, refresh_enabled=True, tREFI=640, tRFC=90
        )
        config = dataclasses.replace(config, timing=timing)
    return config


def random_reads(rng, config):
    """One call's reads: hand-drawn reads and placement output, mixed."""
    geometry = config.geometry
    ranks = geometry.total_ranks
    reads = ReadColumns()
    ties = rng.integers(0, 3000, size=3).tolist()

    def issue():
        mode = rng.integers(3)
        if mode == 0:
            return 0
        return int(rng.choice(ties)) if mode == 1 else int(rng.integers(0, 3000))

    for _ in range(int(rng.integers(1, 6))):
        kind = rng.integers(4)
        if kind == 0:
            for _ in range(int(rng.integers(1, 24))):
                size = int(rng.choice(SIZES))
                column = int(rng.integers(0, geometry.row_bytes - size + 1))
                tag = [None, int(rng.integers(0, 12)), ("stream", 0, 0)][rng.integers(3)]
                reads.append(
                    int(rng.integers(0, min(ranks, 6))),
                    int(rng.integers(0, min(geometry.banks_per_rank, 3))),
                    int(rng.integers(0, 4)),
                    column,
                    size,
                    issue(),
                    tag,
                )
        elif kind == 1:
            placement = RowMajorPlacement(geometry, int(rng.choice(SIZES)))
            ids = rng.integers(0, 40 * ranks, size=int(rng.integers(1, 20))).tolist()
            reads.extend(placement.reads_for(ids, issue_cycle=issue()))
        elif kind == 2:
            placement = ColumnMajorPlacement(geometry, 16 * ranks)
            ids = rng.integers(0, 4096, size=int(rng.integers(1, 4))).tolist()
            reads.extend(placement.reads_for(ids, issue_cycle=issue()))
        else:
            stream = StreamPlacement(geometry, int(rng.integers(0, ranks)))
            start = int(rng.integers(0, 3 * geometry.row_bytes))
            length = int(rng.integers(1, 2 * geometry.row_bytes))
            reads.extend(stream.stream_reads(start, length, issue_cycle=issue()))
    return reads


def random_case(seed):
    """(shape key, calls): a system's shape and 1–3 calls of reads."""
    rng = np.random.default_rng(seed)
    geometry = str(rng.choice(GEOMETRIES))
    refresh = bool(rng.random() < 0.3)
    policy = "frfcfs" if rng.random() < 0.3 else "fcfs"
    tier = bool(rng.random() < 0.25)
    faults = bool(rng.random() < 0.2)
    config = memory_config(geometry, refresh)
    calls = [random_reads(rng, config) for _ in range(int(rng.integers(1, 4)))]
    return (geometry, refresh, policy, tier, faults, seed), calls


def systems(key):
    """(column pass, object oracle) systems of one shape, traced."""
    geometry, refresh, policy, tier, faults, seed = key
    pair = []
    for build in (MemorySystem, dram_oracle.ObjectMemorySystem):
        sink = InMemorySink()
        plan = policy_of = None
        if faults:
            plan = FaultPlan(
                seed=seed,
                rank_latency_multipliers={1: 2.5},
                rank_timeout_probability={0: 0.4, 2: 0.2},
            )
            policy_of = FaultPolicy.graceful(
                max_read_retries=1, read_timeout_cycles=50, read_retry_backoff_cycles=7
            )
        system = build(
            memory_config(geometry, refresh),
            policy=policy,
            tracer=Tracer([sink]),
            faults=plan,
            fault_policy=policy_of,
            cache=HotTierConfig(size_bytes=4 * 512, ways=2) if tier else None,
        )
        pair.append((system, sink))
    return pair


@pytest.mark.parametrize("chunk", range(CHUNKS))
def test_column_pass_matches_object_model(chunk):
    for seed in range(chunk, SETS, CHUNKS):
        key, calls = random_case(seed)
        (system, sink), (oracle, oracle_sink) = systems(key)
        for call, reads in enumerate(calls):
            where = f"seed {seed} call {call}: {key}"
            served, stats = system.execute(reads)
            completions, oracle_stats = oracle.execute(dram_oracle.to_requests(reads))
            assert served == dram_oracle.served_of(completions), where
            assert stats == oracle_stats, where
            assert system.failed_positions == oracle.failed_positions, where
            assert system.cache_stats == oracle.cache_stats, where
        assert sink.events == oracle_sink.events, f"seed {seed}: {key}"


def test_cases_cover_every_class():
    seen = set()
    refresh_delays = tied = carried = failed = hits = 0
    for seed in range(SETS):
        key, calls = random_case(seed)
        seen.add((key[0], key[2]))
        carried += len(calls) > 1
        for reads in calls:
            issues = [i for i in reads.issue if i]
            tied += len(issues) != len(set(issues))
        if key[1]:
            plain = MemorySystem(memory_config(key[0], False))
            refreshing = MemorySystem(memory_config(key[0], True))
            refresh_delays += plain.execute(calls[0])[0] != refreshing.execute(calls[0])[0]
        if key[3] or key[4]:
            (system, _), _ = systems(key)
            for reads in calls:
                system.execute(reads)
                failed += bool(system.failed_positions)
            hits += system.cache_stats.hits
    assert seen == {(g, p) for g in GEOMETRIES for p in ("fcfs", "frfcfs")}
    assert min(refresh_delays, tied, carried, failed) >= 50
    assert hits >= 150


BAD_READS = [
    dict(bytes_=0),
    dict(rank=-1),
    dict(bank=-1),
    dict(row=-1),
    dict(column=-1),
    dict(issue_cycle=-1),
    dict(rank=4),
    dict(column=8192 - 32, bytes_=64),
]


@pytest.mark.parametrize(
    "bad", BAD_READS, ids=lambda bad: ",".join(f"{k}={v}" for k, v in bad.items())
)
def test_rejects_what_the_object_model_rejects(bad):
    read = dict(rank=0, bank=0, row=0, column=0, bytes_=64, issue_cycle=0, tag=None)
    read.update(bad)
    reads = ReadColumns()
    reads.append(rank=0, bank=1, row=0, column=0, bytes_=64)
    reads.append(**read)
    config = MemoryConfig.small_test_system()
    system = MemorySystem(config)
    with pytest.raises(ValueError):
        system.execute(reads)
    with pytest.raises(ValueError):
        dram_oracle.ObjectMemorySystem(config).execute(dram_oracle.to_requests(reads))
    # Nothing was served: the good read still finds its bank cold.
    good = ReadColumns()
    good.append(rank=0, bank=1, row=0, column=0, bytes_=64)
    assert system.execute(good)[0].activated == [True]


def test_rejects_ragged_columns_and_missing_banks():
    config = MemoryConfig.small_test_system()
    reads = ReadColumns()
    reads.append(rank=0, bank=config.geometry.banks_per_rank, row=0, column=0, bytes_=64)
    with pytest.raises(ValueError, match="bank"):
        MemorySystem(config).execute(reads)
    reads = ReadColumns()
    reads.append(rank=0, bank=0, row=0, column=0, bytes_=64)
    reads.tag.append(None)
    with pytest.raises(ValueError, match="length"):
        MemorySystem(config).execute(reads)


def test_only_reads_placed_in_this_geometry_skip_the_check():
    """A placement's ``reads_at`` marks its columns valid in its geometry,
    so the memory system serves them unchecked; every other batch is
    still checked, and a malformed one rejected before any state changes."""
    config = MemoryConfig.small_test_system()
    geometry = config.geometry
    placement = RowMajorPlacement(geometry, 64)
    ids = [0, 5, 9]
    placed = placement.reads_at(ids, placement.locate(np.array(ids, np.int64)))
    assert placed.placed_in == geometry
    system = MemorySystem(config)
    checked = ReadColumns()
    checked.extend(placed)
    assert checked.placed_in is None
    assert system.execute(placed)[0] == MemorySystem(config).execute(checked)[0]

    # Malformed external columns: a bank past the rank's last.
    bad_bank = geometry.banks_per_rank
    system = MemorySystem(config)
    with pytest.raises(ValueError, match="bank"):
        system.execute(ReadColumns.of([0], [bad_bank], [0], [0], [64], [0], [None]))
    # Adding a read to placed columns drops the mark.
    placed.append(rank=0, bank=bad_bank, row=0, column=0, bytes_=64)
    assert placed.placed_in is None
    with pytest.raises(ValueError, match="bank"):
        system.execute(placed)
    # Columns placed in another geometry are checked against this one.
    wider = RowMajorPlacement(dataclasses.replace(geometry, channels=2), 64)
    far = wider.reads_at([7], wider.locate(np.array([7], np.int64)))
    with pytest.raises(ValueError, match="rank 7 out of range"):
        system.execute(far)
    # A negative issue cycle leaves the columns unmarked, to be rejected.
    late = placement.reads_at([1], placement.locate(np.array([1], np.int64)), -1)
    assert late.placed_in is None
    with pytest.raises(ValueError, match="issue_cycle"):
        system.execute(late)
    # Nothing was served: the first good read still finds its bank cold.
    assert system.execute(placement.reads_for([0]))[0].activated == [True]
