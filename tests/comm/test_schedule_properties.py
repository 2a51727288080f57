"""Property-based tests (hypothesis) for cross-shard reduction invariants.

The load-bearing claim of src/repro/comm/ is that the *numeric* fold is
schedule-independent: gather, recursive doubling, and reduce-scatter are
cost/routing models over the same canonical tournament, so any shard
count, any partition of the index space, and any ordering of the shards'
partials must produce bit-identical reduced vectors.  These tests check
that claim on randomly generated batches and partitions, plus the
textbook step-count bounds the schedules advertise.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.comm import IndexPartition, get_schedule
from repro.comm.schedule import SCHEDULES, canonical_fold
from repro.core import FafnirConfig, FafnirEngine
from repro.core.sharding import ShardedRunner
from repro.hw.link import LinkModel
from tests.comm.partitions import explicit

ELEMENTS = 16
UNIVERSE = 64
LINK = LinkModel(latency_ns=200.0, bandwidth_gb_s=10.0)


def _config():
    return FafnirConfig(
        batch_size=8,
        max_query_len=8,
        vector_bytes=ELEMENTS * 4,
        total_ranks=16,
        ranks_per_leaf_pe=2,
        num_tables=8,
    )


def _source(index):
    rng = np.random.default_rng(200_000 + index)
    return rng.normal(size=ELEMENTS)


batches_strategy = st.lists(
    st.lists(
        st.lists(
            st.integers(min_value=0, max_value=UNIVERSE - 1),
            min_size=1,
            max_size=8,
        ),
        min_size=1,
        max_size=4,
    ),
    min_size=1,
    max_size=2,
)

vectors_strategy = st.dictionaries(
    st.integers(min_value=0, max_value=15),
    st.integers(min_value=0, max_value=2**31 - 1),
    min_size=1,
    max_size=16,
)


@settings(max_examples=60, deadline=None)
@given(seeds=vectors_strategy, order=st.randoms(use_true_random=False))
def test_canonical_fold_ignores_shard_arrival_order(seeds, order):
    """Folding the same partials in any order yields identical bytes."""
    vectors = {
        piece: np.random.default_rng(seed).standard_normal(ELEMENTS)
        for piece, seed in seeds.items()
    }
    baseline = canonical_fold(vectors, 16, np.add)
    items = list(vectors.items())
    order.shuffle(items)
    permuted = canonical_fold(dict(items), 16, np.add)
    assert permuted.tobytes() == baseline.tobytes()


@settings(max_examples=15, deadline=None)
@given(
    batches=batches_strategy,
    num_shards=st.integers(min_value=1, max_value=16),
)
def test_any_shard_count_reduces_identically_across_schedules(
    batches, num_shards
):
    """Shard count 1-16: every schedule folds to the same bytes, and the
    fold matches the single-node oracle numerically."""
    config = _config()
    partition = IndexPartition.by_home_rank(config, num_shards)
    single = FafnirEngine(config=config, operator="sum").run_batches(
        batches, _source
    )
    folds = {}
    for name in sorted(SCHEDULES):
        runner = ShardedRunner(
            config=config,
            operator="sum",
            max_workers=1,
            reduction=name,
            partition=partition,
            link=LINK,
        )
        reduced = runner.run_reduced(batches, _source)
        folds[name] = [vector.tobytes() for vector in reduced.vectors]
        assert reduced.statuses == single.statuses
        for got, want in zip(reduced.vectors, single.vectors):
            np.testing.assert_allclose(got, want, rtol=1e-10)
    assert len(set(map(tuple, folds.values()))) == 1, (
        "schedules disagree on reduced bytes"
    )


@settings(max_examples=15, deadline=None)
@given(
    batches=batches_strategy,
    owners=st.lists(
        st.integers(min_value=0, max_value=4), min_size=UNIVERSE, max_size=UNIVERSE
    ),
)
def test_arbitrary_explicit_partitions_agree_across_schedules(batches, owners):
    """Any partition of the index space — even one that ignores the tree —
    still reduces to the same bytes under every schedule."""
    pieces = max(owners) + 1
    partition = explicit(
        {index: owner for index, owner in enumerate(owners)}, pieces=pieces
    )
    config = _config()
    folds = []
    for name in sorted(SCHEDULES):
        runner = ShardedRunner(
            config=config,
            operator="sum",
            max_workers=1,
            reduction=name,
            partition=partition,
            link=LINK,
        )
        reduced = runner.run_reduced(batches, _source)
        folds.append([vector.tobytes() for vector in reduced.vectors])
    assert all(fold == folds[0] for fold in folds[1:])
    oracle = FafnirEngine(config=config, operator="sum").run_batches(
        batches, _source
    )
    for got, want in zip(folds[0], oracle.vectors):
        np.testing.assert_allclose(
            np.frombuffer(got, dtype=want.dtype), want, rtol=1e-10
        )


touched_strategy = st.dictionaries(
    st.integers(min_value=0, max_value=15),
    st.frozensets(st.integers(min_value=0, max_value=7), min_size=1, max_size=8),
    min_size=1,
    max_size=16,
)


@settings(max_examples=100, deadline=None)
@given(touched=touched_strategy, name=st.sampled_from(sorted(SCHEDULES)))
def test_every_schedule_completes_routing_for_any_touched_map(touched, name):
    """finish() verifies the consumer ends up holding every touched piece;
    no sparsity pattern may strand a partial mid-tree."""
    pieces = max(touched) + 1
    outcome = get_schedule(name).run(touched, pieces, 64, LINK)
    assert outcome.total_bytes == sum(m.payload_bytes for m in outcome.messages)
    assert outcome.comm_pe_cycles >= 0


@settings(max_examples=60, deadline=None)
@given(touched=touched_strategy)
def test_reduce_scatter_step_count_matches_log2_bound(touched):
    """Satellite bound: reduce-scatter + allgather runs 2*log2(core) steps
    (plus one fold-in step when the shard count is not a power of two)."""
    pieces = max(touched) + 1
    outcome = get_schedule("reduce_scatter").run(touched, pieces, 64, LINK)
    if pieces == 1:
        assert outcome.steps == 0
        return
    core = 1 << (pieces.bit_length() - 1)
    log2 = core.bit_length() - 1
    extras = 1 if pieces != core else 0
    assert outcome.steps == extras + 2 * log2


@settings(max_examples=60, deadline=None)
@given(touched=touched_strategy)
def test_recursive_doubling_step_count_matches_log2_bound(touched):
    pieces = max(touched) + 1
    outcome = get_schedule("recursive_doubling").run(touched, pieces, 64, LINK)
    if pieces == 1:
        assert outcome.steps == 0
        return
    core = 1 << (pieces.bit_length() - 1)
    extras = 1 if pieces != core else 0
    assert outcome.steps == extras + (core.bit_length() - 1)
