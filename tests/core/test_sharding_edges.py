"""Regression tests for shard_batches / run / run_reduced edge cases.

The degenerate shapes — more shards than batches, empty streams,
single-query batches, single-shard "clusters" — are exactly the ones a
round-robin splitter or an opt-in reduction mode silently mangles, so
each gets a pinned contract here.
"""

import numpy as np
import pytest

from repro.comm import IndexPartition
from repro.core.config import FafnirConfig
from repro.core.engine import FafnirEngine
from repro.core.sharding import ShardedRunner, shard_batches


class source:
    """Picklable deterministic vector source."""

    def __init__(self, elements=8):
        self.elements = elements

    def __call__(self, index):
        rng = np.random.default_rng(40_000 + index)
        return rng.standard_normal(self.elements)


def _config():
    return FafnirConfig(
        total_ranks=8,
        ranks_per_leaf_pe=2,
        batch_size=8,
        max_query_len=8,
        vector_bytes=32,
    )


# --- shard_batches ---------------------------------------------------------
def test_more_shards_than_batches_yields_one_batch_per_shard():
    batches = [[[1]], [[2]], [[3]]]
    buckets = shard_batches(batches, 8)
    # No empty buckets are manufactured: 3 batches over 8 shards is 3
    # single-batch shards, not 3 busy + 5 idle workers.
    assert len(buckets) == 3
    assert buckets == [[[[1]]], [[[2]]], [[[3]]]]


def test_empty_stream_yields_no_shards():
    assert shard_batches([], 4) == []


def test_round_robin_is_position_stable():
    batches = [[[i]] for i in range(7)]
    buckets = shard_batches(batches, 3)
    assert [len(bucket) for bucket in buckets] == [3, 2, 2]
    assert buckets[0] == [[[0]], [[3]], [[6]]]
    assert buckets[1] == [[[1]], [[4]]]
    assert buckets[2] == [[[2]], [[5]]]


@pytest.mark.parametrize("shards", [0, -1])
def test_nonpositive_shard_count_rejected(shards):
    with pytest.raises(ValueError, match="positive"):
        shard_batches([[[1]]], shards)


def test_single_query_batches_survive_the_split():
    batches = [[[5]], [[6]], [[7]], [[8]]]
    buckets = shard_batches(batches, 2)
    recombined = sorted(
        query[0] for bucket in buckets for batch in bucket for query in batch
    )
    assert recombined == [5, 6, 7, 8]


# --- ShardedRunner.run -----------------------------------------------------
def test_run_with_empty_shard_list_returns_empty():
    runner = ShardedRunner(config=_config(), max_workers=1)
    assert runner.run([], source()) == []


def test_run_single_query_single_batch_shards():
    runner = ShardedRunner(config=_config(), max_workers=1)
    shards = shard_batches([[[3]], [[3]]], 4)
    results = runner.run(shards, source())
    assert len(results) == 2
    a, b = (result.vectors[0] for result in results)
    assert a.tobytes() == b.tobytes()  # same query, same replica physics


# --- ShardedRunner.run_reduced ---------------------------------------------
def test_run_reduced_rejects_empty_streams():
    runner = ShardedRunner(
        config=_config(), max_workers=1, reduction="gather", num_shards=2
    )
    with pytest.raises(ValueError, match="at least one batch"):
        runner.run_reduced([], source())


def test_run_reduced_requires_a_schedule():
    runner = ShardedRunner(config=_config(), max_workers=1)
    with pytest.raises(ValueError, match="no reduction schedule"):
        runner.run_reduced([[[1, 2]]], source())


def test_run_reduced_single_shard_degenerates_to_single_node():
    config = _config()
    batches = [[[0, 1, 2], [3, 4]], [[5, 6, 7]]]
    runner = ShardedRunner(
        config=config, max_workers=1, reduction="gather", num_shards=1
    )
    reduced = runner.run_reduced(batches, source())
    single = FafnirEngine(config=config, operator="sum").run_batches(
        batches, source()
    )
    assert [v.tobytes() for v in reduced.vectors] == [
        v.tobytes() for v in single.vectors
    ]
    assert reduced.total_messages == 0
    assert reduced.comm_pe_cycles == 0


def test_run_reduced_skips_untouched_pieces():
    config = _config()
    # All indices home to ranks 0..1 → piece 0 of a 4-piece split; the
    # other three shards must never start a worker.
    batches = [[[0, 8, 16], [1, 9]]]
    runner = ShardedRunner(
        config=config, max_workers=1, reduction="gather", num_shards=4
    )
    reduced = runner.run_reduced(batches, source())
    assert reduced.active_pieces == [0]
    assert len(reduced.shard_results) == 1
    assert reduced.total_messages == 0  # nothing to exchange
    single = FafnirEngine(config=config, operator="sum").run_batches(
        batches, source()
    )
    assert [v.tobytes() for v in reduced.vectors] == [
        v.tobytes() for v in single.vectors
    ]


def test_run_reduced_single_query_batches():
    config = _config()
    partition = IndexPartition.by_home_rank(config, 2)
    batches = [[[0]], [[1]], [[2, 7]]]
    runner = ShardedRunner(
        config=config,
        max_workers=1,
        reduction="reduce_scatter",
        partition=partition,
    )
    reduced = runner.run_reduced(batches, source())
    single = FafnirEngine(config=config, operator="sum").run_batches(
        batches, source()
    )
    assert [v.tobytes() for v in reduced.vectors] == [
        v.tobytes() for v in single.vectors
    ]
    assert reduced.statuses == single.statuses
