"""``ShardSplit`` cuts batches as columns; the per-query split is its reference.

The reference below is the split done one query and one ``owner`` call at
a time (:func:`tests.comm.partitions.split_query`).  The column split must
give byte-identical streams and :class:`~repro.comm.reducer.Contributors`
on random partitions of all three modes, and raise the same errors.
"""

import numpy as np
import pytest

from repro.comm.partition import IndexPartition
from repro.comm.reducer import ShardSplit
from repro.core.config import FafnirConfig
from tests.comm.partitions import contiguous, explicit, split_query

UNIVERSE = 200


def reference(batches, partition):
    """Streams and contributor columns, split query by query."""
    streams, contributors = {}, []
    for batch in batches:
        per_piece = {}
        for position, query in enumerate(batch):
            for piece, indices in split_query(partition, query).items():
                per_piece.setdefault(piece, []).append((position, indices))
        groups, queries, pieces, subs, sizes = [], [], [], [], []
        for piece in sorted(per_piece):
            entries = per_piece[piece]
            stream = streams.setdefault(piece, [])
            groups.append((piece, len(stream), len(queries), len(queries) + len(entries)))
            queries += [position for position, _ in entries]
            pieces += [piece] * len(entries)
            subs += list(range(len(entries)))
            sizes += [len(set(indices)) for _, indices in entries]
            stream.append([indices for _, indices in entries])
        contributors.append(tuple(
            np.array(column, np.int64).tobytes()
            for column in (queries, pieces, subs, sizes)
        ) + (tuple(groups),))
    return streams, contributors


def columns(split):
    return [
        (c.query.tobytes(), c.piece.tobytes(), c.sub.tobytes(), c.size.tobytes(),
         c.groups)
        for c in split.contributors
    ]


def random_partition(rng, mode):
    pieces = int(rng.integers(1, 9))
    if mode == "home_rank":
        ranks = int(rng.choice([8, 16, 32]))
        return IndexPartition(
            num_pieces=pieces, rank_owner=tuple(rng.integers(0, pieces, ranks).tolist()),
            total_ranks=ranks,
        )
    if mode == "contiguous":
        return contiguous(int(rng.integers(1, UNIVERSE + 50)), pieces)
    return explicit({index: int(rng.integers(pieces)) for index in range(UNIVERSE)}, pieces)


def random_batches(rng):
    """Batches of queries, some with repeated indices, some empty batches
    of empty queries, some queries sets."""
    batches = []
    for _ in range(int(rng.integers(1, 6))):
        batch = []
        for _ in range(int(rng.integers(0, 12))):
            query = rng.integers(0, UNIVERSE, int(rng.integers(0, 10))).tolist()
            batch.append(set(query) if rng.random() < 0.2 else query)
        batches.append(batch)
    return batches


@pytest.mark.parametrize("mode", ["home_rank", "contiguous", "explicit"])
@pytest.mark.parametrize("seed", range(40))
def test_column_split_matches_the_per_query_split(mode, seed):
    rng = np.random.default_rng(seed)
    partition = random_partition(rng, mode)
    batches = random_batches(rng)
    split = ShardSplit(batches, partition)
    streams, contributors = reference(batches, partition)
    assert split.streams == streams
    assert columns(split) == contributors
    assert split.active_pieces == sorted(streams)


def test_the_runner_partition_splits_paper_batches_alike():
    config = FafnirConfig()
    partition = IndexPartition.by_home_rank(config, 4)
    rng = np.random.default_rng(7)
    batches = [[rng.integers(0, 10_000, 16).tolist() for _ in range(32)] for _ in range(8)]
    split = ShardSplit(batches, partition)
    streams, contributors = reference(batches, partition)
    assert split.streams == streams and columns(split) == contributors


@pytest.mark.parametrize("mode", ["home_rank", "contiguous", "explicit"])
def test_a_negative_index_raises_value_error(mode):
    partition = random_partition(np.random.default_rng(1), mode)
    if mode == "explicit":
        partition = explicit({-1: 0, **partition.explicit_owner}, partition.num_pieces)
        with pytest.raises(ValueError, match="non-negative"):
            split_query(partition, [3, -1])
    with pytest.raises(ValueError, match="non-negative"):
        ShardSplit([[[3, -1]]], partition)


def test_an_unassigned_index_raises_key_error():
    partition = explicit({0: 0, 1: 1}, 2)
    with pytest.raises(KeyError, match="not assigned"):
        split_query(partition, [0, 5])
    with pytest.raises(KeyError, match="not assigned"):
        ShardSplit([[[0, 1]], [[0, 5]]], partition)
