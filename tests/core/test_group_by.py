"""The sweep's sort-based group-by against ``np.unique``."""

import numpy as np
import pytest

from repro.core.sweep import group_by


def assert_matches_unique(key):
    """Same first positions, inverse and (through them) counts as
    ``np.unique``, groups numbered in key order."""
    _, first, inverse, counts = np.unique(
        key, return_index=True, return_inverse=True, return_counts=True
    )
    got_first, got_group = group_by(key)
    assert got_first.tolist() == first.tolist()
    assert got_group.tolist() == inverse.ravel().tolist()
    assert np.bincount(got_group, minlength=len(got_first)).tolist() == counts.tolist()


@pytest.mark.parametrize("seed", range(40))
def test_random_keys(seed):
    rng = np.random.default_rng(seed)
    size = int(rng.integers(0, 300))
    span = int(rng.integers(1, 2 * size + 2))  # few distinct keys to all distinct
    key = rng.integers(-span, span, size).astype(np.int64)
    assert_matches_unique(key)


def test_empty_keys():
    first, group = group_by(np.empty(0, np.int64))
    assert first.tolist() == [] and group.tolist() == []
    assert_matches_unique(np.empty(0, np.int64))


@pytest.mark.parametrize("size", [1, 2, 7])
def test_all_equal_keys(size):
    key = np.full(size, -5, np.int64)
    first, group = group_by(key)
    assert first.tolist() == [0] and group.tolist() == [0] * size
    assert_matches_unique(key)


def test_already_sorted_keys():
    key = np.array([-3, -3, 0, 1, 1, 1, 4, 9, 9], np.int64)
    first, group = group_by(key)
    assert first.tolist() == [0, 2, 3, 6, 7]
    assert group.tolist() == [0, 0, 1, 2, 2, 2, 3, 4, 4]
    assert_matches_unique(key)


def test_first_position_is_each_groups_earliest():
    """A group's first position is its earliest key, however its keys
    are spread: the sort is stable."""
    key = np.array([5, 2, 5, 2, 8, 5, 2], np.int64)
    first, group = group_by(key)
    assert first.tolist() == [1, 0, 4]
    assert group.tolist() == [1, 0, 1, 0, 2, 1, 0]
