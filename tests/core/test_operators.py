"""Tests for reduction operators."""

import gc
import weakref

import numpy as np
import pytest

from repro.core import MAX, MEAN, MIN, SUM, available_operators, get_operator
from repro.core.operators import canonical_fold


class TestLookup:
    def test_all_paper_operators_available(self):
        assert set(available_operators()) >= {"sum", "min", "max", "mean"}

    def test_get_operator_round_trip(self):
        for name in available_operators():
            assert get_operator(name).name == name

    def test_unknown_operator_raises(self):
        with pytest.raises(KeyError, match="unknown reduction operator"):
            get_operator("median")


class TestSemantics:
    def test_sum_combine(self):
        a = np.array([1.0, 2.0])
        b = np.array([3.0, -1.0])
        assert np.array_equal(SUM.combine(a, b), [4.0, 1.0])

    def test_min_max_combine(self):
        a = np.array([1.0, 5.0])
        b = np.array([3.0, -1.0])
        assert np.array_equal(MIN.combine(a, b), [1.0, -1.0])
        assert np.array_equal(MAX.combine(a, b), [3.0, 5.0])

    def test_mean_uses_sum_in_tree_and_divides_at_host(self):
        a = np.array([2.0, 4.0])
        b = np.array([4.0, 0.0])
        in_tree = MEAN.combine(a, b)
        assert np.array_equal(in_tree, [6.0, 4.0])
        assert np.array_equal(MEAN.finalize(in_tree, 2), [3.0, 2.0])

    def test_mean_finalize_rejects_bad_count(self):
        with pytest.raises(ValueError):
            MEAN.finalize(np.array([1.0]), 0)

    def test_sum_finalize_is_identity(self):
        v = np.array([1.0, 2.0])
        assert SUM.finalize(v, 7) is v


class TestReduceMany:
    def test_matches_numpy(self):
        rng = np.random.default_rng(3)
        vectors = [rng.normal(size=16) for _ in range(5)]
        assert np.allclose(SUM.reduce_many(vectors), np.sum(vectors, axis=0))
        assert np.allclose(MIN.reduce_many(vectors), np.min(vectors, axis=0))
        assert np.allclose(MAX.reduce_many(vectors), np.max(vectors, axis=0))
        assert np.allclose(MEAN.reduce_many(vectors), np.mean(vectors, axis=0))

    def test_single_vector(self):
        v = np.array([1.0, 2.0])
        assert np.array_equal(MEAN.reduce_many([v]), v)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            SUM.reduce_many([])

    def test_associativity_order_independence(self):
        """The tree combines in arbitrary order; results must not depend on it."""
        rng = np.random.default_rng(4)
        vectors = [rng.normal(size=8) for _ in range(6)]
        forward = SUM.reduce_many(vectors)
        backward = SUM.reduce_many(list(reversed(vectors)))
        assert np.allclose(forward, backward)


class TestCanonicalFold:
    def test_tournament_association(self):
        entries = {piece: np.array([float(piece)]) for piece in (0, 2, 3, 5)}
        calls = []

        def combine(left, right):
            calls.append((left[0], right[0]))
            return left + right

        assert canonical_fold(entries, 6, combine)[0] == 10.0
        # ((0 · 2,3) · (5)) over [0, 8): pieces 1, 4, 6 and 7 are absent.
        assert calls == [(2.0, 3.0), (0.0, 5.0), (5.0, 5.0)]

    def test_leaves_no_reference_cycle(self):
        """With the cyclic collector off, the partials die as soon as the
        caller drops them: the fold keeps no reference to ``entries``."""
        entries = {piece: np.ones(4) for piece in range(5)}
        watched = weakref.ref(entries[3])
        enabled = gc.isenabled()
        gc.disable()
        try:
            canonical_fold(entries, 5, np.add)
            del entries
            assert watched() is None
        finally:
            if enabled:
                gc.enable()

    def test_zero_partials_raise(self):
        with pytest.raises(ValueError):
            canonical_fold({}, 4, np.add)
