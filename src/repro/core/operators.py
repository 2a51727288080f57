"""Reduction operators applied by FAFNIR PEs.

The paper's reductions are element-wise summation, minimum, and average
(§II).  Every operator must be associative and commutative so that the tree
may combine vectors in whatever order they happen to meet; *mean* is handled
as a sum inside the tree plus a final host-side division by the query length
(the standard trick, since plain averaging is not associative).

Associativity holds for the operators but not for floating point, so every
place that folds more than two partials — the interactive root, the
cross-shard combine — goes through the one fixed association,
:func:`canonical_fold`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Mapping, Optional

import numpy as np


@dataclass(frozen=True)
class ReductionOperator:
    """An associative, commutative element-wise reduction.

    Attributes:
        name: operator identifier ("sum", "min", "max", "mean").
        combine: pairwise element-wise combiner used inside the tree, a
            ufunc, so the tree can write its results in place (``out=``).
        finalize: host-side post-processing of a fully reduced vector given
            the number of vectors that were folded into it.
    """

    name: str
    combine: np.ufunc
    finalize: Callable[[np.ndarray, int], np.ndarray]

    def reduce_many(self, vectors: list) -> np.ndarray:
        """Oracle reduction of a whole list of vectors (for verification)."""
        if not vectors:
            raise ValueError("cannot reduce an empty list of vectors")
        accumulator = np.array(vectors[0], dtype=np.float64)
        for vector in vectors[1:]:
            accumulator = self.combine(accumulator, np.asarray(vector, dtype=np.float64))
        return self.finalize(accumulator, len(vectors))

    def __repr__(self) -> str:
        return f"ReductionOperator({self.name!r})"


def _identity_finalize(value: np.ndarray, count: int) -> np.ndarray:
    return value


def _mean_finalize(value: np.ndarray, count: int) -> np.ndarray:
    if count <= 0:
        raise ValueError("count must be positive")
    return value / count


SUM = ReductionOperator("sum", np.add, _identity_finalize)
MIN = ReductionOperator("min", np.minimum, _identity_finalize)
MAX = ReductionOperator("max", np.maximum, _identity_finalize)
MEAN = ReductionOperator("mean", np.add, _mean_finalize)

_OPERATORS: Dict[str, ReductionOperator] = {
    op.name: op for op in (SUM, MIN, MAX, MEAN)
}


def get_operator(name: str) -> ReductionOperator:
    """Look up an operator by name; raises ``KeyError`` for unknown names."""
    try:
        return _OPERATORS[name]
    except KeyError:
        raise KeyError(
            f"unknown reduction operator {name!r}; "
            f"available: {sorted(_OPERATORS)}"
        ) from None


def available_operators() -> list:
    return sorted(_OPERATORS)


def _next_pow2(n: int) -> int:
    power = 1
    while power < n:
        power *= 2
    return power


def canonical_fold(
    entries: Mapping[int, np.ndarray],
    num_pieces: int,
    combine: Callable[[np.ndarray, np.ndarray], np.ndarray],
) -> np.ndarray:
    """The one deterministic fold: a tournament over piece ids.

    Pieces are combined along a fixed balanced binary tree over
    ``[0, next_pow2(num_pieces))``; absent pieces are skipped without
    disturbing the association of the rest.  Invariant under schedule
    choice and shard-order permutation by construction, and — for
    subtree-aligned partitions — bitwise equal to the single-node FAFNIR
    root reduction, whose internal PEs are exactly this tournament over
    the leaves.
    """
    if not entries:
        raise ValueError("cannot fold zero partials")
    result = _fold_range(entries, combine, 0, _next_pow2(num_pieces))
    assert result is not None
    return result


def _fold_range(
    entries: Mapping[int, np.ndarray],
    combine: Callable[[np.ndarray, np.ndarray], np.ndarray],
    lo: int,
    hi: int,
) -> Optional[np.ndarray]:
    """:func:`canonical_fold` over the pieces ``[lo, hi)``; ``None`` when
    none is present.  A plain function, so a fold leaves no reference
    cycle holding ``entries``."""
    if hi - lo == 1:
        return entries.get(lo)
    mid = (lo + hi) // 2
    left = _fold_range(entries, combine, lo, mid)
    right = _fold_range(entries, combine, mid, hi)
    if left is None:
        return right
    if right is None:
        return left
    return combine(left, right)
