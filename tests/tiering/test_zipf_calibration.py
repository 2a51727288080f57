"""Regression test: the Zipf generator's skew matches its analytics.

The hot-index tier's premise is that the workload generators really
produce Zipf(α) popularity — the ≥30 % DRAM-traffic claim in
``BENCH_cache.json`` leans on the top-k mass being what Zipf's law
predicts.  This suite pins the calibration:
the empirical frequency of the k hottest pool positions under
:class:`~repro.workloads.embedding.QueryGenerator` sampling (the same
generator :mod:`repro.serving.loadgen` wraps) must match the analytic
mass ``Σ_{i≤k} i^{-α} / H_{n,α}`` within tolerance, across seeds.
"""

import numpy as np
import pytest

from repro.serving.loadgen import OpenLoopGenerator, RampStage
from repro.workloads.embedding import EmbeddingTableSet, QueryGenerator


def analytic_top_k_mass(alpha: float, pool: int, k: int) -> float:
    """Σ_{i≤k} i^-α / Σ_{i≤n} i^-α — the expected hit mass of the top k."""
    weights = 1.0 / np.power(np.arange(1, pool + 1, dtype=np.float64), alpha)
    return float(weights[:k].sum() / weights.sum())


def empirical_top_k_mass(generator: QueryGenerator, k: int, draws: int) -> float:
    """Fraction of drawn rows landing in the k hottest pool positions.

    Drawn ids are *rows* scattered through ``_hot_row_ids``; the inverse
    map recovers each draw's pool position so the comparison happens in
    rank space, where the analytic distribution lives.
    """
    tables = generator.tables
    position_of = [
        {int(row): position for position, row in enumerate(generator._hot_row_ids[t])}
        for t in range(tables.num_tables)
    ]
    in_top = 0
    total = 0
    while total < draws:
        for global_id in generator.query():
            table, row = tables.decode(global_id)
            if position_of[table][row] < k:
                in_top += 1
            total += 1
    return in_top / total


@pytest.mark.parametrize("seed", [0, 7, 1234])
@pytest.mark.parametrize("alpha,pool", [(1.05, 256), (1.65, 48)])
def test_top_k_mass_matches_analytic_zipf(seed, alpha, pool):
    tables = EmbeddingTableSet(
        num_tables=8, rows_per_table=10_000, vector_elements=4
    )
    generator = QueryGenerator(
        tables, query_len=8, skew=alpha, hot_rows=pool, seed=seed
    )
    for k in (1, 8, pool // 4):
        expected = analytic_top_k_mass(alpha, pool, k)
        observed = empirical_top_k_mass(generator, k, draws=12_000)
        assert observed == pytest.approx(expected, abs=0.02), (
            f"top-{k} mass drifted: analytic {expected:.4f}, "
            f"observed {observed:.4f} (alpha={alpha}, pool={pool}, seed={seed})"
        )


@pytest.mark.parametrize("seed", [0, 3])
def test_loadgen_requests_inherit_the_calibrated_skew(seed):
    """The serving load generator samples through the same Zipf machinery."""
    tables = EmbeddingTableSet(
        num_tables=8, rows_per_table=10_000, vector_elements=4
    )
    generator = QueryGenerator(
        tables, query_len=8, skew=1.05, hot_rows=256, seed=seed
    )
    load = OpenLoopGenerator(
        generator,
        stages=[RampStage(qps=2000.0, duration_us=400_000.0)],
        slo_us=1000.0,
        seed=seed,
    )
    position_of = [
        {int(row): position for position, row in enumerate(generator._hot_row_ids[t])}
        for t in range(tables.num_tables)
    ]
    k = 32
    in_top = 0
    total = 0
    for request in load.initial():
        for global_id in request.indices:
            table, row = tables.decode(global_id)
            if position_of[table][row] < k:
                in_top += 1
            total += 1
    assert total > 4000, "load generator produced too few draws to test"
    expected = analytic_top_k_mass(1.05, 256, k)
    assert in_top / total == pytest.approx(expected, abs=0.03)


def test_uniform_skew_is_actually_uniform():
    """skew=0 must not sneak Zipf mass in — the cache smoke's control arm."""
    tables = EmbeddingTableSet(
        num_tables=8, rows_per_table=10_000, vector_elements=4
    )
    generator = QueryGenerator(tables, query_len=8, skew=0.0, seed=5)
    rows = [
        tables.decode(global_id)[1]
        for _ in range(500)
        for global_id in generator.query()
    ]
    # Uniform over 10k rows: 4000 draws should rarely repeat any row often.
    _, counts = np.unique(rows, return_counts=True)
    assert counts.max() <= 6
