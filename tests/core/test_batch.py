"""Tests for host-side batch preprocessing (paper §IV-C)."""

import pytest

from repro.core import plan_batch, normalize_queries
from tests.pe_oracle import serving_lists


PAPER_QUERIES = [
    {11, 32, 83, 77},   # query a
    {50, 83, 94},       # query b
    {50, 11, 94, 26},   # query c
    {32, 83, 26},       # query d
]


class TestNormalize:
    def test_collapses_duplicates_within_query(self):
        queries = normalize_queries([[3, 3, 5]])
        assert queries == (frozenset({3, 5}),)

    def test_keeps_duplicate_queries_across_batch(self):
        queries = normalize_queries([[1, 2], [1, 2]])
        assert len(queries) == 2

    def test_rejects_empty_batch(self):
        with pytest.raises(ValueError, match="at least one query"):
            normalize_queries([])

    def test_rejects_empty_query(self):
        with pytest.raises(ValueError, match="query 1 is empty"):
            normalize_queries([[1], []])

    def test_rejects_negative_index(self):
        with pytest.raises(ValueError, match="negative"):
            normalize_queries([[1, -2]])

    def test_enforces_max_query_len(self):
        with pytest.raises(ValueError, match="exceeding"):
            normalize_queries([[1, 2, 3]], max_query_len=2)


class TestPlanBatch:
    def test_paper_example_reads_seven_unique_indices(self):
        """§IV-C: 'instead of a total of 14 memory accesses, we access seven
        unique ones: 50, 11, 32, 83, 94, 26, 77'."""
        plan = plan_batch(PAPER_QUERIES)
        assert plan.total_lookups == 14
        assert plan.unique_indices == (11, 26, 32, 50, 77, 83, 94)
        assert len(plan.reads) == 7
        assert plan.accesses_saved == 7
        assert plan.unique_fraction == pytest.approx(0.5)

    def test_paper_example_header_for_index_11(self):
        """Fig. 6b: index 11's header lists queries a and c; its one read
        serves them in canonical order — c's (11, 26, 50, 94) before a's
        (11, 32, 77, 83)."""
        plan = plan_batch(PAPER_QUERIES)
        assert serving_lists(plan)[11] == [(2, 0)]
        assert [plan.distinct[q] - {11} for q in serving_lists(plan)[11][0]] == [
            frozenset({50, 94, 26}),
            frozenset({32, 83, 77}),
        ]

    def test_no_dedup_reads_every_occurrence(self):
        plan = plan_batch(PAPER_QUERIES, deduplicate=False)
        assert len(plan.reads) == 14
        assert plan.accesses_saved == 0
        # Each read occurrence serves one query, in submission order.
        assert set(serving_lists(plan)) == set(plan.unique_indices)
        for index in plan.unique_indices:
            assert serving_lists(plan)[index] == [
                (q,) for q, query in enumerate(plan.queries) if index in query
            ]
            assert len(serving_lists(plan)[index]) == plan.reads.count(index)

    def test_disjoint_batch_has_unit_fraction(self):
        plan = plan_batch([[0, 1], [2, 3]])
        assert plan.unique_fraction == 1.0
        assert plan.accesses_saved == 0

    def test_fully_shared_batch(self):
        plan = plan_batch([[4, 9]] * 8)
        assert len(plan.unique_indices) == 2
        assert plan.unique_fraction == pytest.approx(2 / 16)

    def test_header_built_for_every_unique_index(self):
        """Each unique index's one row serves exactly the distinct queries
        containing it, by length and then sorted indices."""
        queries = PAPER_QUERIES + [{83, 94, 50}, {7}]  # a repeat and a singleton
        plan = plan_batch(queries)
        assert plan.distinct == tuple(map(frozenset, PAPER_QUERIES + [{7}]))
        assert plan.query_ids == (0, 1, 2, 3, 1, 4)
        assert set(serving_lists(plan)) == set(plan.unique_indices)
        for index in plan.unique_indices:
            (ids,) = serving_lists(plan)[index]
            users = [q for q in plan.distinct if index in q]
            assert [plan.distinct[q] for q in ids] == sorted(
                users, key=lambda q: (len(q), sorted(q))
            )
