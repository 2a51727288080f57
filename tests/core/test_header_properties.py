"""Property-based tests (hypothesis) for the header algebra.

The PE oracle's ``Header`` implements the paper's (indices, queries)
bookkeeping as set algebra over frozensets; Python's ``set`` semantics are
the oracle.  The canonical entry ordering is load-bearing — the leaf folds
iterate entries in header order, so two headers built from the same sets in
different orders must be ``==``-equal or the differential event-stream
tests could never pass.  The engine orders a row's query ids by the
queries themselves (:func:`test_query_order_is_entry_order`).
"""

import pytest
from hypothesis import assume, given, settings, strategies as st

from repro.core import plan_batch
from tests.pe_oracle import Header, entry_sort_key, serving_lists, sorted_tuple

index_strategy = st.integers(min_value=0, max_value=200)
indices_strategy = st.frozensets(index_strategy, min_size=1, max_size=8)
entry_strategy = st.frozensets(index_strategy, max_size=6)
entries_strategy = st.lists(entry_strategy, min_size=1, max_size=8)


def _disjoint_entries(indices, entries):
    return [frozenset(entry) - indices for entry in entries]


@settings(max_examples=100, deadline=None)
@given(indices=indices_strategy, entries=entries_strategy)
def test_make_is_permutation_invariant(indices, entries):
    """Canonical ordering: entry submission order never matters."""
    entries = _disjoint_entries(indices, entries)
    forward = Header.make(indices, entries)
    backward = Header.make(indices, reversed(entries))
    assert forward == backward
    assert forward.entries == backward.entries


@settings(max_examples=100, deadline=None)
@given(indices=indices_strategy, entries=entries_strategy)
def test_make_deduplicates_and_orders_entries(indices, entries):
    entries = _disjoint_entries(indices, entries)
    header = Header.make(indices, entries + entries)
    assert set(header.entries) == {frozenset(e) for e in entries}
    assert len(header.entries) == len(set(header.entries))
    keys = [entry_sort_key(entry) for entry in header.entries]
    assert keys == sorted(keys)


@settings(max_examples=100, deadline=None)
@given(indices=indices_strategy, entries=entries_strategy)
def test_complete_and_pending_partition_entries(indices, entries):
    entries = _disjoint_entries(indices, entries)
    header = Header.make(indices, entries)
    assert set(header.complete_entries) | set(header.pending_entries) == set(
        header.entries
    )
    assert all(not entry for entry in header.complete_entries)
    assert all(entry for entry in header.pending_entries)
    # Dedup leaves at most one empty entry, so at most one completed query.
    assert len(header.complete_entries) <= 1
    assert header.completed_queries() == (
        (header.indices,) if header.complete_entries else ()
    )


@settings(max_examples=100, deadline=None)
@given(
    indices=indices_strategy,
    partner=indices_strategy,
    rest=entry_strategy,
)
def test_reduced_with_is_set_union_and_difference(indices, partner, rest):
    """Reduction folds the partner in: indices union, entry difference."""
    assume(partner.isdisjoint(indices))
    entry = frozenset(partner | rest) - indices
    header = Header.make(indices, [entry])
    entry = header.entries[0]
    reduced = header.reduced_with(partner, entry)
    assert reduced.indices == indices | partner
    assert reduced.entries == (entry - partner,)
    # The reduction made progress iff the partner contributed something.
    if partner:
        assert len(reduced.indices) > len(indices)


@settings(max_examples=100, deadline=None)
@given(indices=indices_strategy, entries=entries_strategy)
def test_merged_with_unions_entries(indices, entries):
    entries = _disjoint_entries(indices, entries)
    assume(entries)
    split = len(entries) // 2
    left = Header.make(indices, entries[: split + 1])
    right = Header.make(indices, entries[split:])
    merged = left.merged_with(right)
    assert merged.indices == indices
    assert set(merged.entries) == set(left.entries) | set(right.entries)
    # Merge is commutative thanks to canonical ordering.
    assert merged == right.merged_with(left)


@settings(max_examples=100, deadline=None)
@given(indices=indices_strategy, entries=entries_strategy)
def test_forwarded_preserves_single_entry(indices, entries):
    entries = _disjoint_entries(indices, entries)
    header = Header.make(indices, entries)
    for entry in header.entries:
        forwarded = header.forwarded(entry)
        assert forwarded.indices == header.indices
        assert forwarded.entries == (entry,)


@settings(max_examples=100, deadline=None)
@given(queries=st.lists(indices_strategy, min_size=1, max_size=6))
def test_initial_header_entries_are_query_remainders(queries):
    universe = sorted(set().union(*queries))
    for unique_index in universe:
        header = Header.initial(unique_index, queries)
        assert header.indices == frozenset({unique_index})
        expected = {
            frozenset(query) - {unique_index}
            for query in queries
            if unique_index in query
        }
        assert set(header.entries) == expected


@settings(max_examples=100, deadline=None)
@given(indices=indices_strategy)
def test_sorted_tuple_matches_sorted(indices):
    assert sorted_tuple(indices) == tuple(sorted(indices))


@settings(max_examples=200, deadline=None)
@given(
    common=st.frozensets(index_strategy, min_size=1, max_size=4),
    queries=st.lists(indices_strategy, min_size=1, max_size=8),
)
def test_query_order_is_entry_order(common, queries):
    """Dropping the indices a header already holds keeps the canonical order.

    For queries that all contain ``common``, sorting them by
    ``(len(q), sorted(q))`` sorts their entries ``q − common`` by
    :func:`entry_sort_key`: the common part shifts every length alike and
    never decides a comparison.  So the engine sorts a batch's queries once
    and every leaf-FIFO row and fold merge lists its query ids in header
    order.
    """
    queries = list({query | common for query in queries})
    by_query = sorted(queries, key=lambda q: (len(q), sorted(q)))
    by_entry = sorted(queries, key=lambda q: entry_sort_key(q - common))
    assert by_query == by_entry


@settings(max_examples=100, deadline=None)
@given(queries=st.lists(indices_strategy, min_size=1, max_size=8))
def test_plan_rows_follow_initial_headers(queries):
    """A deduplicated plan's row for each unique index serves exactly the
    queries of its initial header, in the header's entry order."""
    plan = plan_batch(queries)
    for index in plan.unique_indices:
        (ids,) = serving_lists(plan)[index]
        header = Header.initial(index, queries)
        assert [plan.distinct[q] - {index} for q in ids] == list(header.entries)


class TestHeaderValidation:
    def test_rejects_empty_indices(self):
        with pytest.raises(ValueError, match="at least one index"):
            Header.make([], [[1]])

    def test_rejects_overlapping_entry(self):
        with pytest.raises(ValueError, match="overlaps"):
            Header(indices=frozenset({1}), entries=(frozenset({1, 2}),))

    def test_reduced_with_rejects_foreign_entry(self):
        header = Header.make({1}, [[2, 3]])
        with pytest.raises(ValueError, match="does not belong"):
            header.reduced_with(frozenset({2}), frozenset({9}))

    def test_reduced_with_rejects_uncontained_partner(self):
        header = Header.make({1}, [[2, 3]])
        with pytest.raises(ValueError, match="not contained"):
            header.reduced_with(frozenset({4}), header.entries[0])

    def test_merged_with_rejects_different_indices(self):
        with pytest.raises(ValueError, match="equal indices"):
            Header.make({1}, [[2]]).merged_with(Header.make({2}, [[3]]))
