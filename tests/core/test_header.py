"""Tests for the header algebra (paper §IV-B/C), the PE oracle's message
model (``tests/pe_oracle.py``)."""

import numpy as np
import pytest

from tests.pe_oracle import Header, Message


def fs(*items):
    return frozenset(items)


class TestHeaderConstruction:
    def test_make_canonicalises_and_dedupes_entries(self):
        header = Header.make({50}, [{94, 83}, {83, 94}, {26}])
        assert header.indices == fs(50)
        assert header.entries == (fs(26), fs(83, 94))

    def test_rejects_empty_indices(self):
        with pytest.raises(ValueError):
            Header.make([], [[1]])

    def test_rejects_entry_overlapping_indices(self):
        with pytest.raises(ValueError):
            Header.make({5}, [{5, 6}])

    def test_initial_header_from_paper_example(self):
        """Fig. 6b: for unique index 11 the queries field holds the other
        indices of query a and query c."""
        query_a = {11, 32, 83, 77}
        query_c = {50, 11, 94, 26}
        header = Header.initial(11, [query_a, query_c])
        assert header.indices == fs(11)
        assert set(header.entries) == {fs(32, 83, 77), fs(50, 94, 26)}

    def test_initial_header_rejects_unused_index(self):
        with pytest.raises(ValueError):
            Header.initial(99, [{1, 2}, {3}])

    def test_initial_header_singleton_query_yields_empty_entry(self):
        header = Header.initial(7, [{7}])
        assert header.entries == (fs(),)
        assert header.complete_entries == (fs(),)


class TestHeaderAlgebra:
    def test_reduced_with_moves_indices_from_queries(self):
        """Paper Fig. 6c: reducing [50 | 11,94,26] with index 11 yields
        [50,11 | 94,26]."""
        header = Header.make({50}, [{83, 94}, {11, 94, 26}])
        reduced = header.reduced_with(fs(11), fs(11, 94, 26))
        assert reduced.indices == fs(50, 11)
        assert reduced.entries == (fs(94, 26),)

    def test_reduced_with_rejects_foreign_entry(self):
        header = Header.make({50}, [{83, 94}])
        with pytest.raises(ValueError):
            header.reduced_with(fs(11), fs(11, 94))

    def test_reduced_with_rejects_non_subset_partner(self):
        header = Header.make({50}, [{83, 94}])
        with pytest.raises(ValueError):
            header.reduced_with(fs(11), fs(83, 94))

    def test_reduction_to_completion(self):
        header = Header.make({50, 11}, [{94, 26}])
        done = header.reduced_with(fs(94, 26), fs(94, 26))
        assert done.indices == fs(50, 11, 94, 26)
        assert done.complete_entries == (fs(),)
        assert done.completed_queries() == (fs(50, 11, 94, 26),)

    def test_forwarded_keeps_single_entry(self):
        header = Header.make({50}, [{83, 94}, {11, 94, 26}])
        forwarded = header.forwarded(fs(83, 94))
        assert forwarded.indices == fs(50)
        assert forwarded.entries == (fs(83, 94),)

    def test_merged_with_concatenates_entries(self):
        """Fig. 6d: [32,83 | 11,77] merged with [32,83 | 26] becomes
        [32,83 | 11,77 | 26]."""
        first = Header.make({32, 83}, [{11, 77}])
        second = Header.make({32, 83}, [{26}])
        merged = first.merged_with(second)
        assert merged.indices == fs(32, 83)
        assert set(merged.entries) == {fs(11, 77), fs(26)}

    def test_merged_with_rejects_different_indices(self):
        with pytest.raises(ValueError):
            Header.make({1}, [{2}]).merged_with(Header.make({3}, [{2}]))

    def test_pending_vs_complete_entries(self):
        header = Header.make({5}, [set(), {7}])
        assert header.complete_entries == (fs(),)
        assert header.pending_entries == (fs(7),)

    def test_header_bits_matches_paper_budget(self):
        """q=16 slots of 5-bit ids → 80 bits (the paper's 10 B header)."""
        header = Header.make({1}, [{2}])
        assert header.header_bits(index_bits=5, max_query_len=16) == 80

    def test_repr_is_readable(self):
        header = Header.make({50, 11}, [{94, 26}])
        text = repr(header)
        assert "indices:11,50" in text
        assert "queries:" in text


class TestMessage:
    def test_value_coerced_to_float64(self):
        message = Message(Header.make({1}, [set()]), [1, 2, 3])
        assert message.value.dtype == np.float64

    def test_negative_ready_cycle_rejected(self):
        with pytest.raises(ValueError):
            Message(Header.make({1}, [set()]), [1.0], ready_cycle=-1)
