"""Tests for the PE compute/merge semantics, anchored to the paper's Fig. 6.

The per-message PE here is the test-side oracle (``tests/pe_oracle.py``);
the engine's closed-form sweep is held equal to it by the differential
suites.
"""

import numpy as np
import pytest

from repro.core import FafnirConfig, FafnirEngine, SUM
from repro.core.pe import PEWork
from tests.pe_oracle import Header, Message, ProcessingElement


def fs(*items):
    return frozenset(items)


@pytest.fixture
def config():
    return FafnirConfig(batch_size=8, total_ranks=8, ranks_per_leaf_pe=2)


@pytest.fixture
def pe(config):
    return ProcessingElement(config, SUM, check_values=True)


def msg(indices, entries, value, ready=0):
    return Message(Header.make(indices, entries), np.full(4, float(value)), ready_cycle=ready)


class TestForwardReduce:
    def test_reduce_when_partner_contained_in_entry(self, pe):
        a = msg({50}, [{11, 94, 26}], 1.0)
        b = msg({11}, [{50, 94, 26}], 2.0)
        result = pe.process([a], [b])
        reduced = [m for m in result.outputs if m.indices == fs(50, 11)]
        assert len(reduced) == 1
        assert reduced[0].entries == (fs(94, 26),)
        assert np.allclose(reduced[0].value, 3.0)

    def test_forward_when_no_partner_matches(self, pe):
        a = msg({50}, [{83, 94}], 1.0)
        b = msg({11}, [{32}], 2.0)
        result = pe.process([a], [b])
        indices_sets = {m.indices for m in result.outputs}
        assert indices_sets == {fs(50), fs(11)}
        assert result.work.reduces == 0
        assert result.work.forwards == 2

    def test_empty_input_forwards_everything(self, pe):
        """Fig. 6: 'in PE (4|15), only one of the inputs exists, which
        automatically leads to a forward action'."""
        a = msg({94}, [{50, 11, 26}], 5.0)
        result = pe.process([a], [])
        assert len(result.outputs) == 1
        assert result.outputs[0].indices == fs(94)
        assert result.work.reduces == 0

    def test_complete_entries_always_travel_up(self, pe):
        done = msg({1, 2}, [set()], 3.0)
        other = msg({9}, [{4}], 1.0)
        result = pe.process([done], [other])
        complete = [m for m in result.outputs if m.header.complete_entries]
        assert len(complete) == 1
        assert complete[0].indices == fs(1, 2)

    def test_both_directions_discover_same_reduction_once_after_merge(self, pe):
        a = msg({50}, [{11}], 1.0)
        b = msg({11}, [{50}], 2.0)
        result = pe.process([a], [b])
        # Raw outputs contained the reduction twice; merge dedups it.
        assert result.work.duplicates_removed >= 1
        reduced = [m for m in result.outputs if m.indices == fs(50, 11)]
        assert len(reduced) == 1
        assert reduced[0].header.complete_entries == (fs(),)


class TestPaperFig6PE23:
    """The PE (2|3) walk-through: five raw outputs, two merged items."""

    def outputs(self, pe):
        a = msg({32}, [{11, 83, 77}, {83, 26}], 1.0)   # index 32: queries a, d
        b = msg({83}, [{11, 32, 77}, {50, 94}, {32, 26}], 2.0)  # queries a, b, d
        return pe.process([a], [b])

    def test_five_raw_actions(self, pe):
        result = self.outputs(pe)
        # 4 reduces (two per direction) + 1 forward of the {50,94} entry.
        assert result.work.reduces == 4
        assert result.work.forwards == 1

    def test_two_merged_outputs(self, pe):
        result = self.outputs(pe)
        assert len(result.outputs) == 2
        by_indices = {m.indices: m for m in result.outputs}
        merged = by_indices[fs(32, 83)]
        assert set(merged.entries) == {fs(11, 77), fs(26)}
        assert np.allclose(merged.value, 3.0)
        forwarded = by_indices[fs(83)]
        assert forwarded.entries == (fs(50, 94),)
        assert np.allclose(forwarded.value, 2.0)

    def test_merge_counts(self, pe):
        result = self.outputs(pe)
        assert result.work.merges == 1          # the {32,83} group
        assert result.work.duplicates_removed == 2


class TestTiming:
    def test_reduce_output_ready_after_reduce_path(self, pe, config):
        a = msg({1}, [{2}], 1.0, ready=100)
        b = msg({2}, [{1}], 2.0, ready=40)
        result = pe.process([a], [b])
        reduced = [m for m in result.outputs if m.indices == fs(1, 2)][0]
        assert reduced.ready_cycle == 100 + config.latencies.reduce_path

    def test_forward_output_ready_after_forward_path(self, pe, config):
        a = msg({1}, [{9}], 1.0, ready=10)
        result = pe.process([a], [])
        assert result.outputs[0].ready_cycle == 10 + config.latencies.forward_path

    def test_issue_limit_staggers_excess_outputs(self):
        config = FafnirConfig(batch_size=2, total_ranks=8, ranks_per_leaf_pe=2)
        pe = ProcessingElement(config, SUM)
        # Four independent forwards with equal readiness but only 2 units.
        inputs = [msg({i}, [{100 + i}], 1.0, ready=0) for i in range(4)]
        result = pe.process(inputs, [])
        ready = sorted(m.ready_cycle for m in result.outputs)
        base = config.latencies.forward_path
        assert ready == [base, base, base + 1, base + 1]

    def test_merge_takes_latest_contributor(self, pe, config):
        a = msg({32}, [{83}, {83, 26}], 1.0, ready=0)
        b = msg({83}, [{32}, {32, 26}], 2.0, ready=50)
        result = pe.process([a], [b])
        merged = [m for m in result.outputs if m.indices == fs(32, 83)][0]
        assert merged.ready_cycle >= 50 + config.latencies.reduce_path


class TestMergeUnitInvariant:
    def test_check_values_raises_on_inconsistent_merge(self, config):
        pe = ProcessingElement(config, SUM, check_values=True)
        # Hand-craft two raw-output-equivalent inputs that would merge with
        # different values: same indices cannot legally carry different data,
        # so feed messages that trigger it through the public API.
        a1 = msg({1}, [{2}], 10.0)
        a2 = msg({1}, [{2, 3}], 99.0)  # corrupt: same index, different value
        b = msg({2}, [{1}, {1, 3}], 1.0)
        with pytest.raises(AssertionError, match="merge-unit invariant"):
            pe.process([a1, a2], [b])


class TestFoldStream:
    def test_non_interacting_stream_is_identity(self, pe):
        work = PEWork()
        stream = [msg({1}, [{5}], 1.0, ready=3), msg({2}, [{9}], 2.0, ready=7)]
        folded = pe.fold_stream(stream, work)
        assert {m.indices for m in folded} == {fs(1), fs(2)}
        assert {m.ready_cycle for m in folded} == {3, 7}
        assert work.reduces == 0

    def test_same_fifo_pair_combines(self, pe, config):
        work = PEWork()
        stream = [
            msg({1}, [{2}], 1.0, ready=0),
            msg({2}, [{1}], 2.0, ready=10),
        ]
        folded = pe.fold_stream(stream, work)
        by_indices = {m.indices: m for m in folded}
        assert fs(1, 2) in by_indices
        combined = by_indices[fs(1, 2)]
        assert np.allclose(combined.value, 3.0)
        assert combined.ready_cycle == 10 + config.latencies.reduce_path
        assert work.reduces >= 1

    def test_originals_survive_for_other_queries(self, pe):
        work = PEWork()
        stream = [
            msg({1}, [{2}, {7}], 1.0),   # query {1,2} and query {1,7}
            msg({2}, [{1}], 2.0),
        ]
        folded = pe.fold_stream(stream, work)
        by_indices = {m.indices: m for m in folded}
        assert fs(1, 2) in by_indices           # combined for query {1,2}
        assert fs(1) in by_indices              # original for query {1,7}
        assert fs(7) in by_indices[fs(1)].entries

    def test_triple_chain_closure(self, pe):
        work = PEWork()
        stream = [
            msg({1}, [{2, 3}], 1.0),
            msg({2}, [{1, 3}], 2.0),
            msg({3}, [{1, 2}], 4.0),
        ]
        folded = pe.fold_stream(stream, work)
        by_indices = {m.indices: m for m in folded}
        assert fs(1, 2, 3) in by_indices
        full = by_indices[fs(1, 2, 3)]
        assert np.allclose(full.value, 7.0)
        assert full.header.complete_entries == (fs(),)


class TestOutputBound:
    def test_every_pe_within_the_paper_bound(self, monkeypatch):
        """§IV-B: a PE emits at most min(nm + n + m, B) messages.

        The batch has ``offline-uniform``'s shape — 128 queries of 64
        lookups on 64 ranks — so a query has several indices on most leaf
        FIFOs, and an entry the leaf fold consumed but left buffered would
        climb the tree and push PEs past B.  The message counts come from
        the sweep's id tables: a PE's inputs are its children's distinct
        ids, its outputs its own.
        """
        config = FafnirConfig(
            batch_size=128, max_query_len=64, total_ranks=64, num_tables=64
        )
        rng = np.random.default_rng(1)
        queries = [
            rng.choice(8192, size=64, replace=False).tolist() for _ in range(128)
        ]
        results = []
        run = FafnirEngine._sweep

        def recording(self, *args):
            swept = run(self, *args)
            results.extend(swept)
            return swept

        monkeypatch.setattr(FafnirEngine, "_sweep", recording)
        engine = FafnirEngine(config=config)
        engine.run_batch(queries, lambda index: np.full(128, float(index)))
        (result,) = results

        def messages(table, column):
            ids = table[:, column]
            return len(np.unique(ids[ids >= 0]))

        checked = []
        for children, table in zip(result.ids, result.ids[1:]):
            for node in range(table.shape[1]):
                n = messages(children, 2 * node)
                m = messages(children, 2 * node + 1)
                bound = min(n * m + n + m, config.batch_size)
                checked.append((messages(table, node), bound))
        assert len(checked) == 63
        assert [(n, bound) for n, bound in checked if n > bound] == []
        # Bottom-up order ends at the root: one finished answer per query.
        assert checked[-1][0] == len(queries)

    def test_bound_caps_at_batch_size(self, pe, config):
        assert pe.theoretical_output_bound(1, 2) == 1 * 2 + 1 + 2
        assert pe.theoretical_output_bound(2, 3) == config.batch_size
