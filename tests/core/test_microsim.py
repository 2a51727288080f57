"""Tests for the cycle-stepped PE microsimulation."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core import FafnirConfig, SUM
from tests.pe_microsim import PEMicrosim
from tests.pe_oracle import Header, Message, ProcessingElement


def fs(*items):
    return frozenset(items)


def msg(indices, entries, value, ready=0):
    return Message(
        Header.make(indices, entries), np.full(4, float(value)), ready_cycle=ready
    )


@pytest.fixture
def config():
    return FafnirConfig(batch_size=8, total_ranks=8, ranks_per_leaf_pe=2)


class TestMicrosimBasics:
    def test_single_reduce_pair(self, config):
        sim = PEMicrosim(config, SUM)
        report = sim.run([msg({1}, [{2}], 1.0)], [msg({2}, [{1}], 2.0)])
        by_indices = {m.indices: m for m in report.outputs}
        assert fs(1, 2) in by_indices
        assert np.allclose(by_indices[fs(1, 2)].value, 3.0)
        assert report.comparisons == 2  # one per direction

    def test_forward_when_no_match(self, config):
        sim = PEMicrosim(config, SUM)
        report = sim.run([msg({1}, [{9}], 1.0)], [msg({2}, [{8}], 2.0)])
        assert {m.indices for m in report.outputs} == {fs(1), fs(2)}

    def test_empty_side_bypasses_units(self, config):
        sim = PEMicrosim(config, SUM)
        report = sim.run([msg({1, 2}, [set()], 3.0)], [])
        assert len(report.outputs) == 1
        assert report.outputs[0].header.complete_entries == (fs(),)

    def test_latency_includes_scan_and_paths(self, config):
        """One A-task scanning 3 partners decides after 3 cycles, then pays
        the reduce path, then one merge-retire cycle."""
        sim = PEMicrosim(config, SUM)
        partners = [msg({10 + i}, [{99}], 1.0) for i in range(2)] + [
            msg({2}, [{1}], 2.0)
        ]
        report = sim.run([msg({1}, [{2}], 1.0)], partners)
        reduced = [m for m in report.outputs if m.indices == fs(1, 2)][0]
        scan = 3
        expected_min = scan + config.latencies.reduce_path + 1
        assert reduced.ready_cycle >= expected_min

    def test_merge_unit_serialises_retirements(self, config):
        sim = PEMicrosim(config, SUM)
        input_a = [msg({i}, [{100 + i}], 1.0) for i in range(6)]
        report = sim.run(input_a, [])
        retire_cycles = sorted(m.ready_cycle for m in report.outputs)
        assert len(set(retire_cycles)) == len(retire_cycles)  # 1/cycle

    def test_utilization_bounded(self, config):
        sim = PEMicrosim(config, SUM)
        input_a = [msg({i}, [{50 + i}], 1.0) for i in range(4)]
        input_b = [msg({50 + i}, [{i}], 2.0) for i in range(4)]
        report = sim.run(input_a, input_b)
        assert 0.0 < report.unit_utilization <= 1.0


class TestCrossValidation:
    """The microsim must agree with the coarse PE model functionally and
    bracket it in timing."""

    entries_strategy = st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=5),
            st.lists(st.integers(min_value=6, max_value=11), min_size=0, max_size=3),
        ),
        min_size=1,
        max_size=4,
    )

    @staticmethod
    def build_inputs(spec_a, spec_b):
        # A-side indices live in 0..5 and reference B-side indices (6..11)
        # in their entries; B-side is the mirror image.
        input_a = [
            msg({index}, [set(rest)], index + 1.0) for index, rest in spec_a
        ]
        input_b = [
            msg({index + 6}, [{r - 6 for r in rest}], index + 10.0)
            for index, rest in spec_b
        ]
        return input_a, input_b

    @settings(max_examples=40, deadline=None)
    @given(spec_a=entries_strategy, spec_b=entries_strategy)
    def test_same_output_headers_as_coarse_pe(self, spec_a, spec_b):
        config = FafnirConfig(batch_size=8, total_ranks=8, ranks_per_leaf_pe=2)
        input_a, input_b = self.build_inputs(spec_a, spec_b)
        coarse = ProcessingElement(config, SUM).process(
            [Message(m.header, m.value) for m in input_a],
            [Message(m.header, m.value) for m in input_b],
        )
        micro = PEMicrosim(config, SUM).run(input_a, input_b)

        def signature(messages):
            return {
                (m.indices, frozenset(m.entries)) for m in messages
            }

        assert signature(coarse.outputs) == signature(micro.outputs)

    @settings(max_examples=25, deadline=None)
    @given(spec_a=entries_strategy, spec_b=entries_strategy)
    def test_micro_latency_at_least_coarse(self, spec_a, spec_b):
        """The coarse model's per-message stage latency is a lower bound on
        the microarchitectural timing (scan + merge serialisation add up)."""
        config = FafnirConfig(batch_size=8, total_ranks=8, ranks_per_leaf_pe=2)
        input_a, input_b = self.build_inputs(spec_a, spec_b)
        coarse = ProcessingElement(config, SUM).process(
            [Message(m.header, m.value) for m in input_a],
            [Message(m.header, m.value) for m in input_b],
        )
        micro = PEMicrosim(config, SUM).run(input_a, input_b)
        coarse_latest = max(m.ready_cycle for m in coarse.outputs)
        micro_latest = max(m.ready_cycle for m in micro.outputs)
        assert micro_latest >= coarse_latest - 1


class TestScaling:
    def test_more_units_never_slower(self, config):
        input_a = [msg({i}, [{20 + i}], 1.0) for i in range(8)]
        input_b = [msg({20 + i}, [{i}], 2.0) for i in range(8)]
        few = PEMicrosim(
            FafnirConfig(batch_size=2, total_ranks=8, ranks_per_leaf_pe=2), SUM
        ).run(input_a, input_b)
        many = PEMicrosim(
            FafnirConfig(batch_size=16, max_query_len=16, total_ranks=8,
                         ranks_per_leaf_pe=2),
            SUM,
        ).run(input_a, input_b)
        assert many.finish_cycle <= few.finish_cycle
