"""Tests for clock-domain conversion."""

import numpy as np
import pytest

from repro.clocks import (
    CPU_CLOCK,
    Clock,
    DRAM_CLOCK,
    PE_CLOCK,
    convert_cycles,
    convert_cycles_array,
)


class TestClock:
    def test_period(self):
        assert Clock(200.0).period_ns == pytest.approx(5.0)
        assert Clock(1200.0).period_ns == pytest.approx(1 / 1.2)

    def test_cycles_to_ns(self):
        assert PE_CLOCK.cycles_to_ns(200) == pytest.approx(1000.0)

    def test_ns_to_cycles_rounds_up(self):
        assert PE_CLOCK.ns_to_cycles(5.0) == 1
        assert PE_CLOCK.ns_to_cycles(5.1) == 2
        assert PE_CLOCK.ns_to_cycles(0.0) == 0

    def test_round_trip_is_conservative(self):
        for cycles in (1, 7, 100, 12345):
            ns = DRAM_CLOCK.cycles_to_ns(cycles)
            assert DRAM_CLOCK.ns_to_cycles(ns) == cycles

    def test_validation(self):
        with pytest.raises(ValueError):
            Clock(0)
        with pytest.raises(ValueError):
            PE_CLOCK.cycles_to_ns(-1)
        with pytest.raises(ValueError):
            PE_CLOCK.ns_to_cycles(-1)


class TestConvertCycles:
    def test_dram_to_pe_is_six_to_one(self):
        """1200 MHz DRAM controller cycles → 200 MHz PE cycles."""
        assert convert_cycles(6, DRAM_CLOCK, PE_CLOCK) == 1
        assert convert_cycles(7, DRAM_CLOCK, PE_CLOCK) == 2
        assert convert_cycles(600, DRAM_CLOCK, PE_CLOCK) == 100

    def test_pe_to_dram(self):
        assert convert_cycles(1, PE_CLOCK, DRAM_CLOCK) == 6

    def test_identity(self):
        assert convert_cycles(42, CPU_CLOCK, CPU_CLOCK) == 42


class TestConvertCyclesArray:
    """The array form equals the scalar conversion element for element."""

    @pytest.mark.parametrize(
        "source, target",
        [(DRAM_CLOCK, PE_CLOCK), (Clock(933.0), PE_CLOCK)],
        ids=["default", "933-to-200MHz"],
    )
    def test_every_dram_cycle_matches_scalar(self, source, target):
        cycles = range(2_000_001)
        scalar = [convert_cycles(cycle, source, target) for cycle in cycles]
        converted = convert_cycles_array(np.arange(2_000_001), source, target)
        assert converted.dtype == np.int64
        assert converted.tolist() == scalar

    def test_exact_multiples_do_not_round_up(self):
        """The ``- 1e-9`` edge: a whole number of target cycles stays whole."""
        multiples = np.arange(0, 2_000_001, 6)
        converted = convert_cycles_array(multiples, DRAM_CLOCK, PE_CLOCK)
        assert converted.tolist() == (multiples // 6).tolist()

    def test_negative_cycles_raise(self):
        with pytest.raises(ValueError):
            convert_cycles_array(np.array([3, -1]), DRAM_CLOCK, PE_CLOCK)
        with pytest.raises(ValueError):
            convert_cycles_array([-5], Clock(933.0), PE_CLOCK)

    def test_empty(self):
        assert convert_cycles_array([], DRAM_CLOCK, PE_CLOCK).tolist() == []
