"""Tests for the connection-count model (§III-D / §IV-A)."""

import pytest

from repro.hw import (
    ConnectionComparison,
    all_to_all_connections,
    fafnir_connections,
)


class TestConnectionCounts:
    def test_all_to_all_formula(self):
        assert all_to_all_connections(16, 4) == 64

    def test_fafnir_formula(self):
        """(2m − 2) + c from §IV-A."""
        assert fafnir_connections(16, 4) == 34

    def test_reference_system(self):
        """32 memory devices, 4 compute devices."""
        comparison = ConnectionComparison(memory_devices=32, compute_devices=4)
        assert comparison.all_to_all == 128
        assert comparison.fafnir == 66
        assert comparison.reduction_factor > 1.9

    def test_advantage_grows_with_scale(self):
        small = ConnectionComparison(8, 4).reduction_factor
        large = ConnectionComparison(64, 16).reduction_factor
        assert large > small

    def test_crossover(self):
        """For c > 2, the tree wins from m = 2 onward."""
        for compute in (4, 16):
            assert fafnir_connections(1, compute) == all_to_all_connections(1, compute)
            for memory in range(2, 65):
                assert fafnir_connections(memory, compute) < all_to_all_connections(
                    memory, compute
                )

    def test_validation(self):
        with pytest.raises(ValueError):
            all_to_all_connections(0, 4)
        with pytest.raises(ValueError):
            fafnir_connections(4, 0)
