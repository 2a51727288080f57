"""Unit tests for memory geometry/timing configuration."""

import pytest

from repro.memory import DramEnergy, MemoryConfig, MemoryGeometry


class TestMemoryGeometry:
    def test_paper_target_has_32_ranks(self):
        geometry = MemoryConfig().geometry
        assert geometry.channels == 4
        assert geometry.ranks_per_channel == 8
        assert geometry.total_ranks == 32

    def test_locate_layout(self):
        """Channels take contiguous blocks of 8 ranks, DIMMs pairs."""
        geometry = MemoryGeometry()
        assert geometry.locate(0) == (0, 0, 0)
        assert geometry.locate(1) == (0, 0, 1)
        assert geometry.locate(2) == (0, 1, 0)
        assert geometry.locate(7) == (0, 3, 1)
        assert geometry.locate(8) == (1, 0, 0)
        assert geometry.locate(29) == (3, 2, 1)
        assert [geometry.locate(r) for r in range(geometry.total_ranks)] == [
            (c, d, r) for c in range(4) for d in range(4) for r in range(2)
        ]

    def test_locate_rejects_out_of_range(self):
        geometry = MemoryGeometry()
        with pytest.raises(ValueError):
            geometry.locate(geometry.total_ranks)
        with pytest.raises(ValueError):
            geometry.locate(-1)

    def test_dimm_of_groups_rank_pairs(self):
        geometry = MemoryGeometry()
        assert geometry.dimm_of(0) == geometry.dimm_of(1)
        assert geometry.dimm_of(0) != geometry.dimm_of(2)

    def test_channel_of_is_contiguous_blocks(self):
        geometry = MemoryGeometry()
        assert geometry.channel_of(0) == 0
        assert geometry.channel_of(7) == 0
        assert geometry.channel_of(8) == 1
        assert geometry.channel_of(31) == 3


class TestDramEnergy:
    def test_access_energy_scales_with_bursts_and_activates(self):
        energy = DramEnergy()
        base = energy.access_energy_pj(bursts=1, activates=0)
        assert energy.access_energy_pj(bursts=2, activates=0) == pytest.approx(2 * base)
        with_act = energy.access_energy_pj(bursts=1, activates=1)
        assert with_act > base

    def test_access_energy_rejects_negative(self):
        with pytest.raises(ValueError):
            DramEnergy().access_energy_pj(bursts=-1, activates=0)


class TestScaledConfig:
    def test_scaled_to_ranks_matches_request(self):
        base = MemoryConfig()
        for ranks in (2, 4, 8, 16, 32):
            scaled = base.scaled_to_ranks(ranks)
            assert scaled.geometry.total_ranks == ranks

    def test_scaled_uses_at_most_four_channels(self):
        scaled = MemoryConfig().scaled_to_ranks(32)
        assert scaled.geometry.channels == 4

    def test_small_rank_counts_use_fewer_channels(self):
        scaled = MemoryConfig().scaled_to_ranks(2)
        assert scaled.geometry.channels == 2
        assert scaled.geometry.total_ranks == 2

    def test_scaled_rejects_invalid(self):
        with pytest.raises(ValueError):
            MemoryConfig().scaled_to_ranks(0)
