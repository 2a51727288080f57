"""Tests for periodic-refresh modelling."""

import dataclasses

import pytest

from repro.memory import DramTiming, MemoryConfig, MemorySystem, ReadColumns


def refresh_config():
    base = MemoryConfig.small_test_system()
    return MemoryConfig(
        geometry=base.geometry,
        timing=dataclasses.replace(base.timing, refresh_enabled=True),
        energy=base.energy,
    )


def one_read(rank, issue_cycle=0):
    reads = ReadColumns()
    reads.append(rank, 0, 0, 0, 64, issue_cycle)
    return reads


class TestRefresh:
    def test_disabled_by_default(self):
        assert not DramTiming().refresh_enabled

    def test_request_in_blackout_is_delayed(self):
        system = MemorySystem(refresh_config())
        timing = system.config.timing
        # Rank 0's blackout starts at cycle 0 (offset 0).
        served, _ = system.execute(one_read(rank=0, issue_cycle=0))
        assert served.finish[0] >= timing.tRFC

    def test_request_outside_blackout_unaffected(self):
        plain = MemorySystem(MemoryConfig.small_test_system())
        refreshing = MemorySystem(refresh_config())
        timing = plain.config.timing
        safe_cycle = timing.tRFC + 100  # past rank 0's blackout
        a, _ = plain.execute(one_read(rank=0, issue_cycle=safe_cycle))
        b, _ = refreshing.execute(one_read(rank=0, issue_cycle=safe_cycle))
        assert a.finish == b.finish

    def test_blackouts_staggered_across_ranks(self):
        system = MemorySystem(refresh_config())
        timing = system.config.timing
        # At cycle 0, rank 0 is refreshing but a later-offset rank is not.
        c0, _ = system.execute(one_read(rank=0))
        system.reset()
        c3, _ = system.execute(one_read(rank=3))
        assert c0.finish[0] > c3.finish[0]

    def test_blackout_recurs_every_trefi(self):
        system = MemorySystem(refresh_config())
        timing = system.config.timing
        served, _ = system.execute(one_read(rank=0, issue_cycle=timing.tREFI + 1))
        assert served.start[0] >= timing.tREFI + timing.tRFC
