"""Unit tests for bank row-buffer behaviour and channel scheduling, on the
object model in ``tests/dram_oracle.py`` (the column pass is held to it by
``test_dram_differential.py``)."""

import pytest

from repro.memory import DramTiming, MemoryConfig
from tests.dram_oracle import Bank, ChannelController, ReadRequest


@pytest.fixture
def timing():
    return DramTiming()


@pytest.fixture
def config():
    return MemoryConfig.small_test_system()


class TestBank:
    def test_first_access_activates(self, timing):
        bank = Bank(timing)
        outcome = bank.access(row=5, at_cycle=0, bursts=1)
        assert outcome.activated
        assert not outcome.row_hit
        assert outcome.data_ready == timing.tRCD + timing.tCAS

    def test_second_access_same_row_hits(self, timing):
        bank = Bank(timing)
        bank.access(row=5, at_cycle=0, bursts=1)
        outcome = bank.access(row=5, at_cycle=100, bursts=1)
        assert outcome.row_hit
        assert not outcome.activated
        assert outcome.data_ready == 100 + timing.tCAS

    def test_row_conflict_pays_precharge_and_activate(self, timing):
        bank = Bank(timing)
        bank.access(row=5, at_cycle=0, bursts=1)
        hit = bank.access(row=5, at_cycle=100, bursts=1)
        miss = bank.access(row=9, at_cycle=200, bursts=1)
        assert not miss.row_hit
        assert miss.activated
        conflict_latency = miss.data_ready - 200
        hit_latency = hit.data_ready - 100
        assert conflict_latency == hit_latency + timing.tRP + timing.tRCD

    def test_tras_delays_early_precharge(self, timing):
        bank = Bank(timing)
        bank.access(row=1, at_cycle=0, bursts=1)
        # Conflict immediately after activation must wait out tRAS.
        outcome = bank.access(row=2, at_cycle=timing.tRCD + 1, bursts=1)
        precharge_at = timing.tRCD + timing.tRAS
        expected = precharge_at + timing.tRP + timing.tRCD + timing.tCAS
        assert outcome.data_ready == expected

    def test_reset_clears_open_row(self, timing):
        bank = Bank(timing)
        bank.access(row=5, at_cycle=0, bursts=1)
        bank.reset()
        outcome = bank.access(row=5, at_cycle=0, bursts=1)
        assert not outcome.row_hit

    def test_back_to_back_reads_respect_tccd(self, timing):
        bank = Bank(timing)
        bank.access(row=5, at_cycle=0, bursts=4)
        outcome = bank.access(row=5, at_cycle=0, bursts=1)
        assert outcome.command_start >= 4 * timing.tCCD

    def test_rejects_nonpositive_bursts(self, timing):
        with pytest.raises(ValueError):
            Bank(timing).access(row=0, at_cycle=0, bursts=0)


class TestChannelController:
    def test_routes_only_its_channel(self, config):
        controller = ChannelController(0, config)
        bad_rank_channel = MemoryConfig()
        controller_q = ChannelController(0, bad_rank_channel)
        request = ReadRequest(rank=9, bank=0, row=0, column=0, bytes_=64)
        with pytest.raises(ValueError):
            controller_q.service(request)

    def test_rejects_row_spanning_request(self, config):
        controller = ChannelController(0, config)
        row_bytes = config.geometry.row_bytes
        request = ReadRequest(rank=0, bank=0, row=0, column=row_bytes - 32, bytes_=64)
        with pytest.raises(ValueError):
            controller.service(request)

    def test_single_read_latency_composition(self, config):
        controller = ChannelController(0, config)
        timing = config.timing
        completion = controller.service(
            ReadRequest(rank=0, bank=0, row=0, column=0, bytes_=64)
        )
        assert completion.bursts == 1
        assert completion.finish_cycle == timing.tRCD + timing.tCAS + timing.tBL
        assert not completion.row_hit

    def test_bus_serialises_parallel_banks(self, config):
        """Two reads to different banks overlap commands but share the bus."""
        controller = ChannelController(0, config)
        timing = config.timing
        first = controller.service(
            ReadRequest(rank=0, bank=0, row=0, column=0, bytes_=64)
        )
        second = controller.service(
            ReadRequest(rank=0, bank=1, row=0, column=0, bytes_=64)
        )
        # The second read's activate overlapped the first's, so it finishes
        # one burst after the first, not a full access later.
        assert second.finish_cycle == first.finish_cycle + timing.tBL

    def test_rank_switch_pays_trtrs(self, config):
        controller = ChannelController(0, config)
        timing = config.timing
        first = controller.service(
            ReadRequest(rank=0, bank=0, row=0, column=0, bytes_=64)
        )
        second = controller.service(
            ReadRequest(rank=1, bank=0, row=0, column=0, bytes_=64)
        )
        assert second.finish_cycle == first.finish_cycle + timing.tRTRS + timing.tBL

    def test_multi_burst_read_occupies_bus_longer(self, config):
        controller = ChannelController(0, config)
        timing = config.timing
        completion = controller.service(
            ReadRequest(rank=0, bank=0, row=0, column=0, bytes_=512)
        )
        assert completion.bursts == 8
        assert completion.finish_cycle == timing.tRCD + timing.tCAS + 8 * timing.tBL

    def test_service_all_orders_by_issue_cycle(self, config):
        controller = ChannelController(0, config)
        late = ReadRequest(rank=0, bank=0, row=0, column=0, bytes_=64, issue_cycle=500)
        early = ReadRequest(rank=0, bank=1, row=0, column=0, bytes_=64, issue_cycle=0)
        completions = controller.service_all([late, early])
        assert completions[0].request is early
        assert completions[1].request is late
