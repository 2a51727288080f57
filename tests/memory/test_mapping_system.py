"""Tests for placement policies and the MemorySystem facade."""

import numpy as np
import pytest

from repro.memory import (
    ColumnMajorPlacement,
    MemoryConfig,
    MemorySystem,
    RowMajorPlacement,
    StreamPlacement,
)
from tests.dram_oracle import ReadRequest, to_columns, to_requests


@pytest.fixture
def config():
    return MemoryConfig()


class TestRowMajorPlacement:
    def test_single_request_per_vector(self, config):
        placement = RowMajorPlacement(config.geometry, vector_bytes=512)
        requests = to_requests(placement.reads_for([7]))
        assert placement.pieces_per_vector == 1
        assert len(requests) == 1
        assert requests[0].bytes_ == 512
        assert requests[0].rank == 7 % config.geometry.total_ranks

    def test_round_robin_home_ranks(self, config):
        placement = RowMajorPlacement(config.geometry, vector_bytes=512)
        total = config.geometry.total_ranks
        assert placement.home_rank(0) == 0
        assert placement.home_rank(total) == 0
        assert placement.home_rank(total + 3) == 3

    def test_consecutive_slots_share_rows(self, config):
        placement = RowMajorPlacement(config.geometry, vector_bytes=512)
        total = config.geometry.total_ranks
        first, second = to_requests(placement.reads_for([0, total]))  # rank 0's slots 0, 1
        assert (first.bank, first.row) == (second.bank, second.row)
        assert second.column == first.column + 512

    def test_locate_is_reads_for_on_arrays(self, config):
        placement = RowMajorPlacement(config.geometry, vector_bytes=64)
        ids = list(range(0, 300_000, 97)) + [2**40 + 5]
        reads = placement.reads_for(ids)
        located = placement.locate(np.array(ids, np.int64)).tolist()
        assert located == [reads.rank, reads.bank, reads.row, reads.column]

    def test_requests_stay_within_row(self, config):
        placement = RowMajorPlacement(config.geometry, vector_bytes=512)
        for vector_id in range(0, 4096, 37):
            for request in to_requests(placement.reads_for([vector_id])):
                assert request.column + request.bytes_ <= config.geometry.row_bytes

    def test_rejects_oversized_vector(self, config):
        with pytest.raises(ValueError):
            RowMajorPlacement(config.geometry, vector_bytes=config.geometry.row_bytes * 2)


class TestColumnMajorPlacement:
    def test_touches_every_rank(self, config):
        placement = ColumnMajorPlacement(config.geometry, vector_bytes=512)
        requests = to_requests(placement.reads_for([3]))
        assert len(requests) == placement.pieces_per_vector == config.geometry.total_ranks
        assert {r.rank for r in requests} == set(range(config.geometry.total_ranks))

    def test_slices_sum_to_vector(self, config):
        placement = ColumnMajorPlacement(config.geometry, vector_bytes=512)
        requests = to_requests(placement.reads_for([3]))
        assert sum(r.bytes_ for r in requests) == 512
        assert placement.slice_bytes == 512 // 32

    def test_has_no_home_rank(self, config):
        placement = ColumnMajorPlacement(config.geometry, vector_bytes=512)
        assert placement.home_rank(11) is None

    def test_rejects_indivisible_vector(self, config):
        with pytest.raises(ValueError):
            ColumnMajorPlacement(config.geometry, vector_bytes=100)


class TestStreamPlacement:
    def test_stream_splits_on_row_boundaries(self, config):
        stream = StreamPlacement(config.geometry, rank=5)
        row_bytes = config.geometry.row_bytes
        requests = to_requests(
            stream.stream_reads(start_byte=row_bytes - 100, total_bytes=300)
        )
        assert [r.bytes_ for r in requests] == [100, 200]
        assert requests[0].row != requests[1].row or requests[0].bank != requests[1].bank

    def test_stream_covers_extent_exactly(self, config):
        stream = StreamPlacement(config.geometry, rank=0)
        requests = to_requests(stream.stream_reads(0, 3 * config.geometry.row_bytes + 17))
        assert sum(r.bytes_ for r in requests) == 3 * config.geometry.row_bytes + 17

    def test_rejects_bad_extent(self, config):
        stream = StreamPlacement(config.geometry, rank=0)
        with pytest.raises(ValueError):
            stream.stream_reads(-1, 10)
        with pytest.raises(ValueError):
            stream.stream_reads(0, 0)


class TestMemorySystem:
    def test_channels_run_in_parallel(self, config):
        system = MemorySystem(config)
        # One 512 B read on each of the four channels.
        ranks = [0, 8, 16, 24]
        requests = [
            ReadRequest(rank=rank, bank=0, row=0, column=0, bytes_=512)
            for rank in ranks
        ]
        served, stats = system.execute(to_columns(requests))
        finishes = set(served.finish)
        assert len(finishes) == 1  # identical: fully parallel channels
        assert stats.reads == 4
        assert stats.ranks_touched == 4

    def test_same_channel_serialises_bus(self, config):
        system = MemorySystem(config)
        requests = [
            ReadRequest(rank=0, bank=0, row=0, column=0, bytes_=512),
            ReadRequest(rank=1, bank=0, row=0, column=0, bytes_=512),
        ]
        served, _ = system.execute(to_columns(requests))
        assert served.finish[1] > served.finish[0]

    def test_completions_in_request_order(self, config):
        system = MemorySystem(config)
        requests = [
            ReadRequest(rank=0, bank=0, row=0, column=0, bytes_=64, issue_cycle=100, tag="late"),
            ReadRequest(rank=0, bank=1, row=0, column=0, bytes_=64, issue_cycle=0, tag="early"),
        ]
        served, _ = system.execute(to_columns(requests))
        # The early read is served first, yet each column keeps batch order.
        assert served.finish[1] < served.finish[0]
        assert served.start[0] >= 100 > served.start[1]

    def test_reset_restores_cold_state(self, config):
        system = MemorySystem(config)
        request = ReadRequest(rank=0, bank=0, row=0, column=0, bytes_=64)
        first, _ = system.execute(to_columns([request]))
        again, _ = system.execute(to_columns([request]))
        assert again.row_hit[0]  # warm row buffer
        system.reset()
        cold, _ = system.execute(to_columns([request]))
        assert not cold.row_hit[0]

    def test_stats_row_hit_rate(self, config):
        system = MemorySystem(config)
        request = ReadRequest(rank=0, bank=0, row=0, column=0, bytes_=64)
        _, first = system.execute(to_columns([request, request, request]))
        assert first.row_hits == 2
        assert first.row_misses == 1
        assert first.row_hit_rate == pytest.approx(2 / 3)

    def test_stats_merge(self, config):
        system = MemorySystem(config)
        request = ReadRequest(rank=0, bank=0, row=0, column=0, bytes_=64)
        _, a = system.execute(to_columns([request]))
        _, b = system.execute(to_columns([request]))
        merged = a.merged_with(b)
        assert merged.reads == 2
        assert merged.per_rank_reads[0] == 2
        assert merged.finish_cycle == max(a.finish_cycle, b.finish_cycle)

    def test_energy_accounting_positive(self, config):
        system = MemorySystem(config)
        request = ReadRequest(rank=0, bank=0, row=0, column=0, bytes_=512)
        _, stats = system.execute(to_columns([request]))
        assert stats.bursts == 8
