"""Property-based tests for the memory substrate."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.memory import (
    ColumnMajorPlacement,
    DramTiming,
    MemoryConfig,
    MemorySystem,
    RowMajorPlacement,
)
from tests.dram_oracle import Bank, ReadRequest, to_columns, to_requests


request_strategy = st.builds(
    ReadRequest,
    rank=st.integers(min_value=0, max_value=3),
    bank=st.integers(min_value=0, max_value=15),
    row=st.integers(min_value=0, max_value=63),
    column=st.just(0),
    bytes_=st.sampled_from([64, 128, 512]),
    issue_cycle=st.integers(min_value=0, max_value=500),
)


@settings(max_examples=60, deadline=None)
@given(requests=st.lists(request_strategy, min_size=1, max_size=24))
def test_completions_causal_and_consistent(requests):
    """Every completion finishes after its issue; stats add up."""
    system = MemorySystem(MemoryConfig.small_test_system())
    served, stats = system.execute(to_columns(requests))
    assert len(served.finish) == len(requests)
    for request, start, finish in zip(requests, served.start, served.finish):
        assert finish > request.issue_cycle
        assert start >= request.issue_cycle
    assert stats.reads == len(requests)
    assert stats.row_hits + stats.row_misses == len(requests)
    assert stats.bytes_read == sum(r.bytes_ for r in requests)
    assert stats.finish_cycle == max(served.finish)


@settings(max_examples=60, deadline=None)
@given(requests=st.lists(request_strategy, min_size=1, max_size=16))
def test_frfcfs_never_loses_row_hits(requests):
    """FR-FCFS can only trade equal-or-more row hits than FCFS."""
    config = MemoryConfig.small_test_system()
    _, fcfs = MemorySystem(config, policy="fcfs").execute(to_columns(requests))
    _, frfcfs = MemorySystem(config, policy="frfcfs").execute(to_columns(requests))
    assert frfcfs.row_hits >= fcfs.row_hits


@settings(max_examples=60, deadline=None)
@given(
    rows=st.lists(st.integers(min_value=0, max_value=7), min_size=1, max_size=12)
)
def test_bank_time_monotone(rows):
    """A bank's command timeline never goes backwards."""
    bank = Bank(DramTiming())
    last_ready = 0
    for row in rows:
        outcome = bank.access(row, at_cycle=0, bursts=1)
        assert outcome.data_ready >= outcome.command_start
        assert bank.ready_cycle >= last_ready
        last_ready = bank.ready_cycle


@settings(max_examples=60, deadline=None)
@given(vector_id=st.integers(min_value=0, max_value=1_000_000))
def test_placements_cover_vector_exactly(vector_id):
    geometry = MemoryConfig().geometry
    for placement in (
        RowMajorPlacement(geometry, 512),
        ColumnMajorPlacement(geometry, 512),
    ):
        requests = to_requests(placement.reads_for([vector_id]))
        assert sum(r.bytes_ for r in requests) == 512
        for request in requests:
            assert 0 <= request.rank < geometry.total_ranks
            assert request.column + request.bytes_ <= geometry.row_bytes


@settings(max_examples=40, deadline=None)
@given(
    vector_a=st.integers(min_value=0, max_value=100_000),
    vector_b=st.integers(min_value=0, max_value=100_000),
)
def test_row_major_distinct_vectors_distinct_slots(vector_a, vector_b):
    """No two vectors may alias the same DRAM bytes."""
    geometry = MemoryConfig().geometry
    placement = RowMajorPlacement(geometry, 512)
    if vector_a == vector_b:
        return
    a, b = to_requests(placement.reads_for([vector_a, vector_b]))
    assert (a.rank, a.bank, a.row, a.column) != (b.rank, b.bank, b.row, b.column)
