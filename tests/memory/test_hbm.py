"""Tests for the HBM integration preset (§VIII future work)."""

import numpy as np
import pytest

from repro.core import FafnirConfig, FafnirEngine
from repro.memory import (
    HBM2_GEOMETRY,
    MemoryConfig,
    MemorySystem,
    hbm2_stack,
)
from tests.dram_oracle import ReadRequest, to_columns


class TestHbmPreset:
    def test_32_pseudo_channels(self):
        config = hbm2_stack()
        assert config.geometry.channels == 32
        assert config.geometry.total_ranks == 32

    def test_no_rank_to_rank_penalty(self):
        assert hbm2_stack().timing.tRTRS == 0

    def test_faster_than_ddr4_for_scattered_reads(self):
        """32 independent pseudo-channels beat 4 shared DDR4 buses."""
        ddr4 = MemorySystem(MemoryConfig())
        hbm = MemorySystem(hbm2_stack())
        requests = [
            ReadRequest(rank=rank, bank=rank % 16, row=rank * 7, column=0, bytes_=512)
            for rank in range(32)
        ]
        _, ddr4_stats = ddr4.execute(to_columns(requests))
        _, hbm_stats = hbm.execute(to_columns(requests))
        assert hbm_stats.finish_cycle < ddr4_stats.finish_cycle

    def test_rows_are_smaller(self):
        assert HBM2_GEOMETRY.row_bytes == 2048


class TestFafnirOnHbm:
    def test_engine_runs_on_hbm_stack(self):
        """Leaf PEs on pseudo-channels (1PE:2PC) — the paper's §VIII sketch."""
        engine = FafnirEngine(
            config=FafnirConfig(),  # 32 leaves' worth of ranks, 1PE:2R
            memory_config=hbm2_stack(),
        )
        rng = np.random.default_rng(8)
        store = {}

        def source(index):
            if index not in store:
                store[index] = rng.normal(size=128)
            return store[index]

        queries = [list(rng.choice(2048, size=8, replace=False)) for _ in range(8)]
        result = engine.run_batch(queries, source)
        for query, vector in zip(queries, result.vectors):
            assert np.allclose(vector, np.sum([source(i) for i in set(query)], axis=0))

    def test_hbm_lookup_faster_than_ddr4(self):
        rng = np.random.default_rng(9)
        store = {}

        def source(index):
            if index not in store:
                store[index] = rng.normal(size=128)
            return store[index]

        queries = [list(rng.choice(4096, size=16, replace=False)) for _ in range(16)]
        ddr4 = FafnirEngine().run_batch(queries, source)
        hbm = FafnirEngine(memory_config=hbm2_stack()).run_batch(queries, source)
        assert hbm.stats.latency_pe_cycles < ddr4.stats.latency_pe_cycles
