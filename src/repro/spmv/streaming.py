"""Shared streaming cost helpers for SpMV engines.

Both FAFNIR and the Two-Step baseline stream LIL shards from all ranks (the
paper's "specify initial address and size" access type, §IV-B).  These
helpers turn a byte count into DRAM stream time on the shared substrate and
expose the effective sequential-stream bandwidth used for modelled write
traffic (the read-path simulator does not model writes explicitly).
"""

from __future__ import annotations

from typing import Sequence

from repro.memory.config import MemoryConfig
from repro.memory.mapping import StreamPlacement
from repro.memory.reads import ReadColumns
from repro.memory.system import MemorySystem


def stream_read_cycles(
    memory: MemorySystem, total_bytes: int, start_byte: int = 0
) -> int:
    """DRAM cycles to stream ``total_bytes`` split evenly over all ranks.

    The stream is distributed round-robin across every rank (each rank holds
    a shard of the LIL matrix) and read sequentially — the fully regular,
    row-buffer-friendly access pattern both accelerators are built around.
    """
    if total_bytes <= 0:
        return 0
    geometry = memory.config.geometry
    per_rank = -(-total_bytes // geometry.total_ranks)  # ceil division
    reads = ReadColumns()
    for rank in range(geometry.total_ranks):
        reads.extend(StreamPlacement(geometry, rank).stream_reads(start_byte, per_rank))
    memory.reset()
    _, stats = memory.execute(reads)
    return stats.finish_cycle


def stream_bandwidth_bytes_per_dram_cycle(config: MemoryConfig) -> float:
    """Peak sequential bandwidth: one 64 B burst per tBL cycles per channel."""
    geometry = config.geometry
    return geometry.channels * geometry.burst_bytes / config.timing.tBL


def modelled_stream_cycles(config: MemoryConfig, total_bytes: int) -> int:
    """Closed-form stream time used for write traffic (no read simulation)."""
    if total_bytes < 0:
        raise ValueError("total_bytes must be non-negative")
    if total_bytes == 0:
        return 0
    bandwidth = stream_bandwidth_bytes_per_dram_cycle(config)
    return int(round(total_bytes / bandwidth))
