"""Access accounting: row-buffer behaviour and bandwidth."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict


@dataclass
class AccessStats:
    """Aggregate statistics over a batch of DRAM reads."""

    reads: int = 0
    bursts: int = 0
    bytes_read: int = 0
    row_hits: int = 0
    row_misses: int = 0
    activates: int = 0
    finish_cycle: int = 0
    per_rank_reads: Dict[int, int] = field(default_factory=dict)

    @property
    def row_hit_rate(self) -> float:
        total = self.row_hits + self.row_misses
        return self.row_hits / total if total else 0.0

    @property
    def ranks_touched(self) -> int:
        return len(self.per_rank_reads)

    def merged_with(self, other: "AccessStats") -> "AccessStats":
        merged = AccessStats(
            reads=self.reads + other.reads,
            bursts=self.bursts + other.bursts,
            bytes_read=self.bytes_read + other.bytes_read,
            row_hits=self.row_hits + other.row_hits,
            row_misses=self.row_misses + other.row_misses,
            activates=self.activates + other.activates,
            finish_cycle=max(self.finish_cycle, other.finish_cycle),
            per_rank_reads=dict(self.per_rank_reads),
        )
        for rank, count in other.per_rank_reads.items():
            merged.per_rank_reads[rank] = merged.per_rank_reads.get(rank, 0) + count
        return merged
