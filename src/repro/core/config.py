"""FAFNIR accelerator configuration (paper §IV-B, Table I, Table IV)."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Dict, Optional

from repro.clocks import Clock, DRAM_CLOCK, PE_CLOCK


@dataclass(frozen=True)
class PELatencies:
    """Per-operation compute-unit latencies in PE cycles (paper Table IV).

    The paper's FPGA implementation at 200 MHz reports: compare 12 cycles,
    reduce (value) 4, reduce (header) 16, forward 2.  Reduce and forward are
    parallel paths after the compare, so a PE's critical path is
    ``compare + max(reduce_value, reduce_header)``.
    """

    compare: int = 12
    reduce_value: int = 4
    reduce_header: int = 16
    forward: int = 2

    def __post_init__(self) -> None:
        for name in ("compare", "reduce_value", "reduce_header", "forward"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} latency must be positive")

    @property
    def reduce_path(self) -> int:
        """Compare followed by the slower of the two reduce sub-units."""
        return self.compare + max(self.reduce_value, self.reduce_header)

    @property
    def forward_path(self) -> int:
        return self.compare + self.forward

    @property
    def critical_path(self) -> int:
        """The pipeline-stage latency: reduce is slower than forward."""
        return max(self.reduce_path, self.forward_path)


@dataclass(frozen=True)
class FafnirConfig:
    """Shape and timing of one FAFNIR instance.

    Defaults reproduce the paper's reference system: 32 ranks (4 channels ×
    4 DIMMs × 2 ranks), one leaf PE per two ranks, 512 B embedding vectors,
    queries of up to 16 indices, and batch-sized PE buffers (n = m = B).
    """

    batch_size: int = 32
    max_query_len: int = 16
    vector_bytes: int = 512
    element_bytes: int = 4
    total_ranks: int = 32
    ranks_per_leaf_pe: int = 2
    num_tables: int = 32
    latencies: PELatencies = field(default_factory=PELatencies)
    pe_clock: Clock = PE_CLOCK
    dram_clock: Clock = DRAM_CLOCK

    def __post_init__(self) -> None:
        if self.batch_size <= 0:
            raise ValueError("batch_size must be positive")
        if self.max_query_len <= 0:
            raise ValueError("max_query_len must be positive")
        if self.vector_bytes <= 0 or self.element_bytes <= 0:
            raise ValueError("vector/element sizes must be positive")
        if self.vector_bytes % self.element_bytes != 0:
            raise ValueError("vector_bytes must be a multiple of element_bytes")
        if self.total_ranks < 1:
            raise ValueError("need at least one rank")
        if self.ranks_per_leaf_pe < 1:
            raise ValueError("ranks_per_leaf_pe must be >= 1")
        if self.total_ranks % self.ranks_per_leaf_pe != 0:
            raise ValueError("ranks must divide evenly into leaf PEs")
        leaves = self.total_ranks // self.ranks_per_leaf_pe
        if leaves & (leaves - 1):
            raise ValueError(
                f"number of leaf PEs must be a power of two, got {leaves}"
            )
        if self.num_tables <= 0:
            raise ValueError("num_tables must be positive")

    @property
    def vector_elements(self) -> int:
        return self.vector_bytes // self.element_bytes

    @property
    def num_leaf_pes(self) -> int:
        return self.total_ranks // self.ranks_per_leaf_pe

    @property
    def tree_levels(self) -> int:
        """Number of PE levels from leaves to root inclusive."""
        return int(math.log2(self.num_leaf_pes)) + 1

    @property
    def num_pes(self) -> int:
        """A binary tree over L leaves has 2L − 1 PEs (31 for 16 leaves)."""
        return 2 * self.num_leaf_pes - 1

    @property
    def compute_units(self) -> int:
        """Compute units per PE; the paper sizes n = m = B units."""
        return self.batch_size

    @property
    def buffer_entries(self) -> int:
        """Entries per input FIFO (n = m = B)."""
        return self.batch_size

    @property
    def index_bits(self) -> int:
        """Bits to name one embedding table (5 bits for 32 tables)."""
        return max(1, math.ceil(math.log2(self.num_tables)))

    @property
    def header_bytes(self) -> float:
        """Wire bytes of one header: q index slots of index_bits each.

        For q=16 and 5-bit ids this is the paper's 10 B (16 × 5 / 8).
        """
        return self.max_query_len * self.index_bits / 8

    @property
    def entry_bytes(self) -> float:
        """One buffer entry: a vector value plus its header (Fig. 5)."""
        return self.vector_bytes + self.header_bytes

    def to_dict(self) -> Dict[str, Any]:
        """Serialise to plain data (JSON-compatible) for configs on disk."""
        return {
            "batch_size": self.batch_size,
            "max_query_len": self.max_query_len,
            "vector_bytes": self.vector_bytes,
            "element_bytes": self.element_bytes,
            "total_ranks": self.total_ranks,
            "ranks_per_leaf_pe": self.ranks_per_leaf_pe,
            "num_tables": self.num_tables,
            "latencies": {
                "compare": self.latencies.compare,
                "reduce_value": self.latencies.reduce_value,
                "reduce_header": self.latencies.reduce_header,
                "forward": self.latencies.forward,
            },
            "pe_clock_mhz": self.pe_clock.freq_mhz,
            "dram_clock_mhz": self.dram_clock.freq_mhz,
        }

    @staticmethod
    def from_dict(data: Dict[str, Any]) -> "FafnirConfig":
        """Inverse of :meth:`to_dict`; unknown keys are rejected."""
        known = {
            "batch_size",
            "max_query_len",
            "vector_bytes",
            "element_bytes",
            "total_ranks",
            "ranks_per_leaf_pe",
            "num_tables",
            "latencies",
            "pe_clock_mhz",
            "dram_clock_mhz",
        }
        unknown = set(data) - known
        if unknown:
            raise ValueError(f"unknown configuration keys: {sorted(unknown)}")
        latencies = data.get("latencies", {})
        return FafnirConfig(
            batch_size=data.get("batch_size", 32),
            max_query_len=data.get("max_query_len", 16),
            vector_bytes=data.get("vector_bytes", 512),
            element_bytes=data.get("element_bytes", 4),
            total_ranks=data.get("total_ranks", 32),
            ranks_per_leaf_pe=data.get("ranks_per_leaf_pe", 2),
            num_tables=data.get("num_tables", 32),
            latencies=PELatencies(
                compare=latencies.get("compare", 12),
                reduce_value=latencies.get("reduce_value", 4),
                reduce_header=latencies.get("reduce_header", 16),
                forward=latencies.get("forward", 2),
            ),
            pe_clock=Clock(data.get("pe_clock_mhz", 200.0)),
            dram_clock=Clock(data.get("dram_clock_mhz", 1200.0)),
        )

    def with_batch_size(self, batch_size: int) -> "FafnirConfig":
        return FafnirConfig(
            batch_size=batch_size,
            max_query_len=self.max_query_len,
            vector_bytes=self.vector_bytes,
            element_bytes=self.element_bytes,
            total_ranks=self.total_ranks,
            ranks_per_leaf_pe=self.ranks_per_leaf_pe,
            num_tables=self.num_tables,
            latencies=self.latencies,
            pe_clock=self.pe_clock,
            dram_clock=self.dram_clock,
        )

    def with_ranks(
        self, total_ranks: int, ranks_per_leaf_pe: Optional[int] = None
    ) -> "FafnirConfig":
        """This config on ``total_ranks`` ranks.

        An explicit ``ranks_per_leaf_pe`` that does not divide
        ``total_ranks`` raises ``ValueError``; the inherited one falls
        back to one rank per leaf PE instead, so a rank sweep can run
        down to a single rank.
        """
        per_leaf = ranks_per_leaf_pe
        if per_leaf is None:
            per_leaf = self.ranks_per_leaf_pe
            if total_ranks % per_leaf != 0:
                per_leaf = 1
        return FafnirConfig(
            batch_size=self.batch_size,
            max_query_len=self.max_query_len,
            vector_bytes=self.vector_bytes,
            element_bytes=self.element_bytes,
            total_ranks=total_ranks,
            ranks_per_leaf_pe=per_leaf,
            num_tables=self.num_tables,
            latencies=self.latencies,
            pe_clock=self.pe_clock,
            dram_clock=self.dram_clock,
        )
