"""Vector-to-DRAM placement policies.

The paper's three contenders differ in *how embedding vectors are laid out*:

* RecNMP and FAFNIR keep each vector contiguous inside a single rank
  (**row-major**) so a 512 B vector read is one activate + eight bursts with
  full row-buffer benefit, and distinct vectors read in rank-parallel.
* TensorDIMM stripes every vector across **all** ranks (**column-major**) so
  each rank contributes a thin slice of every vector; reading a vector opens
  a row in every rank for only a few bytes, "fundamentally breaking
  row-buffer locality" (paper §III-B).

Both policies are expressed as splitting vector ids into row-aligned reads,
appended to :class:`~repro.memory.reads.ReadColumns`.  Every vector of a
placement splits into the same number of pieces (``pieces_per_vector``),
listed vector by vector, so a vector's pieces are one contiguous run.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Protocol, Sequence

import numpy as np

from repro.memory.config import MemoryGeometry
from repro.memory.reads import ReadColumns


class VectorPlacement(Protocol):
    """Maps vector ids to the DRAM reads that fetch them."""

    vector_bytes: int
    pieces_per_vector: int

    def reads_for(
        self, vector_ids: Sequence[int], issue_cycle: int = 0
    ) -> ReadColumns:
        """The row-aligned reads fetching each vector, vector by vector."""
        ...

    def home_rank(self, vector_id: int) -> Optional[int]:
        """The single rank holding the vector, or ``None`` if striped."""
        ...


def _locate_slot(
    geometry: MemoryGeometry, slot: int, slot_bytes: int
) -> tuple[int, int, int]:
    """Place the ``slot``-th fixed-size record within one rank.

    Returns (bank, row, column).  Records are packed row-major: consecutive
    slots fill a row, then move to the next bank (spreading activates), then
    to the next row.  ``slot`` may be an int or an integer array (the
    result is then three arrays).
    """
    if slot_bytes > geometry.row_bytes:
        raise ValueError("record larger than a DRAM row")
    row_index, within_row = divmod(slot, geometry.row_bytes // slot_bytes)
    row, bank = divmod(row_index, geometry.banks_per_rank)
    return bank, row, within_row * slot_bytes


@dataclass(frozen=True)
class RowMajorPlacement:
    """Whole vectors in single ranks, round-robin across ranks (Fig. 4b).

    This is the layout RecNMP and FAFNIR assume: vector ``i`` lives entirely
    in rank ``i mod R``, so distinct vectors are fetched in rank-parallel and
    each fetch enjoys row-buffer locality.
    """

    geometry: MemoryGeometry
    vector_bytes: int

    def __post_init__(self) -> None:
        if self.vector_bytes <= 0:
            raise ValueError("vector_bytes must be positive")
        if self.vector_bytes > self.geometry.row_bytes:
            raise ValueError("vector larger than a DRAM row")

    def home_rank(self, vector_id: int) -> Optional[int]:
        if vector_id < 0:
            raise ValueError("vector_id must be non-negative")
        return vector_id % self.geometry.total_ranks

    pieces_per_vector = 1

    def reads_for(
        self, vector_ids: Sequence[int], issue_cycle: int = 0
    ) -> ReadColumns:
        ids = list(vector_ids)
        if ids and min(ids) < 0:
            raise ValueError("vector_id must be non-negative")
        return self.reads_at(ids, self.locate(np.array(ids, np.int64)), issue_cycle)

    def locate(self, vector_ids: np.ndarray) -> np.ndarray:
        """Place an array of non-negative vector ids: the rows of the
        result are each vector's rank, bank, row and column.

        Vector i is slot i // R of rank i % R (see :func:`_locate_slot`).
        """
        slot, rank = divmod(vector_ids, self.geometry.total_ranks)
        return np.array((rank, *_locate_slot(self.geometry, slot, self.vector_bytes)))

    def reads_at(
        self, vector_ids: Sequence[int], located: np.ndarray, issue_cycle: int = 0
    ) -> ReadColumns:
        """The reads fetching ``vector_ids``, placed at the columns of
        ``located`` (see :meth:`locate`)."""
        count = len(vector_ids)
        return ReadColumns.of(*located.tolist(), [self.vector_bytes] * count,
                              [issue_cycle] * count, list(vector_ids))


@dataclass(frozen=True)
class ColumnMajorPlacement:
    """TensorDIMM's layout: every vector striped across all ranks.

    Each rank stores ``vector_bytes / R`` of every vector.  A vector read
    touches all ranks; each touch is small, so the per-access activate cost
    dominates and row-buffer utilisation collapses for random indices.
    """

    geometry: MemoryGeometry
    vector_bytes: int

    def __post_init__(self) -> None:
        if self.vector_bytes <= 0:
            raise ValueError("vector_bytes must be positive")
        if self.vector_bytes % self.geometry.total_ranks != 0:
            raise ValueError(
                "vector_bytes must divide evenly across all ranks "
                f"({self.vector_bytes} B over {self.geometry.total_ranks} ranks)"
            )

    @property
    def slice_bytes(self) -> int:
        return self.vector_bytes // self.geometry.total_ranks

    def home_rank(self, vector_id: int) -> Optional[int]:
        return None  # striped: no single home

    @property
    def pieces_per_vector(self) -> int:
        return self.geometry.total_ranks

    def reads_for(
        self, vector_ids: Sequence[int], issue_cycle: int = 0
    ) -> ReadColumns:
        slice_bytes = self.slice_bytes
        reads = ReadColumns()
        for vector_id in vector_ids:
            if vector_id < 0:
                raise ValueError("vector_id must be non-negative")
            bank, row, column = _locate_slot(self.geometry, vector_id, slice_bytes)
            for rank in range(self.geometry.total_ranks):
                reads.append(rank, bank, row, column, slice_bytes, issue_cycle, vector_id)
        return reads


@dataclass(frozen=True)
class StreamPlacement:
    """Sequential streaming layout used for SpMV operands (paper §IV-B).

    A stream of ``total_bytes`` starting at logical offset 0 inside one rank
    is split into row-sized reads — the "specify initial address and size"
    access type the host issues for SpMV.
    """

    geometry: MemoryGeometry
    rank: int

    def __post_init__(self) -> None:
        if not 0 <= self.rank < self.geometry.total_ranks:
            raise ValueError(f"rank {self.rank} out of range")

    def stream_reads(
        self, start_byte: int, total_bytes: int, issue_cycle: int = 0
    ) -> ReadColumns:
        """Row-aligned reads covering [start_byte, start_byte + total_bytes)."""
        if start_byte < 0 or total_bytes <= 0:
            raise ValueError("invalid stream extent")
        geometry = self.geometry
        reads = ReadColumns()
        offset = start_byte
        remaining = total_bytes
        while remaining > 0:
            row_index, column = divmod(offset, geometry.row_bytes)
            chunk = min(remaining, geometry.row_bytes - column)
            reads.append(
                self.rank,
                row_index % geometry.banks_per_rank,
                row_index // geometry.banks_per_rank,
                column,
                chunk,
                issue_cycle,
                ("stream", self.rank, offset),
            )
            offset += chunk
            remaining -= chunk
        return reads
