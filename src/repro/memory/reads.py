"""DRAM reads as parallel columns, in and out of the memory simulator.

A batch of reads is seven equal-length columns — one entry per read —
rather than one object per read: placements append to them, and
:meth:`repro.memory.system.MemorySystem.execute` checks them once and
serves them in one pass.  Every read stays inside one DRAM row;
:mod:`repro.memory.mapping` splits vectors into row-aligned pieces before
they reach the simulator.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, NamedTuple, Optional

if TYPE_CHECKING:
    from repro.memory.config import MemoryGeometry


class ReadColumns:
    """A batch of reads, one entry per read in each column.

    Columns:
        rank:   global rank id (see :class:`repro.memory.config.MemoryGeometry`).
        bank:   bank index within the rank.
        row:    row index within the bank.
        column: starting byte offset within the row.
        bytes:  number of bytes to read (> 0, fits within the row).
        issue:  earliest cycle the controller may serve the read.
        tag:    opaque caller identifier (a vector read's tag is its vector
                id, which is what the hot-index tier caches on).

    ``placed_in`` is the :class:`~repro.memory.config.MemoryGeometry` whose
    placement built the columns (see
    :meth:`~repro.memory.mapping.RowMajorPlacement.reads_at`), which makes
    them valid in that geometry by construction; ``None`` for reads built
    any other way, and again after any read is added.
    """

    _COLUMNS = ("rank", "bank", "row", "column", "bytes", "issue", "tag")
    __slots__ = _COLUMNS + ("placed_in",)

    def __init__(self) -> None:
        self.rank: List[int] = []
        self.bank: List[int] = []
        self.row: List[int] = []
        self.column: List[int] = []
        self.bytes: List[int] = []
        self.issue: List[int] = []
        self.tag: List[object] = []
        self.placed_in: Optional[MemoryGeometry] = None

    @classmethod
    def of(cls, rank, bank, row, column, bytes_, issue, tag) -> "ReadColumns":
        """Reads from whole columns: lists of one entry per read."""
        reads = cls()
        reads.rank, reads.bank, reads.row, reads.column = rank, bank, row, column
        reads.bytes, reads.issue, reads.tag = bytes_, issue, tag
        return reads

    def __len__(self) -> int:
        return len(self.rank)

    def append(
        self,
        rank: int,
        bank: int,
        row: int,
        column: int,
        bytes_: int,
        issue_cycle: int = 0,
        tag: object = None,
    ) -> None:
        """Add one read."""
        self.placed_in = None
        self.rank.append(rank)
        self.bank.append(bank)
        self.row.append(row)
        self.column.append(column)
        self.bytes.append(bytes_)
        self.issue.append(issue_cycle)
        self.tag.append(tag)

    def extend(self, other: "ReadColumns") -> None:
        """Add every read of ``other``, in its order."""
        self.placed_in = None
        for name in self._COLUMNS:
            getattr(self, name).extend(getattr(other, name))


class ServedReads(NamedTuple):
    """What serving a :class:`ReadColumns` batch did, one entry per read in
    the batch's order.

    Columns:
        start:     cycle the read's first command issued.
        finish:    cycle its last data beat arrived.
        row_hit:   whether it hit the open row buffer.
        activated: whether it needed an ACT command.
        bursts:    bus bursts it consumed (0 for a hot-tier hit).
    """

    start: List[int]
    finish: List[int]
    row_hit: List[bool]
    activated: List[bool]
    bursts: List[int]
