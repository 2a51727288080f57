"""HBM integration (paper §VIII future work).

"The same idea of Fafnir can also be integrated with High Bandwidth Memory
(HBM) by connecting the leaf PEs to the 32 pseudo channels rather than the
ranks."  An HBM2 stack exposes 32 pseudo-channels, each an independent
narrow channel with its own command/data path — in this simulator's terms,
32 channels of one rank each with HBM-ish timing and a 2 KB row.

The FAFNIR tree is unchanged: 16 leaf PEs now each serve two
pseudo-channels (1PE:2PC), mirroring the DDR4 1PE:2R arrangement.
"""

from __future__ import annotations

from repro.memory.config import DramTiming, MemoryConfig, MemoryGeometry

# HBM2 @ ~1 GHz pseudo-channel clock: tighter core timing than DDR4 and a
# shorter burst occupancy per 64 B thanks to the wide interface.
HBM2_TIMING = DramTiming(
    tRCD=14,
    tRP=14,
    tCAS=14,
    tRAS=33,
    tCCD=2,
    tBL=2,
    tRTRS=0,  # pseudo-channels do not share a data bus
)

HBM2_GEOMETRY = MemoryGeometry(
    channels=32,
    dimms_per_channel=1,
    ranks_per_dimm=1,
    banks_per_rank=16,
    row_bytes=2048,
    burst_bytes=64,
)


def hbm2_stack() -> MemoryConfig:
    """One HBM2 stack: 32 pseudo-channels, FAFNIR leaves at 1PE:2PC."""
    return MemoryConfig(geometry=HBM2_GEOMETRY, timing=HBM2_TIMING)
