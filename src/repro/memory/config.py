"""Memory-system configuration: geometry and DRAM timing.

The FAFNIR paper evaluates a DDR4 memory system of four channels, each with
four DIMMs of two ranks (32 ranks total).  This module describes such a
system for the cycle-approximate simulator in :mod:`repro.memory.system`.

All timing values are expressed in *memory-controller cycles*.  The default
preset approximates DDR4-2400 (1200 MHz bus clock); absolute fidelity is not
the goal — the relative cost of row hits, row misses, and bus transfers is
what drives every comparison in the paper.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property


@dataclass(frozen=True)
class DramTiming:
    """DRAM timing parameters in controller cycles.

    Attributes:
        tRCD: ACT-to-READ delay (row activate).
        tRP:  PRE-to-ACT delay (precharge).
        tCAS: READ-to-data delay (column access, a.k.a. CL).
        tRAS: minimum ACT-to-PRE interval.
        tCCD: minimum spacing between column commands to the same bank group.
        tBL:  data-bus cycles occupied by one burst (BL8 on a x64 DIMM moves
              64 bytes in 4 bus clocks at DDR).
        tRTRS: rank-to-rank switching penalty on a shared channel bus.
        tREFI: average refresh-command interval (7.8 µs at 1200 MHz).
        tRFC: refresh cycle time — the rank is unavailable this long.
        refresh_enabled: model periodic refresh blackouts (off by default;
            the calibrated evaluation runs are far shorter than tREFI, so
            refresh mainly matters for long streaming workloads).
    """

    tRCD: int = 16
    tRP: int = 16
    tCAS: int = 16
    tRAS: int = 39
    tCCD: int = 4
    tBL: int = 4
    tRTRS: int = 2
    tREFI: int = 9360
    tRFC: int = 420
    refresh_enabled: bool = False


@dataclass(frozen=True)
class MemoryGeometry:
    """Physical organisation of the memory system.

    The FAFNIR target is ``channels=4, dimms_per_channel=4, ranks_per_dimm=2``
    for 32 ranks total (paper Fig. 4a).
    """

    channels: int = 4
    dimms_per_channel: int = 4
    ranks_per_dimm: int = 2
    banks_per_rank: int = 16
    row_bytes: int = 8192
    burst_bytes: int = 64

    # cached_property (not property): these are read once per memory request
    # on the simulator's hot path.  Writing the cache into ``__dict__``
    # bypasses the frozen-dataclass ``__setattr__``, and field-based
    # equality/hashing is unaffected.
    @cached_property
    def ranks_per_channel(self) -> int:
        return self.dimms_per_channel * self.ranks_per_dimm

    @cached_property
    def total_ranks(self) -> int:
        return self.channels * self.ranks_per_channel

    def locate(self, global_rank: int) -> tuple[int, int, int]:
        """Global rank id → (channel, dimm, rank-in-dimm): channels hold
        contiguous blocks of ranks, DIMMs contiguous runs within them."""
        if not 0 <= global_rank < self.total_ranks:
            raise ValueError(f"rank {global_rank} out of range")
        channel, rest = divmod(global_rank, self.ranks_per_channel)
        dimm, rank_in_dimm = divmod(rest, self.ranks_per_dimm)
        return channel, dimm, rank_in_dimm

    def channel_of(self, global_rank: int) -> int:
        return self.locate(global_rank)[0]

    def dimm_of(self, global_rank: int) -> tuple[int, int]:
        """Global rank id → (channel, dimm) pair identifying its DIMM."""
        channel, dimm, _ = self.locate(global_rank)
        return channel, dimm


@dataclass(frozen=True)
class DramEnergy:
    """First-order DRAM energy constants (picojoules).

    Used for the memory-energy-saving analysis (paper Fig. 15 and §VI).
    Values are representative of DDR4 at 1.2 V; the *ratios* between
    activation and burst-read energy are what matter for the savings claim.
    """

    activate_pj: float = 909.0
    read_burst_pj: float = 467.0
    precharge_pj: float = 0.0  # folded into activate_pj
    background_pw_per_cycle: float = 60.0

    def access_energy_pj(self, bursts: int, activates: int) -> float:
        """Energy of a sequence of bursts requiring ``activates`` row opens."""
        if bursts < 0 or activates < 0:
            raise ValueError("bursts and activates must be non-negative")
        return activates * self.activate_pj + bursts * self.read_burst_pj


@dataclass(frozen=True)
class MemoryConfig:
    """Bundle of geometry + timing + energy used across the simulator; the
    defaults are the paper's 32-rank DDR4-2400 system (4 ch × 4 DIMM × 2 ranks)."""

    geometry: MemoryGeometry = field(default_factory=MemoryGeometry)
    timing: DramTiming = field(default_factory=DramTiming)
    energy: DramEnergy = field(default_factory=DramEnergy)

    @staticmethod
    def small_test_system() -> "MemoryConfig":
        """A tiny 1-channel, 4-rank system convenient for unit tests."""
        return MemoryConfig(
            geometry=MemoryGeometry(
                channels=1, dimms_per_channel=2, ranks_per_dimm=2
            )
        )

    @staticmethod
    def rank_sweep(total_ranks: int) -> "MemoryConfig":
        """Geometry for rank-scaling studies: one rank per channel.

        The paper's Fig. 12 scales the memory system from 2 to 32 ranks and
        observes near-linear embedding-lookup speedup, which requires
        aggregate bandwidth to grow with rank count; this preset therefore
        adds a channel per rank (the HBM-style integration §VIII sketches).
        On a fixed-channel system the sweep saturates at the shared-bus
        bandwidth instead (use :meth:`scaled_to_ranks` for that behaviour).
        """
        if total_ranks < 1:
            raise ValueError("total_ranks must be >= 1")
        return MemoryConfig(
            geometry=MemoryGeometry(
                channels=total_ranks, dimms_per_channel=1, ranks_per_dimm=1
            )
        )

    def scaled_to_ranks(self, total_ranks: int) -> "MemoryConfig":
        """Return a config with the given total rank count.

        Ranks are added channel-first up to four channels (matching how the
        paper scales Fig. 12 from 2 to 32 ranks), then by deepening DIMMs.
        """
        if total_ranks < 1:
            raise ValueError("total_ranks must be >= 1")
        channels = min(4, total_ranks)
        per_channel = max(1, total_ranks // channels)
        if channels * per_channel != total_ranks:
            raise ValueError(
                f"total_ranks={total_ranks} not evenly divisible over "
                f"{channels} channels"
            )
        ranks_per_dimm = 2 if per_channel % 2 == 0 else 1
        dimms = per_channel // ranks_per_dimm
        return MemoryConfig(
            geometry=MemoryGeometry(
                channels=channels,
                dimms_per_channel=dimms,
                ranks_per_dimm=ranks_per_dimm,
                banks_per_rank=self.geometry.banks_per_rank,
                row_bytes=self.geometry.row_bytes,
                burst_bytes=self.geometry.burst_bytes,
            ),
            timing=self.timing,
            energy=self.energy,
        )
