"""Clock-domain bookkeeping.

The DRAM controller (≈1200 MHz for DDR4-2400) and the FAFNIR PEs (200 MHz on
the paper's FPGA) run in different clock domains.  All cross-domain latency
arithmetic in the reproduction goes through this module so the conversion is
done in exactly one place.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Clock:
    """A clock domain defined by its frequency in MHz."""

    freq_mhz: float

    def __post_init__(self) -> None:
        if self.freq_mhz <= 0:
            raise ValueError("frequency must be positive")

    @property
    def period_ns(self) -> float:
        return 1e3 / self.freq_mhz

    def cycles_to_ns(self, cycles: float) -> float:
        if cycles < 0:
            raise ValueError("cycles must be non-negative")
        return cycles * self.period_ns

    def ns_to_cycles(self, ns: float) -> int:
        """Nanoseconds → whole cycles, rounding up (a partial cycle stalls)."""
        if ns < 0:
            raise ValueError("ns must be non-negative")
        return math.ceil(ns / self.period_ns - 1e-9)


DRAM_CLOCK = Clock(freq_mhz=1200.0)
PE_CLOCK = Clock(freq_mhz=200.0)
CPU_CLOCK = Clock(freq_mhz=3000.0)


def convert_cycles(cycles: float, source: Clock, target: Clock) -> int:
    """Re-express a cycle count from one clock domain in another."""
    return target.ns_to_cycles(source.cycles_to_ns(cycles))


def convert_cycles_array(cycles, source: Clock, target: Clock) -> np.ndarray:
    """:func:`convert_cycles` over an array of cycle counts, as int64.

    The same float arithmetic in the same order, so every element equals
    the scalar conversion of its count.
    """
    cycles = np.asarray(cycles, dtype=np.float64)
    if (cycles < 0).any():
        raise ValueError("cycles must be non-negative")
    ns = cycles * source.period_ns
    return np.ceil(ns / target.period_ns - 1e-9).astype(np.int64)
