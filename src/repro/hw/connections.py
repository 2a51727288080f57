"""Connection-count model (paper §III-D and §IV-A).

Embedding systems combine model parallelism (tables across memory devices)
with data parallelism (network replicas on compute devices), classically
requiring **all-to-all** links between ``m`` memory devices and ``c``
computing devices: ``c·m`` connections.  FAFNIR's tree replaces them with
``2m − 2`` internal tree links plus ``c`` root-to-core links.
"""

from __future__ import annotations

from dataclasses import dataclass


def all_to_all_connections(memory_devices: int, compute_devices: int) -> int:
    """Baseline/TensorDIMM/RecNMP topology: every memory ↔ every core."""
    if memory_devices < 1 or compute_devices < 1:
        raise ValueError("device counts must be positive")
    return memory_devices * compute_devices


def fafnir_connections(memory_devices: int, compute_devices: int) -> int:
    """FAFNIR topology: (2m − 2) tree links + c root links (§IV-A)."""
    if memory_devices < 1 or compute_devices < 1:
        raise ValueError("device counts must be positive")
    return (2 * memory_devices - 2) + compute_devices


@dataclass(frozen=True)
class ConnectionComparison:
    memory_devices: int
    compute_devices: int

    @property
    def all_to_all(self) -> int:
        return all_to_all_connections(self.memory_devices, self.compute_devices)

    @property
    def fafnir(self) -> int:
        return fafnir_connections(self.memory_devices, self.compute_devices)

    @property
    def reduction_factor(self) -> float:
        return self.all_to_all / self.fafnir
