"""Fault injection and fault-tolerant serving for the FAFNIR stack.

FAFNIR's functional guarantee — every query fully reduced at NDP — is
easy to uphold on a perfect fleet; a production near-memory serving stack
is defined by how it behaves when ranks slow down, vectors arrive
corrupted, sources flake, and shard workers die.  This package supplies
both halves of that story:

* :mod:`repro.faults.plan` — :class:`FaultPlan`, the deterministic seeded
  chaos script (rank degradation/timeouts, leaf-boundary corruption,
  transient source errors, worker crash/hang) plus the typed
  :class:`FaultError` hierarchy;
* :mod:`repro.faults.policy` — :class:`FaultPolicy`, the recovery knobs
  (retry budgets, backoff in simulated DRAM cycles, shard wall-clock
  timeouts) and the ``fail_fast`` vs. ``degrade`` exhaustion modes with
  the per-query :data:`STATUS_OK` / :data:`STATUS_DEGRADED` /
  :data:`STATUS_FAILED` vocabulary;
* :mod:`repro.faults.report` — :func:`recovery_report`, folding the
  ``fault_*`` trace events of a chaos run into injected / detected /
  recovered counts (the ``repro.cli chaos`` summary).

Injection is threaded through :class:`~repro.memory.system.MemorySystem`
(rank latency + timeouts with cycle-accounted backoff),
:class:`~repro.core.engine.FafnirEngine` (corruption + source faults with
graceful per-query degradation), and
:class:`~repro.core.sharding.ShardedRunner` (crash/hang detection,
bounded re-dispatch).  With no plan installed every component follows its
original code path byte for byte.
"""

from repro.faults.plan import (
    CORRUPT_BITFLIP,
    CORRUPT_MODES,
    CORRUPT_NAN,
    FAULT_KINDS,
    FAULT_LINK_DEGRADED,
    FAULT_LINK_LOSS,
    FAULT_RANK_DEGRADED,
    FAULT_RANK_TIMEOUT,
    FAULT_SHARD_DEAD,
    FAULT_SHARD_STRAGGLER,
    FAULT_SOURCE_ERROR,
    FAULT_VECTOR_CORRUPTION,
    FAULT_WORKER_CRASH,
    FAULT_WORKER_HANG,
    FaultError,
    FaultPlan,
    LinkFailedError,
    RankTimeoutError,
    ShardFailedError,
    SimulatedWorkerCrash,
    SourceFaultError,
    VectorCorruptionError,
)
from repro.faults.policy import (
    MODE_DEGRADE,
    MODE_FAIL_FAST,
    MODES,
    REQUEST_STATUSES,
    STATUS_DEGRADED,
    STATUS_FAILED,
    STATUS_OK,
    STATUS_SHED,
    STATUSES,
    FaultPolicy,
)
from repro.faults.report import RecoveryReport, recovery_report

__all__ = [
    "CORRUPT_BITFLIP",
    "CORRUPT_MODES",
    "CORRUPT_NAN",
    "FAULT_KINDS",
    "FAULT_LINK_DEGRADED",
    "FAULT_LINK_LOSS",
    "FAULT_RANK_DEGRADED",
    "FAULT_RANK_TIMEOUT",
    "FAULT_SHARD_DEAD",
    "FAULT_SHARD_STRAGGLER",
    "FAULT_SOURCE_ERROR",
    "FAULT_VECTOR_CORRUPTION",
    "FAULT_WORKER_CRASH",
    "FAULT_WORKER_HANG",
    "FaultError",
    "FaultPlan",
    "FaultPolicy",
    "LinkFailedError",
    "MODES",
    "MODE_DEGRADE",
    "MODE_FAIL_FAST",
    "RankTimeoutError",
    "RecoveryReport",
    "REQUEST_STATUSES",
    "STATUSES",
    "STATUS_DEGRADED",
    "STATUS_FAILED",
    "STATUS_OK",
    "STATUS_SHED",
    "ShardFailedError",
    "SimulatedWorkerCrash",
    "SourceFaultError",
    "VectorCorruptionError",
    "recovery_report",
]
