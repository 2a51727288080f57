"""Deterministic, seed-driven fault injection.

A :class:`FaultPlan` is the chaos script of one run: given the same seed
and the same workload, the same faults fire at the same sites on every
execution, in any process (decisions hash the seed with stable site keys,
so they do not depend on call order or interpreter state).  The plan is
plain picklable data — :class:`~repro.core.sharding.ShardedRunner` ships
it to worker processes alongside the engine configuration.

Injection sites (each guarded by the owning component):

=========================  ================================================
site                       effect
=========================  ================================================
rank latency degradation   reads on a listed rank take ``multiplier``×
                           their modelled service time (``MemorySystem``)
rank read timeout          a read on a flaky rank is lost and must be
                           re-issued after backoff (``MemorySystem``)
vector corruption          a fetched vector is bit-flipped or NaN-poisoned
                           at the leaf boundary (``FafnirEngine``)
transient source error     the vector source raises on a fetch attempt
                           (``FafnirEngine``)
worker crash / hang        a shard worker dies or stalls on its first
                           attempt(s) (``ShardedRunner``)
link message loss          a cross-shard reduction message is dropped on
                           the wire and must be retransmitted after a
                           detection timeout (``comm`` schedules)
link bandwidth degradation a listed (src, dst) link carries messages at
                           ``multiplier``× their modelled wire time
                           (``comm`` schedules)
shard straggler            a shard's local completion cycles stretch by a
                           multiplier (``CrossShardReducer``; hedged
                           re-dispatch can cut the tail)
shard dead                 a shard's partials never arrive; the reducer
                           routes around it by dropping its pieces through
                           the absent-piece-skipping ``canonical_fold``
=========================  ================================================

Link loss and bandwidth degradation are **timing** faults: the modeled
fabric is eventually reliable (link-layer retransmission, with a final
host-mediated escalation when the retransmit budget runs out in
``degrade`` mode), so functional bytes never change.  A dead shard is the
**functional** link-class fault: its pieces are absent from the fold and
the affected queries degrade exactly like engine-side index drops.

The plan only *decides*; the components inject, emit the ``fault_*``
trace events, and run the :class:`~repro.faults.policy.FaultPolicy`
recovery machinery.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterable, Optional, Tuple

import numpy as np

# --- fault type labels (the ``fault`` arg of fault_* events) ---------------
FAULT_RANK_DEGRADED = "rank_degraded"
FAULT_RANK_TIMEOUT = "rank_timeout"
FAULT_VECTOR_CORRUPTION = "vector_corruption"
FAULT_SOURCE_ERROR = "source_error"
FAULT_WORKER_CRASH = "worker_crash"
FAULT_WORKER_HANG = "worker_hang"
FAULT_LINK_LOSS = "link_loss"
FAULT_LINK_DEGRADED = "link_degraded"
FAULT_SHARD_STRAGGLER = "shard_straggler"
FAULT_SHARD_DEAD = "shard_dead"

FAULT_KINDS = (
    FAULT_RANK_DEGRADED,
    FAULT_RANK_TIMEOUT,
    FAULT_VECTOR_CORRUPTION,
    FAULT_SOURCE_ERROR,
    FAULT_WORKER_CRASH,
    FAULT_WORKER_HANG,
    FAULT_LINK_LOSS,
    FAULT_LINK_DEGRADED,
    FAULT_SHARD_STRAGGLER,
    FAULT_SHARD_DEAD,
)

# --- corruption modes ------------------------------------------------------
CORRUPT_NAN = "nan"
CORRUPT_BITFLIP = "bitflip"
CORRUPT_MODES = (CORRUPT_NAN, CORRUPT_BITFLIP)


class FaultError(RuntimeError):
    """Base class of every error the fault subsystem raises."""


class RankTimeoutError(FaultError):
    """A DRAM read kept timing out after the full retry budget."""


class VectorCorruptionError(FaultError):
    """A fetched vector failed its integrity check on every retry."""


class SourceFaultError(FaultError):
    """The vector source kept raising after the full retry budget."""


class SimulatedWorkerCrash(FaultError):
    """In-process stand-in for a worker death (serial execution only)."""


class ShardFailedError(FaultError):
    """A shard could not be completed within the re-dispatch budget."""


class LinkFailedError(FaultError):
    """A message kept getting lost after the full retransmit budget."""


def _decision_rng(seed: int, site: str, *keys: int) -> np.random.Generator:
    """A generator keyed by (seed, site, keys) — order-independent."""
    material = [seed & 0xFFFFFFFF, zlib.crc32(site.encode("ascii"))]
    material.extend(int(key) & 0xFFFFFFFF for key in keys)
    return np.random.default_rng(material)


@dataclass
class FaultPlan:
    """The seeded chaos script for one run (plain picklable data).

    Attributes:
        seed: root of every probabilistic decision the plan makes.
        rank_latency_multipliers: rank → service-time multiplier (> 1
            degrades; reads on other ranks are untouched).
        rank_timeout_probability: rank → per-(read, attempt) probability
            that the read is lost and must be retried.
        vector_corruption_probability: per-(vector, attempt) probability
            that a fetched vector arrives corrupted at the leaf boundary.
        corruption_mode: :data:`CORRUPT_NAN` (poison with NaNs) or
            :data:`CORRUPT_BITFLIP` (flip one mantissa bit per element of
            a random slice — silent without an integrity check).
        source_failure_probability: per-(vector, attempt) probability that
            the vector source fetch fails (and the engine re-fetches).
        crash_shards: shard positions whose worker dies on early attempts.
        hang_shards: shard positions whose worker stalls on early attempts.
        crash_attempts: number of leading attempts that crash/hang before
            the shard behaves (1 models a transient fault the first
            re-dispatch recovers; a value ≥ the retry budget models a
            persistent failure).
        hang_seconds: how long a hung worker sleeps (must exceed the
            policy's ``shard_timeout_s`` for the watchdog to matter).
        link_loss_probability: per-(message, attempt) probability that a
            cross-shard reduction message is dropped on the wire (timing
            only — the fabric is eventually reliable).
        link_bandwidth_multipliers: directed (src, dst) shard pair →
            wire-time multiplier (> 1 degrades that link; others are
            untouched).
        straggler_multipliers: piece id → local-completion multiplier
            (> 1 stretches that shard's partials; hedged re-dispatch can
            cut the tail).
        dead_shards: piece ids whose partials never arrive — the reducer
            routes around them by dropping their pieces from the fold.
            (Note: addressed by *piece id*, unlike ``crash_shards`` which
            addresses dispatch positions.)
    """

    seed: int = 0
    rank_latency_multipliers: Dict[int, float] = field(default_factory=dict)
    rank_timeout_probability: Dict[int, float] = field(default_factory=dict)
    vector_corruption_probability: float = 0.0
    corruption_mode: str = CORRUPT_NAN
    source_failure_probability: float = 0.0
    crash_shards: FrozenSet[int] = frozenset()
    hang_shards: FrozenSet[int] = frozenset()
    crash_attempts: int = 1
    hang_seconds: float = 5.0
    link_loss_probability: float = 0.0
    link_bandwidth_multipliers: Dict[Tuple[int, int], float] = field(
        default_factory=dict
    )
    straggler_multipliers: Dict[int, float] = field(default_factory=dict)
    dead_shards: FrozenSet[int] = frozenset()

    def __post_init__(self) -> None:
        if self.corruption_mode not in CORRUPT_MODES:
            raise ValueError(
                f"unknown corruption mode {self.corruption_mode!r}; "
                f"choose from {CORRUPT_MODES}"
            )
        for name in (
            "vector_corruption_probability",
            "source_failure_probability",
        ):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must be within [0, 1]")
        for rank, multiplier in self.rank_latency_multipliers.items():
            if multiplier < 1.0:
                raise ValueError(
                    f"rank {rank} latency multiplier {multiplier} < 1 "
                    "(degradation can only slow reads down)"
                )
        for rank, probability in self.rank_timeout_probability.items():
            if not 0.0 <= probability <= 1.0:
                raise ValueError(f"rank {rank} timeout probability not in [0, 1]")
        if self.crash_attempts < 0:
            raise ValueError("crash_attempts must be non-negative")
        if self.hang_seconds < 0:
            raise ValueError("hang_seconds must be non-negative")
        if not 0.0 <= self.link_loss_probability <= 1.0:
            raise ValueError("link_loss_probability must be within [0, 1]")
        for pair, multiplier in self.link_bandwidth_multipliers.items():
            if multiplier < 1.0:
                raise ValueError(
                    f"link {pair} bandwidth multiplier {multiplier} < 1 "
                    "(degradation can only slow transfers down)"
                )
        for piece, multiplier in self.straggler_multipliers.items():
            if multiplier < 1.0:
                raise ValueError(
                    f"piece {piece} straggler multiplier {multiplier} < 1 "
                    "(stragglers can only finish later)"
                )
        self.crash_shards = frozenset(self.crash_shards)
        self.hang_shards = frozenset(self.hang_shards)
        self.dead_shards = frozenset(self.dead_shards)

    # --- memory-side decisions --------------------------------------------
    @property
    def touches_memory(self) -> bool:
        return bool(self.rank_latency_multipliers or self.rank_timeout_probability)

    def read_latency_multiplier(self, rank: int) -> float:
        return self.rank_latency_multipliers.get(rank, 1.0)

    def read_times_out(self, rank: int, position: int, attempt: int) -> bool:
        """Whether the read at batch ``position`` is lost on ``attempt``."""
        probability = self.rank_timeout_probability.get(rank, 0.0)
        if probability <= 0.0:
            return False
        rng = _decision_rng(self.seed, "read_timeout", rank, position, attempt)
        return bool(rng.random() < probability)

    # --- leaf-boundary decisions ------------------------------------------
    def source_raises(self, index: int, attempt: int) -> bool:
        if self.source_failure_probability <= 0.0:
            return False
        rng = _decision_rng(self.seed, "source_error", index, attempt)
        return bool(rng.random() < self.source_failure_probability)

    def corrupt_vector(
        self, index: int, attempt: int, value: np.ndarray
    ) -> Optional[np.ndarray]:
        """The corrupted copy of ``value``, or ``None`` when no fault fires."""
        if self.vector_corruption_probability <= 0.0:
            return None
        rng = _decision_rng(self.seed, "corruption", index, attempt)
        if rng.random() >= self.vector_corruption_probability:
            return None
        corrupted = np.array(value, dtype=np.float64, copy=True)
        span = max(1, corrupted.size // 8)
        start = int(rng.integers(0, max(1, corrupted.size - span + 1)))
        if self.corruption_mode == CORRUPT_NAN:
            corrupted[start : start + span] = np.nan
        else:
            bits = corrupted.view(np.uint64)
            bits[start : start + span] ^= np.uint64(1) << np.uint64(
                int(rng.integers(0, 52))
            )
        return corrupted

    # --- shard-side decisions ---------------------------------------------
    def shard_crashes(self, shard: int, attempt: int) -> bool:
        return shard in self.crash_shards and attempt < self.crash_attempts

    def shard_hangs(self, shard: int, attempt: int) -> bool:
        return shard in self.hang_shards and attempt < self.crash_attempts

    # --- link / reduction-side decisions ----------------------------------
    @property
    def touches_links(self) -> bool:
        return bool(self.link_loss_probability or self.link_bandwidth_multipliers)

    def message_dropped(
        self, batch: int, step: int, src: int, dst: int, attempt: int
    ) -> bool:
        """Whether the (batch, step, src→dst) message is lost on ``attempt``."""
        if self.link_loss_probability <= 0.0:
            return False
        rng = _decision_rng(
            self.seed, "link_loss", batch, step, src, dst, attempt
        )
        return bool(rng.random() < self.link_loss_probability)

    def link_multiplier(self, src: int, dst: int) -> float:
        return self.link_bandwidth_multipliers.get((src, dst), 1.0)

    def shard_slowdown(self, piece: int) -> float:
        return self.straggler_multipliers.get(piece, 1.0)

    def shard_is_dead(self, piece: int) -> bool:
        return piece in self.dead_shards

    # ----------------------------------------------------------------------
    def with_seed(self, seed: int) -> "FaultPlan":
        """A copy of this plan rolled to a different seed."""
        plan = FaultPlan(
            seed=seed,
            rank_latency_multipliers=dict(self.rank_latency_multipliers),
            rank_timeout_probability=dict(self.rank_timeout_probability),
            vector_corruption_probability=self.vector_corruption_probability,
            corruption_mode=self.corruption_mode,
            source_failure_probability=self.source_failure_probability,
            crash_shards=self.crash_shards,
            hang_shards=self.hang_shards,
            crash_attempts=self.crash_attempts,
            hang_seconds=self.hang_seconds,
            link_loss_probability=self.link_loss_probability,
            link_bandwidth_multipliers=dict(self.link_bandwidth_multipliers),
            straggler_multipliers=dict(self.straggler_multipliers),
            dead_shards=self.dead_shards,
        )
        return plan
