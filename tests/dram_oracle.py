"""The per-read object DRAM model: the specification the column pass must match.

``repro.memory.system.MemorySystem.execute`` serves a batch of read columns
in one pass over plain ints.  This module keeps the object model it
replaced, as the differential oracle:

* :class:`ReadRequest` / :class:`Completion` — one record per read;
* :class:`Bank` — one bank's open-row state machine;
* :class:`ChannelController` — one channel's banks and data bus, serving
  requests in FCFS or FR-FCFS order;
* :class:`ObjectMemorySystem` — the whole facade: hot-index tier, channel
  controllers, rank faults and trace events, with ``execute`` taking a
  request list and returning a completion list.

:func:`to_requests`, :func:`to_columns` and :func:`served_of` convert
between the two forms, so a test feeds the same batch to both and compares
every column.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.faults.plan import (
    FAULT_RANK_DEGRADED,
    FAULT_RANK_TIMEOUT,
    FaultPlan,
    RankTimeoutError,
)
from repro.faults.policy import FaultPolicy
from repro.memory import AccessStats, MemoryConfig, ReadColumns, ServedReads
from repro.memory.config import DramTiming
from repro.obs.events import (
    CACHE_HIT,
    CACHE_MISS,
    CLOCK_DRAM,
    FAULT_DETECTED,
    FAULT_INJECTED,
    MEM_READ_COMPLETE,
    MEM_READ_ISSUE,
    RETRY_ISSUED,
    TraceEvent,
)
from repro.obs.tracer import NULL_TRACER, Tracer
from repro.tiering.cache import CacheStats, HotIndexTier, HotTierConfig


@dataclass(frozen=True)
class ReadRequest:
    """A read of ``bytes_`` contiguous bytes starting in one DRAM row.

    Attributes:
        rank:   global rank id (see :class:`repro.memory.config.MemoryGeometry`).
        bank:   bank index within the rank.
        row:    row index within the bank.
        column: starting byte offset within the row.
        bytes_: number of bytes to read (> 0, fits within the row).
        issue_cycle: earliest cycle the controller may service the request.
        tag:    opaque caller identifier (e.g. embedding-vector index).
    """

    rank: int
    bank: int
    row: int
    column: int
    bytes_: int
    issue_cycle: int = 0
    tag: object = None

    def __post_init__(self) -> None:
        if self.bytes_ <= 0:
            raise ValueError("bytes_ must be positive")
        if self.rank < 0 or self.bank < 0 or self.row < 0 or self.column < 0:
            raise ValueError("rank/bank/row/column must be non-negative")
        if self.issue_cycle < 0:
            raise ValueError("issue_cycle must be non-negative")


@dataclass(frozen=True)
class Completion:
    """Outcome of servicing one :class:`ReadRequest`.

    Attributes:
        request: the serviced request.
        start_cycle: cycle the first command for this request issued.
        finish_cycle: cycle the last data beat arrived.
        row_hit: whether the access hit the open row buffer.
        bursts: number of 64 B bus bursts the read consumed.
        activated: whether an ACT command was required.
    """

    request: ReadRequest
    start_cycle: int
    finish_cycle: int
    row_hit: bool
    bursts: int
    activated: bool

    @property
    def latency(self) -> int:
        return self.finish_cycle - self.request.issue_cycle

    def __post_init__(self) -> None:
        if self.finish_cycle < self.start_cycle:
            raise ValueError("finish_cycle precedes start_cycle")


def stats_of(completions: Iterable[Completion]) -> AccessStats:
    """The access record of a set of completions."""
    stats = AccessStats()
    for completion in completions:
        stats.reads += 1
        stats.bursts += completion.bursts
        stats.bytes_read += completion.request.bytes_
        if completion.row_hit:
            stats.row_hits += 1
        else:
            stats.row_misses += 1
        if completion.activated:
            stats.activates += 1
        stats.finish_cycle = max(stats.finish_cycle, completion.finish_cycle)
        rank = completion.request.rank
        stats.per_rank_reads[rank] = stats.per_rank_reads.get(rank, 0) + 1
    return stats


@dataclass
class BankAccessOutcome:
    """Result of presenting one column access to a bank."""

    command_start: int
    data_ready: int
    row_hit: bool
    activated: bool


class Bank:
    """One DRAM bank: an open-row buffer plus command timing state.

    The bank tracks which row (if any) its row buffer holds, the earliest
    cycle it can accept another command, and when the current row was
    activated (to honour ``tRAS`` before precharging).
    """

    def __init__(self, timing: DramTiming) -> None:
        self._timing = timing
        self.open_row: Optional[int] = None
        self.ready_cycle: int = 0
        self._activate_cycle: int = 0

    def reset(self) -> None:
        """Precharge the bank and clear all timing state."""
        self.open_row = None
        self.ready_cycle = 0
        self._activate_cycle = 0

    def access(self, row: int, at_cycle: int, bursts: int) -> BankAccessOutcome:
        """Service a read of ``bursts`` bursts at/after ``at_cycle``.

        Returns when the first data beat is ready; the caller (channel
        controller) layers shared-bus contention on top.
        """
        if bursts <= 0:
            raise ValueError("bursts must be positive")
        t = max(at_cycle, self.ready_cycle)
        timing = self._timing

        if self.open_row == row:
            row_hit = True
            activated = False
        elif self.open_row is None:
            row_hit = False
            activated = True
            t = t + timing.tRCD
            self._activate_cycle = t
        else:
            # Row conflict: precharge (respecting tRAS) then activate.
            row_hit = False
            activated = True
            precharge_at = max(t, self._activate_cycle + timing.tRAS)
            t = precharge_at + timing.tRP + timing.tRCD
            self._activate_cycle = t

        command_start = max(at_cycle, self.ready_cycle)
        data_ready = t + timing.tCAS
        # The bank can accept its next column command once this access's
        # column commands have streamed out.
        self.ready_cycle = t + bursts * timing.tCCD
        self.open_row = row
        return BankAccessOutcome(
            command_start=command_start,
            data_ready=data_ready,
            row_hit=row_hit,
            activated=activated,
        )


class ChannelController:
    """Schedules read requests for one channel, in arrival order per bank.

    The model is cycle-approximate: an open-page policy with first-come
    service order (requests are presented sorted by ``issue_cycle``).  It
    captures the three effects the paper's comparison rests on — row-buffer
    hits vs conflicts, bank/rank parallelism, and data-bus serialisation.
    """

    POLICIES = ("fcfs", "frfcfs")

    def __init__(
        self,
        channel_id: int,
        config: MemoryConfig,
        policy: str = "fcfs",
        frfcfs_window: int = 8,
    ) -> None:
        if policy not in self.POLICIES:
            raise ValueError(f"unknown scheduling policy {policy!r}")
        if frfcfs_window < 1:
            raise ValueError("frfcfs_window must be positive")
        self.channel_id = channel_id
        self.policy = policy
        self.frfcfs_window = frfcfs_window
        self._config = config
        self._banks: Dict[Tuple[int, int], Bank] = {}
        self._bus_free_cycle = 0
        self._last_rank: Optional[int] = None

    def reset(self) -> None:
        self._banks.clear()
        self._bus_free_cycle = 0
        self._last_rank = None

    def _bank(self, rank: int, bank: int) -> Bank:
        key = (rank, bank)
        existing = self._banks.get(key)
        if existing is None:
            existing = Bank(self._config.timing)
            self._banks[key] = existing
        return existing

    def _after_refresh(self, rank: int, cycle: int) -> int:
        """Push a command past any refresh blackout it overlaps.

        With refresh enabled, each rank is unavailable for ``tRFC`` cycles
        every ``tREFI``; refreshes are staggered across ranks (rank id ×
        tREFI / ranks-per-channel offset) as real controllers do.
        """
        timing = self._config.timing
        if not timing.refresh_enabled:
            return cycle
        per_channel = max(1, self._config.geometry.ranks_per_channel)
        offset = (rank % per_channel) * (timing.tREFI // per_channel)
        phase = (cycle - offset) % timing.tREFI
        if 0 <= phase < timing.tRFC:
            return cycle + (timing.tRFC - phase)
        return cycle

    def service(self, request: ReadRequest) -> Completion:
        """Service one request and return its completion record."""
        geometry = self._config.geometry
        timing = self._config.timing
        if geometry.channel_of(request.rank) != self.channel_id:
            raise ValueError(
                f"request for rank {request.rank} routed to channel "
                f"{self.channel_id}"
            )
        if request.column + request.bytes_ > geometry.row_bytes:
            raise ValueError("request spans a row boundary")

        bursts = math.ceil(request.bytes_ / geometry.burst_bytes)
        bank = self._bank(request.rank, request.bank)
        issue = self._after_refresh(request.rank, request.issue_cycle)
        outcome = bank.access(request.row, issue, bursts)

        transfer_start = max(outcome.data_ready, self._bus_free_cycle)
        if self._last_rank is not None and self._last_rank != request.rank:
            transfer_start += timing.tRTRS
        finish = transfer_start + bursts * timing.tBL

        self._bus_free_cycle = finish
        self._last_rank = request.rank
        return Completion(
            request=request,
            start_cycle=outcome.command_start,
            finish_cycle=finish,
            row_hit=outcome.row_hit,
            bursts=bursts,
            activated=outcome.activated,
        )

    def service_all(self, requests: List[ReadRequest]) -> List[Completion]:
        """Service requests in issue order; returns completions in that order."""
        ordered = sorted(requests, key=lambda r: r.issue_cycle)
        return [self.service(r) for r in ordered]

    # ------------------------------------------------------------------
    def _would_row_hit(self, request: ReadRequest) -> bool:
        bank = self._banks.get((request.rank, request.bank))
        return bank is not None and bank.open_row == request.row

    def service_batch(
        self, entries: List[Tuple[int, ReadRequest]]
    ) -> List[Tuple[int, Completion]]:
        """Service (position, request) pairs under the configured policy.

        ``fcfs`` serves in issue order.  ``frfcfs`` (first-ready FCFS)
        prefers, within a small look-ahead window, requests that hit the
        currently open row of their bank — the standard open-page scheduler
        optimisation — falling back to the oldest request.
        """
        pending = sorted(entries, key=lambda item: (item[1].issue_cycle, item[0]))
        if self.policy == "fcfs":
            return [(position, self.service(request)) for position, request in pending]

        serviced: List[Tuple[int, Completion]] = []
        while pending:
            window = pending[: self.frfcfs_window]
            chosen = next(
                (item for item in window if self._would_row_hit(item[1])),
                window[0],
            )
            pending.remove(chosen)
            position, request = chosen
            serviced.append((position, self.service(request)))
        return serviced


class ObjectMemorySystem:
    """The memory-system facade over per-channel object controllers.

    Same contract as :class:`repro.memory.system.MemorySystem` — hot-index
    tier first, then the controllers, then rank faults, then the
    ``mem_read_*`` events — over request and completion lists.
    """

    def __init__(
        self,
        config: MemoryConfig,
        policy: str = "fcfs",
        tracer: Tracer = NULL_TRACER,
        faults: Optional[FaultPlan] = None,
        fault_policy: Optional[FaultPolicy] = None,
        cache: Optional[HotTierConfig] = None,
    ) -> None:
        self.config = config
        self.policy = policy
        self.tracer = tracer
        self.faults = faults
        self.fault_policy = fault_policy if fault_policy is not None else FaultPolicy()
        self._controllers: Dict[int, ChannelController] = {
            channel: ChannelController(channel, config, policy=policy)
            for channel in range(config.geometry.channels)
        }
        self.cache_config = cache
        self.tier: Optional[HotIndexTier] = (
            HotIndexTier(cache, config.geometry.total_ranks)
            if cache is not None
            else None
        )
        #: positions (within the last ``execute`` batch) whose reads were
        #: lost to rank timeouts after the full retry budget (degrade mode).
        self.failed_positions: Set[int] = set()

    def reset(self) -> None:
        """Clear all bank/bus state (tier stays warm)."""
        for controller in self._controllers.values():
            controller.reset()
        self.failed_positions = set()

    @property
    def cache_stats(self) -> CacheStats:
        """Aggregate tier hit/miss stats (all-zero when no tier)."""
        if self.tier is None:
            return CacheStats()
        return self.tier.stats

    def execute(
        self, requests: Sequence[ReadRequest]
    ) -> Tuple[List[Completion], AccessStats]:
        """Service a batch of reads; returns completions in request order.

        With a hot-index tier configured, each vector read (integer
        ``tag``) consults its rank's cache first, in batch-position
        order.  Hits complete synthetically after ``hit_latency_cycles``
        and never reach a channel controller, the stats, or the
        ``mem_read_*`` events; misses (and untagged
        stream reads) take the normal DRAM path.  Positions are
        preserved throughout, so engines slice the returned list exactly
        as in an uncached run and fault injection sees every position.
        """
        tier = self.tier
        hit_positions: Set[int] = set()
        completions: List[Completion] = [None] * len(requests)  # type: ignore
        if tier is not None:
            hit_latency = tier.hit_latency_cycles
            tracing = self.tracer.enabled
            emit_packed = self.tracer.emit_packed
            for position, request in enumerate(requests):
                # Only whole-vector reads are cacheable: their tag is the
                # vector id.  Stream reads carry tuple tags and bypass.
                tag = request.tag
                if not isinstance(tag, int) or isinstance(tag, bool):
                    continue
                if tier.cache_for(request.rank) is None:
                    continue
                if tier.access(request.rank, tag):
                    finish = request.issue_cycle + hit_latency
                    completions[position] = Completion(
                        request=request,
                        start_cycle=request.issue_cycle,
                        finish_cycle=finish,
                        row_hit=False,
                        bursts=0,
                        activated=False,
                    )
                    hit_positions.add(position)
                    if tracing:
                        emit_packed(
                            CACHE_HIT,
                            finish,
                            clock=CLOCK_DRAM,
                            rank=request.rank,
                            args=(tag,),
                        )
                elif tracing:
                    emit_packed(
                        CACHE_MISS,
                        request.issue_cycle,
                        clock=CLOCK_DRAM,
                        rank=request.rank,
                        args=(tag,),
                    )

        by_channel: Dict[int, List[Tuple[int, ReadRequest]]] = {}
        geometry = self.config.geometry
        for position, request in enumerate(requests):
            if position in hit_positions:
                continue
            channel = geometry.channel_of(request.rank)
            by_channel.setdefault(channel, []).append((position, request))

        for channel, entries in by_channel.items():
            controller = self._controllers[channel]
            for position, completion in controller.service_batch(entries):
                completions[position] = completion

        self.failed_positions = set()
        if self.faults is not None and self.faults.touches_memory:
            # Faults evaluate every position — hits included — so the set
            # of failed positions (and hence statuses) is invariant to the
            # tier: injection is keyed by batch position, and a cached run
            # must degrade exactly like the uncached run it models.
            for position, completion in enumerate(completions):
                if completion is not None:
                    completions[position] = self._apply_read_faults(
                        position, completion
                    )

        done = [c for c in completions if c is not None]
        dram = [
            completion
            for position, completion in enumerate(completions)
            if completion is not None and position not in hit_positions
        ]
        if self.tracer.enabled:
            emit_packed = self.tracer.emit_packed
            for completion in dram:
                request = completion.request
                emit_packed(
                    MEM_READ_ISSUE,
                    request.issue_cycle,
                    clock=CLOCK_DRAM,
                    rank=request.rank,
                    args=(request.bank, request.bytes_),
                )
                emit_packed(
                    MEM_READ_COMPLETE,
                    completion.finish_cycle,
                    clock=CLOCK_DRAM,
                    rank=request.rank,
                    args=(
                        request.bank,
                        request.bytes_,
                        completion.start_cycle,
                        completion.row_hit,
                        completion.bursts,
                    ),
                )
        return done, stats_of(dram)

    # --- fault injection ---------------------------------------------------
    def _apply_read_faults(self, position: int, completion: Completion) -> Completion:
        """Stretch, retry, or fail one completion per the installed plan.

        Timeout arithmetic runs entirely in DRAM cycles: the watchdog
        notices a lost read ``read_timeout_cycles`` after its nominal
        finish, each retry waits ``backoff · 2^attempt`` before re-issuing,
        and the surviving completion's ``finish_cycle`` carries the full
        penalty — downstream the engine converts it to PE cycles like any
        other memory latency, so chaos runs have honest timing.
        """
        assert self.faults is not None
        plan = self.faults
        policy = self.fault_policy
        rank = completion.request.rank

        multiplier = plan.read_latency_multiplier(rank)
        if multiplier != 1.0:
            service = completion.finish_cycle - completion.start_cycle
            stretched = completion.start_cycle + int(round(service * multiplier))
            completion = replace(completion, finish_cycle=stretched)
            if self.tracer.enabled:
                self.tracer.emit(
                    TraceEvent(
                        FAULT_INJECTED,
                        cycle=completion.finish_cycle,
                        clock=CLOCK_DRAM,
                        rank=rank,
                        args={
                            "fault": FAULT_RANK_DEGRADED,
                            "multiplier": multiplier,
                        },
                    )
                )

        penalty = 0
        attempt = 0
        while plan.read_times_out(rank, position, attempt):
            deadline = completion.finish_cycle + penalty + policy.read_timeout_cycles
            if self.tracer.enabled:
                self.tracer.emit(
                    TraceEvent(
                        FAULT_INJECTED,
                        cycle=deadline,
                        clock=CLOCK_DRAM,
                        rank=rank,
                        args={"fault": FAULT_RANK_TIMEOUT, "attempt": attempt},
                    )
                )
            exhausted = attempt >= policy.max_read_retries
            if self.tracer.enabled:
                args = {"fault": FAULT_RANK_TIMEOUT, "attempt": attempt}
                if exhausted:
                    args["fatal"] = True
                self.tracer.emit(
                    TraceEvent(
                        FAULT_DETECTED,
                        cycle=deadline,
                        clock=CLOCK_DRAM,
                        rank=rank,
                        args=args,
                    )
                )
            if exhausted:
                if policy.fail_fast:
                    raise RankTimeoutError(
                        f"read on rank {rank} (batch position {position}) "
                        f"timed out {attempt + 1} times; retry budget "
                        f"({policy.max_read_retries}) exhausted"
                    )
                self.failed_positions.add(position)
                return replace(completion, finish_cycle=deadline)
            backoff = policy.read_retry_backoff_cycles * (2**attempt)
            if self.tracer.enabled:
                self.tracer.emit(
                    TraceEvent(
                        RETRY_ISSUED,
                        cycle=deadline + backoff,
                        clock=CLOCK_DRAM,
                        rank=rank,
                        args={
                            "fault": FAULT_RANK_TIMEOUT,
                            "attempt": attempt + 1,
                            "backoff_cycles": backoff,
                        },
                    )
                )
            penalty += policy.read_timeout_cycles + backoff
            attempt += 1
        if penalty:
            completion = replace(
                completion, finish_cycle=completion.finish_cycle + penalty
            )
        return completion


def to_requests(reads: ReadColumns) -> List[ReadRequest]:
    """One :class:`ReadRequest` per entry of ``reads``."""
    return [
        ReadRequest(rank, bank, row, column, size, issue, tag)
        for rank, bank, row, column, size, issue, tag in zip(
            reads.rank, reads.bank, reads.row, reads.column, reads.bytes,
            reads.issue, reads.tag,
        )
    ]


def to_columns(requests: Iterable[ReadRequest]) -> ReadColumns:
    """The columns of a request list, in its order."""
    reads = ReadColumns()
    for r in requests:
        reads.append(r.rank, r.bank, r.row, r.column, r.bytes_, r.issue_cycle, r.tag)
    return reads


def served_of(completions: Sequence[Completion]) -> ServedReads:
    """The :class:`ServedReads` columns of a completion list."""
    return ServedReads(
        [c.start_cycle for c in completions],
        [c.finish_cycle for c in completions],
        [c.row_hit for c in completions],
        [c.activated for c in completions],
        [c.bursts for c in completions],
    )
