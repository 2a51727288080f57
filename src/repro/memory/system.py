"""Whole-memory-system facade used by every engine in the reproduction."""

from __future__ import annotations

from dataclasses import replace
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.faults.plan import (
    FAULT_RANK_DEGRADED,
    FAULT_RANK_TIMEOUT,
    FaultPlan,
    RankTimeoutError,
)
from repro.faults.policy import FaultPolicy
from repro.memory.config import MemoryConfig
from repro.memory.controller import ChannelController
from repro.memory.request import Completion, ReadRequest
from repro.memory.trace import AccessStats
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


class MemorySystem:
    """A multi-channel DDR4-like memory system.

    Channels operate fully in parallel; each channel serialises its data bus
    but overlaps bank/rank command phases.  Engines submit batches of
    :class:`ReadRequest` and receive per-request :class:`Completion` records
    plus aggregate :class:`AccessStats`.

    With a tracer attached, every serviced request emits a
    ``mem_read_issue`` / ``mem_read_complete`` event pair in the DRAM clock
    domain, carrying the channel controller's scheduling outcome (start
    cycle, burst count, row-hit flag) — the per-request lifecycle behind
    the :class:`AccessStats` aggregates.

    With a :class:`~repro.faults.plan.FaultPlan` installed, two fault
    classes fire after the base schedule is computed:

    * **rank latency degradation** — reads on a listed rank take
      ``multiplier×`` their modelled service time (finish cycles stretch;
      the start cycle and bus schedule are untouched);
    * **rank read timeout** — a read on a flaky rank is lost; a watchdog
      notices ``read_timeout_cycles`` after the nominal completion and
      re-issues it with exponential backoff, every cycle of which is
      accounted in the DRAM clock domain.  A read that exhausts
      ``max_read_retries`` either raises :class:`RankTimeoutError`
      (``fail_fast``) or lands in :attr:`failed_positions` for the engine
      to degrade around.

    Without a plan the servicing path is unchanged, byte for byte.

    With a :class:`~repro.tiering.cache.HotTierConfig` installed, a
    rank-level hot-index tier is consulted before the channel
    controllers: vector reads (requests whose ``tag`` is the vector id)
    that hit skip DRAM entirely and complete after
    ``hit_latency_cycles``; only the misses reach a controller, the
    :class:`AccessStats`, and the ``mem_read_*`` events (so modeled DRAM
    traffic is strictly non-increasing).  The
    tier is a *timing* overlay: completions keep their batch positions,
    fault injection still evaluates every position, and functional
    results are byte-identical with the tier on or off.  ``reset``
    deliberately does **not** flush the tier — hot lines survive across
    batches, which is where the cross-batch popularity win lives.
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
        return done, AccessStats.from_completions(dram)

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
