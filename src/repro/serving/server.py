"""Event-driven online serving simulator.

Couples a load generator (:mod:`repro.serving.loadgen`), the continuous
batcher (:mod:`repro.serving.batcher`), and the hardware timing model into
one discrete-event loop over **modeled time**:

* arrivals are admitted to the batcher as the clock passes them;
* whenever the accelerator is free the batcher may dispatch — a full
  sharing-aware batch, or a partial one when the oldest request's SLO
  budget is nearly spent;
* a dispatched batch occupies the accelerator for the engine's modeled
  batch latency; singleton batches can fall back to the compare-free
  :class:`~repro.core.interactive.InteractiveEngine` path, which is the
  low-load latency win (paper §IV-C);
* per-request enqueue/dispatch/complete timestamps are threaded through
  :mod:`repro.obs.metrics`, so p50/p99 latency, SLO attainment, and dedup
  savings come out of the same instrument set as every other subsystem.

Formed batches run through the *same* :meth:`FafnirEngine.run_batch` as the
offline path — identical formed batches produce byte-identical vectors (the
differential test asserts exactly that).

**Overload control** (opt-in, ``overload=`` / ``breaker=``): an
:class:`~repro.resilience.admission.AdmissionController` sheds arriving
requests whose completion forecast overruns their deadline (they get an
immediate :data:`~repro.faults.policy.STATUS_SHED` record that counts as
an SLO miss — shedding can never game attainment), and a per-rank
:class:`~repro.resilience.breaker.CircuitBreaker` watches each batched
dispatch's mean DRAM latency per rank; a rank that degrades past the
threshold is routed to a boosted hot-index tier until its cooldown probe
comes back healthy.  With neither installed — or installed but never
triggering — the serving path is byte-identical to a build without them.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Protocol, Sequence, Tuple

import numpy as np

from repro.core.config import FafnirConfig
from repro.core.engine import FafnirEngine, VectorSource
from repro.core.interactive import InteractiveEngine
from repro.faults.plan import FaultPlan
from repro.faults.policy import (
    STATUS_DEGRADED,
    STATUS_FAILED,
    STATUS_OK,
    STATUS_SHED,
    FaultPolicy,
)
from repro.obs.events import BREAKER_OPENED, REQUEST_SHED, TraceEvent
from repro.obs.metrics import MetricsRegistry, nearest_rank
from repro.resilience.admission import SHED, AdmissionController, OverloadPolicy
from repro.resilience.breaker import BreakerConfig, CircuitBreaker

from repro.serving.batcher import ContinuousBatcher
from repro.serving.loadgen import Request
from repro.tiering.cache import HotTierConfig
from repro.tiering.placement import AccessProfile


class LoadSource(Protocol):
    """What the simulator needs from a load generator."""

    def initial(self) -> List[Request]: ...

    def on_complete(self, request: Request, complete_us: float) -> Optional[Request]: ...


@dataclass(frozen=True)
class RequestRecord:
    """One served (or shed) request's full timeline.

    ``status`` is one of :data:`~repro.faults.policy.REQUEST_STATUSES`:
    ``ok``/``degraded``/``failed`` from the engine's per-query verdicts,
    or ``shed`` when admission control refused the request (then
    dispatch/complete are the arrival instant and ``batch_index`` is -1).
    """

    request: Request
    dispatch_us: float
    complete_us: float
    batch_index: int
    batch_size: int
    interactive: bool
    status: str = STATUS_OK

    @property
    def queue_us(self) -> float:
        return self.dispatch_us - self.request.arrival_us

    @property
    def latency_us(self) -> float:
        return self.complete_us - self.request.arrival_us

    @property
    def slo_met(self) -> bool:
        """Shed requests always count as misses — shedding keeps the
        *admitted* stream healthy but must never inflate attainment."""
        if self.status == STATUS_SHED:
            return False
        return self.complete_us <= self.request.deadline_us


@dataclass
class ServingReport:
    """Everything one serving run produced."""

    records: List[RequestRecord]
    batches: List[List[List[int]]]
    members: List[List[int]]
    vectors: Dict[int, np.ndarray]
    metrics: MetricsRegistry
    total_lookups: int = 0
    unique_reads: int = 0
    makespan_us: float = 0.0
    interactive_dispatches: int = 0
    cache_hits: int = 0
    cache_misses: int = 0
    shed_requests: int = 0
    degraded_requests: int = 0
    failed_requests: int = 0
    breaker_opens: int = 0
    events: List[TraceEvent] = field(default_factory=list)

    def _latencies(self) -> List[float]:
        # Shed requests were never served; including their zero "latency"
        # would flatter the percentiles exactly when shedding is heaviest.
        return sorted(
            record.latency_us
            for record in self.records
            if record.status != STATUS_SHED
        )

    def latency_percentile_us(self, p: float) -> float:
        return nearest_rank(self._latencies(), p)

    @property
    def slo_attainment(self) -> float:
        if not self.records:
            return 1.0
        met = sum(1 for record in self.records if record.slo_met)
        return met / len(self.records)

    @property
    def dedup_savings_fraction(self) -> float:
        if not self.total_lookups:
            return 0.0
        return (self.total_lookups - self.unique_reads) / self.total_lookups

    @property
    def mean_batch_size(self) -> float:
        if not self.batches:
            return 0.0
        return sum(len(batch) for batch in self.batches) / len(self.batches)

    @property
    def observed_qps(self) -> float:
        if not self.records or self.makespan_us <= 0:
            return 0.0
        return len(self.records) * 1e6 / self.makespan_us

    @property
    def cache_hit_rate(self) -> float:
        accesses = self.cache_hits + self.cache_misses
        if accesses <= 0:
            return 0.0
        return min(1.0, self.cache_hits / accesses)

    @property
    def shed_fraction(self) -> float:
        if not self.records:
            return 0.0
        return self.shed_requests / len(self.records)

    def status_counts(self) -> Dict[str, int]:
        counts: Dict[str, int] = {}
        for record in self.records:
            counts[record.status] = counts.get(record.status, 0) + 1
        return counts

    def summary(self) -> Dict[str, float]:
        return {
            "requests": float(len(self.records)),
            "batches": float(len(self.batches)),
            "mean_batch_size": self.mean_batch_size,
            "interactive_dispatches": float(self.interactive_dispatches),
            "p50_us": self.latency_percentile_us(50),
            "p99_us": self.latency_percentile_us(99),
            "slo_attainment": self.slo_attainment,
            "dedup_savings_fraction": self.dedup_savings_fraction,
            "observed_qps": self.observed_qps,
            "makespan_us": self.makespan_us,
            "cache_hit_rate": self.cache_hit_rate,
            "shed_fraction": self.shed_fraction,
            "degraded_requests": float(self.degraded_requests),
            "failed_requests": float(self.failed_requests),
            "breaker_opens": float(self.breaker_opens),
        }


@dataclass
class ServingSimulator:
    """Drives one serving run over modeled time.

    Args:
        batcher: admission + continuous batching policy.
        config: accelerator configuration; ``config.batch_size`` must admit
            the batcher's batches.
        interactive_fallback: serve singleton batches on the compare-free
            interactive path instead of the batch pipeline.
        registry: metrics sink; a fresh one is created when omitted.
        cache: opt-in hot-index tier for the batch engine
            (:class:`~repro.tiering.cache.HotTierConfig`).  The tier
            stays warm across formed batches, so skewed load keeps
            hitting it; functional results are unchanged — only the
            modeled batch service time and DRAM traffic drop, which is
            where the SLO-attainment uplift comes from.  Interactive
            singleton dispatches bypass the memory system and the tier.
        faults: opt-in chaos script for the batch engine (rank
            degradation and friends); when installed, the interactive
            fallback is disabled so every request sees the faulted memory
            system, and ``fault_policy`` picks fail-fast vs degrade.
        overload: opt-in admission control
            (:class:`~repro.resilience.admission.OverloadPolicy`).
        breaker: opt-in per-rank circuit breaker
            (:class:`~repro.resilience.breaker.BreakerConfig`).
    """

    batcher: ContinuousBatcher
    config: Optional[FafnirConfig] = None
    interactive_fallback: bool = True
    registry: Optional[MetricsRegistry] = None
    cache: Optional[HotTierConfig] = None
    faults: Optional[FaultPlan] = None
    fault_policy: Optional[FaultPolicy] = None
    overload: Optional[OverloadPolicy] = None
    breaker: Optional[BreakerConfig] = None
    _engine: FafnirEngine = field(init=False, repr=False)
    _interactive: Optional[InteractiveEngine] = field(init=False, repr=False)
    _admission: Optional[AdmissionController] = field(init=False, repr=False)
    _breaker: Optional[CircuitBreaker] = field(init=False, repr=False)
    _engine_open_ranks: frozenset = field(init=False, repr=False)
    _profile: Optional[AccessProfile] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        self.config = self.config or FafnirConfig()
        if self.batcher.batch_size > self.config.batch_size:
            raise ValueError(
                f"batcher forms batches of {self.batcher.batch_size} but the "
                f"engine accepts at most {self.config.batch_size}"
            )
        self.registry = self.registry if self.registry is not None else MetricsRegistry()
        self._engine_open_ranks = frozenset()
        self._engine = self._build_engine(self._engine_open_ranks)
        # InteractiveEngine has no fault model: with a plan installed a
        # singleton must stay on the batch engine, or it bypasses the plan.
        self._interactive = (
            InteractiveEngine(config=self.config)
            if self.interactive_fallback and self.faults is None
            else None
        )
        self._admission = (
            AdmissionController(
                self.overload,
                self.batcher.batch_size,
                self.batcher.dispatch_margin_us,
            )
            if self.overload is not None
            else None
        )
        self._breaker = (
            CircuitBreaker(self.breaker) if self.breaker is not None else None
        )
        self._profile = AccessProfile() if self.breaker is not None else None

    def _build_engine(self, open_ranks: frozenset) -> FafnirEngine:
        """The batch engine, with open ranks routed to a boosted tier."""
        return FafnirEngine(
            config=self.config,
            cache=self._tier_for(open_ranks),
            faults=self.faults,
            fault_policy=self.fault_policy,
        )

    def _pe_cycles(self, us: float) -> int:
        """A modeled serving time (µs) as a PE-clock event cycle."""
        return self.config.pe_clock.ns_to_cycles(us * 1e3)

    def _tier_for(self, open_ranks: frozenset) -> Optional[HotTierConfig]:
        """The hot-tier description serving the given open-rank set.

        With the breaker closed this is exactly the configured ``cache``
        (``None`` stays ``None`` — byte-identity with the pre-breaker
        build).  An open rank gets at least ``cache_boost_kb`` of tier
        with the rank's observed-hottest rows pinned as residents, so the
        rebuilt (cold) tier absorbs the hot set immediately instead of
        waiting out a warmup the batcher's dedup would mostly deny it.
        """
        if not open_ranks:
            return self.cache
        assert self.breaker is not None and self.config is not None
        base = self.cache
        boost = self.breaker.cache_boost_kb * 1024
        line = (
            base.line_bytes
            if base is not None
            else max(self.config.vector_bytes, 1)
        )
        per_rank = tuple(
            max(base.rank_size_bytes(rank) if base is not None else 0, boost)
            if rank in open_ranks
            else (base.rank_size_bytes(rank) if base is not None else 0)
            for rank in range(self.config.total_ranks)
        )
        pinned = self._pinned_for(open_ranks, per_rank, line)
        if base is not None:
            return HotTierConfig(
                size_bytes=base.size_bytes,
                line_bytes=base.line_bytes,
                ways=base.ways,
                policy=base.policy,
                hit_latency_cycles=base.hit_latency_cycles,
                per_rank_size_bytes=per_rank,
                pinned=pinned,
            )
        return HotTierConfig(
            size_bytes=0,
            line_bytes=line,
            per_rank_size_bytes=per_rank,
        ) if pinned is None else HotTierConfig(
            size_bytes=0,
            line_bytes=line,
            per_rank_size_bytes=per_rank,
            pinned=pinned,
        )

    def _pinned_for(
        self,
        open_ranks: frozenset,
        per_rank: Tuple[int, ...],
        line_bytes: int,
    ) -> Optional[Tuple[Tuple[int, ...], ...]]:
        """Pinned residents per rank: observed-hottest rows for open ranks.

        The serving loop keeps an :class:`AccessProfile` of every
        dispatched query; when a rank opens, its share of the profile's
        hottest ids (home rank via the engine's placement) fills the
        boosted tier up to capacity.  Non-open ranks keep whatever the
        base tier pinned.
        """
        assert self.config is not None
        base = self.cache
        home_rank = self._engine.placement.home_rank
        by_heat: List[int] = (
            self._profile.hottest_ids(len(self._profile.counts))
            if self._profile is not None
            else []
        )
        pinned: List[Tuple[int, ...]] = []
        any_pins = False
        for rank in range(self.config.total_ranks):
            base_pins = base.rank_pinned(rank) if base is not None else ()
            if rank not in open_ranks:
                pinned.append(base_pins)
                any_pins = any_pins or bool(base_pins)
                continue
            budget = max(per_rank[rank] // max(line_bytes, 1), 0)
            chosen = list(base_pins)
            taken = set(chosen)
            for index in by_heat:
                if len(chosen) >= budget:
                    break
                if index in taken or home_rank(index) != rank:
                    continue
                chosen.append(index)
                taken.add(index)
            pinned.append(tuple(chosen))
            any_pins = any_pins or bool(chosen)
        if not any_pins:
            return None
        return tuple(pinned)

    def _sync_breaker_engine(self) -> None:
        """Rebuild the batch engine when the breaker's open set changed."""
        assert self._breaker is not None
        open_ranks = self._breaker.open_ranks()
        if open_ranks != self._engine_open_ranks:
            self._engine_open_ranks = open_ranks
            self._engine = self._build_engine(open_ranks)

    # ------------------------------------------------------------------
    def _service_batch(self, queries: Sequence[List[int]], source: VectorSource):
        """Run one formed batch on the modeled hardware.

        Returns (vectors, service_us, total_lookups, unique_reads,
        used_interactive, statuses).
        """
        assert self.config is not None
        if len(queries) == 1 and self._interactive is not None:
            result = self._interactive.lookup_one(queries[0], source)
            service_us = (
                self.config.pe_clock.cycles_to_ns(result.latency_pe_cycles) / 1e3
            )
            lookups = len(queries[0])
            return (
                [result.vector],
                service_us,
                lookups,
                len(set(queries[0])),
                True,
                [STATUS_OK],
            )
        result = self._engine.run_batch(queries, source)
        service_us = (
            self.config.pe_clock.cycles_to_ns(result.stats.latency_pe_cycles) / 1e3
        )
        return (
            result.vectors,
            service_us,
            result.stats.total_lookups,
            result.stats.unique_reads,
            False,
            result.query_statuses,
        )

    def _rank_latency_samples(self) -> Dict[int, float]:
        """Mean DRAM read latency per rank over the last batched dispatch.

        The engine resets its memory system per batch, so the access
        trace holds exactly the previous batch's completions.
        """
        sums: Dict[int, float] = {}
        counts: Dict[int, int] = {}
        for completion in self._engine.memory.trace.completions:
            rank = completion.request.rank
            sums[rank] = sums.get(rank, 0.0) + (
                completion.finish_cycle - completion.start_cycle
            )
            counts[rank] = counts.get(rank, 0) + 1
        return {rank: sums[rank] / counts[rank] for rank in sums}

    def run(self, load: LoadSource, source: VectorSource) -> ServingReport:
        """Serve one load generator's stream to completion."""
        registry = self.registry
        assert registry is not None
        queue_hist = registry.histogram("serving.queue_us")
        latency_hist = registry.histogram("serving.latency_us")
        service_hist = registry.histogram("serving.service_us")
        batch_hist = registry.histogram("serving.batch_size")
        depth_gauge = registry.gauge("serving.queue_depth")

        cache_engine = self._engine
        cache_before = cache_engine.memory.cache_stats
        cache_hits_acc = 0
        cache_misses_acc = 0
        heap: List[tuple] = []
        for request in load.initial():
            heapq.heappush(heap, (request.arrival_us, request.request_id, request))

        report = ServingReport(
            records=[], batches=[], members=[], vectors={}, metrics=registry
        )
        batcher = self.batcher
        now = 0.0
        free_at = 0.0

        while heap or len(batcher):
            # Admit everything that has arrived by `now`.
            while heap and heap[0][0] <= now:
                _, _, request = heapq.heappop(heap)
                registry.counter("serving.requests").inc()
                if self._admission is not None:
                    verdict = self._admission.decide(
                        request, now, len(batcher), free_at
                    )
                    if verdict == SHED:
                        record = RequestRecord(
                            request=request,
                            dispatch_us=request.arrival_us,
                            complete_us=request.arrival_us,
                            batch_index=-1,
                            batch_size=0,
                            interactive=False,
                            status=STATUS_SHED,
                        )
                        report.records.append(record)
                        report.shed_requests += 1
                        registry.counter("serving.requests.shed").inc()
                        registry.counter("serving.slo_violations").inc()
                        report.events.append(
                            TraceEvent(
                                REQUEST_SHED,
                                cycle=self._pe_cycles(request.arrival_us),
                                args={
                                    "request": request.request_id,
                                    "queue_depth": len(batcher),
                                    "estimated_us": self._admission.forecast_complete_us(
                                        now, len(batcher), free_at
                                    ),
                                },
                            )
                        )
                        # Closed-loop users issue their next request even
                        # after a shed answer (they got *an* answer).
                        follow_up = load.on_complete(request, request.arrival_us)
                        if follow_up is not None:
                            heapq.heappush(
                                heap,
                                (
                                    follow_up.arrival_us,
                                    follow_up.request_id,
                                    follow_up,
                                ),
                            )
                        continue
                batcher.enqueue(request)
                depth_gauge.set(len(batcher))
            if now < free_at:
                # Accelerator busy: advance to it becoming free, or to the
                # next arrival, whichever is first.
                now = min([free_at] + ([heap[0][0]] if heap else []))
                continue

            draining = not heap
            batch = batcher.pop_batch(now, draining=draining) if len(batcher) else None
            if batch is None:
                targets = []
                if heap:
                    targets.append(heap[0][0])
                forced = batcher.next_forced_dispatch_us()
                if forced is not None:
                    targets.append(max(forced, now))
                if not targets:
                    break
                next_now = min(targets)
                now = next_now if next_now > now else now + 1e-9
                continue

            queries = [list(request.indices) for request in batch]
            vectors, service_us, lookups, unique, used_interactive, statuses = (
                self._service_batch(queries, source)
            )
            complete_us = now + service_us
            free_at = complete_us
            if self._admission is not None and not used_interactive:
                self._admission.observe(service_us)
            if self._breaker is not None and not used_interactive:
                if self._profile is not None:
                    self._profile.observe(queries)
                for rank in self._breaker.poll(complete_us):
                    registry.counter("breaker.half_opens").inc()
                for rank in self._breaker.observe(
                    self._rank_latency_samples(), complete_us
                ):
                    report.breaker_opens += 1
                    registry.counter("serving.breaker.opens").inc()
                    report.events.append(
                        TraceEvent(
                            BREAKER_OPENED,
                            cycle=self._pe_cycles(complete_us),
                            rank=rank,
                            args={
                                "rank": rank,
                                "ratio": self._breaker.ratios()[rank],
                            },
                        )
                    )
                old_engine = self._engine
                self._sync_breaker_engine()
                if self._engine is not old_engine:
                    after = old_engine.memory.cache_stats
                    cache_hits_acc += after.hits - cache_before.hits
                    cache_misses_acc += after.misses - cache_before.misses
                    cache_engine = self._engine
                    cache_before = cache_engine.memory.cache_stats
            batch_index = len(report.batches)
            report.batches.append(queries)
            report.members.append([request.request_id for request in batch])
            report.total_lookups += lookups
            report.unique_reads += unique
            if used_interactive:
                report.interactive_dispatches += 1
                registry.counter("serving.dispatch.interactive").inc()
            else:
                registry.counter("serving.dispatch.batched").inc()
            registry.counter("serving.batches").inc()
            registry.counter("serving.lookups.total").inc(lookups)
            registry.counter("serving.reads.unique").inc(unique)
            batch_hist.record(len(batch))
            service_hist.record(service_us)
            depth_gauge.set(len(batcher))

            for request, vector, status in zip(batch, vectors, statuses):
                record = RequestRecord(
                    request=request,
                    dispatch_us=now,
                    complete_us=complete_us,
                    batch_index=batch_index,
                    batch_size=len(batch),
                    interactive=used_interactive,
                    status=status,
                )
                if status == STATUS_DEGRADED:
                    report.degraded_requests += 1
                    registry.counter("serving.requests.degraded").inc()
                elif status == STATUS_FAILED:
                    report.failed_requests += 1
                    registry.counter("serving.requests.failed").inc()
                report.records.append(record)
                report.vectors[request.request_id] = vector
                queue_hist.record(record.queue_us)
                latency_hist.record(record.latency_us)
                if not record.slo_met:
                    registry.counter("serving.slo_violations").inc()
                follow_up = load.on_complete(request, complete_us)
                if follow_up is not None:
                    heapq.heappush(
                        heap,
                        (follow_up.arrival_us, follow_up.request_id, follow_up),
                    )
            report.makespan_us = max(report.makespan_us, complete_us)

        # This run's share of the (possibly already-warm) tier's stats,
        # accumulated across any breaker-driven engine rebuilds.
        cache_after = cache_engine.memory.cache_stats
        report.cache_hits = cache_hits_acc + cache_after.hits - cache_before.hits
        report.cache_misses = (
            cache_misses_acc + cache_after.misses - cache_before.misses
        )
        if report.cache_hits or report.cache_misses:
            registry.counter("serving.cache.hits").inc(report.cache_hits)
            registry.counter("serving.cache.misses").inc(report.cache_misses)
        report.records.sort(key=lambda record: record.request.request_id)
        return report
