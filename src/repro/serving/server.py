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

**Overload control** (opt-in, ``overload=``): an
:class:`~repro.resilience.admission.AdmissionController` sheds arriving
requests whose completion forecast overruns their deadline (they get an
immediate :data:`~repro.faults.policy.STATUS_SHED` record that counts as
an SLO miss — shedding can never game attainment).  Installed but never
triggering, the serving path is byte-identical to a build without it.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Protocol, Sequence

import numpy as np

from repro.core.config import FafnirConfig
from repro.core.engine import FafnirEngine, VectorSource
from repro.core.interactive import InteractiveEngine
from repro.faults.policy import STATUS_OK, STATUS_SHED
from repro.obs.events import REQUEST_SHED, TraceEvent
from repro.obs.metrics import MetricsRegistry, nearest_rank
from repro.resilience.admission import SHED, AdmissionController, OverloadPolicy

from repro.serving.batcher import ContinuousBatcher
from repro.serving.loadgen import Request
from repro.tiering.cache import HotTierConfig


class LoadSource(Protocol):
    """What the simulator needs from a load generator."""

    def initial(self) -> List[Request]: ...

    def on_complete(self, request: Request, complete_us: float) -> Optional[Request]: ...


@dataclass(frozen=True)
class RequestRecord:
    """One served (or shed) request's full timeline.

    ``status`` is ``ok`` for a served request,
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
        }


@dataclass
class ServingSimulator:
    """Drives one serving run over modeled time.

    Args:
        batcher: admission + continuous batching policy.
        config: accelerator configuration; ``config.batch_size`` must admit
            the batcher's batches.
        cache: opt-in hot-index tier for the batch engine
            (:class:`~repro.tiering.cache.HotTierConfig`).  The tier
            stays warm across formed batches, so skewed load keeps
            hitting it; functional results are unchanged — only the
            modeled batch service time and DRAM traffic drop, which is
            where the SLO-attainment uplift comes from.  Interactive
            singleton dispatches bypass the memory system and the tier.
        overload: opt-in admission control
            (:class:`~repro.resilience.admission.OverloadPolicy`).
    """

    batcher: ContinuousBatcher
    config: Optional[FafnirConfig] = None
    cache: Optional[HotTierConfig] = None
    overload: Optional[OverloadPolicy] = None
    _engine: FafnirEngine = field(init=False, repr=False)
    _interactive: InteractiveEngine = field(init=False, repr=False)
    _admission: Optional[AdmissionController] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        self.config = self.config or FafnirConfig()
        if self.batcher.batch_size > self.config.batch_size:
            raise ValueError(
                f"batcher forms batches of {self.batcher.batch_size} but the "
                f"engine accepts at most {self.config.batch_size}"
            )
        self.registry = MetricsRegistry()
        self._engine = FafnirEngine(config=self.config, cache=self.cache)
        self._interactive = InteractiveEngine(config=self.config)
        self._admission = (
            AdmissionController(
                self.overload,
                self.batcher.batch_size,
                self.batcher.dispatch_margin_us,
            )
            if self.overload is not None
            else None
        )

    def _pe_cycles(self, us: float) -> int:
        """A modeled serving time (µs) as a PE-clock event cycle."""
        return self.config.pe_clock.ns_to_cycles(us * 1e3)

    # ------------------------------------------------------------------
    def _service_batch(self, queries: Sequence[List[int]], source: VectorSource):
        """Run one formed batch on the modeled hardware.

        Returns (vectors, service_us, total_lookups, unique_reads,
        used_interactive).
        """
        assert self.config is not None
        if len(queries) == 1:
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
        )

    def run(self, load: LoadSource, source: VectorSource) -> ServingReport:
        """Serve one load generator's stream to completion."""
        registry = self.registry
        queue_hist = registry.histogram("serving.queue_us")
        latency_hist = registry.histogram("serving.latency_us")
        service_hist = registry.histogram("serving.service_us")
        batch_hist = registry.histogram("serving.batch_size")
        depth_gauge = registry.gauge("serving.queue_depth")

        cache_before = self._engine.memory.cache_stats
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
            vectors, service_us, lookups, unique, used_interactive = (
                self._service_batch(queries, source)
            )
            complete_us = now + service_us
            free_at = complete_us
            if self._admission is not None and not used_interactive:
                self._admission.observe(service_us)
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

            for request, vector in zip(batch, vectors):
                record = RequestRecord(
                    request=request,
                    dispatch_us=now,
                    complete_us=complete_us,
                    batch_index=batch_index,
                    batch_size=len(batch),
                    interactive=used_interactive,
                )
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

        # This run's share of the (possibly already-warm) tier's stats.
        cache_after = self._engine.memory.cache_stats
        report.cache_hits = cache_after.hits - cache_before.hits
        report.cache_misses = cache_after.misses - cache_before.misses
        if report.cache_hits or report.cache_misses:
            registry.counter("serving.cache.hits").inc(report.cache_hits)
            registry.counter("serving.cache.misses").inc(report.cache_misses)
        report.records.sort(key=lambda record: record.request.request_id)
        return report
