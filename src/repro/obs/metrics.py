"""Counters, gauges, and percentile histograms over recorded events.

A :class:`MetricsRegistry` is a flat namespace of named instruments:

* :class:`Counter` — monotonically increasing totals (reduce counts,
  bytes read);
* :class:`Gauge` — last-value-plus-high-water (FIFO depths);
* :class:`Histogram` — full-distribution recordings with nearest-rank
  percentiles (per-query latency p50/p95/p99).

:func:`metrics_from_events` derives the standard metric set from an
in-memory trace — the same numbers the ``repro.cli trace`` subcommand
prints, and the bridge the benchmarks use to cross-check event streams
against :class:`~repro.core.engine.LookupStats` aggregates.
"""

from __future__ import annotations

import math
from typing import Any, Dict, Iterable, List, Optional, Sequence

from repro.obs.events import (
    CACHE_HIT,
    CACHE_MISS,
    FAULT_DETECTED,
    FAULT_INJECTED,
    FIFO_ENQUEUE,
    HEDGE_ISSUED,
    MEM_READ_COMPLETE,
    MSG_DROPPED,
    MSG_RETRANSMITTED,
    PE_FORWARD,
    PE_MERGE,
    PE_REDUCE,
    QUERY_COMPLETE,
    QUERY_DEGRADED,
    REQUEST_SHED,
    RETRY_ISSUED,
    SHARD_MSG_SENT,
    SHARD_REDISPATCHED,
    SHARD_REDUCED,
    TraceEvent,
)


def nearest_rank(ordered: Sequence[float], p: float) -> float:
    """Nearest-rank percentile of already-sorted samples; ``p`` in [0, 100].

    Returns the sample at rank ``max(1, ceil(p/100 · n))`` (1-based), and
    ``0.0`` for an empty sequence.
    """
    if not 0 <= p <= 100:
        raise ValueError("percentile must be within [0, 100]")
    if not ordered:
        return 0.0
    rank = max(1, math.ceil(p * len(ordered) / 100))
    return ordered[min(rank, len(ordered)) - 1]


class Counter:
    """A monotonically increasing total."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        if amount < 0:
            raise ValueError("counters only increase")
        self.value += amount


class Gauge:
    """A sampled value that also remembers its high-water mark."""

    __slots__ = ("value", "high_water")

    def __init__(self) -> None:
        self.value = 0.0
        self.high_water = 0.0

    def set(self, value: float) -> None:
        self.value = value
        if value > self.high_water:
            self.high_water = value


class Histogram:
    """Recorded samples with nearest-rank percentiles.

    **Empty-histogram behavior** (uniform across every statistic): with no
    recorded samples, ``count`` is 0 and ``mean``, ``max``, and
    ``percentile(p)`` all return ``0.0`` — never an exception.  Callers
    that need to distinguish "no data" from "all zeros" must check
    ``count`` first.

    The sorted sample list is computed at most once per flush: ``record``
    marks the cached order dirty and every percentile read reuses the
    cache, so a snapshot asking for p50/p95/p99 sorts once, not three
    times.
    """

    __slots__ = ("_values", "_sorted")

    def __init__(self) -> None:
        self._values: List[float] = []
        self._sorted: Optional[List[float]] = None

    def record(self, value: float) -> None:
        self._values.append(value)
        self._sorted = None

    def _ordered(self) -> List[float]:
        if self._sorted is None:
            self._sorted = sorted(self._values)
        return self._sorted

    @property
    def count(self) -> int:
        return len(self._values)

    @property
    def mean(self) -> float:
        """Arithmetic mean; ``0.0`` when no samples were recorded."""
        return sum(self._values) / len(self._values) if self._values else 0.0

    @property
    def max(self) -> float:
        """Largest sample; ``0.0`` when no samples were recorded."""
        return max(self._values) if self._values else 0.0

    def percentile(self, p: float) -> float:
        """Nearest-rank percentile; ``p`` in [0, 100].

        Returns ``0.0`` when no samples were recorded (same convention as
        ``mean``/``max``).  Repeated calls between ``record``\\ s reuse the
        cached sort.
        """
        return nearest_rank(self._ordered(), p)


class MetricsRegistry:
    """A flat namespace of counters, gauges, and histograms."""

    def __init__(self) -> None:
        self._counters: Dict[str, Counter] = {}
        self._gauges: Dict[str, Gauge] = {}
        self._histograms: Dict[str, Histogram] = {}

    def counter(self, name: str) -> Counter:
        return self._counters.setdefault(name, Counter())

    def gauge(self, name: str) -> Gauge:
        return self._gauges.setdefault(name, Gauge())

    def histogram(self, name: str) -> Histogram:
        return self._histograms.setdefault(name, Histogram())

    def counters(self) -> Dict[str, int]:
        return {name: c.value for name, c in sorted(self._counters.items())}

    def snapshot(self) -> Dict[str, Any]:
        """Plain-data dump of every instrument (JSON-compatible)."""
        return {
            "counters": self.counters(),
            "gauges": {
                name: {"value": g.value, "high_water": g.high_water}
                for name, g in sorted(self._gauges.items())
            },
            "histograms": {
                name: {
                    "count": h.count,
                    "mean": h.mean,
                    "max": h.max,
                    "p50": h.percentile(50),
                    "p95": h.percentile(95),
                    "p99": h.percentile(99),
                }
                for name, h in sorted(self._histograms.items())
            },
        }


def metrics_from_events(
    events: Iterable[TraceEvent],
    registry: Optional[MetricsRegistry] = None,
) -> MetricsRegistry:
    """Derive the standard metric set from a recorded event stream.

    Produces, per the observability contract in ``docs/architecture.md``:

    * ``events.<kind>`` counters for every recorded kind;
    * ``pe.reduces.level<L>`` / ``pe.forwards.level<L>`` per-level
      occupancy counters (matching ``core/stats.py`` level aggregation);
    * ``fifo.depth.pe<P>.side<S>`` gauges whose high-water marks are the
      per-FIFO peak occupancies;
    * ``memory.bytes.rank<R>`` / ``memory.reads.rank<R>`` per-rank traffic
      counters and a ``memory.finish_cycle`` gauge (DRAM cycles) for
      bandwidth arithmetic;
    * a ``query.latency_pe_cycles`` histogram over query completions;
    * ``faults.injected.<type>`` / ``faults.detected.<type>`` /
      ``faults.unrecovered.<type>`` counters, ``faults.retries`` /
      ``faults.redispatches`` totals, and ``query.status.<status>``
      counters from graceful-degradation runs;
    * ``comm.messages`` / ``comm.bytes`` / ``comm.segments`` totals and a
      ``comm.message_bytes`` histogram from cross-shard reduction runs,
      plus ``comm.reduces`` merge-step counts;
    * ``cache.hits`` / ``cache.misses`` totals with per-rank
      ``cache.hits.rank<R>`` / ``cache.misses.rank<R>`` breakdowns from
      hot-index tier runs;
    * resilience counters: ``comm.drops`` / ``comm.retransmits`` (with
      ``comm.retransmits.escalated``) from lossy-link runs,
      ``serving.shed`` from admission control, and
      ``hedge.issued`` / ``hedge.wins`` / ``hedge.saved_cycles`` /
      ``hedge.wasted_cycles`` from straggler hedging.
    """
    metrics = registry if registry is not None else MetricsRegistry()
    for event in events:
        metrics.counter(f"events.{event.kind}").inc()
        if event.kind in (PE_REDUCE, PE_FORWARD, PE_MERGE):
            if event.level is not None:
                stem = {
                    PE_REDUCE: "reduces",
                    PE_FORWARD: "forwards",
                    PE_MERGE: "merges",
                }[event.kind]
                metrics.counter(f"pe.{stem}.level{event.level}").inc()
        elif event.kind == FIFO_ENQUEUE:
            side = event.args.get("fifo", 0)
            gauge = metrics.gauge(f"fifo.depth.pe{event.pe}.side{side}")
            gauge.set(event.args.get("depth", 0))
        elif event.kind == MEM_READ_COMPLETE:
            rank = event.rank if event.rank is not None else -1
            metrics.counter(f"memory.reads.rank{rank}").inc()
            metrics.counter(f"memory.bytes.rank{rank}").inc(
                event.args.get("bytes", 0)
            )
            metrics.gauge("memory.finish_cycle").set(event.cycle)
        elif event.kind == QUERY_COMPLETE:
            metrics.histogram("query.latency_pe_cycles").record(event.cycle)
        elif event.kind == FAULT_INJECTED:
            fault = event.args.get("fault", "unknown")
            metrics.counter(f"faults.injected.{fault}").inc()
        elif event.kind == FAULT_DETECTED:
            fault = event.args.get("fault", "unknown")
            metrics.counter(f"faults.detected.{fault}").inc()
            if event.args.get("fatal"):
                metrics.counter(f"faults.unrecovered.{fault}").inc()
        elif event.kind == RETRY_ISSUED:
            metrics.counter("faults.retries").inc()
        elif event.kind == SHARD_REDISPATCHED:
            metrics.counter("faults.redispatches").inc()
        elif event.kind == QUERY_DEGRADED:
            status = event.args.get("status", "degraded")
            metrics.counter(f"query.status.{status}").inc()
        elif event.kind == SHARD_MSG_SENT:
            metrics.counter("comm.messages").inc()
            metrics.counter("comm.bytes").inc(event.args.get("bytes", 0))
            metrics.counter("comm.segments").inc(event.args.get("segments", 0))
            metrics.histogram("comm.message_bytes").record(
                event.args.get("bytes", 0)
            )
        elif event.kind == SHARD_REDUCED:
            metrics.counter("comm.reduces").inc()
        elif event.kind == CACHE_HIT:
            metrics.counter("cache.hits").inc()
            if event.rank is not None:
                metrics.counter(f"cache.hits.rank{event.rank}").inc()
        elif event.kind == CACHE_MISS:
            metrics.counter("cache.misses").inc()
            if event.rank is not None:
                metrics.counter(f"cache.misses.rank{event.rank}").inc()
        elif event.kind == MSG_DROPPED:
            metrics.counter("comm.drops").inc()
        elif event.kind == MSG_RETRANSMITTED:
            metrics.counter("comm.retransmits").inc()
            if event.args.get("escalated"):
                metrics.counter("comm.retransmits.escalated").inc()
        elif event.kind == REQUEST_SHED:
            metrics.counter("serving.shed").inc()
        elif event.kind == HEDGE_ISSUED:
            metrics.counter("hedge.issued").inc()
            if event.args.get("won"):
                metrics.counter("hedge.wins").inc()
            metrics.counter("hedge.saved_cycles").inc(
                int(event.args.get("saved", 0))
            )
            metrics.counter("hedge.wasted_cycles").inc(
                int(event.args.get("wasted", 0))
            )
    return metrics


def per_level_counts(
    events: Iterable[TraceEvent], kind: str = PE_REDUCE
) -> Dict[int, int]:
    """Event counts of one PE-op kind grouped by tree level."""
    counts: Dict[int, int] = {}
    for event in events:
        if event.kind == kind and event.level is not None:
            counts[event.level] = counts.get(event.level, 0) + 1
    return counts
