"""Observability: cycle-level event tracing and metrics for the simulation.

The FAFNIR arguments are claims about *where* work and traffic land — the
channel node absorbing the cross-DIMM reductions, unique-index reuse
eliminating redundant DRAM reads — so end-of-run aggregates alone cannot
show whether a run behaved as the paper describes.  This package records
per-message lifecycles and per-cycle occupancy as typed events:

* :mod:`repro.obs.events` — the event taxonomy (leaf injects, PE
  reduce/forward/merge, FIFO enqueue/stall, memory read issue/complete,
  query completion) with cycle timestamps;
* :mod:`repro.obs.tracer` — the :class:`Tracer` dispatching events to
  sinks, and :data:`NULL_TRACER`, the zero-overhead disabled default;
* :mod:`repro.obs.sinks` — pluggable exports: an in-memory store for
  tests, a compact JSONL stream, and Chrome ``trace_event`` JSON loadable
  in Perfetto / ``chrome://tracing``;
* :mod:`repro.obs.metrics` — counters, gauges, and percentile histograms,
  plus :func:`metrics_from_events` deriving the standard metric set
  (query-latency percentiles, per-level occupancy, FIFO high-water marks,
  per-rank memory traffic) from a recorded event stream.

Capture a trace from the command line with ``python -m repro.cli trace``;
see the "Observability" section of ``docs/architecture.md`` for the
taxonomy and sink formats.
"""

from repro.obs.events import (
    BATCH_COMPLETE,
    BATCH_START,
    CLOCK_DRAM,
    CLOCK_PE,
    EVENT_KINDS,
    FAULT_DETECTED,
    FAULT_INJECTED,
    FIFO_ENQUEUE,
    FIFO_STALL,
    LEAF_INJECT,
    MEM_READ_COMPLETE,
    MEM_READ_ISSUE,
    PE_FORWARD,
    PE_MERGE,
    PE_REDUCE,
    PIPELINE_BATCH,
    QUERY_COMPLETE,
    QUERY_DEGRADED,
    RETRY_ISSUED,
    SHARD_MSG_SENT,
    SHARD_REDISPATCHED,
    SHARD_REDUCED,
    TraceEvent,
)
from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    metrics_from_events,
    nearest_rank,
    per_level_counts,
)
from repro.obs.sinks import (
    ChromeTraceSink,
    ColumnarSink,
    InMemorySink,
    JsonlSink,
    Sink,
    chrome_trace_json,
)
from repro.obs.tracer import NULL_TRACER, Tracer

__all__ = [
    "BATCH_COMPLETE",
    "BATCH_START",
    "CLOCK_DRAM",
    "CLOCK_PE",
    "ChromeTraceSink",
    "ColumnarSink",
    "Counter",
    "EVENT_KINDS",
    "FAULT_DETECTED",
    "FAULT_INJECTED",
    "FIFO_ENQUEUE",
    "FIFO_STALL",
    "Gauge",
    "Histogram",
    "InMemorySink",
    "JsonlSink",
    "LEAF_INJECT",
    "MEM_READ_COMPLETE",
    "MEM_READ_ISSUE",
    "MetricsRegistry",
    "NULL_TRACER",
    "PE_FORWARD",
    "PE_MERGE",
    "PE_REDUCE",
    "PIPELINE_BATCH",
    "QUERY_COMPLETE",
    "QUERY_DEGRADED",
    "RETRY_ISSUED",
    "SHARD_MSG_SENT",
    "SHARD_REDISPATCHED",
    "SHARD_REDUCED",
    "Sink",
    "TraceEvent",
    "Tracer",
    "chrome_trace_json",
    "metrics_from_events",
    "nearest_rank",
    "per_level_counts",
]
