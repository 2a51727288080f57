"""Typed trace events: the observability vocabulary of the simulation.

Every event is a :class:`TraceEvent` — a frozen record of *what* happened
(``kind``), *when* (``cycle``, in the clock domain named by ``clock``), and
*where* (``pe``/``level`` for tree events, ``rank`` for memory events),
plus a small free-form ``args`` mapping for kind-specific detail.

The taxonomy follows the message lifecycle through one batch:

========================  =====================================================
kind                      meaning
========================  =====================================================
``batch_start``           host submits a batch (cycle 0 of the batch; args
                          carry ``queries``/``dedup``)
``mem_read_issue``        a DRAM read is issued to the memory system
``mem_read_complete``     its last data beat arrived (args carry start/bytes/
                          row_hit/bursts)
``leaf_inject``           a fetched vector's message enters a leaf PE FIFO
``fifo_enqueue``          FIFO occupancy after an inject (args carry depth)
``fifo_stall``            an inject pushed occupancy past the configured
                          buffer capacity (backpressure in real hardware)
``pe_reduce``             a compute unit folded a partner into an entry
``pe_forward``            a compute unit passed an entry along unmatched
``pe_merge``              the merge unit coalesced same-``indices`` outputs
``query_complete``        a finished answer was matched at the root
``batch_complete``        the batch's last query completed (args carry
                          ``queries``/``unique_reads``/``dropped_indices``,
                          0 on a clean run)
``pipeline_batch``        multi-batch streaming: one batch's pipelined
                          completion and ``memory_start`` (emitted by
                          ``run_batches``)
``fault_injected``        a :class:`~repro.faults.plan.FaultPlan` fired at an
                          injection site (args carry ``fault``: the type)
``fault_detected``        the owning component noticed the fault (args carry
                          ``fatal: true`` when the retry budget is exhausted)
``retry_issued``          a recovery retry was issued (read re-issue with
                          backoff, source re-fetch, vector re-read)
``shard_redispatched``    a crashed/hung shard was re-dispatched onto a
                          healthy worker by ``ShardedRunner`` (args carry
                          fault/shard/attempt; emitted before the shard's
                          own stream)
``query_degraded``        a query lost vectors and completed with
                          ``degraded``/``failed`` status (graceful mode)
``shard_msg_sent``        cross-shard reduction: one modeled inter-node
                          message, at its step's absolute end cycle (args
                          carry step/src/dst/bytes/queries/segments/batch)
``shard_reduced``         cross-shard reduction: a node merged inbound
                          partials at the end of a schedule step (args carry
                          step/node/messages/queries/batch)
``cache_hit``             the rank's hot-index tier served a vector read
                          without touching DRAM (args carry ``index``)
``cache_miss``            the tier was consulted and missed — the read went
                          to DRAM and the line was allocated (args carry
                          ``index``)
``msg_dropped``           a cross-shard reduction message was lost on the
                          wire (args carry step/src/dst/bytes/attempt)
``msg_retransmitted``     a dropped message was re-sent — link-layer retry
                          or the final host-mediated escalation (args carry
                          step/src/dst/attempt/escalated)
``request_shed``          the admission controller refused a serving
                          request that could not meet its deadline (args
                          carry request/queue_depth/estimated_us)
``hedge_issued``          a straggling shard's work was hedged onto a
                          healthy replica; first result wins (args carry
                          shard/batch/issued_at/won/saved/wasted)
========================  =====================================================

Memory events carry DRAM-clock cycles (``clock == CLOCK_DRAM``); everything
else is in PE cycles.  Events are plain picklable data so sharded workers
can return recorded streams across process boundaries, and two runs that
behave identically produce ``==``-equal event lists (the property the
scalar-vs-vector differential tests assert).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Optional

# --- event kinds -----------------------------------------------------------
BATCH_START = "batch_start"
MEM_READ_ISSUE = "mem_read_issue"
MEM_READ_COMPLETE = "mem_read_complete"
LEAF_INJECT = "leaf_inject"
FIFO_ENQUEUE = "fifo_enqueue"
FIFO_STALL = "fifo_stall"
PE_REDUCE = "pe_reduce"
PE_FORWARD = "pe_forward"
PE_MERGE = "pe_merge"
QUERY_COMPLETE = "query_complete"
BATCH_COMPLETE = "batch_complete"
PIPELINE_BATCH = "pipeline_batch"
FAULT_INJECTED = "fault_injected"
FAULT_DETECTED = "fault_detected"
RETRY_ISSUED = "retry_issued"
SHARD_REDISPATCHED = "shard_redispatched"
QUERY_DEGRADED = "query_degraded"
SHARD_MSG_SENT = "shard_msg_sent"
SHARD_REDUCED = "shard_reduced"
CACHE_HIT = "cache_hit"
CACHE_MISS = "cache_miss"
MSG_DROPPED = "msg_dropped"
MSG_RETRANSMITTED = "msg_retransmitted"
REQUEST_SHED = "request_shed"
HEDGE_ISSUED = "hedge_issued"

EVENT_KINDS = (
    BATCH_START,
    MEM_READ_ISSUE,
    MEM_READ_COMPLETE,
    LEAF_INJECT,
    FIFO_ENQUEUE,
    FIFO_STALL,
    PE_REDUCE,
    PE_FORWARD,
    PE_MERGE,
    QUERY_COMPLETE,
    BATCH_COMPLETE,
    PIPELINE_BATCH,
    FAULT_INJECTED,
    FAULT_DETECTED,
    RETRY_ISSUED,
    SHARD_REDISPATCHED,
    QUERY_DEGRADED,
    SHARD_MSG_SENT,
    SHARD_REDUCED,
    # New kinds append at the END: KIND_CODES are enumeration-derived and
    # recorded columnar traces must keep decoding under newer vocabularies.
    CACHE_HIT,
    CACHE_MISS,
    MSG_DROPPED,
    MSG_RETRANSMITTED,
    REQUEST_SHED,
    HEDGE_ISSUED,
)

# --- clock domains ---------------------------------------------------------
CLOCK_PE = "pe"
CLOCK_DRAM = "dram"

# --- packed emission -------------------------------------------------------
# Kinds whose ``args`` are a fixed tuple of small integers can travel the
# packed fast path (``Tracer.emit_packed`` → ``ColumnarSink``) without a
# TraceEvent or args dict ever being constructed at the emit site.  Each
# schema lists the arg keys in emission order plus the decoder restoring
# the original Python type when a columnar record is materialized back
# into a :class:`TraceEvent` (``row_hit`` must come back as a real bool so
# JSONL/Chrome exports are unchanged).
PACKED_SCHEMAS: Dict[str, tuple] = {
    PE_REDUCE: (("dur_cycles", int),),
    PE_FORWARD: (("dur_cycles", int),),
    PE_MERGE: (("members", int),),
    LEAF_INJECT: (("index", int),),
    FIFO_ENQUEUE: (("fifo", int), ("depth", int)),
    FIFO_STALL: (("fifo", int), ("depth", int)),
    QUERY_COMPLETE: (("query", int), ("terms", int)),
    MEM_READ_ISSUE: (("bank", int), ("bytes", int)),
    MEM_READ_COMPLETE: (
        ("bank", int),
        ("bytes", int),
        ("start_cycle", int),
        ("row_hit", bool),
        ("bursts", int),
    ),
    CACHE_HIT: (("index", int),),
    CACHE_MISS: (("index", int),),
}

#: Widest packed schema — sizes the arg columns of a ColumnarSink.
MAX_PACKED_ARGS = max(len(schema) for schema in PACKED_SCHEMAS.values())

#: Dense integer code per kind (the ColumnarSink's ``kind`` column).
KIND_CODES: Dict[str, int] = {kind: code for code, kind in enumerate(EVENT_KINDS)}


@dataclass(frozen=True)
class TraceEvent:
    """One observed occurrence inside a simulation run.

    Attributes:
        kind: one of :data:`EVENT_KINDS`.
        cycle: timestamp in the domain named by ``clock``.  For operations
            with duration (memory reads, PE ops) this is the *completion*
            cycle; ``args`` carries the start where known.
        clock: ``"pe"`` or ``"dram"``.
        pe: tree PE id, for tree-side events.
        level: tree level of that PE (0 = leaves).
        rank: global memory rank, for memory-side and leaf-inject events.
        args: kind-specific detail (plain JSON-compatible values only).
    """

    kind: str
    cycle: int
    clock: str = CLOCK_PE
    pe: Optional[int] = None
    level: Optional[int] = None
    rank: Optional[int] = None
    args: Dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.kind not in EVENT_KINDS:
            raise ValueError(f"unknown event kind {self.kind!r}")
        if self.clock not in (CLOCK_PE, CLOCK_DRAM):
            raise ValueError(f"unknown clock domain {self.clock!r}")
        if self.cycle < 0:
            raise ValueError("cycle must be non-negative")

    def to_dict(self) -> Dict[str, Any]:
        """Compact dict form (omits unset location fields) for JSONL."""
        record: Dict[str, Any] = {"kind": self.kind, "cycle": self.cycle}
        if self.clock != CLOCK_PE:
            record["clock"] = self.clock
        if self.pe is not None:
            record["pe"] = self.pe
        if self.level is not None:
            record["level"] = self.level
        if self.rank is not None:
            record["rank"] = self.rank
        if self.args:
            record["args"] = self.args
        return record

    @staticmethod
    def from_dict(record: Dict[str, Any]) -> "TraceEvent":
        """Inverse of :meth:`to_dict` (used by JSONL replay)."""
        return TraceEvent(
            kind=record["kind"],
            cycle=record["cycle"],
            clock=record.get("clock", CLOCK_PE),
            pe=record.get("pe"),
            level=record.get("level"),
            rank=record.get("rank"),
            args=record.get("args", {}),
        )
