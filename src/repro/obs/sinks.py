"""Event sinks: in-memory for tests, JSONL streams, Chrome trace JSON.

All sinks implement the two-method :class:`Sink` protocol (``record`` one
event, ``close`` to flush).  The Chrome exporter follows the ``trace_event``
format (the JSON Object Format with a ``traceEvents`` array), which both
``chrome://tracing`` and Perfetto (https://ui.perfetto.dev) load directly:

* the tree is one "process" (pid 1) with one "thread" per PE, so PE
  reduce/forward work renders as per-PE duration slices by level;
* the memory system is a second process (pid 2) with one thread per rank,
  so DRAM reads render as per-rank bus occupancy;
* instant events (leaf injects, query completions, stalls) appear as
  markers on the owning track.

Timestamps are microseconds: each event's cycle count is converted through
the clock of its domain, so PE-cycle and DRAM-cycle events line up on one
real-time axis.
"""

from __future__ import annotations

import json
from typing import IO, Any, Dict, List, Optional, Union

import numpy as np

from repro.clocks import Clock, DRAM_CLOCK, PE_CLOCK
from repro.obs.events import (
    CLOCK_DRAM,
    CLOCK_PE,
    EVENT_KINDS,
    FIFO_ENQUEUE,
    KIND_CODES,
    MAX_PACKED_ARGS,
    MEM_READ_COMPLETE,
    MEM_READ_ISSUE,
    PACKED_SCHEMAS,
    PE_FORWARD,
    PE_MERGE,
    PE_REDUCE,
    TraceEvent,
)


#: Each kind code's packed schema width (0 for kinds without one).
_SCHEMA_WIDTHS = np.array(
    [len(PACKED_SCHEMAS.get(kind, ())) for kind in EVENT_KINDS], dtype=np.int8
)


class Sink:
    """Interface every sink implements; base methods are no-ops."""

    def record(self, event: TraceEvent) -> None:
        raise NotImplementedError

    def close(self) -> None:
        pass


class InMemorySink(Sink):
    """Stores events in a list — the sink tests and metrics build on."""

    def __init__(self) -> None:
        self.events: List[TraceEvent] = []

    def record(self, event: TraceEvent) -> None:
        self.events.append(event)

    def clear(self) -> None:
        self.events.clear()

    def __len__(self) -> int:
        return len(self.events)


class ColumnarSink(Sink):
    """Ring-buffer sink recording events into preallocated typed arrays.

    The in-memory tracing tax of :class:`InMemorySink` is dominated by
    constructing one :class:`TraceEvent` (dataclass + args dict) per
    emission.  This sink instead accepts the *fields* of an event through
    the packed fast path (:meth:`record_packed`, driven by
    ``Tracer.emit_packed``) and stores
    them as plain integers in contiguous NumPy columns; ``TraceEvent``
    objects are materialized only when the recorded stream is *read*
    (:attr:`events` / :meth:`to_events`).

    **Ring semantics**: the buffer holds the most recent ``capacity``
    events.  Once more than ``capacity`` events have been recorded the
    oldest slots are overwritten and :attr:`dropped` counts what was lost;
    materialization always returns the retained window oldest-first.

    Events whose args don't fit a packed schema (batch/fault/pipeline
    events — rare, batch-scoped) are kept as objects in a side table and
    spliced back in order on read, so a columnar recording materializes
    exactly the stream an :class:`InMemorySink` would have captured.
    """

    #: Capability flag the Tracer checks before using the packed fast path.
    supports_packed = True

    _UNSET = -1  # column sentinel for "field not set" (pe/level/rank)
    _OBJECT = -2  # nargs marker: slot holds a side-table object reference

    def __init__(self, capacity: int = 1 << 20) -> None:
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self.capacity = capacity
        self._kind = np.zeros(capacity, dtype=np.int16)
        self._cycle = np.zeros(capacity, dtype=np.int64)
        self._dram = np.zeros(capacity, dtype=bool)
        self._pe = np.full(capacity, self._UNSET, dtype=np.int32)
        self._level = np.full(capacity, self._UNSET, dtype=np.int16)
        self._rank = np.full(capacity, self._UNSET, dtype=np.int32)
        self._args = np.zeros((capacity, MAX_PACKED_ARGS), dtype=np.int64)
        self._nargs = np.zeros(capacity, dtype=np.int8)
        self._objects: Dict[int, TraceEvent] = {}
        self._total = 0

    # -- write paths --------------------------------------------------------
    def record(self, event: TraceEvent) -> None:
        """Generic object path (kinds without a packed schema)."""
        slot = self._claim()
        self._nargs[slot] = self._OBJECT
        self._args[slot, 0] = self._total - 1
        self._objects[self._total - 1] = event

    def record_packed(
        self,
        kind: str,
        cycle: int,
        clock: str,
        pe: Optional[int],
        level: Optional[int],
        rank: Optional[int],
        args: tuple,
    ) -> None:
        """One packed event: scalar fields only, no TraceEvent constructed."""
        total = self._total
        slot = total % self.capacity
        if self._objects and total >= self.capacity:
            self._evict(slot, slot + 1)
        self._total = total + 1
        self._kind[slot] = KIND_CODES[kind]
        self._cycle[slot] = cycle
        self._dram[slot] = clock == CLOCK_DRAM
        self._pe[slot] = self._UNSET if pe is None else pe
        self._level[slot] = self._UNSET if level is None else level
        self._rank[slot] = self._UNSET if rank is None else rank
        n = len(args)
        self._nargs[slot] = n
        if n == 1:
            # The dominant schemas carry one int — skip the slice set-up.
            self._args[slot, 0] = args[0]
        elif n:
            self._args[slot, :n] = args

    def record_columns(self, kinds, cycles, args, clock, pe, level, rank) -> None:
        """A run of packed events as columns (``Tracer.emit_columns``),
        written as slices.  When the run is longer than the ring only its
        newest ``capacity`` events are kept, as one-by-one recording would."""
        count = len(cycles)
        if not count:
            return
        columns = [
            np.broadcast_to(self._UNSET if values is None else values, (count,))
            for values in (pe, level, rank)
        ]
        kinds, cycles, args = np.asarray(kinds), np.asarray(cycles), np.asarray(args)
        skip = max(0, count - self.capacity)
        start = self._total + skip
        first = start % self.capacity
        if first + count - skip <= self.capacity:
            slots = slice(first, first + count - skip)
        else:
            slots = np.arange(start, self._total + count) % self.capacity
        if self._objects and self._total + count > self.capacity:
            positions = np.arange(start, self._total + count)
            reused = positions[positions >= self.capacity] % self.capacity
            for slot in reused[self._nargs[reused] == self._OBJECT].tolist():
                self._objects.pop(int(self._args[slot, 0]), None)
        self._total += count
        self._kind[slots] = kinds[skip:]
        self._cycle[slots] = cycles[skip:]
        self._dram[slots] = clock == CLOCK_DRAM
        self._pe[slots], self._level[slots], self._rank[slots] = (
            column[skip:] for column in columns
        )
        self._nargs[slots] = _SCHEMA_WIDTHS[kinds[skip:]]
        self._args[slots, : args.shape[1]] = args[skip:]

    def _claim(self) -> int:
        slot = self._total % self.capacity
        self._evict(slot, slot + 1)
        self._total += 1
        return slot

    def _evict(self, start: int, stop: int) -> None:
        """Release side-table objects held by slots about to be overwritten."""
        if self._total < self.capacity or not self._objects:
            return
        for slot in range(start, stop):
            if self._nargs[slot] == self._OBJECT:
                self._objects.pop(int(self._args[slot, 0]), None)

    # -- read paths ---------------------------------------------------------
    def __len__(self) -> int:
        return min(self._total, self.capacity)

    @property
    def recorded(self) -> int:
        """Total events ever recorded (including overwritten ones)."""
        return self._total

    @property
    def dropped(self) -> int:
        """Events lost to ring overwrite."""
        return max(0, self._total - self.capacity)

    def to_events(self) -> List[TraceEvent]:
        """Materialize the retained window as TraceEvents, oldest first."""
        live = len(self)
        if not live:
            return []
        if self._total <= self.capacity:
            order = np.arange(live)
        else:
            cursor = self._total % self.capacity
            order = np.concatenate(
                [np.arange(cursor, self.capacity), np.arange(cursor)]
            )
        kinds = self._kind[order].tolist()
        cycles = self._cycle[order].tolist()
        drams = self._dram[order].tolist()
        pes = self._pe[order].tolist()
        levels = self._level[order].tolist()
        ranks = self._rank[order].tolist()
        nargs = self._nargs[order].tolist()
        argrows = self._args[order].tolist()
        events: List[TraceEvent] = []
        unset = self._UNSET
        for i in range(live):
            n = nargs[i]
            if n == self._OBJECT:
                events.append(self._objects[argrows[i][0]])
                continue
            kind = EVENT_KINDS[kinds[i]]
            schema = PACKED_SCHEMAS[kind]
            row = argrows[i]
            events.append(
                TraceEvent(
                    kind,
                    cycle=cycles[i],
                    clock=CLOCK_DRAM if drams[i] else CLOCK_PE,
                    pe=None if pes[i] == unset else pes[i],
                    level=None if levels[i] == unset else levels[i],
                    rank=None if ranks[i] == unset else ranks[i],
                    args={
                        key: decode(row[j])
                        for j, (key, decode) in enumerate(schema[:n])
                    },
                )
            )
        return events

    @property
    def events(self) -> List[TraceEvent]:
        """Materialized view (same shape as ``InMemorySink.events``)."""
        return self.to_events()

    def clear(self) -> None:
        self._total = 0
        self._objects.clear()


class JsonlSink(Sink):
    """Streams one compact JSON object per event, newline-delimited."""

    def __init__(self, destination: Union[str, IO[str]]) -> None:
        if isinstance(destination, str):
            self._file: IO[str] = open(destination, "w")
            self._owns_file = True
        else:
            self._file = destination
            self._owns_file = False

    def record(self, event: TraceEvent) -> None:
        self._file.write(json.dumps(event.to_dict(), separators=(",", ":")))
        self._file.write("\n")

    def close(self) -> None:
        self._file.flush()
        if self._owns_file:
            self._file.close()

    @staticmethod
    def load(path: str) -> List[TraceEvent]:
        """Read a JSONL stream back into events (replay / analysis)."""
        events: List[TraceEvent] = []
        with open(path) as stream:
            for line in stream:
                line = line.strip()
                if line:
                    events.append(TraceEvent.from_dict(json.loads(line)))
        return events


# --- Chrome trace_event conversion ----------------------------------------

_TREE_PID = 1
_MEMORY_PID = 2
_HOST_PID = 3


def _ts_us(event: TraceEvent, pe_clock: Clock, dram_clock: Clock) -> float:
    clock = dram_clock if event.clock == CLOCK_DRAM else pe_clock
    return clock.cycles_to_ns(event.cycle) / 1000.0


def chrome_trace_json(
    events: List[TraceEvent],
    pe_clock: Clock = PE_CLOCK,
    dram_clock: Clock = DRAM_CLOCK,
) -> Dict[str, Any]:
    """Convert an event stream to a Chrome ``trace_event`` JSON object.

    Duration-bearing kinds (memory reads via their ``start``/``issue``
    args, PE ops via ``dur_cycles``) become complete ("X") slices; the
    rest become instant ("i") markers.  Every event's source fields ride
    along in ``args`` so nothing recorded is lost in export.
    """
    trace_events: List[Dict[str, Any]] = []
    seen_pe_threads: Dict[int, Optional[int]] = {}
    seen_rank_threads: set = set()

    for event in events:
        ts = _ts_us(event, pe_clock, dram_clock)
        clock = dram_clock if event.clock == CLOCK_DRAM else pe_clock
        args = dict(event.args)
        if event.level is not None:
            args["level"] = event.level
        if event.rank is not None:
            args["rank"] = event.rank

        if event.kind in (MEM_READ_ISSUE, MEM_READ_COMPLETE):
            pid = _MEMORY_PID
            tid = (event.rank or 0) + 1
            seen_rank_threads.add(event.rank or 0)
        elif event.pe is not None:
            pid = _TREE_PID
            tid = event.pe + 1
            seen_pe_threads.setdefault(event.pe, event.level)
        else:
            pid = _HOST_PID
            tid = 1

        record: Dict[str, Any] = {
            "name": event.kind,
            "pid": pid,
            "tid": tid,
            "args": args,
        }
        if event.kind == MEM_READ_COMPLETE and "start_cycle" in event.args:
            start_us = clock.cycles_to_ns(event.args["start_cycle"]) / 1000.0
            record.update(ph="X", ts=start_us, dur=max(0.0, ts - start_us))
        elif event.kind in (PE_REDUCE, PE_FORWARD, PE_MERGE) and args.get(
            "dur_cycles"
        ):
            dur_us = clock.cycles_to_ns(args["dur_cycles"]) / 1000.0
            record.update(ph="X", ts=max(0.0, ts - dur_us), dur=dur_us)
        elif event.kind == FIFO_ENQUEUE and "depth" in event.args:
            # Counter events chart FIFO occupancy over time in the viewer.
            record.update(ph="C", ts=ts)
            record["args"] = {"depth": event.args["depth"]}
            record["name"] = f"fifo_depth_pe{event.pe}_side{args.get('fifo', 0)}"
        else:
            record.update(ph="i", ts=ts, s="t")
        trace_events.append(record)

    metadata: List[Dict[str, Any]] = [
        {"name": "process_name", "ph": "M", "pid": _TREE_PID,
         "args": {"name": "fafnir tree"}},
        {"name": "process_name", "ph": "M", "pid": _MEMORY_PID,
         "args": {"name": "memory system"}},
        {"name": "process_name", "ph": "M", "pid": _HOST_PID,
         "args": {"name": "host"}},
    ]
    for pe, level in sorted(seen_pe_threads.items()):
        label = f"PE{pe}" if level is None else f"PE{pe} (level {level})"
        metadata.append(
            {"name": "thread_name", "ph": "M", "pid": _TREE_PID,
             "tid": pe + 1, "args": {"name": label}}
        )
    for rank in sorted(seen_rank_threads):
        metadata.append(
            {"name": "thread_name", "ph": "M", "pid": _MEMORY_PID,
             "tid": rank + 1, "args": {"name": f"rank {rank}"}}
        )

    return {
        "traceEvents": metadata + trace_events,
        "displayTimeUnit": "ns",
        "otherData": {
            "pe_clock_mhz": pe_clock.freq_mhz,
            "dram_clock_mhz": dram_clock.freq_mhz,
        },
    }


class ChromeTraceSink(Sink):
    """Buffers events and writes Chrome ``trace_event`` JSON on close."""

    def __init__(
        self,
        path: str,
        pe_clock: Clock = PE_CLOCK,
        dram_clock: Clock = DRAM_CLOCK,
    ) -> None:
        self.path = path
        self.pe_clock = pe_clock
        self.dram_clock = dram_clock
        self._events: List[TraceEvent] = []

    def record(self, event: TraceEvent) -> None:
        self._events.append(event)

    def close(self) -> None:
        with open(self.path, "w") as stream:
            json.dump(
                chrome_trace_json(self._events, self.pe_clock, self.dram_clock),
                stream,
            )
