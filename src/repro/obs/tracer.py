"""The event dispatcher and its zero-overhead disabled default.

Instrumented code holds a :class:`Tracer` and guards every emission with
its ``enabled`` flag::

    if tracer.enabled:
        tracer.emit(TraceEvent(PE_REDUCE, cycle=ready, pe=3, level=1))

With the default :data:`NULL_TRACER` the guard is a single attribute read
and no event object is ever constructed — the hot kernels pay nothing
(``benchmarks/bench_engine_hotpath.py`` holds the speedup floor with the
no-op tracer in place).  A :class:`Tracer` with one or more sinks flips
``enabled`` on and fans every event out to each sink.

Hot emit sites use the **packed fast path**: :meth:`Tracer.emit_packed`
takes the event's fields as scalars (kind, cycle, location, an int tuple
of args per :data:`~repro.obs.events.PACKED_SCHEMAS`).  When every
attached sink is packed-capable (``supports_packed``, e.g.
:class:`~repro.obs.sinks.ColumnarSink`) the fields go straight into
typed columns and no :class:`TraceEvent` or args dict is ever built;
otherwise the tracer materializes the event once and dispatches it
through :meth:`emit`, so object sinks observe exactly the same stream.
Sites that already hold their events as arrays (the tree sweep's levels,
the DRAM pass, the leaf FIFOs) hand a whole run of them to
:meth:`Tracer.emit_columns`, which a packed-capable sink writes as slices.
"""

from __future__ import annotations

from itertools import repeat
from typing import Iterable, List, Optional

import numpy as np

from repro.obs.events import (
    CLOCK_PE,
    EVENT_KINDS,
    PACKED_SCHEMAS,
    TraceEvent,
)
from repro.obs.sinks import Sink


class Tracer:
    """Dispatches :class:`TraceEvent` records to the attached sinks."""

    __slots__ = ("sinks", "enabled", "all_packed")

    def __init__(self, sinks: Iterable[Sink] = ()) -> None:
        self.sinks: List[Sink] = list(sinks)
        self.enabled = bool(self.sinks)
        self.all_packed = bool(self.sinks) and all(
            getattr(sink, "supports_packed", False) for sink in self.sinks
        )

    def add_sink(self, sink: Sink) -> None:
        self.sinks.append(sink)
        self.enabled = True
        self.all_packed = all(
            getattr(s, "supports_packed", False) for s in self.sinks
        )

    def emit(self, event: TraceEvent) -> None:
        for sink in self.sinks:
            sink.record(event)

    def emit_packed(
        self,
        kind: str,
        cycle: int,
        clock: str = CLOCK_PE,
        pe: Optional[int] = None,
        level: Optional[int] = None,
        rank: Optional[int] = None,
        args: tuple = (),
    ) -> None:
        """One event given as scalar fields (see module docstring).

        ``args`` must align with ``PACKED_SCHEMAS[kind]`` (a prefix is
        allowed).  Callers guard on ``enabled`` exactly like :meth:`emit`.
        """
        if self.all_packed:
            for sink in self.sinks:
                sink.record_packed(kind, cycle, clock, pe, level, rank, args)
            return
        schema = PACKED_SCHEMAS[kind]
        event = TraceEvent(
            kind,
            cycle=cycle,
            clock=clock,
            pe=pe,
            level=level,
            rank=rank,
            args={
                key: decode(value)
                for (key, decode), value in zip(schema, args)
            },
        )
        for sink in self.sinks:
            sink.record(event)

    def emit_columns(
        self,
        kinds,
        cycles,
        args,
        clock: str = CLOCK_PE,
        pe=None,
        level=None,
        rank=None,
    ) -> None:
        """Events given as columns, in order: one :meth:`emit_packed` per row.

        ``kinds`` holds each event's :data:`~repro.obs.events.KIND_CODES`
        code and ``cycles`` its cycle.  ``pe``, ``level`` and ``rank`` are
        each ``None``, one int for every event, or an int per event with
        ``-1`` for unset.  ``args`` is a 2-D int array with a row per
        event, of which each event takes its kind's full schema.
        """
        if self.all_packed:
            for sink in self.sinks:
                sink.record_columns(kinds, cycles, args, clock, pe, level, rank)
            return
        count = len(cycles)

        def column(values):
            if values is None or np.ndim(values) == 0:
                return repeat(values if values is None else int(values), count)
            return (None if v < 0 else v for v in np.asarray(values).tolist())

        for code, cycle, at_pe, at_level, at_rank, row in zip(
            np.asarray(kinds).tolist(), np.asarray(cycles).tolist(),
            column(pe), column(level), column(rank), np.asarray(args).tolist(),
        ):
            kind = EVENT_KINDS[code]
            width = len(PACKED_SCHEMAS[kind])
            self.emit_packed(kind, cycle, clock, at_pe, at_level, at_rank,
                             tuple(row[:width]))

    def close(self) -> None:
        """Flush and close every sink (file-backed sinks write here)."""
        for sink in self.sinks:
            sink.close()

    def __enter__(self) -> "Tracer":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


class _NullTracer(Tracer):
    """The shared disabled tracer; refuses sinks so it stays inert."""

    def add_sink(self, sink: Sink) -> None:
        raise RuntimeError(
            "NULL_TRACER is the shared disabled tracer; construct a "
            "Tracer([...]) instead of attaching sinks to it"
        )

    def emit(self, event: TraceEvent) -> None:  # pragma: no cover - guarded
        pass


NULL_TRACER = _NullTracer()
