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
"""

from __future__ import annotations

from typing import Iterable, List, Optional

from repro.obs.events import (
    CLOCK_PE,
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
