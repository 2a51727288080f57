"""Host-time spans around the program's layer entry points (``--trace``).

The recorder patches each hooked entry point with a timing wrapper for the
length of a ``with`` block and restores the originals afterwards.  Spans
are kept in memory as ``(name, start, end, parent, batch)``; a layer's self
time is its spans' durations minus the time covered by their child spans.
Dispatch spans (``engine``, ``interactive``) are numbered in call order
within a rep, which for a serving rep is the index into
``ServingReport.members``, so one request's spans can be found from its id.

A hook whose target no longer exists is reported as missing: its layer's
metrics become ``null`` and the run goes on.
"""

from __future__ import annotations

import functools
import importlib
import statistics
import sys
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence


@dataclass(frozen=True)
class Hook:
    """One wrapped entry point; ``name``'s first part is its layer."""

    name: str
    module: str
    target: str
    info: Optional[Callable[[object], dict]] = None


def layer_of(name: str) -> str:
    return name.split(".")[0]


def _engine_info(result) -> dict:
    work = result.stats.total_work
    return {
        "reduces": work.reduces,
        "compares": work.compares,
        "forwards": work.forwards,
        "compute_cycles": result.stats.compute_latency_pe_cycles,
    }


def _plan_info(plan) -> dict:
    return {"lookups": plan.total_lookups, "unique": len(plan.unique_indices)}


def _memory_info(returned) -> dict:
    stats = returned[1]
    return {
        "reads": stats.reads,
        "row_hits": stats.row_hits,
        "row_misses": stats.row_misses,
        "busy_cycles": stats.finish_cycle,
    }


def _serving_info(report) -> dict:
    return {
        "requests": len(report.records),
        "batches": len(report.batches),
        "lookups": report.total_lookups,
        "unique": report.unique_reads,
        "slo_met": sum(record.slo_met for record in report.records),
        "queue_us": [record.queue_us for record in report.records],
    }


def _pop_info(batch) -> dict:
    return {"formed": batch is not None}


def _combine_info(result) -> dict:
    return {
        "bytes": result.total_comm_bytes,
        "messages": result.total_messages,
        "cycles": result.comm_pe_cycles,
    }


def _reduced_info(result) -> dict:
    return {"local_makespan_cycles": result.local_makespan_pe_cycles}


HOOKS = (
    Hook("engine", "repro.core.engine", "FafnirEngine.run_batch", _engine_info),
    Hook("batch", "repro.core.engine", "plan_batch", _plan_info),
    Hook("memory", "repro.memory.system", "MemorySystem.execute", _memory_info),
    Hook("interactive", "repro.core.interactive", "InteractiveEngine.lookup_one"),
    Hook("serving", "repro.serving.server", "ServingSimulator.run", _serving_info),
    Hook("batcher.enqueue", "repro.serving.batcher", "ContinuousBatcher.enqueue"),
    Hook("batcher.pop", "repro.serving.batcher", "ContinuousBatcher.pop_batch", _pop_info),
    Hook("comm.split", "repro.comm.reducer", "ShardSplit.__init__"),
    Hook("comm.combine", "repro.comm.reducer", "CrossShardReducer.combine", _combine_info),
    Hook("comm.fold", "repro.comm.reducer", "canonical_fold"),
    Hook("sharding.run", "repro.core.sharding", "ShardedRunner.run"),
    Hook("sharding.run_reduced", "repro.core.sharding", "ShardedRunner.run_reduced",
         _reduced_info),
)

#: The benchmark's own vector source, wrapped by :meth:`SpanRecorder.source`.
SOURCE = "source"
DISPATCHES = frozenset({"engine", "interactive"})


def _resolve(hook: Hook):
    """(owner, attribute, original) for a hook; raises if it is gone."""
    owner = importlib.import_module(hook.module)
    *path, attribute = hook.target.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, attribute, getattr(owner, attribute)


class SpanRecorder:
    """Records spans for a sequence of reps while installed."""

    def __init__(self, hooks: Sequence[Hook] = HOOKS) -> None:
        self.hooks = tuple(hooks)
        self.missing: List[str] = []
        self.reps: List[dict] = []
        self._patched: list = []
        self._info = {hook.name: hook.info for hook in self.hooks}
        self._begin()

    def _begin(self) -> None:
        self._spans: list = []
        self._results: Dict[int, object] = {}
        self._stack: List[int] = []
        self._dispatches = 0

    def __enter__(self) -> "SpanRecorder":
        for hook in self.hooks:
            try:
                owner, attribute, original = _resolve(hook)
            except (ImportError, AttributeError) as error:
                self.missing.append(hook.name)
                print(f"warning: trace hook {hook.name} ({hook.module}."
                      f"{hook.target}) not found: {error}", file=sys.stderr)
                continue
            setattr(owner, attribute, self._wrap(hook.name, original))
            self._patched.append((owner, attribute, original))
        return self

    def __exit__(self, *exc) -> None:
        for owner, attribute, original in reversed(self._patched):
            setattr(owner, attribute, original)
        self._patched.clear()

    def source(self, fn):
        return self._wrap(SOURCE, fn)

    def _wrap(self, name: str, fn):
        recorder = self
        keep = self._info.get(name) is not None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            spans, stack = recorder._spans, recorder._stack
            parent = stack[-1] if stack else -1
            if name in DISPATCHES:
                batch = recorder._dispatches
                recorder._dispatches += 1
            else:
                batch = spans[parent][4] if parent >= 0 else -1
            index = len(spans)
            record = [name, 0.0, 0.0, parent, batch]
            spans.append(record)
            stack.append(index)
            record[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = time.perf_counter()
                stack.pop()
            if keep:
                # Counts are read from the result after the rep, untimed.
                recorder._results[index] = result
            return result

        return wrapper

    def end_rep(self, wall_s: float, rep: int, members=None) -> None:
        """Close the current rep; counts are taken from the kept results."""
        spans = self._spans
        info: Dict[int, dict] = {}
        for index, result in self._results.items():
            info[index] = self._info[spans[index][0]](result)
        self.reps.append({
            "rep": rep,
            "wall_s": wall_s,
            "spans": [tuple(span) for span in spans],
            "info": info,
            "members": members,
        })
        self._begin()


def self_times(spans: Sequence[tuple]) -> List[float]:
    """Each span's duration minus its direct children's durations."""
    own = [end - start for _, start, end, _, _ in spans]
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


def spans_of_request(rep: dict, request_id: int) -> List[tuple]:
    """The spans of the serving batch that carried ``request_id``."""
    for batch, members in enumerate(rep["members"] or ()):
        if request_id in members:
            return [span for span in rep["spans"] if span[4] == batch]
    return []


def percentile(values: Sequence[float], p: float) -> float:
    """Nearest-rank percentile, as ``ServingReport`` computes it; 0 if empty."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, -(-int(p * len(ordered)) // 100))
    return ordered[min(rank, len(ordered)) - 1]


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(recorder: SpanRecorder, count_reps: int, lookups: int) -> Dict[str, Optional[float]]:
    """The per-layer table.

    Host times are medians over every traced rep; counts are sums over the
    first ``count_reps`` reps, which every run makes, so they repeat exactly
    for a seed.  ``lookups`` is the workload's lookups over those reps.
    """
    per_rep = []
    for rep in recorder.reps:
        spans = rep["spans"]
        own = self_times(spans)
        self_s: Dict[str, float] = {}
        calls: Dict[str, int] = {}
        for span, seconds in zip(spans, own):
            name = span[0]
            layer = layer_of(name)
            self_s[layer] = self_s.get(layer, 0.0) + seconds
            if name != layer:
                self_s[name] = self_s.get(name, 0.0) + seconds
            calls[name] = calls.get(name, 0) + 1
        self_s["*"] = sum(own)  # all layers: the part of the rep the spans cover
        per_rep.append((rep["wall_s"], self_s, calls))

    def host(key: str) -> float:
        return statistics.median(s.get(key, 0.0) for _, s, _ in per_rep)

    def share(key: str) -> float:
        return statistics.median(s.get(key, 0.0) / wall for wall, s, _ in per_rep)

    counted = recorder.reps[:count_reps]

    def count(name: str) -> int:
        return sum(c.get(name, 0) for _, _, c in per_rep[:count_reps])

    def infos(name: str) -> List[dict]:
        return [
            info
            for rep in counted
            for index, info in rep["info"].items()
            if rep["spans"][index][0] == name
        ]

    def total(name: str, key: str) -> float:
        return sum(info[key] for info in infos(name))

    batch_ms = [
        (end - start) * 1e3
        for rep in recorder.reps
        for name, start, end, _, _ in rep["spans"]
        if name == "engine"
    ]
    serving = infos("serving")
    queue_us = [value for info in serving for value in info["queue_us"]]
    served = total("serving", "requests")
    pops = count("batcher.pop")
    dispatches = count("engine") + count("interactive")
    hits, misses = total("memory", "row_hits"), total("memory", "row_misses")
    serving_lookups = total("serving", "lookups")

    metrics: Dict[str, Optional[float]] = {
        "engine.calls": count("engine"),
        "engine.self_s": host("engine"),
        "engine.share": share("engine"),
        "engine.batch_ms_p50": percentile(batch_ms, 50),
        "engine.batch_ms_p90": percentile(batch_ms, 90),
        "engine.tree_reduces": total("engine", "reduces"),
        "engine.tree_compares": total("engine", "compares"),
        "engine.tree_forwards": total("engine", "forwards"),
        "engine.compute_cycles": total("engine", "compute_cycles"),
        "batch.calls": count("batch"),
        "batch.self_s": host("batch"),
        "batch.share": share("batch"),
        "batch.unique_fraction": _ratio(total("batch", "unique"), total("batch", "lookups")),
        "memory.calls": count("memory"),
        "memory.self_s": host("memory"),
        "memory.share": share("memory"),
        "memory.dram_reads": total("memory", "reads"),
        "memory.reads_per_lookup": _ratio(total("memory", "reads"), lookups),
        "memory.row_hit_rate": _ratio(hits, hits + misses),
        "memory.busy_cycles": total("memory", "busy_cycles"),
        "interactive.calls": count("interactive"),
        "interactive.self_s": host("interactive"),
        "interactive.share": share("interactive"),
        "interactive.fraction": _ratio(count("interactive"), dispatches),
        "serving.self_s": host("serving"),
        "serving.share": share("serving"),
        "serving.queue_us_mean": statistics.fmean(queue_us) if queue_us else 0.0,
        "serving.mean_batch": _ratio(served, total("serving", "batches")),
        "serving.dedup_savings": _ratio(
            serving_lookups - total("serving", "unique"), serving_lookups
        ),
        "serving.slo_attainment": _ratio(total("serving", "slo_met"), served),
        "batcher.pop_calls": pops,
        "batcher.self_s": host("batcher"),
        "batcher.share": share("batcher"),
        "batcher.useful_pop_fraction": _ratio(
            sum(info["formed"] for info in infos("batcher.pop")), pops
        ),
        "comm.split_s": host("comm.split"),
        "comm.combine_self_s": host("comm.combine"),
        "comm.fold_s": host("comm.fold"),
        "comm.share": share("comm"),
        "comm.bytes": total("comm.combine", "bytes"),
        "comm.messages": total("comm.combine", "messages"),
        "comm.modeled_cycles": total("comm.combine", "cycles"),
        "sharding.self_s": host("sharding"),
        "sharding.share": share("sharding"),
        "sharding.local_makespan_cycles": total(
            "sharding.run_reduced", "local_makespan_cycles"
        ),
        "source.calls": count(SOURCE),
        "source.self_s": host(SOURCE),
        "source.share": share(SOURCE),
        "trace.coverage": share("*"),
    }
    missing_layers = {layer_of(name) for name in recorder.missing}
    if "engine" in missing_layers:
        missing_layers.add("interactive")  # its dispatch fraction counts engine calls
    for name in metrics:
        if layer_of(name) in missing_layers:
            metrics[name] = None
    return metrics


def spans_document(recorder: SpanRecorder) -> dict:
    """The recorded spans as JSON-ready data, times in ns from rep start."""
    names = sorted({span[0] for rep in recorder.reps for span in rep["spans"]})
    ids = {name: position for position, name in enumerate(names)}
    reps = []
    for rep in recorder.reps:
        spans = rep["spans"]
        origin = spans[0][1] if spans else 0.0
        reps.append({
            "rep": rep["rep"],
            "wall_s": rep["wall_s"],
            "members": rep["members"],
            "spans": [
                [ids[name], round((start - origin) * 1e9), round((end - origin) * 1e9),
                 parent, batch]
                for name, start, end, parent, batch in spans
            ],
        })
    return {
        "fields": ["name", "start_ns", "end_ns", "parent", "batch"],
        "names": names,
        "missing_hooks": list(recorder.missing),
        "reps": reps,
    }
