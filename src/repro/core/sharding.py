"""Fan independent batch streams across worker processes, fault-tolerantly.

One FAFNIR instance pipelines batches through one tree; a production
deployment replicates the whole memory-plus-tree stack and routes
independent batch streams at the replicas (the scale-out step every
later serving PR builds on).  :class:`ShardedRunner` models that: each
*shard* is a sequence of hardware batches executed by a per-worker
:class:`~repro.core.engine.FafnirEngine` in its own process, so the
Python-side simulation itself runs in parallel on multi-core hosts.

Because shards are independent replicas, the modelled wall-clock of the
fleet is the **maximum** of the shards' pipelined makespans
(:func:`fleet_makespan_pe_cycles`), while functional outputs concatenate
shard by shard.

Workers are created with the ``fork`` start method where available (the
engine, config, and operator objects transfer by inheritance or pickling);
``source`` must be picklable — a module-level function, ``functools.partial``
of one, or a bound method of a picklable object.

Failure handling distinguishes two regimes:

* **cannot spawn processes at all** (restricted sandboxes, missing
  semaphores) — detected at pool creation / first submission, before any
  shard has produced a result: the runner falls back to in-process
  execution with identical results and (with ``trace=True``) identical
  event streams;
* **a worker died or hung mid-run** (``BrokenProcessPool``, a shard
  exceeding the policy's wall-clock timeout, or an injected
  :class:`~repro.faults.plan.SimulatedWorkerCrash`) — completed shards
  are **kept**, and only the failed shards are re-dispatched onto a fresh
  pool of healthy workers, up to ``FaultPolicy.max_shard_retries`` times;
  a shard that exhausts its budget is run in-process as the last healthy
  "worker" (``degrade``) or raises :class:`ShardFailedError`
  (``fail_fast``).  Each re-dispatch is recorded as a
  ``shard_redispatched`` trace event on the recovered shard's stream.

A :class:`~repro.faults.plan.FaultPlan` passed to the runner ships to
every worker (it is plain picklable data), so rank degradation and
leaf-boundary corruption fire inside the replicas while crash/hang faults
fire at the worker boundary the runner itself guards.

**Cross-shard reduction** (:meth:`ShardedRunner.run_reduced`) is the
opt-in table-parallel mode: instead of routing whole batches at replica
shards, every query is *split* along an
:class:`~repro.comm.partition.IndexPartition`, each shard reduces the
slice of the index space it owns, and the partials ride a second-level
reduction schedule (``reduction=`` names it) over a modeled inter-node
link back to one answer per query — byte-identical to a single-node
engine for subtree-aligned partitions.  The shard sub-streams run
through the same :meth:`run` machinery, so crash/hang faults on a shard
are detected and its partials re-dispatched before the reduction tree
completes, and index-keyed fault plans degrade queries to the exact
vectors and statuses the single-node engine reports.  The comm-phase
trace events (``shard_msg_sent``/``shard_reduced``) are synthesized in
the parent from the deterministic partials, so serial-fallback and
process-pool runs ship identical reduction event streams.
"""

from __future__ import annotations

import multiprocessing
import os
import time
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures import TimeoutError as FuturesTimeoutError
from concurrent.futures.process import BrokenProcessPool
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

if TYPE_CHECKING:  # sharding ← comm.reducer ← core.engine: import lazily
    from repro.comm.partition import IndexPartition
    from repro.comm.reducer import ReducedRunResult

from repro.core.config import FafnirConfig
from repro.core.engine import FafnirEngine, MultiBatchResult, VectorSource
from repro.core.operators import ReductionOperator, SUM
from repro.faults.plan import (
    FAULT_WORKER_CRASH,
    FAULT_WORKER_HANG,
    FaultError,
    FaultPlan,
    ShardFailedError,
    SimulatedWorkerCrash,
)
from repro.faults.policy import FaultPolicy
from repro.hw.link import LinkModel
from repro.obs.events import (
    FAULT_DETECTED,
    FAULT_INJECTED,
    SHARD_REDISPATCHED,
    TraceEvent,
)
from repro.obs.sinks import InMemorySink
from repro.obs.tracer import Tracer

Batch = Sequence[Sequence[int]]
Shard = Sequence[Batch]


def shard_batches(batches: Sequence[Batch], shards: int) -> List[List[Batch]]:
    """Round-robin split of a batch stream into ``shards`` substreams.

    An empty stream yields an empty shard list (which
    :meth:`ShardedRunner.run` maps to an empty result list) rather than
    tripping an unrelated "need at least one shard" error downstream.
    """
    if shards <= 0:
        raise ValueError("shards must be positive")
    if not batches:
        return []
    buckets: List[List[Batch]] = [[] for _ in range(min(shards, len(batches)))]
    for position, batch in enumerate(batches):
        buckets[position % len(buckets)].append(batch)
    return buckets


def _run_shard(
    config: Optional[FafnirConfig],
    operator: ReductionOperator,
    batches: Shard,
    source: VectorSource,
    trace: bool = False,
    faults: Optional[FaultPlan] = None,
    fault_policy: Optional[FaultPolicy] = None,
    shard_index: int = 0,
    attempt: int = 0,
    in_process: bool = False,
) -> MultiBatchResult:
    """Worker entry point: one engine, one shard (module-level: picklable).

    With ``trace=True`` the worker records its replica's events into an
    in-process sink and ships them back on ``MultiBatchResult.events`` —
    :class:`~repro.obs.events.TraceEvent` is plain picklable data, so the
    stream crosses the process boundary with the rest of the result.

    Crash/hang faults fire here, at the worker boundary: a crash kills
    the process outright (surfacing as ``BrokenProcessPool`` in the
    parent) unless the shard runs in-process, where it raises
    :class:`SimulatedWorkerCrash` instead of taking the caller down; a
    hang sleeps past the parent's watchdog (skipped in-process — there is
    no watchdog to trip and no second process to stall).
    """
    if faults is not None:
        if faults.shard_crashes(shard_index, attempt):
            if in_process:
                raise SimulatedWorkerCrash(
                    f"shard {shard_index} worker crashed (attempt {attempt})"
                )
            os._exit(1)
        if faults.shard_hangs(shard_index, attempt) and not in_process:
            time.sleep(faults.hang_seconds)
    sink = InMemorySink() if trace else None
    engine = FafnirEngine(
        config=config,
        operator=operator,
        tracer=Tracer([sink]) if sink is not None else None,
        faults=faults,
        fault_policy=fault_policy,
    )
    result = engine.run_batches(batches, source)
    if sink is not None:
        result.events = list(sink.events)
    return result


class ShardedRunner:
    """Executes independent batch shards on per-process FAFNIR replicas."""

    def __init__(
        self,
        config: Optional[FafnirConfig] = None,
        operator: ReductionOperator = SUM,
        max_workers: Optional[int] = None,
        trace: bool = False,
        faults: Optional[FaultPlan] = None,
        fault_policy: Optional[FaultPolicy] = None,
        reduction: Optional[str] = None,
        num_shards: Optional[int] = None,
        partition: Optional["IndexPartition"] = None,
        link: Optional[LinkModel] = None,
        hedge: Optional["HedgePolicy"] = None,
    ) -> None:
        """Build the runner.

        The last five parameters configure the opt-in cross-shard
        reduction mode consumed by :meth:`run_reduced`:

        Args:
            reduction: schedule name (``"gather"``, ``"reduce_scatter"``,
                ``"recursive_doubling"``); ``None`` leaves the runner in
                plain replica mode.
            num_shards: table-parallel shard count; defaults to the
                partition's piece count, or 2 when neither is given.
            partition: index-space ownership; defaults to the
                subtree-aligned :meth:`IndexPartition.by_home_rank` split
                of the configured tree (the byte-exact case).
            link: inter-node link model (latency/bandwidth); defaults to
                :class:`~repro.hw.link.LinkModel`'s PCIe-class numbers.
            hedge: opt-in hedged re-dispatch of straggler shards
                (:class:`~repro.resilience.hedging.HedgePolicy`) consumed
                by :meth:`run_reduced` when the fault plan stretches a
                piece's local completion.
        """
        self.config = config
        self.operator = operator
        self.max_workers = max_workers
        self.trace = trace
        self.faults = faults
        self.fault_policy = fault_policy if fault_policy is not None else FaultPolicy()
        self.reduction = reduction
        if partition is None and num_shards is not None:
            from repro.comm.partition import IndexPartition

            partition = IndexPartition.by_home_rank(
                config if config is not None else FafnirConfig(), num_shards
            )
        self.partition = partition
        self.link = link
        self.hedge = hedge

    def run(
        self,
        shards: Sequence[Shard],
        source: VectorSource,
    ) -> List[MultiBatchResult]:
        """Run every shard; results are ordered like ``shards``.

        An empty shard list (an empty batch stream) returns an empty
        result list.  Worker failures are recovered per the runner's
        :class:`FaultPolicy` — see the module docstring for the regimes.
        """
        if not shards:
            return []
        workers = self.max_workers or multiprocessing.cpu_count()
        workers = min(workers, len(shards))
        if workers <= 1 or len(shards) == 1:
            return self._run_serial(shards, source)
        try:
            context = multiprocessing.get_context("fork")
        except ValueError:  # platform without fork
            context = multiprocessing.get_context()

        policy = self.fault_policy
        results: List[Optional[MultiBatchResult]] = [None] * len(shards)
        attempts = [0] * len(shards)
        redispatch_events: Dict[int, List[TraceEvent]] = {}
        pending = list(range(len(shards)))
        while pending:
            try:
                pool = ProcessPoolExecutor(
                    max_workers=min(workers, len(pending)), mp_context=context
                )
            except (OSError, PermissionError):
                return self._recover_without_processes(
                    shards, source, results, pending
                )
            submitted: Dict[int, object] = {}
            spawn_failed = False
            broken_on_submit: List[int] = []
            try:
                for index in pending:
                    submitted[index] = pool.submit(
                        _run_shard,
                        self.config,
                        self.operator,
                        shards[index],
                        source,
                        self.trace,
                        self.faults,
                        policy,
                        index,
                        attempts[index],
                        False,
                    )
            except (OSError, PermissionError):
                # Process spawning is unavailable (restricted sandbox) —
                # not a worker death; recover in-process without re-running
                # any shard that already completed.
                spawn_failed = True
            except BrokenProcessPool:
                # A worker died fast enough to break the pool mid-submission;
                # the unsubmitted shards are worker deaths, not spawn failures.
                broken_on_submit = [i for i in pending if i not in submitted]
            failed: List[Tuple[int, str]] = []
            failed.extend((i, FAULT_WORKER_CRASH) for i in broken_on_submit)
            if not spawn_failed:
                for index, future in submitted.items():
                    try:
                        results[index] = future.result(  # type: ignore[attr-defined]
                            timeout=policy.shard_timeout_s
                        )
                    except FuturesTimeoutError:
                        failed.append((index, FAULT_WORKER_HANG))
                    except (BrokenProcessPool, SimulatedWorkerCrash):
                        failed.append((index, FAULT_WORKER_CRASH))
            pool.shutdown(wait=False, cancel_futures=True)
            if spawn_failed:
                return self._recover_without_processes(
                    shards, source, results, pending
                )

            pending = []
            for index, reason in failed:
                redispatch_events.setdefault(index, []).extend(
                    self._shard_fault_events(index, attempts[index], reason)
                )
                if attempts[index] >= policy.max_shard_retries:
                    if policy.fail_fast:
                        raise ShardFailedError(
                            f"shard {index} failed ({reason}) and exhausted "
                            f"its re-dispatch budget "
                            f"({policy.max_shard_retries} retries)"
                        )
                    # Last resort: the parent process is the one worker
                    # guaranteed healthy.
                    results[index] = self._run_one_in_process(
                        shards[index],
                        index,
                        attempts[index] + 1,
                        source,
                    )
                else:
                    attempts[index] += 1
                    pending.append(index)

        final: List[MultiBatchResult] = []
        for index, result in enumerate(results):
            assert result is not None
            extra = redispatch_events.get(index)
            if extra and self.trace and result.events is not None:
                result.events = extra + result.events
            final.append(result)
        return final

    # --- cross-shard reduction ----------------------------------------
    def run_reduced(
        self,
        batches: Sequence[Batch],
        source: VectorSource,
    ) -> "ReducedRunResult":
        """Table-parallel execution: split, reduce locally, fold globally.

        Every query is split along the runner's partition; each active
        piece's sub-stream runs through :meth:`run` (inheriting the full
        crash/hang re-dispatch machinery) under the *partial* operator,
        and the partials are folded back per
        :mod:`repro.comm.reducer` — byte-identical to a single-node
        engine for subtree-aligned partitions, schedule and shard-order
        invariant always.

        Args:
            batches: the original (unsplit) batch stream.
            source: picklable vector source, as for :meth:`run`.

        Note: shard-crash fault plans address *active* shard positions
        (the order of ``ReducedRunResult.active_pieces``), since pieces
        untouched by the whole stream never start a worker.  Dead-shard
        plans (``FaultPlan.dead_shards``) address *piece ids*: a dead
        piece is never dispatched — its partials simply never arrive, the
        reducer routes around the absence, and the affected queries
        degrade (or the run raises, in fail-fast mode).
        """
        from repro.comm.partition import IndexPartition
        from repro.comm.reducer import (
            CrossShardReducer,
            ShardSplit,
            partial_operator,
        )
        from repro.faults.plan import ShardFailedError

        if not batches:
            raise ValueError("need at least one batch")
        name = self.reduction
        if name is None:
            raise ValueError(
                "no reduction schedule configured; pass reduction= to the "
                "runner"
            )
        partition = self.partition
        if partition is None:
            partition = IndexPartition.by_home_rank(
                self.config if self.config is not None else FafnirConfig(), 2
            )
        reducer = CrossShardReducer(
            partition=partition,
            schedule=name,
            link=self.link,
            operator=self.operator,
            config=self.config,
            faults=self.faults,
            policy=self.fault_policy,
            hedge=self.hedge,
        )
        split = ShardSplit(batches, partition)
        dead = frozenset(
            piece
            for piece in split.active_pieces
            if self.faults is not None and self.faults.shard_is_dead(piece)
        )
        if dead and self.fault_policy.fail_fast:
            raise ShardFailedError(
                f"dead shard(s) {sorted(dead)} with fail-fast policy; use "
                "FaultPolicy.graceful() to route around them"
            )
        streams = [
            stream
            for piece, stream in zip(split.active_pieces, split.shard_streams())
            if piece not in dead
        ]
        saved_operator = self.operator
        self.operator = partial_operator(saved_operator)
        try:
            shard_results = self.run(streams, source)
        finally:
            self.operator = saved_operator
        return reducer.combine(batches, split, shard_results, absent_pieces=dead)

    # ------------------------------------------------------------------
    def _shard_fault_events(
        self, index: int, attempt: int, reason: str
    ) -> List[TraceEvent]:
        """The detect→re-dispatch events of one shard failure.

        Workers die before they can record anything, so the surviving side
        (the parent, or the in-process retry loop) is the only place this
        part of the lifecycle can be observed from.  The injection event is
        synthesized only when the installed plan really scheduled the
        fault — a genuine (non-injected) worker death still gets its
        detection and re-dispatch on the record.
        """
        if not self.trace:
            return []
        events: List[TraceEvent] = []
        if self.faults is not None and (
            (reason == FAULT_WORKER_CRASH and self.faults.shard_crashes(index, attempt))
            or (reason == FAULT_WORKER_HANG and self.faults.shard_hangs(index, attempt))
        ):
            events.append(
                TraceEvent(
                    FAULT_INJECTED,
                    cycle=0,
                    args={"fault": reason, "shard": index, "attempt": attempt},
                )
            )
        events.append(
            TraceEvent(
                FAULT_DETECTED,
                cycle=0,
                args={"fault": reason, "shard": index, "attempt": attempt},
            )
        )
        events.append(
            TraceEvent(
                SHARD_REDISPATCHED,
                cycle=0,
                args={"fault": reason, "shard": index, "attempt": attempt + 1},
            )
        )
        return events

    def _recover_without_processes(
        self,
        shards: Sequence[Shard],
        source: VectorSource,
        results: List[Optional[MultiBatchResult]],
        pending: Sequence[int],
    ) -> List[MultiBatchResult]:
        """Finish ``pending`` shards in-process, keeping completed results."""
        for index in pending:
            results[index] = self._run_one_in_process(
                shards[index], index, 0, source
            )
        return [result for result in results if result is not None]

    def _run_one_in_process(
        self,
        shard: Shard,
        index: int,
        attempt: int,
        source: VectorSource,
    ) -> MultiBatchResult:
        """Run one shard in-process with the same bounded-retry loop.

        Injected crashes raise :class:`SimulatedWorkerCrash` here instead
        of killing the caller; each recovery records the same
        detect→re-dispatch events the process-pool path synthesizes, so a
        traced serial run and a traced parallel run tell the same story.
        """
        policy = self.fault_policy
        fault_events: List[TraceEvent] = []
        while True:
            try:
                result = _run_shard(
                    self.config,
                    self.operator,
                    shard,
                    source,
                    self.trace,
                    self.faults,
                    policy,
                    index,
                    attempt,
                    True,
                )
                if fault_events and result.events is not None:
                    result.events = fault_events + result.events
                return result
            except SimulatedWorkerCrash:
                fault_events.extend(
                    self._shard_fault_events(index, attempt, FAULT_WORKER_CRASH)
                )
                if attempt >= policy.max_shard_retries:
                    raise ShardFailedError(
                        f"shard {index} crashed in-process and exhausted its "
                        f"re-dispatch budget ({policy.max_shard_retries} "
                        "retries)"
                    )
                attempt += 1

    def _run_serial(
        self,
        shards: Sequence[Shard],
        source: VectorSource,
    ) -> List[MultiBatchResult]:
        return [
            self._run_one_in_process(shard, index, 0, source)
            for index, shard in enumerate(shards)
        ]


def fleet_makespan_pe_cycles(results: Sequence[MultiBatchResult]) -> int:
    """Wall-clock of the replica fleet: slowest shard's pipelined makespan."""
    if not results:
        raise ValueError("need at least one shard result")
    return max(r.pipeline.pipelined_latency_pe_cycles for r in results)
