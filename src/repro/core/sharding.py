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

**One dispatch loop.**  Every shard attempt, pooled or in-process, runs
through :meth:`ShardedRunner.run`'s one loop, which keeps one result and
one attempt count per shard:

* a failed attempt — a worker that died (``BrokenProcessPool`` or an
  injected :class:`~repro.faults.plan.SimulatedWorkerCrash`) or hung past
  the policy's wall-clock timeout — is re-dispatched at the next attempt,
  up to ``FaultPolicy.max_shard_retries`` times; completed shards are
  kept;
* a shard that exhausts its budget raises :class:`ShardFailedError` under
  ``fail_fast``; under ``degrade`` it gets one last attempt in-process
  (the parent is the one worker guaranteed healthy), and raises if that
  fails too;
* with one worker, or once processes cannot be spawned at all
  (restricted sandboxes, missing semaphores — seen at pool creation or
  submission), the loop runs the pending shards in-process, each from its
  recorded attempt.

So a shard's outcome and its attempt numbering do not depend on which
execution path it ran on.

**One event stream.**  A traced runner (``tracer=``, as for the engine)
records each worker's replica into an in-memory sink — a tracer with file
sinks cannot be pickled — and replays the streams into its tracer in
shard order once every shard has finished, each preceded by that shard's
inject → detect → ``shard_redispatched`` events.  Workers die before they
can record anything, so the parent synthesizes those.

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
through the same :meth:`run` loop, so crash/hang faults on a shard
are detected and its partials re-dispatched before the reduction tree
completes, and index-keyed fault plans degrade queries to the exact
vectors and statuses the single-node engine reports.  The comm phase
(``shard_msg_sent``/``shard_reduced``, link faults, stragglers, hedges,
dead shards) is modeled in the parent from the deterministic partials and
emits into the same tracer after the shard streams, at absolute PE cycles.
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
    from repro.resilience.hedging import HedgePolicy

from repro.core.config import FafnirConfig
from repro.core.engine import FafnirEngine, MultiBatchResult, VectorSource
from repro.core.operators import ReductionOperator, SUM
from repro.faults.plan import (
    FAULT_WORKER_CRASH,
    FAULT_WORKER_HANG,
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
from repro.obs.tracer import NULL_TRACER, Tracer

Batch = Sequence[Sequence[int]]
Shard = Sequence[Batch]
#: One finished shard attempt: its result and, when traced, its events.
ShardOutcome = Tuple[MultiBatchResult, Optional[List[TraceEvent]]]


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
    trace: bool,
    faults: Optional[FaultPlan],
    fault_policy: FaultPolicy,
    shard_index: int,
    attempt: int,
    in_process: bool,
) -> ShardOutcome:
    """Worker entry point: one engine, one shard (module-level: picklable).

    With ``trace`` the worker records its replica's events into an
    in-process sink and returns them beside the result —
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
    return result, sink.events if sink is not None else None


class ShardedRunner:
    """Executes independent batch shards on per-process FAFNIR replicas."""

    def __init__(
        self,
        config: Optional[FafnirConfig] = None,
        operator: ReductionOperator = SUM,
        max_workers: Optional[int] = None,
        tracer: Optional[Tracer] = None,
        faults: Optional[FaultPlan] = None,
        fault_policy: Optional[FaultPolicy] = None,
        reduction: Optional[str] = None,
        num_shards: Optional[int] = None,
        partition: Optional["IndexPartition"] = None,
        link: Optional[LinkModel] = None,
        hedge: Optional["HedgePolicy"] = None,
    ) -> None:
        """Build the runner.

        ``tracer`` receives every shard's replica events and the comm
        phase's, in one stream (see the module docstring); the default is
        the zero-overhead :data:`~repro.obs.tracer.NULL_TRACER`.

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
        self.tracer = tracer if tracer is not None else NULL_TRACER
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
        :class:`FaultPolicy` — see the module docstring for the rule.
        """
        if not shards:
            return []
        policy = self.fault_policy
        budget = policy.max_shard_retries
        tracer = self.tracer
        outcomes: List[Optional[ShardOutcome]] = [None] * len(shards)
        attempts = [0] * len(shards)
        lifecycle: List[List[TraceEvent]] = [[] for _ in shards]
        workers = min(self.max_workers or multiprocessing.cpu_count(), len(shards))
        use_pool = workers > 1
        pending = list(range(len(shards)))
        try:
            while pending:
                # A shard past its budget takes its last attempt in-process.
                pooled = [i for i in pending if use_pool and attempts[i] <= budget]
                failed: List[Tuple[int, str]] = []
                if pooled:
                    round_ = self._pool_round(shards, source, pooled, attempts, workers)
                    if round_ is None:  # cannot spawn processes: go in-process
                        use_pool = False
                        continue
                    finished, failed = round_
                    for index, outcome in finished.items():
                        outcomes[index] = outcome
                for index in pending:
                    if index in pooled:
                        continue
                    args = self._shard_args(shards, source, index, attempts[index], True)
                    try:
                        outcomes[index] = _run_shard(*args)
                    except SimulatedWorkerCrash:
                        failed.append((index, FAULT_WORKER_CRASH))

                pending = []
                for index, reason in sorted(failed):
                    attempt = attempts[index]
                    fatal = attempt > budget or (attempt == budget and policy.fail_fast)
                    if tracer.enabled:
                        lifecycle[index] += self._shard_fault_events(
                            index, attempt, reason, fatal
                        )
                    if fatal:
                        raise ShardFailedError(
                            f"shard {index} failed ({reason}) and exhausted its "
                            f"re-dispatch budget ({budget} retries)"
                        )
                    attempts[index] += 1
                    pending.append(index)
        finally:
            # Shard order, each stream after its lifecycle; a failed run
            # still traces every lifecycle and the finished shards' streams.
            if tracer.enabled:
                for events, outcome in zip(lifecycle, outcomes):
                    if outcome is not None and outcome[1] is not None:
                        events = events + outcome[1]
                    for event in events:
                        tracer.emit(event)
        return [outcome[0] for outcome in outcomes if outcome is not None]

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
        return reducer.combine(
            batches, split, shard_results, absent_pieces=dead, tracer=self.tracer
        )

    # ------------------------------------------------------------------
    def _shard_args(
        self,
        shards: Sequence[Shard],
        source: VectorSource,
        index: int,
        attempt: int,
        in_process: bool,
    ) -> tuple:
        """:func:`_run_shard`'s arguments for one attempt at one shard."""
        return (
            self.config,
            self.operator,
            shards[index],
            source,
            self.tracer.enabled,
            self.faults,
            self.fault_policy,
            index,
            attempt,
            in_process,
        )

    def _pool_round(
        self,
        shards: Sequence[Shard],
        source: VectorSource,
        indices: Sequence[int],
        attempts: Sequence[int],
        workers: int,
    ) -> Optional[Tuple[Dict[int, ShardOutcome], List[Tuple[int, str]]]]:
        """One process-pool attempt at each shard of ``indices``.

        Returns the finished outcomes and the failed ``(index, reason)``
        pairs, or ``None`` when processes cannot be spawned: an
        ``OSError`` at pool creation or submission is a restricted host,
        not a worker death, and costs no attempt.
        """
        try:
            context = multiprocessing.get_context("fork")
        except ValueError:  # platform without fork
            context = multiprocessing.get_context()
        try:
            pool = ProcessPoolExecutor(
                max_workers=min(workers, len(indices)), mp_context=context
            )
        except OSError:
            return None
        finished: Dict[int, ShardOutcome] = {}
        failed: List[Tuple[int, str]] = []
        futures = {}
        try:
            try:
                for index in indices:
                    futures[index] = pool.submit(
                        _run_shard,
                        *self._shard_args(shards, source, index, attempts[index], False),
                    )
            except OSError:
                return None
            except BrokenProcessPool:
                # A worker died fast enough to break the pool mid-submission;
                # the unsubmitted shards are worker deaths, not spawn failures.
                failed.extend(
                    (index, FAULT_WORKER_CRASH) for index in indices if index not in futures
                )
            for index, future in futures.items():
                try:
                    finished[index] = future.result(
                        timeout=self.fault_policy.shard_timeout_s
                    )
                except FuturesTimeoutError:
                    failed.append((index, FAULT_WORKER_HANG))
                except BrokenProcessPool:
                    failed.append((index, FAULT_WORKER_CRASH))
        finally:
            pool.shutdown(wait=False, cancel_futures=True)
        return finished, failed

    def _shard_fault_events(
        self, index: int, attempt: int, reason: str, fatal: bool
    ) -> List[TraceEvent]:
        """The inject→detect→re-dispatch events of one failed attempt.

        Workers die before they can record anything, so the parent is the
        only place this part of the lifecycle can be observed from.  The
        injection event is synthesized only when the installed plan really
        scheduled the fault — a genuine (non-injected) worker death still
        gets its detection on the record.  A ``fatal`` failure (the budget
        is spent) is detected with ``fatal: true`` and not re-dispatched.
        """
        args = {"fault": reason, "shard": index, "attempt": attempt}
        events: List[TraceEvent] = []
        if self.faults is not None and (
            (reason == FAULT_WORKER_CRASH and self.faults.shard_crashes(index, attempt))
            or (reason == FAULT_WORKER_HANG and self.faults.shard_hangs(index, attempt))
        ):
            events.append(TraceEvent(FAULT_INJECTED, cycle=0, args=dict(args)))
        if fatal:
            events.append(TraceEvent(FAULT_DETECTED, cycle=0, args=dict(args, fatal=True)))
            return events
        events.append(TraceEvent(FAULT_DETECTED, cycle=0, args=dict(args)))
        events.append(
            TraceEvent(SHARD_REDISPATCHED, cycle=0, args=dict(args, attempt=attempt + 1))
        )
        return events


def fleet_makespan_pe_cycles(results: Sequence[MultiBatchResult]) -> int:
    """Wall-clock of the replica fleet: slowest shard's pipelined makespan."""
    if not results:
        raise ValueError("need at least one shard result")
    return max(r.pipeline.pipelined_latency_pe_cycles for r in results)
