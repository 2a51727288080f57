"""Whole-memory-system facade used by every engine in the reproduction.

The DRAM model is one pass over a batch's read columns.  Each bank is an
open-page state machine — ``(open row, ready cycle, activate cycle)`` — and
each channel a shared data bus — the cycle it frees up and the rank that
last drove it.  Reads are served in (issue cycle, position) order (FCFS),
or in the FR-FCFS order computed lazily against the same bank state, with
no per-read objects.  ``tests/dram_oracle.py`` keeps the per-read object
controller this pass must match field for field.
"""

from __future__ import annotations

from operator import add, itemgetter
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.faults.plan import (
    FAULT_RANK_DEGRADED,
    FAULT_RANK_TIMEOUT,
    FaultPlan,
    RankTimeoutError,
)
from repro.faults.policy import FaultPolicy
from repro.memory.config import MemoryConfig
from repro.memory.reads import ReadColumns, ServedReads
from repro.memory.trace import AccessStats
from repro.obs.events import (
    CACHE_HIT,
    CACHE_MISS,
    CLOCK_DRAM,
    FAULT_DETECTED,
    FAULT_INJECTED,
    KIND_CODES,
    MEM_READ_COMPLETE,
    MEM_READ_ISSUE,
    RETRY_ISSUED,
    TraceEvent,
)
from repro.obs.tracer import NULL_TRACER, Tracer
from repro.tiering.cache import CacheStats, HotIndexTier, HotTierConfig

#: Service orders: first-come first-served, or first-ready FCFS.
POLICIES = ("fcfs", "frfcfs")
#: How many of a channel's oldest pending reads FR-FCFS looks through.
FRFCFS_WINDOW = 8
#: A bank never touched since the last reset: precharged, free at cycle 0.
_COLD = (None, 0, 0)
#: One read as the service loop sees it: (position, rank, bank, row,
#: issue cycle, bytes).
_Item = Tuple[int, int, int, int, int, int]


class MemorySystem:
    """A multi-channel DDR4-like memory system.

    Channels operate fully in parallel; each channel serialises its data bus
    but overlaps bank/rank command phases.  Engines submit a batch of reads
    as :class:`~repro.memory.reads.ReadColumns` and receive
    :class:`~repro.memory.reads.ServedReads` columns in the same order, plus
    aggregate :class:`AccessStats`.  Bank and bus state carries over from
    one ``execute`` to the next until :meth:`reset`.

    With a tracer attached, every read served from DRAM emits a
    ``mem_read_issue`` / ``mem_read_complete`` event pair in the DRAM clock
    domain, carrying its scheduling outcome (start cycle, burst count,
    row-hit flag) — the per-read lifecycle behind the :class:`AccessStats`
    aggregates.

    With a :class:`~repro.faults.plan.FaultPlan` installed, two fault
    classes fire after the base schedule is computed:

    * **rank latency degradation** — reads on a listed rank take
      ``multiplier×`` their modelled service time (finish cycles stretch;
      the start cycle and bus schedule are untouched);
    * **rank read timeout** — a read on a flaky rank is lost; a watchdog
      notices ``read_timeout_cycles`` after the nominal completion and
      re-issues it with exponential backoff, every cycle of which is
      accounted in the DRAM clock domain.  A read that exhausts
      ``max_read_retries`` either raises :class:`RankTimeoutError`
      (``fail_fast``) or lands in :attr:`failed_positions` for the engine
      to degrade around.

    Without a plan the serving path is unchanged, byte for byte.

    With a :class:`~repro.tiering.cache.HotTierConfig` installed, a
    rank-level hot-index tier is consulted before the banks: vector reads
    (reads whose ``tag`` is the vector id) that hit skip DRAM entirely and
    complete after ``hit_latency_cycles``; only the misses reach a bank,
    the :class:`AccessStats`, and the ``mem_read_*`` events (so modeled
    DRAM traffic is strictly non-increasing).  The tier is a *timing*
    overlay: reads keep their batch positions, fault injection still
    evaluates every position, and functional results are byte-identical
    with the tier on or off.  ``reset`` deliberately does **not** flush the
    tier — hot lines survive across batches, which is where the
    cross-batch popularity win lives.
    """

    def __init__(
        self,
        config: MemoryConfig,
        policy: str = "fcfs",
        tracer: Tracer = NULL_TRACER,
        faults: Optional[FaultPlan] = None,
        fault_policy: Optional[FaultPolicy] = None,
        cache: Optional[HotTierConfig] = None,
    ) -> None:
        if policy not in POLICIES:
            raise ValueError(f"unknown scheduling policy {policy!r}")
        self.config = config
        self.policy = policy
        self.tracer = tracer
        self.faults = faults
        self.fault_policy = fault_policy if fault_policy is not None else FaultPolicy()
        self.cache_config = cache
        self.tier: Optional[HotIndexTier] = (
            HotIndexTier(cache, config.geometry.total_ranks)
            if cache is not None
            else None
        )
        #: positions (within the last ``execute`` batch) whose reads were
        #: lost to rank timeouts after the full retry budget (degrade mode).
        self.failed_positions: Set[int] = set()
        self.reset()

    def reset(self) -> None:
        """Precharge every bank and free every bus (tier stays warm)."""
        channels = self.config.geometry.channels
        #: ``rank * banks_per_rank + bank`` → (open row, ready, activate cycle)
        self._banks: Dict[int, Tuple[Optional[int], int, int]] = {}
        self._bus_free = [0] * channels
        self._last_rank = [-1] * channels  # -1: the bus has not been driven
        self.failed_positions = set()

    @property
    def cache_stats(self) -> CacheStats:
        """Aggregate tier hit/miss stats (all-zero when no tier)."""
        if self.tier is None:
            return CacheStats()
        return self.tier.stats

    def execute(self, reads: ReadColumns) -> Tuple[ServedReads, AccessStats]:
        """Serve a batch of reads; returns their columns in batch order.

        With a hot-index tier configured, each vector read (integer
        ``tag``) consults its rank's cache first, in batch-position
        order.  Hits complete after ``hit_latency_cycles`` and never reach
        a bank, the stats, or the ``mem_read_*`` events; misses (and
        untagged stream reads) take the normal DRAM path.  Positions are
        preserved throughout, so engines slice the returned columns exactly
        as in an uncached run and fault injection sees every position.
        """
        self._check(reads)
        count = len(reads)
        served = ServedReads(
            [0] * count, [0] * count, [False] * count, [False] * count, [0] * count
        )
        dram: Sequence[int] = (
            range(count) if self.tier is None else self._consult_tier(reads, served)
        )
        stats = self._serve(reads, dram, served)

        self.failed_positions = set()
        if self.faults is not None and self.faults.touches_memory:
            # Faults evaluate every position — hits included — so the set
            # of failed positions (and hence statuses) is invariant to the
            # tier: injection is keyed by batch position, and a cached run
            # must degrade exactly like the uncached run it models.
            start, finish = served.start, served.finish
            for position, rank in enumerate(reads.rank):
                finish[position] = self._apply_read_faults(
                    position, rank, start[position], finish[position]
                )
            stats.finish_cycle = max((finish[p] for p in dram), default=0)

        if self.tracer.enabled:
            self._emit_reads(reads, dram, served)
        return served, stats

    def _check(self, reads: ReadColumns) -> None:
        """Reject a malformed batch before any state changes."""
        count = len(reads)
        if not (
            count
            == len(reads.bank)
            == len(reads.row)
            == len(reads.column)
            == len(reads.bytes)
            == len(reads.issue)
            == len(reads.tag)
        ):
            raise ValueError("read columns differ in length")
        if not count:
            return
        geometry = self.config.geometry
        if min(reads.bytes) <= 0:
            raise ValueError("bytes_ must be positive")
        if min(min(reads.rank), min(reads.bank), min(reads.row), min(reads.column)) < 0:
            raise ValueError("rank/bank/row/column must be non-negative")
        if min(reads.issue) < 0:
            raise ValueError("issue_cycle must be non-negative")
        if max(reads.rank) >= geometry.total_ranks:
            raise ValueError(f"rank {max(reads.rank)} out of range")
        if max(reads.bank) >= geometry.banks_per_rank:
            raise ValueError(f"bank {max(reads.bank)} out of range")
        if max(map(add, reads.column, reads.bytes)) > geometry.row_bytes:
            raise ValueError("request spans a row boundary")

    def _consult_tier(self, reads: ReadColumns, served: ServedReads) -> List[int]:
        """Complete the tier's hits in place; return the DRAM positions."""
        tier = self.tier
        assert tier is not None
        hit_latency = tier.hit_latency_cycles
        tracing = self.tracer.enabled
        emit_packed = self.tracer.emit_packed
        start, finish = served.start, served.finish
        dram: List[int] = []
        for position, (rank, tag, issue) in enumerate(
            zip(reads.rank, reads.tag, reads.issue)
        ):
            # Only whole-vector reads are cacheable: their tag is the
            # vector id.  Stream reads carry tuple tags and bypass.
            if (
                not isinstance(tag, int)
                or isinstance(tag, bool)
                or tier.cache_for(rank) is None
            ):
                dram.append(position)
            elif tier.access(rank, tag):
                start[position] = issue
                finish[position] = issue + hit_latency
                if tracing:
                    emit_packed(
                        CACHE_HIT,
                        issue + hit_latency,
                        clock=CLOCK_DRAM,
                        rank=rank,
                        args=(tag,),
                    )
            else:
                dram.append(position)
                if tracing:
                    emit_packed(
                        CACHE_MISS, issue, clock=CLOCK_DRAM, rank=rank, args=(tag,)
                    )
        return dram

    def _serve(
        self, reads: ReadColumns, dram: Sequence[int], served: ServedReads
    ) -> AccessStats:
        """The bank/bus state machine over ``dram``'s reads, in service order.

        A read waits for its issue cycle (pushed past any refresh blackout
        of its rank) and its bank's ready cycle.  An open-row hit goes
        straight to the column command; a closed bank activates
        (``tRCD``); a conflict precharges once ``tRAS`` has passed since
        the row opened, then activates (``tRP + tRCD``).  Data is ready
        ``tCAS`` later and takes the channel's bus once it is free, plus
        ``tRTRS`` when the previous transfer came from another rank, for
        ``tBL`` per burst.  The bank accepts its next column command
        ``tCCD`` per burst after this one's.
        """
        geometry = self.config.geometry
        timing = self.config.timing
        per_channel = geometry.ranks_per_channel
        banks_per_rank = geometry.banks_per_rank
        burst_bytes = geometry.burst_bytes
        tRCD, tRP, tCAS, tRAS = timing.tRCD, timing.tRP, timing.tCAS, timing.tRAS
        tCCD, tBL, tRTRS = timing.tCCD, timing.tBL, timing.tRTRS
        refresh = timing.refresh_enabled
        tREFI, tRFC = timing.tREFI, timing.tRFC
        refresh_stagger = tREFI // per_channel

        ranks, banks, rows = reads.rank, reads.bank, reads.row
        sizes, issues = reads.bytes, reads.issue
        start, finish, row_hit, activated, bursts = served
        state = self._banks
        bus_free, last_rank = self._bus_free, self._last_rank

        # (position, rank, bank, row, issue, bytes) per read, in batch order.
        items: Iterable[_Item]
        if len(dram) == len(ranks):
            items = zip(dram, ranks, banks, rows, issues, sizes)
        else:
            items = [(p, ranks[p], banks[p], rows[p], issues[p], sizes[p]) for p in dram]
        if self.policy == "frfcfs":
            items = self._frfcfs_order(items)
        elif issues and issues.count(issues[0]) != len(issues):
            # Not all issued together: (issue, position) order, as the
            # stable sort keeps ties in batch order.
            items = sorted(items, key=itemgetter(4))

        hits = total_bursts = total_bytes = busy = 0
        per_rank: Dict[int, int] = {}
        for position, rank, bank, row, at, size in items:
            key = rank * banks_per_rank + bank
            if refresh:
                phase = (at - rank % per_channel * refresh_stagger) % tREFI
                if phase < tRFC:
                    at += tRFC - phase
            count = -(-size // burst_bytes)

            open_row, ready, activate = state.get(key, _COLD)
            t = at if at > ready else ready
            start[position] = t
            if open_row == row:
                row_hit[position] = True
                hits += 1
            else:
                if open_row is not None:
                    precharge = activate + tRAS
                    t = (t if t > precharge else precharge) + tRP
                t += tRCD
                activate = t
                activated[position] = True
            state[key] = (row, t + count * tCCD, activate)

            channel = rank // per_channel
            t += tCAS
            if bus_free[channel] > t:
                t = bus_free[channel]
            if last_rank[channel] != rank and last_rank[channel] >= 0:
                t += tRTRS
            t += count * tBL
            bus_free[channel] = t
            last_rank[channel] = rank
            finish[position] = t
            bursts[position] = count

            total_bursts += count
            total_bytes += size
            if t > busy:
                busy = t
            per_rank[rank] = per_rank.get(rank, 0) + 1

        reads_served = len(dram)
        return AccessStats(
            reads=reads_served,
            bursts=total_bursts,
            bytes_read=total_bytes,
            row_hits=hits,
            row_misses=reads_served - hits,
            activates=reads_served - hits,
            finish_cycle=busy,
            per_rank_reads=per_rank,
        )

    def _frfcfs_order(self, items: Iterable[_Item]) -> Iterator[_Item]:
        """First-ready FCFS, per channel: among the channel's
        :data:`FRFCFS_WINDOW` oldest pending reads, the first whose bank
        holds its row open, else the oldest.

        The choice reads the bank state as :meth:`_serve` leaves it after
        each read, so this is only a service order, not a second
        controller.  Channels share nothing, so serving one channel's
        reads before the next changes no read's timing.
        """
        per_channel = self.config.geometry.ranks_per_channel
        banks_per_rank = self.config.geometry.banks_per_rank
        state = self._banks
        pending_by_channel: Dict[int, List[_Item]] = {}
        for item in sorted(items, key=itemgetter(4)):
            pending_by_channel.setdefault(item[1] // per_channel, []).append(item)
        for pending in pending_by_channel.values():
            while pending:
                chosen = next(
                    (
                        item
                        for item in pending[:FRFCFS_WINDOW]
                        if state.get(item[1] * banks_per_rank + item[2], _COLD)[0]
                        == item[3]
                    ),
                    pending[0],
                )
                pending.remove(chosen)
                yield chosen

    def _emit_reads(
        self, reads: ReadColumns, dram: Sequence[int], served: ServedReads
    ) -> None:
        """One ``mem_read_issue``/``mem_read_complete`` pair per DRAM read,
        in batch order."""
        if not dram:
            return
        positions = np.asarray(dram, np.intp)

        def picked(column):
            return np.asarray(column, np.int64)[positions]

        bank, size = picked(reads.bank), picked(reads.bytes)
        args = np.zeros((2 * len(positions), 5), np.int64)
        args[0::2, :2] = np.c_[bank, size]
        args[1::2] = np.c_[bank, size, picked(served.start),
                           picked(served.row_hit), picked(served.bursts)]
        self.tracer.emit_columns(
            np.tile([KIND_CODES[MEM_READ_ISSUE], KIND_CODES[MEM_READ_COMPLETE]],
                    len(positions)),
            np.c_[picked(reads.issue), picked(served.finish)].ravel(),
            args,
            clock=CLOCK_DRAM,
            rank=np.repeat(picked(reads.rank), 2),
        )

    # --- fault injection ---------------------------------------------------
    def _apply_read_faults(self, position: int, rank: int, start: int, finish: int) -> int:
        """Stretch, retry, or fail one read per the installed plan; returns
        its finish cycle.

        Timeout arithmetic runs entirely in DRAM cycles: the watchdog
        notices a lost read ``read_timeout_cycles`` after its nominal
        finish, each retry waits ``backoff · 2^attempt`` before re-issuing,
        and the surviving read's finish cycle carries the full penalty —
        downstream the engine converts it to PE cycles like any other
        memory latency, so chaos runs have honest timing.
        """
        assert self.faults is not None
        plan = self.faults
        policy = self.fault_policy

        multiplier = plan.read_latency_multiplier(rank)
        if multiplier != 1.0:
            finish = start + int(round((finish - start) * multiplier))
            if self.tracer.enabled:
                self.tracer.emit(
                    TraceEvent(
                        FAULT_INJECTED,
                        cycle=finish,
                        clock=CLOCK_DRAM,
                        rank=rank,
                        args={
                            "fault": FAULT_RANK_DEGRADED,
                            "multiplier": multiplier,
                        },
                    )
                )

        penalty = 0
        attempt = 0
        while plan.read_times_out(rank, position, attempt):
            deadline = finish + penalty + policy.read_timeout_cycles
            if self.tracer.enabled:
                self.tracer.emit(
                    TraceEvent(
                        FAULT_INJECTED,
                        cycle=deadline,
                        clock=CLOCK_DRAM,
                        rank=rank,
                        args={"fault": FAULT_RANK_TIMEOUT, "attempt": attempt},
                    )
                )
            exhausted = attempt >= policy.max_read_retries
            if self.tracer.enabled:
                args = {"fault": FAULT_RANK_TIMEOUT, "attempt": attempt}
                if exhausted:
                    args["fatal"] = True
                self.tracer.emit(
                    TraceEvent(
                        FAULT_DETECTED,
                        cycle=deadline,
                        clock=CLOCK_DRAM,
                        rank=rank,
                        args=args,
                    )
                )
            if exhausted:
                if policy.fail_fast:
                    raise RankTimeoutError(
                        f"read on rank {rank} (batch position {position}) "
                        f"timed out {attempt + 1} times; retry budget "
                        f"({policy.max_read_retries}) exhausted"
                    )
                self.failed_positions.add(position)
                return deadline
            backoff = policy.read_retry_backoff_cycles * (2**attempt)
            if self.tracer.enabled:
                self.tracer.emit(
                    TraceEvent(
                        RETRY_ISSUED,
                        cycle=deadline + backoff,
                        clock=CLOCK_DRAM,
                        rank=rank,
                        args={
                            "fault": FAULT_RANK_TIMEOUT,
                            "attempt": attempt + 1,
                            "backoff_cycles": backoff,
                        },
                    )
                )
            penalty += policy.read_timeout_cycles + backoff
            attempt += 1
        return finish + penalty
