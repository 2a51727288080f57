"""The set-based routing model: the specification the mask model must match.

``repro.comm.schedule`` routes piece-tagged partials with one ``uint64``
piece mask per (node, query) and counts segments in closed form.  This
module keeps the model it replaced, as the differential oracle:

* :func:`segment_count` — the recursive walk down the tournament over piece
  ids, counting maximal fully held subtrees;
* :class:`SetRoutingState` — per node a ``{query: frozenset(pieces)}`` dict,
  one message at a time;
* :func:`run` — the three schedules over that state, returning the same
  :class:`~repro.comm.schedule.ScheduleOutcome` and emitting the same
  events as :meth:`repro.comm.schedule.ReductionSchedule.run`.
"""

from __future__ import annotations

import math
from typing import Any, Dict, FrozenSet, List, Mapping, Optional, Set, Tuple

from repro.comm.schedule import (
    SCHEDULE_GATHER,
    SCHEDULE_RECURSIVE_DOUBLING,
    SCHEDULE_REDUCE_SCATTER,
    SEGMENT_HEADER_BYTES,
    CommMessage,
    ScheduleOutcome,
)
from repro.core.operators import _next_pow2
from repro.faults.plan import (
    FAULT_LINK_DEGRADED,
    FAULT_LINK_LOSS,
    FaultPlan,
    LinkFailedError,
)
from repro.faults.policy import FaultPolicy
from repro.hw.link import LinkModel
from repro.obs.events import (
    FAULT_DETECTED,
    FAULT_INJECTED,
    MSG_DROPPED,
    MSG_RETRANSMITTED,
    SHARD_MSG_SENT,
    SHARD_REDUCED,
    TraceEvent,
)
from repro.obs.tracer import NULL_TRACER, Tracer


def _prev_pow2(n: int) -> int:
    power = 1
    while power * 2 <= n:
        power *= 2
    return power


def segment_count(
    held: FrozenSet[int], present: FrozenSet[int], num_pieces: int
) -> int:
    """Segments needed to ship ``held`` without breaking the canonical fold.

    A run of held pieces may travel as one combined vector only if it
    forms a *complete subtree* of the tournament over the query's present
    pieces; anything else must stay piece-tagged.  The count is therefore
    the number of maximal tournament subtrees fully covered by ``held``.
    """
    if not held:
        return 0

    def count(lo: int, hi: int) -> int:
        window_present = [p for p in present if lo <= p < hi]
        if not window_present:
            return 0
        if all(p in held for p in window_present):
            return 1
        if hi - lo == 1:
            return 0  # present but not held
        mid = (lo + hi) // 2
        return count(lo, mid) + count(mid, hi)

    return count(0, _next_pow2(num_pieces))


class SetRoutingState:
    """Piece holdings per node as sets, plus the shared bookkeeping."""

    def __init__(
        self,
        touched: Mapping[int, FrozenSet[int]],
        num_pieces: int,
        vector_bytes: int,
        link: LinkModel,
        schedule: str,
        faults: Optional[FaultPlan] = None,
        policy: Optional[FaultPolicy] = None,
        batch: int = 0,
        tracer: Tracer = NULL_TRACER,
        start: int = 0,
    ) -> None:
        self.num_pieces = num_pieces
        self.vector_bytes = vector_bytes
        self.link = link
        self.faults = faults if faults is not None and faults.touches_links else None
        self.policy = policy if policy is not None else FaultPolicy()
        self.batch = batch
        self.tracer = tracer
        self.start = start
        self._pending_faults: List[Tuple[str, Dict[str, Any]]] = []
        # present[q]: pieces contributing to query q.
        self.present: Dict[int, FrozenSet[int]] = {}
        for piece, queries in touched.items():
            for query in queries:
                existing = self.present.get(query, frozenset())
                self.present[query] = existing | {piece}
        # hold[node][q]: pieces of q currently resident on the node.
        self.hold: List[Dict[int, FrozenSet[int]]] = [
            {query: frozenset({piece}) for query in touched.get(piece, frozenset())}
            for piece in range(num_pieces)
        ]
        self.outcome = ScheduleOutcome(schedule=schedule, num_pieces=num_pieces, steps=0)
        self._cursor = 0

    def payload(
        self,
        src: int,
        queries: Optional[Set[int]] = None,
        holdings: Optional[Dict[int, FrozenSet[int]]] = None,
    ) -> Tuple[Dict[int, FrozenSet[int]], int, int]:
        """(holdings shipped, payload bytes, segment count) for one send of
        ``holdings`` (default: ``src``'s live holdings)."""
        if holdings is None:
            holdings = self.hold[src]
        if queries is not None:
            holdings = {q: holdings[q] for q in queries if q in holdings}
        segments = 0
        for query, held in holdings.items():
            segments += segment_count(held, self.present[query], self.num_pieces)
        payload_bytes = segments * (self.vector_bytes + SEGMENT_HEADER_BYTES)
        return holdings, payload_bytes, segments

    def send(
        self,
        step: int,
        src: int,
        dst: int,
        queries: Optional[Set[int]] = None,
        holdings: Optional[Dict[int, FrozenSet[int]]] = None,
    ) -> Optional[CommMessage]:
        """Ship (a slice of) ``src``'s holdings to ``dst``; empty → no wire."""
        holdings, payload_bytes, segments = self.payload(src, queries, holdings)
        if not holdings:
            return None
        for query, held in holdings.items():
            self.hold[dst][query] = self.hold[dst].get(query, frozenset()) | held
        if queries is not None:
            for query in list(holdings):
                del self.hold[src][query]
        message = CommMessage(
            step=step,
            src=src,
            dst=dst,
            payload_bytes=payload_bytes,
            queries=len(holdings),
            segments=segments,
        )
        self.outcome.messages.append(message)
        self.outcome.total_bytes += payload_bytes
        return message

    def message_cycles(self, message: CommMessage) -> int:
        """Modeled wire time of one message, including injected link faults."""
        base = self.link.transfer_pe_cycles(message.payload_bytes)
        plan = self.faults
        if plan is None:
            return base
        site = {"step": message.step, "src": message.src, "dst": message.dst}
        multiplier = plan.link_multiplier(message.src, message.dst)
        per_attempt = base
        if multiplier > 1.0:
            per_attempt = int(math.ceil(base * multiplier))
            self._pending_faults.append(
                (FAULT_INJECTED,
                 dict(site, fault=FAULT_LINK_DEGRADED, multiplier=multiplier))
            )
        total = per_attempt
        attempt = 0
        while plan.message_dropped(
            self.batch, message.step, message.src, message.dst, attempt
        ):
            exhausted = attempt >= self.policy.max_link_retransmits
            self._pending_faults.append(
                (FAULT_INJECTED, dict(site, fault=FAULT_LINK_LOSS, attempt=attempt))
            )
            self._pending_faults.append(
                (MSG_DROPPED, dict(site, bytes=message.payload_bytes, attempt=attempt))
            )
            self._pending_faults.append(
                (FAULT_DETECTED, dict(site, fault=FAULT_LINK_LOSS, fatal=exhausted))
            )
            total += self.policy.link_timeout_cycles
            if exhausted:
                if self.policy.fail_fast:
                    raise LinkFailedError(
                        f"message step {message.step} {message.src}->"
                        f"{message.dst} lost after "
                        f"{self.policy.max_link_retransmits} retransmits"
                    )
                total += per_attempt
                self._pending_faults.append(
                    (MSG_RETRANSMITTED, dict(site, attempt=attempt + 1, escalated=True))
                )
                break
            attempt += 1
            total += per_attempt
            self._pending_faults.append(
                (MSG_RETRANSMITTED, dict(site, attempt=attempt, escalated=False))
            )
        return total

    def close_step(self, step: int, cycles: int, inbound: Dict[int, int]) -> None:
        """Account one synchronous step: duration, events, reduce marks."""
        self._cursor += cycles
        self.outcome.step_cycles.append(cycles)
        self.outcome.steps += 1
        pending, self._pending_faults = self._pending_faults, []
        if not self.tracer.enabled:
            return
        cycle = self.start + self._cursor

        def emit(kind: str, args: Dict[str, Any]) -> None:
            args = dict(args, batch=self.batch)
            self.tracer.emit(TraceEvent(kind, cycle=cycle, args=args))

        for message in self.outcome.messages:
            if message.step == step:
                emit(SHARD_MSG_SENT, {
                    "step": step,
                    "src": message.src,
                    "dst": message.dst,
                    "bytes": message.payload_bytes,
                    "queries": message.queries,
                    "segments": message.segments,
                })
        for node in sorted(inbound):
            emit(SHARD_REDUCED, {
                "step": step,
                "node": node,
                "messages": inbound[node],
                "queries": len(self.hold[node]),
            })
        for kind, args in pending:
            emit(kind, args)

    def finish(self, consumer: int = 0) -> ScheduleOutcome:
        """Close the outcome, asserting the consumer holds every partial."""
        for query, present in self.present.items():
            held = self.hold[consumer].get(query, frozenset())
            if not held >= present:
                raise RuntimeError(
                    f"schedule {self.outcome.schedule!r} left query {query} "
                    f"incomplete at node {consumer}"
                )
        self.outcome.comm_pe_cycles = self._cursor
        return self.outcome

    def exchange(self, distance: int, core: int, select=None) -> None:
        """One pair-parallel step: node ``i`` ships ``select(i, partner,
        holdings)`` (default: all it holds) to ``partner = i xor distance``,
        every node reading its holdings as they were at the step's start."""
        step = self.outcome.steps
        inbound: Dict[int, int] = {}
        pair_cycles: Dict[Tuple[int, int], List[int]] = {}
        at_start = [dict(self.hold[node]) for node in range(core)]
        for node in range(core):
            partner = node ^ distance
            holdings = at_start[node]
            queries = select(node, partner, holdings) if select is not None else None
            message = self.send(step, node, partner, queries, holdings)
            if message is not None:
                pair = (min(node, partner), max(node, partner))
                pair_cycles.setdefault(pair, []).append(self.message_cycles(message))
                inbound[partner] = inbound.get(partner, 0) + 1
        turns = max if self.link.duplex else sum
        longest = max((turns(cycles) for cycles in pair_cycles.values()), default=0)
        self.close_step(step, longest, inbound)

    def fold_in_extras(self, core: int) -> None:
        """Pre-step: shards beyond the power-of-two core ship to a partner."""
        if core >= self.num_pieces:
            return
        step = self.outcome.steps
        longest = 0
        inbound: Dict[int, int] = {}
        for src in range(core, self.num_pieces):
            message = self.send(step, src, src - core)
            if message is not None:
                longest = max(longest, self.message_cycles(message))
                inbound[src - core] = inbound.get(src - core, 0) + 1
        self.close_step(step, longest, inbound)


def _gather(state: SetRoutingState) -> None:
    if state.num_pieces > 1:
        cycles = 0
        inbound: Dict[int, int] = {}
        for src in range(1, state.num_pieces):
            message = state.send(0, src, 0)
            if message is not None:
                cycles += state.message_cycles(message)
                inbound[0] = inbound.get(0, 0) + 1
        state.close_step(0, cycles, inbound)


def _recursive_doubling(state: SetRoutingState) -> None:
    core = _prev_pow2(state.num_pieces)
    state.fold_in_extras(core)
    distance = 1
    while distance < core:
        state.exchange(distance, core)
        distance *= 2


def _reduce_scatter(state: SetRoutingState) -> None:
    core = _prev_pow2(state.num_pieces)
    state.fold_in_extras(core)
    if core > 1:
        chunk_of = {query: query % core for query in state.present}
        distance = core // 2
        while distance >= 1:
            state.exchange(
                distance,
                core,
                lambda node, partner, holdings: {
                    query
                    for query in holdings
                    if chunk_of[query] & distance == partner & distance
                },
            )
            distance //= 2
        distance = 1
        while distance < core:
            state.exchange(distance, core)
            distance *= 2


ROUTES = {
    SCHEDULE_GATHER: _gather,
    SCHEDULE_RECURSIVE_DOUBLING: _recursive_doubling,
    SCHEDULE_REDUCE_SCATTER: _reduce_scatter,
}


def run(
    name: str,
    touched: Mapping[int, FrozenSet[int]],
    num_pieces: int,
    vector_bytes: int,
    link: LinkModel,
    faults: Optional[FaultPlan] = None,
    policy: Optional[FaultPolicy] = None,
    batch: int = 0,
    tracer: Tracer = NULL_TRACER,
    start: int = 0,
) -> ScheduleOutcome:
    """Schedule ``name`` over the set model; same contract as
    :meth:`repro.comm.schedule.ReductionSchedule.run`."""
    state = SetRoutingState(touched, num_pieces, vector_bytes, link, name,
                            faults, policy, batch, tracer, start)
    ROUTES[name](state)
    return state.finish()
