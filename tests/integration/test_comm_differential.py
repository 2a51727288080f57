"""Differential: the mask routing model against the set model it replaced.

``repro.comm.schedule`` holds each (node, query)'s pieces as a ``uint64``
mask and counts a send's segments in closed form; ``tests/comm_oracle.py``
keeps the set model with the recursive segment walk.  Every seeded draw
runs one schedule both ways, traced, and requires the same
:class:`~repro.comm.schedule.ScheduleOutcome` (steps, messages, step
cycles, comm cycles, bytes) and the same event stream.  Draws span 1-16
pieces, sparse touched maps with single-piece queries, duplex and
half-duplex links, all three schedules, and on a third of them a link
fault plan under fail-fast and under degrade.
"""

import numpy as np
import pytest

from repro.comm import CrossShardReducer, IndexPartition
from repro.comm.schedule import (
    MAX_PIECES,
    SCHEDULES,
    _RoutingState,
    _segments,
)
from repro.faults import FaultPlan, FaultPolicy
from repro.faults.plan import LinkFailedError
from repro.hw.link import LinkModel
from repro.obs import InMemorySink, Tracer
from tests import comm_oracle

DRAWS = 420
VECTOR_BYTES = 64


def random_draw(seed):
    """One schedule run's inputs: a sparse touched map plus link and faults."""
    rng = np.random.default_rng(seed)
    pieces = int(rng.integers(1, 17))
    queries = int(rng.integers(1, 41))
    density = rng.uniform(0.05, 0.9)
    touched = {}
    for piece in range(pieces):
        if rng.random() < 0.2:
            continue  # an untouched piece ships nothing
        chosen = np.flatnonzero(rng.random(queries) < density)
        if len(chosen):
            touched[piece] = frozenset(chosen.tolist())
    # Single-piece queries: positions past ``queries`` owned by one piece.
    for extra in range(int(rng.integers(0, 4))):
        touched.setdefault(int(rng.integers(pieces)), frozenset())
        owner = int(rng.choice(sorted(touched)))
        touched[owner] = touched[owner] | {queries + extra}
    touched = {piece: held for piece, held in touched.items() if held}
    link = LinkModel(
        latency_ns=float(rng.choice([50.0, 300.0])),
        bandwidth_gb_s=float(rng.choice([5.0, 25.0])),
        duplex=bool(rng.random() < 0.5),
    )
    faults = policy = None
    if seed % 3 == 0:
        pairs = [(a, b) for a in range(pieces) for b in range(pieces) if a != b]
        degraded = {}
        for n in rng.permutation(len(pairs))[: int(rng.integers(0, 4))]:
            degraded[pairs[n]] = float(rng.choice([1.5, 3.0]))
        faults = FaultPlan(
            seed=seed,
            link_loss_probability=float(rng.choice([0.1, 0.4])),
            link_bandwidth_multipliers=degraded,
        )
        policy = FaultPolicy() if rng.random() < 0.5 else FaultPolicy.graceful()
    name = sorted(SCHEDULES)[seed % len(SCHEDULES)]
    return name, touched, pieces, link, faults, policy


def _run(runner, *args, **kwargs):
    """(outcome or the raised error's text, events) of one traced run."""
    sink = InMemorySink()
    try:
        outcome = runner(*args, tracer=Tracer([sink]), **kwargs)
    except LinkFailedError as error:
        outcome = f"LinkFailedError: {error}"
    return outcome, sink.events


@pytest.mark.parametrize("seed", range(DRAWS))
def test_mask_model_matches_set_model(seed):
    name, touched, pieces, link, faults, policy = random_draw(seed)
    kwargs = dict(faults=faults, policy=policy, batch=seed % 5, start=seed * 11)
    got = _run(SCHEDULES[name].run, touched, pieces, VECTOR_BYTES, link, **kwargs)
    want = _run(comm_oracle.run, name, touched, pieces, VECTOR_BYTES, link, **kwargs)
    assert got[0] == want[0]
    assert got[1] == want[1]


def test_draws_cover_the_promised_shapes():
    draws = [random_draw(seed) for seed in range(DRAWS)]
    assert {pieces for _, _, pieces, _, _, _ in draws} == set(range(1, 17))
    assert {link.duplex for _, _, _, link, _, _ in draws} == {True, False}
    policies = {policy.fail_fast for *_, policy in draws if policy is not None}
    assert policies == {True, False}
    single = 0
    for _, touched, *_ in draws:
        owners = {}
        for piece, queries in touched.items():
            for query in queries:
                owners[query] = owners.get(query, 0) + 1
        single += sum(count == 1 for count in owners.values())
    assert single > DRAWS


@pytest.mark.parametrize("pieces", range(1, 7))
def test_closed_form_segments_match_the_recursive_walk(pieces):
    """Every held ⊆ present pair over ``pieces`` pieces."""
    pairs = [
        (held, present)
        for present in range(1 << pieces)
        for held in range(1 << pieces)
        if held & ~present == 0
    ]
    held = np.array([h for h, _ in pairs], np.uint64)
    present = np.array([p for _, p in pairs], np.uint64)
    # One sender per pair, each shipping only its own query's column.
    sent = np.zeros((len(pairs), len(pairs)), np.uint64)
    sent[np.arange(len(pairs)), np.arange(len(pairs))] = held
    got = _segments(sent, present, pieces)

    def bits(mask):
        return frozenset(p for p in range(pieces) if mask >> p & 1)

    want = [comm_oracle.segment_count(bits(h), bits(p), pieces) for h, p in pairs]
    assert got.tolist() == want


def test_piece_limit_is_named_at_routing_state():
    link = LinkModel()
    _RoutingState({MAX_PIECES - 1: frozenset({0})}, MAX_PIECES, 8, link, "gather")
    with pytest.raises(ValueError, match=f"limit of {MAX_PIECES}"):
        _RoutingState({0: frozenset({0})}, MAX_PIECES + 1, 8, link, "gather")


def test_piece_limit_is_named_at_reducer():
    too_many = MAX_PIECES + 1
    partition = IndexPartition(
        num_pieces=too_many, rank_owner=tuple(range(too_many)), total_ranks=too_many
    )
    with pytest.raises(ValueError, match=f"limit of {MAX_PIECES}"):
        CrossShardReducer(partition, "gather")


def test_all_64_pieces_route_to_the_consumer():
    touched = {piece: frozenset({piece % 3, 5}) for piece in range(MAX_PIECES)}
    for name in sorted(SCHEDULES):
        got = SCHEDULES[name].run(touched, MAX_PIECES, 8, LinkModel())
        want = comm_oracle.run(name, touched, MAX_PIECES, 8, LinkModel())
        assert got == want
