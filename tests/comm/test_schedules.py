"""Unit tests for the reduction schedules and the canonical fold."""

import numpy as np
import pytest

from repro.comm.schedule import (
    GatherToRoot,
    RecursiveDoubling,
    ReduceScatterAllgather,
    ReductionSchedule,
    SCHEDULES,
    SEGMENT_HEADER_BYTES,
    _RoutingState,
    canonical_fold,
    get_schedule,
)
from repro.hw.link import LinkModel
from repro.obs import InMemorySink, Tracer
from repro.obs.events import SHARD_MSG_SENT, SHARD_REDUCED
from tests.comm_oracle import segment_count

LINK = LinkModel(latency_ns=100.0, bandwidth_gb_s=10.0)
VEC = 64


def _vec(seed):
    return np.random.default_rng(seed).standard_normal(8)


# --- canonical fold --------------------------------------------------------
def test_canonical_fold_is_a_fixed_tournament():
    a, b, c = _vec(1), _vec(2), _vec(3)
    folded = canonical_fold({0: a, 1: b, 2: c}, 3, np.add)
    expected = np.add(np.add(a, b), c)  # ((0⊕1)⊕2), piece 3 absent
    assert folded.tobytes() == expected.tobytes()


def test_canonical_fold_skips_absent_pieces_without_reassociating():
    a, d = _vec(1), _vec(4)
    folded = canonical_fold({0: a, 3: d}, 4, np.add)
    assert folded.tobytes() == np.add(a, d).tobytes()


def test_canonical_fold_is_insertion_order_invariant():
    vectors = {piece: _vec(piece) for piece in range(5)}
    forward = canonical_fold(dict(sorted(vectors.items())), 5, np.add)
    backward = canonical_fold(
        dict(sorted(vectors.items(), reverse=True)), 5, np.add
    )
    assert forward.tobytes() == backward.tobytes()


def test_canonical_fold_single_entry_and_empty():
    a = _vec(0)
    assert canonical_fold({2: a}, 4, np.add).tobytes() == a.tobytes()
    with pytest.raises(ValueError):
        canonical_fold({}, 4, np.add)


# --- segment accounting ----------------------------------------------------
@pytest.mark.parametrize(
    "held, present, pieces, expected",
    [
        (frozenset(), frozenset({0, 1}), 2, 0),
        (frozenset({0, 1, 2, 3}), frozenset({0, 1, 2, 3}), 4, 1),
        (frozenset({0, 1}), frozenset({0, 1, 2, 3}), 4, 1),
        (frozenset({1, 2}), frozenset({0, 1, 2, 3}), 4, 2),  # crosses the mid
        (frozenset({0, 2}), frozenset({0, 1, 2, 3}), 4, 2),
        (frozenset({0, 3}), frozenset({0, 3}), 4, 1),  # covers all present
        (frozenset({0}), frozenset({0, 3}), 4, 1),
    ],
)
def test_segment_count(held, present, pieces, expected):
    assert segment_count(held, present, pieces) == expected


# --- gather-to-root --------------------------------------------------------
def test_gather_is_one_serialized_step():
    touched = {0: frozenset({0}), 1: frozenset({0}), 2: frozenset({0, 1})}
    outcome = GatherToRoot().run(touched, 3, VEC, LINK)
    assert outcome.steps == 1
    assert outcome.message_count == 2  # the root ships nothing
    per_message = [
        LINK.transfer_pe_cycles(m.payload_bytes) for m in outcome.messages
    ]
    assert outcome.comm_pe_cycles == sum(per_message)  # serialized ingress
    assert all(m.dst == 0 for m in outcome.messages)


def test_gather_skips_empty_shards():
    touched = {0: frozenset({0}), 2: frozenset({0})}
    outcome = GatherToRoot().run(touched, 4, VEC, LINK)
    assert {m.src for m in outcome.messages} == {2}  # pieces 1,3 silent


def test_single_shard_costs_nothing():
    for schedule in SCHEDULES.values():
        outcome = schedule.run({0: frozenset({0, 1})}, 1, VEC, LINK)
        assert outcome.steps == 0
        assert outcome.message_count == 0
        assert outcome.comm_pe_cycles == 0


# --- recursive doubling ----------------------------------------------------
def test_recursive_doubling_step_count_is_logarithmic():
    touched = {p: frozenset({0}) for p in range(8)}
    outcome = RecursiveDoubling().run(touched, 8, VEC, LINK)
    assert outcome.steps == 3
    # Pair-parallel: each step costs one max-message, so total comm time is
    # far below gather's serialized sum at this shard count.
    gather = GatherToRoot().run(touched, 8, VEC, LINK)
    assert outcome.comm_pe_cycles < gather.comm_pe_cycles


def test_recursive_doubling_non_power_of_two_adds_one_fold_in_step():
    touched = {p: frozenset({0}) for p in range(6)}
    outcome = RecursiveDoubling().run(touched, 6, VEC, LINK)
    assert outcome.steps == 1 + 2  # fold-in + log2(4)
    pre = [m for m in outcome.messages if m.step == 0]
    assert {(m.src, m.dst) for m in pre} == {(4, 0), (5, 1)}


def test_exchange_sends_read_the_step_start_holdings():
    """A butterfly from one holder sends 3 messages: no node ships back
    what its partner sent it earlier in the same step."""
    outcome = RecursiveDoubling().run({0: frozenset({0})}, 4, 512, LinkModel())
    assert [(m.step, m.src, m.dst) for m in outcome.messages] == [
        (0, 0, 1), (1, 0, 2), (1, 1, 3),
    ]


def test_half_duplex_serializes_exchange_directions():
    touched = {p: frozenset({0}) for p in range(4)}
    duplex = RecursiveDoubling().run(touched, 4, VEC, LINK)
    half = RecursiveDoubling().run(
        touched, 4, VEC, LinkModel(latency_ns=100.0, bandwidth_gb_s=10.0, duplex=False)
    )
    assert half.comm_pe_cycles > duplex.comm_pe_cycles


# --- reduce-scatter + allgather --------------------------------------------
def test_reduce_scatter_step_count_is_two_log():
    touched = {p: frozenset(range(8)) for p in range(8)}
    outcome = ReduceScatterAllgather().run(touched, 8, VEC, LINK)
    assert outcome.steps == 6  # log2(8) halving + log2(8) doubling


def test_reduce_scatter_halving_ships_smaller_messages_than_doubling_full():
    touched = {p: frozenset(range(16)) for p in range(4)}
    rs = ReduceScatterAllgather().run(touched, 4, VEC, LINK)
    rd = RecursiveDoubling().run(touched, 4, VEC, LINK)
    # The reduce phase keeps only each node's chunk, so its messages stay
    # half-sized; recursive doubling exchanges full holdings every round.
    # (The allgather tail re-assembles full vectors, so only the halving
    # steps — the first log2(S) — carry the smaller payloads.)
    halving = [m for m in rs.messages if m.step < 2]  # log2(4) reduce steps
    assert halving
    assert max(m.payload_bytes for m in halving) < max(
        m.payload_bytes for m in rd.messages
    )


# --- shared outcome contract ------------------------------------------------
@pytest.mark.parametrize("name", sorted(SCHEDULES))
@pytest.mark.parametrize("pieces", [2, 3, 4, 6, 8])
def test_every_schedule_delivers_all_pieces_to_the_consumer(name, pieces):
    touched = {
        p: frozenset(q for q in range(6) if (q + p) % 3) for p in range(pieces)
    }
    sink = InMemorySink()
    outcome = get_schedule(name).run(
        touched, pieces, VEC, LINK, batch=3, tracer=Tracer([sink]), start=100
    )
    # finish() asserted coverage internally; cross-check the books.
    assert outcome.total_bytes == sum(m.payload_bytes for m in outcome.messages)
    assert outcome.comm_pe_cycles == sum(outcome.step_cycles)
    assert len(outcome.step_cycles) == outcome.steps
    kinds = {event.kind for event in sink.events}
    assert kinds <= {SHARD_MSG_SENT, SHARD_REDUCED}
    sent = [e for e in sink.events if e.kind == SHARD_MSG_SENT]
    assert len(sent) == outcome.message_count
    # Events sit at each step's end after ``start``, tagged with the batch.
    step_ends = [100 + sum(outcome.step_cycles[: step + 1]) for step in range(outcome.steps)]
    assert all(e.cycle == step_ends[e.args["step"]] for e in sink.events)
    assert all(e.args["batch"] == 3 for e in sink.events)
    for message in outcome.messages:
        assert message.payload_bytes == message.segments * (
            VEC + SEGMENT_HEADER_BYTES
        )


def test_incomplete_routing_is_rejected():
    class Broken(ReductionSchedule):
        name = "broken"

        def run(self, touched, num_pieces, vector_bytes, link):
            state = _RoutingState(
                touched, num_pieces, vector_bytes, link, self.name
            )
            return state.finish()  # never moved anything to the consumer

    touched = {1: frozenset({0})}
    with pytest.raises(RuntimeError, match="incomplete"):
        Broken().run(touched, 2, VEC, LINK)


def test_get_schedule_rejects_unknown_names():
    with pytest.raises(KeyError, match="unknown reduction schedule"):
        get_schedule("ring")
