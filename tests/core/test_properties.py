"""Property-based tests (hypothesis) for the FAFNIR core invariants.

DESIGN.md §6 lists the invariants; these tests check them on randomly
generated batches, placements, and operators against a NumPy oracle.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core import (
    FafnirConfig,
    FafnirEngine,
    Header,
    Message,
    ProcessingElement,
    SUM,
    get_operator,
    plan_batch,
)
from repro.memory import MemoryConfig

ELEMENTS = 16


def small_engine(operator=SUM):
    config = FafnirConfig(
        batch_size=8,
        max_query_len=8,
        vector_bytes=ELEMENTS * 4,
        total_ranks=8,
        ranks_per_leaf_pe=2,
        num_tables=8,
    )
    return FafnirEngine(
        config=config,
        operator=operator,
        memory_config=MemoryConfig().scaled_to_ranks(8),
        check_values=True,
    )


def deterministic_source(index):
    rng = np.random.default_rng(100_000 + index)
    return rng.normal(size=ELEMENTS)


queries_strategy = st.lists(
    st.lists(st.integers(min_value=0, max_value=63), min_size=1, max_size=8),
    min_size=1,
    max_size=8,
)


@settings(max_examples=60, deadline=None)
@given(queries=queries_strategy)
def test_engine_matches_numpy_oracle_sum(queries):
    """Invariant 4: results equal a direct NumPy reduction, any batch."""
    engine = small_engine()
    result = engine.run_batch(queries, deterministic_source)
    for raw, produced in zip(queries, result.vectors):
        want = np.sum([deterministic_source(i) for i in set(raw)], axis=0)
        assert np.allclose(produced, want)


@settings(max_examples=30, deadline=None)
@given(
    queries=queries_strategy,
    operator_name=st.sampled_from(["sum", "min", "max", "mean"]),
)
def test_engine_matches_oracle_all_operators(queries, operator_name):
    operator = get_operator(operator_name)
    engine = small_engine(operator)
    result = engine.run_batch(queries, deterministic_source)
    for raw, produced in zip(queries, result.vectors):
        want = operator.reduce_many(
            [deterministic_source(i) for i in sorted(set(raw))]
        )
        assert np.allclose(produced, want)


@settings(max_examples=60, deadline=None)
@given(queries=queries_strategy)
def test_unique_read_invariant(queries):
    """Deduplicated plans read each distinct index exactly once."""
    engine = small_engine()
    result = engine.run_batch(queries, deterministic_source)
    distinct = {i for q in queries for i in q}
    assert result.stats.memory.reads == len(distinct)
    assert result.stats.unique_reads == len(distinct)


@settings(max_examples=60, deadline=None)
@given(queries=queries_strategy)
def test_plan_unique_fraction_bounds(queries):
    plan = plan_batch(queries)
    assert 0.0 < plan.unique_fraction <= 1.0
    assert plan.accesses_saved >= 0
    assert plan.accesses_saved + len(plan.unique_indices) == plan.total_lookups


@settings(max_examples=40, deadline=None)
@given(queries=queries_strategy)
def test_message_value_matches_indices_reduction(queries):
    """Invariant 1: every root message's value is exactly the reduction of
    its indices set."""
    engine = small_engine()
    plan = plan_batch(queries, max_query_len=8)
    finish, _, _ = engine._fetch_from_memory(plan)
    values = {i: deterministic_source(i) for i in plan.unique_indices}
    leaf_inputs = engine._leaf_inputs(plan, finish, values)
    root_outputs, _ = engine._run_tree(leaf_inputs)
    for message in root_outputs:
        want = np.sum(
            [deterministic_source(i) for i in sorted(message.indices)], axis=0
        )
        assert np.allclose(message.value, want)
    engine.memory.reset()


@settings(max_examples=40, deadline=None)
@given(queries=queries_strategy)
def test_subtree_completion_invariant(queries):
    """Invariant 2: each subtree's output holds a message covering exactly
    the query indices homed beneath it."""
    engine = small_engine()
    plan = plan_batch(queries, max_query_len=8)
    finish, _, _ = engine._fetch_from_memory(plan)
    values = {i: deterministic_source(i) for i in plan.unique_indices}
    leaf_inputs = engine._leaf_inputs(plan, finish, values)

    outputs = {}
    for pe_id in engine.tree.bottom_up_ids():
        node = engine.tree.pe(pe_id)
        pe = ProcessingElement(engine.config, engine.operator)
        if node.is_leaf:
            from repro.core.pe import PEWork

            work = PEWork()
            input_a = pe.fold_stream(leaf_inputs[pe_id][0], work)
            input_b = pe.fold_stream(leaf_inputs[pe_id][1], work)
        else:
            left, right = node.children
            input_a, input_b = outputs[left], outputs[right]
        outputs[pe_id] = pe.process(input_a, input_b).outputs

        covered = set(engine.tree.covered_ranks(pe_id))
        for query in plan.queries:
            expected_indices = frozenset(
                i for i in query if engine.placement.home_rank(i) in covered
            )
            if not expected_indices:
                continue
            assert any(
                message.indices == expected_indices
                for message in outputs[pe_id]
            ), (
                f"subtree {pe_id} missing cover {sorted(expected_indices)} "
                f"for query {sorted(query)}"
            )
    engine.memory.reset()


@settings(max_examples=50, deadline=None)
@given(
    n_entries=st.integers(min_value=1, max_value=4),
    m_entries=st.integers(min_value=0, max_value=4),
)
def test_pe_output_count_bounded(n_entries, m_entries):
    """Invariant 3: merged output count ≤ nm + n + m."""
    config = FafnirConfig(batch_size=32, total_ranks=8, ranks_per_leaf_pe=2)
    pe = ProcessingElement(config, SUM)
    input_a = [
        Message(Header.make({i}, [{100 + i}]), np.zeros(4))
        for i in range(n_entries)
    ]
    input_b = [
        Message(Header.make({50 + j}, [{100 + j}]), np.zeros(4))
        for j in range(m_entries)
    ]
    result = pe.process(input_a, input_b)
    bound = n_entries * m_entries + n_entries + m_entries
    assert len(result.outputs) <= bound


@settings(max_examples=60, deadline=None)
@given(queries=queries_strategy)
def test_latency_lower_bound(queries):
    """Timing sanity: a completed query crossed every tree level, paying at
    least the forward path per level, after its slowest memory read."""
    engine = small_engine()
    result = engine.run_batch(queries, deterministic_source)
    floor = engine.tree.num_levels * engine.config.latencies.forward_path
    assert result.stats.latency_pe_cycles >= floor
