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
    SUM,
    get_operator,
    plan_batch,
)
from repro.memory import MemoryConfig
from tests import pe_oracle
from tests.pe_oracle import Header, Message, ProcessingElement

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
    """Invariant 1: every root value is exactly the reduction of its
    query's indices."""
    engine = small_engine()
    plan = plan_batch(queries, max_query_len=8)
    leaf_inputs = pe_oracle.leaf_inputs(engine, plan, deterministic_source)
    ((root_values, _, _),) = engine._run_trees([plan], leaf_inputs, [engine.tracer])
    for query, value in zip(plan.queries, root_values):
        want = np.sum([deterministic_source(i) for i in sorted(query)], axis=0)
        assert np.allclose(value, want)
    engine.memory.reset()


@settings(max_examples=40, deadline=None)
@given(queries=queries_strategy)
def test_subtree_completion_invariant(queries):
    """Invariant 2: each subtree's output holds one message per distinct
    projection of the queries onto the indices homed beneath it.

    In the sweep's id tables, a query has a message at a node exactly when
    it has an index below, and two queries share that message exactly when
    their projections there are equal.
    """
    engine = small_engine()
    plan = plan_batch(queries, max_query_len=8)
    leaf_inputs = pe_oracle.leaf_inputs(engine, plan, deterministic_source)
    (result,) = engine._sweep([plan], leaf_inputs, [engine.tracer])

    for level, table in enumerate(result.ids[1:]):
        for node, pe_id in enumerate(engine.tree.level_ids(level)):
            covered = set(engine.tree.covered_ranks(pe_id))
            message_of = {}
            for query, message in zip(result.queries, table[:, node].tolist()):
                projection = frozenset(
                    i for i in query if engine.placement.home_rank(i) in covered
                )
                assert (message >= 0) == bool(projection), (
                    f"subtree {pe_id} missing cover {sorted(projection)} "
                    f"for query {sorted(query)}"
                )
                if projection:
                    message_of.setdefault(projection, message)
                    assert message_of[projection] == message
            assert len(set(message_of.values())) == len(message_of)
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
