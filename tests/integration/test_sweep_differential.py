"""The closed-form tree sweep against the object PE oracle, at scale.

:data:`RUNS` seeded runs, each drawn across every axis the sweep's closed
form has to survive: 2–32 ranks with 1, 2 or 4 ranks per leaf PE (so one
query often has several indices in one FIFO), deduplication on and off,
repeated queries, every reduction operator, a
small hot-index tier, fault plans that degrade and fail queries,
``dataflow`` and ``phased`` timing, and tracing; at least 100 of them
each have no FIFO, every FIFO and only some FIFOs that can fold.  The
``on_pe_paths`` fixture runs each through the sweep and through the
oracle and demands equal vector bytes, per-query ready cycles, per-PE
work, statuses, drop set and batch latency, and for traced runs the same
event stream (PE events as one multiset per PE).

:class:`TestMessagesPerPE` goes below the observables: it rebuilds every
PE's output messages from the sweep's id tables — each message's index set
and the query remainders it carries — and compares them with the messages
the oracle's PEs emit.
"""

from collections import Counter

import numpy as np
import pytest

from repro.core import FafnirConfig, FafnirEngine, get_operator, plan_batch
from repro.faults import FaultPlan, FaultPolicy, STATUS_DEGRADED
from repro.memory import MemoryConfig
from repro.obs import InMemorySink, Tracer
from repro.tiering.cache import HotTierConfig
from repro.workloads import EmbeddingTableSet, QueryGenerator
from tests import pe_oracle
from tests.conftest import leaf_kind, tree_event_fingerprint

RUNS = 1000
CHUNKS = 20
ELEMENTS = 8


def source(index):
    return np.random.default_rng(90_000 + index).normal(size=ELEMENTS)


def random_case(seed):
    """One machine, engine options and batch: (config, kwargs, queries, dedup,
    traced)."""
    rng = np.random.default_rng(seed)
    per_leaf = int(rng.choice([1, 2, 4]))
    ranks = per_leaf * int(rng.choice([1, 2, 4, 8]))
    ranks = max(ranks, 2)
    universe = int(rng.integers(4, 160))
    width = int(rng.integers(1, 10))
    queries = [
        rng.choice(universe, size=min(universe, int(rng.integers(1, width + 1))),
                   replace=False).tolist()
        for _ in range(int(rng.integers(1, 25)))
    ]
    if rng.random() < 0.3:
        queries += queries[: int(rng.integers(1, 4))]
    config = FafnirConfig(
        batch_size=len(queries),
        max_query_len=max(len(query) for query in queries),
        vector_bytes=ELEMENTS * 4,
        total_ranks=ranks,
        ranks_per_leaf_pe=per_leaf if ranks % per_leaf == 0 else 1,
        num_tables=ranks,
    )
    kwargs = {"memory_config": MemoryConfig().scaled_to_ranks(ranks)}
    if rng.random() < 0.3:
        kwargs["timing"] = "phased"
    if rng.random() < 0.3:
        kwargs["operator"] = get_operator(str(rng.choice(["min", "max", "mean"])))
    if rng.random() < 0.2:
        kwargs["cache"] = HotTierConfig(size_bytes=4096, line_bytes=64, ways=2)
    if rng.random() < 0.25:
        kwargs["faults"] = FaultPlan(
            seed=seed,
            rank_timeout_probability={int(rng.integers(ranks)): 1.0},
            source_failure_probability=float(rng.choice([0.0, 0.3])),
        )
        kwargs["fault_policy"] = FaultPolicy.graceful(
            max_read_retries=0, max_source_retries=0
        )
    return config, kwargs, queries, bool(rng.random() < 0.6), rng.random() < 0.3


def run_case(case):
    config, kwargs, queries, deduplicate, traced = case
    sink = InMemorySink()
    engine = FafnirEngine(
        config=config, tracer=Tracer([sink]) if traced else None, **kwargs
    )
    result = engine.run_batch(queries, source, deduplicate)
    if "cache" in kwargs:  # a second batch on the warm tier
        result = engine.run_batch(queries, source, deduplicate)
    return {
        "vectors": [vector.tobytes() for vector in result.vectors],
        "ready": result.ready_pe_cycles,
        "work": result.stats.per_pe_work,
        "statuses": result.statuses,
        "dropped": result.dropped_indices,
        "latency": result.stats.latency_pe_cycles,
        "events": tree_event_fingerprint(sink.events),
    }


@pytest.mark.parametrize("chunk", range(CHUNKS))
def test_sweep_matches_oracle(chunk, on_pe_paths):
    per_chunk = RUNS // CHUNKS
    for seed in range(chunk * per_chunk, (chunk + 1) * per_chunk):
        case = random_case(seed)
        on_pe_paths(lambda: run_case(case))


def batch_kind(config, kwargs, queries, deduplicate):
    """:func:`tests.conftest.leaf_kind` of a case's fault-free leaf FIFOs."""
    engine = FafnirEngine(config=config, memory_config=kwargs["memory_config"])
    plan = plan_batch(queries, max_query_len=config.max_query_len,
                      deduplicate=deduplicate)
    return leaf_kind(pe_oracle.leaf_inputs(engine, plan, source))


def test_cases_cover_every_class():
    """The seeded draw reaches every class the sweep must get right,
    and each batch kind (no FIFO, every FIFO or some FIFOs can fold) at
    least 100 times."""
    seen = set()
    kinds = Counter()
    for seed in range(RUNS):
        config, kwargs, queries, deduplicate, traced = random_case(seed)
        kinds[batch_kind(config, kwargs, queries, deduplicate)] += 1
        seen.update(key for key in kwargs if key != "memory_config")
        seen.add(("dedup", deduplicate))
        seen.add(("traced", traced))
        seen.add(("per_leaf", config.ranks_per_leaf_pe))
        if len({frozenset(query) for query in queries}) < len(queries):
            seen.add("repeated")
    assert {"timing", "operator", "cache", "faults"} <= seen
    assert {("dedup", True), ("dedup", False), ("traced", True), "repeated"} <= seen
    assert {("per_leaf", 1), ("per_leaf", 2), ("per_leaf", 4)} <= seen
    assert all(kinds[kind] >= 100 for kind in ("fold-free", "folding", "mixed")), kinds


class TestMessagesPerPE:
    """Every PE's messages, rebuilt from the sweep's id tables, are the
    oracle's: the same index sets carrying the same query remainders."""

    def messages_match(self, engine, queries, **run_kwargs):
        result = engine.run_batch(queries, source, **run_kwargs)
        plan = plan_batch(
            [q - result.dropped_indices for q in result.plan.queries
             if q - result.dropped_indices],
            max_query_len=engine.config.max_query_len,
            deduplicate=result.plan.deduplicated,
        )
        leaf_inputs = pe_oracle.leaf_inputs(engine, plan, source)
        (sweep,) = engine._sweep([plan], leaf_inputs, [engine.tracer])
        oracle = pe_oracle.outputs_by_pe(engine, plan, leaf_inputs)

        checked = 0
        for level, table in enumerate(sweep.ids[1:]):
            for node, pe_id in enumerate(engine.tree.level_ids(level)):
                covered = set(engine.tree.covered_ranks(pe_id))
                rebuilt = {}
                for query, message in zip(sweep.queries, table[:, node].tolist()):
                    if message < 0:
                        continue
                    indices = frozenset(
                        i for i in query if engine.placement.home_rank(i) in covered
                    )
                    carried = rebuilt.setdefault(message, (indices, set()))
                    assert carried[0] == indices, "one id, two index sets"
                    carried[1].add(query - indices)
                expected = {
                    (m.indices, frozenset(m.entries)) for m in oracle[pe_id]
                }
                got = {(s, frozenset(entries)) for s, entries in rebuilt.values()}
                assert got == expected, f"PE {pe_id} messages differ"
                assert len(rebuilt) == len(oracle[pe_id])
                checked += 1
        assert checked == engine.tree.num_pes
        return result

    def test_offline_uniform_shaped_batch(self):
        config = FafnirConfig(
            batch_size=128, max_query_len=64, vector_bytes=ELEMENTS * 4,
            total_ranks=64, num_tables=64,
        )
        rng = np.random.default_rng(4)
        queries = [rng.choice(8192, size=64, replace=False).tolist() for _ in range(128)]
        self.messages_match(FafnirEngine(config=config), queries)

    def test_zipf_batches(self):
        tables = EmbeddingTableSet.random(seed=5)
        generator = QueryGenerator.paper_calibrated(tables, seed=6, query_len=16)
        config = FafnirConfig(vector_bytes=ELEMENTS * 4)
        for deduplicate in (True, False):
            self.messages_match(
                FafnirEngine(config=config), generator.batch(32),
                deduplicate=deduplicate,
            )

    def test_degraded_batch(self):
        config = FafnirConfig(
            batch_size=24, max_query_len=12, vector_bytes=ELEMENTS * 4,
            total_ranks=8, ranks_per_leaf_pe=2, num_tables=8,
        )
        engine = FafnirEngine(
            config=config,
            memory_config=MemoryConfig().scaled_to_ranks(8),
            faults=FaultPlan(seed=3, rank_timeout_probability={2: 1.0}),
            fault_policy=FaultPolicy.graceful(max_read_retries=0),
        )
        rng = np.random.default_rng(8)
        queries = [
            rng.choice(96, size=int(rng.integers(1, 13)), replace=False).tolist()
            for _ in range(24)
        ]
        result = self.messages_match(engine, queries)
        assert STATUS_DEGRADED in result.statuses
