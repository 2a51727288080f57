"""The closed-form leaf boundary against the oracle fold, at scale.

``repro.core.sweep.leaf_messages`` folds the FIFOs where a query or an
index arrives twice in closed form and passes every other FIFO through.
Its reference here is the object oracle's sequential fold on every FIFO
(``tests.pe_oracle.fold_every_fifo``).  :data:`RUNS` seeded batches and
:data:`LONG_RUNS` long-chain batches must agree with it on the leaf table,
the message order, values, ready cycles and index counts, each leaf PE's
work and the traced fold events, both as the engine builds the leaf
columns and with the index groups in a permuted arrival order.

The batches cover 1, 2 and 4 ranks per FIFO, deduplication on and off,
repeated queries, every reduction operator, and batches in which no FIFO,
every FIFO or only some FIFOs can fold.  The long-chain batches draw each
query from a pool of 2–6 indices per FIFO, so chains reach 3–6 steps and
share prefixes; without deduplication a step's first live partner is then
often another query's copy of the read, with another ready cycle.
"""

import numpy as np
import pytest

from repro.core import FafnirConfig, FafnirEngine, get_operator, plan_batch
from repro.core.pe import PEWork
from repro.core.sweep import LeafColumns
from repro.memory import MemoryConfig
from repro.obs import InMemorySink, Tracer
from tests.conftest import leaf_kind
from tests.pe_oracle import (
    fold_every_fifo, fold_rows, id_columns, id_tuples, leaf_boundary, leaf_inputs,
    leaf_rows,
)

RUNS = 1200
LONG_RUNS = 600
CHUNKS = 12
ELEMENTS = 4
KINDS = ("fold-free", "folding", "mixed")  # see tests.conftest.leaf_kind


def index_only_folds(leaf):
    """FIFOs that fold only because an index arrives twice (the dedup-off
    ablation's redundant reads), no query arriving twice."""
    by_query, by_index, seen = set(), set(), set()
    for index, fifo, ids in zip(leaf.index.tolist(), leaf.fifo.tolist(), id_tuples(leaf)):
        if (fifo, "index", index) in seen:
            by_index.add(fifo)
        seen.add((fifo, "index", index))
        for query in ids:
            if (fifo, "query", query) in seen:
                by_query.add(fifo)
            seen.add((fifo, "query", query))
    return by_index - by_query


def source(index):
    return np.random.default_rng(60_000 + index).normal(size=ELEMENTS)


class Machine:
    """A tree with ``per_fifo`` ranks on each leaf FIFO."""

    def __init__(self, rng, per_fifo):
        self.per_fifo = per_fifo
        self.leaves = int(rng.choice([1, 2, 4, 8]))
        self.ranks = self.leaves * 2 * per_fifo
        self.fifos = 2 * self.leaves
        self.rows = 40

    def index(self, rng, fifo, row=None):
        """An index homed on a random rank of ``fifo`` (ranks interleave
        under the default placement: index ``i`` lives on rank ``i % ranks``)."""
        rank = fifo * self.per_fifo + int(rng.integers(self.per_fifo))
        row = int(rng.integers(self.rows)) if row is None else row
        return rank + self.ranks * row

    def spread_query(self, rng, fifos, used_rows=None):
        """One query with at most one index per FIFO, over ``fifos``."""
        width = int(rng.integers(1, min(len(fifos), 6) + 1))
        chosen = rng.choice(fifos, size=width, replace=False).tolist()
        query = []
        for fifo in chosen:
            while True:
                index = self.index(rng, fifo)
                if used_rows is None or index not in used_rows:
                    break
            if used_rows is not None:
                used_rows.add(index)
            query.append(index)
        return query

    def pair_query(self, rng, fifo):
        """A query with two indices on ``fifo``: that FIFO folds."""
        rows = rng.choice(self.rows, size=2, replace=False).tolist()
        return [self.index(rng, fifo, row) for row in rows]

    def fold_queries(self, rng, fifo, queries, deduplicate):
        """Queries that make ``fifo`` fold: a pair on it or, without
        deduplication, a second read of one of its indices by another
        query."""
        homed = sorted({i for query in queries for i in query
                        if i % self.ranks // self.per_fifo == fifo})
        if deduplicate or not homed or rng.random() < 0.5:
            return [self.pair_query(rng, fifo)]
        return [[int(rng.choice(homed))]]


def draw(seed):
    """(machine, queries, deduplicate, operator, intended kind) for one seed."""
    rng = np.random.default_rng(seed)
    per_fifo = (1, 2, 4)[seed % 3]
    kind = KINDS[(seed // 3) % 3]
    deduplicate = bool(rng.random() < 0.5)
    machine = Machine(rng, per_fifo)
    operator = get_operator(str(rng.choice(["sum", "sum", "min", "max", "mean"])))
    fifos = list(range(machine.fifos))
    count = int(rng.integers(1, 12))
    # Without deduplication a shared index or a repeated query folds.
    distinct = None if deduplicate else set()
    if kind == "fold-free":
        queries = [machine.spread_query(rng, fifos, distinct) for _ in range(count)]
        if deduplicate and rng.random() < 0.3:
            queries += queries[: int(rng.integers(1, 3))]
    elif kind == "mixed":
        folding, kept = rng.choice(fifos, size=2, replace=False).tolist()
        pool = sorted({kept, *rng.choice(fifos, size=2).tolist()} - {folding})
        queries = [machine.spread_query(rng, pool, distinct) for _ in range(count)]
        queries.append([machine.index(rng, folding),
                        *machine.spread_query(rng, [kept], distinct)])
        queries += machine.fold_queries(rng, folding, queries, deduplicate)
    else:
        queries = [machine.spread_query(rng, fifos) for _ in range(count)]
        for fifo in sorted({i % machine.ranks // per_fifo
                            for query in queries for i in query}):
            queries += machine.fold_queries(rng, fifo, queries, deduplicate)
        if rng.random() < 0.3:
            queries += queries[: int(rng.integers(1, 3))]
    return machine, queries, deduplicate, operator, kind


def long_draw(seed):
    """A long-chain batch: each query takes a random part of the index pool
    of one or more FIFOs, so chains run up to the pool's 2–6 indices and
    share prefixes."""
    rng = np.random.default_rng(seed)
    deduplicate = bool(rng.random() < 0.5)
    machine = Machine(rng, (1, 2, 4)[seed % 3])
    operator = get_operator(str(rng.choice(["sum", "sum", "min", "max", "mean"])))
    fifos = rng.choice(machine.fifos, size=min(machine.fifos, int(rng.integers(1, 4))),
                       replace=False).tolist()
    pools = {
        fifo: [machine.index(rng, fifo, row) for row in
               rng.choice(machine.rows, size=int(rng.integers(2, 7)), replace=False)]
        for fifo in fifos
    }
    queries = []
    for _ in range(int(rng.integers(2, 10))):
        query = []
        for fifo in rng.choice(fifos, size=int(rng.integers(1, len(fifos) + 1)),
                               replace=False).tolist():
            pool = pools[fifo]
            query += rng.choice(pool, size=int(rng.integers(1, len(pool) + 1)),
                                replace=False).tolist()
        queries.append(query)
    if rng.random() < 0.3:
        queries += queries[: int(rng.integers(1, 3))]
    return machine, queries, deduplicate, operator, "long"


def case_of(seed):
    return draw(seed) if seed < RUNS else long_draw(seed)


def permuted(leaf, seed):
    """``leaf`` with its index groups (all copies of one index) in a random
    arrival order."""
    starts = np.flatnonzero(np.r_[True, np.diff(leaf.index) != 0])
    bounds = np.r_[starts, len(leaf.index)]
    order = np.concatenate([
        np.arange(bounds[g], bounds[g + 1])
        for g in np.random.default_rng(seed).permutation(len(starts))
    ])
    return LeafColumns(
        index=leaf.index[order], fifo=leaf.fifo[order], ready=leaf.ready[order],
        **id_columns([id_tuples(leaf)[n] for n in order]),
        values=leaf.values[order],
        fifos=leaf.fifos,
        batch=leaf.batch[order],
    )


def longest_chain(leaf):
    """The most indices one query has on one FIFO."""
    chains = {}
    for fifo, index, ids in zip(leaf.fifo.tolist(), leaf.index.tolist(), id_tuples(leaf)):
        for query in ids:
            chains.setdefault((fifo, query), set()).add(index)
    return max(map(len, chains.values()))


def foreign_partner(engine, plan, leaf):
    """Whether some oracle fold step's partner is another query's row with
    another ready cycle than the row that loses the entry."""
    partners = []
    for stream in leaf_rows(leaf):
        fold_rows(stream, plan.distinct, PEWork(), engine.operator,
                  engine.config.latencies.reduce_path, partners=partners)
    return any(best is not owner and best.ready_cycle != owner.ready_cycle
               for best, owner in partners)


def leaf_columns(case):
    """An engine for a drawn case, its plan and its leaf columns."""
    machine, queries, deduplicate, operator, _ = case
    config = FafnirConfig(
        batch_size=len(queries),
        max_query_len=max(len(query) for query in queries),
        vector_bytes=ELEMENTS * 4,
        total_ranks=machine.ranks,
        ranks_per_leaf_pe=2 * machine.per_fifo,
        num_tables=machine.ranks,
    )
    engine = FafnirEngine(
        config=config, operator=operator,
        memory_config=MemoryConfig().scaled_to_ranks(machine.ranks),
    )
    plan = plan_batch(queries, max_query_len=config.max_query_len,
                      deduplicate=deduplicate)
    return engine, plan, leaf_inputs(engine, plan, source)


def boundary_record(boundary, engine, plan, leaf):
    sink = InMemorySink()
    messages = boundary(plan.distinct, leaf, engine.operator,
                        engine.config.latencies.reduce_path, Tracer([sink]))
    return {
        "table": messages.table.tolist(),
        "values": messages.value.tobytes(),
        "ready": messages.ready.tolist(),
        "size": messages.size.tolist(),
        "fifo": messages.fifo.tolist(),
        "work": messages.work,
        "events": sink.events,
    }


@pytest.mark.parametrize("chunk", range(CHUNKS))
def test_columnar_boundary_matches_folding_every_fifo(chunk):
    seeds = range(chunk, RUNS + LONG_RUNS, CHUNKS)
    for seed in seeds:
        engine, plan, leaf = leaf_columns(case_of(seed))
        for arrival, columns in (("engine", leaf),
                                 ("permuted", permuted(leaf, 90_000 + seed))):
            got = boundary_record(leaf_boundary, engine, plan, columns)
            want = boundary_record(fold_every_fifo, engine, plan, columns)
            assert got == want, f"seed {seed} ({arrival} order): leaf boundary diverged"


def test_draws_cover_every_class():
    """Each seed draws the batch kind it aims for, and the draws reach
    every axis the boundary must get right."""
    seen, kinds = set(), dict.fromkeys(KINDS, 0)
    foreign = 0
    for seed in range(RUNS + LONG_RUNS):
        case = case_of(seed)
        machine, queries, deduplicate, operator, kind = case
        engine, plan, leaf = leaf_columns(case)
        if kind == "long":
            seen.add(("chain", deduplicate, min(longest_chain(leaf), 6)))
            foreign += foreign_partner(engine, plan, leaf)
            continue
        assert leaf_kind(leaf) == kind, f"seed {seed} drew a {leaf_kind(leaf)} batch"
        kinds[kind] += 1
        seen.add(("per_fifo", machine.per_fifo))
        seen.add(("dedup", deduplicate))
        seen.add(("operator", operator.name))
        if len({frozenset(query) for query in queries}) < len(queries):
            seen.add(("repeated", deduplicate))
        if index_only_folds(leaf):
            seen.add("index-only")
    assert min(kinds.values()) >= 100, kinds
    assert {("per_fifo", 1), ("per_fifo", 2), ("per_fifo", 4)} <= seen
    assert {("dedup", True), ("dedup", False)} <= seen
    assert {("repeated", True), ("repeated", False)} <= seen
    assert {("operator", name) for name in ("sum", "min", "max", "mean")} <= seen
    assert "index-only" in seen
    assert {("chain", dedup, steps) for dedup in (True, False)
            for steps in range(3, 7)} <= seen
    assert foreign >= 50, foreign
