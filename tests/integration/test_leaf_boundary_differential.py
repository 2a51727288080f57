"""The columnar leaf boundary against folding every FIFO, at scale.

``repro.core.sweep.leaf_messages`` sends only the FIFOs where a query or
an index arrives twice through ``fold_stream`` and passes every other FIFO
through in closed form.  Its reference here folds every FIFO through
``fold_stream`` and numbers the messages FIFO-major in folded order.
:data:`RUNS` seeded batches must agree with it on the leaf table, the
message order, values, ready cycles and index counts, each leaf PE's work
and the traced fold events.  The batches cover 1, 2 and 4 ranks per FIFO,
deduplication on and off, repeated queries, every reduction operator, and
batches in which no FIFO, every FIFO or only some FIFOs can fold.
"""

import numpy as np
import pytest

from repro.core import FafnirConfig, FafnirEngine, get_operator, plan_batch
from repro.core.pe import PEWork, fold_stream
from repro.core.sweep import LeafMessages, leaf_messages
from repro.memory import MemoryConfig
from repro.obs import InMemorySink, Tracer
from tests.conftest import leaf_kind

RUNS = 1200
CHUNKS = 12
ELEMENTS = 4
KINDS = ("fold-free", "folding", "mixed")  # see tests.conftest.leaf_kind


def index_only_folds(leaf):
    """FIFOs that fold only because an index arrives twice (the dedup-off
    ablation's redundant reads), no query arriving twice."""
    by_query, by_index, seen = set(), set(), set()
    for index, fifo, ids in zip(leaf.index.tolist(), leaf.fifo.tolist(), leaf.ids):
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


def reference_boundary(queries, leaf, operator, reduce_path, tracer):
    """Every FIFO through ``fold_stream``; messages FIFO-major."""
    work = [PEWork() for _ in range(leaf.fifos // 2)]
    cells, messages = [], []
    for fifo, stream in enumerate(leaf.rows()):
        if not stream:
            continue
        folded = fold_stream(stream, queries, work[fifo >> 1], operator,
                             reduce_path, tracer, fifo >> 1, 0)
        for indices, ids, value, ready in folded:
            cells += [(query, fifo, len(messages)) for query in ids]
            messages.append((len(indices), fifo, value, ready))
    table = np.full((len(queries), leaf.fifos), -1, np.int64)
    rows, columns, ids = np.array(cells, np.int64).T
    table[rows, columns] = ids
    size, fifo, value, ready = zip(*messages)
    return LeafMessages(table, np.stack(value), np.array(ready, np.int64),
                        np.array(size, np.int64), np.array(fifo, np.int64), work)


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
    finish, _, _ = engine._fetch_from_memory(plan.reads)
    values = {index: source(index) for index in plan.unique_indices}
    return engine, plan, engine._leaf_inputs(plan, finish, values)


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
    per_chunk = RUNS // CHUNKS
    for seed in range(chunk * per_chunk, (chunk + 1) * per_chunk):
        engine, plan, leaf = leaf_columns(draw(seed))
        got = boundary_record(leaf_messages, engine, plan, leaf)
        want = boundary_record(reference_boundary, engine, plan, leaf)
        assert got == want, f"seed {seed}: leaf boundary diverged"


def test_draws_cover_every_class():
    """Each seed draws the batch kind it aims for, and the draws reach
    every axis the boundary must get right."""
    seen, kinds = set(), dict.fromkeys(KINDS, 0)
    for seed in range(RUNS):
        case = draw(seed)
        machine, queries, deduplicate, operator, kind = case
        _, _, leaf = leaf_columns(case)
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
