"""Differential proof that the tree sweep and its leaf fold match the oracle.

The object PE model in ``tests/pe_oracle.py`` is the executable
specification; the engine's closed-form sweep (``repro.core.sweep``), its
leaf boundary (``leaf_messages``) included, must reproduce it *byte for
byte* — same output values, same ready cycles, same :class:`PEWork`
counters (and, for the fold, the same messages carrying the same queries
in the same order).  The shared ``on_pe_paths`` fixture runs each thunk on
both and compares everything exactly, over randomized PE inputs, fold
streams and whole-engine runs.

Hand-built inputs are written as the oracle's messages.  A leaf FIFO's
stream of single-index messages is handed to the leaf boundary as leaf
columns (:func:`leaf_columns_of`), its queries numbered in
first-appearance order; a PE's two inputs arrive as leaf columns of
stand-in reads (:func:`process_on_paths`).  A stream the engine cannot
build, with a multi-index message, goes to the oracle's fold alone.
"""

import numpy as np
import pytest

from repro.core import (
    FafnirConfig,
    FafnirEngine,
    SUM,
    ShardedRunner,
    get_operator,
    plan_batch,
)
from repro.core.pe import PEWork
from repro.core.sweep import LeafColumns
from repro.faults import FaultPlan, FaultPolicy, STATUS_DEGRADED, STATUS_OK
from repro.memory import MemoryConfig
from repro.obs import InMemorySink, Tracer
from repro.workloads import EmbeddingTableSet, QueryGenerator
from tests import pe_oracle
from tests.conftest import leaf_outputs
from tests.pe_oracle import Header, Message, ProcessingElement, to_rows

REDUCE_PATH = FafnirConfig().latencies.reduce_path


def queries_of(messages):
    """The queries a hand-built stream serves, in first-appearance order."""
    return tuple(
        dict.fromkeys(m.indices | entry for m in messages for entry in m.entries)
    )


def leaf_columns_of(stream):
    """A leaf FIFO's stream of single-index messages as the leaf columns of
    FIFO 0 of a one-leaf tree, and the queries it serves."""
    queries = queries_of(stream)
    rows = to_rows(stream, queries)
    columns = LeafColumns(
        index=np.array([min(indices) for indices, *_ in rows], np.int64),
        fifo=np.zeros(len(rows), np.int64),
        ready=np.array([ready for *_, ready in rows], np.int64),
        **pe_oracle.id_columns([ids for _, ids, _, _ in rows]),
        values=np.array([value for _, _, value, _ in rows]),
        fifos=2,
        batch=np.zeros(len(rows), np.int64),
    )
    return columns, rows, queries


def row_fingerprint(row, queries):
    """A folded row as (indices, entries in id order, value bytes, ready)."""
    indices, ids, value, ready = row
    return (
        indices,
        tuple(queries[q] - indices for q in ids),
        value.tobytes(),
        ready,
    )


def output_with(outputs, indices):
    (match,) = [m for m in outputs if m[0] == frozenset(indices)]
    return match


def random_queries(rng, count, universe, max_len=4):
    """Distinct random queries, in a canonical order."""
    queries = {
        frozenset(
            int(i)
            for i in rng.choice(
                universe, size=int(rng.integers(1, max_len + 1)), replace=False
            )
        )
        for _ in range(count)
    }
    return sorted(queries, key=sorted)


def pe_inputs(rng, queries, max_ready=50, elements=8):
    """Engine-shaped inputs of one PE: A holds the even indices, B the odd.

    Each input carries one message per distinct projection of the queries
    onto its indices, the shape every child of a real tree hands on.
    """
    inputs = []
    for parity in (0, 1):
        entries_of = {}
        for query in queries:
            projection = frozenset(i for i in query if i % 2 == parity)
            if projection:
                entries_of.setdefault(projection, []).append(query - projection)
        inputs.append(
            [
                Message(
                    Header.make(projection, entries),
                    rng.normal(size=elements),
                    ready_cycle=int(rng.integers(0, max_ready)),
                )
                for projection, entries in sorted(
                    entries_of.items(), key=lambda item: sorted(item[0])
                )
            ]
        )
    return inputs


def fifo_stream(rng, queries, deduplicate=True, elements=8):
    """An engine-shaped leaf FIFO holding the even indices, in random order.

    As in ``FafnirEngine._leaf_columns``, every read index arrives as one
    single-index message carrying the remainder of each query it serves;
    without deduplication each occurrence arrives on its own.
    """
    homed = sorted({i for query in queries for i in query if i % 2 == 0})
    stream = []
    for index in rng.permutation(homed).tolist():
        remainders = [query - {index} for query in queries if index in query]
        arrivals = [remainders] if deduplicate else [[r] for r in remainders]
        value = rng.normal(size=elements)
        for entries in arrivals:
            stream.append(
                Message(
                    Header.make({index}, entries),
                    value,
                    ready_cycle=int(rng.integers(0, 50)),
                )
            )
    return stream


def process_on_paths(on_pe_paths, a, b, operator=SUM):
    """One PE's ``(a, b)`` through both paths; the fixture asserts they agree.

    A two-rank machine has a single leaf PE, which is also the root, so the
    tree stage is exactly that PE's leaf fold and ``process``.  Leaf FIFOs
    carry single-index reads, so message ``n`` of side ``s`` arrives as one
    read of the stand-in index ``2n + s`` (homed on rank ``s``) and each
    query as the stand-ins of the messages carrying it: the PE sees the same
    messages, values and ready cycles, and the leaf fold is an identity.
    Returns each query's value bytes and ready cycle, and the PE's work.
    """
    queries = sorted(
        {m.indices | entry for m in [*a, *b] for entry in m.entries}, key=sorted
    )
    stand_ins = {query: set() for query in queries}
    for side, messages in enumerate((a, b)):
        for n, message in enumerate(messages):
            for entry in message.entries:
                stand_ins[message.indices | entry].add(2 * n + side)
    config = FafnirConfig(batch_size=64, total_ranks=2, ranks_per_leaf_pe=2)
    plan = plan_batch([stand_ins[query] for query in queries])
    query_id = {query: n for n, query in enumerate(queries)}
    reads = [(2 * n + side, side, message)
             for side, messages in enumerate((a, b))
             for n, message in enumerate(messages)]
    columns = LeafColumns(
        index=np.array([index for index, _, _ in reads], np.int64),
        fifo=np.array([side for _, side, _ in reads], np.int64),
        ready=np.array([m.ready_cycle for _, _, m in reads], np.int64),
        **pe_oracle.id_columns([[query_id[m.indices | entry] for entry in m.entries]
                                for _, _, m in reads]),
        values=np.array([m.value for _, _, m in reads]),
        fifos=2,
        batch=np.zeros(len(reads), np.int64),
    )

    def run():
        engine = FafnirEngine(
            config=config,
            operator=operator,
            memory_config=MemoryConfig().scaled_to_ranks(2),
        )
        ((values, ready, work),) = engine._run_trees([plan], columns, [engine.tracer])
        return [value.tobytes() for value in values], ready, work

    return on_pe_paths(run)


def fold_on_paths(on_pe_paths, stream):
    """A leaf FIFO's ``stream`` through the leaf boundary on both paths; the
    fixture asserts they agree on the folded rows, the work and the traced
    events in order.  Returns the rows' fingerprints and the work."""
    columns, rows, queries = leaf_columns_of(stream)

    def run():
        sink = InMemorySink()
        messages = pe_oracle.leaf_boundary(queries, columns, SUM, REDUCE_PATH,
                                           Tracer([sink]))
        outputs = leaf_outputs(messages, 0, rows, queries)
        return ([row_fingerprint(row, queries) for row in outputs],
                messages.work[0], sink.events)

    outputs, work, _ = on_pe_paths(run)
    return outputs, work


class TestProcessEquivalence:
    @pytest.mark.parametrize("seed", range(12))
    def test_random_populations(self, seed, on_pe_paths):
        rng = np.random.default_rng(seed)
        universe = int(rng.integers(6, 40))
        queries = random_queries(rng, int(rng.integers(1, 12)), universe)
        process_on_paths(on_pe_paths, *pe_inputs(rng, queries))

    @pytest.mark.parametrize("seed", range(6))
    def test_dense_overlap_many_ties(self, seed, on_pe_paths):
        """A tiny universe and few ready cycles maximise shared projections
        and ready-cycle ties."""
        rng = np.random.default_rng(1000 + seed)
        queries = random_queries(rng, 10, universe=5, max_len=3)
        process_on_paths(on_pe_paths, *pe_inputs(rng, queries, max_ready=3))

    def test_empty_partner_side(self, on_pe_paths):
        rng = np.random.default_rng(3)
        evens = [frozenset(2 * i for i in q) for q in random_queries(rng, 6, 12)]
        a, b = pe_inputs(rng, evens)
        assert b == []
        process_on_paths(on_pe_paths, a, b)

    def test_complete_entries_forward(self, on_pe_paths):
        value = np.arange(4.0)
        done = Message(Header.make({2, 4}, [set()]), value)
        partial = Message(Header.make({4}, [{9}]), value * 2)
        other = Message(Header.make({9}, [{4}]), value * 3)
        values, _, work = process_on_paths(on_pe_paths, [done, partial], [other])
        assert work[0].forwards == 1 and work[0].reduces == 2
        assert values == [value.tobytes(), (value * 5).tobytes()]

    @pytest.mark.parametrize("name", ["sum", "min", "max"])
    def test_operators(self, name, on_pe_paths):
        rng = np.random.default_rng(17)
        queries = random_queries(rng, 8, universe=16)
        process_on_paths(on_pe_paths, *pe_inputs(rng, queries), get_operator(name))


class TestFoldEquivalence:
    @pytest.mark.parametrize("seed", range(8))
    def test_random_streams(self, seed, on_pe_paths):
        rng = np.random.default_rng(2000 + seed)
        queries = random_queries(rng, int(rng.integers(2, 10)),
                                 universe=int(rng.integers(4, 16)))
        stream = fifo_stream(rng, queries, deduplicate=seed % 2 == 0)
        fold_on_paths(on_pe_paths, stream)

    def test_chained_reduction_within_one_fifo(self, on_pe_paths):
        """Co-located indices that must fold 0⊕1⊕2 inside one stream."""
        value = np.ones(4)
        stream = [
            Message(Header.make({0}, [{1, 2}]), value * 1),
            Message(Header.make({1}, [{0, 2}]), value * 2),
            Message(Header.make({2}, [{0, 1}]), value * 4),
        ]
        fold_on_paths(on_pe_paths, stream)


class TestEngineEquivalence:
    def run_on_paths(self, on_pe_paths, queries, operator=SUM,
                     deduplicate=True, ranks=8):
        """One batch on both paths: vectors, latency and ``PEWork`` agree."""
        store = {}

        def source(index):
            if index not in store:
                store[index] = np.random.default_rng(
                    50_000 + index
                ).normal(size=16)
            return store[index]

        config = FafnirConfig(
            batch_size=max(len(queries), 1),
            max_query_len=max(len(q) for q in queries),
            vector_bytes=16 * 4,
            total_ranks=ranks,
            ranks_per_leaf_pe=2,
            num_tables=ranks,
        )
        memory = MemoryConfig().scaled_to_ranks(ranks)

        def run():
            engine = FafnirEngine(
                config=config, operator=operator, memory_config=memory
            )
            result = engine.run_batch(queries, source, deduplicate=deduplicate)
            return (
                [vector.tobytes() for vector in result.vectors],
                result.stats.latency_pe_cycles,
                result.stats.per_pe_work,
            )

        return on_pe_paths(run)

    @pytest.mark.parametrize("seed", range(5))
    @pytest.mark.parametrize("deduplicate", [True, False])
    def test_random_batches(self, seed, deduplicate, on_pe_paths):
        rng = np.random.default_rng(3000 + seed)
        queries = [
            rng.choice(64, size=int(rng.integers(1, 9)),
                       replace=False).tolist()
            for _ in range(int(rng.integers(2, 17)))
        ]
        self.run_on_paths(on_pe_paths, queries, deduplicate=deduplicate)

    def test_same_rank_collisions(self, on_pe_paths):
        """Queries whose indices share a home rank exercise the fold path."""
        ranks = 8
        # index % ranks is the home rank under the default placement, so
        # each query's indices are deliberately congruent mod ranks.
        queries = [[3, 3 + ranks, 3 + 2 * ranks], [5, 5 + ranks], [1, 9, 17]]
        self.run_on_paths(on_pe_paths, queries, ranks=ranks)

    @pytest.mark.parametrize("name", ["min", "mean"])
    def test_other_operators(self, name, on_pe_paths):
        rng = np.random.default_rng(9)
        queries = [
            rng.choice(48, size=6, replace=False).tolist() for _ in range(8)
        ]
        self.run_on_paths(on_pe_paths, queries, operator=get_operator(name))


def _oracle_source(index):
    return np.random.default_rng(70_000 + index).normal(size=16)


class TestFoldConsumption:
    """A leaf-fold reduction consumes the query it serves (paper §IV-B)."""

    def test_co_located_pair_leaves_no_stale_rows(self, on_pe_paths):
        value = np.ones(4)
        stream = [
            Message(Header.make({1}, [{2, 3}, {8}]), value),  # {1,2,3}, {1,8}
            Message(Header.make({2}, [{1, 3}]), value * 2),
        ]
        outputs, work = fold_on_paths(on_pe_paths, stream)
        carried = {(m[0], m[1]) for m in outputs}
        assert carried == {
            (frozenset({1}), (frozenset({8}),)),
            (frozenset({1, 2}), (frozenset({3}),)),
        }
        assert work.reduces == 1
        assert work.entries_consumed == 2

    def test_row_serving_another_query_survives(self, on_pe_paths):
        value = np.ones(4)
        stream = [
            Message(Header.make({1}, [{2}, {7}]), value),  # {1,2} and {1,7}
            Message(Header.make({2}, [{1}]), value * 2),
        ]
        outputs, work = fold_on_paths(on_pe_paths, stream)
        assert output_with(outputs, {1})[1] == (frozenset({7}),)
        assert output_with(outputs, {1, 2})[1] == (frozenset(),)
        assert len(outputs) == 2
        assert work.entries_consumed == 2

    def test_repeated_copies_of_one_query_fold_once(self, on_pe_paths):
        """Without deduplication two identical queries {3, 11} stream two
        copies of each read; the second copy of an entry is a duplicate."""
        value = np.ones(4)
        copy_3 = Message(Header.make({3}, [{11}]), value)
        copy_11 = Message(Header.make({11}, [{3}]), value * 2)
        stream = [copy_3, copy_3, copy_11, copy_11]
        outputs, work = fold_on_paths(on_pe_paths, stream)
        assert [(m[0], m[1]) for m in outputs] == [
            (frozenset({3, 11}), (frozenset(),))
        ]
        assert work.reduces == 1
        assert work.entries_consumed == 2
        assert work.duplicates_removed == 2

    def run_batch(self, on_pe_paths, queries, deduplicate, ranks=8):
        config = FafnirConfig(
            batch_size=len(queries),
            max_query_len=max(len(q) for q in queries),
            vector_bytes=16 * 4,
            total_ranks=ranks,
            num_tables=ranks,
        )

        def run():
            engine = FafnirEngine(
                config=config, memory_config=MemoryConfig().scaled_to_ranks(ranks)
            )
            result = engine.run_batch(queries, _oracle_source, deduplicate)
            return [v.tobytes() for v in result.vectors], result.ready_pe_cycles

        vectors, ready = on_pe_paths(run)
        for query, vector in zip(queries, vectors):
            expected = sum(_oracle_source(i) for i in set(query))
            assert np.allclose(np.frombuffer(vector), expected)
        return ready

    def test_undeduplicated_co_located_batch_matches_oracle(self, on_pe_paths):
        # index % 8 is the home rank, so each query stacks several indices on
        # one rank; the repeated query makes duplicate read occurrences.
        queries = [[3, 11, 19, 5], [3, 11, 19, 5], [11, 19, 27], [1, 9, 17, 25, 33]]
        self.run_batch(on_pe_paths, queries, deduplicate=False)

    # Per-query ready cycles of this batch before the fold consumed entries.
    STALE_READY = {
        True: [207, 156, 212, 202, 221, 196, 207, 207, 203, 273, 234, 231,
               203, 223, 188, 194, 248, 178, 217, 267, 243, 234, 197, 194,
               207, 156, 212, 202, 221, 196, 207, 207],
        False: [201, 177, 195, 187, 202, 209, 193, 219, 222, 281, 246, 234,
                228, 241, 214, 248, 288, 223, 258, 321, 274, 299, 275, 253,
                201, 177, 195, 187, 202, 209, 193, 219],
    }

    @pytest.mark.parametrize("deduplicate", [True, False])
    def test_no_query_ready_later_than_with_stale_entries(
        self, deduplicate, on_pe_paths
    ):
        """Consuming entries removes only stale rows, which could only delay
        a merged message or hold an issue slot, and a repeated query's
        duplicate reads no longer join its answer: no query gets later."""
        rng = np.random.default_rng(0)
        queries = [
            rng.choice(256, size=16, replace=False).tolist() for _ in range(24)
        ]
        queries += queries[:8]
        ready = self.run_batch(on_pe_paths, queries, deduplicate)
        stale = self.STALE_READY[deduplicate]
        assert all(now <= before for now, before in zip(ready, stale))
        assert sum(ready) < sum(stale)


class TestPELawChecks:
    """Seeded breaks: ``on_pe_paths`` rejects a stale entry on an engine PE."""

    def engine_pe(self):
        config = FafnirConfig(batch_size=64, total_ranks=8, ranks_per_leaf_pe=2)
        return ProcessingElement(config, SUM, pe_id=0, level=0)

    # {1, 2} already folded query {1, 2, 3}, yet {1} still carries it.
    STALE = [
        Message(Header.make({1}, [{2, 3}]), np.ones(4)),
        Message(Header.make({1, 2}, [{3}]), np.ones(4) * 3),
    ]

    def test_fold_check_catches_a_stale_stream(self, on_pe_paths):
        """The leaf columns cannot carry a multi-index row: the stream goes
        to the oracle's fold, which the fixture checks on both paths."""
        queries = queries_of(self.STALE)
        rows = to_rows(self.STALE, queries)
        with pytest.raises(AssertionError, match=r"fold carries \[1\] -> \[2, 3\]"):
            on_pe_paths(lambda: pe_oracle.fold_rows(
                rows, queries, PEWork(), SUM, REDUCE_PATH, pe_id=0, level=0))

    def test_process_check_catches_a_stale_input(self, on_pe_paths):
        pe = self.engine_pe()
        partner = [Message(Header.make({3}, [{1, 2}]), np.ones(4) * 4)]
        with pytest.raises(AssertionError, match="rides on both"):
            on_pe_paths(lambda: pe.process(self.STALE, partner))


def _invariant_source(index):
    """Module-level (picklable) vector store for the sharded run."""
    return np.random.default_rng(60_000 + index).normal(size=16)


class TestLookupInvariant:
    """Engine runs whose leaf FIFOs fold give each query its oracle value."""

    RANKS = 8

    def config(self, queries):
        return FafnirConfig(
            batch_size=len(queries),
            max_query_len=max(len(q) for q in queries),
            vector_bytes=16 * 4,
            total_ranks=self.RANKS,
            ranks_per_leaf_pe=2,
            num_tables=self.RANKS,
        )

    def run(self, queries, deduplicate=True, **engine_kwargs):
        engine = FafnirEngine(
            config=self.config(queries),
            memory_config=MemoryConfig().scaled_to_ranks(self.RANKS),
            **engine_kwargs,
        )
        result = engine.run_batch(queries, _invariant_source, deduplicate)
        for query, vector, status in zip(
            queries, result.vectors, result.query_statuses
        ):
            if status == STATUS_OK:
                expected = sum(_invariant_source(i) for i in set(query))
                assert np.allclose(vector, expected)
        return result

    def uniform_batch(self, seed, size=24, width=12):
        rng = np.random.default_rng(seed)
        return [
            rng.choice(96, size=int(rng.integers(1, width + 1)),
                       replace=False).tolist()
            for _ in range(size)
        ]

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("deduplicate", [True, False])
    def test_uniform_batches(self, seed, deduplicate):
        self.run(self.uniform_batch(seed), deduplicate=deduplicate)

    def test_paper_calibrated_zipf_batches(self):
        tables = EmbeddingTableSet(num_tables=self.RANKS, rows_per_table=4096)
        generator = QueryGenerator.paper_calibrated(tables, seed=5, query_len=6)
        for _ in range(3):
            self.run(generator.batch(32))

    def test_degraded_run_drops_indices(self):
        result = self.run(
            self.uniform_batch(12),
            faults=FaultPlan(seed=0, rank_timeout_probability={0: 1.0}),
            fault_policy=FaultPolicy.graceful(max_read_retries=0),
        )
        assert result.dropped_indices
        assert STATUS_DEGRADED in result.query_statuses

    def test_sharded_run_reduced(self):
        batches = [self.uniform_batch(seed, size=8) for seed in (20, 21, 22)]
        runner = ShardedRunner(
            config=self.config(batches[0]),
            max_workers=1,
            reduction="gather",
            num_shards=4,
        )
        reduced = runner.run_reduced(batches, _invariant_source)
        assert len(reduced.active_pieces) == 4
