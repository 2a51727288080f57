"""Engine integration tests, including the paper's Fig. 6 walk-through."""

import numpy as np
import pytest

from repro.core import FafnirConfig, FafnirEngine, SUM, get_operator
from repro.memory import MemoryConfig


def make_source(seed=0, elements=128):
    rng = np.random.default_rng(seed)
    store = {}

    def source(index):
        if index not in store:
            store[index] = rng.normal(size=elements)
        return store[index]

    return source


def oracle(source, queries, operator=SUM):
    return [
        operator.reduce_many([source(i) for i in sorted(set(q))]) for q in queries
    ]


# Paper Fig. 6 relabelled: paper index "XY" = row X of table Y; we encode the
# global id as  table + 8*row  so that id mod 8 == table == home rank.
def paper_id(label):
    row, table = divmod(label, 10)
    return table + 8 * row


PAPER_QUERIES_LABELS = [
    [11, 32, 83, 77],   # query a
    [50, 83, 94],       # query b
    [50, 11, 94, 26],   # query c
    [32, 83, 26],       # query d
]
PAPER_QUERIES = [[paper_id(x) for x in q] for q in PAPER_QUERIES_LABELS]


@pytest.fixture
def fig6_engine():
    config = FafnirConfig(
        batch_size=4,
        max_query_len=4,
        total_ranks=8,
        ranks_per_leaf_pe=2,
        num_tables=8,
    )
    memory = MemoryConfig().scaled_to_ranks(8)
    return FafnirEngine(config=config, memory_config=memory)


class TestFig6WalkThrough:
    def test_indices_land_on_their_tables_ranks(self, fig6_engine):
        for label in (50, 11, 32, 83, 94, 26, 77):
            rank = fig6_engine.placement.home_rank(paper_id(label))
            assert rank == label % 10

    def test_all_four_queries_complete_and_match_oracle(self, fig6_engine):
        source = make_source()
        result = fig6_engine.run_batch(PAPER_QUERIES, source)
        expected = oracle(source, PAPER_QUERIES)
        for produced, want in zip(result.vectors, expected):
            assert np.allclose(produced, want)

    def test_only_seven_unique_vectors_read(self, fig6_engine):
        source = make_source()
        result = fig6_engine.run_batch(PAPER_QUERIES, source)
        assert result.stats.unique_reads == 7
        assert result.stats.total_lookups == 14
        assert result.stats.memory.reads == 7
        assert result.stats.accesses_saved == 7

    def test_pe01_emits_three_merged_outputs(self, fig6_engine):
        """Fig. 6c: PE (01) produces three unique outputs after merging."""
        source = make_source()
        result = fig6_engine.run_batch(PAPER_QUERIES, source)
        # Leaf PE 0 covers ranks (0, 1) = paper PE (01).
        assert result.stats.per_pe_work[0].outputs == 3

    def test_pe23_emits_two_merged_outputs(self, fig6_engine):
        """Fig. 6d: PE (2|3)'s five raw outputs merge into two items."""
        source = make_source()
        result = fig6_engine.run_batch(PAPER_QUERIES, source)
        work = result.stats.per_pe_work[1]  # leaf PE 1 covers ranks (2, 3)
        assert work.outputs == 2
        assert work.reduces == 4
        assert work.forwards == 1

    def test_pe45_forward_only(self, fig6_engine):
        """Rank 5 holds no requested vector: PE (4|5) only forwards."""
        source = make_source()
        result = fig6_engine.run_batch(PAPER_QUERIES, source)
        work = result.stats.per_pe_work[2]  # leaf PE 2 covers ranks (4, 5)
        assert work.reduces == 0
        assert work.forwards >= 1

    def test_data_movement_is_outputs_only(self, fig6_engine):
        source = make_source()
        result = fig6_engine.run_batch(PAPER_QUERIES, source)
        assert result.stats.output_bytes == 4 * 512
        assert result.stats.naive_movement_bytes == 14 * 512
        assert result.stats.movement_reduction_factor == pytest.approx(14 / 4)


class TestEngineGeneral:
    def test_default_engine_matches_oracle_random_batch(self):
        engine = FafnirEngine()
        source = make_source(seed=5)
        rng = np.random.default_rng(11)
        queries = [list(rng.choice(4096, size=16, replace=False)) for _ in range(32)]
        result = engine.run_batch(queries, source)
        for produced, want in zip(result.vectors, oracle(source, queries)):
            assert np.allclose(produced, want)

    def test_min_operator_end_to_end(self):
        operator = get_operator("min")
        engine = FafnirEngine(operator=operator)
        source = make_source(seed=6)
        queries = [[1, 33, 65], [2, 33]]
        result = engine.run_batch(queries, source)
        for produced, want in zip(result.vectors, oracle(source, queries, operator)):
            assert np.allclose(produced, want)

    def test_mean_operator_divides_by_query_length(self):
        operator = get_operator("mean")
        engine = FafnirEngine(operator=operator)
        source = make_source(seed=7)
        queries = [[10, 43, 76, 109]]
        result = engine.run_batch(queries, source)
        want = np.mean([source(i) for i in queries[0]], axis=0)
        assert np.allclose(result.vectors[0], want)

    def test_same_rank_collision_query_completes(self):
        """Two indices homed in the same rank still complete (FIFO fold)."""
        engine = FafnirEngine()
        source = make_source(seed=8)
        # Indices 0 and 32 both live in rank 0 of the 32-rank system.
        queries = [[0, 32, 5]]
        result = engine.run_batch(queries, source)
        assert np.allclose(result.vectors[0], oracle(source, queries)[0])

    def test_single_index_query(self):
        engine = FafnirEngine()
        source = make_source(seed=9)
        result = engine.run_batch([[17]], source)
        assert np.allclose(result.vectors[0], source(17))

    def test_duplicate_queries_each_get_output(self):
        engine = FafnirEngine()
        source = make_source(seed=10)
        result = engine.run_batch([[3, 70], [3, 70]], source)
        assert len(result.vectors) == 2
        assert np.allclose(result.vectors[0], result.vectors[1])

    def test_pool_reused_across_batches_leaves_results_alone(self):
        """The engine's value pool outlives each batch: later batches,
        bigger or smaller, neither change an earlier batch's vectors nor
        differ from a fresh engine's."""
        rng = np.random.default_rng(15)
        batches = [
            [list(rng.choice(4096, size=length, replace=False)) for _ in range(count)]
            for count, length in ((32, 16), (4, 3), (32, 16), (8, 16))
        ]
        engine, source = FafnirEngine(), make_source(seed=16)
        results = [engine.run_batch(queries, source) for queries in batches]
        kept = [[vector.copy() for vector in result.vectors] for result in results]
        engine.run_batch(batches[0], source)
        for queries, result, copies in zip(batches, results, kept):
            fresh = FafnirEngine().run_batch(queries, source)
            for vector, copy, want in zip(result.vectors, copies, fresh.vectors):
                assert vector.tobytes() == copy.tobytes() == want.tobytes()

    def test_oversized_batch_rejected(self):
        engine = FafnirEngine(FafnirConfig(batch_size=2))
        source = make_source()
        with pytest.raises(ValueError, match="exceeds configured batch size"):
            engine.run_batch([[1], [2], [3]], source)

    def test_wrong_vector_shape_rejected(self):
        engine = FafnirEngine()
        with pytest.raises(ValueError, match="expected"):
            engine.run_batch([[1]], lambda i: np.zeros(4))

    def test_mismatched_memory_geometry_rejected(self):
        with pytest.raises(ValueError, match="does not match"):
            FafnirEngine(
                config=FafnirConfig(total_ranks=8),
                memory_config=MemoryConfig(),
            )

    def test_dedup_reduces_memory_reads(self):
        engine = FafnirEngine()
        source = make_source(seed=12)
        rng = np.random.default_rng(13)
        queries = [list(rng.choice(64, size=16, replace=False)) for _ in range(32)]
        with_dedup = engine.run_batch(queries, source, deduplicate=True)
        without = engine.run_batch(queries, source, deduplicate=False)
        assert with_dedup.stats.memory.reads < without.stats.memory.reads
        assert without.stats.memory.reads == with_dedup.stats.total_lookups
        # Results identical either way.
        for a, b in zip(with_dedup.vectors, without.vectors):
            assert np.allclose(a, b)

    def test_latency_exceeds_memory_latency(self):
        engine = FafnirEngine()
        source = make_source(seed=14)
        result = engine.run_batch([[1, 2, 3, 4]], source)
        assert result.stats.latency_pe_cycles > 0
        assert (
            result.stats.latency_pe_cycles
            >= result.stats.memory_latency_pe_cycles
        )
        assert result.stats.compute_latency_pe_cycles >= 0

    def test_latency_ns_conversion(self):
        engine = FafnirEngine()
        source = make_source(seed=15)
        result = engine.run_batch([[1, 2]], source)
        ns = result.stats.latency_ns(engine.config)
        assert ns == pytest.approx(result.stats.latency_pe_cycles * 5.0)
