"""Interactive mode's closed form against the per-PE walk, at scale.

:data:`QUERIES` seeded single-query lookups, each drawn across the axes the
closed form has to survive: 2–64 ranks with 1, 2 or 4 ranks per leaf PE,
every reduction operator, 1..``max_query_len`` indices (repeats and
same-rank indices included), 8- and 128-element vectors, and the
two-piece ``_SplitPlacement`` whose first-listed piece lands last.  Each
query runs through ``InteractiveEngine.lookup_one`` and through
``tests/interactive_oracle.py`` on a second engine of the same shape; the
vector bytes, ``latency_pe_cycles``, ``memory_latency_pe_cycles`` and
``AccessStats`` must be equal.
"""

import numpy as np
import pytest

from repro.core import FafnirConfig, InteractiveEngine, get_operator
from tests import interactive_oracle
from tests.core.test_interactive import _SplitPlacement

QUERIES = 1200
CHUNKS = 12
OPERATORS = ("sum", "min", "max", "mean")


def source(index):
    rng = np.random.default_rng(70_000 + index)
    # Mixed magnitudes make every change of association show in the bytes.
    return rng.normal(size=128) * 10.0 ** int(rng.integers(-3, 4))


def random_case(seed):
    """One machine and query: (shape key, query)."""
    rng = np.random.default_rng(seed)
    ranks = int(rng.choice([2, 4, 8, 16, 32, 64]))
    per_leaf = int(rng.choice([1, 2, 4]))
    if ranks % per_leaf:
        per_leaf = 1  # only divisors of ranks; a non-divisor draw builds 1
    elements = int(rng.choice([8, 128]))
    operator = str(rng.choice(OPERATORS))
    split = bool(rng.random() < 0.25)
    config = FafnirConfig().with_ranks(ranks, per_leaf)
    length = int(rng.integers(1, config.max_query_len + 1))
    # A small universe packs several indices onto one rank and repeats some.
    universe = int(rng.choice([ranks, 4 * ranks, 5000]))
    query = rng.integers(0, universe, size=length).tolist()
    return (ranks, config.ranks_per_leaf_pe, elements, operator, split), query


def engines(key):
    """(closed form, oracle) engines of one shape."""
    ranks, per_leaf, elements, operator, split = key
    config = FafnirConfig(
        total_ranks=ranks,
        ranks_per_leaf_pe=per_leaf,
        num_tables=ranks,
        vector_bytes=elements * 4,
    )
    pair = []
    for _ in range(2):
        engine = InteractiveEngine(config, get_operator(operator))
        if split:
            engine.placement = _SplitPlacement(engine.placement, 1_000)
        pair.append(engine)
    return tuple(pair)


def make_source(elements):
    return lambda index: source(index)[:elements]


@pytest.mark.parametrize("chunk", range(CHUNKS))
def test_closed_form_matches_per_pe_walk(chunk):
    built = {}  # engines are reused across queries: each lookup resets memory
    for seed in range(chunk, QUERIES, CHUNKS):
        key, query = random_case(seed)
        if key not in built:
            built[key] = engines(key)
        closed_engine, oracle_engine = built[key]
        vectors = make_source(key[2])
        closed = closed_engine.lookup_one(query, vectors)
        oracle = interactive_oracle.lookup_one(oracle_engine, query, vectors)
        where = f"seed {seed}: {key} {query}"
        assert closed.vector.tobytes() == oracle.vector.tobytes(), where
        assert closed.latency_pe_cycles == oracle.latency_pe_cycles, where
        assert (
            closed.memory_latency_pe_cycles == oracle.memory_latency_pe_cycles
        ), where
        assert closed.memory == oracle.memory, where


def test_cases_cover_every_class():
    ranks, operators, lengths = set(), set(), set()
    split = same_rank = same_leaf_other_rank = repeats = 0
    for seed in range(QUERIES):
        key, query = random_case(seed)
        ranks.add(key[0])
        operators.add(key[3])
        lengths.add(len(set(query)))
        split += key[4]
        homes = [index % key[0] for index in set(query)]
        same_rank += len(homes) != len(set(homes))
        leaves = {home // key[1] for home in homes}
        same_leaf_other_rank += key[1] > 1 and len(leaves) < len(set(homes))
        repeats += len(query) != len(set(query))
    assert ranks == {2, 4, 8, 16, 32, 64}
    assert operators == set(OPERATORS)
    assert lengths == set(range(1, FafnirConfig().max_query_len + 1))
    assert min(split, same_rank, same_leaf_other_rank, repeats) >= 50
