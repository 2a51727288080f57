"""Gather-bandwidth roofline for the sparse-gather hot path.

FAFNIR's premise is that sparse gathering is bandwidth-bound: the paper's
reduction tree exists to keep gathered vectors from crossing the host
interface more than once.  This microbench measures, on the machine the
simulator runs on, the three rates that bound the simulation itself:

* **copy ceiling** — contiguous ``memcpy`` bandwidth, the absolute roof;
* **gather bandwidth** — ``np.take`` of random vector-sized rows from a
  table, i.e. the raw sparse-gather primitive the leaf ranks model;
* **engine effective rate** — unique gathered bytes per second achieved
  by the engine end-to-end on the hot-path workload, which shows how
  far the *simulator* (tree bookkeeping, not data movement) sits beneath
  the machine's gather roof.

The qualitative shape asserted is the roofline ordering: copy ≥ gather ≥
engine-effective.  Absolute numbers are recorded in
``BENCH_roofline.json`` so the trajectory travels with the repo.

``FAFNIR_SMOKE=1`` shrinks the table, the gather count, and the engine
batch so the bench finishes in seconds on CI smoke runs.
"""

import os
import statistics
import time

import numpy as np

from _common import append_trajectory, run_once, write_report
from repro.analysis import Table
from repro.core import FafnirConfig, FafnirEngine
from repro.memory import MemoryConfig

SMOKE = bool(int(os.environ.get("FAFNIR_SMOKE", "0")))

VECTOR_ELEMENTS = 128  # 512 B float32 vectors, the paper's reference shape
TABLE_ROWS = 20_000 if SMOKE else 200_000
GATHER_ROWS = 100_000 if SMOKE else 2_000_000
COPY_BYTES = (32 if SMOKE else 256) << 20
REPEATS = 2 if SMOKE else 3

ENGINE_QUERIES = 32 if SMOKE else 128
ENGINE_RANKS = 16 if SMOKE else 64
ENGINE_QUERY_LEN = 16 if SMOKE else 64
ENGINE_UNIVERSE = 1024 if SMOKE else 8192


def _seconds(fn, repeats=REPEATS):
    """Wall seconds of each of ``repeats`` calls of ``fn``."""
    samples = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        samples.append(time.perf_counter() - start)
    return samples


def _rates(volume, samples):
    """(best, median) rate of moving ``volume`` bytes over the samples."""
    return volume / min(samples), volume / statistics.median(samples)


def _copy_ceiling():
    src = np.ones(COPY_BYTES // 8, dtype=np.float64)
    dst = np.empty_like(src)
    # One read + one write stream.
    return _rates(2 * COPY_BYTES, _seconds(lambda: np.copyto(dst, src)))


def _gather_bandwidth():
    rng = np.random.default_rng(11)
    table = rng.standard_normal((TABLE_ROWS, VECTOR_ELEMENTS)).astype(
        np.float32
    )
    indices = rng.integers(0, TABLE_ROWS, GATHER_ROWS)
    out = np.empty((GATHER_ROWS, VECTOR_ELEMENTS), dtype=np.float32)
    samples = _seconds(lambda: np.take(table, indices, axis=0, out=out))
    # Gathered reads + contiguous writes of the same volume.
    return _rates(2 * GATHER_ROWS * VECTOR_ELEMENTS * 4, samples)


def _engine_effective_rate():
    config = FafnirConfig(
        batch_size=ENGINE_QUERIES,
        max_query_len=ENGINE_QUERY_LEN,
        vector_bytes=VECTOR_ELEMENTS * 4,
        total_ranks=ENGINE_RANKS,
        ranks_per_leaf_pe=2,
        num_tables=ENGINE_RANKS,
    )
    memory = MemoryConfig().scaled_to_ranks(ENGINE_RANKS)
    rng = np.random.default_rng(7)
    queries = [
        rng.choice(ENGINE_UNIVERSE, size=ENGINE_QUERY_LEN, replace=False).tolist()
        for _ in range(ENGINE_QUERIES)
    ]
    vectors = {}
    for query in queries:
        for index in query:
            if index not in vectors:
                vectors[index] = rng.normal(size=VECTOR_ELEMENTS)
    engine = FafnirEngine(config=config, memory_config=memory)
    results = []
    samples = _seconds(
        lambda: results.append(engine.run_batch(queries, vectors.__getitem__))
    )
    gathered_bytes = len(vectors) * config.vector_bytes
    assert all(len(result.vectors) == ENGINE_QUERIES for result in results)
    return _rates(gathered_bytes, samples), gathered_bytes, samples


def test_roofline_gather(benchmark):
    def experiment():
        return _copy_ceiling(), _gather_bandwidth(), _engine_effective_rate()

    copy_rates, gather_rates, (engine_rates, gathered_bytes, engine_s) = run_once(
        benchmark, experiment
    )
    copy_bw, gather_bw, engine_bw = copy_rates[0], gather_rates[0], engine_rates[0]

    gib = float(1 << 30)
    table = Table(["tier", "GiB_per_s", "vs_copy_ceiling"])
    table.add_row(["copy ceiling", f"{copy_bw / gib:.2f}", "1.00×"])
    table.add_row(
        ["random gather", f"{gather_bw / gib:.2f}", f"{gather_bw / copy_bw:.2f}×"]
    )
    table.add_row(
        [
            "engine effective",
            f"{engine_bw / gib:.4f}",
            f"{engine_bw / copy_bw:.4f}×",
        ]
    )
    # Best-of-repeats headline figures, with the median as the spread.
    record = {
        "smoke": SMOKE,
        "repeats": REPEATS,
        "copy_gib_s": round(copy_bw / gib, 3),
        "copy_gib_s_median": round(copy_rates[1] / gib, 3),
        "gather_gib_s": round(gather_bw / gib, 3),
        "gather_gib_s_median": round(gather_rates[1] / gib, 3),
        "engine_gib_s": round(engine_bw / gib, 5),
        "engine_gib_s_median": round(engine_rates[1] / gib, 5),
        "engine_wall_s": round(min(engine_s), 4),
        "engine_wall_s_median": round(statistics.median(engine_s), 4),
        "engine_gathered_bytes": gathered_bytes,
        "config": {
            "vector_elements": VECTOR_ELEMENTS,
            "table_rows": TABLE_ROWS,
            "gather_rows": GATHER_ROWS,
            "engine_queries": ENGINE_QUERIES,
            "engine_ranks": ENGINE_RANKS,
        },
    }
    write_report("roofline_gather", table, record=record)
    append_trajectory("roofline", record)

    # Roofline ordering: each tier sits under the one above it.  The
    # functional simulator does orders of magnitude more bookkeeping per
    # byte than a memcpy, so the gaps are wide by construction — only
    # the ordering is load-bearing.
    assert copy_bw > gather_bw > engine_bw
