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


def _best_seconds(fn, repeats=REPEATS):
    best = None
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        elapsed = time.perf_counter() - start
        best = elapsed if best is None else min(best, elapsed)
    return best


def _copy_ceiling():
    src = np.ones(COPY_BYTES // 8, dtype=np.float64)
    dst = np.empty_like(src)
    seconds = _best_seconds(lambda: np.copyto(dst, src))
    # One read + one write stream.
    return 2 * COPY_BYTES / seconds


def _gather_bandwidth():
    rng = np.random.default_rng(11)
    table = rng.standard_normal((TABLE_ROWS, VECTOR_ELEMENTS)).astype(
        np.float32
    )
    indices = rng.integers(0, TABLE_ROWS, GATHER_ROWS)
    out = np.empty((GATHER_ROWS, VECTOR_ELEMENTS), dtype=np.float32)
    seconds = _best_seconds(lambda: np.take(table, indices, axis=0, out=out))
    # Gathered reads + contiguous writes of the same volume.
    return 2 * GATHER_ROWS * VECTOR_ELEMENTS * 4 / seconds


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
    start = time.perf_counter()
    result = engine.run_batch(queries, vectors.__getitem__)
    seconds = time.perf_counter() - start
    gathered_bytes = len(vectors) * config.vector_bytes
    assert len(result.vectors) == ENGINE_QUERIES
    return gathered_bytes / seconds, gathered_bytes, seconds


def test_roofline_gather(benchmark):
    def experiment():
        copy_bw = _copy_ceiling()
        gather_bw = _gather_bandwidth()
        engine_bw, gathered_bytes, engine_s = _engine_effective_rate()
        return copy_bw, gather_bw, engine_bw, gathered_bytes, engine_s

    copy_bw, gather_bw, engine_bw, gathered_bytes, engine_s = run_once(
        benchmark, experiment
    )

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
    record = {
        "smoke": SMOKE,
        "copy_gib_s": round(copy_bw / gib, 3),
        "gather_gib_s": round(gather_bw / gib, 3),
        "engine_gib_s": round(engine_bw / gib, 5),
        "engine_wall_s": round(engine_s, 4),
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
