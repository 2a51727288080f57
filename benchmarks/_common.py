"""Shared helpers for the benchmark harness.

Every bench reproduces one table or figure of the paper: it runs the
experiment once inside pytest-benchmark, prints the reproduced rows, writes
them to ``benchmarks/out/<name>.txt`` (consumed by EXPERIMENTS.md) plus a
machine-readable ``benchmarks/out/<name>.json`` record, and asserts the
paper's qualitative shape.

Perf-tracking benches additionally append their headline numbers to a
repo-root ``BENCH_<name>.json`` trajectory via :func:`append_trajectory`,
so the measured history travels with the code (see benchmarks/README.md,
"Bench JSON convention").
"""

from __future__ import annotations

import datetime
import json
import os
import pathlib
import subprocess
from typing import Optional, Union

from repro.analysis import Table
from repro.workloads import EmbeddingTableSet, QueryGenerator

OUT_DIR = pathlib.Path(__file__).parent / "out"
REPO_ROOT = pathlib.Path(__file__).parent.parent


def bench_meta() -> dict:
    """Provenance stamped on every JSON record.

    CI runners pin ``FAFNIR_BENCH_REV`` / ``FAFNIR_BENCH_DATE`` in the
    environment; local runs fall back to ``git rev-parse`` and today.
    """
    rev = os.environ.get("FAFNIR_BENCH_REV")
    if not rev:
        try:
            rev = subprocess.run(
                ["git", "rev-parse", "--short", "HEAD"],
                cwd=REPO_ROOT,
                capture_output=True,
                text=True,
                timeout=10,
            ).stdout.strip()
        except OSError:
            rev = ""
    date = os.environ.get("FAFNIR_BENCH_DATE") or datetime.date.today().isoformat()
    return {"rev": rev or "unknown", "date": date}


def write_report(
    name: str,
    table: Union[Table, str],
    record: Optional[dict] = None,
) -> None:
    """Persist a bench's reproduced table for EXPERIMENTS.md assembly.

    Given a :class:`~repro.analysis.Table` (preferred) the rendered text
    goes to ``out/<name>.txt`` and the header-keyed rows, provenance
    (git rev + date), and any extra ``record`` fields go to
    ``out/<name>.json``.  A plain string still writes both files, just
    without the ``rows`` key.
    """
    OUT_DIR.mkdir(exist_ok=True)
    if isinstance(table, Table):
        text = table.render()
        payload = {"bench": name, **bench_meta(), "rows": table.records()}
    else:
        text = table
        payload = {"bench": name, **bench_meta()}
    if record:
        payload.update(record)
    (OUT_DIR / f"{name}.txt").write_text(text + "\n")
    (OUT_DIR / f"{name}.json").write_text(
        json.dumps(payload, indent=2, sort_keys=True) + "\n"
    )
    print(f"\n{text}")


def append_trajectory(name: str, record: dict) -> dict:
    """Append one measurement to the repo-root ``BENCH_<name>.json`` file.

    The trajectory is a JSON list ordered oldest-first, one entry per
    git revision (re-running at the same rev replaces that entry rather
    than duplicating it), each entry carrying the provenance fields of
    :func:`bench_meta` plus the bench's headline numbers.
    """
    path = REPO_ROOT / f"BENCH_{name}.json"
    entries = json.loads(path.read_text()) if path.exists() else []
    payload = {"bench": name, **bench_meta(), **record}
    entries = [e for e in entries if e.get("rev") != payload["rev"]]
    entries.append(payload)
    path.write_text(json.dumps(entries, indent=2, sort_keys=True) + "\n")
    return payload


def reference_tables(seed: int = 0) -> EmbeddingTableSet:
    """The evaluation's table set: 32 tables × 100 K rows × 512 B vectors."""
    return EmbeddingTableSet(
        num_tables=32, rows_per_table=100_000, vector_elements=128, seed=seed
    )


def calibrated_batch(tables: EmbeddingTableSet, batch_size: int, seed: int = 2):
    """One paper-calibrated batch (Zipfian sharing, q = 16)."""
    return QueryGenerator.paper_calibrated(tables, seed=seed).batch(batch_size)


def run_once(benchmark, fn):
    """Run an experiment exactly once under pytest-benchmark."""
    return benchmark.pedantic(fn, rounds=1, iterations=1)


def traced_run_batch(config, batch, source, deduplicate=True):
    """Run one batch with an in-memory tracer; returns (engine, result, events)."""
    from repro.core import FafnirEngine
    from repro.obs import InMemorySink, Tracer

    sink = InMemorySink()
    engine = FafnirEngine(config=config, tracer=Tracer([sink]))
    result = engine.run_batch(batch, source, deduplicate=deduplicate)
    return engine, result, sink.events


def assert_trace_matches_stats(engine, result, events):
    """Event stream and ``LookupStats`` must agree (see
    :func:`repro.core.stats.trace_mismatches`)."""
    from repro.core.stats import trace_mismatches

    assert trace_mismatches(engine, result, events) == []
