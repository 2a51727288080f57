"""The benchmark's five seeded workloads.

Each workload builds its part of the simulator once (``setup``) through
public constructors and defaults only, generates the inputs of one rep from
``(seed, rep)`` (``inputs``), and runs them (``run``).  The program receives
only the generated inputs: the query lists or request stream, and a vector
source that is a dict over vectors drawn up front.  Modeled caches start
empty: the engines reset memory per batch and no hot tier is installed.

Sizes are constructor arguments so the self-test can run tiny instances.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence

import numpy as np

from repro.core import FafnirConfig, FafnirEngine, ShardedRunner
from repro.obs import ColumnarSink, Tracer
from repro.serving import (
    ContinuousBatcher,
    OpenLoopGenerator,
    RampStage,
    ServingSimulator,
)
from repro.workloads import EmbeddingTableSet, QueryGenerator

VectorSource = Callable[[int], np.ndarray]

SLO_US = 25.0


@dataclass
class Inputs:
    """One rep's inputs: what the program gets, plus the flat query list."""

    work: object
    queries: List[List[int]]
    vectors: Dict[int, np.ndarray]

    @property
    def lookups(self) -> int:
        return sum(len(query) for query in self.queries)


@dataclass
class Modeled:
    """Simulated-time outcome of one rep."""

    queries: int
    seconds: float
    latencies_us: List[float]


def rep_rng(seed: int, rep: int) -> np.random.Generator:
    return np.random.default_rng((seed, rep))


def draw_vectors(
    rng: np.random.Generator, queries: Sequence[Sequence[int]], elements: int
) -> Dict[int, np.ndarray]:
    ids = sorted({index for query in queries for index in query})
    table = rng.standard_normal((len(ids), elements))
    return dict(zip(ids, table))


def oracle(inputs: Inputs) -> np.ndarray:
    """Per query, the sum of its unique indices' vectors."""
    vectors = inputs.vectors
    return np.stack(
        [np.sum([vectors[index] for index in set(query)], axis=0) for query in inputs.queries]
    )


def failures(
    vectors: Sequence[np.ndarray], statuses: Sequence[str], expected: np.ndarray
) -> int:
    """Outputs that miss the oracle or whose status is not ``ok``."""
    if len(vectors) != len(expected) or len(statuses) != len(expected):
        return len(expected)
    close = np.isclose(np.stack(vectors), expected, rtol=1e-12, atol=1e-12).all(axis=1)
    ok = np.array([status == "ok" for status in statuses])
    return int(np.count_nonzero(~(close & ok)))


class Workload:
    """Defaults shared by the workloads."""

    #: Whether the traced run also times a pass with the program's own tracer.
    traced_pass = False

    def members(self, result) -> Optional[List[List[int]]]:
        """Request ids per dispatched batch, for serving workloads."""
        return None


def _us(config: FafnirConfig, pe_cycles: float) -> float:
    return config.pe_clock.cycles_to_ns(pe_cycles) / 1e3


def _paper_queries(rng: np.random.Generator, query_len: int) -> QueryGenerator:
    """Paper-calibrated Zipf queries over a seeded set of 32 tables."""
    tables = EmbeddingTableSet.random(seed=int(rng.integers(2**31)))
    return QueryGenerator.paper_calibrated(
        tables, seed=int(rng.integers(2**31)), query_len=query_len
    )


class OfflineUniform(Workload):
    """One big batch of distinct uniform lookups per rep."""

    name = "offline-uniform"

    def __init__(
        self, queries: int = 128, lookups: int = 64, universe: int = 8192, ranks: int = 64
    ) -> None:
        self.queries = queries
        self.lookups = lookups
        self.universe = universe
        self.config = FafnirConfig(
            batch_size=queries,
            max_query_len=lookups,
            total_ranks=ranks,
            num_tables=ranks,
        )

    def setup(self) -> FafnirEngine:
        return FafnirEngine(config=self.config)

    def inputs(self, seed: int, rep: int) -> Inputs:
        rng = rep_rng(seed, rep)
        batch = [
            rng.choice(self.universe, size=self.lookups, replace=False).tolist()
            for _ in range(self.queries)
        ]
        vectors = draw_vectors(rng, batch, self.config.vector_elements)
        return Inputs(work=batch, queries=batch, vectors=vectors)

    def run(self, engine, inputs: Inputs, source: VectorSource):
        return engine.run_batch(inputs.work, source)

    def outputs(self, result):
        return result.vectors, result.query_statuses

    def modeled(self, result) -> Modeled:
        config = self.config
        return Modeled(
            queries=len(result.vectors),
            seconds=_us(config, result.stats.latency_pe_cycles) / 1e6,
            latencies_us=[_us(config, cycles) for cycles in result.ready_pe_cycles],
        )

    def unique_reads(self, result) -> int:
        return result.stats.unique_reads


class OfflineZipf(Workload):
    """The paper's workload: a pipelined stream of Zipf batches."""

    name = "offline-zipf"
    traced_pass = True

    def __init__(self, batches: int = 50, batch_size: int = 32, query_len: int = 16) -> None:
        self.batches = batches
        self.batch_size = batch_size
        self.query_len = query_len
        self.config = FafnirConfig()

    def setup(self) -> FafnirEngine:
        return FafnirEngine(config=self.config)

    def traced_setup(self):
        """An engine recording into the program's own columnar sink."""
        sink = ColumnarSink()
        return FafnirEngine(config=self.config, tracer=Tracer([sink])), sink

    def inputs(self, seed: int, rep: int) -> Inputs:
        rng = rep_rng(seed, rep)
        batches = _paper_queries(rng, self.query_len).batches(
            self.batches, self.batch_size
        )
        queries = [query for batch in batches for query in batch]
        vectors = draw_vectors(rng, queries, self.config.vector_elements)
        return Inputs(work=batches, queries=queries, vectors=vectors)

    def run(self, engine, inputs: Inputs, source: VectorSource):
        return engine.run_batches(inputs.work, source)

    def outputs(self, result):
        return result.vectors, result.statuses

    def modeled(self, result) -> Modeled:
        config = self.config
        return Modeled(
            queries=result.pipeline.total_queries,
            seconds=result.pipeline.makespan_ns(config) * 1e-9,
            latencies_us=[
                _us(config, cycles)
                for batch in result.results
                for cycles in batch.ready_pe_cycles
            ],
        )

    def unique_reads(self, result) -> int:
        return sum(batch.stats.unique_reads for batch in result.results)


class ShardedZipf(OfflineZipf):
    """The offline-zipf stream, split over four shards and folded back."""

    name = "sharded-zipf"
    traced_pass = False  # the program-tracer pass is timed on offline-zipf only

    def __init__(self, batches: int = 50, batch_size: int = 32, query_len: int = 16,
                 shards: int = 4) -> None:
        super().__init__(batches, batch_size, query_len)
        self.shards = shards

    def setup(self) -> ShardedRunner:
        return ShardedRunner(
            config=self.config,
            max_workers=1,
            reduction="recursive_doubling",
            num_shards=self.shards,
        )

    def run(self, runner, inputs: Inputs, source: VectorSource):
        return runner.run_reduced(inputs.work, source)

    def modeled(self, result) -> Modeled:
        config = self.config
        return Modeled(
            queries=len(result.vectors),
            seconds=_us(config, result.makespan_pe_cycles) / 1e6,
            latencies_us=[
                _us(config, ready + batch.outcome.comm_pe_cycles)
                for batch in result.batches
                for ready in batch.local_ready_pe_cycles
            ],
        )

    def unique_reads(self, result) -> int:
        return sum(
            batch.stats.unique_reads
            for shard in result.shard_results
            for batch in shard.results
        )


class _Replay:
    """A load source replaying a pre-generated open-loop arrival stream."""

    def __init__(self, requests) -> None:
        self._requests = requests

    def initial(self):
        return list(self._requests)

    def on_complete(self, request, complete_us):
        return None


class Serve(Workload):
    """Open-loop Poisson requests through the serving simulator.

    Arrivals are generated up front and replayed, and latency counts from
    each request's scheduled arrival in modeled time, so the generator is
    never late.
    """

    def __init__(self, name: str, qps: float, requests: int, query_len: int = 16) -> None:
        self.name = name
        self.qps = qps
        self.requests = requests
        self.query_len = query_len
        self.config = FafnirConfig()

    def setup(self) -> ServingSimulator:
        batcher = ContinuousBatcher(batch_size=16, window=64, dispatch_margin_us=3.0)
        return ServingSimulator(batcher, config=self.config)

    def inputs(self, seed: int, rep: int) -> Inputs:
        rng = rep_rng(seed, rep)
        # 20% headroom on the Poisson count, then cut to exactly `requests`.
        duration_us = 1.2 * self.requests / self.qps * 1e6
        load = OpenLoopGenerator(
            _paper_queries(rng, self.query_len),
            [RampStage(self.qps, duration_us)],
            slo_us=SLO_US,
            seed=int(rng.integers(2**31)),
        )
        requests = load.initial()[: self.requests]
        queries = [list(request.indices) for request in requests]
        vectors = draw_vectors(rng, queries, self.config.vector_elements)
        return Inputs(work=requests, queries=queries, vectors=vectors)

    def run(self, simulator, inputs: Inputs, source: VectorSource):
        return simulator.run(_Replay(inputs.work), source)

    def outputs(self, report):
        records = report.records  # sorted by request id, as generated
        return (
            [report.vectors[record.request.request_id] for record in records],
            [record.status for record in records],
        )

    def modeled(self, report) -> Modeled:
        return Modeled(
            queries=len(report.records),
            seconds=report.makespan_us / 1e6,
            latencies_us=[record.latency_us for record in report.records],
        )

    def unique_reads(self, report) -> int:
        return report.unique_reads

    def members(self, report) -> Optional[List[List[int]]]:
        return report.members


def all_workloads() -> Dict[str, Workload]:
    """The benchmark's workloads at their full sizes, by name."""
    workloads = [
        OfflineUniform(),
        OfflineZipf(),
        Serve("serve-burst", qps=6e6, requests=2000),
        Serve("serve-trickle", qps=2e3, requests=4000),
        ShardedZipf(),
    ]
    return {workload.name: workload for workload in workloads}
