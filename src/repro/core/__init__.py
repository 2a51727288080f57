"""FAFNIR core: the near-memory intelligent reduction tree."""

from repro.core.accelerator import FafnirAccelerator
from repro.core.batch import BatchPlan, normalize_queries, plan_batch
from repro.core.config import FafnirConfig, PELatencies
from repro.core.engine import (
    FafnirEngine,
    LookupResult,
    LookupStats,
    MultiBatchResult,
    PipelineStats,
)
from repro.core.interactive import InteractiveEngine, InteractiveResult
from repro.core.stats import (
    LevelUtilization,
    TreeUtilization,
    trace_mismatches,
    tree_utilization,
)
from repro.core.operators import (
    MAX,
    MEAN,
    MIN,
    SUM,
    ReductionOperator,
    available_operators,
    get_operator,
)
from repro.core.pe import PEWork
from repro.core.sharding import (
    ShardedRunner,
    fleet_makespan_pe_cycles,
    shard_batches,
)
from repro.core.tree import FafnirTree, TreePE

__all__ = [
    "BatchPlan",
    "FafnirAccelerator",
    "FafnirConfig",
    "FafnirEngine",
    "FafnirTree",
    "InteractiveEngine",
    "InteractiveResult",
    "LevelUtilization",
    "LookupResult",
    "LookupStats",
    "MultiBatchResult",
    "PipelineStats",
    "ShardedRunner",
    "fleet_makespan_pe_cycles",
    "shard_batches",
    "MAX",
    "MEAN",
    "MIN",
    "PELatencies",
    "PEWork",
    "ReductionOperator",
    "SUM",
    "TreePE",
    "TreeUtilization",
    "trace_mismatches",
    "tree_utilization",
    "available_operators",
    "get_operator",
    "normalize_queries",
    "plan_batch",
]
