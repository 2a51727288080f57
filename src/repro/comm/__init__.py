"""Cross-shard (table-parallel) reduction over a modeled interconnect.

One FAFNIR node reduces its local slice of every query through the
on-package tree; this package is the second-level tree that combines
those partial vectors *across* nodes: index-space partitioning
(:mod:`repro.comm.partition`), pluggable collective schedules over a
latency/bandwidth link model (:mod:`repro.comm.schedule`), and the
split/combine pipeline that keeps the whole thing byte-identical to a
single-node run (:mod:`repro.comm.reducer`).  Threaded through
:class:`repro.core.sharding.ShardedRunner` via ``reduction=``.
"""

from repro.comm.partition import (
    IndexPartition,
    MODE_CONTIGUOUS,
    MODE_EXPLICIT,
    MODE_HOME_RANK,
)
from repro.comm.reducer import (
    CrossShardReducer,
    ReducedBatchResult,
    ReducedRunResult,
    ShardSplit,
    partial_operator,
)
from repro.comm.schedule import (
    CommMessage,
    GatherToRoot,
    MAX_PIECES,
    RecursiveDoubling,
    ReduceScatterAllgather,
    ReductionSchedule,
    SCHEDULES,
    SCHEDULE_GATHER,
    SCHEDULE_RECURSIVE_DOUBLING,
    SCHEDULE_REDUCE_SCATTER,
    SEGMENT_HEADER_BYTES,
    ScheduleOutcome,
    canonical_fold,
    get_schedule,
)
from repro.hw.link import LinkModel

__all__ = [
    "CommMessage",
    "CrossShardReducer",
    "GatherToRoot",
    "IndexPartition",
    "LinkModel",
    "MAX_PIECES",
    "MODE_CONTIGUOUS",
    "MODE_EXPLICIT",
    "MODE_HOME_RANK",
    "RecursiveDoubling",
    "ReduceScatterAllgather",
    "ReducedBatchResult",
    "ReducedRunResult",
    "ReductionSchedule",
    "SCHEDULES",
    "SCHEDULE_GATHER",
    "SCHEDULE_RECURSIVE_DOUBLING",
    "SCHEDULE_REDUCE_SCATTER",
    "SEGMENT_HEADER_BYTES",
    "ScheduleOutcome",
    "ShardSplit",
    "canonical_fold",
    "get_schedule",
    "partial_operator",
]
