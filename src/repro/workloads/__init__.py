"""Workload generators: embedding lookups, DLRM inference, SpMV suites."""

from repro.workloads.dlrm import InferenceBreakdown, InferenceModel
from repro.workloads.embedding import EmbeddingTableSet, QueryGenerator
from repro.workloads.scheduler import (
    BatchScheduler,
    FifoScheduler,
    PendingQuery,
    ScheduleReport,
    SharingAwareScheduler,
    evaluate_schedule,
)
from repro.workloads.suites import SpmvWorkload, fig14_suite
from repro.workloads.traces import QueryTrace

__all__ = [
    "BatchScheduler",
    "EmbeddingTableSet",
    "FifoScheduler",
    "PendingQuery",
    "QueryTrace",
    "ScheduleReport",
    "SharingAwareScheduler",
    "evaluate_schedule",
    "InferenceBreakdown",
    "InferenceModel",
    "QueryGenerator",
    "SpmvWorkload",
    "fig14_suite",
]
