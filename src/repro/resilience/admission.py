"""Deadline-aware admission control with load shedding.

Sits in front of the :class:`~repro.serving.batcher.ContinuousBatcher`:
every arriving request is either *admitted* into the queue or *shed* with
an immediate degraded answer.  The test is a completion-time forecast —
queue depth converted to whole batches ahead, each charged the
controller's running estimate of batch service time:

    forecast = max(now, accelerator_free_at)
             + batches_ahead · batch_service_estimate_us

A request is shed when the forecast overruns its deadline by more than
the safety margin: it could only have missed its SLO while making every
request behind it later.  Shedding early is the whole point of overload
control — under a burst past capacity, queueing delay otherwise grows
without bound and *every* request misses, whereas shedding the excess
keeps the admitted stream on-SLO.

The service estimate is an EWMA over observed batch service times,
seeded from the batcher's dispatch margin until the first observation
lands.  All state is derived from modeled quantities, so a given
workload sheds the same requests on every run.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

if TYPE_CHECKING:  # runtime import would cycle: serving imports resilience
    from repro.serving.loadgen import Request

#: Admission verdicts.
ADMIT = "admit"
SHED = "shed"


@dataclass(frozen=True)
class OverloadPolicy:
    """Shedding configuration for the admission controller.

    Attributes:
        safety_margin_us: forecast slack; a request is shed only when the
            forecast exceeds ``deadline − margin``.
        max_queue_depth: hard backlog cap (``None`` = unbounded); arrivals
            beyond it are shed regardless of their deadline.
        ewma_alpha: weight of the newest batch-service observation.
        initial_service_us: estimate used before the first observation
            (``None`` → the batcher's dispatch margin).
    """

    safety_margin_us: float = 0.0
    max_queue_depth: Optional[int] = None
    ewma_alpha: float = 0.3
    initial_service_us: Optional[float] = None

    def __post_init__(self) -> None:
        if self.safety_margin_us < 0:
            raise ValueError("safety_margin_us must be non-negative")
        if self.max_queue_depth is not None and self.max_queue_depth < 1:
            raise ValueError("max_queue_depth must be positive (or None)")
        if not 0.0 < self.ewma_alpha <= 1.0:
            raise ValueError("ewma_alpha must be within (0, 1]")
        if self.initial_service_us is not None and self.initial_service_us < 0:
            raise ValueError("initial_service_us must be non-negative")


class AdmissionController:
    """Stateful admit/shed decisions over one serving run."""

    def __init__(
        self, policy: OverloadPolicy, batch_size: int, default_service_us: float
    ) -> None:
        if batch_size < 1:
            raise ValueError("batch_size must be positive")
        self.policy = policy
        self.batch_size = batch_size
        self._estimate_us = (
            policy.initial_service_us
            if policy.initial_service_us is not None
            else default_service_us
        )
        self.shed_count = 0
        self.admitted_count = 0

    def observe(self, service_us: float) -> None:
        """Fold one observed batch service time into the EWMA."""
        alpha = self.policy.ewma_alpha
        self._estimate_us = alpha * service_us + (1 - alpha) * self._estimate_us

    def forecast_complete_us(
        self, now_us: float, queue_depth: int, free_at_us: float
    ) -> float:
        """Forecast completion for a request joining behind ``queue_depth``."""
        batches_ahead = (queue_depth // self.batch_size) + 1
        return max(now_us, free_at_us) + batches_ahead * self._estimate_us

    def decide(
        self,
        request: Request,
        now_us: float,
        queue_depth: int,
        free_at_us: float,
    ) -> str:
        """:data:`ADMIT` or :data:`SHED` for one arriving request."""
        cap = self.policy.max_queue_depth
        if cap is not None and queue_depth >= cap:
            self.shed_count += 1
            return SHED
        forecast = self.forecast_complete_us(now_us, queue_depth, free_at_us)
        if forecast > request.deadline_us - self.policy.safety_margin_us:
            self.shed_count += 1
            return SHED
        self.admitted_count += 1
        return ADMIT
