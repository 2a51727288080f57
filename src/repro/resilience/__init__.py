"""End-to-end resilience: overload control and hedging.

The two mechanisms this package contributes, and where they plug in:

* :mod:`repro.resilience.admission` — deadline-aware load shedding in
  front of the serving batcher (``ServingSimulator(overload=...)``);
* :mod:`repro.resilience.hedging` — hedged re-dispatch of straggler
  shards with first-result-wins accounting
  (``ShardedRunner(hedge=...)``, consumed by ``run_reduced``).

Link-level fault injection (message loss, bandwidth degradation, dead
shards) lives with the rest of the chaos script in
:class:`repro.faults.plan.FaultPlan`; this package holds the *reactions*.
"""

from repro.resilience.admission import ADMIT, SHED, AdmissionController, OverloadPolicy
from repro.resilience.hedging import (
    HedgeAccounting,
    HedgeDecision,
    HedgePolicy,
    plan_hedges,
)

__all__ = [
    "ADMIT",
    "SHED",
    "AdmissionController",
    "OverloadPolicy",
    "HedgeAccounting",
    "HedgeDecision",
    "HedgePolicy",
    "plan_hedges",
]
