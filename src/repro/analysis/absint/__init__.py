"""Static model profiler: abstract interpretation of embedded models.

The pass answers — without executing the model or consuming RNG —

* which addresses a model samples at, with per-address distribution
  class and abstract support (:func:`analyze_model` →
  :class:`StaticProfile`);
* how those addresses group into loop-indexed families and depend on
  one another (statement-level dependency graph);
* whether any control flow depends on a sampled value, and therefore
  whether the columnar runtime can execute the model at all
  (:func:`plan_columnar_step` → :class:`ColumnarPlan`).

Sound by refusal: whatever the interpreter cannot close marks the
profile ``complete=False`` and every consumer falls back to the runtime
behavior (sampling profiles, per-step columnar probing).
"""

from .interp import AnalysisFailure, analyze_model
from .plan import (
    SPILL_CODES,
    ColumnarPlan,
    PlanFinding,
    plan_columnar_birth,
    plan_columnar_step,
)
from .profile import AddressInfo, ControlSite, StaticProfile

__all__ = [
    "AnalysisFailure",
    "analyze_model",
    "AddressInfo",
    "ControlSite",
    "StaticProfile",
    "ColumnarPlan",
    "PlanFinding",
    "plan_columnar_step",
    "plan_columnar_birth",
    "SPILL_CODES",
]
