"""Static columnar-eligibility pre-flight (:class:`ColumnarPlan`).

The columnar runtime (:mod:`repro.core.columnar`) discovers at run time
— by probing, once per step — whether a step can be laid out
address-major, and raises :class:`~repro.core.columnar.ColumnarSpill`
with a stable reason ``code`` when it cannot.  This module predicts
those reasons *statically*, from the translator's shape and the
abstract interpretation of its models:

* findings with ``certain=True`` identify steps that would definitely
  spill (a rejuvenation kernel, a containing fault policy,
  value-dependent control flow in the target — for structured-language
  targets a ternary over a sampled value with pure branches is a data
  dependency, not control flow);
  :func:`repro.core.columnar.columnar_infer_step` consults them and
  routes straight to the object path without per-step probing;
* findings with ``certain=False`` are possible spill reasons; the step
  still runs columnar and the runtime probe decides;
* an incomplete static profile widens the prediction to *every* spill
  code (top) — the plan never claims a spill impossible on a model it
  could not close.

Soundness contract: :meth:`ColumnarPlan.predicted_codes` is a superset
of the codes any actual spill of the planned step can carry, and a plan
with no certain finding never *causes* a spill (the runtime probe is
unchanged); it may only be wrong in the conservative direction.

Profiles are computed once per model, not once per plan: an edit chain's
step *i* targets the model that step *i+1* starts from, so each model is
analyzed once however many translators share it (:func:`_model_profile`).
"""

from __future__ import annotations

import threading
import weakref
from dataclasses import dataclass, field
from typing import Any, FrozenSet, List, Optional, Set, Tuple

from .interp import analyze_model
from .profile import StaticProfile

__all__ = [
    "SPILL_CODES",
    "LINT_CODE_PREFIX",
    "PlanFinding",
    "ColumnarPlan",
    "plan_columnar_step",
    "plan_columnar_birth",
]

#: Stable spill reason codes, shared with
#: :class:`repro.core.columnar.ColumnarSpill` and surfaced by lint as
#: ``columnar-ineligible-<code>``.
SPILL_CODES = {
    "translator": "translator is not a plain CorrespondenceTranslator",
    "proposals": "translator carries custom forward/backward proposals",
    "mcmc": "an MCMC rejuvenation kernel is configured",
    "fault-policy": "the fault policy requires per-particle isolation",
    "collection-type": "the input collection type is not supported",
    "items": "collection items are not (all) object traces",
    "address-structure": "particles disagree on address sets or order",
    "value-kind": "a value column is non-numeric or of mixed kind",
    "dist-merge": "per-particle distributions cannot merge into one template",
    "template": "an array-parameterized template cannot be gathered/rebuilt",
    "observation": "an observation column cannot be represented",
    "batch-shape": "a batched sample/score returned the wrong shape",
    "return-value": "per-particle return values cannot be batched",
    "control-flow": "control flow branches on a sampled value",
    "execution": "the batched model execution raised",
}

#: Lint diagnostics derived from plan findings use this prefix.
LINT_CODE_PREFIX = "columnar-ineligible-"


@dataclass(frozen=True)
class PlanFinding:
    """One predicted spill reason."""

    #: A key of :data:`SPILL_CODES` — the ``code`` the matching runtime
    #: :class:`~repro.core.columnar.ColumnarSpill` would carry.
    code: str
    #: True when the spill is unavoidable and the step should route to
    #: the object path without probing.
    certain: bool
    detail: str
    #: The model side the finding concerns ("source"/"target"/"step").
    subject: str = "step"
    #: True when the certainty only holds for populations of more than
    #: one particle (a single-particle column is a size-1 array, which
    #: numpy happily coerces to bool, so value-dependent control flow
    #: does not raise there).
    needs_multiple_particles: bool = False

    @property
    def lint_code(self) -> str:
        return LINT_CODE_PREFIX + self.code

    def describe(self) -> str:
        certainty = "will spill" if self.certain else "may spill"
        return f"[{self.lint_code}] {self.subject} {certainty}: {self.detail}"


@dataclass
class ColumnarPlan:
    """Static prediction of a columnar step's spill behaviour."""

    findings: List[PlanFinding] = field(default_factory=list)
    source_profile: Optional[StaticProfile] = None
    target_profile: Optional[StaticProfile] = None
    #: True for a birth plan (:func:`plan_columnar_birth`), which has no
    #: source model: only the target profile bounds its codes.
    birth: bool = False

    @property
    def eligible(self) -> bool:
        """True when no *certain* spill was found (the probe still runs)."""
        return not any(f.certain for f in self.findings)

    def blocking(self, num_particles: Optional[int] = None) -> Optional[PlanFinding]:
        """The first certain finding applicable to a population of
        ``num_particles`` (None means "unknown, assume many")."""
        for finding in self.findings:
            if not finding.certain:
                continue
            if (
                finding.needs_multiple_particles
                and num_particles is not None
                and num_particles <= 1
            ):
                continue
            return finding
        return None

    def predicted_codes(self) -> FrozenSet[str]:
        """Every spill code a run of the planned step could raise.

        Widens to all codes whenever a planned model resisted analysis:
        the plan refuses to rule out what it could not see.
        """
        codes: Set[str] = {f.code for f in self.findings}
        # The plan sees the translator and its models, never the input
        # collection — malformed-input spills stay possible regardless.
        codes.update(("collection-type", "items"))
        profiles = (self.target_profile,)
        if not self.birth:
            profiles += (self.source_profile,)
        for profile in profiles:
            if profile is None or not profile.complete:
                codes.update(SPILL_CODES)
        if "control-flow" in codes:
            # A sampled branch usually trips numpy's array-truth-value
            # guard (code "control-flow"), but the same batched run can
            # fail on a neighboring coercion first (code "execution").
            codes.add("execution")
        return frozenset(codes)

    def to_json(self) -> dict:
        return {
            "eligible": self.eligible,
            "findings": [
                {
                    "code": f.lint_code,
                    "certain": f.certain,
                    "subject": f.subject,
                    "detail": f.detail,
                }
                for f in self.findings
            ],
            "predicted_codes": sorted(self.predicted_codes()),
        }


def _is_numeric(value: Any) -> bool:
    import numpy as np

    return isinstance(value, (bool, int, float, np.bool_, np.integer, np.floating))


def _profile_findings(
    profile: StaticProfile, subject: str
) -> List[PlanFinding]:
    """Spill predictions read off one model's static profile."""
    findings: List[PlanFinding] = []
    if not profile.complete:
        findings.append(
            PlanFinding(
                "execution",
                certain=False,
                subject=subject,
                detail=(
                    f"static analysis could not close the model "
                    f"({profile.failure}); every spill reason stays possible"
                ),
            )
        )
    if profile.value_dependent_control_flow:
        site = profile.control_sites[0].describe() if profile.control_sites else ""
        if subject == "target":
            # The batched target run feeds whole columns through the
            # branch condition; numpy refuses the bool coercion.
            findings.append(
                PlanFinding(
                    "control-flow",
                    certain=profile.complete,
                    subject=subject,
                    detail=site or "a branch condition depends on a sampled value",
                    needs_multiple_particles=True,
                )
            )
        else:
            # Source-side branching shapes the *population*: particles
            # can disagree on which addresses exist.
            findings.append(
                PlanFinding(
                    "address-structure",
                    certain=False,
                    subject=subject,
                    detail=site or "a branch condition depends on a sampled value",
                )
            )
    if subject == "target" and profile.opaque_tainted_lines:
        lines = ", ".join(map(str, sorted(set(profile.opaque_tainted_lines))))
        # The batched target run feeds these calls whole columns; scalar
        # analysis cannot tell whether they vectorize.
        findings.append(
            PlanFinding(
                "execution",
                certain=False,
                subject=subject,
                detail=(
                    f"opaque call(s) at line(s) {lines} receive "
                    "sample-dependent arguments; the batched run may not "
                    "vectorize them"
                ),
            )
        )
    if subject == "target" and profile.column_hazards:
        # The batched target run evaluates these for every particle.
        findings.append(
            PlanFinding(
                "execution",
                certain=False,
                subject=subject,
                detail=(
                    "the batched run may raise where no particle's scalar "
                    f"run would: {'; '.join(profile.column_hazards)}"
                ),
            )
        )
    if subject == "source" and profile.return_batchable is False:
        # ``from_weighted`` stacks the *source* traces' return values;
        # a per-particle container cannot be stacked.  (The target's
        # return value is produced already batched by the columnar run.)
        findings.append(
            PlanFinding(
                "return-value",
                certain=False,
                subject=subject,
                detail="the model returns a per-particle container",
            )
        )
    for table in (profile.addresses, profile.observations):
        for address, info in table.items():
            if len(info.dist_classes) > 1:
                findings.append(
                    PlanFinding(
                        "dist-merge",
                        certain=False,
                        subject=subject,
                        detail=(
                            f"address {address!r} samples from several "
                            f"distribution classes ({', '.join(info.dist_classes)})"
                        ),
                    )
                )
            if not info.verified_batch:
                # The batch layer runs through this class's (possibly
                # overridden) log_prob_batch/sample_batch and template
                # machinery; none of it is verified for third-party
                # subclasses, so every batch-layer spill stays possible.
                classes = ", ".join(info.dist_classes)
                for code in ("batch-shape", "template", "dist-merge", "value-kind"):
                    findings.append(
                        PlanFinding(
                            code,
                            certain=False,
                            subject=subject,
                            detail=(
                                f"address {address!r} uses third-party "
                                f"distribution class(es) {classes} with an "
                                "unverified batched contract"
                            ),
                        )
                    )
            if not info.scalar_params:
                findings.append(
                    PlanFinding(
                        "dist-merge",
                        certain=False,
                        subject=subject,
                        detail=(
                            f"address {address!r} has a varying non-scalar "
                            "distribution parameter; per-particle instances "
                            "may not merge into one template"
                        ),
                    )
                )
            if not info.always and not info.observed and subject == "source":
                findings.append(
                    PlanFinding(
                        "address-structure",
                        certain=False,
                        subject=subject,
                        detail=(
                            f"address {address!r} only occurs on some paths; "
                            "particles may disagree on the address set"
                        ),
                    )
                )
            for support in info.supports:
                members: Tuple[Any, ...] = ()
                try:
                    if support.is_finite() and len(support) <= 8:
                        members = tuple(support.enumerate())
                except Exception:
                    members = ()
                if any(not _is_numeric(m) for m in members):
                    findings.append(
                        PlanFinding(
                            "value-kind",
                            certain=False,
                            subject=subject,
                            detail=(
                                f"address {address!r} takes non-numeric values "
                                f"({support!r})"
                            ),
                        )
                    )
    return findings


#: model -> (fn, args, observations, profile) of its last analysis.
_PROFILES: "weakref.WeakKeyDictionary[Any, Tuple[Any, Any, Any, StaticProfile]]" = (
    weakref.WeakKeyDictionary()
)
_PROFILES_LOCK = threading.Lock()


def _model_profile(model: Any) -> StaticProfile:
    """``analyze_model(model)``, reused while the model's ``fn``, ``args``
    and ``observations`` are the very objects it was analyzed with.

    Identity is the same assumption a translator's cached plan already
    makes (nothing mutates a model's arguments in place between steps).
    Profiles are shared, so consumers must treat them as read-only.
    """
    parts = (model.fn, model.args, model.observations)
    with _PROFILES_LOCK:
        cached = _PROFILES.get(model)
    if cached is not None and all(a is b for a, b in zip(cached, parts)):
        return cached[3]
    profile = analyze_model(model)
    with _PROFILES_LOCK:
        _PROFILES[model] = (*parts, profile)
    return profile


def plan_columnar_step(
    translator: Any,
    *,
    config: Any = None,
    mcmc_kernel: Any = None,
) -> ColumnarPlan:
    """Predict the spill behaviour of one columnar SMC step.

    Mirrors the runtime checks of
    :func:`repro.core.columnar.columnar_infer_step` statically: the
    translator-shape rules of ``_check_translator`` become certain
    findings, and the two models' static profiles contribute the
    model-level reasons (value-dependent control flow, branch-dependent
    address sets, heterogeneous distributions, non-numeric supports).
    """
    from ...core.corr_translator import CorrespondenceTranslator
    from ...core.model import Model

    plan = ColumnarPlan()

    if type(translator) is not CorrespondenceTranslator:
        plan.findings.append(
            PlanFinding(
                "translator",
                certain=True,
                detail=(
                    f"columnar path supports plain CorrespondenceTranslator, "
                    f"got {type(translator).__name__}"
                ),
            )
        )
        return plan
    if translator.forward_proposals or translator.backward_proposals:
        plan.findings.append(
            PlanFinding(
                "proposals", certain=True, detail="translator has custom proposals"
            )
        )
    if mcmc_kernel is not None:
        plan.findings.append(
            PlanFinding(
                "mcmc", certain=True, detail="MCMC rejuvenation uses the object path"
            )
        )
    if config is not None:
        policy = getattr(config, "fault_policy", None)
        if policy is not None and getattr(policy, "contains_faults", False):
            plan.findings.append(
                PlanFinding(
                    "fault-policy",
                    certain=True,
                    detail=(
                        f"fault policy {policy.mode!r} needs per-particle isolation"
                    ),
                )
            )

    source = getattr(translator, "source", None)
    target = getattr(translator, "target", None)
    if isinstance(source, Model):
        plan.source_profile = _model_profile(source)
        plan.findings.extend(_profile_findings(plan.source_profile, "source"))
    if isinstance(target, Model):
        plan.target_profile = _model_profile(target)
        plan.findings.extend(_profile_findings(plan.target_profile, "target"))
    return plan


def plan_columnar_birth(model: Any) -> ColumnarPlan:
    """Predict the spill behaviour of sampling ``model``'s population in
    one batched run (:meth:`repro.core.columnar.ColumnarCollection.importance_sample`).

    That run is the target run of a step into ``model`` with nothing
    reused, so the target-side findings apply unchanged.  A birth also
    keeps the run's return value only when it is one column or one
    shared value, so a per-particle container stays a possible
    ``return-value`` spill.
    """
    from ...core.model import Model

    plan = ColumnarPlan(birth=True)
    if isinstance(model, Model):
        profile = plan.target_profile = _model_profile(model)
        plan.findings.extend(_profile_findings(profile, "target"))
        if profile.return_batchable is False:
            plan.findings.append(
                PlanFinding(
                    "return-value",
                    certain=False,
                    subject="target",
                    detail="the model returns a per-particle container",
                )
            )
    return plan
