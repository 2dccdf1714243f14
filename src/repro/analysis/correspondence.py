"""Static validation of trace correspondences (pass 1).

A correspondence is only useful when it is an injective map between
addresses that actually occur in both programs and whose distributions
have compatible supports — the translator reuses a value *only* when the
supports are exactly equal (Section 5.1), so a pair like ``flip ↔
gauss`` silently degenerates to resampling everything.  This pass checks
those properties before any inference runs:

* **bijection consistency** — ``backward(forward(a)) == a`` for every
  observed address; violations break the backward kernel (Eq. 7);
* **injectivity** — two target addresses must not map to the same source
  address (intensional maps can violate this even though
  ``Correspondence.from_dict`` rejects non-injective dicts);
* **existence** — mapped addresses must occur in the respective
  programs; a pair relating addresses that occur in *neither* program is
  certainly a typo;
* **support compatibility** — an address pair whose observed supports
  are never equal can never reuse a value (disjoint support *types*,
  e.g. ``BinarySupport`` vs ``RealLine``, are reported as errors; equal
  types with different parameters as warnings);
* **coverage** — unmapped target addresses and dead source addresses
  are reported as ``info`` (often deliberate, e.g. the burglary
  refinement leaves ``earthquake`` unmapped by design);
* **picklability** — an intensional map built from a lambda or closure
  works in-process but cannot ship to the ``process`` executor; reported
  as a warning here and escalated by the config lint when a process
  backend is actually configured.

Address profiles come from exhaustive trace enumeration when the model
is finite and discrete (:func:`repro.core.enumerate.enumerate_traces`),
and from seeded forward sampling otherwise; lang programs can
additionally be profiled statically via
:func:`repro.lang.analysis.random_expressions`
(:func:`validate_label_map`).
"""

from __future__ import annotations

import io
import pickle
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from ..core.address import Address
from ..core.enumerate import enumerate_traces
from ..core.model import Model
from .diagnostics import Diagnostic

__all__ = [
    "AddressProfile",
    "profile_model",
    "validate_correspondence",
    "validate_label_map",
    "validate_translator",
]

PASS_NAME = "correspondence"

#: Default number of forward simulations when enumeration is impossible.
DEFAULT_SAMPLES = 24

#: Give up on exhaustive enumeration beyond this many traces and fall
#: back to sampling (keeps pre-flight validation bounded).
MAX_ENUMERATED_TRACES = 512


@dataclass
class AddressProfile:
    """Observed address -> distribution supports for one model.

    ``complete`` is True when the profile came from exhaustive
    enumeration: an address absent from a complete profile provably
    never occurs in the program, while absence from a sampled profile is
    only evidence.
    """

    name: str
    #: Address -> distinct supports observed at that address.
    supports: Dict[Address, List[Any]] = field(default_factory=dict)
    complete: bool = False
    #: Trace executions that raised (sampling mode only).
    failures: int = 0
    #: How the profile was produced: "static" (abstract interpretation),
    #: "enumerate" (exhaustive trace enumeration), or "sample" (seeded
    #: forward simulation).  Empty on hand-built profiles.
    method: str = ""

    def record(self, address: Address, dist: Any) -> None:
        supports = self.supports.setdefault(address, [])
        try:
            support = dist.support()
        except Exception:  # pragma: no cover - defensive
            return
        if support not in supports:
            supports.append(support)

    def __contains__(self, address: Address) -> bool:
        return address in self.supports


def profile_model(
    model: Model,
    rng: Optional[np.random.Generator] = None,
    num_samples: int = DEFAULT_SAMPLES,
    method: str = "auto",
) -> AddressProfile:
    """Collect the address space of ``model``.

    ``method`` selects the strategy:

    * ``"auto"`` (default) — static abstract interpretation first
      (:func:`repro.analysis.absint.analyze_model`); when the analyzer
      closes the model the profile is deterministic and consumes **no**
      randomness.  Models the analyzer cannot close (value-dependent
      loop bounds, dynamic addresses, ...) fall back to the runtime
      strategies below.
    * ``"static"`` — abstract interpretation only; raises
      :class:`ValueError` when the model resists analysis.
    * ``"runtime"`` — exhaustive enumeration when the model is finite
      and discrete, else ``num_samples`` forward simulations seeded
      from ``rng`` (a fixed seed when omitted, so validation is
      deterministic).  This is the pre-static behaviour, and its
      sampling fallback labels the profile ``method="sample"``.
    """
    if method not in ("auto", "static", "runtime"):
        raise ValueError(
            f"unknown profiling method {method!r}; choose from "
            "'auto', 'static', 'runtime'"
        )
    if method in ("auto", "static"):
        from .absint import analyze_model

        static = analyze_model(model)
        if static.complete:
            profile = static.to_address_profile()
            profile.method = "static"
            return profile
        if method == "static":
            raise ValueError(
                f"static analysis of {profile_name(model)!r} is incomplete: "
                f"{static.failure}"
            )
    profile = AddressProfile(name=profile_name(model))
    try:
        count = 0
        enumerated: List[Any] = []
        for trace in enumerate_traces(model):
            count += 1
            if count > MAX_ENUMERATED_TRACES:
                raise ValueError("enumeration budget exceeded")
            enumerated.append(trace)
        for trace in enumerated:
            for choice in trace.choices():
                profile.record(choice.address, choice.dist)
        profile.complete = True
        profile.method = "enumerate"
        return profile
    except ValueError:
        # Continuous/unbounded model (or budget blown): sample instead.
        pass
    return _profile_by_sampling(profile, model, rng, num_samples)


def profile_name(model: Model) -> str:
    return getattr(model, "name", "model")


def _profile_by_sampling(
    profile: AddressProfile,
    model: Model,
    rng: Optional[np.random.Generator],
    num_samples: int,
) -> AddressProfile:
    rng = rng if rng is not None else np.random.default_rng(0)
    profile.method = "sample"
    for _ in range(max(1, num_samples)):
        try:
            trace = model.simulate(rng)
        except Exception:
            profile.failures += 1
            continue
        for choice in trace.choices():
            profile.record(choice.address, choice.dist)
    return profile


def _supports_compatible(
    q_supports: List[Any], p_supports: List[Any]
) -> Tuple[bool, bool]:
    """(ever equal, types overlap) for two observed-support lists."""
    ever_equal = any(q == p for q in q_supports for p in p_supports)
    types_overlap = bool(
        {type(q) for q in q_supports} & {type(p) for p in p_supports}
    )
    return ever_equal, types_overlap


def _check_picklable(correspondence: Any) -> Optional[Diagnostic]:
    try:
        pickle.dump(correspondence, io.BytesIO())
        return None
    except Exception as error:
        return Diagnostic(
            "warning",
            f"correspondence {correspondence!r} is not picklable ({error}); "
            "the 'process' executor cannot ship it to workers — use "
            "module-level functions instead of lambdas/closures",
            code="corr-not-picklable",
            pass_name=PASS_NAME,
        )


def validate_correspondence(
    source: Model,
    target: Model,
    correspondence: Any,
    *,
    rng: Optional[np.random.Generator] = None,
    num_samples: int = DEFAULT_SAMPLES,
) -> List[Diagnostic]:
    """Validate ``correspondence`` against the two models' address spaces.

    ``source`` is the old program ``P`` (the forward map's codomain),
    ``target`` the new program ``Q`` (its domain), matching
    :class:`~repro.core.corr_translator.CorrespondenceTranslator`.
    """
    rng = rng if rng is not None else np.random.default_rng(0)
    p_profile = profile_model(source, rng, num_samples)
    q_profile = profile_model(target, rng, num_samples)
    diagnostics: List[Diagnostic] = []

    def finding(severity: str, message: str, code: str, address: Any = None) -> None:
        diagnostics.append(
            Diagnostic(
                severity,
                message,
                code=code,
                pass_name=PASS_NAME,
                address=None if address is None else repr(address),
            )
        )

    if not p_profile.supports and not q_profile.supports:
        finding(
            "warning",
            "could not profile either model (every execution failed); "
            "correspondence left unvalidated",
            "corr-unprofiled",
        )
        return diagnostics

    # -- forward map over the observed target address space -----------------
    image: Dict[Address, Address] = {}
    for q_address in sorted(q_profile.supports, key=repr):
        p_address = correspondence.forward(q_address)
        if p_address is None:
            finding(
                "info",
                f"target address {q_address!r} is unmapped; its value is "
                "sampled fresh on every translation",
                "corr-unmapped-target",
                q_address,
            )
            continue
        roundtrip = correspondence.backward(p_address)
        if roundtrip != q_address:
            finding(
                "error",
                f"correspondence is not a consistent bijection: "
                f"forward({q_address!r}) = {p_address!r} but "
                f"backward({p_address!r}) = {roundtrip!r}",
                "corr-not-bijective",
                q_address,
            )
        if p_address in image and image[p_address] != q_address:
            finding(
                "error",
                f"correspondence is not injective: {p_address!r} is the image "
                f"of both {image[p_address]!r} and {q_address!r}",
                "corr-not-injective",
                p_address,
            )
        image.setdefault(p_address, q_address)
        if p_address not in p_profile:
            severity = "error" if p_profile.complete else "warning"
            qualifier = "never occurs" if p_profile.complete else "was never observed"
            finding(
                severity,
                f"forward({q_address!r}) = {p_address!r}, but that address "
                f"{qualifier} in source program "
                f"{p_profile.name!r}",
                "corr-missing-source",
                p_address,
            )
            continue
        ever_equal, types_overlap = _supports_compatible(
            q_profile.supports[q_address], p_profile.supports[p_address]
        )
        if not ever_equal:
            if not types_overlap:
                finding(
                    "error",
                    f"support mismatch: {q_address!r} "
                    f"({q_profile.supports[q_address]}) corresponds to "
                    f"{p_address!r} ({p_profile.supports[p_address]}); the "
                    "supports can never be equal, so no value is ever reused",
                    "corr-support-mismatch",
                    q_address,
                )
            else:
                finding(
                    "warning",
                    f"supports at {q_address!r} and {p_address!r} were never "
                    f"observed equal ({q_profile.supports[q_address]} vs "
                    f"{p_profile.supports[p_address]}); values are resampled "
                    "whenever they differ",
                    "corr-support-params",
                    q_address,
                )

    # -- explicit pairs the profiles did not cover --------------------------
    known = correspondence.known_pairs()
    for q_address, p_address in known or []:
        q_missing = q_address not in q_profile
        p_missing = p_address not in p_profile
        if q_missing and p_missing and q_profile.complete and p_profile.complete:
            finding(
                "error",
                f"correspondence relates {q_address!r} to {p_address!r}, but "
                "neither address occurs in either program",
                "corr-unknown-pair",
                q_address,
            )
        elif q_missing and q_profile.complete:
            finding(
                "info",
                f"correspondence maps {q_address!r}, which never occurs in "
                f"target program {q_profile.name!r} (dead pair)",
                "corr-dead-pair",
                q_address,
            )

    # -- backward coverage of the source address space ----------------------
    for p_address in sorted(p_profile.supports, key=repr):
        q_address = correspondence.backward(p_address)
        if q_address is None:
            finding(
                "info",
                f"source address {p_address!r} is outside the correspondence; "
                "its value is discarded by translation",
                "corr-dead-source",
                p_address,
            )
        elif q_address not in q_profile and q_profile.complete:
            finding(
                "warning",
                f"backward({p_address!r}) = {q_address!r}, but that address "
                f"never occurs in target program {q_profile.name!r}",
                "corr-missing-target",
                q_address,
            )

    pickling = _check_picklable(correspondence)
    if pickling is not None:
        diagnostics.append(pickling)
    return diagnostics


def validate_label_map(
    old_program: Any, new_program: Any, label_map: Dict[str, str]
) -> List[Diagnostic]:
    """Statically validate a new-label -> old-label map for lang programs.

    The static analogue of :func:`validate_correspondence`: label
    existence and injectivity are checked against the programs' random
    expressions (:func:`repro.lang.analysis.random_expressions`), and
    support compatibility against the random-expression *kinds* (a
    ``flip`` label mapped to a ``gauss`` label can never reuse a value).
    """
    from ..lang.analysis import random_expressions

    diagnostics: List[Diagnostic] = []
    old_by_label = {node.label: node for node in random_expressions(old_program)}
    new_by_label = {node.label: node for node in random_expressions(new_program)}
    image: Dict[str, str] = {}
    for new_label, old_label in sorted(label_map.items()):
        new_node = new_by_label.get(new_label)
        old_node = old_by_label.get(old_label)
        if new_node is None and old_node is None:
            diagnostics.append(
                Diagnostic(
                    "error",
                    f"label map relates {new_label!r} to {old_label!r}, but "
                    "neither label occurs in either program",
                    code="corr-unknown-pair",
                    pass_name=PASS_NAME,
                    address=new_label,
                )
            )
            continue
        if new_node is None:
            diagnostics.append(
                Diagnostic(
                    "warning",
                    f"label {new_label!r} does not occur in the new program",
                    code="corr-dead-pair",
                    pass_name=PASS_NAME,
                    address=new_label,
                )
            )
        if old_node is None:
            diagnostics.append(
                Diagnostic(
                    "error",
                    f"label map sends {new_label!r} to {old_label!r}, which "
                    "does not occur in the old program",
                    code="corr-missing-source",
                    pass_name=PASS_NAME,
                    address=old_label,
                )
            )
        if old_label in image:
            diagnostics.append(
                Diagnostic(
                    "error",
                    f"label map is not injective: {old_label!r} is the image "
                    f"of both {image[old_label]!r} and {new_label!r}",
                    code="corr-not-injective",
                    pass_name=PASS_NAME,
                    address=old_label,
                )
            )
        image.setdefault(old_label, new_label)
        if new_node is not None and old_node is not None:
            if type(new_node) is not type(old_node):
                diagnostics.append(
                    Diagnostic(
                        "error",
                        f"support mismatch: {new_label!r} is a "
                        f"{type(new_node).__name__} but {old_label!r} is a "
                        f"{type(old_node).__name__}; corresponding values can "
                        "never be reused",
                        code="corr-support-mismatch",
                        pass_name=PASS_NAME,
                        address=new_label,
                    )
                )
    for new_label in sorted(set(new_by_label) - set(label_map)):
        diagnostics.append(
            Diagnostic(
                "info",
                f"new-program label {new_label!r} is unmapped; its choices "
                "are sampled fresh on every translation",
                code="corr-unmapped-target",
                pass_name=PASS_NAME,
                address=new_label,
            )
        )
    return diagnostics


def validate_translator(
    translator: Any,
    *,
    rng: Optional[np.random.Generator] = None,
    num_samples: int = DEFAULT_SAMPLES,
) -> List[Diagnostic]:
    """Validate whatever correspondence a translator carries.

    Dispatches on shape: a
    :class:`~repro.core.corr_translator.CorrespondenceTranslator` (has
    ``source``/``target``/``correspondence``) gets the full model-backed
    validation; a :class:`~repro.graph.translate.GraphTranslator` (has
    ``source_program``/``target_program``) gets the static edit check;
    anything else produces no findings.
    """
    correspondence = getattr(translator, "correspondence", None)
    source = getattr(translator, "source", None)
    target = getattr(translator, "target", None)
    if (
        correspondence is not None
        and isinstance(source, Model)
        and isinstance(target, Model)
    ):
        return validate_correspondence(
            source, target, correspondence, rng=rng, num_samples=num_samples
        )
    from ..lang.ast import Stmt

    if isinstance(source, Stmt) and isinstance(target, Stmt):
        # GraphTranslator: the programs themselves are the subject; run
        # the static half of the edit-soundness pass (the runtime
        # cross-check needs model executions and stays out of pre-flight).
        from .edits import check_edit

        return check_edit(source, target, runtime_check=False)
    return []
