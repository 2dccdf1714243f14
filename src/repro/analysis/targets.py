"""The registry of bundled analysis targets (`repro lint bundled`).

Everything the repository ships — the paper's structured-language
programs, the edit pairs they form, the embedded-model correspondences
of the experiments, and a handful of representative inference configs —
is registered here so one command (and one CI job) can sweep the whole
surface:

    repro lint bundled --strict --format json

Each target is a name plus a thunk producing diagnostics; thunks are
lazy so listing the registry costs nothing and a failure in one target
(reported as ``target-failed``) never hides the others.
"""

from __future__ import annotations

from typing import Callable, Dict, List

from .diagnostics import Diagnostic

__all__ = ["bundled_targets", "lint_bundled"]

#: name -> thunk returning that target's diagnostics.
TargetRegistry = Dict[str, Callable[[], List[Diagnostic]]]


def _lang_program(source_name: str, parameters=(), array_parameters=()):
    def run() -> List[Diagnostic]:
        from ..lang import programs as lang_programs
        from ..lang.parser import parse_program
        from .programs import extended_check_program

        program = parse_program(getattr(lang_programs, source_name))
        return extended_check_program(program, parameters, array_parameters)

    return run


def _gmm_program() -> List[Diagnostic]:
    from ..lang.parser import parse_program
    from ..lang.programs import gmm_source
    from .programs import extended_check_program

    program = parse_program(gmm_source(3))
    return extended_check_program(
        program, parameters=("sigma", "n"), array_parameters=("ys",)
    )


def _edit_pair(old_name: str, new_name: str):
    def run() -> List[Diagnostic]:
        from ..graph.diff import align_labels
        from ..lang import programs as lang_programs
        from ..lang.parser import parse_program
        from .correspondence import validate_label_map
        from .edits import check_edit

        old = parse_program(getattr(lang_programs, old_name))
        new = parse_program(getattr(lang_programs, new_name))
        diagnostics = validate_label_map(old, new, align_labels(old, new))
        diagnostics.extend(check_edit(old, new))
        return diagnostics

    return run


def _burglary_correspondence() -> List[Diagnostic]:
    from ..experiments.burglary import (
        burglary_correspondence,
        burglary_original,
        burglary_refined,
    )
    from .correspondence import validate_correspondence

    return validate_correspondence(
        burglary_original(), burglary_refined(), burglary_correspondence()
    )


def _regression_setup():
    """The fig. 8 edit pair: ``(source, target, reference_correspondence)``.

    Shared by the hand-written ``correspondence:regression`` target and
    the ``derive:regression`` gate (:mod:`repro.derive.gate`).
    """
    from ..regression.programs import (
        NoOutlierModelParams,
        OutlierModelParams,
        coefficient_correspondence,
        no_outlier_model,
        outlier_model,
    )

    xs = (0.0, 1.0, 2.0)
    ys = (0.1, 1.1, 1.9)
    return (
        no_outlier_model(NoOutlierModelParams(), xs, ys),
        outlier_model(OutlierModelParams(), xs, ys),
        coefficient_correspondence(),
    )


def _regression_correspondence() -> List[Diagnostic]:
    from .correspondence import validate_correspondence

    return validate_correspondence(*_regression_setup())


def _hmm_setup():
    """The HMM order-swap pair: ``(source, target, reference_correspondence)``.

    Shared by the hand-written ``correspondence:hmm`` target and the
    ``derive:hmm`` gate (:mod:`repro.derive.gate`).
    """
    import numpy as np

    from ..hmm.model import FirstOrderParams, SecondOrderParams
    from ..hmm.programs import (
        first_order_model,
        hidden_state_correspondence,
        second_order_model,
    )

    log_initial = np.log([0.5, 0.5])
    log_observation = np.log([[0.8, 0.2], [0.2, 0.8]])
    first = FirstOrderParams(
        log_initial=log_initial,
        log_transition=np.log([[0.7, 0.3], [0.3, 0.7]]),
        log_observation=log_observation,
    )
    second = SecondOrderParams(
        log_initial=log_initial,
        log_first_transition=np.log([[0.7, 0.3], [0.3, 0.7]]),
        log_transition=np.log(
            [
                [[0.6, 0.4], [0.4, 0.6]],
                [[0.5, 0.5], [0.3, 0.7]],
            ]
        ),
        log_observation=log_observation,
    )
    observations = (0, 1, 0)
    return (
        first_order_model(first, observations),
        second_order_model(second, observations),
        hidden_state_correspondence(),
    )


def _hmm_correspondence() -> List[Diagnostic]:
    from .correspondence import validate_correspondence

    return validate_correspondence(*_hmm_setup())


def _derive_gate(pair_name: str):
    def run() -> List[Diagnostic]:
        from ..derive.gate import BUNDLED_PAIRS, check_derivation

        source, target, reference = BUNDLED_PAIRS[pair_name]()
        return check_derivation(source, target, reference)

    return run


def _static_profile_pair(pair_name: str):
    """Static-profiler target: profile both models of a bundled pair,
    gate static-vs-runtime agreement, and lint the columnar plan."""

    def run() -> List[Diagnostic]:
        from ..core.corr_translator import CorrespondenceTranslator
        from .static_profile import columnar_plan_lint, static_profile_model

        if pair_name == "burglary":
            from ..experiments.burglary import (
                burglary_correspondence,
                burglary_original,
                burglary_refined,
            )

            source, target, reference = (
                burglary_original(),
                burglary_refined(),
                burglary_correspondence(),
            )
        else:
            from ..derive.gate import BUNDLED_PAIRS

            source, target, reference = BUNDLED_PAIRS[pair_name]()
        diagnostics = static_profile_model(source)
        diagnostics.extend(static_profile_model(target))
        diagnostics.extend(
            columnar_plan_lint(
                CorrespondenceTranslator(source, target, reference)
            )
        )
        return diagnostics

    return run


def _static_profile_lang(source_name: str):
    """Static-profiler target for one structured-language program."""

    def run() -> List[Diagnostic]:
        from ..lang import programs as lang_programs
        from ..lang.interp import lang_model
        from ..lang.parser import parse_program
        from .static_profile import static_profile_model

        program = parse_program(getattr(lang_programs, source_name))
        model = lang_model(program, name=source_name.lower())
        return static_profile_model(model)

    return run


def _config(name: str, **kwargs):
    def run() -> List[Diagnostic]:
        from ..core.config import InferenceConfig
        from .config_lint import lint_config

        return lint_config(InferenceConfig(**kwargs))

    return run


def _service_config(name: str, **kwargs):
    def run() -> List[Diagnostic]:
        from ..service.config import ServiceConfig
        from .config_lint import lint_service_config

        return lint_service_config(ServiceConfig(**kwargs))

    return run


def bundled_targets() -> TargetRegistry:
    """Every shipped program, edit pair, correspondence, and config."""
    registry: TargetRegistry = {}
    for name in (
        "BURGLARY_ORIGINAL",
        "BURGLARY_REFINED",
        "FIGURE3",
        "FIGURE5_P",
        "FIGURE5_Q",
        "FIGURE6_GEOMETRIC",
        "FIGURE7",
    ):
        registry[f"program:{name.lower()}"] = _lang_program(name)
    registry["program:gmm"] = _gmm_program
    registry["edit:burglary"] = _edit_pair("BURGLARY_ORIGINAL", "BURGLARY_REFINED")
    registry["edit:figure5"] = _edit_pair("FIGURE5_P", "FIGURE5_Q")
    registry["correspondence:burglary"] = _burglary_correspondence
    registry["correspondence:regression"] = _regression_correspondence
    registry["correspondence:hmm"] = _hmm_correspondence
    registry["derive:hmm"] = _derive_gate("hmm")
    registry["derive:regression"] = _derive_gate("regression")
    registry["derive:gmm"] = _derive_gate("gmm")
    for pair in ("burglary", "gmm", "hmm", "regression"):
        registry[f"static-profile:{pair}"] = _static_profile_pair(pair)
    for name in (
        "FIGURE3",
        "FIGURE5_P",
        "FIGURE5_Q",
        "FIGURE6_GEOMETRIC",
        "FIGURE7",
    ):
        registry[f"static-profile:{name.lower()}"] = _static_profile_lang(name)
    registry["config:default"] = _config("default")
    registry["config:adaptive-smc"] = _config(
        "adaptive-smc",
        resample="adaptive",
        ess_threshold=0.5,
        fault_policy="drop",
        executor="process",
        workers=2,
    )
    registry["config:checkpointed"] = _config(
        "checkpointed",
        resample="always",
        checkpoint_dir="checkpoints",
        checkpoint_every=5,
    )
    registry["config:service-durable"] = _service_config(
        "service-durable",
        store_dir="service-store",
        expected_step_latency_s=0.5,
    )
    return registry


def lint_bundled() -> Dict[str, List[Diagnostic]]:
    """Run every bundled target; a crashing target becomes a finding."""
    results: Dict[str, List[Diagnostic]] = {}
    for name, thunk in sorted(bundled_targets().items()):
        try:
            diagnostics = thunk()
        except Exception as error:  # pragma: no cover - registry defect
            diagnostics = [
                Diagnostic(
                    "error",
                    f"analysis of bundled target {name!r} crashed "
                    f"({type(error).__name__}: {error})",
                    code="target-failed",
                    pass_name="targets",
                )
            ]
        results[name] = [d.with_context(target=name) for d in diagnostics]
    return results
