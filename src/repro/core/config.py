"""The unified inference configuration (:class:`InferenceConfig`).

Before this module, every entry point grew its own ad-hoc keyword
sprawl — ``infer(translator, traces, rng, mcmc_kernel, resample,
ess_threshold, resampling_scheme, use_weights, fault_policy)`` — and the
experiment runners timed themselves with scattered ``perf_counter``
calls.  :class:`InferenceConfig` is the single keyword-only surface for
everything that shapes an inference run:

* **statistical knobs** — resampling policy/threshold/scheme, the
  weight-ablation switch, the RNG seed;
* **robustness** — the per-particle :class:`FaultPolicy` (PR 1);
* **observability** — the span tracer, metrics registry, and profiling
  hooks of :mod:`repro.observability`, all defaulting to null
  implementations with no hot-path cost;
* **execution** — the particle executor backend (``executor`` /
  ``workers``, :mod:`repro.parallel`) that parallelizes the translate
  phase of Algorithm 2 across threads or processes.

The config validates eagerly on construction, so a typo'd scheme fails
in microseconds instead of minutes into a translation run, and it is
immutable (frozen) so one config can be shared across steps, sequences,
and threads; use :meth:`InferenceConfig.replace` for variations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Any, Callable, Optional, Tuple, Union

import numpy as np

from ..observability import NULL_HOOKS, NULL_METRICS, NULL_TRACER, Hooks, MetricsRegistry, Tracer
from .weighted import RESAMPLING_SCHEMES

__all__ = ["FaultPolicy", "InferenceConfig", "RegenerateFn"]

#: A from-scratch sampler for the target posterior: ``fn(rng) ->
#: (trace, log_weight)`` with the trace properly weighted by
#: ``log_weight`` (e.g. likelihood weighting from the prior).
RegenerateFn = Callable[[np.random.Generator], Tuple[Any, float]]


@dataclass
class FaultPolicy:
    """What :func:`repro.core.smc.infer` does when translating one particle fails.

    Parameters
    ----------
    mode:
        ``"fail_fast"`` re-raises the first recoverable error (exactly
        the pre-policy behaviour); ``"drop"`` gives the failed particle
        ``-inf`` weight; ``"regenerate"`` retries and then falls back to
        importance sampling the particle from the prior.
    max_retries:
        Extra translation attempts per particle before ``regenerate``
        falls back to prior regeneration (ignored by the other modes —
        ``drop`` never retries, ``fail_fast`` never catches).
    regenerate_fn:
        Override for the from-scratch sampler used by ``regenerate``;
        defaults to the translator's own ``regenerate`` method.
    """

    MODES = ("fail_fast", "drop", "regenerate")

    mode: str = "fail_fast"
    max_retries: int = 2
    regenerate_fn: Optional[RegenerateFn] = field(default=None, repr=False)

    def __post_init__(self) -> None:
        if self.mode not in self.MODES:
            raise ValueError(
                f"unknown fault-policy mode {self.mode!r}; "
                f"choose from {list(self.MODES)}"
            )
        if self.max_retries < 0:
            raise ValueError("max_retries must be non-negative")

    @classmethod
    def coerce(cls, value: Union[str, "FaultPolicy", None]) -> "FaultPolicy":
        """Accept a policy object, a mode name, or None (= fail_fast)."""
        if value is None:
            return cls()
        if isinstance(value, cls):
            return value
        if isinstance(value, str):
            return cls(mode=value)
        raise TypeError(f"fault_policy must be a FaultPolicy or mode name, got {value!r}")

    @property
    def contains_faults(self) -> bool:
        return self.mode != "fail_fast"


def _validate_parameters(resample: str, ess_threshold: float, resampling_scheme: str) -> None:
    """Up-front validation with actionable messages.

    Catching a bad ``ess_threshold`` or scheme here — rather than deep
    inside ``resample`` after minutes of translation — is the difference
    between an instant traceback and a wasted run.
    """
    if resample not in ("never", "always", "adaptive"):
        raise ValueError(
            f"unknown resample policy {resample!r}; "
            "choose 'never', 'always', or 'adaptive'"
        )
    threshold = float(ess_threshold)
    if math.isnan(threshold) or not 0.0 < threshold <= 1.0:
        raise ValueError(
            f"ess_threshold must be in (0, 1], got {ess_threshold!r}; it is the "
            "fraction of the particle count below which adaptive resampling triggers"
        )
    if resampling_scheme not in RESAMPLING_SCHEMES:
        raise ValueError(
            f"unknown resampling scheme {resampling_scheme!r}; "
            f"choose from {sorted(RESAMPLING_SCHEMES)}"
        )


@dataclass(frozen=True)
class InferenceConfig:
    """Keyword-only configuration for ``infer``/``infer_sequence``.

    Parameters
    ----------
    resample:
        ``"never"``, ``"always"``, or ``"adaptive"`` (resample when the
        normalized ESS falls below ``ess_threshold``).  ``infer`` keeps
        its historical default of ``"never"``; ``infer_sequence``
        defaults to ``"adaptive"`` when no config is given.
    ess_threshold:
        Fraction of the particle count, in ``(0, 1]``, below which
        adaptive resampling triggers.
    resampling_scheme:
        One of :data:`repro.core.weighted.RESAMPLING_SCHEMES`.
    use_weights:
        When False, translator weight increments are discarded — the
        paper's "Incremental (no weights)" ablation, which converges to
        the *wrong* posterior and is included for Figures 8-9.
    fault_policy:
        A :class:`FaultPolicy` or mode name; see
        :mod:`repro.core.smc`'s module docstring.
    seed:
        Convenience RNG seed: when the ``rng`` argument of ``infer`` is
        omitted, the generator is built from this seed.  An explicit
        ``rng`` always wins.
    executor:
        Particle-execution backend for the translate phase: ``None``
        (the default) keeps the legacy inline loop fed by the shared
        step RNG; ``"serial"`` or ``"process"`` dispatch through
        :mod:`repro.parallel` with per-particle RNG streams spawned via
        :class:`numpy.random.SeedSequence` (both produce byte-identical
        collections for a fixed seed); a
        :class:`~repro.parallel.ParticleExecutor` instance is used
        as-is (and owns its pool lifecycle).
    workers:
        Worker count for ``executor="process"`` (defaults to the
        machine's core count).  Ignored when ``executor`` is ``None``,
        ``"serial"`` (always one chunk), or an instance.
    tracer / metrics / hooks:
        The observability sinks (:mod:`repro.observability`).  All
        default to the null implementations, which are contractually
        free on hot paths and leave the RNG stream untouched.
    checkpoint_dir:
        When set, :func:`~repro.core.smc.infer_sequence` (and the
        annealing drivers) snapshot the run into this directory through
        :class:`repro.store.CheckpointManager` — atomically, with a
        checksum, capturing the collection *and* the RNG generator state
        so a resumed run continues byte-identically.  ``None`` (the
        default) keeps checkpointing completely out of the hot path.
    checkpoint_every:
        Snapshot cadence in steps (``1`` = after every step).  The final
        step of a sequence is always checkpointed regardless of cadence.
    validate:
        Opt-in static pre-flight (:mod:`repro.analysis`): ``"off"`` (the
        default) skips it entirely; ``"warn"`` runs the config lint and
        translator validation once per ``infer``/``infer_sequence`` call
        and reports findings via :mod:`warnings`; ``"error"`` raises
        :class:`repro.errors.ValidationError` on error-severity findings
        before any particle work starts.  Never evaluated per particle
        or per step — the hot path is untouched.
    collection:
        Particle-population representation (keyword-only).  ``"object"``
        (the default) keeps one :class:`~repro.core.trace.Trace` object
        per particle; ``"columnar"`` stores the population address-major
        (:class:`repro.core.columnar.ColumnarCollection`) and runs each
        SMC step vectorized — one batched density evaluation per
        address instead of one Python call per particle.  Steps the
        columnar runtime cannot represent (custom proposals, MCMC
        rejuvenation, fault containment, structurally heterogeneous
        populations) transparently spill to the object path for that
        step; parameter-only edits are bitwise identical between the two
        modes.
    """

    #: Executor backend names accepted as strings; the one definition,
    #: re-exported as :data:`repro.parallel.EXECUTOR_BACKENDS` (the
    #: config module never imports the parallel package).
    EXECUTOR_BACKENDS = ("serial", "process")

    resample: str = "never"
    ess_threshold: float = 0.5
    resampling_scheme: str = "multinomial"
    use_weights: bool = True
    fault_policy: Union[str, FaultPolicy, None] = "fail_fast"
    seed: Optional[int] = None
    executor: Union[str, Any, None] = field(default=None, compare=False)
    workers: Optional[int] = None
    tracer: Tracer = field(default=NULL_TRACER, repr=False, compare=False)
    metrics: MetricsRegistry = field(default=NULL_METRICS, repr=False, compare=False)
    hooks: Hooks = field(default=NULL_HOOKS, repr=False, compare=False)
    checkpoint_dir: Optional[str] = None
    checkpoint_every: int = 1
    validate: str = "off"
    collection: str = field(default="object", kw_only=True)

    #: Accepted values for :attr:`validate`.
    VALIDATE_MODES = ("off", "warn", "error")

    #: Accepted values for :attr:`collection`.
    COLLECTION_MODES = ("object", "columnar")

    def __post_init__(self) -> None:
        _validate_parameters(self.resample, self.ess_threshold, self.resampling_scheme)
        # Normalize eagerly: downstream code always sees a FaultPolicy,
        # and a bad mode string fails here rather than mid-run.
        object.__setattr__(self, "fault_policy", FaultPolicy.coerce(self.fault_policy))
        if isinstance(self.executor, str):
            if self.executor not in self.EXECUTOR_BACKENDS:
                raise ValueError(
                    f"unknown executor backend {self.executor!r}; "
                    f"choose from {list(self.EXECUTOR_BACKENDS)} (or pass a "
                    "ParticleExecutor instance)"
                )
        elif self.executor is not None and not hasattr(self.executor, "map_translate"):
            raise TypeError(
                "executor must be None, a backend name, or an object with a "
                f"map_translate method, got {self.executor!r}"
            )
        if self.workers is not None:
            workers = int(self.workers)
            if workers < 1:
                raise ValueError(f"workers must be >= 1, got {self.workers!r}")
            object.__setattr__(self, "workers", workers)
        if self.checkpoint_dir is not None and not isinstance(self.checkpoint_dir, str):
            raise TypeError(
                f"checkpoint_dir must be a directory path string or None, "
                f"got {self.checkpoint_dir!r}"
            )
        every = int(self.checkpoint_every)
        if every < 1:
            raise ValueError(
                f"checkpoint_every must be >= 1, got {self.checkpoint_every!r}"
            )
        object.__setattr__(self, "checkpoint_every", every)
        if self.validate not in self.VALIDATE_MODES:
            raise ValueError(
                f"unknown validate mode {self.validate!r}; "
                f"choose from {list(self.VALIDATE_MODES)}"
            )
        if self.collection not in self.COLLECTION_MODES:
            raise ValueError(
                f"unknown collection mode {self.collection!r}; "
                f"choose from {list(self.COLLECTION_MODES)}"
            )

    def replace(self, **changes: Any) -> "InferenceConfig":
        """A copy with the given fields replaced (re-validated)."""
        return replace(self, **changes)

    def rng(self) -> np.random.Generator:
        """A generator from ``seed`` (fresh entropy when seed is None)."""
        return np.random.default_rng(self.seed)

    @property
    def observability_enabled(self) -> bool:
        """True when any non-null sink is attached."""
        return self.tracer.enabled or self.metrics.enabled or self.hooks is not NULL_HOOKS
