"""Deterministic fault injection for chaos-testing the inference engine.

The hardened SMC loop (:mod:`repro.core.smc`) promises that one bad
particle cannot take down the collection.  This module provides the
adversary that promise is tested against: wrappers around any
:class:`~repro.core.translator.TraceTranslator`, MCMC
:data:`~repro.core.mcmc.Kernel`, or
:class:`~repro.distributions.Distribution` that inject structured
exceptions, ``NaN`` log weights, and ``-inf`` log weights — either at a
seeded random rate (reproducible across runs) or at specific call
indices (reproducible across *policies*, for byte-for-byte comparisons
of ``fail_fast`` against the containing policies).

All wrappers share one :class:`FaultInjector`, which owns the decision
stream and the bookkeeping: ``injector.calls`` counts every intercepted
call and ``injector.injected`` counts injections by kind, so chaos tests
can assert that the fault counters reported in
:class:`~repro.core.smc.SMCStats` are exact.
"""

from __future__ import annotations

from collections import Counter
from typing import Any, Callable, Mapping, Optional, Tuple

import numpy as np

from ..core.mcmc import Kernel
from ..core.translator import TraceTranslator, TranslationResult
from ..distributions.base import Distribution, Support
from ..errors import TranslationError

__all__ = [
    "FAULT_KINDS",
    "FaultInjector",
    "FaultyTranslator",
    "faulty_kernel",
    "FaultyDistribution",
]

NAN = float("nan")
NEG_INF = float("-inf")

#: ``error`` raises an exception, ``nan`` poisons the log weight with
#: ``NaN``, ``neg_inf`` forces a zero-probability (``-inf``) log weight.
FAULT_KINDS = ("error", "nan", "neg_inf")


def _default_error() -> Exception:
    return TranslationError("injected fault")


class FaultInjector:
    """A seeded source of fault decisions shared by the wrappers.

    Parameters
    ----------
    seed:
        Seed of the private random stream used for rate-based
        injection.  The stream is independent of the inference RNG, so
        injecting faults never perturbs which random choices the
        underlying sampler would have made on the surviving calls.
    error_rate / nan_rate / neg_inf_rate:
        Per-call probability of injecting each fault kind.  Rates are
        tried in that order and must sum to at most 1.
    at_calls:
        Mapping from 0-based call index to a fault kind, for precisely
        scripted scenarios (e.g. "the 4th translation raises").  Takes
        precedence over the rates at those indices.
    error_factory:
        Zero-argument callable building the exception instance for
        ``error`` faults; defaults to
        ``TranslationError("injected fault")``.

    Attributes
    ----------
    calls:
        Number of intercepted calls so far (across all wrappers sharing
        this injector).
    injected:
        ``collections.Counter`` of injections by fault kind.
    """

    def __init__(
        self,
        seed: int = 0,
        error_rate: float = 0.0,
        nan_rate: float = 0.0,
        neg_inf_rate: float = 0.0,
        at_calls: Optional[Mapping[int, str]] = None,
        error_factory: Callable[[], Exception] = _default_error,
    ):
        rates = {"error": error_rate, "nan": nan_rate, "neg_inf": neg_inf_rate}
        for kind, rate in rates.items():
            if not 0.0 <= rate <= 1.0:
                raise ValueError(f"{kind}_rate must be in [0, 1], got {rate!r}")
        if sum(rates.values()) > 1.0:
            raise ValueError("fault rates must sum to at most 1")
        self._rates = rates
        self._at_calls = dict(at_calls or {})
        for index, kind in self._at_calls.items():
            if kind not in FAULT_KINDS:
                raise ValueError(
                    f"unknown fault kind {kind!r} at call {index}; "
                    f"choose from {list(FAULT_KINDS)}"
                )
        self._rng = np.random.default_rng(seed)
        self.error_factory = error_factory
        self.calls = 0
        self.injected: Counter = Counter()

    def decide(self) -> Optional[str]:
        """Consume one call slot; return the fault kind to inject or None."""
        index = self.calls
        self.calls += 1
        kind = self._at_calls.get(index)
        if kind is None:
            # One uniform draw per call keeps the stream aligned across
            # kinds: changing one rate never reshuffles later decisions.
            draw = self._rng.random()
            cumulative = 0.0
            for candidate, rate in self._rates.items():
                cumulative += rate
                if draw < cumulative:
                    kind = candidate
                    break
        if kind is not None:
            self.injected[kind] += 1
        return kind

    def raise_injected(self) -> Exception:
        return self.error_factory()

    def total_injected(self) -> int:
        return sum(self.injected.values())


class FaultyTranslator(TraceTranslator):
    """Wrap a translator, injecting faults into ``translate`` calls.

    ``error`` faults raise before the inner translator runs; ``nan`` and
    ``neg_inf`` faults run the inner translator and then corrupt the
    returned log weight (the trace itself is genuine, which mirrors the
    realistic failure where only the arithmetic collapses).

    The ``regenerate`` method of the inner translator (used by the
    ``regenerate`` fault policy) is proxied untouched: the chaos harness
    attacks translation, not the degradation path, unless you wrap that
    path explicitly via ``fault_regenerate=True``.
    """

    def __init__(
        self,
        inner: TraceTranslator,
        injector: FaultInjector,
        fault_regenerate: bool = False,
    ):
        self._inner = inner
        self._injector = injector
        self._fault_regenerate = fault_regenerate

    @property
    def source(self) -> Any:
        return self._inner.source

    @property
    def target(self) -> Any:
        return self._inner.target

    @property
    def injector(self) -> FaultInjector:
        return self._injector

    def sync_calls(self, index: int) -> None:
        """Re-align the injector's call counter to a global particle index.

        Executor workers (:mod:`repro.parallel.worker`) call this before
        translating particle ``index``, so an ``at_calls`` fault schedule
        addresses particles by their *global* position — making scripted
        chaos runs identical under every backend, worker count, and
        chunking (a process worker's pickled injector copy would
        otherwise restart counting at zero).
        """
        self._injector.calls = index

    def translate(self, rng: np.random.Generator, trace: Any) -> TranslationResult:
        kind = self._injector.decide()
        if kind == "error":
            raise self._injector.raise_injected()
        result = self._inner.translate(rng, trace)
        if kind == "nan":
            return TranslationResult(result.trace, NAN, dict(result.components))
        if kind == "neg_inf":
            return TranslationResult(result.trace, NEG_INF, dict(result.components))
        return result

    def regenerate(self, rng: np.random.Generator) -> Tuple[Any, float]:
        inner_regenerate = getattr(self._inner, "regenerate", None)
        if inner_regenerate is None:
            raise AttributeError(
                f"{type(self._inner).__name__} has no regenerate(rng) method"
            )
        if self._fault_regenerate:
            kind = self._injector.decide()
            if kind == "error":
                raise self._injector.raise_injected()
            trace, log_weight = inner_regenerate(rng)
            if kind == "nan":
                return trace, NAN
            if kind == "neg_inf":
                return trace, NEG_INF
            return trace, log_weight
        return inner_regenerate(rng)


def faulty_kernel(inner: Kernel, injector: FaultInjector) -> Kernel:
    """Wrap an MCMC kernel, raising injected errors at seeded calls.

    Only ``error`` faults apply to kernels (a kernel returns a trace,
    not a weight); ``nan``/``neg_inf`` decisions at kernel calls raise
    too, so shared-injector call accounting stays exact.
    """

    def kernel(rng: np.random.Generator, trace: Any) -> Any:
        if injector.decide() is not None:
            raise injector.raise_injected()
        return inner(rng, trace)

    return kernel


class FaultyDistribution(Distribution):
    """Wrap a distribution, injecting faults into ``sample``/``log_prob``.

    ``error`` faults raise (as a model-execution failure would); ``nan``
    faults return a ``NaN`` sample or log probability; ``neg_inf``
    faults make ``log_prob`` return ``-inf`` (and are a no-op for
    ``sample``, which has no failure value of that shape).  Equality and
    support delegate to the inner distribution so reuse decisions are
    unaffected.
    """

    def __init__(self, inner: Distribution, injector: FaultInjector):
        self.inner = inner
        self._injector = injector

    def sample(self, rng: np.random.Generator) -> Any:
        kind = self._injector.decide()
        if kind == "error":
            raise self._injector.raise_injected()
        if kind == "nan":
            return NAN
        return self.inner.sample(rng)

    def log_prob(self, value: Any) -> float:
        kind = self._injector.decide()
        if kind == "error":
            raise self._injector.raise_injected()
        if kind == "nan":
            return NAN
        if kind == "neg_inf":
            return NEG_INF
        return self.inner.log_prob(value)

    def support(self) -> Support:
        return self.inner.support()

    def is_discrete(self) -> bool:
        return self.inner.is_discrete()

    def __eq__(self, other: Any) -> bool:
        if isinstance(other, FaultyDistribution):
            return self.inner == other.inner
        return self.inner == other

    def __hash__(self) -> int:
        return hash(self.inner)

    def __repr__(self) -> str:
        return f"FaultyDistribution({self.inner!r})"
