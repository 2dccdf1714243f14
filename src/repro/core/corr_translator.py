"""Correspondence-based trace translator (Section 5).

The forward kernel (Equation 6) executes the new program ``Q``; whenever
``Q`` makes a random choice ``i`` with a corresponding choice ``f(i)``
present in the old trace ``t`` *and* with an identical support, the old
value is reused; otherwise the choice is sampled from its distribution.
The backward kernel is the symmetric translator from ``Q`` to ``P``
(Equation 7), which makes the weight estimate (Equation 2) reduce to the
paper's Equation 8: factors for corresponding choices and observations
only.

Both of the paper's dynamic-fallback cases are handled: a corresponding
choice that is absent from the old trace (branching) and a corresponding
choice whose support differs between the traces are simply sampled
fresh, and the weight estimate accounts for it automatically because we
evaluate Equation 2 term by term rather than the cancelled form.

Non-corresponding choices are sampled from their prior by default, as in
the paper.  The paper's conclusion points at "exploiting analytically
tractable conditional distributions for non-corresponding choices" as
future work; this implementation supports it: ``forward_proposals`` maps
addresses of ``Q`` to proposal factories used by the forward kernel
instead of the prior (``backward_proposals`` likewise for the backward
kernel), and the Equation-2 weight remains valid for any proposal whose
support covers the prior's.
"""

from __future__ import annotations

import math
from typing import Any, Callable, Dict, Mapping, Optional

import numpy as np

from ..distributions import Distribution
from ..errors import ModelExecutionError, NumericalError, ReproError
from .address import Address, normalize_address
from .correspondence import Correspondence
from .handlers import MissingChoiceError, TraceHandler
from .model import Model
from .trace import ChoiceMap, Trace
from .translator import TraceTranslator, TranslationResult

__all__ = ["CorrespondenceTranslator", "ProposalFn", "ProposalMap"]

NEG_INF = float("-inf")


#: A proposal factory: given the partially built trace and the choice's
#: prior distribution, return the distribution to sample/score from.
ProposalFn = Callable[[Trace, Distribution], Distribution]
ProposalMap = Mapping[Any, ProposalFn]


def _normalize_proposals(proposals: Optional[ProposalMap]) -> Dict[Address, ProposalFn]:
    if not proposals:
        return {}
    return {normalize_address(address): fn for address, fn in proposals.items()}


class _ForwardTranslationHandler(TraceHandler):
    """Executes ``Q``, reusing corresponding choices from the old trace.

    Accumulates ``log k_{P->Q}(u; t)``: the log probability of every
    choice that had to be sampled fresh (Equation 6 — reused choices
    contribute Kronecker-delta factors of one).
    """

    def __init__(
        self,
        rng: np.random.Generator,
        observations: ChoiceMap,
        correspondence: Correspondence,
        source_trace: Trace,
        proposals: Optional[Dict[Address, ProposalFn]] = None,
    ):
        super().__init__()
        self._rng = rng
        self._observations = observations
        self._correspondence = correspondence
        self._source_trace = source_trace
        self._proposals = proposals or {}
        self.forward_log_prob = 0.0
        #: q_address -> p_address for every choice actually reused.
        self.reused: Dict[Address, Address] = {}
        #: Latent choices sampled fresh (non-corresponding, absent from
        #: the old trace, or support mismatch).
        self.sampled_fresh = 0

    def sample(self, dist: Distribution, address) -> Any:
        address = normalize_address(address)
        observed = self._observations.lookup(address)
        if observed is not None:
            return self._record_observed_choice(dist, *observed)

        source_address = self._correspondence.forward(address)
        if source_address is not None and source_address in self._source_trace:
            old_record = self._source_trace.get_record(source_address)
            if dist.support() == old_record.dist.support():
                self.reused[address] = source_address
                return self._record_choice(dist, address, old_record.value)

        proposal_fn = self._proposals.get(address)
        proposal = proposal_fn(self.trace, dist) if proposal_fn is not None else dist
        value = proposal.sample(self._rng)
        self._record_choice(dist, address, value)
        self.forward_log_prob += proposal.log_prob(value)
        self.sampled_fresh += 1
        return value


class _BackwardKernelScorer(TraceHandler):
    """Replays ``P`` from the old trace, scoring the backward kernel.

    ``l_{Q->P}(t; u) = k_{Q->P}(t; u)`` (Equation 7) is the probability
    that the symmetric translator, applied to the translated trace ``u``,
    reproduces the old trace ``t``: choices the reverse translator would
    reuse must match ``t`` exactly (else the kernel probability is zero),
    and all other choices contribute their prior probability of taking
    the value in ``t``.
    """

    def __init__(
        self,
        choices: ChoiceMap,
        observations: ChoiceMap,
        correspondence: Correspondence,
        target_trace: Trace,
        proposals: Optional[Dict[Address, ProposalFn]] = None,
    ):
        super().__init__()
        self._choices = choices
        self._observations = observations
        self._correspondence = correspondence
        self._target_trace = target_trace
        self._proposals = proposals or {}
        self.backward_log_prob = 0.0

    def sample(self, dist: Distribution, address) -> Any:
        address = normalize_address(address)
        observed = self._observations.lookup(address)
        if observed is not None:
            return self._record_observed_choice(dist, *observed)
        if address not in self._choices:
            raise MissingChoiceError(address)
        value = self._choices[address]

        target_address = self._correspondence.backward(address)
        would_reuse = False
        if target_address is not None and target_address in self._target_trace:
            new_record = self._target_trace.get_record(target_address)
            if dist.support() == new_record.dist.support():
                would_reuse = True
                if new_record.value != value:
                    # The reverse translator deterministically copies the
                    # new value, so it can never produce this old trace.
                    self.backward_log_prob = NEG_INF
        if not would_reuse:
            proposal_fn = self._proposals.get(address)
            proposal = proposal_fn(self.trace, dist) if proposal_fn is not None else dist
            self.backward_log_prob += proposal.log_prob(value)
        return self._record_choice(dist, address, value)


class CorrespondenceTranslator(TraceTranslator[Trace]):
    """Trace translator driven by an address correspondence (Section 5).

    Parameters
    ----------
    source:
        The old program ``P`` (a conditioned :class:`Model`).
    target:
        The new program ``Q``.
    correspondence:
        Bijection from target addresses to source addresses
        (``f : F_Q -> F_P``).
    forward_proposals:
        Optional proposal factories for non-corresponding choices of
        ``Q``: the forward kernel samples these addresses from
        ``proposal(partial_trace, prior_dist)`` instead of the prior
        (the future-work extension of Section 9).  Unbiasedness is
        preserved for any proposal whose support covers the prior's.
    backward_proposals:
        The analogous proposals for the backward kernel's regeneration
        of choices of ``P``.
    """

    def __init__(
        self,
        source: Model,
        target: Model,
        correspondence: Correspondence,
        forward_proposals: Optional[ProposalMap] = None,
        backward_proposals: Optional[ProposalMap] = None,
    ):
        self._source = source
        self._target = target
        self.correspondence = correspondence
        self.forward_proposals = _normalize_proposals(forward_proposals)
        self.backward_proposals = _normalize_proposals(backward_proposals)
        #: The :class:`~repro.derive.report.DerivationReport` behind this
        #: translator's correspondence, when it was derived rather than
        #: hand-written (see :meth:`from_derived`); None otherwise.
        self.derivation_report = None
        # Hoisted registry lookups (one per particle otherwise); rebound
        # alongside the sinks in bind_observability.
        self._reused_counter = None
        self._fresh_counter = None

    @classmethod
    def from_derived(
        cls,
        source: Model,
        target: Model,
        *,
        rng=None,
        num_samples: Optional[int] = None,
        observations=None,
        **kwargs: Any,
    ) -> "CorrespondenceTranslator":
        """A translator whose correspondence is derived, not hand-written.

        Runs :func:`repro.derive.derive_correspondence` over the two
        models and builds the translator on the derived map; the
        evidence is kept on the result as ``derivation_report``.
        ``rng``/``num_samples``/``observations`` configure the
        derivation (profiling is deterministic when ``rng`` is omitted);
        remaining keyword arguments (``forward_proposals``,
        ``backward_proposals``) pass through to the constructor.
        Imported lazily so constructing hand-written translators never
        touches the derive subsystem.
        """
        from ..derive import derive_correspondence

        derive_kwargs: Dict[str, Any] = {"rng": rng, "observations": observations}
        if num_samples is not None:
            derive_kwargs["num_samples"] = num_samples
        derivation = derive_correspondence(source, target, **derive_kwargs)
        translator = cls(source, target, derivation.correspondence, **kwargs)
        translator.derivation_report = derivation.report
        return translator

    def bind_observability(self, tracer, metrics) -> None:
        super().bind_observability(tracer, metrics)
        if metrics.enabled:
            self._reused_counter = metrics.counter("translate.choices_reused")
            self._fresh_counter = metrics.counter("translate.choices_fresh")
        else:
            self._reused_counter = None
            self._fresh_counter = None

    @property
    def source(self) -> Model:
        return self._source

    @property
    def target(self) -> Model:
        return self._target

    def validate(self, rng=None, num_samples: Optional[int] = None) -> list:
        """Statically validate this translator's correspondence.

        Convenience front-end for
        :func:`repro.analysis.validate_correspondence`: profiles both
        models and checks the correspondence for bijectivity,
        injectivity, address existence, support compatibility, and
        picklability.  Returns the :class:`repro.analysis.Diagnostic`
        list (empty = clean).  Imported lazily so constructing and using
        translators never touches the analysis subsystem.
        """
        from ..analysis.correspondence import DEFAULT_SAMPLES, validate_correspondence

        return validate_correspondence(
            self._source,
            self._target,
            self.correspondence,
            rng=rng,
            num_samples=DEFAULT_SAMPLES if num_samples is None else num_samples,
        )

    def translate(self, rng: np.random.Generator, trace: Trace) -> TranslationResult:
        """Algorithm 1 for this translator.

        Runs ``Q`` once (forward kernel) and ``P`` once (backward kernel
        scoring); the weight estimate is Equation 2 assembled from its
        four log terms, which equals Equation 8 after cancellation.
        """
        tracer = self.tracer
        trace_on = tracer.enabled
        forward = _ForwardTranslationHandler(
            rng,
            self._target.observations,
            self.correspondence,
            trace,
            self.forward_proposals,
        )
        if trace_on:
            with tracer.span("translate.forward"):
                target_trace = _run_kernel_program(self._target, forward, "forward kernel")
        else:
            target_trace = _run_kernel_program(self._target, forward, "forward kernel")

        backward = _BackwardKernelScorer(
            trace.to_choice_map(),
            self._source.observations,
            self.correspondence,
            target_trace,
            self.backward_proposals,
        )
        if trace_on:
            with tracer.span("translate.backward"):
                replayed_source = _run_kernel_program(
                    self._source, backward, "backward kernel"
                )
        else:
            replayed_source = _run_kernel_program(self._source, backward, "backward kernel")

        if trace_on:
            # Lands on the innermost open span (translate.particle under SMC).
            open_span = tracer.current()
            if open_span is not None:
                open_span.count("choices.reused", len(forward.reused))
                open_span.count("choices.fresh", forward.sampled_fresh)
        if self._reused_counter is not None:
            self._reused_counter.inc(len(forward.reused))
            self._fresh_counter.inc(forward.sampled_fresh)

        components = {
            "target_log_prob": target_trace.log_prob,
            "backward_log_prob": backward.backward_log_prob,
            "source_log_prob": replayed_source.log_prob,
            "forward_log_prob": forward.forward_log_prob,
        }
        log_weight = _combine(components)
        return TranslationResult(target_trace, log_weight, components)

    def regenerate(self, rng: np.random.Generator):
        """Importance-sample a fresh target trace from the prior.

        The fallback used by the ``regenerate`` fault policy of
        :func:`repro.core.smc.infer`: when a particle's translation
        cannot be salvaged, the particle is replaced by a likelihood-
        weighted prior sample of ``Q``, which is properly weighted for
        the target posterior (so Lemma 2's guarantee degrades to plain
        importance sampling for that particle instead of failing).
        Returns ``(trace, log_weight)``.
        """
        return self._target.generate(rng)

    def inverse(self) -> "CorrespondenceTranslator":
        """The symmetric translator from ``Q`` back to ``P``."""
        return CorrespondenceTranslator(
            self._target,
            self._source,
            self.correspondence.inverse(),
            forward_proposals=self.backward_proposals,
            backward_proposals=self.forward_proposals,
        )


def _run_kernel_program(model: Model, handler, role: str) -> Trace:
    """Run one side of Algorithm 1, structuring unexpected failures.

    Errors already in the :mod:`repro.errors` taxonomy (missing choices,
    impossible constraints, ``EvalError`` from the structured language)
    pass through unchanged; anything else the model function raises is
    wrapped in :class:`~repro.errors.ModelExecutionError` so the SMC
    fault policies can contain it to the affected particle.
    """
    try:
        return model.run(handler)
    except ReproError:
        raise
    except Exception as error:
        raise ModelExecutionError(
            f"{role} execution of {model.name!r} failed: {error!r}"
        ) from error


def _combine(components: dict) -> float:
    """``log ŵ`` from the four log terms of Equation 2."""
    numerator = components["target_log_prob"] + components["backward_log_prob"]
    denominator = components["source_log_prob"] + components["forward_log_prob"]
    if math.isnan(numerator):
        raise NumericalError(
            f"trace translation produced a NaN weight numerator: {components!r}"
        )
    if numerator == NEG_INF:
        return NEG_INF
    if denominator == NEG_INF or math.isnan(denominator):
        raise NumericalError(
            "input trace has zero probability under the source program; "
            "it cannot have come from the source posterior"
        )
    return numerator - denominator
