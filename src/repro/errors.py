"""Structured exception taxonomy for the inference engine.

The paper's Algorithm 2 assumes every trace translation succeeds, but in
practice translation fails in structured ways: a bad correspondence
leaves the backward kernel without a required choice
(:class:`~repro.core.handlers.MissingChoiceError`), supports turn out to
be incompatible in a way that cannot be repaired by fresh sampling
(Section 5.1), the dependency-graph engine hits an evaluation error, or
the arithmetic collapses (``NaN``/``-inf`` weights, total ESS
degeneracy).

This module gives every failure mode a place in one hierarchy rooted at
:class:`ReproError`, so callers — most importantly the fault-isolated
SMC loop in :mod:`repro.core.smc` — can distinguish *recoverable*
per-particle failures from *fatal* collection-level ones:

* :class:`TranslationError` — a single trace translation failed; the
  rest of the particle collection is unaffected.
* :class:`SupportError` — a support incompatibility that the dynamic
  fallback of Section 5.1 cannot absorb (e.g. a Gibbs update over an
  infinite support).
* :class:`ModelExecutionError` — the model program itself raised while
  executing (unbound variable, impossible constraint, division by
  zero in the structured language, ...).
* :class:`NumericalError` — a ``NaN`` or unexpected ``±inf`` appeared in
  a weight or log probability.
* :class:`DegeneracyError` — a weight vector carries no information:
  every entry is zero.  Raised per-particle (e.g. a Gibbs conditional
  with no mass) it is contained like any :class:`NumericalError`;
  raised by the collection-level guard in :mod:`repro.core.smc` it is
  fatal, because no per-particle policy can recover a fully collapsed
  collection.

Several classes also inherit from the builtin exception previously
raised at the same call sites (``ValueError``, ``KeyError``,
``RuntimeError``), so pre-existing ``except`` clauses keep working.
"""

from __future__ import annotations

from typing import Any, Optional, Sequence

__all__ = [
    "ReproError",
    "TranslationError",
    "SupportError",
    "ModelExecutionError",
    "NumericalError",
    "DegeneracyError",
    "StoreError",
    "CodecError",
    "SchemaVersionError",
    "CheckpointCorruptionError",
    "SessionError",
    "ValidationError",
    "PicklingError",
    "ServiceError",
    "BadRequestError",
    "QuotaExceededError",
    "OverloadedError",
    "DeadlineExceededError",
    "ServiceUnavailableError",
    "RECOVERABLE_ERRORS",
]


class ReproError(Exception):
    """Root of every structured error raised by this package."""


class TranslationError(ReproError):
    """One trace translation (Algorithm 1) failed.

    Recoverable: the SMC loop can drop or regenerate the affected
    particle without touching the rest of the collection.
    """


class SupportError(ReproError, ValueError):
    """A support incompatibility that cannot be repaired dynamically.

    The Section 5.1 fallback (sample the choice fresh) absorbs support
    *mismatches* between corresponding choices; this error is for the
    cases where no fallback exists — e.g. enumerating an infinite
    support, or a proposal whose support does not cover the prior's.
    """


class ModelExecutionError(ReproError):
    """The model program raised while executing.

    Covers impossible constraints in the embedded PPL and evaluation
    errors (unbound variables, bad indexing, division by zero) in the
    structured language / dependency-graph engine.
    """


class NumericalError(ReproError, ValueError):
    """A ``NaN`` or unexpected ``±inf`` appeared in a weight or log prob.

    ``-inf`` log weights are legitimate (a zero-probability trace);
    ``NaN`` and ``+inf`` never are, and this error stops them from
    silently poisoning normalization and resampling downstream.
    """


class DegeneracyError(NumericalError):
    """Total weight collapse: every particle carries zero weight.

    Attributes
    ----------
    num_particles:
        Size of the degenerate collection, when known.
    step:
        Index of the Algorithm-2 step at which the collapse was
        detected, when raised from :func:`repro.core.smc.infer_sequence`.
    """

    def __init__(
        self,
        message: str,
        *,
        num_particles: Optional[int] = None,
        step: Optional[int] = None,
    ):
        super().__init__(message)
        self.num_particles = num_particles
        self.step = step

    def __str__(self) -> str:
        base = super().__str__()
        if self.step is not None:
            return f"{base} (at SMC step {self.step})"
        return base


class StoreError(ReproError):
    """Root of the persistence layer's failures (:mod:`repro.store`).

    Deliberately *not* in :data:`RECOVERABLE_ERRORS`: a storage failure
    concerns the run's durable state, not one particle, so the
    fault-isolated SMC loop must never swallow it.
    """


class CodecError(StoreError, ValueError):
    """A value could not be serialized or a document could not be decoded."""


class SchemaVersionError(CodecError):
    """A stored document was written by a *newer* library version, or in
    the retired binary framing (``found`` is then None).

    Older schemas are migrated forward; newer ones are rejected so a
    downgraded library never half-reads state it does not understand.
    """

    def __init__(self, message: str, *, found: Optional[int] = None,
                 supported: Optional[int] = None):
        super().__init__(message)
        self.found = found
        self.supported = supported


class CheckpointCorruptionError(StoreError):
    """A checkpoint file failed its checksum or is truncated.

    ``CheckpointManager.load_latest`` treats this as a skippable
    condition (fall back to the previous checkpoint); loading a specific
    step by hand surfaces it directly.
    """


class SessionError(StoreError):
    """An inference-session operation failed (unknown id, no store, ...)."""


class ValidationError(ReproError):
    """Static pre-flight validation found error-severity diagnostics.

    Raised by the ``InferenceConfig(validate="error")`` pre-flight of
    :func:`repro.core.smc.infer` before any particle work starts.
    Deliberately *not* in :data:`RECOVERABLE_ERRORS`: a bad
    correspondence or config concerns the whole run, not one particle.

    Attributes
    ----------
    diagnostics:
        The :class:`repro.analysis.Diagnostic` findings that triggered
        the failure (errors first).
    """

    def __init__(self, message: str, diagnostics: Sequence[Any] = ()):
        super().__init__(message)
        self.diagnostics = list(diagnostics)

    def __str__(self) -> str:
        base = super().__str__()
        if not self.diagnostics:
            return base
        details = "; ".join(str(d) for d in self.diagnostics[:5])
        more = len(self.diagnostics) - 5
        suffix = f"; ... {more} more" if more > 0 else ""
        return f"{base}: {details}{suffix}"


class PicklingError(ValidationError, RuntimeError):
    """An object graph cannot be shipped to process workers.

    Raised by the :class:`~repro.parallel.ProcessExecutor` pre-flight
    (and the config lint) *before* any chunk is submitted, naming the
    offending attribute path — e.g.
    ``translator.correspondence._forward.predicate`` for a lambda-based
    intensional correspondence.  Inherits ``RuntimeError`` so the
    pre-structured ``except RuntimeError`` call sites keep working.

    Attributes
    ----------
    component:
        Which executor input failed (``"translator"``,
        ``"fault_policy"``, ``"regenerate_fn"``).
    attribute:
        Dotted path of the deepest unpicklable attribute within it
        (empty when the component itself is the failure).
    """

    def __init__(
        self,
        message: str,
        *,
        component: Optional[str] = None,
        attribute: Optional[str] = None,
        diagnostics: Sequence[Any] = (),
    ):
        super().__init__(message, diagnostics)
        self.component = component
        self.attribute = attribute


class ServiceError(ReproError):
    """Root of the multi-tenant inference service's failure taxonomy.

    Every subclass carries the three fields the wire protocol needs to
    return a *structured* rejection instead of a crashed connection:

    Attributes
    ----------
    code:
        Stable wire code (``"quota_exceeded"``, ``"overloaded"``, ...).
        :mod:`repro.service.wire` maps codes back to these classes on
        the client side, so a caller can ``except QuotaExceededError``.
    retryable:
        Whether retrying the identical request can ever succeed.  Quota
        and overload rejections are retryable (capacity frees up);
        poison requests are not.
    retry_after_s:
        Server-suggested backoff before the next attempt, when the
        server can estimate one (queue drain time, in-flight drain).

    Deliberately *not* in :data:`RECOVERABLE_ERRORS`: service errors
    concern a request or a tenant, never one particle, so the SMC fault
    policies must not swallow them.
    """

    code = "internal"
    retryable = False

    def __init__(self, message: str, *, retry_after_s: "Optional[float]" = None):
        super().__init__(message)
        self.retry_after_s = retry_after_s


class BadRequestError(ServiceError, ValueError):
    """A malformed (poison) request: bad frame, unknown op, unparseable
    program, invalid deadline.  Never retryable — the bytes themselves
    are wrong."""

    code = "bad_request"
    retryable = False


class QuotaExceededError(ServiceError):
    """A per-tenant admission limit was hit (live sessions or in-flight
    requests).  Retryable: closing a session or letting requests drain
    frees the quota.

    Attributes
    ----------
    quota:
        Which limit was hit (``"sessions"`` or ``"inflight"``).
    limit:
        The configured ceiling.
    """

    code = "quota_exceeded"
    retryable = True

    def __init__(
        self,
        message: str,
        *,
        quota: str = "",
        limit: "Optional[int]" = None,
        retry_after_s: "Optional[float]" = None,
    ):
        super().__init__(message, retry_after_s=retry_after_s)
        self.quota = quota
        self.limit = limit


class OverloadedError(ServiceError):
    """Backpressure: the target shard's bounded queue is full, or the
    degradation ladder is shedding this tenant's priority class.
    Always retryable, always with a ``retry_after_s`` estimate."""

    code = "overloaded"
    retryable = True


class DeadlineExceededError(ServiceError):
    """The request's deadline expired — on the queue, or mid-translation
    (the in-flight work is cancelled at a particle boundary and the
    session is rolled back, so the state is *not* corrupted)."""

    code = "deadline_exceeded"
    retryable = True


class ServiceUnavailableError(ServiceError):
    """The server cannot be reached, hung up mid-request, or is
    shutting down.  Retryable from the client's perspective (the server
    may restart and recover)."""

    code = "unavailable"
    retryable = True


#: Failure classes the SMC loop may contain to a single particle.  The
#: collection-level :class:`DegeneracyError` raised by the degeneracy
#: guard is emitted *outside* any per-particle containment, so it always
#: propagates even though the class inherits from ``NumericalError``.
RECOVERABLE_ERRORS = (TranslationError, SupportError, ModelExecutionError, NumericalError)
