"""Execution handlers for the embedded PPL.

A probabilistic program in the embedded language is an ordinary Python
function whose first argument is a :class:`TraceHandler`::

    def burglary_model(t: TraceHandler) -> int:
        burglary = t.sample(Flip(0.02), "burglary")
        p_alarm = 0.9 if burglary else 0.01
        alarm = t.sample(Flip(p_alarm), "alarm")
        p_wakes = 0.8 if alarm else 0.05
        t.observe(Flip(p_wakes), 1, "mary_wakes")
        return burglary

Different handlers give the function different operational meanings —
sampling a fresh trace, scoring an existing one, replaying with some
choices constrained — exactly the set of capabilities a lightweight
transformational-compilation runtime provides [44].  The trace
translator of Section 5 is implemented as one more handler
(:mod:`repro.core.corr_translator`).
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from typing import Any, Optional

import numpy as np

from ..distributions import Distribution
from ..errors import ModelExecutionError, TranslationError
from .address import Address, normalize_address
from .trace import ChoiceMap, ChoiceRecord, ObservationRecord, Trace

__all__ = [
    "TraceHandler",
    "SimulateHandler",
    "GenerateHandler",
    "ScoreHandler",
    "MissingChoiceError",
    "ImpossibleConstraintError",
]


class MissingChoiceError(TranslationError, KeyError):
    """Raised when scoring a trace that lacks a required random choice.

    During trace translation this signals a bad correspondence (the
    backward kernel cannot reproduce the old trace), which is why the
    class sits under :class:`~repro.errors.TranslationError`; ``KeyError``
    is kept as a base for pre-existing ``except`` clauses.
    """


class ImpossibleConstraintError(ModelExecutionError, ValueError):
    """Raised when a constrained value has probability zero."""


class TraceHandler(ABC):
    """Interface seen by model functions.

    ``sample`` introduces a random choice at an address; ``observe``
    conditions on a random expression taking a fixed value, contributing
    a likelihood factor (the ``observe(R == E)`` statement of Section 3).
    """

    def __init__(self) -> None:
        self.trace = Trace()

    @abstractmethod
    def sample(self, dist: Distribution, address) -> Any:
        """Record a random choice at ``address`` and return its value."""

    def observe(self, dist: Distribution, value: Any, address) -> None:
        """Record an observation that ``dist`` produced ``value``."""
        address = normalize_address(address)
        log_prob = dist.log_prob(value)
        self.trace.add_observation(ObservationRecord(address, dist, value, log_prob))

    # -- helpers shared by subclasses --------------------------------------

    def _record_choice(self, dist: Distribution, address: Address, value: Any) -> Any:
        record = ChoiceRecord(address, dist, value, dist.log_prob(value))
        self.trace.add_choice(record)
        return value

    def _record_observed_choice(self, dist: Distribution, address: Address, value: Any) -> Any:
        """A sample statement whose address the model is conditioned on.

        The paper's lightweight implementation represents observations as
        external constraints on addresses (Section 7.1); such a choice is
        recorded as an observation rather than a latent choice.  Callers
        pass the observation map's own key (:meth:`ChoiceMap.lookup`), so
        every trace of a model shares its observed addresses.
        """
        log_prob = dist.log_prob(value)
        self.trace.add_observation(ObservationRecord(address, dist, value, log_prob))
        return value


class SimulateHandler(TraceHandler):
    """Run the program forward, sampling every choice from its prior.

    ``observations`` fixes the values at observed addresses (scored as
    likelihood factors); all other addresses are sampled.
    """

    def __init__(self, rng: np.random.Generator, observations: Optional[ChoiceMap] = None):
        super().__init__()
        self._rng = rng
        self._observations = observations if observations is not None else ChoiceMap()

    def sample(self, dist: Distribution, address) -> Any:
        address = normalize_address(address)
        observed = self._observations.lookup(address)
        if observed is not None:
            return self._record_observed_choice(dist, *observed)
        return self._record_choice(dist, address, dist.sample(self._rng))


class GenerateHandler(TraceHandler):
    """Run the program with some latent choices constrained.

    Constrained addresses take the given values and contribute their log
    probability to ``log_weight`` (so that the resulting trace together
    with the weight is a properly weighted importance sample with the
    prior-of-the-rest as proposal).  Observed addresses behave as in
    :class:`SimulateHandler` and also enter the weight.
    """

    def __init__(
        self,
        rng: np.random.Generator,
        constraints: ChoiceMap,
        observations: Optional[ChoiceMap] = None,
    ):
        super().__init__()
        self._rng = rng
        self._constraints = constraints
        self._observations = observations if observations is not None else ChoiceMap()
        self.log_weight = 0.0

    def sample(self, dist: Distribution, address) -> Any:
        address = normalize_address(address)
        observed = self._observations.lookup(address)
        if observed is not None:
            value = self._record_observed_choice(dist, *observed)
            self.log_weight += self.trace.get_observation(address).log_prob
            return value
        if address in self._constraints:
            value = self._constraints[address]
            log_prob = dist.log_prob(value)
            if log_prob == float("-inf"):
                raise ImpossibleConstraintError(
                    f"constrained value {value!r} at {address!r} has probability zero"
                )
            self.trace.add_choice(ChoiceRecord(address, dist, value, log_prob))
            self.log_weight += log_prob
            return value
        return self._record_choice(dist, address, dist.sample(self._rng))

    def observe(self, dist: Distribution, value: Any, address) -> None:
        super().observe(dist, value, address)
        self.log_weight += self.trace.get_observation(normalize_address(address)).log_prob


class ScoreHandler(TraceHandler):
    """Replay the program deterministically from a complete choice map.

    Every latent address the program visits must be present in
    ``choices``; this computes ``P̃r[t ~ P]`` for an externally supplied
    trace (used by MCMC acceptance ratios and by the backward kernel).
    """

    def __init__(self, choices: ChoiceMap, observations: Optional[ChoiceMap] = None):
        super().__init__()
        self._choices = choices
        self._observations = observations if observations is not None else ChoiceMap()

    def sample(self, dist: Distribution, address) -> Any:
        address = normalize_address(address)
        observed = self._observations.lookup(address)
        if observed is not None:
            return self._record_observed_choice(dist, *observed)
        if address not in self._choices:
            raise MissingChoiceError(address)
        return self._record_choice(dist, address, self._choices[address])


def log_sum_exp(values) -> float:
    """Numerically stable ``log(sum(exp(values)))`` for an iterable."""
    values = list(values)
    if not values:
        return float("-inf")
    high = max(values)
    if high == float("-inf"):
        return float("-inf")
    return high + math.log(math.fsum(math.exp(v - high) for v in values))
