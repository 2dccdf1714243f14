"""Exact inference for finite discrete embedded models by enumeration.

Used as ground truth in tests and in the overview experiment (the
burglary posteriors of Figure 1 are exact).  Enumeration performs a
depth-first traversal of the tree of executions: the program is re-run
with a growing forced prefix of choice values, branching on the support
of the first unforced random choice.

Only models whose every latent choice is a finite-support
:class:`~repro.distributions.base.DiscreteDistribution` can be
enumerated; continuous or unbounded choices raise ``ValueError``.
"""

from __future__ import annotations

import math
from typing import Any, Callable, Dict, Iterator, List, Tuple

from ..distributions import DiscreteDistribution, Distribution
from .address import normalize_address
from .handlers import TraceHandler, log_sum_exp
from .model import Model
from .trace import Trace

__all__ = [
    "enumerate_traces",
    "log_normalizer",
    "exact_expectation",
    "exact_choice_marginal",
    "exact_return_distribution",
    "exact_posterior_sampler",
]


class _Frontier(Exception):
    """Signals that execution reached the first unforced random choice."""

    def __init__(self, support_values: List[Any]):
        super().__init__("enumeration frontier")
        self.support_values = support_values


class _EnumerationHandler(TraceHandler):
    """Replays a forced prefix of values, stopping at the first new choice."""

    def __init__(self, forced: Tuple[Any, ...], observations):
        super().__init__()
        self._forced = forced
        self._next = 0
        self._observations = observations

    def sample(self, dist: Distribution, address) -> Any:
        address = normalize_address(address)
        observed = self._observations.lookup(address)
        if observed is not None:
            return self._record_observed_choice(dist, *observed)
        if self._next < len(self._forced):
            value = self._forced[self._next]
            self._next += 1
            return self._record_choice(dist, address, value)
        if not isinstance(dist, DiscreteDistribution):
            raise ValueError(
                f"cannot enumerate continuous choice at {address!r} ({dist!r})"
            )
        support = dist.support()
        if not support.is_finite():
            raise ValueError(
                f"cannot enumerate unbounded choice at {address!r} ({dist!r})"
            )
        raise _Frontier(list(support.enumerate()))  # type: ignore[attr-defined]


def enumerate_traces(model: Model) -> Iterator[Trace]:
    """Yield every trace of ``model`` with positive or zero probability.

    Traces are produced in depth-first order; each trace's ``log_prob``
    is its unnormalized log probability ``log P̃r[t ~ P]``.
    """
    stack: List[Tuple[Any, ...]] = [()]
    while stack:
        prefix = stack.pop()
        handler = _EnumerationHandler(prefix, model.observations)
        try:
            trace = model.run(handler)
        except _Frontier as frontier:
            # Push in reverse so enumeration explores values in order.
            for value in reversed(frontier.support_values):
                stack.append(prefix + (value,))
            continue
        yield trace


def log_normalizer(model: Model) -> float:
    """``log Z_P = log sum_t P̃r[t ~ P]`` by exhaustive enumeration."""
    return log_sum_exp(trace.log_prob for trace in enumerate_traces(model))


def exact_expectation(model: Model, phi: Callable[[Trace], float]) -> float:
    """``E_{t ~ P}[phi(t)]`` under the normalized posterior, exactly."""
    log_terms: List[float] = []
    values: List[float] = []
    for trace in enumerate_traces(model):
        log_terms.append(trace.log_prob)
        values.append(float(phi(trace)))
    log_z = log_sum_exp(log_terms)
    if log_z == float("-inf"):
        raise ValueError("model has zero normalizing constant")
    return math.fsum(
        math.exp(lp - log_z) * v for lp, v in zip(log_terms, values) if lp != float("-inf")
    )


def exact_choice_marginal(model: Model, address) -> Dict[Any, float]:
    """Exact posterior marginal of the random choice at ``address``.

    Traces in which the address does not occur are grouped under the key
    ``None``.
    """
    address = normalize_address(address)
    totals: Dict[Any, float] = {}
    log_z = float("-inf")
    for trace in enumerate_traces(model):
        if trace.log_prob == float("-inf"):
            continue
        key = trace[address] if address in trace else None
        weight = math.exp(trace.log_prob)
        totals[key] = totals.get(key, 0.0) + weight
        log_z = log_sum_exp([log_z, trace.log_prob])
    z = math.exp(log_z)
    return {key: weight / z for key, weight in totals.items()}


def exact_return_distribution(model: Model) -> Dict[Any, float]:
    """Exact posterior distribution of the program's return value."""
    totals: Dict[Any, float] = {}
    z = 0.0
    for trace in enumerate_traces(model):
        if trace.log_prob == float("-inf"):
            continue
        weight = math.exp(trace.log_prob)
        totals[trace.return_value] = totals.get(trace.return_value, 0.0) + weight
        z += weight
    if z == 0.0:
        raise ValueError("model has zero normalizing constant")
    return {key: weight / z for key, weight in totals.items()}


def exact_posterior_sampler(model: Model) -> Callable:
    """Build an exact posterior sampler by enumerating the model once.

    Returns ``sampler(rng) -> Trace`` drawing i.i.d. traces from the
    normalized posterior ``Pr[t ~ P]``.  This is how the evaluation
    obtains exact input samples for small discrete programs (for the
    larger experiments, dedicated exact samplers — the conjugate
    regression posterior and HMM forward-filtering backward-sampling —
    play this role).
    """
    import numpy as np

    traces = [t for t in enumerate_traces(model) if t.log_prob != float("-inf")]
    if not traces:
        raise ValueError("model has no traces with positive probability")
    log_probs = [t.log_prob for t in traces]
    log_z = log_sum_exp(log_probs)
    probs = [math.exp(lp - log_z) for lp in log_probs]
    total = math.fsum(probs)
    probs = [p / total for p in probs]

    def sampler(rng: "np.random.Generator") -> Trace:
        index = int(rng.choice(len(traces), p=probs))
        return traces[index]

    return sampler
