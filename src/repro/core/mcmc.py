"""MCMC kernels for the embedded PPL.

Algorithm 2 optionally rejuvenates translated traces with an MCMC kernel
whose invariant distribution is the posterior of ``Q`` (Section 4.2).
This module provides the kernels used in the evaluation:

* :func:`independent_mh_site` — an independent Metropolis update of one
  address, proposing from its prior (the per-latent-variable updates of
  the Figure 8 baseline);
* :func:`single_site_mh` — generic lightweight single-site MH in the
  style of Wingate et al. [44], handling traces whose structure changes
  under the proposal;
* :func:`gibbs_site` — exact Gibbs update of one finite-support discrete
  address (the Figure 9 baseline uses sweeps of these);
* combinators :func:`cycle` and :func:`repeat`.

A kernel is a callable ``kernel(rng, trace) -> trace`` closed over its
model; all kernels here leave ``P̃r[u ~ Q] / Z_Q`` invariant.
"""

from __future__ import annotations

import math
from typing import Any, Callable, List, Optional, Sequence, Tuple

import numpy as np

from ..distributions import Distribution
from ..errors import DegeneracyError, SupportError
from .address import normalize_address
from .handlers import TraceHandler, log_sum_exp
from .model import Model
from .trace import ChoiceMap, Trace

__all__ = [
    "Kernel",
    "regenerate",
    "independent_mh_site",
    "custom_mh_site",
    "random_walk_mh_site",
    "single_site_mh",
    "gibbs_site",
    "gibbs_sweep",
    "cycle",
    "repeat",
    "chain",
]

Kernel = Callable[[np.random.Generator, Trace], Trace]

NEG_INF = float("-inf")


class _RegenerateHandler(TraceHandler):
    """Replay with partial constraints, sampling fresh where missing.

    Unlike :class:`~repro.core.handlers.GenerateHandler`, a constrained
    value with zero probability does not raise: the resulting trace
    simply has ``log_prob == -inf`` and the MH acceptance rejects it.
    Tracks the addresses that were reused and the log probability of the
    freshly sampled choices (the ``F`` term of the lightweight MH
    acceptance ratio).
    """

    def __init__(self, rng: np.random.Generator, constraints: ChoiceMap, observations: ChoiceMap):
        super().__init__()
        self._rng = rng
        self._constraints = constraints
        self._observations = observations
        self.fresh_log_prob = 0.0
        self.used: set = set()

    def sample(self, dist: Distribution, address) -> Any:
        address = normalize_address(address)
        observed = self._observations.lookup(address)
        if observed is not None:
            return self._record_observed_choice(dist, *observed)
        if address in self._constraints:
            self.used.add(address)
            return self._record_choice(dist, address, self._constraints[address])
        value = dist.sample(self._rng)
        self._record_choice(dist, address, value)
        self.fresh_log_prob += self.trace.get_record(address).log_prob
        return value


def regenerate(
    model: Model, rng: np.random.Generator, constraints: ChoiceMap
) -> Tuple[Trace, float, set]:
    """Run ``model`` reusing ``constraints``; sample anything missing.

    Returns ``(trace, fresh_log_prob, used_addresses)``.
    """
    handler = _RegenerateHandler(rng, constraints, model.observations)
    trace = model.run(handler)
    return trace, handler.fresh_log_prob, handler.used


def _metropolis_accept(rng: np.random.Generator, log_alpha: float) -> bool:
    if log_alpha >= 0.0:
        return True
    if log_alpha == NEG_INF:
        return False
    return math.log(rng.random()) < log_alpha


def independent_mh_site(model: Model, address) -> Kernel:
    """Independent Metropolis update of one address, proposing from its prior.

    Valid for addresses that exist in every trace (fixed-structure
    models); the proposal distribution is the choice's prior given the
    rest of the trace, so the acceptance ratio only involves the
    downstream likelihood change.
    """
    address = normalize_address(address)

    def kernel(rng: np.random.Generator, trace: Trace) -> Trace:
        old_record = trace.get_record(address)
        proposed_value = old_record.dist.sample(rng)
        constraints = trace.to_choice_map().set(address, proposed_value)
        new_trace, fresh, _used = regenerate(model, rng, constraints)
        if address not in new_trace:
            return trace  # structure changed; this simple kernel skips
        forward_log = old_record.dist.log_prob(proposed_value) + fresh
        # The reverse move proposes the old value from the prior at the
        # (possibly re-parameterized) address in the new trace, and must
        # regenerate any choices of the old trace absent from the new one.
        new_addresses = set(new_trace.addresses())
        stale = math.fsum(
            r.log_prob for r in trace.choices() if r.address not in new_addresses
        )
        reverse_log = new_trace.get_record(address).dist.log_prob(old_record.value) + stale
        log_alpha = new_trace.log_prob - trace.log_prob + reverse_log - forward_log
        return new_trace if _metropolis_accept(rng, log_alpha) else trace

    return kernel


def custom_mh_site(
    model: Model,
    address,
    propose: Callable[[np.random.Generator, Any], Any],
    proposal_log_prob: Callable[[Any, Any], float],
) -> Kernel:
    """Metropolis-Hastings update of one address with a custom proposal.

    ``propose(rng, current) -> proposed`` draws the candidate;
    ``proposal_log_prob(from_value, to_value)`` scores the move density
    (both directions are scored, so asymmetric proposals are handled).
    Structure changes triggered by the new value are regenerated from
    the prior and accounted for via the fresh/stale correction.
    """
    address = normalize_address(address)

    def kernel(rng: np.random.Generator, trace: Trace) -> Trace:
        old_value = trace[address]
        proposed_value = propose(rng, old_value)
        constraints = trace.to_choice_map().set(address, proposed_value)
        new_trace, fresh, _used = regenerate(model, rng, constraints)
        if address not in new_trace:
            return trace
        new_addresses = set(new_trace.addresses())
        stale = math.fsum(
            r.log_prob for r in trace.choices() if r.address not in new_addresses
        )
        log_alpha = (
            new_trace.log_prob
            - trace.log_prob
            + proposal_log_prob(proposed_value, old_value)
            - proposal_log_prob(old_value, proposed_value)
            + stale
            - fresh
        )
        return new_trace if _metropolis_accept(rng, log_alpha) else trace

    return kernel


def random_walk_mh_site(model: Model, address, scale: float) -> Kernel:
    """Gaussian random-walk Metropolis update of one continuous address.

    The proposal is symmetric, so the acceptance ratio is the posterior
    ratio alone.  Used as the hand-tuned gold-standard sampler when
    estimating reference posterior expectations (Section 7.2 uses a
    hand-optimized MCMC algorithm as its gold standard).
    """
    address = normalize_address(address)
    if scale <= 0:
        raise ValueError("proposal scale must be positive")

    def kernel(rng: np.random.Generator, trace: Trace) -> Trace:
        old_record = trace.get_record(address)
        proposed_value = float(old_record.value) + scale * rng.standard_normal()
        constraints = trace.to_choice_map().set(address, proposed_value)
        new_trace, fresh, _used = regenerate(model, rng, constraints)
        if address not in new_trace:
            return trace
        new_addresses = set(new_trace.addresses())
        stale = math.fsum(
            r.log_prob for r in trace.choices() if r.address not in new_addresses
        )
        log_alpha = new_trace.log_prob - trace.log_prob + stale - fresh
        return new_trace if _metropolis_accept(rng, log_alpha) else trace

    return kernel


def single_site_mh(model: Model) -> Kernel:
    """Lightweight single-site Metropolis-Hastings [44].

    Picks one of the trace's addresses uniformly at random, proposes a
    new value from that choice's prior, and re-executes the program
    reusing all other choices (sampling any newly required ones).  The
    acceptance ratio includes the standard ``|m| / |m'|`` address-count
    correction and the fresh/stale terms.
    """

    def kernel(rng: np.random.Generator, trace: Trace) -> Trace:
        addresses = trace.addresses()
        if not addresses:
            return trace
        address = addresses[rng.integers(len(addresses))]
        old_record = trace.get_record(address)
        proposed_value = old_record.dist.sample(rng)
        constraints = trace.to_choice_map().set(address, proposed_value)
        new_trace, fresh, used = regenerate(model, rng, constraints)
        if new_trace.log_prob == NEG_INF:
            return trace
        if address not in new_trace:
            return trace
        new_addresses = set(new_trace.addresses())
        stale = math.fsum(
            r.log_prob for r in trace.choices()
            if r.address not in new_addresses and r.address != address
        )
        forward_log = old_record.dist.log_prob(proposed_value) + fresh
        # fresh includes nothing for `address` itself (it was constrained);
        # the proposal density at the chosen site is the prior in `trace`.
        reverse_log = new_trace.get_record(address).dist.log_prob(old_record.value) + stale
        log_alpha = (
            new_trace.log_prob
            - trace.log_prob
            + math.log(len(addresses))
            - math.log(len(new_trace))
            + reverse_log
            - forward_log
        )
        return new_trace if _metropolis_accept(rng, log_alpha) else trace

    return kernel


def gibbs_site(model: Model, address) -> Kernel:
    """Exact Gibbs update of a finite-support discrete address.

    Enumerates the support, scores the full trace at each value, and
    samples from the normalized conditional.  Requires the model's
    structure not to change with the value (otherwise a
    ``MissingChoiceError`` propagates).
    """
    address = normalize_address(address)

    def kernel(rng: np.random.Generator, trace: Trace) -> Trace:
        record = trace.get_record(address)
        support = record.dist.support()
        if not support.is_finite():
            raise SupportError(f"gibbs_site requires finite support at {address!r}")
        values = list(support.enumerate())  # type: ignore[attr-defined]
        base = trace.to_choice_map()
        candidate_traces: List[Trace] = []
        log_scores: List[float] = []
        for value in values:
            candidate = model.score(base.set(address, value))
            candidate_traces.append(candidate)
            log_scores.append(candidate.log_prob)
        log_total = log_sum_exp(log_scores)
        if log_total == NEG_INF:
            raise DegeneracyError(
                f"all conditional values at {address!r} have probability zero"
            )
        probs = np.exp(np.asarray(log_scores) - log_total)
        probs = probs / probs.sum()
        index = int(rng.choice(len(values), p=probs))
        return candidate_traces[index]

    return kernel


def gibbs_sweep(model: Model, addresses: Sequence) -> Kernel:
    """One forward sweep of Gibbs updates over the given addresses."""
    kernels = [gibbs_site(model, a) for a in addresses]
    return cycle(kernels)


def cycle(kernels: Sequence[Kernel]) -> Kernel:
    """Apply the kernels in order; a cycle of invariant kernels is invariant."""
    kernels = list(kernels)

    def kernel(rng: np.random.Generator, trace: Trace) -> Trace:
        for sub_kernel in kernels:
            trace = sub_kernel(rng, trace)
        return trace

    return kernel


def repeat(kernel: Kernel, iterations: int) -> Kernel:
    """Apply ``kernel`` a fixed number of times."""
    if iterations < 0:
        raise ValueError("iterations must be non-negative")

    def repeated(rng: np.random.Generator, trace: Trace) -> Trace:
        for _ in range(iterations):
            trace = kernel(rng, trace)
        return trace

    return repeated


def chain(
    model: Model,
    kernel: Kernel,
    rng: np.random.Generator,
    initial: Optional[Trace] = None,
    iterations: int = 100,
    burn_in: int = 0,
    thin: int = 1,
) -> List[Trace]:
    """Run a Markov chain and return the retained states.

    ``initial`` defaults to a fresh prior simulation of the model.
    """
    if thin < 1:
        raise ValueError("thin must be at least 1")
    trace = initial if initial is not None else model.simulate(rng)
    states: List[Trace] = []
    for iteration in range(iterations):
        trace = kernel(rng, trace)
        if iteration >= burn_in and (iteration - burn_in) % thin == 0:
            states.append(trace)
    return states
