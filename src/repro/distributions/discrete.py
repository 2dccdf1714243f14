"""Discrete primitive distributions.

These back the random expressions of the paper's language (``flip(E)``,
``uniform(E1, E2)``) and the discrete choices used by the embedded PPL
(categorical hidden states of the HMM experiment, cluster assignments of
the GMM experiment).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence, Tuple

import numpy as np

from . import batch as bmath
from .base import (
    NEG_INF,
    BinarySupport,
    DiscreteDistribution,
    IntegerRange,
    FiniteSupport,
    Support,
)

__all__ = [
    "Flip",
    "Bernoulli",
    "UniformDiscrete",
    "Categorical",
    "LogCategorical",
    "Delta",
    "Geometric",
    "Poisson",
]

_BINARY = BinarySupport()


def _integral_mask(values: np.ndarray) -> np.ndarray:
    """Elementwise image of ``float(value).is_integer()`` for float64."""
    return np.isfinite(values) & (np.floor(values) == values)


@dataclass(frozen=True, slots=True)
class Flip(DiscreteDistribution):
    """``flip(p)``: 1 with probability ``p``, 0 with probability ``1 - p``."""

    p: float

    def __post_init__(self) -> None:
        p = self.p
        if isinstance(p, np.ndarray):
            inside = bool(np.all((0.0 <= p) & (p <= 1.0)))
        else:
            inside = 0.0 <= p <= 1.0
        if not inside:
            raise ValueError(f"flip probability must be in [0, 1], got {self.p}")

    def sample(self, rng: np.random.Generator) -> int:
        return int(rng.random() < self.p)

    def log_prob(self, value) -> float:
        if value == 1:
            return math.log(self.p) if self.p > 0.0 else NEG_INF
        if value == 0:
            return math.log1p(-self.p) if self.p < 1.0 else NEG_INF
        return NEG_INF

    def log_prob_batch(self, values: np.ndarray) -> np.ndarray:
        values = np.asarray(values)
        p = self.p
        if isinstance(p, np.ndarray):
            # A per-particle ``p`` (the columnar runtime's template): the
            # scalar guards and libm calls, lane by lane.
            log_p = np.full(p.shape, NEG_INF)
            log_q = np.full(p.shape, NEG_INF)
            positive, below_one = p > 0.0, p < 1.0
            log_p[positive] = bmath.log(p[positive])
            log_q[below_one] = bmath.log1p(-p[below_one])
        else:
            log_p = math.log(p) if p > 0.0 else NEG_INF
            log_q = math.log1p(-p) if p < 1.0 else NEG_INF
        return np.where(values == 1, log_p, np.where(values == 0, log_q, NEG_INF))

    def sample_batch(self, rng: np.random.Generator, n: int) -> np.ndarray:
        return (rng.random(n) < self.p).astype(np.int64)

    def support(self) -> Support:
        return _BINARY


#: Alias matching the conventional name.
Bernoulli = Flip


@dataclass(frozen=True, slots=True)
class UniformDiscrete(DiscreteDistribution):
    """``uniform(low, high)``: integers in ``[low, high]``, equiprobable."""

    low: int
    high: int

    def __post_init__(self) -> None:
        if self.high < self.low:
            raise ValueError(
                f"uniform(low, high) requires low <= high, got ({self.low}, {self.high})"
            )

    def sample(self, rng: np.random.Generator) -> int:
        return int(rng.integers(self.low, self.high + 1))

    def log_prob(self, value) -> float:
        if float(value).is_integer() and self.low <= value <= self.high:
            return -math.log(self.high - self.low + 1)
        return NEG_INF

    def log_prob_batch(self, values: np.ndarray) -> np.ndarray:
        vf = np.asarray(values, dtype=np.float64)
        ok = _integral_mask(vf) & (self.low <= vf) & (vf <= self.high)
        return np.where(ok, -math.log(self.high - self.low + 1), NEG_INF)

    def sample_batch(self, rng: np.random.Generator, n: int) -> np.ndarray:
        return rng.integers(self.low, self.high + 1, size=n)

    def support(self) -> Support:
        return IntegerRange(self.low, self.high)


@dataclass(frozen=True, slots=True)
class Categorical(DiscreteDistribution):
    """Categorical over ``0..len(probs)-1`` with the given probabilities."""

    probs: Tuple[float, ...]

    def __init__(self, probs: Sequence[float]):
        probs = tuple(float(p) for p in probs)
        if not probs:
            raise ValueError("categorical requires at least one category")
        if any(p < 0 for p in probs):
            raise ValueError("categorical probabilities must be non-negative")
        total = sum(probs)
        if not math.isclose(total, 1.0, rel_tol=1e-9, abs_tol=1e-9):
            if total <= 0:
                raise ValueError("categorical probabilities must sum to a positive value")
            probs = tuple(p / total for p in probs)
        object.__setattr__(self, "probs", probs)

    def sample(self, rng: np.random.Generator) -> int:
        return int(rng.choice(len(self.probs), p=np.asarray(self.probs)))

    def log_prob(self, value) -> float:
        if not float(value).is_integer():
            return NEG_INF
        index = int(value)
        if 0 <= index < len(self.probs) and self.probs[index] > 0.0:
            return math.log(self.probs[index])
        return NEG_INF

    def log_prob_batch(self, values: np.ndarray) -> np.ndarray:
        vf = np.asarray(values, dtype=np.float64)
        ok = _integral_mask(vf) & (0.0 <= vf) & (vf < len(self.probs))
        out = np.full(vf.shape, NEG_INF)
        idx = vf[ok].astype(np.int64)
        gathered = np.asarray(self.probs, dtype=np.float64)[idx]
        scores = np.full(idx.shape, NEG_INF)
        pos = gathered > 0.0
        scores[pos] = bmath.log(gathered[pos])
        out[ok] = scores
        return out

    def sample_batch(self, rng: np.random.Generator, n: int) -> np.ndarray:
        return rng.choice(len(self.probs), size=n, p=np.asarray(self.probs))

    def support(self) -> Support:
        return IntegerRange(0, len(self.probs) - 1)


@dataclass(frozen=True, slots=True)
class LogCategorical(DiscreteDistribution):
    """Categorical parameterized by unnormalized log probabilities.

    Used by the HMM programs (Listings 3-4 work with log transition and
    observation matrices); normalization happens in log space for
    numerical stability.
    """

    log_probs: Tuple[float, ...]
    _log_norm: float = field(init=False, repr=False, compare=False)

    def __init__(self, log_probs: Sequence[float]):
        log_probs = tuple(float(p) for p in log_probs)
        if not log_probs:
            raise ValueError("log-categorical requires at least one category")
        finite = [p for p in log_probs if p != NEG_INF]
        if not finite:
            raise ValueError("log-categorical requires at least one finite log prob")
        high = max(finite)
        log_norm = high + math.log(sum(math.exp(p - high) for p in finite))
        object.__setattr__(self, "log_probs", log_probs)
        object.__setattr__(self, "_log_norm", log_norm)

    def sample(self, rng: np.random.Generator) -> int:
        probs = np.exp(np.asarray(self.log_probs) - self._log_norm)
        probs = probs / probs.sum()
        return int(rng.choice(len(probs), p=probs))

    def log_prob(self, value) -> float:
        if not float(value).is_integer():
            return NEG_INF
        index = int(value)
        if 0 <= index < len(self.log_probs):
            raw = self.log_probs[index]
            return raw - self._log_norm if raw != NEG_INF else NEG_INF
        return NEG_INF

    def log_prob_batch(self, values: np.ndarray) -> np.ndarray:
        vf = np.asarray(values, dtype=np.float64)
        ok = _integral_mask(vf) & (0.0 <= vf) & (vf < len(self.log_probs))
        out = np.full(vf.shape, NEG_INF)
        raw = np.asarray(self.log_probs, dtype=np.float64)[vf[ok].astype(np.int64)]
        out[ok] = np.where(raw != NEG_INF, raw - self._log_norm, NEG_INF)
        return out

    def sample_batch(self, rng: np.random.Generator, n: int) -> np.ndarray:
        probs = np.exp(np.asarray(self.log_probs) - self._log_norm)
        probs = probs / probs.sum()
        return rng.choice(len(probs), size=n, p=probs)

    def support(self) -> Support:
        return IntegerRange(0, len(self.log_probs) - 1)


@dataclass(frozen=True, slots=True)
class Delta(DiscreteDistribution):
    """Point mass at ``value``; useful for deterministic constraints."""

    value: object

    def sample(self, rng: np.random.Generator):
        return self.value

    def log_prob(self, value) -> float:
        return 0.0 if value == self.value else NEG_INF

    def log_prob_batch(self, values: np.ndarray) -> np.ndarray:
        values = np.asarray(values)
        eq = values == self.value
        if not isinstance(eq, np.ndarray):
            # Incomparable point mass (e.g. object-valued): scalar semantics
            # give a single truth value for every element.
            eq = np.full(values.shape, bool(eq))
        return np.where(eq, 0.0, NEG_INF)

    def sample_batch(self, rng: np.random.Generator, n: int) -> np.ndarray:
        return np.asarray([self.value] * n)

    def support(self) -> Support:
        return FiniteSupport((self.value,))


@dataclass(frozen=True, slots=True)
class Geometric(DiscreteDistribution):
    """Number of successes before the first failure of ``flip(p)``.

    This matches the loop of Figure 6 in the paper: ``n`` starts at one and
    increments while ``flip(p)`` succeeds, so ``n - 1`` is geometric with
    failure probability ``1 - p``.  The support is countably infinite, so
    ``enumerate_support`` raises.
    """

    p: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.p < 1.0:
            raise ValueError(f"geometric success probability must be in [0, 1), got {self.p}")

    def sample(self, rng: np.random.Generator) -> int:
        count = 0
        while rng.random() < self.p:
            count += 1
        return count

    def log_prob(self, value) -> float:
        if not float(value).is_integer() or value < 0:
            return NEG_INF
        count = int(value)
        if count == 0:
            return math.log1p(-self.p)
        if self.p == 0.0:
            return NEG_INF
        return count * math.log(self.p) + math.log1p(-self.p)

    def log_prob_batch(self, values: np.ndarray) -> np.ndarray:
        vf = np.asarray(values, dtype=np.float64)
        ok = _integral_mask(vf) & (vf >= 0.0)
        out = np.full(vf.shape, NEG_INF)
        log1mp = math.log1p(-self.p)
        if self.p == 0.0:
            out[ok & (vf == 0.0)] = log1mp
            return out
        counts = vf[ok]
        out[ok] = np.where(counts == 0.0, log1mp, counts * math.log(self.p) + log1mp)
        return out

    def sample_batch(self, rng: np.random.Generator, n: int) -> np.ndarray:
        # Successes before the first failure: trials to first failure - 1.
        return rng.geometric(1.0 - self.p, size=n) - 1

    def support(self) -> Support:
        return IntegerRange(0, 2**63 - 1)


@dataclass(frozen=True, slots=True)
class Poisson(DiscreteDistribution):
    """Poisson distribution with the given ``rate``."""

    rate: float

    def __post_init__(self) -> None:
        if self.rate <= 0.0:
            raise ValueError(f"poisson rate must be positive, got {self.rate}")

    def sample(self, rng: np.random.Generator) -> int:
        return int(rng.poisson(self.rate))

    def log_prob(self, value) -> float:
        if not float(value).is_integer() or value < 0:
            return NEG_INF
        count = int(value)
        return count * math.log(self.rate) - self.rate - math.lgamma(count + 1)

    def log_prob_batch(self, values: np.ndarray) -> np.ndarray:
        vf = np.asarray(values, dtype=np.float64)
        ok = _integral_mask(vf) & (vf >= 0.0)
        out = np.full(vf.shape, NEG_INF)
        counts = vf[ok]
        out[ok] = counts * math.log(self.rate) - self.rate - bmath.lgamma(counts + 1.0)
        return out

    def sample_batch(self, rng: np.random.Generator, n: int) -> np.ndarray:
        return rng.poisson(self.rate, size=n)

    def support(self) -> Support:
        return IntegerRange(0, 2**63 - 1)
