"""Continuous primitive distributions.

The paper treats continuous and discrete random choices uniformly by
multiplying probabilities and densities (Section 3, "Continuous
Distributions"); we follow the same convention: ``log_prob`` of a
continuous distribution is a log *density*.

``TwoNormals`` is the inlier/outlier mixture used by the robust Bayesian
regression program (Listing 2).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import batch as bmath
from .base import (
    NEG_INF,
    ContinuousDistribution,
    PositiveReals,
    RealInterval,
    RealLine,
    Support,
)

__all__ = [
    "Normal",
    "Exponential",
    "Uniform",
    "TwoNormals",
    "Gamma",
    "Beta",
    "LogNormal",
]

_LOG_SQRT_2PI = 0.5 * math.log(2.0 * math.pi)
_REAL_LINE = RealLine()
_POSITIVE = PositiveReals()


def _normal_log_density(value: float, mean: float, std: float) -> float:
    z = (value - mean) / std
    return -0.5 * z * z - math.log(std) - _LOG_SQRT_2PI


def _normal_log_density_batch(values: np.ndarray, mean, std) -> np.ndarray:
    """Exact elementwise image of :func:`_normal_log_density`.

    ``mean``/``std`` may be scalars or per-element arrays (the columnar
    runtime parameterizes observation distributions with whole latent
    columns).  The expression mirrors the scalar operation order, and
    the only transcendental goes through :mod:`repro.distributions.batch`,
    so each element is bitwise identical to the scalar call.
    """
    z = (values - mean) / std
    return -0.5 * z * z - bmath.log(std) - _LOG_SQRT_2PI


def _any_nonpositive(x) -> bool:
    """Array-aware ``x <= 0`` check for distribution parameters."""
    if isinstance(x, np.ndarray):
        return bool(np.any(x <= 0.0))
    return x <= 0.0


def _masked(param, mask: np.ndarray):
    """Restrict an array-valued parameter to ``mask``; pass scalars through."""
    if isinstance(param, np.ndarray):
        return param[mask]
    return param


@dataclass(frozen=True, slots=True)
class Normal(ContinuousDistribution):
    """Gaussian with the given ``mean`` and standard deviation ``std``."""

    mean: float
    std: float

    def __post_init__(self) -> None:
        if _any_nonpositive(self.std):
            raise ValueError(f"normal std must be positive, got {self.std}")

    def sample(self, rng: np.random.Generator) -> float:
        return float(rng.normal(self.mean, self.std))

    def log_prob(self, value) -> float:
        return _normal_log_density(float(value), self.mean, self.std)

    def log_prob_batch(self, values: np.ndarray) -> np.ndarray:
        return _normal_log_density_batch(
            np.asarray(values, dtype=np.float64), self.mean, self.std
        )

    def sample_batch(self, rng: np.random.Generator, n: int) -> np.ndarray:
        return rng.normal(self.mean, self.std, size=n)

    def support(self) -> Support:
        return _REAL_LINE


@dataclass(frozen=True, slots=True)
class Uniform(ContinuousDistribution):
    """Continuous uniform on ``[low, high]``."""

    low: float
    high: float

    def __post_init__(self) -> None:
        if self.high <= self.low:
            raise ValueError(
                f"uniform(low, high) requires low < high, got ({self.low}, {self.high})"
            )

    def sample(self, rng: np.random.Generator) -> float:
        return float(rng.uniform(self.low, self.high))

    def log_prob(self, value) -> float:
        if self.low <= float(value) <= self.high:
            return -math.log(self.high - self.low)
        return NEG_INF

    def log_prob_batch(self, values: np.ndarray) -> np.ndarray:
        values = np.asarray(values, dtype=np.float64)
        inside = (self.low <= values) & (values <= self.high)
        return np.where(inside, -math.log(self.high - self.low), NEG_INF)

    def sample_batch(self, rng: np.random.Generator, n: int) -> np.ndarray:
        return rng.uniform(self.low, self.high, size=n)

    def support(self) -> Support:
        return RealInterval(self.low, self.high)


@dataclass(frozen=True, slots=True)
class TwoNormals(ContinuousDistribution):
    """Mixture of two Gaussians sharing a mean: inlier vs outlier.

    With probability ``prob_outlier`` the value is drawn from
    ``Normal(mean, outlier_std)``, otherwise from ``Normal(mean,
    inlier_std)``.  This is the ``two_normals`` primitive of Listing 2 in
    the paper, which marginalizes the per-point outlier indicator so the
    robust regression trace contains only continuous choices for the data.
    """

    mean: float
    prob_outlier: float
    inlier_std: float
    outlier_std: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.prob_outlier <= 1.0:
            raise ValueError(f"prob_outlier must be in [0, 1], got {self.prob_outlier}")
        if _any_nonpositive(self.inlier_std) or _any_nonpositive(self.outlier_std):
            raise ValueError("mixture component stds must be positive")

    def sample(self, rng: np.random.Generator) -> float:
        std = self.outlier_std if rng.random() < self.prob_outlier else self.inlier_std
        return float(rng.normal(self.mean, std))

    def log_prob(self, value) -> float:
        value = float(value)
        log_in = _normal_log_density(value, self.mean, self.inlier_std)
        log_out = _normal_log_density(value, self.mean, self.outlier_std)
        if self.prob_outlier == 0.0:
            return log_in
        if self.prob_outlier == 1.0:
            return log_out
        log_a = math.log1p(-self.prob_outlier) + log_in
        log_b = math.log(self.prob_outlier) + log_out
        high = max(log_a, log_b)
        return high + math.log(math.exp(log_a - high) + math.exp(log_b - high))

    def log_prob_batch(self, values: np.ndarray) -> np.ndarray:
        # ``mean``/``inlier_std``/``outlier_std`` may be per-element
        # columns; ``prob_outlier`` (the shared mixture weight) must be
        # scalar for the 0/1 shortcuts to mirror the scalar code.
        values = np.asarray(values, dtype=np.float64)
        log_in = _normal_log_density_batch(values, self.mean, self.inlier_std)
        log_out = _normal_log_density_batch(values, self.mean, self.outlier_std)
        if self.prob_outlier == 0.0:
            return log_in
        if self.prob_outlier == 1.0:
            return np.asarray(log_out, dtype=np.float64)
        log_a = math.log1p(-self.prob_outlier) + log_in
        log_b = math.log(self.prob_outlier) + log_out
        high = np.maximum(log_a, log_b)
        return high + bmath.log(bmath.exp(log_a - high) + bmath.exp(log_b - high))

    def sample_batch(self, rng: np.random.Generator, n: int) -> np.ndarray:
        outlier = rng.random(n) < self.prob_outlier
        std = np.where(outlier, self.outlier_std, self.inlier_std)
        return rng.normal(self.mean, std, size=n)

    def support(self) -> Support:
        return _REAL_LINE


@dataclass(frozen=True, slots=True)
class Gamma(ContinuousDistribution):
    """Gamma distribution with ``shape`` and ``scale`` parameters."""

    shape: float
    scale: float

    def __post_init__(self) -> None:
        if _any_nonpositive(self.shape) or _any_nonpositive(self.scale):
            raise ValueError("gamma shape and scale must be positive")

    def sample(self, rng: np.random.Generator) -> float:
        return float(rng.gamma(self.shape, self.scale))

    def log_prob(self, value) -> float:
        value = float(value)
        if value <= 0.0:
            return NEG_INF
        return (
            (self.shape - 1.0) * math.log(value)
            - value / self.scale
            - math.lgamma(self.shape)
            - self.shape * math.log(self.scale)
        )

    def log_prob_batch(self, values: np.ndarray) -> np.ndarray:
        values = np.asarray(values, dtype=np.float64)
        out = np.full(values.shape, NEG_INF)
        mask = values > 0.0
        v = values[mask]
        shape = _masked(self.shape, mask)
        scale = _masked(self.scale, mask)
        out[mask] = (
            (shape - 1.0) * bmath.log(v)
            - v / scale
            - bmath.lgamma(shape)
            - shape * bmath.log(scale)
        )
        return out

    def sample_batch(self, rng: np.random.Generator, n: int) -> np.ndarray:
        return rng.gamma(self.shape, self.scale, size=n)

    def support(self) -> Support:
        return _POSITIVE


@dataclass(frozen=True, slots=True)
class Beta(ContinuousDistribution):
    """Beta distribution on ``[0, 1]``."""

    alpha: float
    beta: float

    def __post_init__(self) -> None:
        if _any_nonpositive(self.alpha) or _any_nonpositive(self.beta):
            raise ValueError("beta parameters must be positive")

    def sample(self, rng: np.random.Generator) -> float:
        return float(rng.beta(self.alpha, self.beta))

    def log_prob(self, value) -> float:
        value = float(value)
        if not 0.0 < value < 1.0:
            return NEG_INF
        log_norm = (
            math.lgamma(self.alpha) + math.lgamma(self.beta) - math.lgamma(self.alpha + self.beta)
        )
        return (self.alpha - 1.0) * math.log(value) + (self.beta - 1.0) * math.log1p(-value) - log_norm

    def log_prob_batch(self, values: np.ndarray) -> np.ndarray:
        values = np.asarray(values, dtype=np.float64)
        out = np.full(values.shape, NEG_INF)
        mask = (0.0 < values) & (values < 1.0)
        v = values[mask]
        alpha = _masked(self.alpha, mask)
        beta = _masked(self.beta, mask)
        log_norm = bmath.lgamma(alpha) + bmath.lgamma(beta) - bmath.lgamma(alpha + beta)
        out[mask] = (alpha - 1.0) * bmath.log(v) + (beta - 1.0) * bmath.log1p(-v) - log_norm
        return out

    def sample_batch(self, rng: np.random.Generator, n: int) -> np.ndarray:
        return rng.beta(self.alpha, self.beta, size=n)

    def support(self) -> Support:
        return RealInterval(0.0, 1.0)


@dataclass(frozen=True, slots=True)
class LogNormal(ContinuousDistribution):
    """Log-normal: ``exp(Normal(mu, sigma))``."""

    mu: float
    sigma: float

    def __post_init__(self) -> None:
        if _any_nonpositive(self.sigma):
            raise ValueError(f"log-normal sigma must be positive, got {self.sigma}")

    def sample(self, rng: np.random.Generator) -> float:
        return float(math.exp(rng.normal(self.mu, self.sigma)))

    def log_prob(self, value) -> float:
        value = float(value)
        if value <= 0.0:
            return NEG_INF
        return _normal_log_density(math.log(value), self.mu, self.sigma) - math.log(value)

    def log_prob_batch(self, values: np.ndarray) -> np.ndarray:
        values = np.asarray(values, dtype=np.float64)
        out = np.full(values.shape, NEG_INF)
        mask = values > 0.0
        log_v = bmath.log(values[mask])
        mu = _masked(self.mu, mask)
        sigma = _masked(self.sigma, mask)
        out[mask] = _normal_log_density_batch(log_v, mu, sigma) - log_v
        return out

    def sample_batch(self, rng: np.random.Generator, n: int) -> np.ndarray:
        return bmath.exp(rng.normal(self.mu, self.sigma, size=n))

    def support(self) -> Support:
        return _POSITIVE


@dataclass(frozen=True, slots=True)
class Exponential(ContinuousDistribution):
    """Exponential distribution with the given ``rate``."""

    rate: float

    def __post_init__(self) -> None:
        if _any_nonpositive(self.rate):
            raise ValueError(f"exponential rate must be positive, got {self.rate}")

    def sample(self, rng: np.random.Generator) -> float:
        return float(rng.exponential(1.0 / self.rate))

    def log_prob(self, value) -> float:
        value = float(value)
        if value < 0.0:
            return NEG_INF
        return math.log(self.rate) - self.rate * value

    def log_prob_batch(self, values: np.ndarray) -> np.ndarray:
        values = np.asarray(values, dtype=np.float64)
        out = np.full(values.shape, NEG_INF)
        mask = values >= 0.0
        rate = _masked(self.rate, mask)
        out[mask] = bmath.log(rate) - rate * values[mask]
        return out

    def sample_batch(self, rng: np.random.Generator, n: int) -> np.ndarray:
        return rng.exponential(1.0 / self.rate, size=n)

    def support(self) -> Support:
        return _POSITIVE
