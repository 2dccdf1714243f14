"""Base classes for primitive probability distributions.

Every random expression in the paper's language (``flip``, ``uniform``, ...)
and every random choice in the embedded PPL is backed by a
:class:`Distribution`.  Distributions know how to

* sample a value given a :class:`numpy.random.Generator`,
* score a value (``log_prob``), and
* describe their *support* (:class:`Support`), which the correspondence
  translator of Section 5.1 uses to decide whether a random choice from the
  old trace may be reused for a corresponding choice in the new trace.

Supports compare by structural equality: two choices are reuse-compatible
exactly when their supports are equal (e.g. ``IntegerRange(0, 5)`` equals
``IntegerRange(0, 5)`` but not ``IntegerRange(1, 6)``).
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Any, Iterable, Sequence

import numpy as np

__all__ = [
    "Support",
    "FiniteSupport",
    "IntegerRange",
    "BinarySupport",
    "RealLine",
    "RealInterval",
    "PositiveReals",
    "Distribution",
    "DiscreteDistribution",
    "ContinuousDistribution",
    "NEG_INF",
]

NEG_INF = float("-inf")


class Support(ABC):
    """Abstract description of the set of values a distribution can emit."""

    @abstractmethod
    def contains(self, value: Any) -> bool:
        """Return True when ``value`` lies in the support."""

    def is_finite(self) -> bool:
        """Return True when the support is a finite set of values."""
        return False


@dataclass(frozen=True)
class FiniteSupport(Support):
    """A finite, explicitly enumerated support."""

    values: tuple

    def contains(self, value: Any) -> bool:
        return value in self.values

    def is_finite(self) -> bool:
        return True

    def enumerate(self) -> Iterable[Any]:
        return iter(self.values)

    def __len__(self) -> int:
        return len(self.values)


@dataclass(frozen=True)
class IntegerRange(Support):
    """All integers between ``low`` and ``high`` inclusive."""

    low: int
    high: int

    def contains(self, value: Any) -> bool:
        return float(value).is_integer() and self.low <= value <= self.high

    def is_finite(self) -> bool:
        return True

    def enumerate(self) -> Iterable[int]:
        return range(self.low, self.high + 1)

    def __len__(self) -> int:
        return self.high - self.low + 1


#: Support of a Bernoulli / flip choice.  A singleton-style instance is
#: exposed as ``BINARY`` below.
@dataclass(frozen=True)
class BinarySupport(Support):
    def contains(self, value: Any) -> bool:
        return value in (0, 1, 0.0, 1.0, False, True)

    def is_finite(self) -> bool:
        return True

    def enumerate(self) -> Iterable[int]:
        return iter((0, 1))

    def __len__(self) -> int:
        return 2


@dataclass(frozen=True)
class RealLine(Support):
    """The full real line."""

    def contains(self, value: Any) -> bool:
        return math.isfinite(float(value))


@dataclass(frozen=True)
class RealInterval(Support):
    """A real interval ``[low, high]``."""

    low: float
    high: float

    def contains(self, value: Any) -> bool:
        return self.low <= float(value) <= self.high


@dataclass(frozen=True)
class PositiveReals(Support):
    """The strictly positive half line."""

    def contains(self, value: Any) -> bool:
        return float(value) > 0.0


class Distribution(ABC):
    """A primitive distribution over values of a single random choice.

    Subclasses must be immutable value objects: equality of two
    distributions (same class, same parameters) implies equality of the
    induced probability measure, which the translator relies on when
    deciding whether a weight factor cancels.

    The built-in subclasses are slotted dataclasses: a trace holds one
    distribution per record, so an instance ``__dict__`` would be paid
    per record.  Subclasses without ``__slots__`` keep a ``__dict__`` and
    work unchanged.
    """

    __slots__ = ()

    @abstractmethod
    def sample(self, rng: np.random.Generator) -> Any:
        """Draw a value using ``rng``."""

    @abstractmethod
    def log_prob(self, value: Any) -> float:
        """Log probability (mass or density) of ``value``.

        Returns ``-inf`` for values outside the support rather than
        raising, so that scoring a constrained trace can detect impossible
        constraints gracefully.
        """

    @abstractmethod
    def support(self) -> Support:
        """The support of the distribution."""

    def prob(self, value: Any) -> float:
        """Probability (mass or density) of ``value``."""
        return math.exp(self.log_prob(value))

    # -- batched API --------------------------------------------------------
    #
    # The columnar SMC path (:mod:`repro.core.columnar`) scores whole
    # particle populations with one call per address.  The base-class
    # implementations below are plain loops over the scalar methods, so
    # third-party Distribution subclasses keep working without changes
    # (the same shim pattern the InferenceConfig migration used); the
    # concrete distributions in continuous.py/discrete.py override them
    # with vectorized implementations that are bitwise identical to the
    # scalar code evaluated per element.

    def log_prob_batch(self, values: np.ndarray) -> np.ndarray:
        """``log_prob`` of each entry of ``values`` as a float64 array.

        Contract: ``log_prob_batch(values)[i]`` is bitwise identical to
        ``log_prob(values[i])``.  The base implementation is the loop
        that makes that trivially true; vectorized overrides must mirror
        the scalar implementation's exact operation order (see
        :mod:`repro.distributions.batch`).  Parameters may themselves be
        per-element arrays in subclass overrides; this fallback supports
        scalar parameters only.
        """
        values = np.asarray(values)
        flat = values.ravel()
        out = np.fromiter(
            (self.log_prob(v) for v in flat.tolist()),
            dtype=np.float64,
            count=flat.size,
        )
        return out.reshape(values.shape)

    def sample_batch(self, rng: np.random.Generator, n: int) -> np.ndarray:
        """Draw ``n`` values using ``rng``.

        No promise is made that the draws match ``n`` sequential
        ``sample`` calls (vectorized overrides consume the stream
        differently); determinism for a fixed generator state is the
        only guarantee.  The base implementation loops over ``sample``.
        """
        return np.asarray([self.sample(rng) for _ in range(n)])

    def is_discrete(self) -> bool:
        return isinstance(self, DiscreteDistribution)


class DiscreteDistribution(Distribution):
    """Marker base class for distributions with countable support."""

    __slots__ = ()

    def enumerate_support(self) -> Sequence[Any]:
        """Enumerate the support (must be finite for this to be called)."""
        support = self.support()
        if not support.is_finite():
            raise ValueError(f"support of {self!r} is not finite")
        return list(support.enumerate())  # type: ignore[attr-defined]


class ContinuousDistribution(Distribution):
    """Marker base class for distributions with a density."""

    __slots__ = ()
