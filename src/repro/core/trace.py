"""Traces of the embedded PPL.

A trace records every random choice made during one execution of a
probabilistic program (Section 3: "a collection of values taken from
every random expression evaluated during program execution"), together
with every observation scored along the way.  The unnormalized log
probability of a trace,

    log P̃r[t ~ P] = sum of choice log probs + sum of observation log probs,

is the quantity manipulated by the weight estimate (Equation 2/8).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Any, Dict, Iterator, List, Mapping, Optional, Tuple

from ..distributions import Distribution
from .address import Address, normalize_address

__all__ = ["ChoiceRecord", "ObservationRecord", "Trace", "ChoiceMap"]


@dataclass(frozen=True, slots=True)
class ChoiceRecord:
    """One random choice: its address, distribution, value, and score."""

    address: Address
    dist: Distribution
    value: Any
    log_prob: float

    def with_value(self, value: Any) -> "ChoiceRecord":
        """A copy of this record rescored at a different value."""
        return replace(self, value=value, log_prob=self.dist.log_prob(value))


@dataclass(frozen=True, slots=True)
class ObservationRecord:
    """One ``observe``: the observed value and its score under the model.

    Observations are not part of the trace in the paper's formal sense
    (their values are fixed), but their probabilities enter
    ``P̃r[t ~ P]`` and the weight estimate, so we record them alongside
    the choices.
    """

    address: Address
    dist: Distribution
    value: Any
    log_prob: float


class ChoiceMap:
    """An immutable-by-convention mapping address -> value.

    Used for constraints in ``Model.generate`` and for translating
    between traces.  Plain dicts are accepted anywhere a ChoiceMap is;
    this class only adds address normalization and convenience helpers.
    """

    def __init__(self, values: Optional[Mapping[Any, Any]] = None):
        self._values: Dict[Address, Any] = {}
        #: address -> (the key held here, value); built on first lookup.
        self._entries: Optional[Dict[Address, Tuple[Address, Any]]] = None
        if values:
            for address, value in values.items():
                self._values[normalize_address(address)] = value

    def __contains__(self, address) -> bool:
        return normalize_address(address) in self._values

    def __getitem__(self, address) -> Any:
        return self._values[normalize_address(address)]

    def get(self, address, default=None) -> Any:
        return self._values.get(normalize_address(address), default)

    def lookup(self, address: Address) -> Optional[Tuple[Address, Any]]:
        """``(key, value)`` for a normalized ``address``, or None.

        ``key`` is the address object this map holds, so records made
        from it share one address per model instead of one per trace.
        """
        entries = self._entries
        if entries is None:
            entries = self._entries = {a: (a, v) for a, v in self._values.items()}
        return entries.get(address)

    def __iter__(self) -> Iterator[Address]:
        return iter(self._values)

    def __len__(self) -> int:
        return len(self._values)

    def items(self):
        return self._values.items()

    def set(self, address, value) -> "ChoiceMap":
        """Return a copy with ``address`` bound to ``value``."""
        copy = ChoiceMap()
        copy._values = dict(self._values)
        copy._values[normalize_address(address)] = value
        return copy

    def __repr__(self) -> str:
        inner = ", ".join(f"{a!r}: {v!r}" for a, v in self._values.items())
        return f"ChoiceMap({{{inner}}})"


class Trace:
    """An execution trace: ordered choices, observations, and return value.

    Both record dicts keep insertion order, which is execution order.
    """

    def __init__(self) -> None:
        self._choices: Dict[Address, ChoiceRecord] = {}
        self._observations: Dict[Address, ObservationRecord] = {}
        self.return_value: Any = None

    # -- construction (used by handlers) ---------------------------------

    def add_choice(self, record: ChoiceRecord) -> None:
        if record.address in self._choices:
            raise ValueError(f"duplicate random choice at address {record.address!r}")
        self._choices[record.address] = record

    def add_observation(self, record: ObservationRecord) -> None:
        if record.address in self._observations:
            raise ValueError(f"duplicate observation at address {record.address!r}")
        self._observations[record.address] = record

    # -- access -----------------------------------------------------------

    def __contains__(self, address) -> bool:
        return normalize_address(address) in self._choices

    def __getitem__(self, address) -> Any:
        return self._choices[normalize_address(address)].value

    def get_record(self, address) -> ChoiceRecord:
        return self._choices[normalize_address(address)]

    def addresses(self) -> List[Address]:
        """Addresses of random choices, in execution order (``R_t``)."""
        return list(self._choices)

    def observation_addresses(self) -> List[Address]:
        """Addresses of observations, in execution order (``O_t``)."""
        return list(self._observations)

    def choices(self) -> List[ChoiceRecord]:
        return list(self._choices.values())

    def observations(self) -> List[ObservationRecord]:
        return list(self._observations.values())

    def get_observation(self, address) -> ObservationRecord:
        return self._observations[normalize_address(address)]

    def has_observation(self, address) -> bool:
        return normalize_address(address) in self._observations

    def __len__(self) -> int:
        return len(self._choices)

    # -- scores -----------------------------------------------------------

    @property
    def choice_log_prob(self) -> float:
        """Sum of log probabilities of all random choices."""
        return math.fsum(r.log_prob for r in self._choices.values())

    @property
    def observation_log_prob(self) -> float:
        """Sum of log probabilities of all observations."""
        return math.fsum(r.log_prob for r in self._observations.values())

    @property
    def log_prob(self) -> float:
        """``log P̃r[t ~ P]``: choices plus observations."""
        return self.choice_log_prob + self.observation_log_prob

    # -- conversions --------------------------------------------------------

    def to_choice_map(self) -> ChoiceMap:
        """The bare address -> value mapping of the trace's choices."""
        return ChoiceMap({a: r.value for a, r in self._choices.items()})

    def copy(self) -> "Trace":
        duplicate = Trace()
        duplicate._choices = dict(self._choices)
        duplicate._observations = dict(self._observations)
        duplicate.return_value = self.return_value
        return duplicate

    def __repr__(self) -> str:
        parts = [f"{a!r}: {r.value!r}" for a, r in self._choices.items()]
        return f"Trace({{{', '.join(parts)}}}, log_prob={self.log_prob:.4f})"
