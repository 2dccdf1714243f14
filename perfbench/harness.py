"""Measurement rules shared by every workload of the benchmark.

* Metric names match :data:`METRIC_NAME` (letters, digits, ``_ . -``).
* A timing is reported as its median plus the highest percentile that
  has at least :data:`MIN_TAIL_SAMPLES` samples beyond it
  (:func:`summarize`); asking for a percentile the sample count cannot
  support raises :class:`UnsupportedPercentile` instead of printing a
  number that one outlier decides.
* Spans form one tree per request.  A span's *self time* is its duration
  minus the part of that interval its children cover
  (:func:`compact`); a request's *unaccounted* time is its
  client-observed latency minus everything the spans cover
  (:func:`budget`).
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

#: The pattern every reported metric name must match.
METRIC_NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]*")

#: A tail percentile needs at least this many samples strictly beyond it.
MIN_TAIL_SAMPLES = 10

#: Tail percentiles tried, highest first.
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0)


class UnsupportedPercentile(ValueError):
    """The sample count cannot support the requested percentile."""


def check_metric_name(name: str) -> str:
    if len(name) > 64 or METRIC_NAME.fullmatch(name) is None:
        raise ValueError(f"bad metric name {name!r}")
    return name


def samples_beyond(count: int, pct: float) -> float:
    """How many of ``count`` samples lie above the ``pct`` percentile."""
    return count * (100.0 - pct) / 100.0


def supports(count: int, pct: float) -> bool:
    """The median needs one sample; a tail needs ten beyond it."""
    if pct <= 50.0:
        return count >= 1
    return samples_beyond(count, pct) >= MIN_TAIL_SAMPLES - 1e-9


def percentile(samples: Sequence[float], pct: float) -> float:
    """Linear-interpolated percentile; refuses what ``supports`` refuses."""
    count = len(samples)
    if not supports(count, pct):
        raise UnsupportedPercentile(
            f"p{pct:g} needs {MIN_TAIL_SAMPLES} samples beyond it; "
            f"{count} sample(s) hold {samples_beyond(count, pct):.1f}"
        )
    ordered = sorted(samples)
    rank = (count - 1) * pct / 100.0
    low = math.floor(rank)
    high = min(low + 1, count - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def tail_percentile(count: int) -> Optional[float]:
    """The highest percentile of :data:`TAIL_LADDER` ``count`` supports."""
    for pct in TAIL_LADDER:
        if supports(count, pct):
            return pct
    return None


@dataclass(frozen=True)
class Summary:
    """Median, the highest supported tail, and the sample count."""

    count: int
    p50: Optional[float]
    tail_pct: Optional[float]
    tail: Optional[float]

    def to_dict(self) -> Dict[str, object]:
        return {
            "count": self.count,
            "p50": self.p50,
            "tail_pct": self.tail_pct,
            "tail": self.tail,
        }


def summarize(samples: Sequence[float]) -> Summary:
    count = len(samples)
    if count == 0:
        return Summary(0, None, None, None)
    pct = tail_percentile(count)
    return Summary(
        count,
        percentile(samples, 50.0),
        pct,
        None if pct is None else percentile(samples, pct),
    )


# -- span trees ----------------------------------------------------------------


@dataclass
class Span:
    """One timed call: ``name`` over ``[start, end]`` (``time.monotonic``
    seconds, shared across processes) with its child spans and counts."""

    name: str
    start: float
    end: float
    children: List["Span"] = field(default_factory=list)
    counts: Dict[str, float] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start

    def walk(self) -> Iterable["Span"]:
        yield self
        for child in self.children:
            yield from child.walk()


def covered(intervals: Iterable[Tuple[float, float]], lo: float, hi: float) -> float:
    """Length of ``[lo, hi]`` covered by the union of ``intervals``."""
    clipped = sorted(
        (max(lo, a), min(hi, b)) for a, b in intervals if min(hi, b) > max(lo, a)
    )
    total = 0.0
    cursor = lo
    for a, b in clipped:
        if b <= cursor:
            continue
        total += b - max(a, cursor)
        cursor = b
    return total


def self_time(span: Span) -> float:
    return span.duration - covered(
        ((c.start, c.end) for c in span.children), span.start, span.end
    )


@dataclass
class Root:
    """A finished top-level span, compacted: its interval, the self time
    and call count of every span name beneath it, and summed counts
    (``"<span name>.<count name>"``)."""

    name: str
    start: float
    end: float
    layers: Dict[str, float] = field(default_factory=dict)
    calls: Dict[str, int] = field(default_factory=dict)
    counts: Dict[str, float] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start

    def to_dict(self) -> Dict[str, object]:
        return {
            "name": self.name,
            "start": self.start,
            "end": self.end,
            "layers": self.layers,
            "calls": self.calls,
            "counts": self.counts,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "Root":
        return cls(
            str(data["name"]),
            float(data["start"]),
            float(data["end"]),
            dict(data.get("layers") or {}),
            dict(data.get("calls") or {}),
            dict(data.get("counts") or {}),
        )


def compact(span: Span) -> Root:
    root = Root(span.name, span.start, span.end)
    for node in span.walk():
        root.layers[node.name] = root.layers.get(node.name, 0.0) + self_time(node)
        root.calls[node.name] = root.calls.get(node.name, 0) + 1
        for key, value in node.counts.items():
            name = f"{node.name}.{key}"
            root.counts[name] = root.counts.get(name, 0.0) + value
    return root


def interval(name: str, start: float, end: float) -> Root:
    """A span with no children, e.g. a wait between two recorded spans."""
    return Root(name, start, end, {name: end - start}, {name: 1})


def budget(latency: float, roots: Sequence[Root]) -> Tuple[Dict[str, float], float]:
    """Split one request's ``latency`` into per-name self times plus the
    unaccounted remainder.

    ``roots`` are the request's top-level spans; they must not overlap
    one another (each layer is entered once per request, in sequence).
    The returned self times plus the remainder add up to ``latency``
    exactly; a remainder below zero means the spans double-count and is
    rejected.
    """
    ordered = sorted(roots, key=lambda r: r.start)
    for before, after in zip(ordered, ordered[1:]):
        if after.start < before.end - 1e-6:
            raise ValueError(
                f"spans {before.name} and {after.name} overlap by "
                f"{(before.end - after.start) * 1e3:.3f} ms"
            )
    layers: Dict[str, float] = {}
    for root in ordered:
        for name, seconds in root.layers.items():
            layers[name] = layers.get(name, 0.0) + seconds
    unaccounted = latency - sum(layers.values())
    if unaccounted < -1e-6:
        raise ValueError(
            f"spans cover {sum(layers.values()) * 1e3:.3f} ms of a "
            f"{latency * 1e3:.3f} ms request"
        )
    return layers, unaccounted


def median_band(latencies: Sequence[float], width: float = 0.1) -> List[int]:
    """Indices of the ops whose latency rank lies within ``width`` of the
    median rank (the 40th to 60th percentile by default), at least the
    median op itself.  Their mean layer budget splits a typical op: it
    adds up to their mean latency, which is close to the median."""
    count = len(latencies)
    if count == 0:
        return []
    order = sorted(range(count), key=lambda i: latencies[i])
    mid = (count - 1) / 2.0
    spread = max(width * (count - 1), 0.5)
    return [i for rank, i in enumerate(order) if abs(rank - mid) <= spread]


def merge(roots: Iterable[Root]) -> Tuple[Dict[str, float], Dict[str, int]]:
    """Summed counts and call counts of several roots."""
    counts: Dict[str, float] = {}
    calls: Dict[str, int] = {}
    for root in roots:
        for name, value in root.counts.items():
            counts[name] = counts.get(name, 0.0) + value
        for name, value in root.calls.items():
            calls[name] = calls.get(name, 0) + value
    return counts, calls
