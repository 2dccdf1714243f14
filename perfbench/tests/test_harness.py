"""Tests of the benchmark's measurement rules.

Run with ``python3 -m pytest perfbench/tests -q`` from the repository root.
"""

import json
import math
import statistics
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent))

import harness  # noqa: E402
import run  # noqa: E402
import served  # noqa: E402
from harness import Root, Span  # noqa: E402

BENCHMARK_JSON = HERE.parent.parent / "BENCHMARK.json"


# -- metric names --------------------------------------------------------------


@pytest.mark.parametrize(
    "name", ["op_p50_ms", "setup_s", "store.codec.dumps_ms", "core.smc.ess_frac", "a-b.c_1"]
)
def test_metric_name_accepts_letters_digits_and_separators(name):
    assert harness.check_metric_name(name) == name


@pytest.mark.parametrize(
    "name", ["", "op p50", "op/p50", "lat(ms)", "_leading", "x" * 65, "é"]
)
def test_metric_name_rejects_everything_else(name):
    with pytest.raises(ValueError):
        harness.check_metric_name(name)


def test_every_reported_metric_name_is_valid_and_unique():
    names = [n for n, _ in run.END_TO_END] + [n for n, _ in run.PER_LAYER]
    assert len(names) == len(set(names))
    for name in names:
        harness.check_metric_name(name)


def test_benchmark_json_lists_exactly_the_reported_metrics():
    spec = json.loads(BENCHMARK_JSON.read_text())
    assert [m["name"] for m in spec["end_to_end"]] == [n for n, _ in run.END_TO_END]
    assert [m["name"] for m in spec["per_layer"]] == [n for n, _ in run.PER_LAYER]
    units = dict(run.END_TO_END + run.PER_LAYER)
    for metric in spec["end_to_end"] + spec["per_layer"]:
        assert metric["unit"] == units[metric["name"]]
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)


# -- the percentile rule -------------------------------------------------------


def test_median_needs_one_sample():
    assert harness.percentile([3.0], 50) == 3.0
    with pytest.raises(harness.UnsupportedPercentile):
        harness.percentile([], 50)


@pytest.mark.parametrize(
    "count, pct, ok",
    [(199, 95, False), (200, 95, True), (24, 99, False), (999, 99, False),
     (1000, 99, True), (99, 90, False), (100, 90, True), (40, 75, True)],
)
def test_tail_needs_ten_samples_beyond_it(count, pct, ok):
    samples = [float(i) for i in range(count)]
    if ok:
        harness.percentile(samples, pct)
    else:
        with pytest.raises(harness.UnsupportedPercentile):
            harness.percentile(samples, pct)


def test_p99_from_24_samples_is_refused():
    with pytest.raises(harness.UnsupportedPercentile, match="p99"):
        harness.percentile([1.0] * 24, 99)


def test_summary_reports_the_highest_supported_tail_and_count():
    samples = [float(i) for i in range(1, 251)]
    summary = harness.summarize(samples)
    assert summary.count == 250
    assert summary.p50 == statistics.median(samples)
    assert summary.tail_pct == 95.0
    assert summary.tail == pytest.approx(237.55)
    assert harness.summarize(samples[:30]).tail_pct is None
    assert harness.summarize([]).p50 is None


def test_percentile_interpolates_linearly():
    assert harness.percentile([1.0, 2.0, 3.0, 4.0], 50) == 2.5


def test_failed_requests_count_as_misses():
    requests = [served.Request(f"s#{i}", "s", "edit", True, 0.0, 0.010, ok=True)
                for i in range(3)]
    requests.append(served.Request("s#3", "s", "edit", True, 0.0, 0.001, ok=False))
    samples = served._ms_samples(requests)
    assert samples.count(math.inf) == 1
    assert harness.summarize(samples).p50 == pytest.approx(10.0)


# -- self time and the request budget -----------------------------------------


def _tree(at=0.0):
    """store [0, 10]: parse [1, 2], submit [2, 8] (translate [3, 7],
    interp [4, 5] and [5, 6] inside translate), save [8, 9.5]; all
    shifted by ``at``."""
    def span(name, start, end, children=(), **counts):
        return Span(name, at + start, at + end, list(children), counts)

    translate = span("translate", 3, 7, [span("interp", 4, 5), span("interp", 5, 6)])
    return span("store", 0, 10, [
        span("parse", 1, 2),
        span("submit", 2, 8, [translate]),
        span("save", 8, 9.5, bytes=100),
    ])


def test_self_time_subtracts_covered_children():
    tree = _tree()
    assert harness.self_time(tree) == pytest.approx(10.0 - 1.0 - 6.0 - 1.5)
    submit = tree.children[1]
    assert harness.self_time(submit) == pytest.approx(2.0)


def test_overlapping_children_are_not_subtracted_twice():
    span = Span("parent", 0.0, 10.0, [Span("a", 1.0, 5.0), Span("b", 3.0, 7.0),
                                      Span("c", 9.0, 12.0)])
    assert harness.self_time(span) == pytest.approx(10.0 - 6.0 - 1.0)


def test_compact_sums_self_time_calls_and_counts_by_name():
    root = harness.compact(_tree())
    assert root.layers == pytest.approx(
        {"store": 1.5, "parse": 1.0, "submit": 2.0, "translate": 2.0, "interp": 2.0, "save": 1.5}
    )
    assert root.calls["interp"] == 2
    assert root.counts == {"save.bytes": 100}
    assert sum(root.layers.values()) == pytest.approx(root.duration)
    assert Root.from_dict(json.loads(json.dumps(root.to_dict()))) == root


def test_budget_adds_up_to_the_client_latency():
    decode = harness.compact(Span("decode", 100.0, 100.5))
    queue = harness.interval("queue", 100.5, 101.0)
    store = harness.compact(_tree(at=101.0))
    layers, unaccounted = harness.budget(12.0, [store, decode, queue])
    assert unaccounted == pytest.approx(12.0 - 11.0)
    assert sum(layers.values()) + unaccounted == pytest.approx(12.0)
    assert layers["queue"] == pytest.approx(0.5)


def test_budget_rejects_overlapping_roots_and_double_counting():
    a = harness.interval("a", 0.0, 2.0)
    b = harness.interval("b", 1.0, 3.0)
    with pytest.raises(ValueError, match="overlap"):
        harness.budget(5.0, [a, b])
    with pytest.raises(ValueError, match="cover"):
        harness.budget(1.0, [a])


def test_median_band_holds_the_ops_around_the_median():
    latencies = [float(v) for v in (50, 10, 40, 30, 20, 60, 70, 80, 90, 100, 0)]
    band = harness.median_band(latencies)
    assert sorted(latencies[i] for i in band) == [40.0, 50.0, 60.0]
    assert harness.median_band([5.0]) == [0]
    assert sorted(harness.median_band([2.0, 1.0])) == [0, 1]
    assert harness.median_band([]) == []


def test_merge_sums_counts_and_calls():
    one = harness.compact(Span("x", 0.0, 1.0, counts={"n": 2}))
    two = harness.compact(Span("x", 1.0, 2.0, counts={"n": 3}))
    counts, calls = harness.merge([one, two])
    assert counts == {"x.n": 5}
    assert calls == {"x": 2}


# -- the output check ----------------------------------------------------------


def _histogram(values):
    weight = 1.0 / len(values)
    return {"ess": float(len(values)),
            "values": [{"value": v, "probability": weight} for v in values]}


def test_normal_posterior_is_the_conjugate_update():
    mean, std = served.normal_posterior([1.0, 3.0])
    assert mean == pytest.approx(4.0 / 2.25)
    assert std == pytest.approx(2.25 ** -0.5)


def test_normal_posterior_check_accepts_agreement_and_rejects_a_shift():
    observed = [0.5, 0.7, 0.2, 0.4]
    mean, std = served.normal_posterior(observed)
    close = [mean + std * d for d in (-0.5, -0.2, 0.0, 0.2, 0.5)]
    assert served.check_normal_posterior(_histogram(close), observed) == ""
    far = [v + 10 * std for v in close]
    assert "off by more than" in served.check_normal_posterior(_histogram(far), observed)


def test_normal_posterior_check_needs_the_full_population():
    partial = {"ess": 5.0, "values": [{"value": 0.0, "probability": 0.4}]}
    assert "mass" in served.check_normal_posterior(partial, [0.0])
