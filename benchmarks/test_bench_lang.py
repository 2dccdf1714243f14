"""Benchmarks for the structured-language toolchain.

Measures the parser, both semantics (big-step vs the literal small-step
machine of Figure 2), constant folding, the static checker, and
enumeration over a lang program — the substrate costs underlying the
Figure 10 experiment.

The label-diff series (``test_diff_correspondence_latency``) records
the median ``diff_correspondence`` latency of a served edit through the
``lang_bench`` fixture, so the session writes ``BENCH_lang.json`` (see
``conftest.py``): every consecutive pair of the ``fig8-session`` load
script, and a ``gauss-chain`` program of 20, 60 and 150 observations
against the same program with one more.  Run it alone with
``pytest benchmarks/test_bench_lang.py -k diff -q``.
"""

import random
import time

import numpy as np
import pytest

from repro.core.enumerate import log_normalizer
from repro.graph import align_labels, diff_correspondence, flatten_seq
from repro.lang import (
    RandomSource,
    check_program,
    fold_constants,
    lang_model,
    parse_program,
    pretty,
    run,
)
from repro.lang.programs import BURGLARY_REFINED, FIGURE3, gmm_source
from repro.lang.analysis import random_labels
from repro.service.loadgen import WORKLOADS
from repro.service.state import insert_observation

#: Timed repetitions of each diff per median.
DIFF_REPETITIONS = 25


@pytest.fixture(scope="module")
def burglary_program():
    return parse_program(BURGLARY_REFINED)


def test_parse(benchmark):
    program = benchmark(parse_program, BURGLARY_REFINED)
    assert program is not None


def test_pretty_print(benchmark, burglary_program):
    text = benchmark(pretty, burglary_program)
    assert "flip" in text


def test_big_step_simulation(benchmark, burglary_program, rng):
    model = lang_model(burglary_program)
    benchmark(model.simulate, rng)


def test_small_step_simulation(benchmark, burglary_program, rng):
    def once():
        return run(burglary_program, RandomSource(rng))

    result = benchmark(once)
    assert result.return_value in (0, 1)


def test_constant_folding(benchmark, burglary_program):
    folded = benchmark(fold_constants, burglary_program)
    assert folded is not None


def test_static_checker(benchmark, burglary_program):
    diagnostics = benchmark(check_program, burglary_program)
    assert diagnostics == []


def test_enumeration(benchmark, burglary_program):
    model = lang_model(burglary_program)
    total = benchmark(log_normalizer, model)
    assert total < 0


@pytest.mark.parametrize("n", [100, 1000])
def test_gmm_simulation_scaling(benchmark, rng, n):
    model = lang_model(parse_program(gmm_source(10)), env={"sigma": 2.0, "n": n})
    trace = benchmark(model.simulate, rng)
    assert len(trace) == 10 + 2 * n


def _fig8_session_pairs():
    base, ops = WORKLOADS["fig8-session"](0, 12, random.Random(3))
    programs = [parse_program(base)] + [parse_program(source) for _, source in ops]
    return list(zip(programs, programs[1:]))


def _gauss_chain_pair(observations):
    base, ops = WORKLOADS["gauss-chain"](0, observations + 1, random.Random(3))
    sources = [base]
    for _, statement in ops:
        sources.append(insert_observation(sources[-1], statement))
    return [(parse_program(sources[-2]), parse_program(sources[-1]))]


@pytest.mark.parametrize(
    "series, observations",
    [("fig8-session", None), ("gauss-chain-observe", 20),
     ("gauss-chain-observe", 60), ("gauss-chain-observe", 150)],
)
def test_diff_correspondence_latency(lang_bench, series, observations):
    if series == "fig8-session":
        pairs = _fig8_session_pairs()
    else:
        pairs = _gauss_chain_pair(observations)
    samples = []
    for old, new in pairs:
        # Correctness guard: an edit that keeps every random expression
        # (the fig8 script tunes constants, an observe appends) maps
        # each old label.
        assert len(align_labels(old, new)) == len(random_labels(old))
        for _ in range(DIFF_REPETITIONS):
            start = time.perf_counter()
            diff_correspondence(old, new)
            samples.append(time.perf_counter() - start)
    lang_bench({
        "operation": "diff_correspondence",
        "series": series,
        "observations": observations,
        "statements": len(flatten_seq(pairs[0][0])),
        "pairs": len(pairs),
        "repetitions": DIFF_REPETITIONS,
        "median_latency_ms": float(np.median(samples)) * 1e3,
    })
