"""SMC hot-path benchmarks: executor backends and the columnar
collection runtime.

Measures the per-figure median latency of one Algorithm-2 translate
step (the SMC hot path) under

* the legacy inline loop (``executor=None``),
* the ``serial`` / ``process`` backends of :mod:`repro.parallel`,
* ``collection='columnar'`` vs ``collection='object'`` across particle
  counts (100 to 10k), the columnar step both on a population converted
  once up front and including the per-step
  ``ColumnarCollection.from_weighted`` conversion,

and records every measurement through the ``smc_bench`` fixture so the
session writes ``BENCH_smc.json`` (see ``conftest.py``).  Two guards
ride along: the columnar step must beat the object step by at least 3x
at 1000 particles (the win that justifies the batched Distribution
API), and its estimates must match the object step's bitwise.  One
series is memory, recorded and not gated: the bytes an object
population of the 305-point regression holds per record and per
particle (``object-population-memory``).

Run with ``pytest benchmarks/test_bench_smc.py -q`` (benchmarks are not
collected by the default ``testpaths``).
"""

import gc
import os
import time
import tracemalloc

import numpy as np
import pytest

from repro import CorrespondenceTranslator, WeightedCollection, infer
from repro.core import ColumnarCollection, InferenceConfig
from repro.hmm import (
    encode,
    exact_first_order_trace,
    first_order_model,
    generate_corpus,
    hidden_state_correspondence,
    second_order_model,
    train_first_order,
    train_second_order,
)
from repro.regression import (
    ADDR_SLOPE,
    NoOutlierModelParams,
    OutlierModelParams,
    coefficient_correspondence,
    conjugate_posterior,
    exact_regression_trace,
    hospital_like_dataset,
    no_outlier_model,
    outlier_model,
)

#: Worker count for the parallel series: min(4, cores), but at least 2 so
#: the pool actually fans out even on single-core CI runners.
PARALLEL_WORKERS = max(2, min(4, os.cpu_count() or 1))

REPETITIONS = 5
NUM_TRACES = 100


@pytest.fixture(scope="module")
def fig8_setup():
    rng = np.random.default_rng(2018)
    data = hospital_like_dataset(rng, num_points=305)
    p_params = NoOutlierModelParams(prior_std=10.0, std=0.5)
    q_params = OutlierModelParams(prior_std=10.0, prob_outlier=0.1, inlier_std=0.5)
    p_model = no_outlier_model(p_params, data.xs, data.ys)
    q_model = outlier_model(q_params, data.xs, data.ys)
    posterior = conjugate_posterior(p_params, data.xs, data.ys)
    return p_model, q_model, posterior


@pytest.fixture(scope="module")
def fig9_setup():
    rng = np.random.default_rng(2018)
    corpus = generate_corpus(rng, num_train_words=1500, num_test_words=3)
    p_params = train_first_order(corpus.train)
    q_params = train_second_order(corpus.train)
    return p_params, q_params, corpus


def _median_step_latency(run_step, repetitions=REPETITIONS):
    """Median wall time of ``run_step`` and the result of every call."""
    times = []
    results = []
    for _ in range(repetitions):
        start = time.perf_counter()
        results.append(run_step())
        times.append(time.perf_counter() - start)
    return float(np.median(times)), results


def _executor_config(backend):
    """The executor series' config: only ``process`` takes a worker count."""
    workers = PARALLEL_WORKERS if backend == "process" else None
    return InferenceConfig(executor=backend, workers=workers)


def _time_executor_series(smc_bench, figure, backend, num_particles, run_step):
    """Record the median of ``run_step`` as one executor-series point;
    returns every call's result."""
    median, results = _median_step_latency(run_step)
    smc_bench(
        {
            "figure": figure,
            "series": f"executor={backend or 'inline'}",
            "workers": PARALLEL_WORKERS if backend == "process" else 1,
            "num_particles": num_particles,
            "median_step_latency_s": median,
        }
    )
    return results


def _fig8_step(setup, executor, seed=7):
    """One timed fig8 step on inputs generated once, outside the timed
    region: every call steps a copy of the same population with the same
    step seed."""
    p_model, q_model, posterior = setup
    translator = CorrespondenceTranslator(p_model, q_model, coefficient_correspondence())
    config = _executor_config(executor)
    rng = np.random.default_rng(seed)
    population = WeightedCollection.uniform(
        [exact_regression_trace(posterior, rng, p_model) for _ in range(NUM_TRACES)]
    )

    def run_step():
        step = infer(
            translator, population.copy(), np.random.default_rng(seed + 1),
            config=config,
        )
        return step.collection.estimate(lambda u: u[ADDR_SLOPE])

    return run_step


@pytest.mark.parametrize("backend", [None, "serial", "process"])
def test_fig8_step_latency_by_backend(fig8_setup, smc_bench, backend):
    run_step = _fig8_step(fig8_setup, backend)
    estimates = _time_executor_series(
        smc_bench, "fig8", backend, NUM_TRACES, run_step
    )
    assert -2.0 < estimates[-1] < 0.5
    assert estimates == [estimates[0]] * REPETITIONS, estimates


#: Particle counts for the columnar scaling series.  The object path is
#: measured at the two smaller sizes only: its per-particle replay takes
#: ~40s/step at 10k, which would dominate the whole benchmark session
#: for a point the 1000-particle gate already establishes.
COLUMNAR_SCALING = [100, 1000, 10_000]
OBJECT_SCALING_CAP = 1000

#: Required columnar speedup over the object path at 1000 particles.
COLUMNAR_SPEEDUP_FLOOR = 3.0


@pytest.fixture(scope="module")
def fig8_populations(fig8_setup):
    """One exact-posterior population per particle count, built once so
    the timed region is the translate step alone (generation at 10k costs
    more than the columnar step itself)."""
    p_model, _q_model, posterior = fig8_setup
    rng = np.random.default_rng(7)
    populations = {}
    for num_particles in COLUMNAR_SCALING:
        traces = [
            exact_regression_trace(posterior, rng, p_model)
            for _ in range(num_particles)
        ]
        populations[num_particles] = WeightedCollection.uniform(traces)
    return populations


def _fig8_collection_step(setup, populations, mode, num_particles, converted=False):
    """One timed fig8 step.  With ``converted`` the population is
    columnarized once here, outside the timed region, and every call
    steps that same collection (so repeated calls must agree exactly);
    otherwise each call steps a copy of the object population, and a
    columnar step pays ``ColumnarCollection.from_weighted`` inside it."""
    p_model, q_model, _posterior = setup
    translator = CorrespondenceTranslator(
        p_model, q_model, coefficient_correspondence()
    )
    config = InferenceConfig(collection=mode)
    population = populations[num_particles]
    columnar = ColumnarCollection.from_weighted(population) if converted else None

    def run_step():
        source = columnar if converted else population.copy()
        step = infer(translator, source, np.random.default_rng(7), config=config)
        assert step.stats.collection_mode == mode
        return step.collection.estimate(lambda u: u[ADDR_SLOPE])

    return run_step


#: The scaling series: (series name, collection mode, converted up front).
#: ``collection=columnar`` is the step cost alone;
#: ``collection=columnar+from_weighted`` adds the object-to-columnar
#: conversion a population built as object traces pays on its first
#: columnar step.
SCALING_SERIES = [
    ("collection=columnar", "columnar", True),
    ("collection=columnar+from_weighted", "columnar", False),
    ("collection=object", "object", False),
]


@pytest.mark.parametrize("num_particles", COLUMNAR_SCALING)
def test_fig8_columnar_particle_scaling(
    fig8_setup, fig8_populations, smc_bench, num_particles
):
    repetitions = 3 if num_particles >= 10_000 else REPETITIONS
    for series, mode, converted in SCALING_SERIES:
        if mode == "object" and num_particles > OBJECT_SCALING_CAP:
            continue
        run_step = _fig8_collection_step(
            fig8_setup, fig8_populations, mode, num_particles, converted
        )
        median, estimates = _median_step_latency(run_step, repetitions=repetitions)
        smc_bench(
            {
                "figure": "fig8",
                "series": series,
                "workers": 1,
                "num_particles": num_particles,
                "median_step_latency_s": median,
            }
        )
        assert -2.0 < estimates[-1] < 0.5
        # Same input and seed every call: a step that mutated its input
        # collection would drift between repetitions.
        assert estimates == [estimates[0]] * repetitions, (series, estimates)


def test_fig8_columnar_speedup_gate(fig8_setup, fig8_populations, smc_bench):
    """CI gate: the columnar step must beat the object step >= 3x at 1000
    particles on the paper's Figure 8 workload."""
    medians = {}
    for mode in ("object", "columnar"):
        run_step = _fig8_collection_step(fig8_setup, fig8_populations, mode, 1000)
        medians[mode], _ = _median_step_latency(run_step)
    speedup = medians["object"] / medians["columnar"]
    smc_bench(
        {
            "figure": "fig8",
            "series": "columnar-speedup-gate",
            "workers": 1,
            "num_particles": 1000,
            "median_step_latency_s": medians["columnar"],
            "object_median_step_latency_s": medians["object"],
            "speedup": speedup,
        }
    )
    assert speedup >= COLUMNAR_SPEEDUP_FLOOR, (
        f"columnar step is only {speedup:.2f}x faster than the object step "
        f"at 1000 particles (floor: {COLUMNAR_SPEEDUP_FLOOR}x): "
        f"{medians}"
    )


def test_fig8_columnar_estimates_match_object_bitwise(
    fig8_setup, fig8_populations
):
    """The speed win may never change the numbers: fig8's edit has one
    fresh address, so the inline columnar step is bitwise reproducible."""
    estimates = {}
    for mode in ("object", "columnar"):
        run_step = _fig8_collection_step(fig8_setup, fig8_populations, mode, 100)
        estimates[mode] = run_step()
    assert estimates["object"] == estimates["columnar"]


#: Particles of the memory series: ~150k records, a few seconds to build.
MEMORY_PARTICLES = 500


def test_fig8_object_population_memory(fig8_setup, smc_bench):
    """Record what an exact-posterior object population of the 305-point
    regression holds: tracemalloc bytes per record and per particle (the
    traces, their records, distributions and scores; the model and its
    observed values are shared and counted outside)."""
    p_model, _q_model, posterior = fig8_setup
    rng = np.random.default_rng(7)
    exact_regression_trace(posterior, rng, p_model)  # the model's one-time state
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        traces = [
            exact_regression_trace(posterior, rng, p_model)
            for _ in range(MEMORY_PARTICLES)
        ]
        gc.collect()
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    records = sum(len(t.choices()) + len(t.observations()) for t in traces)
    smc_bench(
        {
            "figure": "fig8",
            "series": "object-population-memory",
            "workers": 1,
            "num_particles": MEMORY_PARTICLES,
            "records_per_particle": records / MEMORY_PARTICLES,
            "bytes_per_record": held / records,
            "bytes_per_particle": held / MEMORY_PARTICLES,
        }
    )
    assert records == MEMORY_PARTICLES * 307


@pytest.mark.parametrize("backend", [None, "serial", "process"])
def test_fig9_step_latency_by_backend(fig9_setup, smc_bench, backend):
    p_params, q_params, corpus = fig9_setup
    typed, _truth = corpus.test[0]
    observations = encode(typed)
    p_model = first_order_model(p_params, observations)
    q_model = second_order_model(q_params, observations)
    translator = CorrespondenceTranslator(
        p_model, q_model, hidden_state_correspondence()
    )
    config = _executor_config(backend)
    rng = np.random.default_rng(11)
    population = WeightedCollection.uniform(
        [
            exact_first_order_trace(p_params, observations, rng, p_model)
            for _ in range(30)
        ]
    )

    def run_step():
        return infer(
            translator, population.copy(), np.random.default_rng(12), config=config
        )

    _time_executor_series(smc_bench, "fig9", backend, 30, run_step)
