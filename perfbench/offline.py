"""The offline workload: library ``infer`` steps on the Figure 8 regression.

No server, store or language: the embedded robust regression of the
paper's Section 7.2 over a 305-point dataset.  Set-up builds the
dataset, the chain of models and translators, and an exact-posterior
population of the no-outlier program.  The timed phase then walks the
chain with ``collection="columnar"``, adaptive resampling and the inline
executor: first the outlier mixture is introduced (slope and intercept
in correspondence), then its parameters are swept (slope, intercept and
outlier log-variance in correspondence).  The first step converts the
object population to columns; users pay that, so it stays timed.
"""

from __future__ import annotations

import gc
import math
import resource
import time
from dataclasses import dataclass
from typing import Any, Dict, List, Optional

import harness

clock = time.monotonic

NUM_PARTICLES = 5000
NUM_POINTS = 305
#: Translators built in set-up; more than any run walks.
CHAIN_LENGTH = 120
#: Set-ups per run; ``setup_s`` is their median.
SETUP_REPEATS = 2
#: Population size of the bitwise object-vs-columnar check.
CHECK_PARTICLES = 100
#: A read's slope estimate must lie this close to the data's true slope.
SLOPE_TOLERANCE = 0.5


def _p_params() -> Any:
    from repro.regression import NoOutlierModelParams

    return NoOutlierModelParams(prior_std=10.0, std=0.5)


@dataclass
class Setup:
    data: Any
    translators: List[Any]
    population: Any


def build(seed: int) -> Setup:
    import numpy as np

    from repro import WeightedCollection
    from repro.regression import (
        conjugate_posterior,
        exact_regression_trace,
        hospital_like_dataset,
    )

    rng = np.random.default_rng(seed)
    data = hospital_like_dataset(rng, num_points=NUM_POINTS)
    translators = make_chain(data, seed)
    posterior = conjugate_posterior(_p_params(), data.xs, data.ys)
    first = translators[0].source
    population = WeightedCollection.uniform(
        [exact_regression_trace(posterior, rng, first) for _ in range(NUM_PARTICLES)]
    )
    return Setup(data, translators, population)


def make_chain(data: Any, seed: int) -> List[Any]:
    """The edit chain: introduce the outlier mixture, then sweep its
    parameters.  Fresh translators carry no cached plans."""
    import numpy as np

    from repro import CorrespondenceTranslator
    from repro.core import Correspondence
    from repro.regression import (
        ADDR_INTERCEPT,
        ADDR_OUTLIER_LOG_VAR,
        ADDR_SLOPE,
        OutlierModelParams,
        coefficient_correspondence,
        no_outlier_model,
        outlier_model,
    )

    rng = np.random.default_rng([seed, 3])
    source = no_outlier_model(_p_params(), data.xs, data.ys)
    correspondence = coefficient_correspondence()
    sweep = Correspondence.identity([ADDR_SLOPE, ADDR_INTERCEPT, ADDR_OUTLIER_LOG_VAR])
    prob_outlier, inlier_std = 0.1, 0.5
    translators = []
    for _ in range(CHAIN_LENGTH):
        target = outlier_model(
            OutlierModelParams(
                prior_std=10.0, prob_outlier=prob_outlier, inlier_std=inlier_std
            ),
            data.xs,
            data.ys,
        )
        translators.append(CorrespondenceTranslator(source, target, correspondence))
        source, correspondence = target, sweep
        prob_outlier = float(rng.uniform(0.05, 0.2))
        inlier_std = float(rng.uniform(0.4, 0.6))
    return translators


def _slope(particle: Any) -> float:
    from repro.regression import ADDR_SLOPE

    return particle[ADDR_SLOPE]


def run_phase(setup: Setup, seed: int, seconds: float,
              recorder: Optional[Any] = None) -> Dict[str, Any]:
    """Walk the chain for ``seconds``; time every ``infer`` and read."""
    import numpy as np

    import repro.core.smc as smc
    from repro.core import InferenceConfig

    config = InferenceConfig(collection="columnar", resample="adaptive")
    rng = np.random.default_rng([seed, 1])
    population = setup.population.copy()
    ops: List[float] = []
    reads: List[float] = []
    failures: List[str] = []
    started = clock()
    deadline = started + seconds
    for index, translator in enumerate(setup.translators):
        if clock() >= deadline:
            break
        if recorder is not None:
            recorder.default_key = index
        sent = clock()
        step = smc.infer(translator, population, rng, config=config)
        ops.append(clock() - sent)
        if recorder is not None:
            recorder.default_key = None
        population = step.collection
        sent = clock()
        estimate = population.estimate(_slope)
        ess = population.effective_sample_size()
        reads.append(clock() - sent)
        if not (math.isfinite(estimate) and ess > 0) or abs(
            estimate - setup.data.true_slope
        ) > SLOPE_TOLERANCE:
            failures.append(
                f"step {index}: slope estimate {estimate!r} (ESS {ess!r}) is not "
                f"within {SLOPE_TOLERANCE} of the true slope {setup.data.true_slope}"
            )
    else:
        failures.append(f"the chain of {len(setup.translators)} steps ran out")
    ended = clock()
    return {
        "ops_s": ops,
        "reads_s": reads,
        "failures": failures,
        "wall_s": ended - started,
    }


def check_bitwise(setup: Setup, seed: int) -> List[str]:
    """The first step's slope estimate, object path vs columnar, must be
    bit-for-bit equal on a small population."""
    import numpy as np

    from repro import WeightedCollection, infer
    from repro.core import InferenceConfig

    small = WeightedCollection.uniform(setup.population.items[:CHECK_PARTICLES])
    estimates = {}
    for mode in ("object", "columnar"):
        step = infer(
            setup.translators[0], small.copy(), np.random.default_rng([seed, 2]),
            config=InferenceConfig(collection=mode, resample="adaptive"),
        )
        if step.stats.collection_mode != mode:
            return [f"bitwise check: the {mode} step ran as {step.stats.collection_mode}"]
        estimates[mode] = step.collection.estimate(_slope)
    if estimates["object"] != estimates["columnar"]:
        return [f"bitwise check: first-step slope estimates differ: {estimates}"]
    return []


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run(seed: int, seconds: float, trace: bool) -> Dict[str, Any]:
    import repro.regression  # noqa: F401 - module loading is not set-up time

    setup_times = []
    setup = None
    for _ in range(1 if trace else SETUP_REPEATS):
        setup = None  # free the previous population before building the next
        gc.collect()
        started = clock()
        setup = build(seed)
        setup_times.append(clock() - started)
    # Start every timed phase from a settled heap, so whether a full
    # collection of the set-up garbage lands inside it is not up to chance.
    gc.collect()
    plain = run_phase(setup, seed, seconds)
    failures = plain["failures"] + check_bitwise(setup, seed)
    ops_ms = [s * 1e3 for s in plain["ops_s"]]
    result: Dict[str, Any] = {
        "setup_s": harness.summarize(setup_times),
        "op": harness.summarize(ops_ms),
        "read": harness.summarize([s * 1e3 for s in plain["reads_s"]]),
        "throughput_ops_s": len(ops_ms) / plain["wall_s"],
        "attempted": len(ops_ms) + len(plain["reads_s"]),
        "failed": 0,
        "errors": [],
        "peak_rss_mb": _peak_rss_mb(),
        "failures": failures,
    }
    if not trace:
        return result

    import layers

    recorder = layers.Recorder()
    layers.install_core(recorder)
    setup.translators = make_chain(setup.data, seed)
    gc.collect()
    traced = run_phase(setup, seed, seconds, recorder)
    result["failures"] += traced["failures"]
    result["attempted"] += len(traced["ops_s"]) + len(traced["reads_s"])
    by_key: Dict[Any, List[harness.Root]] = {}
    for key, root in recorder.roots:
        by_key.setdefault(key, []).append(root)
    budgets = []
    for index, latency in enumerate(traced["ops_s"]):
        roots = by_key.get(index, [])
        layers_s, unaccounted = harness.budget(latency, roots)
        layers_s["unaccounted"] = unaccounted
        counts, calls = harness.merge(roots)
        budgets.append((latency, layers_s, counts, calls))
    result["layers"] = {
        "budgets": budgets,
        "reads_ms": [],
        "reloads": 0,
        "traced_op": harness.summarize([s * 1e3 for s in traced["ops_s"]]),
    }
    return result
