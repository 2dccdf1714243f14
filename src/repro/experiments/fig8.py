"""Figure 8: robust Bayesian linear regression (Section 7.2).

Estimates the posterior mean of the slope in the robust model ``Q``
(Listing 2) and plots average estimate error against median runtime per
estimate for three methods:

* **MCMC** — a cycle of independent (prior-proposal) Metropolis updates
  to each latent variable of ``Q``, run from scratch;
* **Incremental** — Algorithm 2: exact conjugate posterior samples of
  the non-robust model ``P`` (Listing 1), translated with the
  slope/intercept correspondence; no MCMC after translation;
* **Incremental (no weights)** — the same, discarding the weight
  estimates (converges to the wrong value, as the paper shows).

The gold-standard reference is a long hand-tuned random-walk chain, as
in the paper ("using a hand-optimized MCMC algorithm as the
gold-standard").
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..core import CorrespondenceTranslator, InferenceConfig, WeightedCollection, infer
from ..core.mcmc import chain, cycle, independent_mh_site, random_walk_mh_site
from ..observability import NULL_METRICS, MetricsRegistry, Tracer
from ..regression import (
    ADDR_INTERCEPT,
    ADDR_OUTLIER_LOG_VAR,
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
from .harness import Row, print_table

__all__ = ["Fig8Config", "Fig8Result", "run_fig8", "gold_standard_slope"]


@dataclass
class Fig8Config:
    num_points: int = 305
    seed: int = 2018
    #: Incremental trace counts (one plotted point each).
    trace_counts: Sequence[int] = (3, 10, 30, 100, 300)
    #: MCMC iteration budgets (one plotted point each).
    mcmc_iterations: Sequence[int] = (10, 30, 100, 300, 1000)
    #: Estimates per point for the error average.
    repetitions: int = 8
    p_params: NoOutlierModelParams = field(
        default_factory=lambda: NoOutlierModelParams(prior_std=10.0, std=0.5)
    )
    q_params: OutlierModelParams = field(
        default_factory=lambda: OutlierModelParams(
            prior_std=10.0, prob_outlier=0.1, inlier_std=0.5
        )
    )
    gold_iterations: int = 20000
    #: Particle-execution backend for the incremental series (None = the
    #: inline loop; "serial"/"process" dispatch through
    #: repro.parallel) and its worker count.
    executor: Optional[str] = None
    workers: Optional[int] = None
    #: Particle-population representation: "object" (one Trace per
    #: particle) or "columnar" (address-major arrays, vectorized step).
    collection: str = "object"


@dataclass
class Fig8Result:
    rows: List[Row]
    gold_slope: float
    #: The tracer the run reported into (span tree exportable as JSON).
    tracer: Optional[Tracer] = None


def gold_standard_slope(q_model, q_params, posterior, rng, iterations: int) -> float:
    """Long, well-initialized random-walk chain on ``Q``."""
    kernel = cycle(
        [
            random_walk_mh_site(q_model, ADDR_SLOPE, 0.03),
            random_walk_mh_site(q_model, ADDR_INTERCEPT, 0.03),
            random_walk_mh_site(q_model, ADDR_OUTLIER_LOG_VAR, 0.3),
        ]
    )
    initial = q_model.score(
        {
            ADDR_SLOPE: posterior.slope_mean,
            ADDR_INTERCEPT: posterior.intercept_mean,
            ADDR_OUTLIER_LOG_VAR: q_params.outlier_log_var_mu,
        }
    )
    states = chain(
        q_model, kernel, rng, initial=initial, iterations=iterations, burn_in=iterations // 4
    )
    return float(np.mean([t[ADDR_SLOPE] for t in states]))


def run_fig8(
    config: Optional[Fig8Config] = None,
    quiet: bool = False,
    *,
    tracer: Optional[Tracer] = None,
    metrics: MetricsRegistry = NULL_METRICS,
) -> Fig8Result:
    """Run the Figure 8 experiment and print its series.

    All runtimes are read from ``tracer`` spans (``fig8.incremental``
    per estimate, ``fig8.mcmc`` per chain); a fresh tracer is created
    when none is passed, and is returned on the result for export.
    """
    config = config or Fig8Config()
    tracer = tracer if tracer is not None else Tracer()
    inference = InferenceConfig(
        tracer=tracer,
        metrics=metrics,
        executor=config.executor,
        workers=config.workers,
        collection=config.collection,
    )
    rng = np.random.default_rng(config.seed)
    data = hospital_like_dataset(rng, num_points=config.num_points)
    p_model = no_outlier_model(config.p_params, data.xs, data.ys)
    q_model = outlier_model(config.q_params, data.xs, data.ys)
    posterior = conjugate_posterior(config.p_params, data.xs, data.ys)
    translator = CorrespondenceTranslator(p_model, q_model, coefficient_correspondence())

    gold = gold_standard_slope(q_model, config.q_params, posterior, rng, config.gold_iterations)
    rows: List[Row] = []

    def incremental_estimate(num_traces: int, use_weights: bool) -> Tuple[float, float]:
        with tracer.span("fig8.incremental") as span:
            traces = [
                exact_regression_trace(posterior, rng, p_model) for _ in range(num_traces)
            ]
            step = infer(
                translator,
                WeightedCollection.uniform(traces),
                rng,
                config=inference.replace(use_weights=use_weights),
            )
            estimate = step.collection.estimate(lambda u: u[ADDR_SLOPE])
        return estimate, span.duration

    for use_weights, series in [(True, "Incremental"), (False, "Incremental (no weights)")]:
        for num_traces in config.trace_counts:
            estimates, durations = [], []
            for _ in range(config.repetitions):
                estimate, seconds = incremental_estimate(num_traces, use_weights)
                estimates.append(estimate)
                durations.append(seconds)
            rows.append(
                Row(
                    series,
                    {
                        "param": num_traces,
                        "median_runtime_s": float(np.median(durations)),
                        "avg_error": float(np.mean([abs(e - gold) for e in estimates])),
                    },
                )
            )

    mcmc_kernel = cycle(
        [
            independent_mh_site(q_model, ADDR_SLOPE),
            independent_mh_site(q_model, ADDR_INTERCEPT),
            independent_mh_site(q_model, ADDR_OUTLIER_LOG_VAR),
        ]
    )
    for iterations in config.mcmc_iterations:
        estimates, durations = [], []
        for _ in range(config.repetitions):
            with tracer.span("fig8.mcmc") as span:
                states = chain(
                    q_model,
                    mcmc_kernel,
                    rng,
                    iterations=iterations,
                    burn_in=iterations // 4,
                )
            estimates.append(float(np.mean([t[ADDR_SLOPE] for t in states])))
            durations.append(span.duration)
        rows.append(
            Row(
                "MCMC",
                {
                    "param": iterations,
                    "median_runtime_s": float(np.median(durations)),
                    "avg_error": float(np.mean([abs(e - gold) for e in estimates])),
                },
            )
        )

    if not quiet:
        print_table(
            rows,
            columns=["param", "median_runtime_s", "avg_error"],
            title=(
                "Figure 8: robust regression — error vs runtime "
                f"(gold slope = {gold:.4f}; paper: incremental 0.031 error @ 0.043 s, "
                "MCMC 0.19 error @ 0.53 s)"
            ),
        )
    return Fig8Result(rows=rows, gold_slope=gold, tracer=tracer)


if __name__ == "__main__":
    run_fig8()
