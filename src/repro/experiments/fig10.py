"""Figure 10: GMM trace-translation time, baseline vs optimized
(Section 7.4).

Translates traces of the Listing 5 Gaussian mixture model across a
hyper-parameter edit (the prior std of the cluster centers), measuring
translation time as the number of data points ``N`` grows:

* **Baseline** — the Section 5 algorithm: a full re-execution of the new
  program plus a full replay of the old one (O(N + K) per translation),
  via the embedded-PPL bridge and the diff-derived correspondence;
* **Optimized** — the Section 6 algorithm: incremental change
  propagation over the dependency-record trace (O(K), independent of N).

Besides wall-clock time the runner reports the number of statements the
optimized engine visited — the deterministic work measure that makes the
asymptotic claim checkable without timing noise.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from ..gmm import gmm_edit_setup
from ..graph import GraphTranslator, baseline_lang_translator, graph_trace_to_choice_map
from .harness import Row, print_table

__all__ = ["Fig10Config", "Fig10Result", "run_fig10"]


@dataclass
class Fig10Config:
    seed: int = 2018
    num_points: Sequence[int] = (1, 3, 10, 32, 100, 316, 1000)
    k: int = 10
    sigma_old: float = 2.0
    sigma_new: float = 3.0
    repetitions: int = 5


@dataclass
class Fig10Result:
    rows: List[Row]


def run_fig10(config: Optional[Fig10Config] = None, quiet: bool = False) -> Fig10Result:
    """Run the Figure 10 experiment and print its series."""
    config = config or Fig10Config()
    rng = np.random.default_rng(config.seed)
    rows: List[Row] = []

    for n in config.num_points:
        setup = gmm_edit_setup(
            n, k=config.k, sigma_old=config.sigma_old, sigma_new=config.sigma_new
        )

        optimized = GraphTranslator(
            setup.source_program, setup.target_program, source_env=setup.env
        )
        graph_trace = optimized.initial_trace(rng)

        baseline = baseline_lang_translator(
            setup.source_program, setup.target_program, source_env=setup.env
        )
        flat_trace = baseline.source.score(graph_trace_to_choice_map(graph_trace))

        baseline_times, optimized_times = [], []
        visited = 0
        for _ in range(config.repetitions):
            start = time.perf_counter()
            baseline_result = baseline.translate(rng, flat_trace)
            baseline_times.append(time.perf_counter() - start)

            start = time.perf_counter()
            optimized_result = optimized.translate(rng, graph_trace)
            optimized_times.append(time.perf_counter() - start)
            visited = optimized_result.components["visited_statements"]

            # Sanity: same deterministic weight from both algorithms.
            if abs(baseline_result.log_weight - optimized_result.log_weight) > 1e-6:
                raise AssertionError(
                    "baseline and optimized translators disagree on the weight"
                )

        rows.append(
            Row(
                "Baseline",
                {"n": n, "translation_time_s": float(np.median(baseline_times))},
            )
        )
        rows.append(
            Row(
                "Optimized",
                {
                    "n": n,
                    "translation_time_s": float(np.median(optimized_times)),
                    "visited_statements": visited,
                },
            )
        )

    if not quiet:
        print_table(
            rows,
            columns=["n", "translation_time_s", "visited_statements"],
            title=(
                "Figure 10: GMM translation time vs number of data points "
                "(paper: baseline grows as O(N + K), optimized stays O(K))"
            ),
        )
    return Fig10Result(rows=rows)


if __name__ == "__main__":
    run_fig10()
