"""Tests for sequential-observation SMC (particle filtering) built from
trace translators with the full identity correspondence."""

import math

import numpy as np
import pytest

from repro import Model
from repro.core.annealing import (
    full_identity_correspondence,
    observation_schedule,
    sequential_observations,
)
from repro.distributions import Flip, LogCategorical, Normal
from repro.hmm import FirstOrderParams, forward_filter, log_likelihood


@pytest.fixture
def rng():
    return np.random.default_rng(77)


@pytest.fixture
def hmm_params():
    return FirstOrderParams(
        log_initial=np.log([0.6, 0.4]),
        log_transition=np.log([[0.7, 0.3], [0.2, 0.8]]),
        log_observation=np.log([[0.9, 0.1], [0.3, 0.7]]),
    )


def hmm_fn(t, params, num_steps):
    states = []
    if num_steps >= 1:
        states.append(t.sample(LogCategorical(params.log_initial), ("hidden", 0)))
    for i in range(1, num_steps):
        states.append(
            t.sample(LogCategorical(params.log_transition[states[i - 1]]), ("hidden", i))
        )
    for i in range(num_steps):
        t.sample(LogCategorical(params.log_observation[states[i]]), ("y", i))
    return states


class TestObservationSchedule:
    def test_growing_structure(self, hmm_params):
        base = Model(hmm_fn)
        observations = [1, 0, 1]
        models = observation_schedule(
            base,
            batches=[{("y", i): observations[i]} for i in range(3)],
            args_per_step=[(hmm_params, i + 1) for i in range(3)],
        )
        assert len(models) == 3
        # The k-th model has k+1 observed addresses and k+1 latents.
        for k, model in enumerate(models):
            assert len(model.observations) == k + 1

    def test_batch_count_mismatch(self, hmm_params):
        base = Model(hmm_fn)
        with pytest.raises(ValueError):
            observation_schedule(base, batches=[{}, {}], args_per_step=[(hmm_params, 1)])


class TestParticleFilter:
    def test_filtering_marginals_match_exact(self, hmm_params, rng):
        """Bootstrap particle filtering via trace translation matches the
        exact forward-filtering marginals of the HMM."""
        observations = [1, 0, 1, 1, 0]
        base = Model(hmm_fn)
        models = observation_schedule(
            base,
            batches=[{("y", i): observations[i]} for i in range(len(observations))],
            args_per_step=[(hmm_params, i + 1) for i in range(len(observations))],
        )
        collection, steps = sequential_observations(models, 6000, rng)
        assert len(steps) == len(observations) - 1

        alphas, _total = forward_filter(hmm_params, observations)
        exact_filter = np.exp(alphas[-1] - np.logaddexp.reduce(alphas[-1]))
        last = len(observations) - 1
        estimate = collection.estimate_probability(
            lambda u: u[("hidden", last)] == 1
        )
        assert estimate == pytest.approx(exact_filter[1], abs=0.03)

    def test_log_evidence_telescopes(self, hmm_params, rng):
        """Summing per-step log mean weight increments plus the initial
        weights estimates the total log likelihood (Lemma 6 chained)."""
        observations = [1, 0, 1]
        base = Model(hmm_fn)
        models = observation_schedule(
            base,
            batches=[{("y", i): observations[i]} for i in range(len(observations))],
            args_per_step=[(hmm_params, i + 1) for i in range(len(observations))],
        )
        estimates = []
        for _ in range(20):
            traces, log_weights = [], []
            for _ in range(400):
                trace, log_weight = models[0].generate(rng)
                traces.append(trace)
                log_weights.append(log_weight)
            from repro import InferenceConfig, WeightedCollection, infer

            collection = WeightedCollection(traces, log_weights)
            log_z = collection.log_mean_weight()
            correspondence = full_identity_correspondence()
            from repro import CorrespondenceTranslator

            for i in range(len(models) - 1):
                translator = CorrespondenceTranslator(
                    models[i], models[i + 1], correspondence
                )
                step = infer(translator, collection, rng, config=InferenceConfig(resample="always"))
                log_z += step.stats.log_mean_weight_increment
                collection = step.collection
            estimates.append(log_z)
        truth = log_likelihood(hmm_params, observations)
        assert np.mean(estimates) == pytest.approx(truth, abs=0.05)

    def test_fixed_structure_regression(self, rng):
        """Sequentially observing regression data reproduces the
        conjugate posterior."""

        def linreg_fn(t, xs):
            slope = t.sample(Normal(0.0, 5.0), "slope")
            for i, x in enumerate(xs):
                t.sample(Normal(slope * x, 1.0), ("y", i))
            return slope

        xs = [0.5, -1.0, 2.0, 1.5, -0.5, 1.0]
        true_slope = 1.2
        data_rng = np.random.default_rng(3)
        ys = [true_slope * x + data_rng.normal(0, 1.0) for x in xs]

        base = Model(linreg_fn, args=(tuple(xs),))
        models = observation_schedule(
            base, batches=[{("y", i): ys[i]} for i in range(len(xs))]
        )
        collection, _steps = sequential_observations(models, 8000, rng)

        # Conjugate posterior: precision = 1/25 + sum x^2, mean = sum(xy)/precision.
        precision = 1 / 25 + sum(x * x for x in xs)
        posterior_mean = sum(x * y for x, y in zip(xs, ys)) / precision
        estimate = collection.estimate(lambda u: u["slope"])
        assert estimate == pytest.approx(posterior_mean, abs=0.05)

    def test_single_model_schedule(self, hmm_params, rng):
        base = Model(hmm_fn)
        models = observation_schedule(
            base, batches=[{("y", 0): 1}], args_per_step=[(hmm_params, 1)]
        )
        collection, steps = sequential_observations(models, 100, rng)
        assert steps == []
        assert len(collection) == 100

    def test_invalid_inputs(self, rng):
        with pytest.raises(ValueError):
            sequential_observations([], 10, rng)
        base = Model(hmm_fn)
        with pytest.raises(ValueError):
            sequential_observations([base], 0, rng)
