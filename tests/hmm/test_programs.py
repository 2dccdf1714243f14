"""Tests for the HMM probabilistic programs and incremental translation."""

import math

import numpy as np
import pytest

from repro import CorrespondenceTranslator, InferenceConfig, WeightedCollection, infer
from repro.core.mcmc import gibbs_sweep, chain
from repro.hmm import (
    FirstOrderParams,
    SecondOrderParams,
    exact_first_order_trace,
    first_order_model,
    ground_truth_posterior_probability,
    hidden_sequence,
    hidden_state_correspondence,
    log_ground_truth_probability,
    log_likelihood,
    second_order_model,
    second_order_posterior_marginals,
)


@pytest.fixture
def rng():
    return np.random.default_rng(31)


@pytest.fixture
def first_params():
    return FirstOrderParams(
        log_initial=np.log([0.5, 0.3, 0.2]),
        log_transition=np.log(
            [[0.6, 0.3, 0.1], [0.2, 0.5, 0.3], [0.3, 0.3, 0.4]]
        ),
        log_observation=np.log(
            [[0.8, 0.1, 0.1], [0.1, 0.8, 0.1], [0.15, 0.15, 0.7]]
        ),
    )


@pytest.fixture
def second_params():
    gen = np.random.default_rng(8)

    def rows(shape):
        raw = gen.random(shape) + 0.2
        return np.log(raw / raw.sum(axis=-1, keepdims=True))

    return SecondOrderParams(
        log_initial=np.log([0.5, 0.3, 0.2]),
        log_first_transition=rows((3, 3)),
        log_transition=rows((3, 3, 3)),
        log_observation=np.log(
            [[0.8, 0.1, 0.1], [0.1, 0.8, 0.1], [0.15, 0.15, 0.7]]
        ),
    )


OBSERVATIONS = [0, 2, 1, 1]


class TestPrograms:
    def test_first_order_trace_structure(self, first_params, rng):
        model = first_order_model(first_params, OBSERVATIONS)
        trace = model.simulate(rng)
        assert len(trace) == 4  # only hidden states are latent
        assert len(trace.observation_addresses()) == 4

    def test_first_order_log_prob(self, first_params):
        model = first_order_model(first_params, [0, 1])
        trace = model.score({("hidden", 0): 0, ("hidden", 1): 2})
        expected = (
            first_params.log_initial[0]
            + first_params.log_transition[0, 2]
            + first_params.log_observation[0, 0]
            + first_params.log_observation[2, 1]
        )
        assert trace.log_prob == pytest.approx(expected)

    def test_second_order_log_prob(self, second_params):
        model = second_order_model(second_params, [0, 1, 2])
        states = {("hidden", 0): 1, ("hidden", 1): 0, ("hidden", 2): 2}
        trace = model.score(states)
        expected = (
            second_params.log_initial[1]
            + second_params.log_first_transition[1, 0]
            + second_params.log_transition[1, 0, 2]
            + second_params.log_observation[1, 0]
            + second_params.log_observation[0, 1]
            + second_params.log_observation[2, 2]
        )
        assert trace.log_prob == pytest.approx(expected)

    def test_hidden_sequence_helper(self, first_params, rng):
        model = first_order_model(first_params, OBSERVATIONS)
        trace = model.simulate(rng)
        assert hidden_sequence(trace) == [trace[("hidden", i)] for i in range(4)]

    def test_exact_trace_log_prob_finite(self, first_params, rng):
        trace = exact_first_order_trace(first_params, OBSERVATIONS, rng)
        assert math.isfinite(trace.log_prob)


class TestIncrementalHMM:
    """Trace translation from the first- to the second-order model
    converges to the exact second-order posterior (Section 7.3)."""

    def test_translated_marginals_match_exact(self, first_params, second_params, rng):
        p = first_order_model(first_params, OBSERVATIONS)
        q = second_order_model(second_params, OBSERVATIONS)
        traces = [
            exact_first_order_trace(first_params, OBSERVATIONS, rng, p)
            for _ in range(4000)
        ]
        translator = CorrespondenceTranslator(p, q, hidden_state_correspondence())
        step = infer(translator, WeightedCollection.uniform(traces), rng)
        exact = second_order_posterior_marginals(second_params, OBSERVATIONS)
        for i in range(len(OBSERVATIONS)):
            for state in range(3):
                estimate = step.collection.estimate_probability(
                    lambda u, i=i, state=state: u[("hidden", i)] == state
                )
                assert estimate == pytest.approx(exact[i, state], abs=0.04)

    def test_no_weights_converges_to_first_order(self, first_params, second_params, rng):
        from repro.hmm import posterior_marginals

        p = first_order_model(first_params, OBSERVATIONS)
        q = second_order_model(second_params, OBSERVATIONS)
        traces = [
            exact_first_order_trace(first_params, OBSERVATIONS, rng, p)
            for _ in range(4000)
        ]
        translator = CorrespondenceTranslator(p, q, hidden_state_correspondence())
        step = infer(
            translator, WeightedCollection.uniform(traces), rng,
            config=InferenceConfig(use_weights=False)
        )
        first_marginals = posterior_marginals(first_params, OBSERVATIONS)
        for i in range(len(OBSERVATIONS)):
            estimate = step.collection.estimate_probability(
                lambda u, i=i: u[("hidden", i)] == 0
            )
            assert estimate == pytest.approx(first_marginals[i, 0], abs=0.04)

    def test_gibbs_converges_to_exact(self, second_params, rng):
        q = second_order_model(second_params, OBSERVATIONS)
        kernel = gibbs_sweep(q, [("hidden", i) for i in range(4)])
        states = chain(q, kernel, rng, iterations=3000, burn_in=300)
        exact = second_order_posterior_marginals(second_params, OBSERVATIONS)
        for i in range(4):
            empirical = np.mean([t[("hidden", i)] == 1 for t in states])
            assert empirical == pytest.approx(exact[i, 1], abs=0.05)


class TestMetrics:
    def test_ground_truth_probability_perfect(self, first_params, rng):
        model = first_order_model(first_params, OBSERVATIONS)
        trace = model.score({("hidden", i): s for i, s in enumerate([0, 2, 1, 1])})
        collection = WeightedCollection.uniform([trace])
        assert ground_truth_posterior_probability(collection, [0, 2, 1, 1]) == 1.0
        assert log_ground_truth_probability(collection, [0, 2, 1, 1]) == pytest.approx(0.0)

    def test_ground_truth_probability_partial(self, first_params):
        model = first_order_model(first_params, [0, 1])
        match = model.score({("hidden", 0): 0, ("hidden", 1): 1})
        miss = model.score({("hidden", 0): 2, ("hidden", 1): 1})
        collection = WeightedCollection.uniform([match, miss])
        # Position 0 matched half the time, position 1 always: mean 0.75.
        assert ground_truth_posterior_probability(collection, [0, 1]) == pytest.approx(0.75)

    def test_log_floor(self, first_params):
        model = first_order_model(first_params, [0])
        trace = model.score({("hidden", 0): 2})
        collection = WeightedCollection.uniform([trace])
        assert log_ground_truth_probability(collection, [0]) == pytest.approx(
            math.log(1e-6)
        )

    def test_empty_truth_raises(self, first_params):
        model = first_order_model(first_params, [0])
        collection = WeightedCollection.uniform([model.score({("hidden", 0): 0})])
        with pytest.raises(ValueError):
            ground_truth_posterior_probability(collection, [])
