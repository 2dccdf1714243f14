"""Bitwise contract of the batched Distribution API.

``log_prob_batch(values)[i]`` must be bitwise identical to
``log_prob(values[i])`` for every concrete distribution — including
out-of-support values (-inf), edge-case parameters, and per-element
array parameters (compared against a scalar distribution built from that
element's parameters).  ``sample_batch`` promises determinism for a
fixed generator state, not stream-equality with sequential ``sample``.
"""

import math

import numpy as np
import pytest

from repro.distributions import (
    Beta,
    Categorical,
    Delta,
    Exponential,
    Flip,
    Gamma,
    Geometric,
    LogCategorical,
    LogNormal,
    Normal,
    Poisson,
    TwoNormals,
    Uniform,
    UniformDiscrete,
)
from repro.distributions.base import Distribution, RealLine
from repro.distributions import batch as bmath

NEG_INF = float("-inf")


def assert_bitwise(dist, values):
    """log_prob_batch == per-element log_prob, bit for bit."""
    batched = dist.log_prob_batch(np.asarray(values, dtype=np.float64))
    assert batched.dtype == np.float64
    for i, value in enumerate(values):
        scalar = dist.log_prob(value)
        got = float(batched[i])
        if math.isinf(scalar) or math.isinf(got):
            assert scalar == got, (dist, value, scalar, got)
        else:
            assert scalar.hex() == got.hex(), (dist, value, scalar, got)


CONTINUOUS_CASES = [
    (Normal(0.3, 1.7), [-2.5, 0.0, 0.3, 4.1, 100.0]),
    (Uniform(-1.0, 2.0), [-1.5, -1.0, 0.25, 2.0, 2.5]),
    (TwoNormals(0.5, 0.1, 0.4, 3.0), [-5.0, 0.0, 0.5, 2.0]),
    (TwoNormals(0.5, 0.0, 0.4, 3.0), [0.0, 0.5]),  # p=0 shortcut
    (TwoNormals(0.5, 1.0, 0.4, 3.0), [0.0, 0.5]),  # p=1 shortcut
    (Gamma(2.0, 1.5), [-1.0, 0.0, 0.25, 3.7]),
    (Beta(2.0, 5.0), [-0.1, 0.0, 0.3, 1.0, 1.5]),
    (LogNormal(0.1, 0.9), [-1.0, 0.0, 0.5, 2.0]),
    (Exponential(1.3), [-0.5, 0.0, 0.7, 10.0]),
]

DISCRETE_CASES = [
    (Flip(0.3), [0, 1, 2, -1]),
    (Flip(0.0), [0, 1]),
    (Flip(1.0), [0, 1]),
    (UniformDiscrete(2, 7), [1, 2, 5, 7, 8, 3.5]),
    (Categorical([0.2, 0.0, 0.8]), [-1, 0, 1, 2, 3, 0.5]),
    (LogCategorical([-1.0, NEG_INF, -0.5]), [-1, 0, 1, 2, 3]),
    (Delta(3), [2, 3, 4]),
    (Geometric(0.4), [-1, 0, 3, 2.5]),
    (Geometric(0.0), [0, 1]),
    (Poisson(2.5), [-1, 0, 4, 1.5]),
]


@pytest.mark.parametrize(
    "dist,values", CONTINUOUS_CASES + DISCRETE_CASES, ids=lambda c: repr(c)[:50]
)
def test_log_prob_batch_bitwise(dist, values):
    assert_bitwise(dist, values)


def test_array_parameterized_normal_matches_per_element_scalars():
    rng = np.random.default_rng(0)
    n = 257
    means = rng.normal(size=n)
    stds = np.abs(rng.normal(size=n)) + 0.1
    values = rng.normal(size=n)
    batched = Normal(means, stds).log_prob_batch(values)
    for i in range(n):
        assert batched[i].hex() == Normal(means[i], stds[i]).log_prob(values[i]).hex()


def test_array_parameterized_twonormals_matches_per_element_scalars():
    rng = np.random.default_rng(1)
    n = 100
    stds = np.abs(rng.normal(size=n)) + 0.2
    values = rng.normal(size=n)
    dist = TwoNormals(0.5, 0.1, 0.4, stds)
    batched = dist.log_prob_batch(values)
    for i in range(n):
        scalar = TwoNormals(0.5, 0.1, 0.4, stds[i]).log_prob(values[i])
        assert batched[i].hex() == scalar.hex()


def test_array_parameterized_gamma_respects_mask_and_elements():
    shapes = np.array([1.5, 2.0, 3.0])
    dist = Gamma(shapes, 1.2)
    values = np.array([-1.0, 0.5, 2.0])
    batched = dist.log_prob_batch(values)
    assert batched[0] == NEG_INF
    for i in (1, 2):
        assert batched[i].hex() == Gamma(shapes[i], 1.2).log_prob(values[i]).hex()


def test_array_parameterized_flip_matches_per_element_scalars():
    rng = np.random.default_rng(2)
    probs = np.concatenate([[0.0, 1.0, 0.5], rng.random(61)])
    for value in (0, 1, 2):
        values = np.full(probs.size, value)
        batched = Flip(probs).log_prob_batch(values)
        for i, p in enumerate(probs):
            assert batched[i].hex() == Flip(float(p)).log_prob(value).hex()


def test_array_parameter_validation_still_raises():
    with pytest.raises(ValueError):
        Normal(0.0, np.array([1.0, -1.0]))
    with pytest.raises(ValueError):
        Gamma(np.array([1.0, 0.0]), 1.0)
    with pytest.raises(ValueError):
        Flip(np.array([0.5, 1.5]))


class _LoopOnly(Distribution):
    """Exercises the base-class fallbacks (third-party subclass shape)."""

    def sample(self, rng):
        return float(rng.normal())

    def log_prob(self, value):
        return -abs(float(value))

    def support(self):
        return RealLine()


def test_base_class_fallback_loops_over_scalar_methods():
    dist = _LoopOnly()
    values = np.array([-2.0, 0.0, 1.5])
    batched = dist.log_prob_batch(values)
    assert batched.tolist() == [dist.log_prob(v) for v in values.tolist()]
    rng = np.random.default_rng(7)
    draws = dist.sample_batch(rng, 5)
    rng2 = np.random.default_rng(7)
    assert draws.tolist() == [dist.sample(rng2) for _ in range(5)]


@pytest.mark.parametrize(
    "dist",
    [case[0] for case in CONTINUOUS_CASES + DISCRETE_CASES],
    ids=lambda d: repr(d)[:50],
)
def test_sample_batch_deterministic_and_in_support(dist):
    draws_a = dist.sample_batch(np.random.default_rng(11), 64)
    draws_b = dist.sample_batch(np.random.default_rng(11), 64)
    assert np.array_equal(np.asarray(draws_a), np.asarray(draws_b))
    support = dist.support()
    for value in np.asarray(draws_a).tolist()[:16]:
        assert support.contains(value)
    batched = dist.log_prob_batch(np.asarray(draws_a, dtype=np.float64))
    assert not np.isnan(batched).any()
    assert (batched > NEG_INF).all()


def test_scalar_log_prob_unchanged_by_batch_presence():
    # The scalar path must not route through the batched code.
    assert Normal(0.0, 1.0).log_prob(0.5) == -0.5 * 0.25 - math.log(1.0) - 0.5 * math.log(2 * math.pi)


class TestBmathHelpers:
    def test_exact_unary_matches_math_per_element(self):
        xs = np.abs(np.random.default_rng(3).normal(size=301)) + 1e-6
        for array_fn, scalar_fn in [
            (bmath.log, math.log),
            (bmath.exp, math.exp),
            (bmath.log1p, math.log1p),
            (bmath.lgamma, math.lgamma),
            (bmath.sqrt, math.sqrt),
        ]:
            out = array_fn(xs)
            for i, x in enumerate(xs.tolist()):
                assert out[i].hex() == scalar_fn(x).hex(), (array_fn, x)

    def test_scalar_passthrough(self):
        assert bmath.log(2.0) == math.log(2.0)
        assert bmath.sqrt(2.0) == math.sqrt(2.0)

    def test_shape_preserved(self):
        xs = np.arange(1.0, 7.0).reshape(2, 3)
        assert bmath.log(xs).shape == (2, 3)


class TestMemo:
    """The exact helpers remember recent float64 inputs by bit pattern;
    every answer stays bitwise equal to ``math.*`` per element."""

    @staticmethod
    def assert_exact(array_fn, scalar_fn, xs):
        out = array_fn(xs)
        assert out.dtype == np.float64 and out.shape == xs.shape
        for got, x in zip(out.tolist(), xs.tolist()):
            want = scalar_fn(x)
            assert got.hex() == want.hex() or (math.isnan(got) and math.isnan(want))

    def test_signed_zeros_do_not_collide(self):
        for first, second in ((-0.0, 0.0), (0.0, -0.0)):
            a = bmath.log1p(np.full(3, first))
            b = bmath.log1p(np.full(3, second))
            assert [math.copysign(1.0, v) for v in a] == [math.copysign(1.0, first)] * 3
            assert [math.copysign(1.0, v) for v in b] == [math.copysign(1.0, second)] * 3

    def test_nan_inputs(self):
        xs = np.array([float("nan"), 1.0, -float("nan"), 2.0])
        for _ in range(2):  # miss, then hit
            out = bmath.exp(xs)
            assert np.isnan(out[0]) and np.isnan(out[2])
            assert out[1] == math.exp(1.0) and out[3] == math.exp(2.0)

    def test_mutating_a_result_does_not_poison_hits(self):
        xs = np.linspace(0.5, 3.0, 7)
        first = bmath.log(xs)
        first[:] = 99.0
        second = bmath.log(xs)  # a hit
        second[:] = -1.0
        self.assert_exact(bmath.log, math.log, xs)

    def test_mutating_the_input_forces_a_recompute(self):
        xs = np.linspace(0.5, 3.0, 7)
        self.assert_exact(bmath.exp, math.exp, xs)
        xs[3] = 10.0
        self.assert_exact(bmath.exp, math.exp, xs)
        xs[3] = -0.0
        self.assert_exact(bmath.exp, math.exp, xs)

    def test_more_distinct_inputs_than_entries_stay_exact(self):
        rng = np.random.default_rng(8)
        inputs = [rng.random(9) + 0.1 for _ in range(3 * bmath._MEMO_ENTRIES)]
        for _ in range(3):
            for xs in inputs:
                self.assert_exact(bmath.log, math.log, xs)
                self.assert_exact(bmath.lgamma, math.lgamma, xs)

    def test_views_and_shapes(self):
        xs = np.arange(1.0, 13.0).reshape(3, 4)
        self.assert_exact(bmath.log, math.log, xs[:, 1])  # strided view
        assert bmath.log(xs).shape == (3, 4)
        assert bmath.log(xs.ravel()).shape == (12,)  # same bits, new shape
        assert bmath.exp(np.array([])).shape == (0,)
        self.assert_exact(bmath.exp, math.exp, np.array([0.0]))  # after an empty input

    def test_threads_get_exact_results(self):
        import sys
        import threading

        errors = []

        def hammer(seed):
            rng = np.random.default_rng(seed)
            pool = [rng.normal(size=64) for _ in range(bmath._MEMO_ENTRIES + 2)]
            try:
                for i in range(200):
                    xs = pool[i % len(pool)]
                    self.assert_exact(bmath.exp, math.exp, xs)
                    self.assert_exact(bmath.log1p, math.log1p, np.abs(xs))
            except AssertionError as error:  # pragma: no cover - failure path
                errors.append(error)

        threads = [threading.Thread(target=hammer, args=(s,)) for s in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert not errors
