"""Chaos suite: the fault-isolated SMC loop against injected failures.

Every test drives :func:`repro.core.smc.infer` / ``infer_sequence``
through a deterministic :class:`repro.testing.FaultInjector` and checks
the contract of each fault policy: ``fail_fast`` reproduces the
uncontained crash exactly, ``drop`` and ``regenerate`` keep the sampler
alive with accurate per-step counters, and ``regenerate`` additionally
keeps posterior estimates correct on the enumerable burglary model.
"""

import math

import numpy as np
import pytest

from repro import (
    Correspondence,
    CorrespondenceTranslator,
    DegeneracyError,
    FaultPolicy,
    InferenceConfig,
    MissingChoiceError,
    Model,
    NumericalError,
    TranslationError,
    WeightedCollection,
    exact_choice_marginal,
    exact_posterior_sampler,
    infer,
    infer_sequence,
)
from repro.core.mcmc import gibbs_sweep
from repro.distributions import Flip
from repro.testing import FaultInjector, FaultyTranslator, faulty_kernel

NEG_INF = float("-inf")


def make_flip_model(p_x, p_obs_given_x1, p_obs_given_x0):
    def fn(t):
        x = t.sample(Flip(p_x), "x")
        t.observe(Flip(p_obs_given_x1 if x else p_obs_given_x0), 1, "o")
        return x

    return Model(fn, name=f"flip({p_x})")


def drifting_sequence():
    """Three translation steps across a drifting flip model."""
    params = [(0.5, 0.9, 0.2), (0.45, 0.85, 0.25), (0.4, 0.8, 0.3), (0.35, 0.8, 0.3)]
    models = [make_flip_model(*p) for p in params]
    translators = [
        CorrespondenceTranslator(models[i], models[i + 1], Correspondence.identity(["x"]))
        for i in range(len(models) - 1)
    ]
    return models, translators


def posterior_input(model, rng, size):
    sampler = exact_posterior_sampler(model)
    return WeightedCollection.uniform([sampler(rng) for _ in range(size)])


@pytest.fixture
def burglary_translator(burglary_original, burglary_refined):
    return CorrespondenceTranslator(
        burglary_original,
        burglary_refined,
        Correspondence.identity(["burglary", "alarm"]),
    )


class TestFailFast:
    def test_injected_error_type_is_preserved(self, burglary_translator, burglary_original, rng):
        """fail_fast must crash with the injected error, byte-for-byte in
        type — exactly what an unwrapped translator call would raise."""
        injector = FaultInjector(
            at_calls={5: "error"},
            error_factory=lambda: MissingChoiceError("alarm"),
        )
        faulty = FaultyTranslator(burglary_translator, injector)
        collection = posterior_input(burglary_original, rng, 20)
        with pytest.raises(MissingChoiceError) as excinfo:
            infer(faulty, collection, rng, config=InferenceConfig(fault_policy="fail_fast"))
        assert type(excinfo.value) is MissingChoiceError

    def test_fail_fast_is_the_default(self, burglary_translator, burglary_original, rng):
        injector = FaultInjector(at_calls={0: "error"})
        faulty = FaultyTranslator(burglary_translator, injector)
        collection = posterior_input(burglary_original, rng, 5)
        with pytest.raises(TranslationError):
            infer(faulty, collection, rng)

    def test_nan_weight_raises_numerical_error(self, burglary_translator, burglary_original, rng):
        injector = FaultInjector(at_calls={2: "nan"})
        faulty = FaultyTranslator(burglary_translator, injector)
        collection = posterior_input(burglary_original, rng, 5)
        with pytest.raises(NumericalError):
            infer(faulty, collection, rng, config=InferenceConfig(fault_policy="fail_fast"))

    def test_no_faults_means_zero_counters(self, burglary_translator, burglary_original, rng):
        collection = posterior_input(burglary_original, rng, 50)
        step = infer(
            burglary_translator, collection, rng, config=InferenceConfig(fault_policy="drop")
        )
        stats = step.stats
        assert (stats.failed, stats.dropped, stats.regenerated, stats.retried) == (0, 0, 0, 0)
        assert stats.total_faults == 0
        assert "faults[" not in str(stats)


class TestDropPolicy:
    def test_sequence_completes_with_20_percent_faults(self, rng):
        _models, translators = drifting_sequence()
        injector = FaultInjector(seed=7, error_rate=0.2)
        faulty = [FaultyTranslator(t, injector) for t in translators]
        initial = posterior_input(translators[0].source, rng, 400)
        steps = infer_sequence(
            faulty, initial, rng, config=InferenceConfig(resample="adaptive", fault_policy="drop")
        )
        assert len(steps) == 3
        assert injector.injected["error"] > 0

    def test_counters_are_exact(self, rng):
        """Each step's failed/dropped counters equal the injector's
        bookkeeping for that step's slice of the call stream."""
        _models, translators = drifting_sequence()
        injector = FaultInjector(seed=3, error_rate=0.2, nan_rate=0.05)
        faulty = [FaultyTranslator(t, injector) for t in translators]
        initial = posterior_input(translators[0].source, rng, 300)
        steps = infer_sequence(
            faulty, initial, rng, config=InferenceConfig(resample="never", fault_policy="drop")
        )
        total_failed = sum(s.stats.failed for s in steps)
        total_dropped = sum(s.stats.dropped for s in steps)
        # Under drop there are no retries: one translate call per particle,
        # and every error/NaN injection fails exactly one particle.
        assert injector.calls == sum(s.stats.num_traces for s in steps)
        assert total_failed == injector.injected["error"] + injector.injected["nan"]
        assert total_dropped == total_failed
        assert all(s.stats.retried == 0 and s.stats.regenerated == 0 for s in steps)

    def test_dropped_particles_carry_zero_weight(self, burglary_translator, burglary_original, rng):
        injector = FaultInjector(at_calls={1: "error", 3: "error"})
        faulty = FaultyTranslator(burglary_translator, injector)
        collection = posterior_input(burglary_original, rng, 6)
        step = infer(faulty, collection, rng, config=InferenceConfig(fault_policy="drop"))
        assert step.stats.dropped == 2
        assert sum(1 for w in step.collection.log_weights if w == NEG_INF) == 2

    def test_estimates_survive_dropping(self, burglary_translator, burglary_original, burglary_refined, rng):
        """Survivors are untouched by the faults, so the self-normalized
        estimate still targets the refined posterior."""
        injector = FaultInjector(seed=11, error_rate=0.2)
        faulty = FaultyTranslator(burglary_translator, injector)
        collection = posterior_input(burglary_original, rng, 8000)
        step = infer(faulty, collection, rng, config=InferenceConfig(fault_policy="drop"))
        truth = exact_choice_marginal(burglary_refined, "burglary")[1]
        estimate = step.collection.estimate_probability(lambda u: u["burglary"] == 1)
        assert estimate == pytest.approx(truth, abs=0.03)

    def test_injected_neg_inf_is_a_weight_not_a_fault(self, burglary_translator, burglary_original, rng):
        """-inf is a legitimate log weight (zero-probability trace): the
        particle dies by normalization, not by the fault machinery."""
        injector = FaultInjector(at_calls={0: "neg_inf"})
        faulty = FaultyTranslator(burglary_translator, injector)
        collection = posterior_input(burglary_original, rng, 4)
        step = infer(faulty, collection, rng, config=InferenceConfig(fault_policy="drop"))
        assert step.stats.failed == 0
        assert step.collection.log_weights[0] == NEG_INF

    def test_total_collapse_raises_degeneracy_error(self, burglary_translator, burglary_original, rng):
        injector = FaultInjector(error_rate=1.0)
        faulty = FaultyTranslator(burglary_translator, injector)
        collection = posterior_input(burglary_original, rng, 8)
        with pytest.raises(DegeneracyError) as excinfo:
            infer(faulty, collection, rng, config=InferenceConfig(fault_policy="drop"))
        assert isinstance(excinfo.value, ValueError)  # backwards compatible
        assert excinfo.value.num_particles == 8

    def test_degeneracy_error_carries_step_index(self, rng):
        _models, translators = drifting_sequence()
        # Step 0 is clean; every call of step 1 (particles 10..19) fails.
        injector = FaultInjector(at_calls={i: "error" for i in range(10, 20)})
        faulty = [FaultyTranslator(t, injector) for t in translators]
        initial = posterior_input(translators[0].source, rng, 10)
        with pytest.raises(DegeneracyError) as excinfo:
            infer_sequence(
                faulty, initial, rng, config=InferenceConfig(resample="never", fault_policy="drop")
            )
        assert excinfo.value.step == 1
        assert "step 1" in str(excinfo.value)


class TestRegeneratePolicy:
    def test_sequence_completes_with_20_percent_faults(self, rng):
        _models, translators = drifting_sequence()
        injector = FaultInjector(seed=5, error_rate=0.2)
        faulty = [FaultyTranslator(t, injector) for t in translators]
        initial = posterior_input(translators[0].source, rng, 400)
        policy = FaultPolicy(mode="regenerate", max_retries=2)
        steps = infer_sequence(
            faulty, initial, rng, config=InferenceConfig(resample="adaptive", fault_policy=policy)
        )
        assert len(steps) == 3
        assert sum(s.stats.failed for s in steps) > 0

    def test_recovers_burglary_posterior(self, burglary_translator, burglary_original, burglary_refined, rng):
        """Acceptance: at a 20% seeded failure rate the regenerate policy
        keeps the posterior estimate within tolerance of enumeration."""
        injector = FaultInjector(seed=13, error_rate=0.2)
        faulty = FaultyTranslator(burglary_translator, injector)
        collection = posterior_input(burglary_original, rng, 8000)
        policy = FaultPolicy(mode="regenerate", max_retries=2)
        step = infer(faulty, collection, rng, config=InferenceConfig(fault_policy=policy))
        truth = exact_choice_marginal(burglary_refined, "burglary")[1]
        estimate = step.collection.estimate_probability(lambda u: u["burglary"] == 1)
        assert estimate == pytest.approx(truth, abs=0.03)

    def test_forced_regeneration_stays_within_tolerance(self, burglary_translator, burglary_original, burglary_refined, rng):
        """With retries disabled every fault regenerates from the prior;
        the regenerated subpopulation is itself properly weighted, so the
        mixed estimate stays consistent."""
        injector = FaultInjector(seed=17, error_rate=0.3)
        faulty = FaultyTranslator(burglary_translator, injector)
        collection = posterior_input(burglary_original, rng, 8000)
        policy = FaultPolicy(mode="regenerate", max_retries=0)
        step = infer(faulty, collection, rng, config=InferenceConfig(fault_policy=policy))
        assert step.stats.regenerated > 0.2 * len(collection)
        truth = exact_choice_marginal(burglary_refined, "burglary")[1]
        estimate = step.collection.estimate_probability(lambda u: u["burglary"] == 1)
        assert estimate == pytest.approx(truth, abs=0.03)

    def test_retry_salvages_the_particle(self, burglary_translator, burglary_original, rng):
        """A single injected failure with retries enabled is absorbed by a
        retry: no drop, no regeneration."""
        injector = FaultInjector(at_calls={0: "error"})
        faulty = FaultyTranslator(burglary_translator, injector)
        collection = posterior_input(burglary_original, rng, 4)
        policy = FaultPolicy(mode="regenerate", max_retries=2)
        step = infer(faulty, collection, rng, config=InferenceConfig(fault_policy=policy))
        stats = step.stats
        assert (stats.failed, stats.retried) == (1, 1)
        assert (stats.dropped, stats.regenerated) == (0, 0)

    def test_exhausted_retries_regenerate(self, burglary_translator, burglary_original, rng):
        """Particle 0 fails its first attempt and its single retry, then
        falls back to prior regeneration."""
        injector = FaultInjector(at_calls={0: "error", 1: "error"})
        faulty = FaultyTranslator(burglary_translator, injector)
        collection = posterior_input(burglary_original, rng, 4)
        policy = FaultPolicy(mode="regenerate", max_retries=1)
        step = infer(faulty, collection, rng, config=InferenceConfig(fault_policy=policy))
        stats = step.stats
        assert (stats.failed, stats.retried, stats.regenerated) == (2, 1, 1)
        assert math.isfinite(step.collection.log_weights[0])

    def test_regenerate_requires_a_sampler(self, rng):
        """A translator without regenerate(rng) is rejected up front with
        an actionable message, not after minutes of translation."""

        class BareTranslator:
            source = None
            target = None

            def translate(self, rng, trace):  # pragma: no cover - never called
                raise AssertionError("translate must not run")

        collection = WeightedCollection(["t"], [0.0])
        with pytest.raises(ValueError, match="regenerate"):
            infer(
                BareTranslator(), collection, rng, config=InferenceConfig(fault_policy="regenerate")
            )

    def test_counters_render_in_stats_string(self, burglary_translator, burglary_original, rng):
        injector = FaultInjector(at_calls={0: "error"})
        faulty = FaultyTranslator(burglary_translator, injector)
        collection = posterior_input(burglary_original, rng, 4)
        step = infer(faulty, collection, rng, config=InferenceConfig(fault_policy="drop"))
        assert "faults[failed=1" in str(step.stats)


class TestMCMCFaultIsolation:
    def test_kernel_faults_are_contained_and_counted(self, rng):
        models, translators = drifting_sequence()
        kernel_injector = FaultInjector(seed=23, error_rate=0.3)
        kernels = [
            faulty_kernel(gibbs_sweep(models[i + 1], ["x"]), kernel_injector)
            for i in range(len(translators))
        ]
        initial = posterior_input(models[0], rng, 200)
        steps = infer_sequence(
            translators, initial, rng, mcmc_kernels=kernels,
            config=InferenceConfig(resample="always", fault_policy="drop"),
        )
        assert len(steps) == 3
        assert sum(s.stats.mcmc_failed for s in steps) == kernel_injector.total_injected()

    def test_fail_fast_propagates_kernel_errors(self, rng):
        models, translators = drifting_sequence()
        kernel_injector = FaultInjector(at_calls={0: "error"})
        kernels = [faulty_kernel(gibbs_sweep(models[1], ["x"]), kernel_injector)] + [None, None]
        initial = posterior_input(models[0], rng, 20)
        with pytest.raises(TranslationError):
            infer_sequence(translators, initial, rng, mcmc_kernels=kernels)


class TestParameterValidation:
    @pytest.fixture
    def untouchable_translator(self):
        class Untouchable:
            source = None
            target = None

            def translate(self, rng, trace):  # pragma: no cover - must not run
                raise AssertionError("translate must not run")

        return Untouchable()

    @pytest.mark.parametrize("threshold", [0.0, -0.5, 1.5, float("nan")])
    def test_bad_ess_threshold_fails_before_translation(self, untouchable_translator, threshold, rng):
        collection = WeightedCollection(["t"], [0.0])
        with pytest.raises(ValueError, match="ess_threshold"):
            infer(untouchable_translator, collection, rng,
                  config=InferenceConfig(resample="adaptive", ess_threshold=threshold))

    def test_threshold_of_one_is_allowed(self, burglary_translator, burglary_original, rng):
        collection = posterior_input(burglary_original, rng, 20)
        step = infer(burglary_translator, collection, rng,
                     config=InferenceConfig(resample="adaptive", ess_threshold=1.0))
        assert step.stats.num_traces == 20

    def test_bad_scheme_fails_before_translation(self, untouchable_translator, rng):
        collection = WeightedCollection(["t"], [0.0])
        with pytest.raises(ValueError, match="resampling scheme"):
            infer(
                untouchable_translator, collection, rng,
                config=InferenceConfig(resampling_scheme="bogus")
            )

    def test_infer_sequence_validates_up_front(self, untouchable_translator, rng):
        collection = WeightedCollection(["t"], [0.0])
        with pytest.raises(ValueError, match="ess_threshold"):
            infer_sequence(
                [untouchable_translator], collection, rng,
                config=InferenceConfig(resample="adaptive", ess_threshold=2.0)
            )
        with pytest.raises(ValueError, match="fault-policy"):
            infer_sequence(
                [untouchable_translator], collection, rng,
                config=InferenceConfig(resample="adaptive", fault_policy="sometimes")
            )

    def test_fault_policy_validation(self):
        with pytest.raises(ValueError, match="fault-policy"):
            FaultPolicy(mode="sometimes")
        with pytest.raises(ValueError, match="max_retries"):
            FaultPolicy(mode="regenerate", max_retries=-1)
        with pytest.raises(TypeError):
            FaultPolicy.coerce(42)
        assert FaultPolicy.coerce(None).mode == "fail_fast"
        assert FaultPolicy.coerce("drop").mode == "drop"


class TestInjectorDeterminism:
    def test_same_seed_same_decisions(self):
        decisions = [
            [FaultInjector(seed=42, error_rate=0.3, nan_rate=0.1).decide() for _ in range(50)]
            for _ in range(2)
        ]
        assert decisions[0] == decisions[1]

    def test_at_calls_override_rates(self):
        injector = FaultInjector(seed=1, error_rate=0.0, at_calls={2: "nan"})
        assert [injector.decide() for _ in range(4)] == [None, None, "nan", None]
        assert injector.injected["nan"] == 1
        assert injector.calls == 4

    def test_rate_validation(self):
        with pytest.raises(ValueError):
            FaultInjector(error_rate=1.5)
        with pytest.raises(ValueError):
            FaultInjector(error_rate=0.7, nan_rate=0.7)
        with pytest.raises(ValueError):
            FaultInjector(at_calls={0: "explode"})
