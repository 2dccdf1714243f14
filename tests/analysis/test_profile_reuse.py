"""Static profiles are computed once per model, not once per translator.

An edit chain's step *i* targets the model step *i+1* starts from, so
:func:`repro.analysis.absint.plan_columnar_step` must analyze each model
once however many translators share it — and the plans it builds from
shared profiles must equal plans built from fresh analyses.
"""

import numpy as np
import pytest

import repro.analysis.absint.plan as plan_module
from repro.analysis.absint import plan_columnar_step
from repro.core import (
    ChoiceMap,
    Correspondence,
    CorrespondenceTranslator,
    InferenceConfig,
    Model,
    WeightedCollection,
    infer,
)
from repro.distributions import Normal
from repro.regression.programs import (
    ADDR_INTERCEPT,
    ADDR_OUTLIER_LOG_VAR,
    ADDR_SLOPE,
    NoOutlierModelParams,
    OutlierModelParams,
    coefficient_correspondence,
    no_outlier_model,
    outlier_model,
)

XS = [float(i) for i in range(6)]
YS = [0.5 * x + 0.2 for x in XS]


def _chain(k):
    """``offline``-style: introduce the outliers, then sweep their weight."""
    source = no_outlier_model(NoOutlierModelParams(prior_std=10.0, std=0.5), XS, YS)
    correspondence = coefficient_correspondence()
    sweep = Correspondence.identity([ADDR_SLOPE, ADDR_INTERCEPT, ADDR_OUTLIER_LOG_VAR])
    translators = []
    for i in range(k):
        target = outlier_model(
            OutlierModelParams(prior_std=10.0, prob_outlier=0.05 + 0.02 * i, inlier_std=0.5),
            XS,
            YS,
        )
        translators.append(CorrespondenceTranslator(source, target, correspondence))
        source, correspondence = target, sweep
    return translators


def _fresh(model):
    return Model(model.fn, args=model.args, observations=model.observations, name=model.name)


@pytest.fixture
def analyses(monkeypatch):
    calls = []
    real = plan_module.analyze_model

    def counting(model):
        calls.append(model)
        return real(model)

    monkeypatch.setattr(plan_module, "analyze_model", counting)
    return calls


def _describe(plan):
    return [f.describe() for f in plan.findings], plan.predicted_codes()


def test_chain_analyzes_each_model_once(analyses):
    k = 4
    translators = _chain(k)
    rng = np.random.default_rng(0)
    first = translators[0].source
    population = WeightedCollection.uniform([first.generate(rng)[0] for _ in range(16)])
    config = InferenceConfig(collection="columnar")
    for translator in translators:
        step = infer(translator, population, rng, config=config)
        assert step.stats.collection_mode == "columnar"
        population = step.collection
    assert len(analyses) == k + 1
    assert len({id(model) for model in analyses}) == k + 1

    for translator in translators:
        cached = translator._columnar_plan
        fresh = plan_columnar_step(
            CorrespondenceTranslator(
                _fresh(translator.source),
                _fresh(translator.target),
                translator.correspondence,
            )
        )
        assert _describe(cached) == _describe(fresh)
    assert len(analyses) == 3 * k + 1  # the fresh copies were analyzed


def test_shared_model_shares_its_profile(analyses):
    first, second = _chain(2)
    assert first.target is second.source
    assert (
        plan_columnar_step(first).target_profile
        is plan_columnar_step(second).source_profile
    )
    assert len(analyses) == 3


def _obs_fn(h, std, num_obs):
    x = h.sample(Normal(0.0, 1.0), "x")
    for i in range(num_obs):
        h.observe(Normal(x, std), 0.1 * i, f"y{i}")
    return x


def test_rebound_args_are_reanalyzed(analyses):
    model = Model(_obs_fn, args=(0.5, 2))
    translator = CorrespondenceTranslator(model, model, Correspondence.identity(["x"]))
    before = plan_columnar_step(translator)
    assert len(analyses) == 1  # source and target are one model
    assert len(before.source_profile.observations) == 2

    plan_columnar_step(translator)
    assert len(analyses) == 1

    model.args = (0.5, 3)
    after = plan_columnar_step(translator)
    assert len(analyses) == 2
    assert len(after.source_profile.observations) == 3
    assert after.source_profile is after.target_profile

    model.observations = ChoiceMap({"z": 1.0})
    plan_columnar_step(translator)
    assert len(analyses) == 3


def test_concurrent_planning_agrees():
    import sys
    import threading

    translators = _chain(3)
    expected = [
        _describe(
            plan_columnar_step(
                CorrespondenceTranslator(
                    _fresh(t.source), _fresh(t.target), t.correspondence
                )
            )
        )
        for t in translators
    ]
    results, errors = [], []

    def plan_all():
        try:
            results.append([_describe(plan_columnar_step(t)) for t in translators])
        except Exception as error:  # pragma: no cover - failure path
            errors.append(error)

    threads = [threading.Thread(target=plan_all) for _ in range(4)]
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
    assert results == [expected] * 4
