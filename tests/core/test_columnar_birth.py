"""Sampling a population columnar: :meth:`ColumnarCollection.importance_sample`.

* **exact** — every choice and observation log probability of a born
  population, and every log weight, is bitwise what the object
  handlers compute for the same values (re-scored with
  :class:`~repro.core.handlers.ScoreHandler`);
* **unbiased** — on finite-support programs, born and object
  importance-sampling estimates agree with exact enumeration;
* **spills** — a certain static finding spills before any randomness
  is consumed; a failed batched run or an unkeepable return value
  spills after it, with a stable code.
"""

import math
import random

import numpy as np
import pytest

from repro.analysis.absint import plan_columnar_birth
from repro.core import ColumnarCollection, ColumnarSpill, Model
from repro.core.enumerate import exact_return_distribution, log_normalizer
from repro.core.importance import importance_sampling
from repro.distributions import Normal
from repro.lang import lang_model, parse_program
from repro.lang.programs import BURGLARY_ORIGINAL, FIGURE3
from repro.service.loadgen import WORKLOADS

#: Finite-support programs the batched run can execute (data-dependent
#: ternaries, per-particle observed values, integer columns).
BURGLARY_SELECT = """
burglary = flip(0.02);
alarm = flip(burglary ? 0.9 : 0.01);
observe(flip(alarm ? 0.8 : 0.05) == 1);
return burglary;
"""
DICE = """
n = uniform(1, 6);
k = flip(n / 6);
observe(flip(k ? 0.7 : 0.2) == 1);
observe(flip(n / 10) == 1);
return n;
"""
FINITE = {"burglary-select": BURGLARY_SELECT, "dice": DICE, "figure3": FIGURE3}

EXACT = dict(FINITE)
for _name in ("fig8-session", "gauss-chain", "gmm-edits"):
    EXACT[_name] = WORKLOADS[_name](0, 1, random.Random(5))[0]


def _model(source):
    return lang_model(parse_program(source), name="e0")


def _bits(value):
    return value.hex() if isinstance(value, float) else repr(value)


@pytest.mark.parametrize("name", sorted(EXACT))
def test_born_population_rescores_bitwise(name):
    model = _model(EXACT[name])
    born = ColumnarCollection.importance_sample(
        model, np.random.default_rng(11), 64
    )
    weighted = born.to_weighted()
    for trace, log_weight in zip(weighted.items, born.log_weights.tolist()):
        rescored = model.score({r.address: r.value for r in trace.choices()})
        assert [(r.address, _bits(r.value), r.log_prob.hex()) for r in trace.choices()] == [
            (r.address, _bits(r.value), r.log_prob.hex()) for r in rescored.choices()
        ]
        assert [(r.address, r.log_prob.hex()) for r in trace.observations()] == [
            (r.address, r.log_prob.hex()) for r in rescored.observations()
        ]
        # GenerateHandler.log_weight: 0.0, plus each observation in order.
        expected = 0.0
        for record in rescored.observations():
            expected += record.log_prob
        assert log_weight.hex() == expected.hex()
        assert _bits(trace.return_value) == _bits(rescored.return_value)
        assert type(trace.return_value) is type(rescored.return_value)


#: Two-sided |z| bound per comparison: P(|Z| > 4.0) = 6.3e-5 under the
#: null, so the 12 comparisons below (3 programs x 2 samplers x 2
#: estimands) false-alarm with probability under 1e-3.
Z_BOUND = 4.0


def _z(samples, exact):
    samples = np.asarray(samples, dtype=np.float64)
    error = samples.std(ddof=1) / math.sqrt(len(samples))
    return (samples.mean() - exact) / error


@pytest.mark.parametrize("sampler", ["born", "object"])
@pytest.mark.parametrize("name", sorted(FINITE))
def test_estimates_match_enumeration(name, sampler):
    """Likelihood weighting's unnormalized estimates are unbiased: the
    mean weight estimates ``Z`` and the mean of ``w * [ret = v]``
    estimates ``Z * P(ret = v)``.  Each particle's pair is i.i.d., so a
    z-test against the enumerated values is calibrated (CLT over the
    particles)."""
    model = _model(FINITE[name])
    log_z = log_normalizer(model)
    posterior = exact_return_distribution(model)
    value = max(posterior, key=posterior.get)
    rng = np.random.default_rng(2024)
    if sampler == "born":
        collection = ColumnarCollection.importance_sample(model, rng, 20000)
        weights = np.exp(collection.log_weights)
        returns = np.asarray(collection.return_value)
    else:
        collection = importance_sampling(model, rng, 4000)
        weights = np.exp(np.asarray(collection.log_weights))
        returns = np.asarray([t.return_value for t in collection.items])
    hits = weights * (returns == value)
    assert abs(_z(weights, math.exp(log_z))) < Z_BOUND
    assert abs(_z(hits, math.exp(log_z) * posterior[value])) < Z_BOUND


#: code -> (a program whose birth spills with it, the spill's stage).
SPILLS = {
    "control-flow": (BURGLARY_ORIGINAL, "preflight"),
    "execution": ("x = flip(0.5);\ny = x ? 1 : 2.5;\nreturn y;", "probe"),
    "return-value": ("x = gauss(0.0, 1.0);\na = array(2, x);\nreturn a;", "probe"),
}


#: Codes a plan predicts whatever it finds: it never sees the input.
INPUT_CODES = {"collection-type", "items"}


@pytest.mark.parametrize("name", sorted(EXACT) + ["burglary"])
def test_complete_birth_plan_predicts_its_findings_only(name):
    """A birth has no source model, so a complete target profile bounds
    the prediction: its findings' codes and the input codes, not every
    code."""
    model = _model(BURGLARY_ORIGINAL if name == "burglary" else EXACT[name])
    plan = plan_columnar_birth(model)
    assert plan.target_profile.complete
    codes = {f.code for f in plan.findings} | INPUT_CODES
    if "control-flow" in codes:
        codes.add("execution")
    assert plan.predicted_codes() == codes


class TestSpills:
    @pytest.mark.parametrize("code", sorted(SPILLS))
    def test_spill_code_stage_and_prediction(self, code):
        source, stage = SPILLS[code]
        model = _model(source)
        predicted = {f.code for f in plan_columnar_birth(model).findings}
        rng = np.random.default_rng(3)
        state = rng.bit_generator.state
        with pytest.raises(ColumnarSpill) as raised:
            ColumnarCollection.importance_sample(model, rng, 50)
        assert (raised.value.code, raised.value.stage) == (code, stage)
        assert code in predicted
        assert code in plan_columnar_birth(model).predicted_codes()
        # A certain finding spills before any draw.
        assert (rng.bit_generator.state == state) == (stage == "preflight")

    def test_planner_fault_spills_before_any_draw(self, monkeypatch):
        import repro.analysis.absint as absint

        def broken(model):
            raise RuntimeError("planner down")

        monkeypatch.setattr(absint, "plan_columnar_birth", broken)
        rng = np.random.default_rng(3)
        state = rng.bit_generator.state
        with pytest.raises(ColumnarSpill) as raised:
            ColumnarCollection.importance_sample(_model(DICE), rng, 50)
        assert (raised.value.code, raised.value.stage) == ("plan-unavailable", "preflight")
        assert rng.bit_generator.state == state

    def test_single_particle_runs_a_sampled_branch(self):
        # A size-1 column coerces to bool, so the plan's control-flow
        # finding does not block one particle.
        born = ColumnarCollection.importance_sample(
            _model(BURGLARY_ORIGINAL), np.random.default_rng(3), 1
        )
        assert len(born) == 1

    def test_tuple_return_spills_return_value(self):
        def pair(h):
            x = h.sample(Normal(0.0, 1.0), "x")
            return x, x

        with pytest.raises(ColumnarSpill, match="return-value"):
            ColumnarCollection.importance_sample(
                Model(pair), np.random.default_rng(3), 50
            )

    def test_shared_and_absent_return_values_are_kept(self):
        def silent(h):
            h.sample(Normal(0.0, 1.0), "x")

        for model in (_model("x = gauss(0.0, 1.0);\nreturn 3;"), Model(silent)):
            born = ColumnarCollection.importance_sample(
                model, np.random.default_rng(3), 5
            )
            returns = [t.return_value for t in born.to_weighted().items]
            assert returns == [born.return_value] * 5

    def test_needs_a_particle(self):
        with pytest.raises(ValueError):
            ColumnarCollection.importance_sample(
                _model(DICE), np.random.default_rng(3), 0
            )
