"""The memory layout of object traces.

Records and built-in distributions are slotted (no instance
``__dict__``), they still pickle, copy and ``dataclasses.replace``
equal, third-party subclasses that keep a ``__dict__`` still work on the
columnar path, and every trace of a model records its observed choices
under the model's own address objects.
"""

import copy
import dataclasses
import inspect
import pickle

import numpy as np
import pytest

from repro.core import ColumnarCollection, Model, WeightedCollection
from repro.core.columnar import _gather_dist, _has_array_params, _merge_dists, _unbatch_dist
from repro.core.trace import ChoiceRecord, ObservationRecord
from repro.distributions import (
    Beta,
    Categorical,
    ContinuousDistribution,
    Delta,
    Distribution,
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
from repro.distributions import continuous, discrete
from repro.distributions.base import RealLine
from repro.regression import (
    NoOutlierModelParams,
    conjugate_posterior,
    exact_regression_trace,
    hospital_like_dataset,
    no_outlier_model,
)

#: One instance of every built-in distribution.
EXAMPLES = [
    Normal(0.5, 2.0),
    Uniform(-1.0, 3.0),
    TwoNormals(0.0, 0.1, 0.5, 4.0),
    Gamma(2.0, 1.5),
    Beta(2.0, 3.0),
    LogNormal(0.0, 1.0),
    Exponential(1.5),
    Flip(0.3),
    UniformDiscrete(1, 6),
    Categorical([1.0, 3.0]),
    LogCategorical([0.0, -1.0, float("-inf")]),
    Delta(4),
    Geometric(0.4),
    Poisson(2.5),
]

RECORDS = [
    ChoiceRecord(("x",), Normal(0.0, 1.0), 0.25, Normal(0.0, 1.0).log_prob(0.25)),
    ObservationRecord(("y", 3), Flip(0.3), 1, Flip(0.3).log_prob(1)),
]


def _builtin_distribution_classes():
    return {
        cls
        for module in (continuous, discrete)
        for _name, cls in inspect.getmembers(module, inspect.isclass)
        if issubclass(cls, Distribution) and cls.__module__ == module.__name__
    }


def _ids(values):
    return [type(v).__name__ for v in values]


def test_examples_cover_every_builtin_distribution():
    assert {type(d) for d in EXAMPLES} == _builtin_distribution_classes()


@pytest.mark.parametrize("value", EXAMPLES + RECORDS, ids=_ids(EXAMPLES + RECORDS))
def test_no_instance_dict(value):
    assert not hasattr(value, "__dict__")


@pytest.mark.parametrize("value", EXAMPLES + RECORDS, ids=_ids(EXAMPLES + RECORDS))
def test_pickle_copy_and_replace_round_trip_equal(value):
    assert pickle.loads(pickle.dumps(value)) == value
    assert copy.deepcopy(value) == value
    assert copy.copy(value) == value
    assert dataclasses.replace(value) == value


def test_derived_field_survives_round_trips():
    dist = LogCategorical([0.0, -1.0])
    clones = (pickle.loads(pickle.dumps(dist)), copy.deepcopy(dist), dataclasses.replace(dist))
    for clone in clones:
        assert clone._log_norm == dist._log_norm
        assert clone.log_prob(1) == dist.log_prob(1)


def test_pickled_trace_keeps_its_records():
    model = Model(_observed_model, observations={("y", 0): 0.5, ("y", 1): -0.5})
    trace = model.simulate(np.random.default_rng(1))
    clone = pickle.loads(pickle.dumps(trace))
    assert clone.choices() == trace.choices()
    assert clone.observations() == trace.observations()
    assert clone.addresses() == trace.addresses()
    assert clone.observation_addresses() == trace.observation_addresses()


# -- third-party subclasses keep a __dict__ and still work ----------------


@dataclasses.dataclass(frozen=True)
class DictNormal(ContinuousDistribution):
    """A third-party dataclass distribution without ``slots=True``."""

    mean: float
    std: float

    def sample(self, rng):
        return float(rng.normal(self.mean, self.std))

    def log_prob(self, value):
        return Normal(self.mean, self.std).log_prob(value)

    def support(self):
        return RealLine()


class PlainParams(Distribution):
    """A third-party distribution that is not a dataclass at all."""

    def __init__(self, means):
        self.means = means

    def sample(self, rng):
        return 0.0

    def log_prob(self, value):
        return 0.0

    def support(self):
        return RealLine()


def test_third_party_subclasses_keep_a_dict():
    assert hasattr(DictNormal(0.0, 1.0), "__dict__")
    assert hasattr(PlainParams([0.0]), "__dict__")


def test_array_params_found_in_slots_and_in_dict():
    assert not _has_array_params(Normal(0.0, 1.0))
    assert _has_array_params(Normal(np.zeros(3), 1.0))
    assert not _has_array_params(DictNormal(0.0, 1.0))
    assert _has_array_params(DictNormal(np.zeros(3), 1.0))
    assert not _has_array_params(PlainParams(0.0))
    assert _has_array_params(PlainParams(np.zeros(3)))


def test_non_slotted_subclass_merges_gathers_and_unbatches():
    merged = _merge_dists([DictNormal(float(i), 1.0) for i in range(4)])
    assert isinstance(merged.mean, np.ndarray) and merged.std == 1.0
    gathered = _gather_dist(merged, np.array([3, 0]))
    assert gathered.mean.tolist() == [3.0, 0.0]
    assert _unbatch_dist(gathered, 0) == DictNormal(3.0, 1.0)


def test_non_slotted_subclass_on_the_columnar_path():
    def fn(h):
        x = h.sample(Normal(0.0, 1.0), "x")
        return h.sample(DictNormal(x, 1.0), "z")

    rng = np.random.default_rng(4)
    traces = [Model(fn).simulate(rng) for _ in range(6)]
    columnar = ColumnarCollection.from_weighted(WeightedCollection.uniform(traces))
    resampled = columnar.resample(np.random.default_rng(5)).to_weighted()
    by_x = {t["x"]: t for t in traces}
    for trace in resampled.items:
        original = by_x[trace["x"]]
        assert trace.get_record("z") == original.get_record("z")
        assert trace.get_record("z").dist == DictNormal(trace["x"], 1.0)


# -- observed addresses are the model's own --------------------------------


def _observed_model(h):
    mean = h.sample(Normal(0.0, 1.0), "mean")
    for i in range(2):
        h.sample(Normal(mean, 1.0), ("y", i))
    return mean


def test_traces_of_one_model_share_observed_addresses():
    rng = np.random.default_rng(0)
    data = hospital_like_dataset(rng, num_points=12)
    params = NoOutlierModelParams()
    model = no_outlier_model(params, data.xs, data.ys)
    posterior = conjugate_posterior(params, data.xs, data.ys)
    first, second = (exact_regression_trace(posterior, rng, model) for _ in range(2))
    keys = list(model.observations)
    assert first.observation_addresses() == keys
    for key, a, b in zip(keys, first.observations(), second.observations()):
        assert a.address is key
        assert b.address is key


@pytest.mark.parametrize("run", ["simulate", "generate", "score"])
def test_every_handler_records_the_map_key(run):
    model = Model(_observed_model, observations={("y", 0): 0.5, ("y", 1): -0.5})
    rng = np.random.default_rng(2)
    if run == "simulate":
        trace = model.simulate(rng)
    elif run == "generate":
        trace, _weight = model.generate(rng, {"mean": 0.1})
    else:
        trace = model.score({"mean": 0.1})
    keys = list(model.observations)
    assert [r.address for r in trace.observations()] == keys
    assert all(r.address is key for r, key in zip(trace.observations(), keys))
