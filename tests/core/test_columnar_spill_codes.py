"""Every :class:`ColumnarSpill` reason code, reached *and* predicted.

Two properties per code, exercised by one trigger each:

* **reachable** — a concrete step construction makes the columnar
  runtime raise a spill carrying exactly that ``code``;
* **predicted** — the static pre-flight's
  :meth:`~repro.analysis.absint.plan.ColumnarPlan.predicted_codes`
  (computed from the same translator/config/kernel, *before* the run)
  contains the code.  This is the plan's soundness contract: prediction
  is a superset of what actually spills.

The triggers deliberately span every layer the runtime probes: the
translator shape checks, the input-collection columnarization, the
distribution merge/template machinery, and the batched model execution
itself.
"""

import dataclasses
import math

import numpy as np
import pytest

from repro.analysis.absint import SPILL_CODES, plan_columnar_step
from repro.core import (
    Correspondence,
    CorrespondenceTranslator,
    InferenceConfig,
    Model,
    WeightedCollection,
    infer,
)
from repro.core.columnar import ColumnarSpill, columnar_infer_step
from repro.distributions import Flip, Gamma, Normal
from repro.distributions.base import Distribution, FiniteSupport, RealLine


# ---------------------------------------------------------------------------
# Model zoo (module level so ``inspect.getsource`` sees clean sources)
# ---------------------------------------------------------------------------


def _plain_src(h):
    x = h.sample(Normal(0.0, 1.0), "x")
    h.observe(Normal(x, 0.5), 0.3, "y")
    return x


def _plain_tgt(h):
    x = h.sample(Normal(0.0, 1.0), "x")
    h.observe(Normal(x, 0.8), 0.3, "y")
    return x


def _branchy_src(h):
    a = h.sample(Flip(0.5), "a")
    if a:
        h.sample(Normal(0.0, 1.0), "extra")
    return a


def _flip_tgt(h):
    a = h.sample(Flip(0.6), "a")
    h.observe(Normal(0.0, 1.0), 0.1, "y")
    return a


def _mixed_dist_src(h):
    a = h.sample(Flip(0.5), "a")
    if a:
        x = h.sample(Normal(0.0, 1.0), "x")
    else:
        x = h.sample(Gamma(1.0, 1.0), "x")
    return x


def _flip_normal_tgt(h):
    a = h.sample(Flip(0.5), "a")
    x = h.sample(Normal(0.0, 1.0), "x")
    h.observe(Normal(x, 1.0), 0.2, "y")
    return a


def _list_return_src(h):
    x = h.sample(Normal(0.0, 1.0), "x")
    return [x]


def _x_only_src(h):
    return h.sample(Normal(0.0, 1.0), "x")


def _branch_obs_tgt(h):
    x = h.sample(Flip(0.5), "x")
    if x:
        h.observe(Normal(1.0, 1.0), 0.2, "y")
    else:
        h.observe(Normal(-1.0, 1.0), 0.2, "y")
    return x


def _flip_src(h):
    return h.sample(Flip(0.5), "x")


def _opaque_tgt(h):
    x = h.sample(Normal(0.0, 1.0), "x")
    y = math.exp(x)
    h.observe(Normal(y, 1.0), 0.5, "y")
    return x


class StringDist(Distribution):
    """Finite support over strings — legal on the object path, never
    representable as a float column."""

    def sample(self, rng):
        return str(rng.choice(("ok", "bad")))

    def log_prob(self, value):
        return math.log(0.5) if value in ("ok", "bad") else float("-inf")

    def support(self):
        return FiniteSupport(("ok", "bad"))

    def __eq__(self, other):
        return type(other) is StringDist

    def __hash__(self):
        return hash(StringDist)


def _string_src(h):
    h.sample(StringDist(), "s")
    return 0.0


def _string_tgt(h):
    h.sample(StringDist(), "s")
    h.observe(Normal(0.0, 1.0), 0.1, "y")
    return 0.0


class TableDist(Distribution):
    """Array-parameterized but *not* a dataclass: its template cannot be
    gathered for resampling."""

    def __init__(self, probs):
        self.probs = np.asarray(probs, dtype=np.float64)

    def sample(self, rng):
        return float(rng.choice(self.probs.size, p=self.probs))

    def log_prob(self, value):
        index = int(value)
        if 0 <= index < self.probs.size:
            return float(np.log(self.probs[index]))
        return float("-inf")

    def support(self):
        return FiniteSupport((0.0, 1.0))


#: Shared instance: every particle references the same object, so the
#: merge succeeds and the spill comes from the gatherability check.
_TABLE = TableDist([0.5, 0.5])


def _table_src(h):
    return h.sample(_TABLE, "k")


def _table_tgt(h):
    k = h.sample(_TABLE, "k")
    h.observe(Normal(k, 1.0), 0.4, "y")
    return k


@dataclasses.dataclass(frozen=True)
class BadBatchNormal(Distribution):
    """Normal-alike whose ``log_prob_batch`` violates the shape contract."""

    mean: float

    def sample(self, rng):
        return float(rng.normal(self.mean, 1.0))

    def log_prob(self, value):
        return float(
            -0.5 * (value - self.mean) ** 2 - 0.5 * math.log(2.0 * math.pi)
        )

    def support(self):
        return RealLine()

    def log_prob_batch(self, values):
        values = np.asarray(values, dtype=np.float64)
        return super().log_prob_batch(values).reshape(-1, 1)  # wrong shape


def _bad_batch_tgt(h):
    x = h.sample(BadBatchNormal(0.5), "x")
    h.observe(Normal(x, 1.0), 0.3, "y")
    return x


_OBS_VECTOR = np.ones(3)


def _array_obs_tgt(h):
    x = h.sample(Normal(0.0, 1.0), "x")
    h.observe(Normal(0.0, 1.0), _OBS_VECTOR, "y")
    n = 0
    while x > 0 and n < 1:  # value-dependent bound: defeats the analyzer
        n = n + 1
    return x


# ---------------------------------------------------------------------------
# Harness
# ---------------------------------------------------------------------------


def _translator(src, tgt, addresses):
    return CorrespondenceTranslator(
        Model(src), Model(tgt), Correspondence.identity(addresses)
    )


def _population(model, n, seed=0):
    rng = np.random.default_rng(seed)
    return WeightedCollection([model.generate(rng)[0] for _ in range(n)], [0.0] * n)


def _run(translator, traces, *, config=None, mcmc_kernel=None, probe=False):
    """Plan the step, run it, and hand back (plan, raised spill)."""
    config = config or InferenceConfig()
    plan = plan_columnar_step(translator, config=config, mcmc_kernel=mcmc_kernel)
    if probe:
        # Force the runtime probe to run (skip the cached pre-flight) so
        # the test exercises the actual raise site.
        try:
            translator._columnar_plan = False
        except Exception:
            pass
    with pytest.raises(ColumnarSpill) as excinfo:
        columnar_infer_step(
            translator, traces, np.random.default_rng(7), mcmc_kernel, config
        )
    return plan, excinfo.value


class TestEveryCodeReachableAndPredicted:
    def test_translator(self):
        plan, spill = _run(object(), [])
        assert spill.code == "translator"
        assert spill.code in plan.predicted_codes()
        assert not plan.eligible

    def test_proposals(self):
        translator = CorrespondenceTranslator(
            Model(_plain_src),
            Model(_plain_tgt),
            Correspondence.identity(["x"]),
            forward_proposals={"x": lambda rng, trace: Normal(0.0, 1.0)},
        )
        plan, spill = _run(translator, _population(translator.source, 4))
        assert spill.code == "proposals"
        assert spill.code in plan.predicted_codes()
        assert not plan.eligible

    def test_mcmc(self):
        translator = _translator(_plain_src, _plain_tgt, ["x"])
        plan, spill = _run(
            translator, _population(translator.source, 4), mcmc_kernel=object()
        )
        assert spill.code == "mcmc"
        assert spill.code in plan.predicted_codes()
        assert not plan.eligible

    def test_fault_policy(self):
        translator = _translator(_plain_src, _plain_tgt, ["x"])
        config = InferenceConfig(fault_policy="drop")
        plan, spill = _run(
            translator, _population(translator.source, 4), config=config
        )
        assert spill.code == "fault-policy"
        assert spill.code in plan.predicted_codes()
        assert not plan.eligible

    def test_collection_type(self):
        translator = _translator(_plain_src, _plain_tgt, ["x"])
        plan, spill = _run(
            translator, list(_population(translator.source, 4).items)
        )
        assert spill.code == "collection-type"
        assert spill.code in plan.predicted_codes()

    def test_items(self):
        translator = _translator(_plain_src, _plain_tgt, ["x"])
        plan, spill = _run(translator, WeightedCollection([1, 2], [0.0, 0.0]))
        assert spill.code == "items"
        assert spill.code in plan.predicted_codes()

    def test_address_structure(self):
        translator = _translator(_branchy_src, _flip_tgt, ["a"])
        population = _population(translator.source, 16, seed=3)
        address_sets = {tuple(t.addresses()) for t in population.items}
        assert len(address_sets) > 1, "seed must produce both branches"
        plan, spill = _run(translator, population)
        assert spill.code == "address-structure"
        assert spill.code in plan.predicted_codes()

    def test_value_kind(self):
        translator = _translator(_string_src, _string_tgt, ["s"])
        plan, spill = _run(translator, _population(translator.source, 4))
        assert spill.code == "value-kind"
        assert spill.code in plan.predicted_codes()

    def test_dist_merge(self):
        translator = _translator(_mixed_dist_src, _flip_normal_tgt, ["a", "x"])
        population = _population(translator.source, 16, seed=3)
        dist_types = {
            type(t.get_record(("x",)).dist) for t in population.items
        }
        assert len(dist_types) > 1, "seed must produce both distribution classes"
        plan, spill = _run(translator, population)
        assert spill.code == "dist-merge"
        assert spill.code in plan.predicted_codes()

    def test_template(self):
        translator = _translator(_table_src, _table_tgt, ["k"])
        plan, spill = _run(translator, _population(translator.source, 4))
        assert spill.code == "template"
        assert spill.code in plan.predicted_codes()

    def test_observation(self):
        translator = _translator(_x_only_src, _array_obs_tgt, ["x"])
        plan, spill = _run(translator, _population(translator.source, 5))
        assert spill.code == "observation"
        assert spill.code in plan.predicted_codes()

    def test_batch_shape(self):
        translator = _translator(_plain_src, _bad_batch_tgt, ["x"])
        plan, spill = _run(translator, _population(translator.source, 4))
        assert spill.code == "batch-shape"
        assert spill.code in plan.predicted_codes()

    def test_return_value(self):
        translator = _translator(_list_return_src, _plain_tgt, ["x"])
        plan, spill = _run(translator, _population(translator.source, 4))
        assert spill.code == "return-value"
        assert spill.code in plan.predicted_codes()

    def test_control_flow_preflight(self):
        # A complete target profile with value-dependent control flow is
        # a *certain* finding: the step must route to the object path
        # before columnarizing anything.
        translator = _translator(_flip_src, _branch_obs_tgt, ["x"])
        plan, spill = _run(translator, _population(translator.source, 6))
        assert spill.code == "control-flow"
        assert spill.stage == "preflight"
        assert spill.code in plan.predicted_codes()
        assert not plan.eligible
        assert plan.blocking(num_particles=6) is not None
        # A single particle's column is a size-1 array, which numpy
        # coerces to bool: the certainty does not apply there.
        assert plan.blocking(num_particles=1) is None

    def test_control_flow_runtime_probe(self):
        translator = _translator(_flip_src, _branch_obs_tgt, ["x"])
        plan, spill = _run(
            translator, _population(translator.source, 6), probe=True
        )
        assert spill.code == "control-flow"
        assert spill.stage == "probe"
        assert spill.code in plan.predicted_codes()

    def test_execution(self):
        translator = _translator(_plain_src, _opaque_tgt, ["x"])
        plan, spill = _run(translator, _population(translator.source, 4))
        assert spill.code == "execution"
        assert spill.code in plan.predicted_codes()
        # The plan saw the opaque tainted call and stayed uncertain: the
        # step still probed (no certain finding).
        assert plan.eligible


class TestCodeInventory:
    def test_every_code_is_exercised(self):
        """The parametrized triggers above cover the full inventory."""
        exercised = {
            "translator",
            "proposals",
            "mcmc",
            "fault-policy",
            "collection-type",
            "items",
            "address-structure",
            "value-kind",
            "dist-merge",
            "template",
            "observation",
            "batch-shape",
            "return-value",
            "control-flow",
            "execution",
        }
        assert exercised == set(SPILL_CODES)

    def test_all_raise_sites_use_known_codes(self):
        """No in-tree raise site invents a code outside the inventory."""
        import re

        from repro.core import columnar

        source = open(columnar.__file__).read()
        for match in re.finditer(
            r"raise ColumnarSpill\(\s*\n?\s*\"([a-z-]+)\"", source
        ):
            assert match.group(1) in SPILL_CODES, match.group(1)

    def test_spill_message_is_code_prefixed(self):
        spill = ColumnarSpill("mcmc", "kernel configured")
        assert str(spill).startswith("[mcmc] ")


class TestPlanSoundnessOnEquivalenceSuite:
    """The plan never blocks a step the columnar equivalence suite proves
    runs columnar — a false *certain* finding would silently demote a
    bitwise-verified workload to the object path."""

    def _equivalence_translators(self):
        from repro.regression.programs import (
            NoOutlierModelParams,
            OutlierModelParams,
            coefficient_correspondence,
            no_outlier_model,
            outlier_model,
        )
        from tests.core.test_columnar_equivalence import (
            _param_edit_translator,
            _structural_big_fn,
            _structural_small_fn,
        )

        xs = [float(i) for i in range(10)]
        ys = [0.5 * x + 0.2 for x in xs]
        return {
            "param-edit": _param_edit_translator(),
            "fig8": CorrespondenceTranslator(
                no_outlier_model(NoOutlierModelParams(prior_std=10.0, std=0.5), xs, ys),
                outlier_model(
                    OutlierModelParams(
                        prior_std=10.0, prob_outlier=0.1, inlier_std=0.5
                    ),
                    xs,
                    ys,
                ),
                coefficient_correspondence(),
            ),
            "structural": CorrespondenceTranslator(
                Model(_structural_small_fn),
                Model(_structural_big_fn),
                Correspondence.identity(["slope"]),
            ),
        }

    def test_no_equivalence_workload_is_blocked(self):
        for name, translator in self._equivalence_translators().items():
            plan = plan_columnar_step(translator)
            assert plan.blocking(num_particles=24) is None, (
                name,
                [f.describe() for f in plan.findings],
            )

    def test_param_edit_step_runs_columnar_as_planned(self):
        from tests.core.test_columnar_equivalence import _param_edit_translator

        translator = _param_edit_translator()
        plan = plan_columnar_step(translator)
        assert plan.eligible
        step = infer(
            translator,
            _population(translator.source, 8),
            np.random.default_rng(11),
            config=InferenceConfig(collection="columnar"),
        )
        assert step.stats.collection_mode == "columnar"
        assert step.stats.spill_code is None


class TestSpillsAreObservable:
    """A spilled ``infer`` step reports its code in the stats, as a
    ``smc.columnar.spills.<code>`` counter and on its ``smc.step`` span,
    and still fires its hooks and opens its spans once."""

    #: Codes the batched run raises; every other case spills before the
    #: step consumes any randomness.
    PROBED = {"batch-shape", "execution"}

    CASES = {
        "proposals": lambda: (
            CorrespondenceTranslator(
                Model(_plain_src),
                Model(_plain_tgt),
                Correspondence.identity(["x"]),
                forward_proposals={"x": lambda rng, trace: Normal(0.0, 1.0)},
            ),
            {},
        ),
        "fault-policy": lambda: (
            _translator(_plain_src, _plain_tgt, ["x"]),
            {"fault_policy": "drop"},
        ),
        "address-structure": lambda: (
            _translator(_branchy_src, _flip_tgt, ["a"]),
            {},
        ),
        "value-kind": lambda: (_translator(_string_src, _string_tgt, ["s"]), {}),
        "template": lambda: (_translator(_table_src, _table_tgt, ["k"]), {}),
        "batch-shape": lambda: (_translator(_plain_src, _bad_batch_tgt, ["x"]), {}),
        "return-value": lambda: (
            _translator(_list_return_src, _plain_tgt, ["x"]),
            {},
        ),
        "control-flow": lambda: (_translator(_flip_src, _branch_obs_tgt, ["x"]), {}),
        "execution": lambda: (_translator(_plain_src, _opaque_tgt, ["x"]), {}),
    }

    @pytest.mark.parametrize("code", sorted(CASES))
    def test_spill_code_in_stats_metrics_and_span(self, code):
        from repro.observability import MetricsRegistry, RecordingHooks, Tracer

        translator, options = self.CASES[code]()
        population = _population(translator.source, 16, seed=3)
        metrics, tracer, hooks = MetricsRegistry(), Tracer(), RecordingHooks()
        step = infer(
            translator,
            population,
            np.random.default_rng(5),
            config=InferenceConfig(
                collection="columnar",
                metrics=metrics,
                tracer=tracer,
                hooks=hooks,
                **options,
            ),
        )
        stage = "probe" if code in self.PROBED else "preflight"
        assert step.stats.spill_code == code
        assert step.stats.spill_stage == stage
        assert step.stats.spill_detail
        assert step.stats.collection_mode == "object"
        assert metrics.counter(f"smc.columnar.spills.{code}").value == 1
        events = {e: len(hooks.of(e)) for e in ("step_start", "resample", "step_end")}
        assert events == {"step_start": 1, "resample": 1, "step_end": 1}
        assert [e[1] for e in hooks.of("particle")] == list(range(16))
        (step_span,) = tracer.spans("smc.step")
        assert len(tracer.spans("smc.translate")) == 1
        assert step_span.counters[f"columnar.spill.{code}"] == 1
        assert step_span.counters[f"columnar.spill_stage.{stage}"] == 1


class TestOneMetricSet:
    def test_object_and_columnar_steps_emit_the_same_metrics(self):
        """Both layouts count the same ``smc.*`` metrics; only a columnar
        step adds ``smc.columnar.steps``."""
        from repro.observability import MetricsRegistry
        from tests.core.test_columnar_equivalence import _param_edit_translator

        translator = _param_edit_translator()
        population = _population(translator.source, 8)
        names = {}
        for mode in ("object", "columnar"):
            metrics = MetricsRegistry()
            step = infer(
                translator,
                population.copy(),
                np.random.default_rng(11),
                config=InferenceConfig(collection=mode, metrics=metrics),
            )
            assert step.stats.collection_mode == mode
            names[mode] = {n for n in metrics.to_dict() if n.startswith("smc.")}
        assert names["columnar"] - names["object"] == {"smc.columnar.steps"}
        assert names["object"] <= names["columnar"]


class TestPlanUnavailableIsObservable:
    """A planner crash keeps the runtime probe as the only judge, and says
    so: a ``plan-unavailable`` metric and ``smc.step`` counter carry the
    exception class, and the step's population is unchanged."""

    def _step(self, translator, population, **sinks):
        return infer(
            translator,
            population.copy(),
            np.random.default_rng(11),
            config=InferenceConfig(collection="columnar", **sinks),
        )

    def test_planner_crash_is_reported_and_changes_nothing(self, monkeypatch):
        import repro.analysis.absint as absint
        from repro.core.columnar import plan_unavailable
        from repro.observability import MetricsRegistry, Tracer
        from tests.core.test_columnar_equivalence import _param_edit_translator

        planned = _param_edit_translator()
        population = _population(planned.source, 8)
        expected = self._step(planned, population)

        def crash(*args, **kwargs):
            raise RuntimeError("planner bug")

        monkeypatch.setattr(absint, "plan_columnar_step", crash)
        translator = _param_edit_translator()
        for _ in range(2):  # the failure is cached, and reported every step
            metrics, tracer = MetricsRegistry(), Tracer()
            step = self._step(translator, population, metrics=metrics, tracer=tracer)
            assert step.stats.collection_mode == "columnar"
            assert step.stats.spill_code is None
            name = "plan-unavailable.RuntimeError"
            assert metrics.counter(f"smc.columnar.{name}").value == 1
            (step_span,) = tracer.spans("smc.step")
            assert step_span.counters[f"columnar.{name}"] == 1
            assert step.collection.log_weights.tobytes() == (
                expected.collection.log_weights.tobytes()
            )
            for address in expected.collection.addresses():
                assert step.collection.value_column(address).tobytes() == (
                    expected.collection.value_column(address).tobytes()
                )
        unavailable = plan_unavailable(translator)
        assert unavailable.code == "plan-unavailable"
        assert unavailable.detail == "RuntimeError: planner bug"

    def test_planned_step_reports_nothing(self):
        from repro.observability import MetricsRegistry, Tracer
        from tests.core.test_columnar_equivalence import _param_edit_translator

        translator = _param_edit_translator()
        metrics, tracer = MetricsRegistry(), Tracer()
        self._step(
            translator, _population(translator.source, 8), metrics=metrics, tracer=tracer
        )
        assert not [n for n in metrics.to_dict() if "plan-unavailable" in n]
        (step_span,) = tracer.spans("smc.step")
        assert not [n for n in step_span.counters or {} if "plan-unavailable" in n]
