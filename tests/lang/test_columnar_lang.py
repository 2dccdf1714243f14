"""Structured-language programs on both collection layouts.

A columnar step runs a lang program once over columns of particles
(``repro.lang.interp``'s vectorized pure expressions); a step it cannot
represent spills and replays on the object path.  Either way the
result must be the object path's, bit for bit, and a spill must carry a
code the static plan predicted (``ColumnarPlan.predicted_codes``).

The differential test generates programs with the parser round-trip
fuzzer's strategies, edits them by perturbing the constants in their
random expressions' parameters (a parameter edit: every choice is
reused, unless the perturbation moves a branch or a support), and runs
one ``infer`` step per layout.  Fresh choices are drawn in a different
RNG order per layout, so an edit that samples any is compared one
particle at a time, where the orders coincide.  Hand-written cases
pin the constructs the compiler vectorizes and the ones that must
spill.
"""

from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, event, example, given, settings
from hypothesis import strategies as st

from repro import CorrespondenceTranslator, WeightedCollection, infer
from repro.analysis.absint import plan_columnar_step
from repro.core import InferenceConfig
from repro.graph import diff_correspondence
from repro.lang import EvalError, lang_model, parse_program
from repro.lang.ast import (
    Assign,
    Const,
    FlipExpr,
    Node,
    RandomExpr,
    Return,
    Ternary,
    Var,
    seq,
)
from repro.lang.smallstep import RandomSource, run
from repro.observability import MetricsRegistry, Tracer

from ..service.object_reference import fingerprint
from .test_compile import INITIAL_ENV, MAX_STEPS, _comparable, _time_limit, programs

NUM_PARTICLES = 6


def _perturbed(node, delta, inside_random=False):
    """``node`` with ``delta`` added to every constant inside a random
    expression's parameters; labels and everything else unchanged."""
    if not isinstance(node, Node):
        return node
    if isinstance(node, Const) and inside_random:
        return Const(node.value + delta)
    inside_random = inside_random or isinstance(node, RandomExpr)
    updates = {}
    for field_info in fields(node):
        value = getattr(node, field_info.name)
        if isinstance(value, Node):
            updates[field_info.name] = _perturbed(value, delta, inside_random)
        elif isinstance(value, tuple):
            updates[field_info.name] = tuple(
                _perturbed(item, delta, inside_random) for item in value
            )
    return replace(node, **updates) if updates else node


def _translator(source_ast, target_ast, env=None):
    return CorrespondenceTranslator(
        lang_model(source_ast, env=env),
        lang_model(target_ast, env=env),
        diff_correspondence(source_ast, target_ast),
    )


def _step(translator, population, mode, seed, **config):
    """One ``infer`` step, or the error it raised."""
    try:
        return infer(
            translator,
            population.copy(),
            np.random.default_rng(seed),
            config=InferenceConfig(collection=mode, **config),
        )
    except Exception as error:  # compared across layouts below
        return error


def assert_layouts_agree(translator, population, seed=0, **config):
    """Bitwise agreement of the two layouts, or a predicted spill.

    Returns the columnar step (or the error both layouts raised)."""
    reference = _step(translator, population, "object", seed, **config)
    columnar = _step(translator, population, "columnar", seed, **config)
    if isinstance(reference, Exception):
        assert type(columnar) is type(reference), (reference, columnar)
        return columnar
    assert not isinstance(columnar, Exception), columnar
    assert fingerprint(columnar.collection) == fingerprint(reference.collection)
    assert (
        columnar.stats.log_mean_weight_increment.hex()
        == reference.stats.log_mean_weight_increment.hex()
    )
    code = columnar.stats.spill_code
    if code is None:
        assert columnar.stats.collection_mode == "columnar"
    else:
        assert columnar.stats.collection_mode == "object"
        assert code in plan_columnar_step(translator).predicted_codes(), code
    return columnar


def _draws_fresh(translator, population, seed):
    """Whether the object step samples any target choice fresh."""
    metrics = MetricsRegistry()
    _step(translator, population, "object", seed, metrics=metrics)
    return metrics.counter("translate.choices_fresh").value > 0


def _population(model, seed, num=NUM_PARTICLES):
    rng = np.random.default_rng(seed)
    return WeightedCollection.uniform([model.simulate(rng) for _ in range(num)])


class TestDifferential:
    @given(
        programs,
        st.sampled_from([0.125, -0.125, 0.5]),
        st.integers(0, 2**32 - 1),
    )
    # The edit makes the ternary's constant condition true, so the target
    # samples flip:4 and flip:5 fresh.
    @example(
        Assign(
            "x",
            FlipExpr(
                "flip:6",
                Ternary(
                    Const(0.0),
                    FlipExpr("flip:5", FlipExpr("flip:4", Const(0.0))),
                    Const(0.0),
                ),
            ),
        ),
        0.125,
        0,
    )
    @settings(
        max_examples=200,
        deadline=None,
        suppress_health_check=[HealthCheck.filter_too_much, HealthCheck.too_slow],
    )
    def test_layouts_agree_on_parameter_edits(self, program, delta, seed):
        # A scalar return keeps the population's return values stackable.
        source_ast = seq(_comparable(program), Return(Var("x")))
        target_ast = seq(_comparable(_perturbed(program, delta)), Return(Var("x")))
        try:
            run(source_ast, RandomSource(np.random.default_rng(seed)),
                dict(INITIAL_ENV), max_steps=MAX_STEPS)
        except EvalError as error:
            assume("did not terminate" not in str(error))
        translator = _translator(source_ast, target_ast, INITIAL_ENV)
        try:
            population = _population(translator.source, seed)
        except EvalError:
            assume(False)
        with _time_limit(30):
            if _draws_fresh(translator, population, seed):
                # The perturbation moved a branch or a support, so the
                # target samples choices the source lacks.  The layouts
                # draw those per address and per particle respectively
                # (see repro.core.columnar); the orders coincide for one
                # particle.
                event("fresh draws")
                for trace in population.items:
                    outcome = assert_layouts_agree(
                        translator, WeightedCollection.uniform([trace]), seed
                    )
            else:
                outcome = assert_layouts_agree(translator, population, seed)
        if isinstance(outcome, Exception):
            event("both layouts raise")
        else:
            event(f"spill: {outcome.stats.spill_code}")


FIG8 = """
slope = gauss(0.0, 2.0);
intercept = gauss(0.0, 2.0);
o0 = flip(0.1);
observe(gauss(slope * 1.0 + intercept, o0 ? 10.0 : 0.5) == 1.8);
o1 = flip(0.1);
observe(gauss(slope * 4.0 + intercept, o1 ? 10.0 : 0.5) == -20.0);
return slope;
"""


def _pair(source, target):
    return _translator(parse_program(source), parse_program(target))


def _agree(source, target, *, expect_spill=None, seed=3, num=24):
    translator = _pair(source, target)
    step = assert_layouts_agree(
        translator, _population(translator.source, seed, num), seed,
        resample="always",
    )
    assert not isinstance(step, Exception), step
    assert step.stats.spill_code == expect_spill
    return step


class TestHandCases:
    def test_fig8_runs_columnar(self):
        _agree(FIG8, FIG8.replace("0.1", "0.2").replace("0.5)", "0.7)"))

    def test_nested_ternary(self):
        source = (
            "a = flip(0.5); b = flip(0.5);\n"
            "s = a ? (b ? 0.5 : 1.0) : (b ? 2.0 : 4.0);\n"
            "observe(gauss(0.0, s) == 0.3); return s;"
        )
        _agree(source, source.replace("0.3)", "0.9)"))

    def test_int_and_float_arithmetic(self):
        source = (
            "k = uniform(0, 3); f = flip(0.4); x = gauss(0.0, 1.0);\n"
            "m = k * 2 + f - x * 0.5;\n"
            "observe(gauss(m / 2, 1.0 + k) == 1.0); return k + f;"
        )
        step = _agree(source, source.replace("== 1.0", "== 2.0"))
        values = {type(t.return_value) for t in step.collection.to_weighted().items}
        assert values == {int}

    def test_flip_of_a_column_probability(self):
        source = (
            "x = gauss(0.0, 1.0); c = flip(x > 0 ? 0.9 : 0.1);\n"
            "observe(gauss(x, 1.0) == 0.4); return c;"
        )
        _agree(source, source.replace("0.4)", "0.8)"))

    def test_and_or_with_pure_right_operand(self):
        source = (
            "a = flip(0.5); x = gauss(0.0, 1.0);\n"
            "both = a && x > 0; either = a || x < -1; neither = !either;\n"
            "observe(gauss(both + 2 * either, 1.0 + neither) == 1.0); return both;"
        )
        _agree(source, source.replace("== 1.0", "== 0.5"))

    def test_impure_branch_spills_as_control_flow(self):
        source = (
            "a = flip(0.5); b = a ? flip(0.9) : 0;\n"
            "observe(gauss(b, 1.0) == 1.0); return b;"
        )
        _agree(source, source.replace("== 1.0", "== 0.5"), expect_spill="control-flow")

    def test_mixed_kind_branches_spill(self):
        source = (
            "a = flip(0.5); r = a ? 1 : 0.5;\n"
            "observe(gauss(r, 1.0) == 1.0); return r;"
        )
        _agree(source, source.replace("== 1.0", "== 0.5"), expect_spill="execution")

    def test_program_without_return_spills_on_its_bindings(self):
        # Without ``return`` a run returns its final bindings, a dict per
        # particle that does not stack into columns.
        source = "x = gauss(0.0, 1.0);\nobserve(gauss(x, 1.0) == 0.5);"
        _agree(source, source.replace("0.5)", "0.9)"), expect_spill="return-value")

    def test_raise_in_an_unselected_lane_spills(self):
        # The particles with b = 0 never divide on the object path; the
        # batched run divides in every lane and spills.
        source = (
            "b = flip(0.5); d = b > 0 ? 1.0 / b : 2.0;\n"
            "observe(gauss(0.0, d) == 0.5); return d;"
        )
        _agree(source, source.replace("0.5)", "0.7)"), expect_spill="execution")


class TestSpillReplay:
    SOURCE = "x = gauss(0.0, 1.0);\nobserve(gauss(x, 1.0) == 0.5);\nreturn x;"
    # ``y`` is a fresh choice: the batched run draws it, then spills on
    # the division in the unselected lanes.
    TARGET = (
        "x = gauss(0.0, 1.0);\ny = flip(0.5);\n"
        "d = y > 0 ? 1.0 / y : 2.0;\n"
        "observe(gauss(x, d) == 0.5);\nreturn x;"
    )

    def test_spill_after_a_fresh_draw_replays_object_mode(self):
        translator = _pair(self.SOURCE, self.TARGET)
        population = _population(translator.source, 5, num=16)
        step = assert_layouts_agree(translator, population, seed=9)
        assert step.stats.spill_code == "execution"

    def test_spill_is_counted_and_marked_on_the_step_span(self):
        translator = _pair(self.SOURCE, self.TARGET)
        population = _population(translator.source, 5, num=16)
        metrics, tracer = MetricsRegistry(), Tracer()
        step = infer(
            translator, population, np.random.default_rng(9),
            config=InferenceConfig(
                collection="columnar", metrics=metrics, tracer=tracer
            ),
        )
        assert step.stats.spill_code == "execution"
        assert metrics.counter("smc.columnar.spills.execution").value == 1
        (span,) = [
            span for span in tracer.spans("smc.step")
            if span.counters and "columnar.spill.execution" in span.counters
        ]
        assert span.counters["particles"] == 16
