"""Abstract interpretation of structured-language (lang) models.

The embedded runtime executes lang programs through the closures
:func:`repro.lang.interp.compile_program` builds; this module walks the
same AST *abstractly*, mirroring the interpreter's semantics — including the
``(label, *loop_indices)`` addressing scheme of Section 5.4 — over the
value lattice of :mod:`repro.analysis.absint.values`.

Lang is friendlier to static analysis than Python: arrays are values
(copy-on-write on ``x[i] = e``), so branch joins never have to reason
about aliased mutation, and loop indices are part of the address, so a
closable loop yields a closable address family.  What remains
un-closable is exactly what the paper flags: ``while`` loops whose
condition is (or depends on) a random choice — the geometric program of
Figure 6 — which fail the analysis and fall back to runtime profiling.

The columnar runtime runs a lang program once over columns of
particles (see :mod:`repro.lang.interp`), so the analysis also records
what that batched run cannot do: control flow on a sampled value —
``if``/``while``, and a ternary or ``&&``/``||`` whose sampled operand
guards a random expression or a call — and the *column hazards*, the
constructs that may raise on a column although no particle's scalar
run would: a division or an indexing that a ternary over a sampled
condition (or ``&&``/``||`` after a sampled left operand) evaluates for
every particle, an index that is itself sampled, and a ternary whose
branches may differ in numeric kind.  A ternary over a sampled value
with pure branches is a data dependency, not control flow.
"""

from __future__ import annotations

import itertools
from typing import Any, Dict, FrozenSet, List, Optional, Tuple

import numpy as np

from ...core.model import Model
from ...distributions import Flip, Normal, UniformDiscrete
from ...distributions.base import BinarySupport, RealLine, Support
from ...lang import ast as last
from ...lang.analysis import is_pure, walk
from ...lang.interp import MAX_CALL_DEPTH, choice_address
from .interp import STATEMENT_BUDGET, AnalysisFailure
from .profile import StaticProfile
from .values import (
    MAX_ONE_OF,
    AbstractValue,
    Const,
    Sampled,
    Unknown,
    const_value,
    deps_of,
    is_tainted,
    join,
    make_one_of,
    possible_values,
)

__all__ = ["analyze_lang_model"]

_EMPTY: FrozenSet[Any] = frozenset()


class _Array:
    """A lang array: an immutable vector of abstract values."""

    __slots__ = ("items",)

    def __init__(self, items: Tuple[AbstractValue, ...]):
        self.items = tuple(items)


class _LangReturn(Exception):
    def __init__(self, value: Any):
        self.value = value


def _tainted(value: Any) -> bool:
    if isinstance(value, _Array):
        return any(is_tainted(item) for item in value.items)
    return is_tainted(value)


def _deps(value: Any) -> FrozenSet[Any]:
    if isinstance(value, _Array):
        deps: FrozenSet[Any] = _EMPTY
        for item in value.items:
            deps = deps | deps_of(item)
        return deps
    return deps_of(value)


def _as_array(value: Any) -> Optional[_Array]:
    if isinstance(value, _Array):
        return value
    ok, concrete = const_value(value) if isinstance(value, AbstractValue) else (False, None)
    if ok and isinstance(concrete, (list, tuple)):
        return _Array(tuple(Const(item) for item in concrete))
    return None


#: Lang truthiness: a value is true iff it differs from 0.
def _lang_truthy(value: Any) -> bool:
    return value != 0


_BIN_OPS = {
    "+": lambda a, b: a + b,
    "-": lambda a, b: a - b,
    "*": lambda a, b: a * b,
    "==": lambda a, b: 1 if a == b else 0,
    "!=": lambda a, b: 1 if a != b else 0,
    "<": lambda a, b: 1 if a < b else 0,
    "<=": lambda a, b: 1 if a <= b else 0,
    ">": lambda a, b: 1 if a > b else 0,
    ">=": lambda a, b: 1 if a >= b else 0,
}


def _numeric_kind(value: Any) -> Optional[str]:
    """``"int"`` or ``"float"`` when every value ``value`` may take has
    that Python type; ``None`` when mixed or unknown."""
    if not isinstance(value, AbstractValue):
        return None
    members = possible_values(value)
    if members is None:
        if isinstance(value, Sampled) and value.supports and all(
            isinstance(support, RealLine) for support in value.supports
        ):
            return "float"
        return None
    kinds = {
        "float" if isinstance(m, (float, np.floating))
        else "int" if isinstance(m, (int, np.integer))
        else None
        for m in members
    }
    return kinds.pop() if len(kinds) == 1 else None


def _eager_raisers(*exprs: last.Expr) -> List[str]:
    """The constructs in ``exprs`` that may raise when evaluated for a
    particle whose scalar run would have skipped them."""
    found = []
    for expr in exprs:
        for node in walk(expr):
            if isinstance(node, last.Binary) and node.op == "/":
                found.append("division")
            elif isinstance(node, last.Index):
                found.append("indexing")
    return sorted(set(found))


def _div(a: Any, b: Any) -> Any:
    if b == 0:
        raise ZeroDivisionError("division by zero")
    return a / b


class _LangAbstractInterpreter:
    """Mirrors :func:`repro.lang.interp.compile_program`'s semantics over the lattice."""

    def __init__(self, model: Model, profile: StaticProfile):
        fn = model.fn
        self.model = model
        self.profile = profile
        program = fn.program
        if isinstance(program, str):
            from ...lang.parser import parse_program

            program = parse_program(program)
        self.program: last.Stmt = program
        self.env: Dict[str, Any] = {
            name: Const(value) for name, value in fn.initial.items()
        }
        #: Concrete loop indices / call-site labels (Section 5.4).  Every
        #: entry is concrete by construction: a loop whose bounds cannot
        #: be resolved fails the analysis before indexing anything.
        self.loop_indices: List[Any] = []
        self.functions: Dict[str, last.FuncDef] = {}
        self.call_depth = 0
        self.steps = 0
        self.ctrl: List[Tuple[bool, FrozenSet[Any]]] = []
        self.branch_depth = 0

    def run(self) -> None:
        try:
            self.exec(self.program, self.env)
        except _LangReturn as signal:
            # Lang programs return scalars or (copy-on-write) arrays;
            # only a per-particle array resists ``_batch_values``.
            self.profile.return_batchable = not (
                isinstance(signal.value, _Array) and _tainted(signal.value)
            )
        else:
            # No ``return``: the run returns its final bindings, a dict
            # that stacks only when no binding varies across particles.
            self.profile.return_batchable = not any(
                _tainted(value) for value in self.env.values()
            )

    # -- bookkeeping ----------------------------------------------------------

    def _tick(self) -> None:
        self.steps += 1
        if self.steps > STATEMENT_BUDGET:
            raise AnalysisFailure(
                f"statement budget exceeded ({STATEMENT_BUDGET}) while "
                "unrolling lang program"
            )

    def _control_deps(self) -> FrozenSet[Any]:
        deps: FrozenSet[Any] = _EMPTY
        for tainted, entry_deps in self.ctrl:
            if tainted:
                deps = deps | entry_deps
        return deps

    def _truthiness(self, value: Any) -> Tuple[bool, bool]:
        ok, concrete = const_value(value) if isinstance(value, AbstractValue) else (False, None)
        if not ok:
            return False, False
        try:
            return True, _lang_truthy(concrete)
        except Exception as error:
            raise AnalysisFailure(f"untestable lang condition ({error})") from error

    # -- expressions ----------------------------------------------------------

    def eval(self, expr: last.Expr, env: Dict[str, Any]) -> Any:
        self._tick()
        if isinstance(expr, last.Const):
            return Const(expr.value)
        if isinstance(expr, last.Var):
            if expr.name not in env:
                raise AnalysisFailure(f"unbound lang variable {expr.name!r}")
            return env[expr.name]
        if isinstance(expr, last.Unary):
            return self._eval_unary(expr, env)
        if isinstance(expr, last.Binary):
            return self._eval_binary(expr, env)
        if isinstance(expr, last.Ternary):
            return self._eval_ternary(expr, env)
        if isinstance(expr, last.Index):
            return self._eval_index(expr, env)
        if isinstance(expr, last.ArrayExpr):
            ok, size = const_value(self.eval(expr.size, env))
            if not ok:
                raise AnalysisFailure("array size is not a compile-time constant")
            fill = self.eval(expr.fill, env)
            if isinstance(fill, _Array):
                raise AnalysisFailure("nested lang arrays are unsupported")
            return _Array((fill,) * int(size))
        if isinstance(expr, last.RandomExpr):
            return self._sample(expr, env)
        if isinstance(expr, last.Call):
            return self._call(expr, env)
        raise AnalysisFailure(f"unknown lang expression {expr!r}")

    def _apply(self, operands: Tuple[Any, ...], compute) -> AbstractValue:
        for operand in operands:
            if isinstance(operand, _Array):
                raise AnalysisFailure("lang arrays are not scalar operands")
        concrete = []
        all_const = True
        for operand in operands:
            ok, value = const_value(operand)
            if not ok:
                all_const = False
                break
            concrete.append(value)
        if all_const:
            try:
                return Const(compute(tuple(concrete)))
            except Exception as error:
                raise AnalysisFailure(f"lang evaluation failed: {error}") from error
        tainted = any(is_tainted(operand) for operand in operands)
        deps: FrozenSet[Any] = _EMPTY
        for operand in operands:
            deps = deps | deps_of(operand)
        member_sets = []
        total = 1
        for operand in operands:
            members = possible_values(operand)
            if members is None:
                member_sets = None
                break
            total *= max(len(members), 1)
            if total > MAX_ONE_OF:
                member_sets = None
                break
            member_sets.append(members)
        if member_sets is not None:
            results = []
            for combo in itertools.product(*member_sets):
                try:
                    results.append(compute(combo))
                except Exception:
                    continue
            if results:
                return make_one_of(results, tainted, deps)
        return Unknown(tainted, deps)

    def _eval_unary(self, expr: last.Unary, env: Dict[str, Any]) -> AbstractValue:
        operand = self.eval(expr.operand, env)
        if expr.op == "-":
            return self._apply((operand,), lambda values: -values[0])
        if expr.op == "!":
            return self._apply(
                (operand,), lambda values: 0 if _lang_truthy(values[0]) else 1
            )
        raise AnalysisFailure(f"unknown lang unary operator {expr.op!r}")

    def _eval_binary(self, expr: last.Binary, env: Dict[str, Any]) -> AbstractValue:
        if expr.op in ("&&", "||"):
            left = self.eval(expr.left, env)
            ok, truthy = self._truthiness(left)
            if ok:
                if expr.op == "&&" and not truthy:
                    return Const(0)
                if expr.op == "||" and truthy:
                    return Const(1)
                right = self.eval(expr.right, env)
                return self._apply(
                    (right,), lambda values: 1 if _lang_truthy(values[0]) else 0
                )
            # Undecidable left operand: the right-hand side may or may
            # not evaluate (and may sample) — analyze it under an
            # uncertainty frame, then merge.  A sampled left operand is
            # a column in a batched run: a pure right operand then runs
            # for every particle, an impure one is control flow.
            if is_tainted(left):
                if is_pure(expr.right):
                    for construct in _eager_raisers(expr.right):
                        self.profile.note_column_hazard(
                            f"{construct} in the right operand of {expr.op!r} "
                            "after a sampled left operand"
                        )
                else:
                    self.profile.record_control("boolop", 0, deps_of(left))
            self.ctrl.append((is_tainted(left), deps_of(left)))
            self.branch_depth += 1
            try:
                right = self.eval(expr.right, env)
            finally:
                self.branch_depth -= 1
                self.ctrl.pop()
            return self._apply(
                (left, right),
                lambda values: (
                    (1 if _lang_truthy(values[1]) else 0)
                    if _lang_truthy(values[0]) == (expr.op == "&&")
                    else (0 if expr.op == "&&" else 1)
                ),
            )
        left = self.eval(expr.left, env)
        right = self.eval(expr.right, env)
        if expr.op == "/":
            return self._apply((left, right), lambda values: _div(values[0], values[1]))
        handler = _BIN_OPS.get(expr.op)
        if handler is None:
            raise AnalysisFailure(f"unknown lang binary operator {expr.op!r}")
        return self._apply(
            (left, right), lambda values: handler(values[0], values[1])
        )

    def _eval_ternary(self, expr: last.Ternary, env: Dict[str, Any]) -> Any:
        cond = self.eval(expr.cond, env)
        ok, truthy = self._truthiness(cond)
        if ok:
            return self.eval(expr.then if truthy else expr.otherwise, env)
        tainted = is_tainted(cond)
        deps = deps_of(cond)
        # A sampled condition over pure branches is an elementwise
        # select in a batched run (both branches run for every particle);
        # over impure branches it is control flow.
        select = tainted and is_pure(expr.then) and is_pure(expr.otherwise)
        if tainted and not select:
            self.profile.record_control("ifexp", 0, deps)
        self.ctrl.append((tainted, deps))
        self.branch_depth += 1
        try:
            then_value = self.eval(expr.then, env)
            else_value = self.eval(expr.otherwise, env)
        finally:
            self.branch_depth -= 1
            self.ctrl.pop()
        if not (
            isinstance(then_value, AbstractValue)
            and isinstance(else_value, AbstractValue)
        ):
            raise AnalysisFailure("array-valued lang conditional expression")
        if select:
            for construct in _eager_raisers(expr.then, expr.otherwise):
                self.profile.note_column_hazard(
                    f"{construct} in a branch of a ternary over a sampled value"
                )
            kind = _numeric_kind(then_value)
            if kind is None or kind != _numeric_kind(else_value):
                self.profile.note_column_hazard(
                    "ternary over a sampled value whose branches may "
                    "differ in numeric kind"
                )
        return join(then_value, else_value, tainted=tainted, extra_deps=deps)

    def _eval_index(self, expr: last.Index, env: Dict[str, Any]) -> Any:
        array = _as_array(self.eval(expr.array, env))
        if array is None:
            raise AnalysisFailure("indexing a non-array lang value")
        index = self.eval(expr.index, env)
        ok, concrete = const_value(index)
        if ok:
            i = int(concrete)
            if not 0 <= i < len(array.items):
                raise AnalysisFailure(
                    f"lang index {i} out of bounds for array of size "
                    f"{len(array.items)}"
                )
            return array.items[i]
        if is_tainted(index):
            self.profile.note_column_hazard("indexing by a sampled value")
        members = possible_values(index)
        if members is not None:
            selected = [
                array.items[int(member)]
                for member in members
                if 0 <= int(member) < len(array.items)
            ]
            if selected:
                out = selected[0]
                for other in selected[1:]:
                    out = join(out, other, tainted=True, extra_deps=deps_of(index))
                if len(selected) == 1:
                    out = join(out, out, tainted=True, extra_deps=deps_of(index))
                return out
        return Unknown(True, _deps(array) | deps_of(index))

    # -- random expressions ---------------------------------------------------

    def _dist_facts(
        self, expr: last.RandomExpr, env: Dict[str, Any]
    ) -> Tuple[str, Tuple[Support, ...], FrozenSet[Any]]:
        """(dist class name, supports, parameter deps) of a random expr."""
        if isinstance(expr, last.FlipExpr):
            prob = self.eval(expr.prob, env)
            ok, concrete = const_value(prob)
            if ok:
                try:
                    return "Flip", (Flip(float(concrete)).support(),), _EMPTY
                except Exception as error:
                    raise AnalysisFailure(f"invalid flip parameter: {error}") from error
            return "Flip", (BinarySupport(),), deps_of(prob)
        if isinstance(expr, last.UniformExpr):
            low = self.eval(expr.low, env)
            high = self.eval(expr.high, env)
            ok_low, concrete_low = const_value(low)
            ok_high, concrete_high = const_value(high)
            if ok_low and ok_high:
                try:
                    support = UniformDiscrete(
                        int(concrete_low), int(concrete_high)
                    ).support()
                except Exception as error:
                    raise AnalysisFailure(
                        f"invalid uniform bounds: {error}"
                    ) from error
                return "UniformDiscrete", (support,), _EMPTY
            raise AnalysisFailure(
                "uniform bounds are not compile-time constants; the support "
                "cannot be statically determined"
            )
        if isinstance(expr, last.GaussExpr):
            mean = self.eval(expr.mean, env)
            std = self.eval(expr.std, env)
            ok_mean, concrete_mean = const_value(mean)
            ok_std, concrete_std = const_value(std)
            if ok_mean and ok_std:
                try:
                    support = Normal(float(concrete_mean), float(concrete_std)).support()
                except Exception as error:
                    raise AnalysisFailure(f"invalid gauss parameters: {error}") from error
                return "Normal", (support,), _EMPTY
            return "Normal", (RealLine(),), deps_of(mean) | deps_of(std)
        raise AnalysisFailure(f"unknown lang random expression {expr!r}")

    def _sample(self, expr: last.RandomExpr, env: Dict[str, Any]) -> AbstractValue:
        dist_class, supports, param_deps = self._dist_facts(expr, env)
        address = choice_address(expr.label, tuple(self.loop_indices))
        always = not self.ctrl
        control_deps = self._control_deps()
        if address in self.model.observations:
            self.profile.record(
                address,
                dist_class,
                supports,
                observed=True,
                always=always,
                param_deps=param_deps,
                control_deps=control_deps,
            )
            return Const(self.model.observations[address])
        self.profile.record(
            address,
            dist_class,
            supports,
            observed=False,
            always=always,
            param_deps=param_deps,
            control_deps=control_deps,
        )
        return Sampled(address, supports)

    def _call(self, expr: last.Call, env: Dict[str, Any]) -> Any:
        function = self.functions.get(expr.name)
        if function is None:
            raise AnalysisFailure(f"call to undefined lang function {expr.name!r}")
        if len(expr.args) != len(function.params):
            raise AnalysisFailure(f"lang call arity mismatch for {expr.name!r}")
        if self.call_depth >= MAX_CALL_DEPTH:
            raise AnalysisFailure(
                f"lang call depth exceeded {MAX_CALL_DEPTH} during analysis"
            )
        arguments = [self.eval(arg, env) for arg in expr.args]
        call_env = dict(zip(function.params, arguments))
        self.loop_indices.append(expr.label)
        self.call_depth += 1
        try:
            self.exec(function.body, call_env)
        except _LangReturn as signal:
            return signal.value
        finally:
            self.loop_indices.pop()
            self.call_depth -= 1
        raise AnalysisFailure(f"lang function {expr.name!r} did not return a value")

    # -- statements -----------------------------------------------------------

    def exec(self, stmt: last.Stmt, env: Dict[str, Any]) -> None:
        self._tick()
        if isinstance(stmt, last.Skip):
            return
        if isinstance(stmt, last.Assign):
            env[stmt.name] = self.eval(stmt.expr, env)
            return
        if isinstance(stmt, last.IndexAssign):
            self._index_assign(stmt, env)
            return
        if isinstance(stmt, last.Seq):
            self.exec(stmt.first, env)
            self.exec(stmt.second, env)
            return
        if isinstance(stmt, last.If):
            self._exec_if(stmt, env)
            return
        if isinstance(stmt, last.Observe):
            self._exec_observe(stmt, env)
            return
        if isinstance(stmt, last.For):
            self._exec_for(stmt, env)
            return
        if isinstance(stmt, last.While):
            self._exec_while(stmt, env)
            return
        if isinstance(stmt, last.Return):
            if self.branch_depth:
                raise AnalysisFailure(
                    "lang return under a data-dependent branch"
                )
            raise _LangReturn(self.eval(stmt.expr, env))
        if isinstance(stmt, last.FuncDef):
            if stmt.name in self.functions:
                raise AnalysisFailure(f"lang function {stmt.name!r} redefined")
            self.functions[stmt.name] = stmt
            return
        raise AnalysisFailure(f"unknown lang statement {stmt!r}")

    def _index_assign(self, stmt: last.IndexAssign, env: Dict[str, Any]) -> None:
        if stmt.name not in env:
            raise AnalysisFailure(f"unbound lang variable {stmt.name!r}")
        array = _as_array(env[stmt.name])
        if array is None:
            raise AnalysisFailure(
                f"index-assigning a non-array lang variable {stmt.name!r}"
            )
        index = self.eval(stmt.index, env)
        value = self.eval(stmt.expr, env)
        if isinstance(value, _Array):
            raise AnalysisFailure("nested lang arrays are unsupported")
        ok, concrete = const_value(index)
        if ok:
            i = int(concrete)
            if not 0 <= i < len(array.items):
                raise AnalysisFailure(
                    f"lang index {i} out of bounds for array of size "
                    f"{len(array.items)}"
                )
            items = list(array.items)
            items[i] = value
            env[stmt.name] = _Array(tuple(items))
            return
        if is_tainted(index):
            self.profile.note_column_hazard("index-assignment by a sampled value")
        members = possible_values(index)
        if members is None:
            raise AnalysisFailure(
                f"index-assignment into {stmt.name!r} with an unbounded index"
            )
        # Weak update: every possibly-written slot joins old and new.
        indices = {int(member) for member in members if 0 <= int(member) < len(array.items)}
        items = [
            join(item, value, tainted=True, extra_deps=deps_of(index))
            if position in indices
            else item
            for position, item in enumerate(array.items)
        ]
        env[stmt.name] = _Array(tuple(items))

    def _exec_observe(self, stmt: last.Observe, env: Dict[str, Any]) -> None:
        dist_class, supports, param_deps = self._dist_facts(stmt.random, env)
        self.eval(stmt.value, env)
        address = choice_address(stmt.random.label, tuple(self.loop_indices))
        self.profile.record(
            address,
            dist_class,
            supports,
            observed=True,
            always=not self.ctrl,
            param_deps=param_deps,
            control_deps=self._control_deps(),
        )

    def _exec_if(self, stmt: last.If, env: Dict[str, Any]) -> None:
        cond = self.eval(stmt.cond, env)
        ok, truthy = self._truthiness(cond)
        if ok:
            self.exec(stmt.then if truthy else stmt.otherwise, env)
            return
        tainted = is_tainted(cond)
        deps = deps_of(cond)
        if tainted:
            self.profile.record_control("if", 0, deps)
        self.ctrl.append((tainted, deps))
        self.branch_depth += 1
        try:
            then_env = dict(env)
            else_env = dict(env)
            self.exec(stmt.then, then_env)
            self.exec(stmt.otherwise, else_env)
        finally:
            self.branch_depth -= 1
            self.ctrl.pop()
        for name in set(then_env) | set(else_env):
            left = then_env.get(name)
            right = else_env.get(name)
            if left is right:
                if left is not None:
                    env[name] = left
                continue
            if left is None or right is None:
                present = left if right is None else right
                env[name] = Unknown(
                    tainted or _tainted(present), deps | _deps(present)
                )
                continue
            left_array = _as_array(left) if isinstance(left, _Array) else None
            right_array = _as_array(right) if isinstance(right, _Array) else None
            if isinstance(left, _Array) or isinstance(right, _Array):
                left_array = _as_array(left)
                right_array = _as_array(right)
                if (
                    left_array is None
                    or right_array is None
                    or len(left_array.items) != len(right_array.items)
                ):
                    raise AnalysisFailure(
                        f"lang array {name!r} diverges structurally across a "
                        "data-dependent branch"
                    )
                env[name] = _Array(
                    tuple(
                        join(a, b, tainted=tainted, extra_deps=deps)
                        for a, b in zip(left_array.items, right_array.items)
                    )
                )
                continue
            env[name] = join(left, right, tainted=tainted, extra_deps=deps)

    def _exec_for(self, stmt: last.For, env: Dict[str, Any]) -> None:
        ok_low, low = const_value(self.eval(stmt.low, env))
        ok_high, high = const_value(self.eval(stmt.high, env))
        if not ok_low or not ok_high:
            iterable_deps = _EMPTY
            for bound in (stmt.low, stmt.high):
                value = self.eval(bound, env)
                iterable_deps = iterable_deps | deps_of(value)
                if is_tainted(value):
                    self.profile.record_control("for", 0, deps_of(value))
            raise AnalysisFailure(
                "lang for-loop bounds are not compile-time constants"
            )
        for i in range(int(low), int(high)):
            self._tick()
            env[stmt.var] = Const(i)
            self.loop_indices.append(i)
            try:
                self.exec(stmt.body, env)
            finally:
                self.loop_indices.pop()

    def _exec_while(self, stmt: last.While, env: Dict[str, Any]) -> None:
        iteration = 0
        while True:
            self._tick()
            self.loop_indices.append(iteration)
            try:
                cond = self.eval(stmt.cond, env)
                ok, truthy = self._truthiness(cond)
                if not ok:
                    if is_tainted(cond):
                        self.profile.record_control("while", 0, deps_of(cond))
                    raise AnalysisFailure(
                        "lang while condition is not statically decidable "
                        "(value-dependent loop bound)"
                    )
                if not truthy:
                    return
                self.exec(stmt.body, env)
            finally:
                self.loop_indices.pop()
            iteration += 1


def analyze_lang_model(model: Model, profile: StaticProfile) -> StaticProfile:
    """Statically profile a lang model (called from
    :func:`repro.analysis.absint.analyze_model`)."""
    try:
        _LangAbstractInterpreter(model, profile).run()
        if not profile.failure:
            profile.complete = True
    except AnalysisFailure as error:
        profile.fail(str(error))
    except RecursionError:  # pragma: no cover - pathological nesting
        profile.fail("recursion limit exceeded during lang analysis")
    return profile
