"""Big-step interpreter for the paper's language.

The interpreter executes a program under a
:class:`~repro.core.handlers.TraceHandler`, so every capability of the
embedded runtime — simulation, scoring, constrained generation,
enumeration, MCMC, and trace translation — applies unchanged to
structured-language programs.  :func:`lang_model` wraps a program as a
:class:`~repro.core.model.Model`.

A program is compiled once (:func:`compile_program`) into nested Python
closures, one per AST node: the node kind is dispatched at compile time
and its constants and children are bound into the closure, so a run
performs no per-node type tests.  A lang model compiles on its first
run and keeps the compiled form for every later run — the forward and
backward kernels of trace translation run the same program once per
particle.  The small-step machine (:mod:`repro.lang.smallstep`) is the
reference semantics the tests check the compiled form against.

Random choices are addressed by ``(label, *loop_indices)``: the random
expression's syntactic label plus the values of the enclosing loop
variables (for ``for`` loops) or iteration counters (for ``while``
loops), the naming scheme of Section 5.4 / [44].

Columns of particles
--------------------

The columnar SMC runtime (:mod:`repro.core.columnar`) runs a program
once for a whole population: its handler returns a numpy column (one
entry per particle) for each random choice.  Pure expressions compute
on such columns elementwise, with the scalar semantics in every lane:
arithmetic, comparisons, ``!``, ``&&``/``||`` with a pure right operand
(int columns of 1s and 0s), ``/`` (which checks every lane for zero),
the parameters of ``gauss``/``flip`` and their range checks, and a
ternary whose branches are pure, which becomes an elementwise select.
Purity (no random expression and no call) is decided at compile time.
Everything else keeps its scalar closure and fails on a column — an
``if``/``while``/``for`` on a sampled value, a ternary or ``&&``/``||``
whose operand draws or calls — and the runtime runs that step per
particle instead.  Scalar runs take exactly the paths they always did.
"""

from __future__ import annotations

import operator
from typing import Any, Callable, Dict, List, Optional, Tuple, Union

import numpy as np

from ..core.handlers import TraceHandler
from ..core.model import Model
from ..core.trace import Trace
from ..errors import ModelExecutionError
from ..distributions import Distribution, Flip, Normal, UniformDiscrete
from ..observability import NULL_METRICS, NULL_TRACER, MetricsRegistry, Tracer
from .analysis import is_pure
from .ast import (
    ArrayExpr,
    Assign,
    Binary,
    Call,
    Const,
    Expr,
    FlipExpr,
    For,
    FuncDef,
    GaussExpr,
    If,
    Index,
    IndexAssign,
    Observe,
    RandomExpr,
    Return,
    Seq,
    Skip,
    Stmt,
    Ternary,
    Unary,
    UniformExpr,
    Var,
    While,
)

__all__ = [
    "interpret",
    "compile_program",
    "CompiledProgram",
    "lang_model",
    "EvalError",
    "choice_address",
    "distribution_of",
]


class EvalError(ModelExecutionError, RuntimeError):
    """Raised on runtime errors: unbound variables, bad indices, etc.

    Part of the :mod:`repro.errors` taxonomy (a model-execution failure),
    with ``RuntimeError`` kept as a base for pre-existing handlers.
    """


class _ReturnSignal(Exception):
    def __init__(self, value: Any):
        super().__init__("return")
        self.value = value


def choice_address(label: str, loop_indices: Tuple[int, ...]) -> Tuple:
    """The run-time address of a random choice (Section 5.4)."""
    return (label,) + tuple(loop_indices)


#: Guard against runaway recursion through user-defined functions.  Kept
#: well below Python's own frame limit (each language-level call expands
#: to several closure frames) so the error is a clean ``EvalError``.
MAX_CALL_DEPTH = 100


class _Run:
    """Mutable state of one program run, shared by its compiled closures.

    The environment is not kept here: every compiled closure takes the
    current scope's environment as its second argument, so a function
    call simply passes the callee a fresh scope.
    """

    __slots__ = ("handler", "loop_indices", "functions", "call_depth", "samples", "observes")

    def __init__(self, handler: TraceHandler):
        self.handler = handler
        #: Address context: loop indices (ints) interleaved with call-site
        #: labels (strings), in execution order (Section 5.4 / [44]).
        self.loop_indices: List[Any] = []
        #: name -> (parameters, compiled body), bound as ``def`` runs.
        self.functions: Dict[str, Tuple[Tuple[str, ...], "Code"]] = {}
        self.call_depth = 0
        #: Instrumentation tallies (two integer increments per choice).
        self.samples = 0
        self.observes = 0


#: A compiled expression or statement: called with the run state and the
#: current scope's environment; expressions return their value.
Code = Callable[[_Run, Dict[str, Any]], Any]


class CompiledProgram:
    """A program compiled once into nested closures (:func:`compile_program`)."""

    __slots__ = ("code",)

    def __init__(self, code: Code):
        self.code = code


def compile_program(program: Stmt) -> CompiledProgram:
    """Compile ``program`` into closures, one per AST node.

    Each node's kind is dispatched here, once; its constants and child
    closures are bound into the closure that runs it, so executing the
    result performs no per-node type tests.  Errors a node raises at run
    time (unbound variables, bad indices, unknown nodes) stay run-time
    errors: compiling never raises and never evaluates anything.
    """
    return CompiledProgram(_compile_stmt(program))


# -- expressions ----------------------------------------------------------------


def _compile_expr(expr: Expr) -> Code:
    if isinstance(expr, Const):
        value = expr.value
        return lambda run, env: value
    if isinstance(expr, Var):
        name = expr.name

        def variable(run: _Run, env: Dict[str, Any]) -> Any:
            try:
                return env[name]
            except KeyError:
                raise EvalError(f"unbound variable {name!r}") from None

        return variable
    if isinstance(expr, Unary):
        return _compile_unary(expr.op, _compile_expr(expr.operand))
    if isinstance(expr, Binary):
        return _compile_binary(
            expr.op,
            _compile_expr(expr.left),
            _compile_expr(expr.right),
            expr.op in ("&&", "||") and is_pure(expr.right),
        )
    if isinstance(expr, Ternary):
        cond = _compile_expr(expr.cond)
        then = _compile_expr(expr.then)
        otherwise = _compile_expr(expr.otherwise)
        if not (is_pure(expr.then) and is_pure(expr.otherwise)):
            return lambda run, env: (
                then(run, env) if cond(run, env) != 0 else otherwise(run, env)
            )

        def select(run: _Run, env: Dict[str, Any]) -> Any:
            test = cond(run, env)
            if isinstance(test, np.ndarray):
                # Pure branches run for every particle; each lane keeps
                # the branch its own condition picks.
                return _select(test, then(run, env), otherwise(run, env))
            return then(run, env) if test != 0 else otherwise(run, env)

        return select
    if isinstance(expr, Index):
        return _compile_index(_compile_expr(expr.array), _compile_expr(expr.index))
    if isinstance(expr, ArrayExpr):
        size_code = _compile_expr(expr.size)
        fill_code = _compile_expr(expr.fill)

        def array(run: _Run, env: Dict[str, Any]) -> Any:
            size = int(size_code(run, env))
            if size < 0:
                raise EvalError(f"negative array size {size}")
            return [fill_code(run, env)] * size

        return array
    if isinstance(expr, RandomExpr):
        build = _compile_distribution(expr)
        label = expr.label

        def sample(run: _Run, env: Dict[str, Any]) -> Any:
            dist = build(run, env)
            run.samples += 1
            return run.handler.sample(dist, (label, *run.loop_indices))

        return sample
    if isinstance(expr, Call):
        return _compile_call(expr)
    return _raising(f"unknown expression {expr!r}")


def _raising(message: str) -> Code:
    """A closure that fails the run when (and only if) it executes."""

    def fail(run: _Run, env: Dict[str, Any]) -> Any:
        raise EvalError(message)

    return fail


def _as_int(test: Any) -> Any:
    """A test's outcome as lang's 1 or 0 (an int column for a column)."""
    if isinstance(test, np.ndarray):
        return test.astype(np.int64)
    return 1 if test else 0


def _lane_kind(value: Any) -> Optional[str]:
    """``"int"`` or ``"float"``: the Python type every lane of ``value``
    has on the scalar path (``None`` for non-numbers)."""
    if isinstance(value, np.ndarray):
        kind = value.dtype.kind
        return "float" if kind == "f" else "int" if kind in "biu" else None
    if isinstance(value, (float, np.floating)):
        return "float"
    if isinstance(value, (int, np.integer)):
        return "int"
    return None


def _select(test: np.ndarray, then: Any, otherwise: Any) -> np.ndarray:
    """Elementwise ``test ? then : otherwise``.

    One column holds one kind, so branches of different kinds (an int
    and a float, which the scalar path would keep apart per particle)
    or non-numeric branches raise instead of being coerced.
    """
    then_kind, otherwise_kind = _lane_kind(then), _lane_kind(otherwise)
    if then_kind is None or then_kind != otherwise_kind:
        raise TypeError(
            f"a ternary over a column of particles needs numeric branches "
            f"of one kind, got {then_kind or type(then).__name__} and "
            f"{otherwise_kind or type(otherwise).__name__}"
        )
    return np.where(test != 0, then, otherwise)


def _compile_unary(op: str, operand: Code) -> Code:
    if op == "-":
        return lambda run, env: -operand(run, env)
    if op == "!":

        def negate(run: _Run, env: Dict[str, Any]) -> Any:
            test = operand(run, env) != 0
            if isinstance(test, np.ndarray):
                return (~test).astype(np.int64)
            return 0 if test else 1

        return negate

    def unknown(run: _Run, env: Dict[str, Any]) -> Any:
        operand(run, env)
        raise EvalError(f"unknown unary operator {op!r}")

    return unknown


#: Arithmetic and comparison operators; comparisons yield 1 or 0.
_ARITHMETIC = {"+": operator.add, "-": operator.sub, "*": operator.mul}
_COMPARISONS = {
    "==": operator.eq,
    "!=": operator.ne,
    "<": operator.lt,
    "<=": operator.le,
    ">": operator.gt,
    ">=": operator.ge,
}


def _compile_binary(op: str, left: Code, right: Code, pure_right: bool) -> Code:
    # Operands run left to right; ``&&``/``||`` short-circuit, except
    # that a column left operand runs a pure right operand for every
    # particle (an impure one fails on the column's truth value).
    if op == "&&":

        def conjunction(run: _Run, env: Dict[str, Any]) -> Any:
            first = left(run, env) != 0
            if pure_right and isinstance(first, np.ndarray):
                return (first & (right(run, env) != 0)).astype(np.int64)
            return _as_int(right(run, env) != 0) if first else 0

        return conjunction
    if op == "||":

        def disjunction(run: _Run, env: Dict[str, Any]) -> Any:
            first = left(run, env) != 0
            if pure_right and isinstance(first, np.ndarray):
                return (first | (right(run, env) != 0)).astype(np.int64)
            return 1 if first else _as_int(right(run, env) != 0)

        return disjunction
    if op in _ARITHMETIC:
        apply = _ARITHMETIC[op]
        return lambda run, env: apply(left(run, env), right(run, env))
    if op in _COMPARISONS:
        test = _COMPARISONS[op]
        return lambda run, env: _as_int(test(left(run, env), right(run, env)))
    if op == "/":

        def divide(run: _Run, env: Dict[str, Any]) -> Any:
            numerator = left(run, env)
            denominator = right(run, env)
            if isinstance(denominator, np.ndarray):
                if (denominator == 0).any():
                    raise EvalError("division by zero")
            elif denominator == 0:
                raise EvalError("division by zero")
            return numerator / denominator

        return divide

    def unknown(run: _Run, env: Dict[str, Any]) -> Any:
        left(run, env)
        right(run, env)
        raise EvalError(f"unknown binary operator {op!r}")

    return unknown


def _compile_index(array_code: Code, index_code: Code) -> Code:
    def index(run: _Run, env: Dict[str, Any]) -> Any:
        array = array_code(run, env)
        position = index_code(run, env)
        if not isinstance(array, list):
            raise EvalError(f"indexing a non-array value {array!r}")
        i = int(position)
        if not 0 <= i < len(array):
            raise EvalError(f"index {i} out of bounds for array of size {len(array)}")
        return array[i]

    return index


def _compile_distribution(expr: RandomExpr) -> Code:
    """A closure building the primitive distribution ``expr`` denotes
    (the compiled form of :func:`distribution_of`)."""
    if isinstance(expr, FlipExpr):
        prob = _compile_expr(expr.prob)
        return lambda run, env: _flip(prob(run, env))
    if isinstance(expr, UniformExpr):
        low = _compile_expr(expr.low)
        high = _compile_expr(expr.high)
        return lambda run, env: _uniform(int(low(run, env)), int(high(run, env)))
    if isinstance(expr, GaussExpr):
        mean = _compile_expr(expr.mean)
        std = _compile_expr(expr.std)
        return lambda run, env: _gauss(_real(mean(run, env)), _real(std(run, env)))
    return _raising(f"unknown random expression {expr!r}")


def _compile_call(expr: Call) -> Code:
    name, label = expr.name, expr.label
    args = tuple(_compile_expr(arg) for arg in expr.args)

    def call(run: _Run, env: Dict[str, Any]) -> Any:
        function = run.functions.get(name)
        if function is None:
            raise EvalError(f"call to undefined function {name!r}")
        params, body = function
        if len(args) != len(params):
            raise EvalError(
                f"function {name!r} takes {len(params)} argument(s), "
                f"got {len(args)}"
            )
        if run.call_depth >= MAX_CALL_DEPTH:
            raise EvalError(
                f"call depth exceeded {MAX_CALL_DEPTH} (runaway recursion "
                f"through {name!r}?)"
            )
        scope = dict(zip(params, [arg(run, env) for arg in args]))
        run.loop_indices.append(label)
        run.call_depth += 1
        try:
            body(run, scope)
        except _ReturnSignal as signal:
            return signal.value
        finally:
            run.loop_indices.pop()
            run.call_depth -= 1
        raise EvalError(f"function {name!r} did not return a value")

    return call


# -- statements -----------------------------------------------------------------


def _skip(run: _Run, env: Dict[str, Any]) -> None:
    return None


def _statements(stmt: Seq) -> List[Stmt]:
    """The statements of a ``Seq`` tree in execution order, minus ``skip``."""
    result: List[Stmt] = []
    pending: List[Stmt] = [stmt]
    while pending:
        node = pending.pop()
        if isinstance(node, Seq):
            pending.append(node.second)
            pending.append(node.first)
        elif not isinstance(node, Skip):
            result.append(node)
    return result


def _compile_stmt(stmt: Stmt) -> Code:
    if isinstance(stmt, Skip):
        return _skip
    if isinstance(stmt, Assign):
        name = stmt.name
        value = _compile_expr(stmt.expr)

        def assign(run: _Run, env: Dict[str, Any]) -> None:
            env[name] = value(run, env)

        return assign
    if isinstance(stmt, IndexAssign):
        return _compile_index_assign(
            stmt.name, _compile_expr(stmt.index), _compile_expr(stmt.expr)
        )
    if isinstance(stmt, Seq):
        return _compile_block([_compile_stmt(s) for s in _statements(stmt)])
    if isinstance(stmt, If):
        cond = _compile_expr(stmt.cond)
        then = _compile_stmt(stmt.then)
        otherwise = _compile_stmt(stmt.otherwise)

        def branch(run: _Run, env: Dict[str, Any]) -> None:
            if cond(run, env) != 0:
                then(run, env)
            else:
                otherwise(run, env)

        return branch
    if isinstance(stmt, Observe):
        return _compile_observe(stmt)
    if isinstance(stmt, For):
        return _compile_for(
            stmt.var, _compile_expr(stmt.low), _compile_expr(stmt.high),
            _compile_stmt(stmt.body),
        )
    if isinstance(stmt, While):
        return _compile_while(_compile_expr(stmt.cond), _compile_stmt(stmt.body))
    if isinstance(stmt, Return):
        value = _compile_expr(stmt.expr)

        def return_(run: _Run, env: Dict[str, Any]) -> None:
            raise _ReturnSignal(value(run, env))

        return return_
    if isinstance(stmt, FuncDef):
        name = stmt.name
        function = (stmt.params, _compile_stmt(stmt.body))

        def define(run: _Run, env: Dict[str, Any]) -> None:
            if name in run.functions:
                raise EvalError(f"function {name!r} is already defined")
            run.functions[name] = function

        return define
    return _raising(f"unknown statement {stmt!r}")


def _compile_block(codes: List[Code]) -> Code:
    if not codes:
        return _skip
    if len(codes) == 1:
        return codes[0]
    block_codes = tuple(codes)

    def block(run: _Run, env: Dict[str, Any]) -> None:
        for code in block_codes:
            code(run, env)

    return block


def _compile_index_assign(name: str, index_code: Code, value_code: Code) -> Code:
    def index_assign(run: _Run, env: Dict[str, Any]) -> None:
        if name not in env:
            raise EvalError(f"unbound variable {name!r}")
        array = env[name]
        if not isinstance(array, list):
            raise EvalError(f"index-assigning a non-array variable {name!r}")
        index = int(index_code(run, env))
        if not 0 <= index < len(array):
            raise EvalError(f"index {index} out of bounds for array of size {len(array)}")
        value = value_code(run, env)
        # Arrays are values: copy-on-write keeps earlier bindings intact.
        updated = list(array)
        updated[index] = value
        env[name] = updated

    return index_assign


def _compile_observe(stmt: Observe) -> Code:
    build = _compile_distribution(stmt.random)
    value_code = _compile_expr(stmt.value)
    # A malformed ``random`` fails in ``build`` before the label is used.
    label = getattr(stmt.random, "label", None)

    def observe(run: _Run, env: Dict[str, Any]) -> None:
        dist = build(run, env)
        value = value_code(run, env)
        run.observes += 1
        run.handler.observe(dist, value, (label, *run.loop_indices))

    return observe


def _compile_for(var: str, low_code: Code, high_code: Code, body: Code) -> Code:
    def loop(run: _Run, env: Dict[str, Any]) -> None:
        low = int(low_code(run, env))
        high = int(high_code(run, env))
        indices = run.loop_indices
        for i in range(low, high):
            env[var] = i
            indices.append(i)
            try:
                body(run, env)
            finally:
                indices.pop()

    return loop


def _compile_while(cond: Code, body: Code) -> Code:
    def loop(run: _Run, env: Dict[str, Any]) -> None:
        # The condition is evaluated inside the iteration's index so
        # that a random condition (the geometric loop of Figure 6) gets
        # a fresh address each round.
        indices = run.loop_indices
        iteration = 0
        while True:
            indices.append(iteration)
            try:
                if not (cond(run, env) != 0):
                    break
                body(run, env)
            finally:
                indices.pop()
            iteration += 1

    return loop


# The parameter checks below take a scalar or a column of particles; a
# column fails with the first offending lane's value.


def _real(value: Any) -> Any:
    """``float(value)``; a column becomes a float64 column."""
    if isinstance(value, np.ndarray):
        return np.asarray(value, dtype=np.float64)
    return float(value)


def _flip(prob: Any) -> Distribution:
    if isinstance(prob, np.ndarray):
        inside = (0.0 <= prob) & (prob <= 1.0)
        if not inside.all():
            raise EvalError(f"flip probability {prob[~inside][0]} outside [0, 1]")
        return Flip(np.asarray(prob, dtype=np.float64))
    if not 0.0 <= prob <= 1.0:
        raise EvalError(f"flip probability {prob} outside [0, 1]")
    return Flip(float(prob))


def _uniform(low: int, high: int) -> Distribution:
    if high < low:
        raise EvalError(f"uniform({low}, {high}) has an empty range")
    return UniformDiscrete(low, high)


def _gauss(mean: Any, std: Any) -> Distribution:
    if isinstance(std, np.ndarray):
        bad = std <= 0
        if bad.any():
            raise EvalError(f"gauss std {std[bad][0]} must be positive")
    elif std <= 0:
        raise EvalError(f"gauss std {std} must be positive")
    return Normal(mean, std)


def distribution_of(expr: RandomExpr, eval_fn) -> Distribution:
    """The primitive distribution denoted by a random expression."""
    if isinstance(expr, FlipExpr):
        return _flip(eval_fn(expr.prob))
    if isinstance(expr, UniformExpr):
        return _uniform(int(eval_fn(expr.low)), int(eval_fn(expr.high)))
    if isinstance(expr, GaussExpr):
        return _gauss(_real(eval_fn(expr.mean)), _real(eval_fn(expr.std)))
    raise EvalError(f"unknown random expression {expr!r}")


def interpret(
    program: Union[Stmt, CompiledProgram],
    handler: TraceHandler,
    env: Optional[Dict[str, Any]] = None,
    *,
    tracer: Tracer = NULL_TRACER,
    metrics: MetricsRegistry = NULL_METRICS,
) -> Any:
    """Execute ``program`` under ``handler``; return its ``return`` value.

    ``program`` is an AST (compiled for this call) or the result of
    :func:`compile_program`, which callers that run one program many
    times compile once.  Programs without an explicit ``return`` return
    the final environment (a dict), which is convenient for tests.  With
    a real ``tracer``, the run is recorded as one ``model.run`` span
    carrying sample and observe counts; ``metrics`` accrues the same
    counts globally.
    """
    compiled = program if isinstance(program, CompiledProgram) else compile_program(program)
    run = _Run(handler)
    scope: Dict[str, Any] = dict(env) if env else {}
    try:
        if tracer.enabled:
            with tracer.span("model.run") as span:
                try:
                    compiled.code(run, scope)
                finally:
                    span.count("choices.sampled", run.samples)
                    span.count("choices.observed", run.observes)
        else:
            compiled.code(run, scope)
    except _ReturnSignal as signal:
        return signal.value
    finally:
        if metrics.enabled:
            metrics.counter("lang.samples").inc(run.samples)
            metrics.counter("lang.observes").inc(run.observes)
    return dict(scope)


class _LangModelFn:
    """Module-level callable wrapping one program interpretation.

    A closure would make every lang model unpicklable and rule out the
    ``process`` particle executor; this class keeps the captured state
    (program AST, initial bindings, observability sinks) in plain
    attributes instead.  The program is compiled on the first run and
    the compiled form is kept here, but never pickled: an unpickled copy
    compiles again on its own first run.
    """

    __slots__ = ("program", "initial", "tracer", "metrics", "compiled")

    def __init__(
        self,
        program: Stmt,
        initial: Dict[str, Any],
        tracer: Tracer,
        metrics: MetricsRegistry,
    ):
        self.program = program
        self.initial = initial
        self.tracer = tracer
        self.metrics = metrics
        self.compiled: Optional[CompiledProgram] = None

    def __call__(self, t: TraceHandler) -> Any:
        compiled = self.compiled
        if compiled is None:
            compiled = self.compiled = compile_program(self.program)
        return interpret(
            compiled, t, self.initial, tracer=self.tracer, metrics=self.metrics
        )

    def __getstate__(self) -> Tuple[Any, ...]:
        return (self.program, self.initial, self.tracer, self.metrics)

    def __setstate__(self, state: Tuple[Any, ...]) -> None:
        self.program, self.initial, self.tracer, self.metrics = state
        self.compiled = None


def lang_model(
    program: Stmt,
    env: Optional[Dict[str, Any]] = None,
    name: Optional[str] = None,
    *,
    tracer: Tracer = NULL_TRACER,
    metrics: MetricsRegistry = NULL_METRICS,
) -> Model:
    """Wrap a structured-language program as an embedded-PPL ``Model``.

    ``env`` provides initial bindings (the program's parameters, like
    ``sigma`` and ``n`` for the GMM of Listing 5).  The observability
    sinks, when given, are threaded into every interpretation the model
    performs.
    """
    initial = dict(env) if env else {}
    return Model(
        _LangModelFn(program, initial, tracer, metrics), name=name or "lang_program"
    )
