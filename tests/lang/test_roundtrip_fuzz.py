"""Fuzzed pretty-print/parse round-trip over randomly generated ASTs.

Classic compiler testing: generate arbitrary well-formed ASTs, render
them to concrete syntax, re-parse, and require structural equality
modulo labels.  Catches precedence/parenthesization bugs the fixed
program suite can't.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.lang import (
    ArrayExpr,
    Assign,
    Binary,
    Call,
    Const,
    FlipExpr,
    For,
    FuncDef,
    GaussExpr,
    If,
    Index,
    IndexAssign,
    Observe,
    Return,
    Skip,
    Ternary,
    Unary,
    UniformExpr,
    Var,
    While,
    equal_modulo_labels,
    parse_expr,
    parse_program,
    pretty,
    pretty_expr,
    seq,
)

# Parse-closed constants: non-negative ints and simple quarter decimals
# (negative literals parse as unary minus; exponents don't lex).
constants = st.one_of(
    st.integers(0, 999).map(Const),
    st.integers(0, 400).map(lambda k: Const(k / 4)).filter(
        lambda c: not float(c.value).is_integer()
    ),
)

names = st.sampled_from(["x", "y", "z", "total", "acc"])
variables = names.map(Var)
binary_ops = st.sampled_from(["+", "-", "*", "/", "==", "!=", "<", "<=", ">", ">=", "&&", "||"])
unary_ops = st.sampled_from(["-", "!"])

_label_counter = [0]


def _fresh_label(kind: str) -> str:
    _label_counter[0] += 1
    return f"{kind}:{_label_counter[0]}"


def _expr_strategy(leaf_constants=constants):
    base = st.one_of(leaf_constants, variables)

    def extend(children):
        return st.one_of(
            st.tuples(unary_ops, children).map(lambda t: Unary(*t)),
            st.tuples(binary_ops, children, children).map(lambda t: Binary(*t)),
            st.tuples(children, children, children).map(lambda t: Ternary(*t)),
            st.tuples(variables, children).map(lambda t: Index(*t)),
            st.tuples(children, children).map(lambda t: ArrayExpr(*t)),
            children.map(lambda p: FlipExpr(_fresh_label("flip"), p)),
            st.tuples(children, children).map(
                lambda t: UniformExpr(_fresh_label("uniform"), *t)
            ),
            st.tuples(children, children).map(
                lambda t: GaussExpr(_fresh_label("gauss"), *t)
            ),
            st.tuples(names, st.lists(children, max_size=3)).map(
                lambda t: Call(_fresh_label("call"), t[0], tuple(t[1]))
            ),
        )

    return st.recursive(base, extend, max_leaves=20)


def _random_strategy(expressions):
    return st.one_of(
        expressions.map(lambda p: FlipExpr(_fresh_label("flip"), p)),
        st.tuples(expressions, expressions).map(
            lambda t: UniformExpr(_fresh_label("uniform"), *t)
        ),
        st.tuples(expressions, expressions).map(
            lambda t: GaussExpr(_fresh_label("gauss"), *t)
        ),
    )


def _stmt_strategy(expressions, random_expressions):
    base = st.one_of(
        st.just(Skip()),
        st.tuples(names, expressions).map(lambda t: Assign(*t)),
        st.tuples(names, expressions, expressions).map(lambda t: IndexAssign(*t)),
        st.tuples(random_expressions, expressions).map(lambda t: Observe(*t)),
        expressions.map(Return),
    )

    def extend(children):
        blocks = st.lists(children, min_size=1, max_size=3).map(lambda s: seq(*s))
        return st.one_of(
            st.tuples(expressions, blocks, blocks).map(lambda t: If(*t)),
            st.tuples(expressions, blocks).map(lambda t: If(t[0], t[1], Skip())),
            st.tuples(names, expressions, expressions, blocks).map(
                lambda t: For(*t)
            ),
            st.tuples(expressions, blocks).map(lambda t: While(*t)),
            st.tuples(
                names, st.lists(st.sampled_from(["a", "b"]), max_size=2, unique=True), blocks
            ).map(lambda t: FuncDef(t[0], tuple(t[1]), t[2])),
        )

    return st.recursive(base, extend, max_leaves=12)


def program_strategy(leaf_constants=constants):
    """Whole programs whose expressions take leaves from ``leaf_constants``."""
    expressions = _expr_strategy(leaf_constants)
    statements = _stmt_strategy(expressions, _random_strategy(expressions))
    return st.lists(statements, min_size=1, max_size=6).map(lambda s: seq(*s))


expressions = _expr_strategy()
programs = program_strategy()


class TestExpressionRoundTrip:
    @given(expressions)
    @settings(max_examples=300, deadline=None)
    def test_pretty_parse_round_trip(self, expr):
        printed = pretty_expr(expr)
        reparsed = parse_expr(printed)
        assert equal_modulo_labels(reparsed, expr), printed

    @given(expressions)
    @settings(max_examples=100, deadline=None)
    def test_pretty_is_stable(self, expr):
        printed = pretty_expr(expr)
        assert pretty_expr(parse_expr(printed)) == printed


class TestProgramRoundTrip:
    @given(programs)
    @settings(max_examples=200, deadline=None)
    def test_pretty_parse_round_trip(self, program):
        printed = pretty(program)
        reparsed = parse_program(printed)
        assert equal_modulo_labels(reparsed, program), printed

    @given(programs)
    @settings(max_examples=50, deadline=None)
    def test_pretty_is_idempotent(self, program):
        printed = pretty(program)
        assert pretty(parse_program(printed)) == printed
