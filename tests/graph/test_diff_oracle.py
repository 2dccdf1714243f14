"""The keyed label diff against the strip-based reference it replaced.

:mod:`repro.graph.diff` compares interned label-free keys and trims the
common statement prefix before its LCS table; ``reference_diff`` is the
implementation that built label-free copies at every comparison.  On
generated program pairs, and on pinned pairs that probe the edges
(repeated statements, numerically equal constants, NaN constants, a
served fig8 session, a long observe chain), the label maps, the LCS
pairs, ``equal_modulo_labels`` and ``invalidation_sets`` must be
identical to the reference's.
"""

import dataclasses
import random
from unittest import mock

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import repro.graph.diff as diff_module
from repro.analysis.edits import invalidation_sets
from repro.graph import align_labels, flatten_seq, lcs_pairs
from repro.lang import (
    Assign,
    Const,
    FlipExpr,
    GaussExpr,
    Node,
    Observe,
    Return,
    Var,
    equal_modulo_labels,
    parse_program,
    pretty,
    seq,
    walk,
)
from repro.service.loadgen import WORKLOADS
from repro.service.state import insert_observation
from tests.graph import reference_diff as reference
from tests.lang.test_roundtrip_fuzz import program_strategy


def assert_matches_reference(old, new):
    mapping = align_labels(old, new)
    assert list(mapping.items()) == list(reference.align_labels(old, new).items())

    old_statements, new_statements = flatten_seq(old), flatten_seq(new)
    assert lcs_pairs(old_statements, new_statements) == reference.lcs_pairs(
        old_statements, new_statements
    )
    assert equal_modulo_labels(old, new) == reference.equal_modulo_labels(old, new)
    if len(old_statements) * len(new_statements) <= 400:
        statement_pairs = [(a, b) for a in old_statements for b in new_statements]
    else:
        statement_pairs = list(zip(old_statements, new_statements))
    for a, b in statement_pairs:
        assert equal_modulo_labels(a, b) == reference.equal_modulo_labels(a, b)

    analysis = invalidation_sets(old, new)
    with mock.patch.object(diff_module, "lcs_pairs", reference.lcs_pairs):
        assert analysis == invalidation_sets(old, new)


# -- pinned pairs -------------------------------------------------------------

def _flip_program(*probabilities):
    """``x = flip(p)`` per probability, then ``return x``, labels ``f0..``."""
    statements = [
        Assign("x", FlipExpr(f"f{index}", Const(p)))
        for index, p in enumerate(probabilities)
    ]
    return seq(*statements, Return(Var("x")))


def _fig8_session_pairs():
    base, ops = WORKLOADS["fig8-session"](0, 12, random.Random(3))
    programs = [parse_program(base)] + [parse_program(source) for _, source in ops]
    return list(zip(programs, programs[1:]))


def gauss_chain_observe_pair(observations):
    """The ``gauss-chain`` load script's program after ``observations``
    observes, and after one more."""
    base, ops = WORKLOADS["gauss-chain"](0, observations + 1, random.Random(3))
    sources = [base]
    for _, statement in ops:
        sources.append(insert_observation(sources[-1], statement))
    return parse_program(sources[-2]), parse_program(sources[-1])


def _shared_statement_pairs():
    """Programs that share statement objects, within and across trees:
    the diff must list a shared subtree's labels at every place it occurs."""
    first = Assign("x", FlipExpr("s0", Const(0.5)))
    second = Assign("y", FlipExpr("s1", Var("x")))
    end = Return(Var("x"))
    return [
        (seq(first, second, end), seq(first, second, end)),
        (seq(first, first, end), seq(first, first, end)),
        (seq(first, second, end), seq(second, first, second, end)),
    ]


_NAN = float("nan")

PINNED_PAIRS = [
    # Repeated statements: the LCS keeps the earliest match (a suffix
    # trim would pick the later copy).
    (parse_program("x = flip(0.5);"), parse_program("x = flip(0.5); x = flip(0.5);")),
    (parse_program("x = flip(0.5); x = flip(0.5);"), parse_program("x = flip(0.5);")),
    (
        parse_program("x = flip(0.5);"),
        parse_program("y = flip(0.2); x = flip(0.5); x = flip(0.5);"),
    ),
    # Numerically equal constants are equal modulo labels.
    (_flip_program(1, 0.5), _flip_program(1.0, 0.5)),
    (_flip_program(0.0, 0.5), _flip_program(-0.0, 0.5)),
    # Two NaN objects differ; one NaN object shared by both sides does not.
    (_flip_program(float("nan"), 0.5), _flip_program(float("nan"), 0.5)),
    (_flip_program(_NAN, 0.5), _flip_program(_NAN, 0.5)),
    *_shared_statement_pairs(),
    *_fig8_session_pairs(),
    gauss_chain_observe_pair(150),
]


def pinned(test):
    for pair in PINNED_PAIRS:
        test = example(pair=pair)(test)
    return test


# -- generated pairs ----------------------------------------------------------

_observe_labels = iter(range(10**9))


def _fresh_observe(value):
    return Observe(
        GaussExpr(f"oracle-gauss:{next(_observe_labels)}", Var("x"), Const(1.0)),
        Const(value),
    )


def _replace_constant(node, target, value, counter):
    """``node`` with its ``target``-th constant (pre-order) set to ``value``."""
    if isinstance(node, Const):
        counter[0] += 1
        return Const(value) if counter[0] - 1 == target else node
    updates = {}
    for field_info in dataclasses.fields(node):
        child = getattr(node, field_info.name)
        if isinstance(child, Node):
            updates[field_info.name] = _replace_constant(child, target, value, counter)
        elif isinstance(child, tuple):
            updates[field_info.name] = tuple(
                _replace_constant(item, target, value, counter)
                if isinstance(item, Node) else item
                for item in child
            )
    return dataclasses.replace(node, **updates) if updates else node


def _count_constants(node):
    return sum(isinstance(n, Const) for n in walk(node))


#: A small constant pool, so edits often leave statements equal modulo
#: labels (and ``1``/``1.0``, ``0.0``/``-0.0`` meet each other).
constants = st.sampled_from([0, 1, 1.0, 0.0, -0.0, 0.5, 2.5]).map(Const)
programs = program_strategy(constants)


@st.composite
def program_pairs(draw):
    """A generated program and one generated edit of it.

    Deleting a program's only statement, or changing a constant of a
    statement that has none, appends an observe instead.
    """
    old = draw(programs)
    statements = flatten_seq(old)
    kind = draw(st.sampled_from(["insert", "delete", "replace", "constant", "observe"]))
    position = draw(st.integers(0, len(statements) - 1))
    if kind == "insert":
        statements.insert(position, flatten_seq(draw(programs))[0])
    elif kind == "delete" and len(statements) > 1:
        del statements[position]
    elif kind == "replace":
        statements[position] = flatten_seq(draw(programs))[0]
    elif kind == "constant" and _count_constants(statements[position]):
        target = draw(st.integers(0, _count_constants(statements[position]) - 1))
        value = draw(constants).value
        statements[position] = _replace_constant(
            statements[position], target, value, [0]
        )
    else:
        returns = [i for i, s in enumerate(statements) if isinstance(s, Return)]
        at = returns[-1] if returns else len(statements)
        statements.insert(at, _fresh_observe(draw(constants).value))
    new = seq(*statements)
    if draw(st.booleans()):
        # Through concrete syntax: fresh node objects, positional labels.
        old, new = parse_program(pretty(old)), parse_program(pretty(new))
    return old, new


class TestKeyedDiffMatchesReference:
    @pinned
    @settings(
        max_examples=100,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
    )
    @given(pair=program_pairs())
    def test_label_maps_lcs_and_invalidation_sets(self, pair):
        old, new = pair
        assert_matches_reference(old, new)

    def test_repeated_statement_maps_the_first_copy(self):
        old, new = PINNED_PAIRS[0]
        assert align_labels(old, new) == {"flip:1:5": "flip:1:5"}
        old, new = PINNED_PAIRS[2]
        assert align_labels(old, new) == {"flip:1:20": "flip:1:5"}

    def test_constant_equality_follows_python_equality(self):
        assert equal_modulo_labels(Const(1), Const(1.0))
        assert equal_modulo_labels(Const(0.0), Const(-0.0))
        assert not equal_modulo_labels(Const(float("nan")), Const(float("nan")))
        assert equal_modulo_labels(Const(_NAN), Const(_NAN))
        assert not equal_modulo_labels(Const(1), Var("x"))
