"""Static analyses over the language AST.

Used by the edit/diff machinery (Section 6) and by tests:

* :func:`random_expressions` — collect every random expression with its
  label (the syntactic random choices ``F_P`` of a program);
* :func:`free_variables` / :func:`assigned_variables`;
* :func:`is_pure` — whether an expression contains no random
  expression and no call;
* :func:`equal_modulo_labels` — structural AST equality ignoring
  random-expression labels (labels encode source positions, so
  pretty-print round-trips change them); :func:`strip_labels` gives the
  label-free copy it compares, for callers comparing one node many times;
* :func:`relabel` — canonical relabeling for comparing programs.
"""

from __future__ import annotations

from dataclasses import fields, is_dataclass, replace
from typing import Dict, Iterator, List, Set

from .ast import (
    Assign,
    Call,
    Expr,
    For,
    FuncDef,
    IndexAssign,
    Node,
    Observe,
    RandomExpr,
    Var,
)

__all__ = [
    "children",
    "walk",
    "random_expressions",
    "is_pure",
    "free_variables",
    "assigned_variables",
    "equal_modulo_labels",
    "strip_labels",
    "relabel",
]


def children(node: Node) -> List[Node]:
    """Direct AST children of ``node``, in field order.

    Tuple-valued fields (e.g. ``Call.args``) are flattened.
    """
    result: List[Node] = []
    for field_info in fields(node):
        value = getattr(node, field_info.name)
        if isinstance(value, Node):
            result.append(value)
        elif isinstance(value, tuple):
            result.extend(item for item in value if isinstance(item, Node))
    return result


def walk(node: Node) -> Iterator[Node]:
    """Pre-order traversal of the AST rooted at ``node``."""
    yield node
    for child in children(node):
        yield from walk(child)


def random_expressions(node: Node) -> List[RandomExpr]:
    """All random expressions in the program, in pre-order."""
    return [n for n in walk(node) if isinstance(n, RandomExpr)]


def is_pure(node: Node) -> bool:
    """True when ``node`` contains no random expression and no call:
    evaluating it draws nothing and runs no user code."""
    return not any(isinstance(n, (RandomExpr, Call)) for n in walk(node))


def random_labels(node: Node) -> List[str]:
    """Labels of all random expressions, in pre-order."""
    return [r.label for r in random_expressions(node)]


def assigned_variables(node: Node) -> Set[str]:
    """Variables assigned anywhere in the program (incl. loop variables)."""
    names: Set[str] = set()
    for n in walk(node):
        if isinstance(n, (Assign, IndexAssign)):
            names.add(n.name)
        elif isinstance(n, For):
            names.add(n.var)
    return names


def free_variables(node: Node) -> Set[str]:
    """Variables read before any assignment in the program.

    Computed by a conservative flow-insensitive pass refined with a
    straight-line prefix analysis: a variable is free if some read of it
    is not dominated by an assignment in the statement sequence.  For
    the language's structured control flow, a simple recursive
    definition suffices.
    """
    free: Set[str] = set()
    _free_stmt(node, set(), free)
    return free


def _free_expr(expr: Expr, bound: Set[str], free: Set[str]) -> None:
    for node in walk(expr):
        if isinstance(node, Var) and node.name not in bound:
            free.add(node.name)


def _free_stmt(stmt: Node, bound: Set[str], free: Set[str]) -> Set[str]:
    """Returns the set of variables definitely assigned by ``stmt``."""
    from .ast import If, Observe, Return, Seq, Skip, While

    if isinstance(stmt, Skip):
        return set()
    if isinstance(stmt, Assign):
        _free_expr(stmt.expr, bound, free)
        return {stmt.name}
    if isinstance(stmt, IndexAssign):
        if stmt.name not in bound:
            free.add(stmt.name)
        _free_expr(stmt.index, bound, free)
        _free_expr(stmt.expr, bound, free)
        return set()
    if isinstance(stmt, Seq):
        first_assigned = _free_stmt(stmt.first, bound, free)
        second_assigned = _free_stmt(stmt.second, bound | first_assigned, free)
        return first_assigned | second_assigned
    if isinstance(stmt, If):
        _free_expr(stmt.cond, bound, free)
        then_assigned = _free_stmt(stmt.then, set(bound), free)
        else_assigned = _free_stmt(stmt.otherwise, set(bound), free)
        return then_assigned & else_assigned
    if isinstance(stmt, Observe):
        _free_expr(stmt.random, bound, free)
        _free_expr(stmt.value, bound, free)
        return set()
    if isinstance(stmt, For):
        _free_expr(stmt.low, bound, free)
        _free_expr(stmt.high, bound, free)
        _free_stmt(stmt.body, bound | {stmt.var}, free)
        return set()
    if isinstance(stmt, While):
        _free_expr(stmt.cond, bound, free)
        _free_stmt(stmt.body, set(bound), free)
        return set()
    if isinstance(stmt, Return):
        _free_expr(stmt.expr, bound, free)
        return set()
    if isinstance(stmt, FuncDef):
        # The body runs in its own scope: only parameters are bound,
        # program variables are not visible.
        _free_stmt(stmt.body, set(stmt.params), free)
        return set()
    raise ValueError(f"unknown statement {stmt!r}")


def strip_labels(node: Node) -> Node:
    """A copy of the AST with every position-derived label blanked
    (random expressions and call sites)."""
    if not is_dataclass(node):
        return node
    updates: Dict[str, object] = {}
    for field_info in fields(node):
        value = getattr(node, field_info.name)
        if isinstance(value, Node):
            updates[field_info.name] = strip_labels(value)
        elif isinstance(value, tuple) and any(isinstance(item, Node) for item in value):
            updates[field_info.name] = tuple(
                strip_labels(item) if isinstance(item, Node) else item
                for item in value
            )
    if isinstance(node, (RandomExpr, Call)):
        updates["label"] = ""
    return replace(node, **updates) if updates else node


def equal_modulo_labels(a: Node, b: Node) -> bool:
    """Structural equality ignoring random-expression labels."""
    return strip_labels(a) == strip_labels(b)


def relabel(node: Node, prefix: str = "r") -> Node:
    """Relabel random expressions as ``prefix0, prefix1, ...`` in pre-order.

    Canonical labels make programs built by different means (parsing vs
    direct construction) comparable and keep addresses stable across
    pretty-print round-trips.
    """
    counter = [0]

    def rewrite(n: Node) -> Node:
        if not is_dataclass(n):
            return n
        updates: Dict[str, object] = {}
        if isinstance(n, (RandomExpr, Call)):
            updates["label"] = f"{prefix}{counter[0]}"
            counter[0] += 1
        for field_info in fields(n):
            value = getattr(n, field_info.name)
            if isinstance(value, Node):
                updates[field_info.name] = rewrite(value)
            elif isinstance(value, tuple) and any(isinstance(item, Node) for item in value):
                updates[field_info.name] = tuple(
                    rewrite(item) if isinstance(item, Node) else item for item in value
                )
        return replace(n, **updates) if updates else n

    return rewrite(node)
