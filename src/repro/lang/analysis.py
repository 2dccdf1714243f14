"""Static analyses over the language AST.

Used by the edit/diff machinery (Section 6) and by tests:

* :func:`random_expressions` — collect every random expression with its
  label (the syntactic random choices ``F_P`` of a program);
* :func:`free_variables` / :func:`assigned_variables`;
* :func:`is_pure` — whether an expression contains no random
  expression and no call;
* :func:`equal_modulo_labels` — structural AST equality ignoring
  random-expression labels (labels encode source positions, so
  pretty-print round-trips change them);
* :class:`LabelFreeIndex` — the key :func:`equal_modulo_labels` compares: one
  pre-order pass gives every node an interned integer for its
  label-free structure and its span in the pre-order list of random
  labels, so callers comparing many subtrees (the Section 6 diff)
  compare integers instead of re-walking or copying subtrees;
* :func:`relabel` — canonical relabeling for comparing programs.
"""

from __future__ import annotations

from dataclasses import fields, is_dataclass, replace
from typing import Dict, Iterator, List, Set, Tuple

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
    "LabelFreeIndex",
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
    """Pre-order traversal of the AST rooted at ``node``.

    Iterative, so a long ``Seq`` spine neither nests one generator per
    level nor hits the recursion limit."""
    stack = [node]
    while stack:
        node = stack.pop()
        yield node
        stack.extend(reversed(children(node)))


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


class LabelFreeIndex:
    """Label-free structure keys and random-label spans of AST nodes.

    ``key(node)`` is an integer, interned per index: two nodes keyed by
    the same index get equal keys exactly when they are equal modulo
    labels — the same classes throughout, and non-label field values
    equal under ``==`` (so ``1`` and ``1.0``, or ``0.0`` and ``-0.0``,
    agree, and two distinct NaN objects do not).  ``random_labels(node)``
    lists the labels of the node's random expressions in pre-order.

    The first query on a node indexes its whole subtree in one pre-order
    pass; every node of it is then a dictionary lookup away.  Nodes are
    remembered by identity, so a subtree shared between (or within)
    trees is visited once, and an index must not outlive the trees it
    has seen.  Build one per comparison: keys of two indexes are
    unrelated.
    """

    __slots__ = ("_interned", "_entries", "_labels", "_field_names")

    def __init__(self) -> None:
        self._interned: Dict[tuple, int] = {}
        #: id(node) -> (key, start, end) of its span in ``_labels``.
        self._entries: Dict[int, Tuple[int, int, int]] = {}
        self._labels: List[str] = []
        self._field_names: Dict[type, Tuple[str, ...]] = {}

    def key(self, node: Node) -> int:
        entry = self._entries.get(id(node))
        if entry is None:
            entry = self._visit(node)
        return entry[0]

    def random_labels(self, node: Node) -> List[str]:
        entry = self._entries.get(id(node))
        if entry is None:
            entry = self._visit(node)
        return self._labels[entry[1] : entry[2]]

    def _names(self, cls: type) -> Tuple[str, ...]:
        labelled = issubclass(cls, (RandomExpr, Call))
        names = tuple(f.name for f in fields(cls) if not (labelled and f.name == "label"))
        self._field_names[cls] = names
        return names

    def _visit(self, node: Node) -> Tuple[int, int, int]:
        # The key is the node's class, its non-label field values with
        # each child node replaced by the child's key, and a mask saying
        # which fields held nodes (so a child's key never equals a plain
        # number stored in the same field of another node).  The child
        # loop is inlined, one frame per tree level, and a new node in a
        # node's last field is visited by the same loop rather than a
        # call: a program is a ``Seq`` spine one level per statement,
        # and the spine must not cost one frame per statement.  (Field
        # names are distinct, so ``name is final`` holds for the last.)
        entries = self._entries
        labels = self._labels
        pending = []  # (node, start, parts) waiting for their last child's key
        while True:
            start = len(labels)
            if isinstance(node, RandomExpr):
                labels.append(node.label)
            cls = type(node)
            names = self._field_names.get(cls)
            if names is None:
                names = self._names(cls)
            parts: list = [cls]
            mask = 0
            bit = 1
            last = None
            final = names[-1] if names else None
            for name in names:
                value = getattr(node, name)
                if isinstance(value, Node):
                    entry = entries.get(id(value))
                    if entry is None:
                        if name is final:
                            last = value
                            parts.append(None)  # its key, once known
                            mask |= bit
                            break
                        entry = self._visit(value)
                    elif entry[1] != entry[2]:
                        # Seen before: repeat its labels so this node's
                        # span still lists its own subtree's, in pre-order.
                        labels.extend(labels[entry[1] : entry[2]])
                    parts.append(entry[0])
                    mask |= bit
                elif isinstance(value, tuple) and any(isinstance(i, Node) for i in value):
                    parts.append(self._tuple_key(value))
                    mask |= bit << 1
                else:
                    parts.append(value)
                bit <<= 2
            parts.append(mask)
            if last is None:
                break
            pending.append((node, start, parts))
            node = last
        interned = self._interned
        key = interned.setdefault(tuple(parts), len(interned))
        entry = (key, start, len(labels))
        entries[id(node)] = entry
        # Every pending ancestor's span ends where its last child's does.
        for node, start, parts in reversed(pending):
            parts[-2] = entry[0]
            key = interned.setdefault(tuple(parts), len(interned))
            entry = (key, start, len(labels))
            entries[id(node)] = entry
        return entry

    def _tuple_key(self, items: tuple) -> tuple:
        """A tuple field holding nodes (``Call.args``), keyed as
        :meth:`_visit` keys fields."""
        parts: list = []
        mask = 0
        for position, item in enumerate(items):
            if isinstance(item, Node):
                entry = self._entries.get(id(item))
                if entry is None:
                    entry = self._visit(item)
                elif entry[1] != entry[2]:
                    self._labels.extend(self._labels[entry[1] : entry[2]])
                parts.append(entry[0])
                mask |= 1 << position
            else:
                parts.append(item)
        parts.append(mask)
        return tuple(parts)


def equal_modulo_labels(a: Node, b: Node) -> bool:
    """Structural equality ignoring random-expression labels."""
    index = LabelFreeIndex()
    return index.key(a) == index.key(b)


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
