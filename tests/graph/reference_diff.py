"""Reference label diff: the strip-based implementation, kept verbatim.

This is the alignment :mod:`repro.graph.diff` computed before it keyed
nodes with :class:`repro.lang.analysis.LabelFreeIndex`: every
comparison builds label-free copies of both subtrees and compares them
with dataclass ``==``, and the LCS table spans the whole statement
lists.  It is slow (quadratic in nesting depth) but obviously right, so
``test_diff_oracle.py`` holds the keyed diff to it.
"""

from dataclasses import fields, is_dataclass, replace
from typing import Dict, List, Tuple

from repro.graph.diff import flatten_seq
from repro.lang.analysis import random_expressions
from repro.lang.ast import Call, Node, RandomExpr, Seq, Stmt


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
    return strip_labels(a) == strip_labels(b)


def lcs_pairs(old: List[Stmt], new: List[Stmt]) -> List[Tuple[int, int]]:
    old_keys = [strip_labels(stmt) for stmt in old]
    new_keys = [strip_labels(stmt) for stmt in new]
    n, m = len(old), len(new)
    lengths = [[0] * (m + 1) for _ in range(n + 1)]
    for i in range(n - 1, -1, -1):
        for j in range(m - 1, -1, -1):
            if old_keys[i] == new_keys[j]:
                lengths[i][j] = 1 + lengths[i + 1][j + 1]
            else:
                lengths[i][j] = max(lengths[i + 1][j], lengths[i][j + 1])
    pairs: List[Tuple[int, int]] = []
    i = j = 0
    while i < n and j < m:
        if old_keys[i] == new_keys[j]:
            pairs.append((i, j))
            i += 1
            j += 1
        elif lengths[i + 1][j] >= lengths[i][j + 1]:
            i += 1
        else:
            j += 1
    return pairs


def align_labels(old: Node, new: Node) -> Dict[str, str]:
    mapping: Dict[str, str] = {}
    _align(old, new, mapping)
    return mapping


def _match_wholesale(old: Node, new: Node, mapping: Dict[str, str]) -> None:
    for old_random, new_random in zip(random_expressions(old), random_expressions(new)):
        mapping[new_random.label] = old_random.label


def _align(old: Node, new: Node, mapping: Dict[str, str]) -> None:
    if equal_modulo_labels(old, new):
        _match_wholesale(old, new, mapping)
        return
    if isinstance(old, Seq) or isinstance(new, Seq):
        old_list = flatten_seq(old) if isinstance(old, Stmt) else [old]
        new_list = flatten_seq(new) if isinstance(new, Stmt) else [new]
        matched = lcs_pairs(old_list, new_list)
        for i, j in matched:
            _match_wholesale(old_list[i], new_list[j], mapping)
        boundaries = [(-1, -1)] + matched + [(len(old_list), len(new_list))]
        for (i0, j0), (i1, j1) in zip(boundaries, boundaries[1:]):
            gap_old = old_list[i0 + 1 : i1]
            gap_new = new_list[j0 + 1 : j1]
            for old_stmt, new_stmt in zip(gap_old, gap_new):
                _align(old_stmt, new_stmt, mapping)
        return
    if type(old) is type(new):
        if isinstance(old, RandomExpr) and isinstance(new, RandomExpr):
            mapping[new.label] = old.label
        for field_info in fields(old):
            if field_info.name == "label":
                continue
            old_child = getattr(old, field_info.name)
            new_child = getattr(new, field_info.name)
            if isinstance(old_child, Node) and isinstance(new_child, Node):
                _align(old_child, new_child, mapping)
        return
