"""Syntactic correspondence from two program texts (Section 6).

When the edit is not available as a structured operation — only the old
and new sources are — a correspondence between random expressions can
still be recovered by aligning the two ASTs.  The alignment is a
standard tree diff specialized to the language:

* identical subtrees (modulo labels) match wholesale, pairing their
  random expressions in pre-order;
* sequences align their statement lists by a longest-common-subsequence
  over equality-modulo-labels, then recurse into the unmatched gaps
  pairwise;
* same-kind nodes recurse field by field.

The result is a map from new labels to old labels, convertible into an
address :class:`~repro.core.correspondence.Correspondence` via
:func:`label_correspondence`.  This is the paper's "informed heuristic":
soundness never depends on it (Lemma 2 holds for any correspondence),
only efficiency does.
"""

from __future__ import annotations

from dataclasses import fields
from typing import Dict, List, Tuple

from ..core.correspondence import Correspondence
from ..lang.analysis import equal_modulo_labels, random_expressions, strip_labels
from ..lang.ast import Node, RandomExpr, Seq, Stmt

__all__ = [
    "diff_correspondence",
    "label_correspondence",
    "align_labels",
    "flatten_seq",
    "lcs_pairs",
]


def flatten_seq(stmt: Stmt) -> List[Stmt]:
    """Top-level statement list of a (right-nested) ``Seq`` spine."""
    result: List[Stmt] = []
    node = stmt
    while isinstance(node, Seq):
        result.append(node.first)
        node = node.second
    result.append(node)
    return result


def lcs_pairs(old: List[Stmt], new: List[Stmt]) -> List[Tuple[int, int]]:
    """Indices of a longest common subsequence under equality-modulo-labels."""
    # Strip each statement's labels once, then compare stripped nodes
    # with plain ``==``: O(n + m) strips instead of one pair per cell.
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
    """Map new-program random-expression labels to old-program labels."""
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
            # Matched statements are equal modulo labels: pair their
            # random expressions in pre-order.
            _match_wholesale(old_list[i], new_list[j], mapping)
        # Recurse into the gaps pairwise: statements between matches are
        # plausibly edits of each other.
        boundaries = [(-1, -1)] + matched + [(len(old_list), len(new_list))]
        for (i0, j0), (i1, j1) in zip(boundaries, boundaries[1:]):
            gap_old = old_list[i0 + 1 : i1]
            gap_new = new_list[j0 + 1 : j1]
            for old_stmt, new_stmt in zip(gap_old, gap_new):
                _align(old_stmt, new_stmt, mapping)
        return
    if type(old) is type(new):
        # Same node kind: if both are random expressions of the same kind,
        # they correspond; either way recurse into aligned fields.
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
    # Different kinds: no correspondence below this point.


class _LabelHeadMap:
    """Apply a label map to an address head, preserving loop indices.

    Module-level (not a closure) so diff-derived correspondences — and
    the lang translators built on them — stay picklable for the
    ``process`` particle executor.
    """

    __slots__ = ("labels",)

    def __init__(self, labels: Dict[str, str]):
        self.labels = labels

    def __call__(self, address):
        label, rest = address[0], address[1:]
        mapped = self.labels.get(label)
        return (mapped,) + rest if mapped is not None else None


def label_correspondence(label_map: Dict[str, str]) -> Correspondence:
    """Lift a new-label -> old-label map to an address correspondence.

    Run-time addresses are ``(label, *loop_indices)``; corresponding
    choices keep their loop indices (the Section 5.4 scheme), so the
    address map applies the label map to the head and preserves the
    tail.
    """
    inverse = {}
    for new_label, old_label in label_map.items():
        if old_label in inverse:
            raise ValueError(
                f"label map is not injective: {old_label!r} is the image of both "
                f"{inverse[old_label]!r} and {new_label!r}"
            )
        inverse[old_label] = new_label

    return Correspondence(
        _LabelHeadMap(dict(label_map)),
        _LabelHeadMap(inverse),
        description=f"labels({len(label_map)})",
    )


def diff_correspondence(old: Stmt, new: Stmt) -> Correspondence:
    """End-to-end: align two programs, return the address correspondence."""
    return label_correspondence(align_labels(old, new))
