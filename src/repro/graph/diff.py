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

Each diff builds one :class:`~repro.lang.analysis.LabelFreeIndex` over
both trees: a single pre-order pass gives every node an interned key
for its label-free structure and its span in the pre-order list of
random labels.  Equality modulo labels is then an integer comparison,
and a wholesale match zips two spans, so a diff costs time linear in
the two trees plus its LCS tables.  The LCS first takes the common
prefix of the two statement lists as matched, which is exactly what
the table's traceback would do, and builds the table on the rest only:
an ``observe`` spliced before ``return`` leaves a table of a few cells.
The common suffix is *not* trimmed: the traceback prefers the earliest
match, and a suffix trim would pick a later one for repeated statements
(against ``y = flip(0.2); x = flip(0.5); x = flip(0.5);`` the old
program ``x = flip(0.5);`` maps to the first copy, and would map to the
second after a suffix trim).

The result is a map from new labels to old labels, convertible into an
address :class:`~repro.core.correspondence.Correspondence` via
:func:`label_correspondence`.  This is the paper's "informed heuristic":
soundness never depends on it (Lemma 2 holds for any correspondence),
only efficiency does.
"""

from __future__ import annotations

from dataclasses import fields
from typing import Dict, List, Sequence, Tuple

from ..core.correspondence import Correspondence
from ..lang.analysis import LabelFreeIndex
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
    index = LabelFreeIndex()
    return _key_lcs([index.key(stmt) for stmt in old], [index.key(stmt) for stmt in new])


def _key_lcs(old: Sequence[int], new: Sequence[int]) -> List[Tuple[int, int]]:
    # The traceback matches equal heads greedily, so the common prefix
    # is matched pairwise and the table is needed only past it.
    limit = min(len(old), len(new))
    prefix = 0
    while prefix < limit and old[prefix] == new[prefix]:
        prefix += 1
    pairs = [(i, i) for i in range(prefix)]
    pairs.extend(
        (prefix + i, prefix + j) for i, j in _lcs_table(old[prefix:], new[prefix:])
    )
    return pairs


def _lcs_table(old: Sequence[int], new: Sequence[int]) -> List[Tuple[int, int]]:
    n, m = len(old), len(new)
    lengths = [[0] * (m + 1) for _ in range(n + 1)]
    for i in range(n - 1, -1, -1):
        for j in range(m - 1, -1, -1):
            if old[i] == new[j]:
                lengths[i][j] = 1 + lengths[i + 1][j + 1]
            else:
                lengths[i][j] = max(lengths[i + 1][j], lengths[i][j + 1])
    pairs: List[Tuple[int, int]] = []
    i = j = 0
    while i < n and j < m:
        if old[i] == new[j]:
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
    _align(LabelFreeIndex(), old, new, mapping)
    return mapping


def _match_wholesale(
    index: LabelFreeIndex, old: Node, new: Node, mapping: Dict[str, str]
) -> None:
    mapping.update(zip(index.random_labels(new), index.random_labels(old)))


def _align(index: LabelFreeIndex, old: Node, new: Node, mapping: Dict[str, str]) -> None:
    if index.key(old) == index.key(new):
        _match_wholesale(index, old, new, mapping)
        return
    if isinstance(old, Seq) or isinstance(new, Seq):
        old_list = flatten_seq(old) if isinstance(old, Stmt) else [old]
        new_list = flatten_seq(new) if isinstance(new, Stmt) else [new]
        matched = _key_lcs(
            [index.key(stmt) for stmt in old_list],
            [index.key(stmt) for stmt in new_list],
        )
        for i, j in matched:
            # Matched statements are equal modulo labels: pair their
            # random expressions in pre-order.
            _match_wholesale(index, old_list[i], new_list[j], mapping)
        # Recurse into the gaps pairwise: statements between matches are
        # plausibly edits of each other.
        boundaries = [(-1, -1)] + matched + [(len(old_list), len(new_list))]
        for (i0, j0), (i1, j1) in zip(boundaries, boundaries[1:]):
            gap_old = old_list[i0 + 1 : i1]
            gap_new = new_list[j0 + 1 : j1]
            for old_stmt, new_stmt in zip(gap_old, gap_new):
                _align(index, old_stmt, new_stmt, mapping)
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
                _align(index, old_child, new_child, mapping)
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
