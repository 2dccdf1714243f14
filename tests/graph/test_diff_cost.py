"""The label diff's cost is linear in the two programs.

Counted, not timed: each node's label-free key is computed by one
:class:`repro.lang.analysis.LabelFreeIndex` visit, and the LCS table is
built only past the common statement prefix.  On gauss-chain programs
(one latent, then one ``observe`` per data point, as the service builds
them), one ``align_labels`` call must visit each node of the two trees
at most once, and the table for an ``observe`` spliced before
``return`` must stay a few cells at every program size.
"""

import pytest

import repro.graph.diff as diff_module
from repro.analysis.edits import invalidation_sets
from repro.graph import align_labels, diff_correspondence
from repro.lang import random_labels, walk
from repro.lang.analysis import LabelFreeIndex
from tests.graph.test_diff_oracle import gauss_chain_observe_pair


@pytest.fixture
def visits(monkeypatch):
    """Counts node visits: a visit looks its node's class up once in the
    index's field-name table (a node reached through its parent's last
    field is visited by a loop, not a call, so calls undercount)."""
    counter = {"nodes": 0}

    class CountingNames(dict):
        def get(self, key, default=None):
            counter["nodes"] += 1
            return super().get(key, default)

    init = LabelFreeIndex.__init__

    def counting_init(self):
        init(self)
        self._field_names = CountingNames()

    monkeypatch.setattr(LabelFreeIndex, "__init__", counting_init)
    return counter


@pytest.fixture
def table_cells(monkeypatch):
    cells = []
    table = diff_module._lcs_table

    def recording_table(old, new):
        cells.append(len(old) * len(new))
        return table(old, new)

    monkeypatch.setattr(diff_module, "_lcs_table", recording_table)
    return cells


@pytest.mark.parametrize("observations", [20, 60, 150])
def test_align_labels_visits_each_node_once(visits, observations):
    old, new = gauss_chain_observe_pair(observations)
    mapping = align_labels(old, new)
    assert len(mapping) == len(random_labels(old))
    tree_nodes = sum(1 for _ in walk(old)) + sum(1 for _ in walk(new))
    assert 0 < visits["nodes"] <= tree_nodes


@pytest.mark.parametrize("observations", [20, 60, 150])
def test_observe_lcs_table_is_constant_size(table_cells, observations):
    old, new = gauss_chain_observe_pair(observations)
    align_labels(old, new)
    # Past the common prefix only ``return`` against ``observe; return``.
    assert table_cells == [2]
    table_cells.clear()
    analysis = invalidation_sets(old, new)
    assert table_cells == [2]
    assert analysis.must_visit == {observations + 1}


def test_long_program_diffs_without_deep_recursion():
    """The key pass walks the right-nested ``Seq`` spine with an explicit
    stack: a 2,000-observation program (far past the interpreter's
    recursion limit in ``Seq`` levels) diffs, and its observe maps every
    old label."""
    old, new = gauss_chain_observe_pair(2000)
    correspondence = diff_correspondence(old, new)
    old_labels = random_labels(old)
    assert len(old_labels) == 2001
    assert align_labels(old, new) == {label: label for label in old_labels}
    assert all(correspondence.forward((label,)) == (label,) for label in old_labels)
