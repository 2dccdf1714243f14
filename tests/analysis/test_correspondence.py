"""Seeded-bug tests for the correspondence validation pass."""

import numpy as np
import pytest

from repro.analysis import profile_model, validate_correspondence, validate_label_map
from repro.core.correspondence import Correspondence
from repro.core.model import Model
from repro.distributions import Flip, Normal
from repro.graph.diff import align_labels
from repro.lang.parser import parse_program


def _flip_pair_fn(t):
    a = t.sample(Flip(0.4), "a")
    t.sample(Flip(0.6), "b")
    return a


def _flip_renamed_fn(t):
    a = t.sample(Flip(0.4), "a2")
    t.sample(Flip(0.6), "b2")
    return a


def _gauss_fn(t):
    return t.sample(Normal(0.0, 1.0), "a")


def _collapse_to_a(address):
    # Deliberately non-injective: every target address maps to "a".
    return ("a",)


def _identity_backward(address):
    return address


def codes(diagnostics):
    return {d.code for d in diagnostics}


class TestProfileModel:
    def test_discrete_model_enumerates_completely(self):
        profile = profile_model(Model(_flip_pair_fn, name="p"))
        assert profile.complete
        assert set(profile.supports) == {("a",), ("b",)}

    def test_continuous_model_closes_statically(self):
        # The static profiler reads the RealLine support off the source;
        # no sampling, and the profile is complete.
        profile = profile_model(Model(_gauss_fn, name="g"), num_samples=5)
        assert profile.complete
        assert profile.method == "static"
        assert ("a",) in profile

    def test_continuous_model_falls_back_to_sampling(self):
        # The pre-static behavior, still reachable via method="runtime":
        # a continuous model cannot be enumerated, so the profile is a
        # sampled under-approximation.
        profile = profile_model(
            Model(_gauss_fn, name="g"), num_samples=5, method="runtime"
        )
        assert not profile.complete
        assert profile.method == "sample"
        assert ("a",) in profile

    def test_sampling_is_a_result_not_a_method(self):
        with pytest.raises(ValueError, match="unknown profiling method"):
            profile_model(Model(_gauss_fn, name="g"), method="sample")


class TestSeededBugs:
    def test_non_injective_intensional_map(self):
        # from_dict rejects non-injective dicts eagerly, so the seeded
        # bug must come in through an intensional correspondence.
        bad = Correspondence(_collapse_to_a, _identity_backward)
        diagnostics = validate_correspondence(
            Model(_flip_pair_fn, name="p"), Model(_flip_pair_fn, name="q"), bad
        )
        assert "corr-not-injective" in codes(diagnostics)
        assert any(d.severity == "error" for d in diagnostics)

    def test_support_mismatch_flip_to_gauss_is_error(self):
        corr = Correspondence.identity(["a"])
        diagnostics = validate_correspondence(
            Model(_flip_pair_fn, name="p"), Model(_gauss_fn, name="q"), corr
        )
        mismatches = [d for d in diagnostics if d.code == "corr-support-mismatch"]
        assert len(mismatches) == 1
        assert mismatches[0].severity == "error"

    def test_address_in_neither_program_is_error(self):
        corr = Correspondence.from_dict({("ghost",): ("phantom",)})
        diagnostics = validate_correspondence(
            Model(_flip_pair_fn, name="p"), Model(_flip_pair_fn, name="q"), corr
        )
        unknown = [d for d in diagnostics if d.code == "corr-unknown-pair"]
        assert len(unknown) == 1
        assert unknown[0].severity == "error"

    def test_inconsistent_bijection_is_error(self):
        def forward(address):
            return ("a",) if address == ("a",) else None

        def backward(address):
            return ("b",)  # does not invert forward

        bad = Correspondence(forward, backward)
        diagnostics = validate_correspondence(
            Model(_flip_pair_fn, name="p"), Model(_flip_pair_fn, name="q"), bad
        )
        assert "corr-not-bijective" in codes(diagnostics)

    def test_lambda_correspondence_warns_not_picklable(self):
        corr = Correspondence.identity_by_predicate(lambda address: True)
        diagnostics = validate_correspondence(
            Model(_flip_pair_fn, name="p"), Model(_flip_pair_fn, name="q"), corr
        )
        pickling = [d for d in diagnostics if d.code == "corr-not-picklable"]
        assert len(pickling) == 1
        assert pickling[0].severity == "warning"

    def test_unmapped_target_is_info_only(self):
        corr = Correspondence.identity(["a"])
        diagnostics = validate_correspondence(
            Model(_flip_pair_fn, name="p"), Model(_flip_pair_fn, name="q"), corr
        )
        assert all(d.severity == "info" for d in diagnostics)
        assert "corr-dead-source" in codes(diagnostics)
        assert "corr-unmapped-target" in codes(diagnostics)


class TestBundledCorrespondences:
    def test_burglary_correspondence_is_clean(self):
        from repro.experiments.burglary import (
            burglary_correspondence,
            burglary_original,
            burglary_refined,
        )

        diagnostics = validate_correspondence(
            burglary_original(), burglary_refined(), burglary_correspondence()
        )
        assert not any(d.severity in ("warning", "error") for d in diagnostics)

    def test_hmm_correspondence_is_picklable_and_clean(self):
        import pickle

        from repro.hmm.programs import hidden_state_correspondence

        # The predicate is a module-level function, so the process
        # executor can ship it.
        pickle.dumps(hidden_state_correspondence())


class TestLabelMap:
    def test_derived_map_of_bundled_edit_is_clean(self):
        from repro.lang.programs import BURGLARY_ORIGINAL, BURGLARY_REFINED

        old = parse_program(BURGLARY_ORIGINAL)
        new = parse_program(BURGLARY_REFINED)
        diagnostics = validate_label_map(old, new, align_labels(old, new))
        assert not any(d.severity in ("warning", "error") for d in diagnostics)

    def test_flip_to_gauss_label_is_support_mismatch(self):
        from repro.lang.analysis import random_expressions

        old = parse_program("x = flip(0.5); return x;")
        new = parse_program("x = gauss(0.0, 1.0); return x;")
        old_label = random_expressions(old)[0].label
        new_label = random_expressions(new)[0].label
        diagnostics = validate_label_map(old, new, {new_label: old_label})
        assert "corr-support-mismatch" in codes(diagnostics)

    def test_unknown_labels_are_error(self):
        old = parse_program("x = flip(0.5); return x;")
        new = parse_program("y = flip(0.4); return y;")
        diagnostics = validate_label_map(old, new, {"nope": "missing"})
        assert "corr-unknown-pair" in codes(diagnostics)
