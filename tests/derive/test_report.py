"""Tests for derivation reports and their codec round-trip."""

import json

from repro.derive import AddressMatch, DerivationReport
from repro.store.codec import deserialize, serialize


def sample_report():
    return DerivationReport(
        source_name="old",
        target_name="new",
        matches=[
            AddressMatch(
                target=("state", 0),
                source=("hidden", 0),
                kind="rename",
                confidence=0.6,
                evidence="family 'state' aligned to 'hidden'",
            ),
            AddressMatch(
                target=("slope",),
                source=("slope",),
                kind="exact",
                confidence=1.0,
                evidence="same address in both programs",
            ),
        ],
        fresh=[("outlier", 2)],
        dropped=[("legacy",)],
        family_rules={"state": "hidden"},
        notes=["candidate rename 'a' -> 'b' rejected: support types disjoint"],
        source_complete=True,
        target_complete=False,
    )


class TestReportQueries:
    def test_match_for_finds_by_target(self):
        report = sample_report()
        assert report.match_for(("slope",)).kind == "exact"
        assert report.match_for(("missing",)) is None

    def test_confidence_is_the_minimum(self):
        report = sample_report()
        assert report.confidence() == 0.6
        assert DerivationReport("a", "b").confidence() == 1.0

    def test_summary_is_one_line(self):
        summary = sample_report().summary()
        assert "\n" not in summary
        assert "2 matched / 1 fresh / 1 dropped" in summary
        assert "0.60" in summary

    def test_to_dict_is_strict_json(self):
        document = sample_report().to_dict()
        encoded = json.dumps(document)
        assert "hidden" in encoded
        assert document["min_confidence"] == 0.6
        assert document["family_rules"] == [
            {"target_head": "state", "source_head": "hidden"}
        ]


class TestCodecRoundTrip:
    def test_json_document_round_trips(self):
        report = sample_report()
        document = serialize(report)
        json.dumps(document)  # strict JSON, no repr leakage
        assert deserialize(document) == report

    def test_empty_report_round_trips(self):
        report = DerivationReport(source_name="p", target_name="q")
        assert deserialize(serialize(report)) == report

    def test_addresses_stay_tuples(self):
        decoded = deserialize(serialize(sample_report()))
        assert decoded.matches[0].target == ("state", 0)
        assert isinstance(decoded.matches[0].target, tuple)
        assert decoded.fresh == [("outlier", 2)]
