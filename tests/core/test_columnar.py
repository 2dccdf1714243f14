"""Unit tests for the columnar particle collection and its SMC step.

Covers the ColumnarCollection data model (conversion, resampling,
estimation, diagnostics parity with WeightedCollection), the spill
triggers that route unsupported steps back to the object path, and the
store codec round-trip (schema 2, ``$ccoll``).
"""

import dataclasses
import math

import numpy as np
import pytest

from repro.core import (
    ColumnarCollection,
    ColumnarSpill,
    Correspondence,
    CorrespondenceTranslator,
    InferenceConfig,
    Model,
    Trace,
    WeightedCollection,
    infer,
    single_site_mh,
)
from repro.core.columnar import _FSUM_BLOCK, _fsum_totals, _merge_dists
from repro.distributions import Flip, Gamma, Normal, UniformDiscrete
from repro.errors import ReproError
from repro.store.codec import SCHEMA_VERSION, dumps, loads


def _regression_model(std=1.0, with_flip=False):
    def fn(h):
        slope = h.sample(Normal(0.0, 2.0), "slope")
        noise = h.sample(Gamma(2.0, 1.0), "noise")
        if with_flip:
            h.sample(Flip(0.3), "outlier")
        for i in range(5):
            h.observe(Normal(slope * i, std * noise), 0.6 * i, f"y{i}")
        return slope

    return Model(fn)


def _population(model, n=20, seed=0):
    rng = np.random.default_rng(seed)
    return WeightedCollection(
        [model.generate(rng)[0] for _ in range(n)],
        list(np.linspace(-0.5, 0.5, n)),
    )


class TestConversion:
    def test_round_trip_is_lossless_for_untranslated_collections(self):
        coll = _population(_regression_model(), n=8)
        back = ColumnarCollection.from_weighted(coll).to_weighted()
        assert back.items == coll.items  # same objects: source backref kept
        assert back.log_weights == coll.log_weights

    def test_synthesized_traces_match_bitwise(self):
        coll = _population(_regression_model(with_flip=True), n=8)
        columnar = ColumnarCollection.from_weighted(coll)
        columnar._source_items = None  # force synthesis from columns
        back = columnar.to_weighted()
        for original, rebuilt in zip(coll.items, back.items):
            assert original.addresses() == rebuilt.addresses()
            for address in original.addresses():
                a, b = original.get_record(address), rebuilt.get_record(address)
                assert a.value == b.value and type(a.value) is type(b.value)
                assert a.log_prob == b.log_prob
                assert a.dist == b.dist
            assert original.log_prob == rebuilt.log_prob

    def test_total_log_probs_bitwise_equal_trace_totals(self):
        coll = _population(_regression_model(), n=16)
        columnar = ColumnarCollection.from_weighted(coll)
        for i, trace in enumerate(coll.items):
            assert float(columnar.total_log_probs[i]).hex() == trace.log_prob.hex()

    def test_value_kinds_restored(self):
        coll = _population(_regression_model(with_flip=True), n=6)
        columnar = ColumnarCollection.from_weighted(coll)
        assert columnar.value_kind("outlier") == "int"
        assert columnar.value_kind("slope") == "float"
        rebuilt = columnar.resample(np.random.default_rng(0)).to_weighted()
        assert isinstance(rebuilt.items[0]["outlier"], int)
        assert isinstance(rebuilt.items[0]["slope"], float)


class TestDiagnosticsParity:
    def test_matches_weighted_collection(self):
        coll = _population(_regression_model(), n=12)
        columnar = ColumnarCollection.from_weighted(coll)
        assert columnar.effective_sample_size() == coll.effective_sample_size()
        assert columnar.log_mean_weight() == coll.log_mean_weight()
        assert np.array_equal(columnar.normalized_weights(), coll.normalized_weights())
        phi = lambda item: item["slope"] ** 2
        assert columnar.estimate(phi) == coll.estimate(phi)
        assert columnar.estimate_probability(
            lambda item: item["slope"] > 0
        ) == coll.estimate_probability(lambda t: t["slope"] > 0)

    def test_particle_view_exposes_values_and_return(self):
        coll = _population(_regression_model(), n=4)
        columnar = ColumnarCollection.from_weighted(coll)
        view = columnar.particle(2)
        assert "slope" in view and "nonexistent" not in view
        assert view["slope"] == coll.items[2]["slope"]
        assert view.return_value == coll.items[2].return_value


class TestResample:
    def test_matches_object_resample_indices(self):
        coll = _population(_regression_model(), n=30)
        columnar = ColumnarCollection.from_weighted(coll)
        for scheme in ("multinomial", "systematic", "stratified", "residual"):
            obj = coll.resample(np.random.default_rng(5), scheme=scheme)
            col = columnar.resample(np.random.default_rng(5), scheme=scheme)
            assert [t["slope"] for t in obj.items] == col.value_column("slope").tolist()
            assert (col.log_weights == 0.0).all()

    @pytest.mark.parametrize("computed", [True, False], ids=["computed", "lazy"])
    def test_totals_survive_resampling_bitwise(self, computed):
        coll = _population(_regression_model(with_flip=True), n=30)
        columnar = ColumnarCollection.from_weighted(coll)
        if computed:
            columnar.total_log_probs  # the parent's totals exist before the gather
        resampled = columnar.resample(np.random.default_rng(5), scheme="systematic")
        assert (resampled._totals is not None) == computed
        fresh = _fsum_totals(
            len(resampled),
            [resampled.log_prob_column(a) for a in resampled.addresses()],
            [
                resampled._observations[a].log_probs
                for a in resampled.observation_addresses()
            ],
        )
        assert resampled.total_log_probs.tobytes() == fresh.tobytes()

    def test_unknown_scheme_rejected(self):
        columnar = ColumnarCollection.from_weighted(_population(_regression_model()))
        with pytest.raises(ValueError, match="unknown resampling scheme"):
            columnar.resample(np.random.default_rng(0), scheme="bogus")


class TestFsumTotals:
    """The blocked row reduction equals one ``fsum`` per row of the whole
    stacked population, bit for bit."""

    @staticmethod
    def _whole(num, columns):
        if not columns:
            return [0.0] * num
        return [math.fsum(row) for row in np.stack(columns, axis=1).tolist()]

    @pytest.mark.parametrize(
        "num", [1, 7, _FSUM_BLOCK - 1, _FSUM_BLOCK + 1, 2 * _FSUM_BLOCK + 37]
    )
    @pytest.mark.parametrize("num_choices", [0, 3])
    def test_blocks_match_whole_array_reduction(self, num, num_choices):
        rng = np.random.default_rng(num)

        def columns(count):
            # Mixed magnitudes, so a sum that is not correctly rounded shows.
            return [
                rng.normal(size=num) * 10.0 ** float(rng.integers(-12, 12))
                for _ in range(count)
            ]

        choices, observations = columns(num_choices), columns(40)
        expected = np.asarray(
            [
                c + o
                for c, o in zip(
                    self._whole(num, choices), self._whole(num, observations)
                )
            ],
            dtype=np.float64,
        )
        totals = _fsum_totals(num, choices, observations)
        assert totals.tobytes() == expected.tobytes()


class TestSpillTriggers:
    def test_heterogeneous_addresses_spill(self):
        m1 = _regression_model()
        m2 = _regression_model(with_flip=True)
        rng = np.random.default_rng(0)
        mixed = WeightedCollection(
            [m1.generate(rng)[0], m2.generate(rng)[0]], [0.0, 0.0]
        )
        with pytest.raises(ColumnarSpill):
            ColumnarCollection.from_weighted(mixed)

    def test_non_numeric_values_spill(self):
        def fn(h):
            from repro.distributions import Delta

            return h.sample(Delta("text"), "label")

        coll = _population(Model(fn), n=3)
        with pytest.raises(ColumnarSpill):
            ColumnarCollection.from_weighted(coll)

    def test_unmergeable_dists_spill(self):
        with pytest.raises(ColumnarSpill):
            _merge_dists([Normal(0.0, 1.0), Flip(0.5)])

    def test_varying_numeric_params_merge(self):
        merged = _merge_dists([Normal(0.0, 1.0), Normal(1.0, 1.0)])
        assert isinstance(merged.mean, np.ndarray)
        assert merged.std == 1.0

    def test_spill_is_not_a_repro_error(self):
        # Fault policies catch ReproError subclasses; a spill must never
        # be containable as a model fault.
        assert not issubclass(ColumnarSpill, ReproError)


class TestStepDispatch:
    def _translator(self):
        return CorrespondenceTranslator(
            _regression_model(1.0),
            _regression_model(0.8),
            Correspondence.identity(["slope", "noise"]),
        )

    def test_columnar_step_reports_mode(self):
        step = infer(
            self._translator(),
            _population(_regression_model(), n=16),
            np.random.default_rng(1),
            config=InferenceConfig(collection="columnar"),
        )
        assert step.stats.collection_mode == "columnar"
        assert isinstance(step.collection, ColumnarCollection)

    def test_object_step_reports_mode(self):
        step = infer(
            self._translator(),
            _population(_regression_model(), n=16),
            np.random.default_rng(1),
            config=InferenceConfig(),
        )
        assert step.stats.collection_mode == "object"
        assert isinstance(step.collection, WeightedCollection)

    def test_mcmc_kernel_spills_to_object(self):
        q = _regression_model(0.8)
        step = infer(
            self._translator(),
            _population(_regression_model(), n=8),
            np.random.default_rng(1),
            mcmc_kernel=single_site_mh(q),
            config=InferenceConfig(collection="columnar"),
        )
        assert step.stats.collection_mode == "object"

    def test_containing_fault_policy_spills_to_object(self):
        step = infer(
            self._translator(),
            _population(_regression_model(), n=8),
            np.random.default_rng(1),
            config=InferenceConfig(collection="columnar", fault_policy="drop"),
        )
        assert step.stats.collection_mode == "object"

    def test_branching_model_spills_and_matches_object(self):
        def fn(h):
            x = h.sample(Normal(0.0, 1.0), "x")
            mean = 1.0 if x > 0 else -1.0
            h.observe(Normal(mean, 1.0), 0.5, "y")
            return x

        model = Model(fn)
        translator = CorrespondenceTranslator(
            model, model, Correspondence.identity(["x"])
        )
        coll = _population(model, n=12)
        object_step = infer(
            translator, coll.copy(), np.random.default_rng(2),
            config=InferenceConfig(),
        )
        columnar_step = infer(
            translator, coll.copy(), np.random.default_rng(2),
            config=InferenceConfig(collection="columnar"),
        )
        assert columnar_step.stats.collection_mode == "object"
        assert np.array_equal(
            np.asarray(object_step.collection.log_weights),
            np.asarray(columnar_step.collection.log_weights),
        )

    def test_object_path_accepts_columnar_input(self):
        columnar = ColumnarCollection.from_weighted(
            _population(_regression_model(), n=8)
        )
        step = infer(
            self._translator(), columnar, np.random.default_rng(3),
            config=InferenceConfig(),
        )
        assert step.stats.collection_mode == "object"
        assert isinstance(step.collection, WeightedCollection)


class TestConfigSurface:
    def test_collection_is_keyword_only(self):
        from repro.observability import NULL_HOOKS, NULL_METRICS, NULL_TRACER

        positional_fields = [
            f for f in dataclasses.fields(InferenceConfig) if not f.kw_only
        ]
        values = [
            "never", 0.5, "multinomial", True, "fail_fast", None, None, None,
            NULL_TRACER, NULL_METRICS, NULL_HOOKS, None, 1, "off",
        ]
        assert len(values) == len(positional_fields)
        InferenceConfig(*values)  # all positional fields are fine
        with pytest.raises(TypeError):
            InferenceConfig(*values, "columnar")  # collection is kw-only

    def test_invalid_collection_rejected_up_front(self):
        with pytest.raises(ValueError, match="unknown collection mode"):
            InferenceConfig(collection="simd")

    def test_modes_listed(self):
        assert InferenceConfig.COLLECTION_MODES == ("object", "columnar")


class TestCodecRoundTrip:
    def test_schema_version_bumped_for_ccoll(self):
        assert SCHEMA_VERSION >= 2

    def test_round_trip(self):
        coll = _population(_regression_model(with_flip=True), n=10)
        columnar = ColumnarCollection.from_weighted(coll)
        restored = loads(dumps(columnar))
        assert isinstance(restored, ColumnarCollection)
        assert np.array_equal(restored.log_weights, columnar.log_weights)
        assert restored.addresses() == columnar.addresses()
        for address in columnar.addresses():
            assert np.array_equal(
                restored.value_column(address), columnar.value_column(address)
            )
            assert np.array_equal(
                restored.log_prob_column(address),
                columnar.log_prob_column(address),
            )
            assert restored.dist_template(address) == columnar.dist_template(address)
            assert restored.value_kind(address) == columnar.value_kind(address)
        # Synthesized object traces from the decoded collection carry the
        # same totals as the originals, bit for bit.
        for original, rebuilt in zip(coll.items, restored.to_weighted().items):
            assert original.log_prob.hex() == rebuilt.log_prob.hex()

    def test_translated_collection_round_trips(self):
        translator = CorrespondenceTranslator(
            _regression_model(1.0),
            _regression_model(0.8),
            Correspondence.identity(["slope", "noise"]),
        )
        step = infer(
            translator,
            _population(_regression_model(), n=8),
            np.random.default_rng(4),
            config=InferenceConfig(collection="columnar"),
        )
        restored = loads(dumps(step.collection))
        assert np.array_equal(restored.log_weights, step.collection.log_weights)
