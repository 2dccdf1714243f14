"""Round-trip properties of the versioned store codec.

The core contract: ``deserialize(serialize(x))`` reproduces ``x`` with
*bitwise* log-probability fidelity, for traces over every distribution
the library ships, for lang-interpreter traces, for dependency-graph
traces, and for weighted collections (including ``-inf`` weights and
per-particle metadata).
"""

import base64
import dataclasses
import inspect
import json
import math
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import repro.distributions as dist_module
from repro.core import ChoiceRecord, ObservationRecord, Trace, WeightedCollection
from repro.core.address import normalize_address
from repro.core.columnar import ColumnarCollection
from repro.core.smc import SMCStats
from repro.distributions import (
    Beta,
    Categorical,
    Delta,
    Distribution,
    Exponential,
    Flip,
    Gamma,
    Geometric,
    LogCategorical,
    LogNormal,
    Normal,
    Poisson,
    TwoNormals,
    Uniform,
    UniformDiscrete,
)
from repro.errors import CodecError, SchemaVersionError
from repro.graph import GraphTranslator, replace_constant, run_initial
from repro.lang import lang_model, parse_program
from repro.store import (
    DISTRIBUTION_REGISTRY,
    SCHEMA_VERSION,
    deserialize,
    dumps,
    loads,
    serialize,
)

#: One exemplar instance per concrete distribution the library ships.
DISTRIBUTION_EXAMPLES = [
    Flip(0.3),
    UniformDiscrete(-2, 7),
    Categorical([0.2, 0.5, 0.3]),
    LogCategorical([math.log(0.25), math.log(0.75)]),
    Delta((1, "x")),
    Geometric(0.4),
    Poisson(2.5),
    Normal(0.7, 1.9),
    Uniform(-1.5, 4.0),
    TwoNormals(1.0, 0.1, 0.5, 10.0),
    Gamma(2.0, 1.5),
    Beta(2.5, 1.5),
    LogNormal(0.2, 0.9),
    Exponential(1.7),
]


def add_choice(trace, address, dist, value):
    address = normalize_address(address)
    trace.add_choice(ChoiceRecord(address, dist, value, dist.log_prob(value)))


def add_observation(trace, address, dist, value):
    address = normalize_address(address)
    trace.add_observation(
        ObservationRecord(address, dist, value, dist.log_prob(value))
    )


def concrete_distribution_classes():
    classes = []
    for name in dist_module.__all__:
        obj = getattr(dist_module, name)
        if (
            inspect.isclass(obj)
            and issubclass(obj, Distribution)
            and dataclasses.is_dataclass(obj)
            and not inspect.isabstract(obj)
        ):
            classes.append(obj)
    return classes


class TestDistributionCompleteness:
    def test_every_concrete_distribution_has_an_example(self):
        """The exemplar list must cover the whole library — a new
        distribution class fails here until it is added (and thereby
        covered by every round-trip test below)."""
        covered = {type(example) for example in DISTRIBUTION_EXAMPLES}
        missing = [
            cls.__name__
            for cls in concrete_distribution_classes()
            if cls not in covered
        ]
        assert not missing, f"add codec round-trip examples for: {missing}"

    def test_every_concrete_distribution_is_registered(self):
        for cls in concrete_distribution_classes():
            assert cls.__name__ in DISTRIBUTION_REGISTRY


@pytest.mark.parametrize(
    "dist", DISTRIBUTION_EXAMPLES, ids=lambda d: type(d).__name__
)
class TestDistributionRoundTrip:
    def test_distribution_equal(self, dist):
        assert deserialize(serialize(dist)) == dist

    def test_trace_choice_bitwise(self, dist, rng):
        value = dist.sample(rng)
        trace = Trace()
        add_choice(trace, ("site", 0), dist, value)
        trace.return_value = value
        restored = deserialize(serialize(trace))
        record = restored.get_record(("site", 0))
        original = trace.get_record(("site", 0))
        assert record.value == original.value
        assert record.dist == dist
        # Bitwise, not approx: the codec must not re-derive log probs.
        assert record.log_prob == original.log_prob
        assert restored.log_prob == trace.log_prob

    def test_log_prob_survives_json_text(self, dist, rng):
        """Finite floats survive the JSON wire format bitwise (Python
        emits shortest-round-trip reprs)."""
        value = dist.sample(rng)
        trace = Trace()
        add_choice(trace, "x", dist, value)
        body = dumps(trace)
        assert loads(body).log_prob == trace.log_prob


class TestTraceRoundTrip:
    def test_observations_and_return(self, rng):
        trace = Trace()
        add_choice(trace, "x", Normal(0.0, 1.0), 0.25)
        add_observation(trace, "y", Normal(0.25, 0.5), 1.5)
        trace.return_value = [1, 2.5, ("a", 3), {"k": True}]
        restored = deserialize(serialize(trace))
        assert restored.return_value == trace.return_value
        assert restored.addresses() == trace.addresses()
        assert restored.observation_log_prob == trace.observation_log_prob
        assert restored.choice_log_prob == trace.choice_log_prob

    def test_model_trace(self, burglary_original, rng):
        trace = burglary_original.simulate(rng)
        restored = deserialize(serialize(trace))
        assert restored.log_prob == trace.log_prob
        assert restored.addresses() == trace.addresses()
        for address in trace.addresses():
            assert restored[address] == trace[address]

    def test_lang_trace(self, rng):
        program = parse_program(
            "x = gauss(0, 2); observe(gauss(x, 1) == 1.5); return x;"
        )
        trace = lang_model(program).simulate(rng)
        restored = deserialize(serialize(trace))
        assert restored.log_prob == trace.log_prob
        assert restored.choice_log_prob == trace.choice_log_prob
        assert restored.return_value == trace.return_value


class TestGraphTraceRoundTrip:
    SOURCE = """
p = 0.3;
x = flip(p);
for i in [0 .. 3) {
    observe(flip(x ? 0.8 : 0.2) == 1);
}
return x;
"""

    def test_bitwise_log_prob(self, rng):
        program = parse_program(self.SOURCE)
        trace = run_initial(program, rng)
        restored = deserialize(serialize(trace))
        assert restored.log_prob == trace.log_prob
        assert restored.observation_log_prob == trace.observation_log_prob
        assert restored.visited_statements == trace.visited_statements
        assert restored.env_out == trace.env_out

    def test_restored_trace_supports_propagation(self, rng):
        """A deserialized graph trace is fully usable: incremental
        propagation from it matches propagation from the original,
        draw for draw."""
        program = parse_program(self.SOURCE)
        target = replace_constant(program, "p", 0.6)
        trace = run_initial(program, rng)
        restored = deserialize(serialize(trace))

        translator = GraphTranslator(program, target)
        result_a = translator.translate(np.random.default_rng(5), trace)
        result_b = translator.translate(np.random.default_rng(5), restored)
        assert result_a.log_weight == result_b.log_weight
        assert result_a.trace.log_prob == result_b.trace.log_prob
        assert (
            result_a.components["visited_statements"]
            == result_b.components["visited_statements"]
        )


class TestCollectionRoundTrip:
    def make_collection(self, rng, metadata=None):
        traces = []
        for _ in range(4):
            trace = Trace()
            add_choice(trace, "x", Normal(0.0, 1.0), float(rng.standard_normal()))
            traces.append(trace)
        return WeightedCollection(
            traces, [0.0, -1.5, float("-inf"), 2.25], metadata=metadata
        )

    def test_log_weights_bitwise_including_neg_inf(self, rng):
        collection = self.make_collection(rng)
        restored = deserialize(serialize(collection))
        assert restored.log_weights == collection.log_weights
        assert len(restored) == len(collection)

    def test_metadata_round_trips_without_aliasing(self, rng):
        metadata = [{"origin": 0}, None, {"origin": 2, "tags": ("a", "b")}, {}]
        collection = self.make_collection(rng, metadata=metadata)
        restored = deserialize(serialize(collection))
        assert restored.metadata == metadata
        restored.metadata[0]["origin"] = 99
        assert collection.metadata[0]["origin"] == 0

    def test_metadata_not_one_per_particle_refused_on_dump(self, rng):
        collection = self.make_collection(rng, metadata=[{}, {}, {}, {}])
        collection.metadata = [{"origin": 0}, {"origin": 1}]
        with pytest.raises(CodecError, match="2 entries for 4 particles"):
            serialize(collection)

    @pytest.mark.parametrize("metadata", [[{}, {}], [], 5])
    def test_crafted_metadata_refused_on_load(self, rng, metadata):
        document = serialize(self.make_collection(rng))
        document["value"]["$coll"]["metadata"] = metadata
        with pytest.raises(CodecError, match="malformed collection"):
            deserialize(document)

    def test_crafted_weight_count_refused_on_load(self, rng):
        document = serialize(self.make_collection(rng))
        del document["value"]["$coll"]["log_weights"][0]
        with pytest.raises(CodecError, match="4 items but 3 weights"):
            deserialize(document)


class TestColumnarMetadata:
    """``$ccoll`` metadata must be one entry per particle, as for ``$coll``."""

    def make_columnar(self, rng):
        return ColumnarCollection.from_weighted(
            TestCollectionRoundTrip().make_collection(
                rng, metadata=[{"origin": i} for i in range(4)]
            )
        )

    def test_metadata_round_trips(self, rng):
        restored = deserialize(serialize(self.make_columnar(rng)))
        assert restored.metadata == [{"origin": i} for i in range(4)]

    @pytest.mark.parametrize(
        "metadata, error", [([{}], ValueError), ([], ValueError), (5, TypeError)]
    )
    def test_constructor_refuses_metadata_not_one_per_particle(
        self, rng, metadata, error
    ):
        collection = self.make_columnar(rng)
        with pytest.raises(error):
            ColumnarCollection(
                4,
                collection.log_weights,
                tuple(collection.addresses()),
                collection._choices,
                (),
                {},
                metadata=metadata,
            )

    def test_metadata_not_one_per_particle_refused_on_dump(self, rng):
        collection = self.make_columnar(rng)
        collection.metadata = [{"origin": 0}]
        with pytest.raises(CodecError, match="1 entries for 4 particles"):
            serialize(collection)

    @pytest.mark.parametrize("metadata", [[{}], [], 5])
    def test_crafted_metadata_refused_on_load(self, rng, metadata):
        document = serialize(self.make_columnar(rng))
        document["value"]["$ccoll"]["metadata"] = metadata
        with pytest.raises(CodecError, match="malformed columnar collection"):
            deserialize(document)


class TestAuxiliaryTypes:
    def test_rng_state_continues_identically(self):
        rng = np.random.default_rng(42)
        rng.standard_normal(7)  # advance
        clone = deserialize(serialize(rng))
        assert clone is not rng
        assert list(clone.standard_normal(5)) == list(rng.standard_normal(5))

    @pytest.mark.parametrize(
        "state",
        [
            {"bit_generator": "seed"},
            {"bit_generator": "Generator"},
            {"bit_generator": "BitGenerator"},
            {"bit_generator": 7},
            {"bit_generator": "PCG64"},  # known generator, malformed state
        ],
    )
    def test_rng_decodes_only_bit_generators(self, state):
        before = np.random.get_state()
        document = {"format": "repro-store", "schema": SCHEMA_VERSION,
                    "value": {"$rng": state}}
        with pytest.raises(CodecError):
            deserialize(document)
        after = np.random.get_state()
        assert before[0] == after[0] and before[2:] == after[2:]
        np.testing.assert_array_equal(before[1], after[1])

    def test_stats_round_trip(self, burglary_original, burglary_refined, rng):
        from repro.core import CorrespondenceTranslator, infer
        from repro.core.correspondence import Correspondence
        from repro.core.importance import importance_sampling

        translator = CorrespondenceTranslator(
            burglary_original, burglary_refined,
            Correspondence.identity(["burglary", "alarm"]),
        )
        collection = importance_sampling(burglary_original, rng, 20)
        stats = infer(translator, collection, rng).stats
        restored = deserialize(serialize(stats))
        assert isinstance(restored, SMCStats)
        assert restored == stats

    def test_nested_containers(self):
        value = {
            "plain": [1, 2.5, "s", None, True],
            "tuple": (1, (2, 3)),
            "$escaped": "dollar key",
            ("non", "str"): "tuple key",
            "bytes": b"\x00\x01",
            "array": np.arange(6, dtype=np.float64).reshape(2, 3),
            "nonfinite": [float("inf"), float("-inf")],
        }
        restored = deserialize(serialize(value))
        assert restored["plain"] == value["plain"]
        assert restored["tuple"] == (1, (2, 3))
        assert restored["$escaped"] == "dollar key"
        assert restored[("non", "str")] == "tuple key"
        assert restored["bytes"] == b"\x00\x01"
        np.testing.assert_array_equal(restored["array"], value["array"])
        assert restored["nonfinite"] == [float("inf"), float("-inf")]

    def test_nan_round_trips(self):
        restored = deserialize(serialize(float("nan")))
        assert math.isnan(restored)


#: Every dtype the codec stores as raw bytes.
RAW_DTYPES = [
    np.dtype(name)
    for name in (
        "bool", "int8", "int16", "int32", "int64",
        "uint8", "uint16", "uint32", "uint64", "float32", "float64",
    )
]


@st.composite
def numeric_arrays(draw):
    """Numeric arrays in every layout: C, Fortran, strided, big-endian."""
    dtype = draw(st.sampled_from(RAW_DTYPES))
    shape = draw(hnp.array_shapes(min_dims=0, max_dims=3, min_side=0, max_side=4))
    array = draw(hnp.arrays(dtype, shape))
    layout = draw(st.sampled_from(["c", "fortran", "strided", "big-endian"]))
    if layout == "fortran":
        array = np.asfortranarray(array)
    elif layout == "strided" and array.ndim:
        array = np.repeat(array, 2, axis=-1)[..., ::2]
    elif layout == "big-endian":
        array = array.astype(dtype.newbyteorder(">"))
    return array


def assert_bitwise_copy(restored, original):
    native = original.dtype.newbyteorder("=")
    assert isinstance(restored, np.ndarray)
    assert restored.dtype == native and restored.dtype.isnative
    assert restored.shape == original.shape
    assert restored.tobytes() == original.astype(native).tobytes()
    assert restored.flags.writeable


class TestNumericArrays:
    @given(numeric_arrays())
    @settings(max_examples=200, deadline=None)
    def test_round_trip_is_bitwise(self, array):
        body = dumps(array)
        payload = json.loads(body)["value"]["$nd"]
        assert set(payload) == {"dtype", "shape", "b64"}
        assert_bitwise_copy(loads(body), array)

    def test_special_floats_keep_their_bits(self):
        payload_nan = np.uint64(0x7FF8_0000_DEAD_BEEF).view(np.float64)
        values = [
            -0.0, float("nan"), -float("nan"), payload_nan, float("inf"),
            -float("inf"), 5e-324, -2.2250738585072e-308, 1.0,
        ]
        for dtype in (np.float32, np.float64):
            array = np.array(values, dtype=dtype)
            body = dumps(array)
            assert b"$f" not in body
            assert_bitwise_copy(loads(body), array)

    def test_other_dtypes_keep_the_element_list(self):
        for array in (np.array(["a", "bc"]), np.array([1, "x", None], dtype=object)):
            body = dumps(array)
            assert "data" in json.loads(body)["value"]["$nd"]
            restored = loads(body)
            assert restored.dtype == array.dtype
            assert restored.tolist() == array.tolist()

    def test_element_list_form_still_decodes(self):
        document = {
            "format": "repro-store",
            "schema": 3,
            "value": {"$nd": {"dtype": "float64", "shape": [2, 2],
                              "data": [0.5, {"$f": "-inf"}, -0.0, 3.0]}},
        }
        restored = deserialize(document)
        assert restored.dtype == np.float64 and restored.flags.writeable
        assert restored.tolist() == [[0.5, -math.inf], [-0.0, 3.0]]
        assert math.copysign(1.0, restored[1, 0]) == -1.0


def nd_document(**overrides):
    payload = {"dtype": "<f8", "shape": [2], "b64": base64.b64encode(bytes(16)).decode()}
    payload.update(overrides)
    return {
        "format": "repro-store", "schema": SCHEMA_VERSION, "value": {"$nd": payload},
    }


class TestMalformedArrays:
    def test_well_formed_baseline_decodes(self):
        assert deserialize(nd_document()).tolist() == [0.0, 0.0]

    @pytest.mark.parametrize(
        "dtype",
        ["O", "|V16", "<f8,<f8", "<M8[ns]", "<U2", "<c16", "no-such-type", 8, None],
    )
    def test_non_numeric_dtype_rejected(self, dtype):
        with pytest.raises(CodecError):
            deserialize(nd_document(dtype=dtype))

    @pytest.mark.parametrize("text", ["!!!!", "AAA", "AAAA AAAA", "é", 16, None])
    def test_invalid_base64_rejected(self, text):
        with pytest.raises(CodecError):
            deserialize(nd_document(b64=text))

    @pytest.mark.parametrize(
        "shape", [[3], [1], [], [2, 2], [0]],
    )
    def test_byte_count_must_match_shape(self, shape):
        with pytest.raises(CodecError, match="16 bytes"):
            deserialize(nd_document(shape=shape))

    @pytest.mark.parametrize(
        "shape", [[-2], [-1, -2], [2.0], [1.5], ["2"], [True, 2], "2", 2, None],
    )
    def test_bad_shape_rejected(self, shape):
        with pytest.raises(CodecError, match="shape"):
            deserialize(nd_document(shape=shape))

    def test_too_many_dimensions_rejected(self):
        with pytest.raises(CodecError):
            deserialize(nd_document(shape=[0] * 70, b64=""))

    def test_missing_payload_rejected(self):
        document = nd_document()
        del document["value"]["$nd"]["b64"]
        with pytest.raises(CodecError):
            deserialize(document)


class TestWireFormat:
    def test_json_is_strict_and_canonical(self, rng):
        trace = Trace()
        add_choice(trace, "x", Flip(0.5), 1)
        body = dumps(trace)
        document = json.loads(body.decode("utf-8"))  # strict JSON parses
        assert document["schema"] == SCHEMA_VERSION
        assert document["format"] == "repro-store"
        # Canonical: re-dumping produces identical bytes.
        assert dumps(trace) == body

    def test_newer_schema_rejected(self):
        document = serialize({"k": 1})
        document["schema"] = SCHEMA_VERSION + 1
        with pytest.raises(SchemaVersionError):
            deserialize(document)

    def test_retired_binary_framing_refused(self):
        document = serialize([1, 2, 3])
        body = b"\x89REPROSTORE\x00" + (3).to_bytes(2, "big") + pickle.dumps(document)
        with pytest.raises(SchemaVersionError, match="retired binary framing") as excinfo:
            loads(body)
        assert excinfo.value.found is None

    def test_garbage_rejected(self):
        with pytest.raises(CodecError):
            loads(b"not a document")

    def test_unknown_tag_rejected(self):
        with pytest.raises(CodecError):
            deserialize({"format": "repro-store", "schema": SCHEMA_VERSION,
                         "value": {"$mystery": 1}})
