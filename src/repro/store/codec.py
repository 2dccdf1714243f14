"""Versioned codec for durable inference state.

Everything the persistence layer stores — checkpoints of
``infer_sequence`` runs, evicted inference sessions, benchmark
snapshots — goes through this module's two dual functions::

    document = serialize(obj)        # strict-JSON-able dict
    obj2     = deserialize(document)

plus the byte-level pair :func:`dumps`/:func:`loads` which adds the
wire format: canonical strict JSON (sorted keys, no whitespace, no bare
``NaN``/``Infinity`` tokens).

Supported object kinds
----------------------

* :class:`~repro.core.trace.Trace` — the embedded PPL's trace, which is
  also what the structured language's interpreter produces, so lang
  traces round-trip through the same path;
* :class:`~repro.graph.records.GraphTrace` — the dependency-graph
  runtime's trace.  The owning program AST is stored *structurally*
  (node class + fields) alongside the record tree, and statement
  references are rebound by structural descent on decode.  Pretty-
  printing and reparsing would **not** work here: parser-assigned labels
  encode source positions, so a formatting change would silently rename
  every address;
* :class:`~repro.core.weighted.WeightedCollection` of either trace kind
  (log weights and per-particle metadata included);
* :class:`~repro.core.columnar.ColumnarCollection` — the address-major
  population (schema 2): per-address value/log-prob arrays, distribution
  templates, value kinds, observations, and the batched return value.
  Documents containing one require schema >= 2, so a schema-1 reader
  refuses them with :class:`~repro.errors.SchemaVersionError` instead of
  mis-reading;
* :class:`~repro.core.smc.SMCStats`;
* ``numpy.random.Generator`` — via ``bit_generator.state``, so a
  restored generator continues the exact stream;
* plain JSON-able values, tuples, non-string-keyed dicts, numpy scalars
  and arrays, and any composition of the above (e.g. a checkpoint's
  ``{"step": ..., "collection": ..., "rng": ...}`` payload).

Bitwise fidelity
----------------

Scalar floats (an object trace's log probabilities, a weighted
collection's log weights) are stored as plain JSON numbers: Python's
``json`` emits ``repr(float)`` (the shortest string that parses back to
the same IEEE-754 double), so finite floats survive a JSON round trip
bit for bit.  The only floats JSON cannot carry — ``inf``, ``-inf`` (a
dropped particle's weight), ``nan`` — are encoded as explicit tags.

Numeric arrays (bool, signed and unsigned integer, float — a columnar
collection's value, log-prob and log-weight columns) are stored as their
raw little-endian C-order bytes in base64 (schema 4), which is far
cheaper than one ``repr`` per element and carries every bit as is:
``-0.0``, NaN payloads, infinities and subnormals need no tags.  A
decoded array is a fresh, writeable, native-byte-order copy.  Arrays of
any other dtype keep the element-list form.

Schema policy
-------------

Every document carries ``schema`` (:data:`SCHEMA_VERSION`).  Documents
with an *older* schema are migrated forward on read (none exist yet);
documents with a *newer* schema raise
:class:`~repro.errors.SchemaVersionError` — a downgraded library must
refuse state it cannot fully understand rather than half-read it.
"""

from __future__ import annotations

import base64
import dataclasses
import json
import math
from typing import Any, Callable, Dict, List, Optional, Tuple, Type

import numpy as np

from ..core.columnar import ColumnarCollection
from ..core.smc import SMCStats
from ..core.trace import ChoiceRecord, ObservationRecord, Trace
from ..core.weighted import WeightedCollection
from ..distributions import Distribution
from ..errors import CodecError, SchemaVersionError
from ..derive.report import AddressMatch, DerivationReport
from ..graph.records import GraphTrace, StmtRecord
from ..lang import ast as lang_ast

__all__ = [
    "SCHEMA_VERSION",
    "DISTRIBUTION_REGISTRY",
    "AST_REGISTRY",
    "serialize",
    "deserialize",
    "dumps",
    "loads",
    "encode_value",
    "decode_value",
]

#: Version of the document layout produced by this module.  Bump on any
#: incompatible change; readers migrate older versions forward and
#: reject newer ones.  History: 1 — initial layout; 2 — adds the
#: ``$ccoll`` tag (columnar particle collections); 3 — adds the
#: ``$derep`` tag (correspondence derivation reports); 4 — numeric
#: ``$nd`` arrays carry raw bytes (``b64``) instead of an element list.
SCHEMA_VERSION = 4

#: Leading bytes of the retired binary framing.  :func:`loads` refuses
#: bodies that start with them before decoding anything, so a stored or
#: received body can never run code.
_RETIRED_BINARY_MAGIC = b"\x89REPROSTORE\x00"

_FORMAT_NAME = "repro-store"


def _dataclass_registry(module: Any, base: type) -> Dict[str, Type]:
    """Name -> class for every dataclass subclass of ``base`` in ``module``."""
    registry: Dict[str, Type] = {}
    for name in module.__all__:
        candidate = getattr(module, name)
        if (
            isinstance(candidate, type)
            and issubclass(candidate, base)
            and dataclasses.is_dataclass(candidate)
        ):
            registry[candidate.__name__] = candidate
    return registry


def _distribution_registry() -> Dict[str, Type]:
    from .. import distributions

    return _dataclass_registry(distributions, Distribution)


#: Every serializable distribution class, by class name.  Aliases
#: (``Bernoulli`` is ``Flip``) collapse onto the canonical class name.
DISTRIBUTION_REGISTRY: Dict[str, Type] = _distribution_registry()

#: Every structured-language AST node class, by class name.
AST_REGISTRY: Dict[str, Type] = _dataclass_registry(lang_ast, lang_ast.Node)


#: dataclass -> names of its constructor-visible fields, filled on first use.
_INIT_FIELDS: Dict[type, Tuple[str, ...]] = {}


def _encode_init_fields(obj: Any) -> Dict[str, Any]:
    """The encoded constructor-visible fields of a dataclass instance.

    Derived fields (``init=False``, e.g. ``LogCategorical._log_norm``)
    are recomputed by ``__init__`` on decode, so they are not stored.
    """
    cls = type(obj)
    names = _INIT_FIELDS.get(cls)
    if names is None:
        names = _INIT_FIELDS[cls] = tuple(
            f.name for f in dataclasses.fields(cls) if f.init
        )
    return {name: encode_value(getattr(obj, name)) for name in names}


# ---------------------------------------------------------------------------
# Value encoding
# ---------------------------------------------------------------------------
#
# The encoding is a tagged superset of JSON: plain JSON values pass
# through unchanged, everything else becomes a single-key dict whose key
# starts with "$".  A plain dict is emitted as-is only when none of its
# (string) keys could be mistaken for a tag.


def _encode_float(value: float) -> Any:
    if math.isfinite(value):
        return value
    if value != value:  # NaN
        return {"$f": "nan"}
    return {"$f": "inf"} if value > 0 else {"$f": "-inf"}


def _encode_record(record: Any) -> Dict[str, Any]:
    """Shared shape of ChoiceRecord / ObservationRecord."""
    return {
        "a": encode_value(record.address),
        "d": encode_value(record.dist),
        "v": encode_value(record.value),
        "lp": _encode_float(float(record.log_prob)),
    }


def _decode_choice(payload: Dict[str, Any]) -> ChoiceRecord:
    return ChoiceRecord(
        address=decode_value(payload["a"]),
        dist=decode_value(payload["d"]),
        value=decode_value(payload["v"]),
        log_prob=float(decode_value(payload["lp"])),
    )


def _decode_observation(payload: Dict[str, Any]) -> ObservationRecord:
    return ObservationRecord(
        address=decode_value(payload["a"]),
        dist=decode_value(payload["d"]),
        value=decode_value(payload["v"]),
        log_prob=float(decode_value(payload["lp"])),
    )


def _encode_trace(trace: Trace) -> Dict[str, Any]:
    return {
        "choices": [_encode_record(r) for r in trace.choices()],
        "obs": [_encode_record(r) for r in trace.observations()],
        "ret": encode_value(trace.return_value),
    }


def _decode_trace(payload: Dict[str, Any]) -> Trace:
    trace = Trace()
    for entry in payload["choices"]:
        trace.add_choice(_decode_choice(entry))
    for entry in payload["obs"]:
        trace.add_observation(_decode_observation(entry))
    trace.return_value = decode_value(payload["ret"])
    return trace


# -- GraphTrace --------------------------------------------------------------


def _encode_stmt_record(record: StmtRecord) -> Dict[str, Any]:
    """Record tree without stmt references (rebound on decode)."""
    return {
        "reads": {name: int(version) for name, version in record.reads.items()},
        "writes": {
            name: {"v": encode_value(value), "ver": int(version)}
            for name, (value, version) in record.writes.items()
        },
        "choices": [_encode_record(r) for r in record.choices.values()],
        "obs": [_encode_record(r) for r in record.observations.values()],
        "children": [
            [encode_value(key), _encode_stmt_record(child)]
            for key, child in record.children.items()
        ],
        "returned": bool(record.returned),
        "ret": encode_value(record.return_value),
    }


def _child_stmt(stmt: lang_ast.Stmt, key: Any) -> lang_ast.Stmt:
    """The sub-statement a child record key refers to (engine's scheme)."""
    if isinstance(stmt, lang_ast.Seq) and key in ("first", "second"):
        return stmt.first if key == "first" else stmt.second
    if isinstance(stmt, lang_ast.If) and isinstance(key, tuple) and key[0] == "branch":
        return stmt.then if key[1] else stmt.otherwise
    if isinstance(stmt, (lang_ast.For, lang_ast.While)) and isinstance(key, int):
        return stmt.body
    raise CodecError(
        f"graph-trace child key {key!r} does not match statement "
        f"{type(stmt).__name__}; the stored record tree and program disagree"
    )


def _decode_stmt_record(payload: Dict[str, Any], stmt: lang_ast.Stmt) -> StmtRecord:
    record = StmtRecord(stmt=stmt)
    record.reads = {name: int(v) for name, v in payload["reads"].items()}
    record.writes = {
        name: (decode_value(entry["v"]), int(entry["ver"]))
        for name, entry in payload["writes"].items()
    }
    for entry in payload["choices"]:
        choice = _decode_choice(entry)
        record.choices[choice.address] = choice
    for entry in payload["obs"]:
        observation = _decode_observation(entry)
        record.observations[observation.address] = observation
    for key_doc, child_doc in payload["children"]:
        key = decode_value(key_doc)
        record.children[key] = _decode_stmt_record(child_doc, _child_stmt(stmt, key))
    record.returned = bool(payload["returned"])
    record.return_value = decode_value(payload["ret"])
    # Children are decoded (and finalized) first, so the aggregates here
    # are computed bottom-up exactly as the engine computed them.
    record.finalize()
    return record


def _encode_graph_trace(trace: GraphTrace) -> Dict[str, Any]:
    return {
        "program": encode_value(trace.root.stmt),
        "root": _encode_stmt_record(trace.root),
        "env_in": encode_value(trace.env_in),
        "env_out": encode_value(trace.env_out),
        "next_version": int(trace.next_version),
        "visited": int(trace.visited_statements),
    }


def _decode_graph_trace(payload: Dict[str, Any]) -> GraphTrace:
    program = decode_value(payload["program"])
    if not isinstance(program, lang_ast.Stmt):
        raise CodecError(
            f"graph-trace program decoded to {type(program).__name__}, "
            "expected a statement"
        )
    return GraphTrace(
        root=_decode_stmt_record(payload["root"], program),
        env_in=decode_value(payload["env_in"]),
        env_out=decode_value(payload["env_out"]),
        next_version=int(payload["next_version"]),
        visited_statements=int(payload["visited"]),
    )


# -- collections, stats, RNG state ------------------------------------------


def _encode_metadata(metadata: Any, num_particles: int) -> Any:
    if metadata is not None and len(metadata) != num_particles:
        # The decoder's constructor would refuse it: never write a
        # document that cannot be read back.
        raise CodecError(
            f"collection metadata has {len(metadata)} entries for "
            f"{num_particles} particles"
        )
    return encode_value(metadata)


def _encode_collection(collection: WeightedCollection) -> Dict[str, Any]:
    return {
        "items": [encode_value(item) for item in collection.items],
        "log_weights": [_encode_float(float(w)) for w in collection.log_weights],
        "metadata": _encode_metadata(collection.metadata, len(collection.items)),
    }


def _decode_collection(payload: Dict[str, Any]) -> WeightedCollection:
    items = [decode_value(item) for item in payload["items"]]
    log_weights = [float(decode_value(w)) for w in payload["log_weights"]]
    metadata = decode_value(payload["metadata"])
    try:
        return WeightedCollection(items, log_weights, metadata=metadata)
    except (TypeError, ValueError) as error:
        raise CodecError(f"malformed collection: {error}") from error


def _encode_columnar(collection: ColumnarCollection) -> Dict[str, Any]:
    """Address-major layout, one entry per address.

    The float64 columns ride on the ``$nd`` array encoding and the
    distribution templates on ``$dist`` (whose per-field encoding covers
    array-valued parameters), so the payload introduces no new leaf
    encodings — just the new aggregate tag.  The source-trace backref a
    freshly converted collection may hold is intentionally not stored:
    a decoded collection synthesizes object traces from its columns,
    which is value-identical.
    """
    return {
        "n": int(collection.num_particles),
        "log_weights": encode_value(collection.log_weights),
        "choices": [
            {
                "a": encode_value(address),
                "v": encode_value(collection.value_column(address)),
                "lp": encode_value(collection.log_prob_column(address)),
                "d": encode_value(collection.dist_template(address)),
                "k": collection.value_kind(address),
            }
            for address in collection.addresses()
        ],
        "obs": [
            {
                "a": encode_value(address),
                "v": encode_value(column.value),
                "vv": encode_value(column.varying_value),
                "lp": encode_value(column.log_probs),
                "d": encode_value(column.dist),
            }
            for address, column in (
                (a, collection._observations[a])
                for a in collection.observation_addresses()
            )
        ],
        "ret": encode_value(collection.return_value),
        "metadata": _encode_metadata(collection.metadata, collection.num_particles),
    }


def _decode_columnar(payload: Dict[str, Any]) -> ColumnarCollection:
    from ..core.columnar import _Column, _ObsColumn

    num = int(payload["n"])
    choice_order = []
    choices = {}
    for entry in payload["choices"]:
        address = decode_value(entry["a"])
        choice_order.append(address)
        choices[address] = _Column(
            decode_value(entry["v"]),
            decode_value(entry["lp"]),
            decode_value(entry["d"]),
            str(entry["k"]),
        )
    obs_order = []
    observations = {}
    for entry in payload["obs"]:
        address = decode_value(entry["a"])
        obs_order.append(address)
        observations[address] = _ObsColumn(
            decode_value(entry["v"]),
            decode_value(entry["lp"]),
            decode_value(entry["d"]),
            decode_value(entry["vv"]),
        )
    log_weights = decode_value(payload["log_weights"])
    return_value = decode_value(payload["ret"])
    metadata = decode_value(payload["metadata"])
    try:
        return ColumnarCollection(
            num,
            log_weights,
            tuple(choice_order),
            choices,
            tuple(obs_order),
            observations,
            return_value=return_value,
            metadata=metadata,
        )
    except (TypeError, ValueError) as error:
        raise CodecError(f"malformed columnar collection: {error}") from error


def _encode_rng(rng: np.random.Generator) -> Dict[str, Any]:
    return encode_value(rng.bit_generator.state)


def _decode_rng(state: Any) -> np.random.Generator:
    state = decode_value(state)
    name = state.get("bit_generator") if isinstance(state, dict) else None
    bit_generator_cls = getattr(np.random, name, None) if isinstance(name, str) else None
    if not (
        isinstance(bit_generator_cls, type)
        and issubclass(bit_generator_cls, np.random.BitGenerator)
        and bit_generator_cls is not np.random.BitGenerator
    ):
        raise CodecError(f"unknown bit generator in stored RNG state: {name!r}")
    bit_generator = bit_generator_cls()
    try:
        bit_generator.state = state
    except (KeyError, TypeError, ValueError) as error:
        raise CodecError(f"malformed {name} state in stored RNG: {error}") from error
    return np.random.Generator(bit_generator)


# -- the dispatcher ----------------------------------------------------------


def _identity(value: Any) -> Any:
    return value


#: ndarray dtype kinds stored as raw bytes: bool, int, uint, float.
_RAW_KINDS = frozenset("biuf")


def _encode_ndarray(value: np.ndarray) -> Any:
    if value.dtype.kind in _RAW_KINDS:
        little = value.dtype.newbyteorder("<")
        raw = value.astype(little, copy=False).tobytes(order="C")
        return {
            "$nd": {
                "dtype": little.str,
                "shape": list(value.shape),
                "b64": base64.b64encode(raw).decode("ascii"),
            }
        }
    return {
        "$nd": {
            "dtype": str(value.dtype),
            "shape": list(value.shape),
            "data": [encode_value(entry) for entry in value.ravel().tolist()],
        }
    }


def _decode_ndarray(payload: Any) -> np.ndarray:
    """Invert :func:`_encode_ndarray`, refusing malformed payloads.

    A ``b64`` payload must decode to exactly ``prod(shape) * itemsize``
    bytes, so the array is never larger than the document it came from.
    """
    shape = payload.get("shape") if isinstance(payload, dict) else None
    if not (
        isinstance(shape, list)
        and all(type(n) is int and n >= 0 for n in shape)
    ):
        raise CodecError(
            f"array shape must be a list of non-negative integers, got {shape!r}"
        )
    if "b64" not in payload:  # the element-list form
        data = payload.get("data")
        if not isinstance(data, list):
            raise CodecError("array payload has neither b64 bytes nor a data list")
        try:
            array = np.array(decode_value(data), dtype=payload.get("dtype"))
            return array.reshape(shape)
        except (TypeError, ValueError, OverflowError) as error:
            raise CodecError(f"malformed array payload: {error}") from error
    name = payload.get("dtype")
    try:
        dtype = np.dtype(name) if isinstance(name, str) else None
        raw = base64.b64decode(payload["b64"], validate=True)
    except (TypeError, ValueError) as error:
        raise CodecError(f"malformed array payload: {error}") from error
    if dtype is None or dtype.kind not in _RAW_KINDS:
        raise CodecError(f"array dtype {name!r} is not a bool, integer or float dtype")
    expected = math.prod(shape) * dtype.itemsize
    if len(raw) != expected:
        raise CodecError(
            f"array payload has {len(raw)} bytes, but dtype {name} and "
            f"shape {shape} need {expected}"
        )
    try:
        array = np.frombuffer(raw, dtype=dtype).reshape(shape)
    except ValueError as error:  # more dimensions than numpy supports
        raise CodecError(f"malformed array payload: {error}") from error
    return array.astype(dtype.newbyteorder("="))


def _encode_dict(value: Dict[Any, Any]) -> Any:
    if all(isinstance(k, str) and not k.startswith("$") for k in value):
        return {k: encode_value(v) for k, v in value.items()}
    return {"$d": [[encode_value(k), encode_value(v)] for k, v in value.items()]}


def _encode_distribution(value: Distribution) -> Any:
    name = type(value).__name__
    if name not in DISTRIBUTION_REGISTRY:
        raise CodecError(
            f"distribution {name} is not registered for serialization; "
            "only the classes exported by repro.distributions round-trip"
        )
    return {"$dist": name, "p": _encode_init_fields(value)}


def _encode_ast(value: lang_ast.Node) -> Any:
    name = type(value).__name__
    if name not in AST_REGISTRY:
        raise CodecError(f"AST node {name} is not registered for serialization")
    return {"$ast": name, "f": _encode_init_fields(value)}


def _encode_derivation(value: DerivationReport) -> Any:
    return {
        "$derep": {
            "source_name": value.source_name,
            "target_name": value.target_name,
            "matches": [
                {
                    "target": encode_value(m.target),
                    "source": encode_value(m.source),
                    "kind": m.kind,
                    "confidence": encode_value(m.confidence),
                    "evidence": m.evidence,
                }
                for m in value.matches
            ],
            "fresh": [encode_value(a) for a in value.fresh],
            "dropped": [encode_value(a) for a in value.dropped],
            "family_rules": encode_value(dict(value.family_rules)),
            "notes": list(value.notes),
            "source_complete": value.source_complete,
            "target_complete": value.target_complete,
        }
    }


Encoder = Callable[[Any], Any]

#: (base class, encoder) in precedence order: a value is encoded by the
#: first entry its type subclasses.  The order matters where a type has
#: two registered bases — ``numpy.float64`` is both a ``float`` (kept
#: as-is) and a ``numpy.floating`` (converted) — and it is what fixes
#: the bytes the codec writes.
_ENCODER_PRECEDENCE: Tuple[Tuple[type, Encoder], ...] = (
    (type(None), _identity),
    (bool, _identity),
    (str, _identity),
    (int, _identity),
    (float, _encode_float),
    (np.bool_, bool),
    (np.integer, int),
    (np.floating, lambda value: _encode_float(float(value))),
    (np.ndarray, _encode_ndarray),
    (tuple, lambda value: {"$t": [encode_value(entry) for entry in value]}),
    (list, lambda value: [encode_value(entry) for entry in value]),
    (dict, _encode_dict),
    (bytes, lambda value: {"$b": base64.b64encode(value).decode("ascii")}),
    (Distribution, _encode_distribution),
    (lang_ast.Node, _encode_ast),
    (Trace, lambda value: {"$trace": _encode_trace(value)}),
    (GraphTrace, lambda value: {"$graph": _encode_graph_trace(value)}),
    (WeightedCollection, lambda value: {"$coll": _encode_collection(value)}),
    (ColumnarCollection, lambda value: {"$ccoll": _encode_columnar(value)}),
    (SMCStats, lambda value: {"$stats": _encode_init_fields(value)}),
    (DerivationReport, _encode_derivation),
    (np.random.Generator, lambda value: {"$rng": _encode_rng(value)}),
)

#: Exact type -> encoder, filled on a type's first encoding.
_ENCODERS: Dict[type, Encoder] = {}


def _resolve_encoder(cls: type) -> Optional[Encoder]:
    for base, encoder in _ENCODER_PRECEDENCE:
        if issubclass(cls, base):
            _ENCODERS[cls] = encoder
            return encoder
    return None


def encode_value(value: Any) -> Any:
    """Encode any supported value into the tagged strict-JSON form."""
    encoder = _ENCODERS.get(type(value)) or _resolve_encoder(type(value))
    if encoder is None:
        raise CodecError(
            f"cannot serialize {type(value).__name__} value {value!r}; "
            "see repro.store.codec for the supported kinds"
        )
    return encoder(value)


_NONFINITE = {"inf": float("inf"), "-inf": float("-inf"), "nan": float("nan")}


def decode_value(value: Any) -> Any:
    """Invert :func:`encode_value`."""
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, list):
        return [decode_value(entry) for entry in value]
    if not isinstance(value, dict):
        raise CodecError(f"cannot decode {type(value).__name__} value {value!r}")
    if len(value) == 1 or len(value) == 2:
        tag = next(iter(value))
        if tag == "$f":
            try:
                return _NONFINITE[value["$f"]]
            except KeyError:
                raise CodecError(f"unknown float tag {value['$f']!r}") from None
        if tag == "$t":
            return tuple(decode_value(entry) for entry in value["$t"])
        if tag == "$d":
            return {
                decode_value(k): decode_value(v) for k, v in value["$d"]
            }
        if tag == "$b":
            return base64.b64decode(value["$b"])
        if tag == "$nd":
            return _decode_ndarray(value["$nd"])
        if tag == "$dist":
            name = value["$dist"]
            cls = DISTRIBUTION_REGISTRY.get(name)
            if cls is None:
                raise CodecError(f"unknown distribution class in document: {name!r}")
            params = {k: decode_value(v) for k, v in value["p"].items()}
            return cls(**params)
        if tag == "$ast":
            name = value["$ast"]
            cls = AST_REGISTRY.get(name)
            if cls is None:
                raise CodecError(f"unknown AST node class in document: {name!r}")
            fields = {k: decode_value(v) for k, v in value["f"].items()}
            return cls(**fields)
        if tag == "$trace":
            return _decode_trace(value["$trace"])
        if tag == "$graph":
            return _decode_graph_trace(value["$graph"])
        if tag == "$coll":
            return _decode_collection(value["$coll"])
        if tag == "$ccoll":
            return _decode_columnar(value["$ccoll"])
        if tag == "$stats":
            fields = {k: decode_value(v) for k, v in value["$stats"].items()}
            return SMCStats(**fields)
        if tag == "$derep":
            payload = value["$derep"]
            return DerivationReport(
                source_name=payload["source_name"],
                target_name=payload["target_name"],
                matches=[
                    AddressMatch(
                        target=decode_value(m["target"]),
                        source=decode_value(m["source"]),
                        kind=m["kind"],
                        confidence=decode_value(m["confidence"]),
                        evidence=m["evidence"],
                    )
                    for m in payload["matches"]
                ],
                fresh=[decode_value(a) for a in payload["fresh"]],
                dropped=[decode_value(a) for a in payload["dropped"]],
                family_rules=decode_value(payload["family_rules"]),
                notes=list(payload["notes"]),
                source_complete=payload["source_complete"],
                target_complete=payload["target_complete"],
            )
        if tag == "$rng":
            return _decode_rng(value["$rng"])
        if tag.startswith("$"):
            raise CodecError(f"unknown codec tag {tag!r}")
    return {k: decode_value(v) for k, v in value.items()}


# ---------------------------------------------------------------------------
# Documents and the wire format
# ---------------------------------------------------------------------------


def serialize(obj: Any) -> Dict[str, Any]:
    """Wrap ``obj`` in a versioned, strict-JSON-able document."""
    return {
        "format": _FORMAT_NAME,
        "schema": SCHEMA_VERSION,
        "value": encode_value(obj),
    }


def check_schema(found: Any) -> int:
    """Validate a document's schema version against this library's."""
    if not isinstance(found, int):
        raise CodecError(f"document schema version is not an integer: {found!r}")
    if found > SCHEMA_VERSION:
        raise SchemaVersionError(
            f"document has schema version {found}, but this library supports "
            f"up to {SCHEMA_VERSION}; upgrade the library (or re-create the "
            "state) instead of downgrading the data",
            found=found,
            supported=SCHEMA_VERSION,
        )
    return found


def deserialize(document: Dict[str, Any]) -> Any:
    """Invert :func:`serialize`, enforcing the schema policy."""
    if not isinstance(document, dict) or "schema" not in document or "value" not in document:
        raise CodecError("not a repro-store document (missing schema/value)")
    declared = document.get("format", _FORMAT_NAME)
    if declared != _FORMAT_NAME:
        raise CodecError(f"unknown document format {declared!r}")
    check_schema(document["schema"])
    return decode_value(document["value"])


def dumps(obj: Any) -> bytes:
    """Serialize ``obj`` to canonical strict JSON bytes.

    Sorted keys, no whitespace, UTF-8 — so equal objects produce equal
    bytes, which is what the kill-and-resume equivalence check compares.
    """
    return json.dumps(
        serialize(obj), sort_keys=True, separators=(",", ":"), allow_nan=False
    ).encode("utf-8")


def loads(data: bytes) -> Any:
    """Invert :func:`dumps`.

    A body in the retired binary framing raises
    :class:`~repro.errors.SchemaVersionError` without being decoded.
    """
    if not isinstance(data, (bytes, bytearray)):
        raise CodecError(f"loads expects bytes, got {type(data).__name__}")
    data = bytes(data)
    if data.startswith(_RETIRED_BINARY_MAGIC):
        raise SchemaVersionError(
            "document uses the retired binary framing, which this "
            "library no longer reads; re-create the state as JSON",
            supported=SCHEMA_VERSION,
        )
    try:
        document = json.loads(data.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as error:
        raise CodecError(f"cannot parse JSON document: {error}") from error
    return deserialize(document)
