"""The service wire protocol: framed codec documents + error mapping.

Every message — request or response — is one frame::

    4-byte big-endian unsigned length | body

where the body is a :mod:`repro.store.codec` document (canonical strict
JSON), so anything the store can persist, the service can
ship: posterior summaries with exact float fidelity, non-finite log
weights, numpy scalars.  The frame length is checked against a hard cap
*before* the body is read, so a poison length prefix cannot make the
server buffer gigabytes.

Requests are dicts with an ``op`` plus op-specific fields; responses are
``{"ok": True, "result": ...}`` or ``{"ok": False, "error": {...}}``.
The error payload is the wire image of the
:class:`~repro.errors.ServiceError` taxonomy — ``code``, ``message``,
``retryable``, and optional ``retry_after_s`` — and
:func:`decode_error` maps it back to the same exception class on the
client, so ``except QuotaExceededError`` works across the network.
"""

from __future__ import annotations

import asyncio
import struct
from typing import Any, Dict, Optional, Type

from ..errors import (
    BadRequestError,
    DeadlineExceededError,
    OverloadedError,
    QuotaExceededError,
    SchemaVersionError,
    ServiceError,
    ServiceUnavailableError,
    SessionError,
)
from ..store.codec import dumps, loads

__all__ = [
    "MAX_FRAME_BYTES",
    "OPS",
    "SHARD_OPS",
    "WIRE_SCHEMA",
    "ERROR_CLASSES",
    "FrameError",
    "read_frame",
    "write_frame",
    "encode_request",
    "encode_hello",
    "encode_ok",
    "encode_error",
    "decode_error",
    "raise_for_response",
]

#: Default hard cap on frame bodies (overridden per-server by
#: ``ServiceConfig.max_frame_bytes``).
MAX_FRAME_BYTES = 16 * 1024 * 1024

#: The operations the server dispatches.
OPS = ("create", "observe", "edit", "posterior", "close", "stats", "ping")

#: The request-schema version this build speaks.  The router announces
#: it in the ``hello`` handshake when it connects to a shard process; a
#: shard that only supports an *older* schema refuses the handshake with
#: a structured ``schema_version`` error (mapped back to
#: :class:`~repro.errors.SchemaVersionError`, which ``repro serve``
#: surfaces with exit code 2 — the same taxonomy rung as a newer-schema
#: checkpoint).  Bump on any incompatible change to the request shapes
#: the router forwards.
WIRE_SCHEMA = 1

#: Extra operations spoken only on the router <-> shard-process link
#: (:mod:`repro.service.shard`), on top of :data:`OPS`:
#:
#: * ``hello`` — version negotiation (carries ``wire_schema``);
#: * ``replicate`` — refresh the shard's warm in-memory replica of a
#:   session from the shared commit store;
#: * ``release`` — drop the live copy of a session without touching its
#:   durable state (placement moved it to another shard).
SHARD_OPS = OPS + ("hello", "replicate", "release")

_LENGTH = struct.Struct(">I")


class FrameError(BadRequestError):
    """The connection carried bytes that are not a valid frame."""


#: code -> exception class, the client-side inverse of ``encode_error``.
ERROR_CLASSES: Dict[str, Type[ServiceError]] = {
    cls.code: cls
    for cls in (
        BadRequestError,
        QuotaExceededError,
        OverloadedError,
        DeadlineExceededError,
        ServiceUnavailableError,
    )
}


async def read_frame(
    reader: asyncio.StreamReader, *, max_bytes: int = MAX_FRAME_BYTES
) -> Optional[Any]:
    """Read one frame; None on clean EOF; :class:`FrameError` on poison.

    The length prefix is validated against ``max_bytes`` before any body
    byte is read, so an adversarial prefix cannot force unbounded
    buffering.
    """
    try:
        prefix = await reader.readexactly(_LENGTH.size)
    except asyncio.IncompleteReadError as error:
        if not error.partial:
            return None  # clean EOF between frames
        raise FrameError("connection closed mid-frame") from error
    (length,) = _LENGTH.unpack(prefix)
    if length > max_bytes:
        raise FrameError(
            f"frame of {length} bytes exceeds the {max_bytes}-byte limit"
        )
    try:
        body = await reader.readexactly(length)
    except asyncio.IncompleteReadError as error:
        raise FrameError("connection closed mid-frame") from error
    try:
        return loads(body)
    except Exception as error:  # CodecError, incl. retired-format bodies
        raise FrameError(f"frame body is not a codec document: {error}") from error


def frame_bytes(payload: Any) -> bytes:
    """The full wire image of one message (length prefix + codec body)."""
    body = dumps(payload)
    return _LENGTH.pack(len(body)) + body


async def write_frame(writer: asyncio.StreamWriter, payload: Any) -> None:
    writer.write(frame_bytes(payload))
    await writer.drain()


def encode_request(op: str, **kwargs: Any) -> Dict[str, Any]:
    request = {"op": op}
    request.update({k: v for k, v in kwargs.items() if v is not None})
    return request


def encode_hello(shard_id: Optional[int] = None) -> Dict[str, Any]:
    """The router's handshake frame: which schema it is about to speak."""
    hello: Dict[str, Any] = {"op": "hello", "wire_schema": WIRE_SCHEMA}
    if shard_id is not None:
        hello["shard"] = int(shard_id)
    return hello


def encode_ok(result: Any) -> Dict[str, Any]:
    return {"ok": True, "result": result}


def encode_error(error: BaseException) -> Dict[str, Any]:
    """The structured rejection payload for any exception.

    Service errors carry their own code/retryability; a
    :class:`~repro.errors.SessionError` maps to ``bad_request`` (the
    client named a session that does not exist or already does); any
    other exception becomes a non-retryable ``internal`` error — the
    connection survives, the payload says what broke.
    """
    if isinstance(error, ServiceError):
        payload: Dict[str, Any] = {
            "code": error.code,
            "message": str(error),
            "retryable": bool(error.retryable),
        }
        if error.retry_after_s is not None:
            payload["retry_after_s"] = float(error.retry_after_s)
        if isinstance(error, QuotaExceededError):
            if error.quota:
                payload["quota"] = error.quota
            if error.limit is not None:
                payload["limit"] = int(error.limit)
        return {"ok": False, "error": payload}
    if isinstance(error, SchemaVersionError):
        # Version negotiation: an older shard refusing a newer router
        # schema (or a newer-schema document on the wire).  Structured
        # and non-retryable — the operator has mismatched builds.
        payload = {
            "code": "schema_version",
            "message": str(error),
            "retryable": False,
        }
        if error.found is not None:
            payload["found"] = int(error.found)
        if error.supported is not None:
            payload["supported"] = int(error.supported)
        return {"ok": False, "error": payload}
    if isinstance(error, SessionError):
        return {
            "ok": False,
            "error": {
                "code": "bad_request",
                "message": str(error),
                "retryable": False,
            },
        }
    return {
        "ok": False,
        "error": {
            "code": "internal",
            "message": f"{type(error).__name__}: {error}",
            "retryable": False,
        },
    }


def decode_error(payload: Dict[str, Any]) -> Exception:
    """Rebuild the typed exception from a rejection payload."""
    if not isinstance(payload, dict):
        return ServiceUnavailableError(f"malformed error payload: {payload!r}")
    code = payload.get("code", "internal")
    message = payload.get("message", code)
    retry_after = payload.get("retry_after_s")
    if code == "schema_version":
        return SchemaVersionError(
            message,
            found=payload.get("found"),
            supported=payload.get("supported"),
        )
    cls = ERROR_CLASSES.get(code)
    if cls is QuotaExceededError:
        return QuotaExceededError(
            message,
            quota=payload.get("quota", ""),
            limit=payload.get("limit"),
            retry_after_s=retry_after,
        )
    if cls is not None:
        return cls(message, retry_after_s=retry_after)
    error = ServiceError(message, retry_after_s=retry_after)
    error.retryable = bool(payload.get("retryable", False))
    return error


def raise_for_response(response: Any) -> Any:
    """Return ``result`` from an ok response, raise the typed error otherwise."""
    if not isinstance(response, dict) or "ok" not in response:
        raise ServiceUnavailableError(f"malformed response: {response!r}")
    if response["ok"]:
        return response.get("result")
    raise decode_error(response.get("error") or {})
