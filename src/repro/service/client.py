"""Blocking clients for the inference service.

:class:`ServiceClient` is the thin one: one TCP connection, framed codec
messages, typed exceptions.  It deliberately raises exactly what the
server rejected with — ``except QuotaExceededError`` works across the
network — and maps transport failures (refused, reset, hung up
mid-frame) to :class:`~repro.errors.ServiceUnavailableError`, which is
retryable because the server may restart and recover.

:class:`RetryingClient` wraps it with the client half of the
backpressure contract: retryable rejections are retried with capped
exponential backoff and *full jitter*, and a server-supplied
``retry_after_s`` (the queue-drain estimate) acts as the floor of the
next delay — the server knows how long the queue is, the jitter keeps a
thundering herd from re-arriving in lockstep.  The RNG and the sleep
function are injectable, so tests drive retries deterministically with
no wall-clock sleeping.
"""

from __future__ import annotations

import random
import socket
import struct
from typing import Any, Callable, Dict, List, Optional, Tuple

from ..errors import ServiceError, ServiceUnavailableError
from ..store.codec import dumps, loads
from .wire import raise_for_response

__all__ = ["ServiceClient", "RetryingClient", "call_service"]

_LENGTH = struct.Struct(">I")


def _read_exact(sock: socket.socket, count: int) -> bytes:
    chunks: List[bytes] = []
    remaining = count
    while remaining > 0:
        chunk = sock.recv(remaining)
        if not chunk:
            raise ServiceUnavailableError("server hung up mid-frame")
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


class ServiceClient:
    """One blocking connection to an :class:`InferenceService`.

    Parameters
    ----------
    host / port:
        The server's bound address.
    tenant:
        Tenant id stamped on every request (admission control keys on
        it).
    timeout_s:
        Socket timeout for connect and each response; a timeout maps to
        :class:`~repro.errors.ServiceUnavailableError` (the server may
        be wedged — the caller can fall back to a degraded read or
        retry).
    """

    def __init__(
        self,
        host: str,
        port: int,
        *,
        tenant: str = "default",
        timeout_s: float = 30.0,
    ):
        self.host = host
        self.port = int(port)
        self.tenant = tenant
        self.timeout_s = float(timeout_s)
        self._sock: Optional[socket.socket] = None

    # -- connection ------------------------------------------------------------

    def connect(self) -> "ServiceClient":
        if self._sock is None:
            try:
                self._sock = socket.create_connection(
                    (self.host, self.port), timeout=self.timeout_s
                )
            except OSError as error:
                raise ServiceUnavailableError(
                    f"cannot reach service at {self.host}:{self.port}: {error}"
                ) from error
        return self

    def close(self) -> None:
        if self._sock is not None:
            try:
                self._sock.close()
            finally:
                self._sock = None

    def __enter__(self) -> "ServiceClient":
        return self.connect()

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    # -- the request path ------------------------------------------------------

    def call(self, op: str, **fields: Any) -> Any:
        """One request/response round trip; returns the ``result`` or
        raises the server's typed error.

        Transport failures poison the connection (it is closed and
        re-opened on the next call) — a half-read frame is never
        resynchronized.
        """
        request: Dict[str, Any] = {"op": op, "tenant": self.tenant}
        request.update({k: v for k, v in fields.items() if v is not None})
        return self.call_raw(request)

    def call_raw(self, request: Dict[str, Any]) -> Any:
        """Ship an arbitrary request document verbatim.

        The seam the chaos drills and wire-negotiation tests use to send
        shard-link ops (``hello``, ``replicate``, ``release``) or
        deliberately malformed documents without fighting the op
        wrappers.  Error/transport semantics are identical to
        :meth:`call`.
        """
        self.connect()
        sock = self._sock
        assert sock is not None
        try:
            body = dumps(request)
            sock.sendall(_LENGTH.pack(len(body)) + body)
            (length,) = _LENGTH.unpack(_read_exact(sock, _LENGTH.size))
            response = loads(_read_exact(sock, length))
        except ServiceUnavailableError:
            self.close()
            raise
        except (OSError, struct.error) as error:
            self.close()
            raise ServiceUnavailableError(
                f"transport failure talking to {self.host}:{self.port}: {error}"
            ) from error
        return raise_for_response(response)

    # -- op wrappers -----------------------------------------------------------

    def create(
        self,
        session: str,
        program: str,
        *,
        env: Optional[Dict[str, Any]] = None,
        num_particles: Optional[int] = None,
        seed: Optional[int] = None,
        deadline_s: Optional[float] = None,
    ) -> Dict[str, Any]:
        return self.call(
            "create",
            session=session,
            program=program,
            env=env,
            num_particles=num_particles,
            seed=seed,
            deadline_s=deadline_s,
        )

    def observe(
        self, session: str, statement: str, *, deadline_s: Optional[float] = None
    ) -> Dict[str, Any]:
        return self.call(
            "observe", session=session, statement=statement, deadline_s=deadline_s
        )

    def edit(
        self, session: str, program: str, *, deadline_s: Optional[float] = None
    ) -> Dict[str, Any]:
        return self.call(
            "edit", session=session, program=program, deadline_s=deadline_s
        )

    def posterior(
        self, session: str, *, top: int = 10, deadline_s: Optional[float] = None
    ) -> Dict[str, Any]:
        return self.call(
            "posterior", session=session, top=top, deadline_s=deadline_s
        )

    def close_session(self, session: str) -> Dict[str, Any]:
        return self.call("close", session=session)

    def stats(self) -> Dict[str, Any]:
        return self.call("stats")

    def ping(self) -> Dict[str, Any]:
        return self.call("ping")


class RetryingClient:
    """Retry wrapper implementing the client half of backpressure.

    Parameters
    ----------
    client:
        The underlying :class:`ServiceClient` (or anything with its
        ``call`` signature).
    max_attempts:
        Total tries per request (first attempt included).
    backoff_base_s / backoff_cap_s:
        Exponential schedule: attempt *k* draws its delay uniformly from
        ``(0, min(cap, base * 2**k)]`` (full jitter).  A server
        ``retry_after_s`` hint raises the floor of that draw — never
        retry sooner than the server asked.
    rng:
        Seeded :class:`random.Random` for the jitter (deterministic
        tests; defaults to a fresh unseeded stream).
    sleep:
        Injectable sleep — tests pass a recorder, production leaves the
        default.
    """

    def __init__(
        self,
        client: ServiceClient,
        *,
        max_attempts: int = 5,
        backoff_base_s: float = 0.05,
        backoff_cap_s: float = 2.0,
        rng: Optional[random.Random] = None,
        sleep: Optional[Callable[[float], None]] = None,
    ):
        if int(max_attempts) < 1:
            raise ValueError(f"max_attempts must be >= 1, got {max_attempts!r}")
        self.client = client
        self.max_attempts = int(max_attempts)
        self.backoff_base_s = float(backoff_base_s)
        self.backoff_cap_s = float(backoff_cap_s)
        self.rng = rng if rng is not None else random.Random()
        import time as _time

        self.sleep = sleep if sleep is not None else _time.sleep
        #: Retry telemetry for the last ``call``: the delays slept.
        self.last_delays: List[float] = []
        #: Total retries performed over this wrapper's lifetime.
        self.total_retries = 0

    def backoff_delay(self, attempt: int, retry_after_s: Optional[float]) -> float:
        """The delay before retry number ``attempt`` (0-based)."""
        ceiling = min(self.backoff_cap_s, self.backoff_base_s * (2.0 ** attempt))
        delay = self.rng.uniform(0.0, ceiling)
        if retry_after_s is not None:
            delay = max(delay, float(retry_after_s))
        return delay

    def call(self, op: str, **fields: Any) -> Any:
        self.last_delays = []
        attempt = 0
        while True:
            try:
                return self.client.call(op, **fields)
            except ServiceError as error:
                if not error.retryable or attempt + 1 >= self.max_attempts:
                    raise
                delay = self.backoff_delay(attempt, error.retry_after_s)
                self.last_delays.append(delay)
                self.total_retries += 1
                self.sleep(delay)
                attempt += 1

    def __getattr__(self, name: str) -> Any:
        """Expose the op wrappers (``create``, ``observe``, ...) with retries."""
        inner = getattr(self.client, name)
        if not callable(inner):
            return inner

        def retrying(*args: Any, **kwargs: Any) -> Any:
            self.last_delays = []
            attempt = 0
            while True:
                try:
                    return inner(*args, **kwargs)
                except ServiceError as error:
                    if not error.retryable or attempt + 1 >= self.max_attempts:
                        raise
                    delay = self.backoff_delay(attempt, error.retry_after_s)
                    self.last_delays.append(delay)
                    self.total_retries += 1
                    self.sleep(delay)
                    attempt += 1

        return retrying


def call_service(
    address: Tuple[str, int], op: str, *, tenant: str = "default", **fields: Any
) -> Any:
    """One-shot convenience: connect, call, close."""
    with ServiceClient(address[0], address[1], tenant=tenant) as client:
        return client.call(op, **fields)
