"""Shard worker processes: the scale-out half of the inference service.

With ``ServiceConfig(shard_processes=N)`` the service splits into a
*router* process and ``N`` *shard* processes:

* the **router** (:class:`~repro.service.server.InferenceService` in
  process mode) keeps everything cheap and global — the asyncio front
  end, admission control, per-tenant quotas, deadlines, backpressure,
  and the degradation ladder — and forwards admitted requests over the
  existing framed codec wire format (:mod:`repro.service.wire`) to the
  shard that owns the session;
* each **shard process** (this module's :class:`ShardServer`, spawned as
  ``python -m repro.service.shard``) runs its own
  :class:`~repro.store.session.SessionManager` over the *shared*
  ``store_dir``, so inference work runs on real cores instead of being
  GIL-capped, and every commit lands in the same fsynced snapshot store
  the single-process service uses.

Placement and failover
----------------------

Sessions are spread over shard processes by the rendezvous-hashed
:class:`~repro.service.placement.PlacementMap`.  Shards recover sessions
**lazily**: a shard that receives an op for a session it does not hold
live replays that session's newest valid commit snapshot from the shared
store.  That single property is what makes failover lossless: the commit
protocol is write-ahead-of-ack, so when a shard process is SIGKILLed the
replica (the rendezvous runner-up) rebuilds exactly the acknowledged
state — byte-identical snapshots, nothing in the dead process's memory
was ever part of the contract.  With ``replicate=True`` the router also
pushes a ``replicate`` op to the runner-up after every acked mutation,
keeping a warm in-memory copy there so degraded reads during recovery
come from memory instead of disk.

Version negotiation
-------------------

The first frame the router sends on every shard connection is a
``hello`` carrying :data:`~repro.service.wire.WIRE_SCHEMA`.  A shard
built against an *older* schema refuses the handshake with a structured
``schema_version`` error, which the router surfaces as
:class:`~repro.errors.SchemaVersionError` — ``repro serve`` maps it to
exit code 2 (usage/configuration), the same rung as a newer-schema
checkpoint.  The ``--wire-schema`` flag of the module entry point exists
so tests can stand up a deliberately old shard without an old build.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import socket
import tempfile
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from functools import partial
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

from ..errors import (
    BadRequestError,
    SchemaVersionError,
    ServiceUnavailableError,
    SessionError,
)
from ..observability import MetricsRegistry
from ..parallel.worker import python_argv, spawn_ready_process, stop_process
from ..store.codec import dumps, loads
from ..store.session import _check_session_id
from .client import _LENGTH, _read_exact
from .config import ServiceConfig
from .server import DeadlineHooks, execute_op
from .state import DurableSessionStore
from .wire import (
    SHARD_OPS,
    WIRE_SCHEMA,
    FrameError,
    encode_error,
    encode_hello,
    encode_ok,
    raise_for_response,
    read_frame,
    write_frame,
)

__all__ = [
    "ShardServer",
    "ShardLink",
    "ShardProcessHandle",
    "ShardProcessPool",
    "main",
]

#: Concurrent blocking handlers per shard process.  The owning lane's
#: ops arrive serialized on one connection, so extra workers only serve
#: cross-lane traffic (replicate / release) — a small pool keeps a warm
#: replica refresh from queueing behind a long translation.
_SHARD_WORKERS = 4


class ShardServer:
    """One shard process's request loop over its own session store.

    Speaks :data:`~repro.service.wire.SHARD_OPS` on the framed codec
    protocol.  Admission control already happened in the router, so this
    server does only the work: lazy recovery, tenant ownership, the
    op itself, and the write-ahead commit inside the store call.

    Parameters
    ----------
    config:
        The service config (the shard uses ``store_dir``, ``collection``,
        ``checkpoint_keep``, ``session_capacity``, ``num_particles``,
        ``max_frame_bytes``).
    shard_id:
        This process's member index in the placement map (telemetry and
        handshake echo only — placement lives in the router).
    wire_schema:
        The newest request schema this shard accepts.  Overridable so
        tests can simulate an older build refusing a newer router.
    """

    def __init__(
        self,
        config: ServiceConfig,
        shard_id: int = 0,
        *,
        wire_schema: int = WIRE_SCHEMA,
        metrics: Optional[MetricsRegistry] = None,
    ):
        # The shard never spawns processes of its own, whatever the
        # router-side config says.
        self.config = config.replace(shard_processes=0, port=0)
        self.shard_id = int(shard_id)
        self.wire_schema = int(wire_schema)
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.store = DurableSessionStore(self.config)
        self._executor = ThreadPoolExecutor(
            max_workers=_SHARD_WORKERS,
            thread_name_prefix=f"repro-shardproc-{shard_id}",
        )
        self._server: Optional[asyncio.AbstractServer] = None
        self.started = asyncio.Event()
        self.host: Optional[str] = None
        self.port: Optional[int] = None
        self.completed = 0

    # -- lifecycle -------------------------------------------------------------

    async def serve(self) -> None:
        """Bind and accept until cancelled.  No recovery sweep here:
        sessions are recovered lazily, one by one, as ops arrive."""
        self._server = await asyncio.start_server(
            self._handle_connection, self.config.host, 0
        )
        sockname = self._server.sockets[0].getsockname()
        self.host, self.port = sockname[0], sockname[1]
        self.started.set()
        try:
            await self._server.serve_forever()
        except asyncio.CancelledError:
            pass

    async def stop(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        self._executor.shutdown(wait=False, cancel_futures=True)

    # -- connections -----------------------------------------------------------

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            while True:
                try:
                    request = await read_frame(
                        reader, max_bytes=self.config.max_frame_bytes
                    )
                except FrameError as error:
                    await write_frame(writer, encode_error(error))
                    break
                if request is None:
                    break
                response = await self._handle(request)
                await write_frame(writer, response)
        except (ConnectionResetError, BrokenPipeError, asyncio.CancelledError):
            pass
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError, asyncio.CancelledError):
                pass

    async def _handle(self, request: Any) -> Dict[str, Any]:
        try:
            if not isinstance(request, dict):
                raise BadRequestError(
                    f"request must be a document, got {type(request).__name__}"
                )
            op = request.get("op")
            if op not in SHARD_OPS:
                raise BadRequestError(
                    f"unknown op {op!r}; expected one of {list(SHARD_OPS)}"
                )
            if op == "hello":
                return encode_ok(self._hello(request))
            if op == "ping":
                return encode_ok({"pong": True, "shard": self.shard_id})
            if op == "stats":
                return encode_ok(self.stats())
            result = await asyncio.get_running_loop().run_in_executor(
                self._executor, partial(self._execute, op, request)
            )
            self.completed += 1
            return encode_ok(result)
        except BaseException as error:  # noqa: BLE001 — every error answers
            return encode_error(error)

    # -- version negotiation ---------------------------------------------------

    def _hello(self, request: Dict[str, Any]) -> Dict[str, Any]:
        """Accept or refuse the router's announced schema.

        A router speaking a *newer* schema than this build supports is
        refused with a structured ``schema_version`` error — forwarded
        requests could otherwise carry shapes this shard would silently
        mis-handle.  An older router is fine (schemas only add fields).
        """
        found = int(request.get("wire_schema", 0))
        if found > self.wire_schema:
            raise SchemaVersionError(
                f"shard {self.shard_id} speaks wire schema "
                f"{self.wire_schema}, router announced {found}; "
                "upgrade the shard build before scaling out",
                found=found,
                supported=self.wire_schema,
            )
        return {
            "wire_schema": self.wire_schema,
            "shard": self.shard_id,
            "pid": os.getpid(),
        }

    # -- the blocking work (executor threads) ----------------------------------

    def _ensure_live(self, session_id: str) -> None:
        """Lazy recovery: pull the session from the shared store on
        first touch.  This is the failover mechanism — nothing more."""
        try:
            self.store.meta(session_id)
            return
        except SessionError:
            pass
        if not self.store.recover_session(session_id):
            raise SessionError(f"unknown session {session_id!r}")

    def _execute(self, op: str, request: Dict[str, Any]) -> Any:
        session_id = request.get("session")
        if not isinstance(session_id, str):
            raise BadRequestError("request needs a 'session' id")
        _check_session_id(session_id)

        if op == "replicate":
            refreshed = self.store.recover_session(session_id)
            self.metrics.counter("shard.replications").inc()
            return {"session": session_id, "replicated": refreshed}
        if op == "release":
            released = self.store.release_session(session_id)
            self.metrics.counter("shard.releases").inc()
            return {"session": session_id, "released": released}

        tenant = request.get("tenant")
        if not isinstance(tenant, str) or not tenant:
            raise BadRequestError("request needs a non-empty 'tenant'")
        hooks = None
        deadline_s = request.get("deadline_s")
        if deadline_s is not None:
            hooks = DeadlineHooks(time.monotonic() + float(deadline_s))
        return execute_op(
            self.store, op, tenant, session_id, request, hooks,
            ensure_live=self._ensure_live,
        )

    # -- introspection ---------------------------------------------------------

    def stats(self) -> Dict[str, Any]:
        return {
            "shard": self.shard_id,
            "pid": os.getpid(),
            "wire_schema": self.wire_schema,
            "sessions": self.store.session_ids(),
            "live_sessions": self.store.manager.live_sessions(),
            "completed": self.completed,
            "metrics": self.metrics.to_dict(),
        }


# ---------------------------------------------------------------------------
# Router side: links and process lifecycle
# ---------------------------------------------------------------------------


class ShardLink:
    """One blocking connection from a router lane to a shard process.

    Thread-confined: each router lane's worker thread owns its own links
    (one per peer member), so no locking is needed.  Every (re)connect
    re-runs the ``hello`` negotiation — a respawned shard is re-vetted
    before any request reaches it.  The peer address is looked up
    through ``address_fn`` at connect time, because a respawned shard
    binds a fresh ephemeral port.
    """

    def __init__(
        self,
        member: int,
        address_fn: Callable[[], Tuple[str, int]],
        *,
        timeout_s: float = 30.0,
        shard_id: Optional[int] = None,
    ):
        self.member = int(member)
        self.address_fn = address_fn
        self.timeout_s = float(timeout_s)
        self.shard_id = shard_id
        self.peer_schema: Optional[int] = None
        self._sock: Optional[socket.socket] = None

    def connect(self) -> "ShardLink":
        if self._sock is not None:
            return self
        host, port = self.address_fn()
        try:
            self._sock = socket.create_connection(
                (host, port), timeout=self.timeout_s
            )
        except OSError as error:
            raise ServiceUnavailableError(
                f"cannot reach shard {self.member} at {host}:{port}: {error}"
            ) from error
        try:
            info = self._roundtrip(encode_hello(self.shard_id), self.timeout_s)
        except SchemaVersionError:
            self.close()
            raise
        except Exception:
            self.close()
            raise
        self.peer_schema = int(info.get("wire_schema", 0)) if isinstance(info, dict) else None
        return self

    def close(self) -> None:
        if self._sock is not None:
            try:
                self._sock.close()
            finally:
                self._sock = None

    def _roundtrip(self, payload: Dict[str, Any], timeout_s: float) -> Any:
        sock = self._sock
        assert sock is not None
        try:
            sock.settimeout(timeout_s)
            body = dumps(payload)
            sock.sendall(_LENGTH.pack(len(body)) + body)
            (length,) = _LENGTH.unpack(_read_exact(sock, _LENGTH.size))
            response = loads(_read_exact(sock, length))
        except ServiceUnavailableError:
            self.close()
            raise
        except (OSError, ValueError) as error:
            self.close()
            raise ServiceUnavailableError(
                f"transport failure talking to shard {self.member}: {error}"
            ) from error
        return raise_for_response(response)

    def call(
        self, payload: Dict[str, Any], *, timeout_s: Optional[float] = None
    ) -> Any:
        """One forwarded request; raises the shard's typed error.

        Transport failures poison the connection and surface as
        retryable :class:`~repro.errors.ServiceUnavailableError` — the
        router treats them as a death signal for this member.
        """
        self.connect()
        return self._roundtrip(
            payload, self.timeout_s if timeout_s is None else float(timeout_s)
        )


class ShardProcessHandle:
    """Lifecycle of one spawned ``python -m repro.service.shard``.

    Readiness is the port-file handshake from
    :func:`repro.parallel.worker.spawn_ready_process`: the child writes
    ``<port>\\n<pid>`` only once its socket is bound, so a returned
    handle is always connectable.
    """

    def __init__(
        self,
        member: int,
        config_path: Path,
        run_dir: Path,
        *,
        timeout_s: float = 30.0,
        wire_schema: Optional[int] = None,
    ):
        self.member = int(member)
        self.config_path = Path(config_path)
        self.run_dir = Path(run_dir)
        self.timeout_s = float(timeout_s)
        self.wire_schema = wire_schema
        self.process: Optional[Any] = None
        self.host = "127.0.0.1"
        self.port: Optional[int] = None
        self.spawns = 0

    def spawn(self) -> "ShardProcessHandle":
        ready_file = self.run_dir / f"shard-{self.member}.port"
        argv = python_argv(
            "repro.service.shard",
            "--config", str(self.config_path),
            "--shard-id", str(self.member),
            "--port-file", str(ready_file),
            "--parent-pid", str(os.getpid()),
        )
        if self.wire_schema is not None:
            argv += ["--wire-schema", str(self.wire_schema)]
        self.process, content = spawn_ready_process(
            argv, ready_file, timeout_s=self.timeout_s
        )
        self.port = int(content.split()[0])
        self.spawns += 1
        return self

    @property
    def pid(self) -> Optional[int]:
        return None if self.process is None else self.process.pid

    def alive(self) -> bool:
        return self.process is not None and self.process.poll() is None

    def address(self) -> Tuple[str, int]:
        if self.port is None:
            raise ServiceUnavailableError(
                f"shard {self.member} has not completed its handshake"
            )
        return (self.host, self.port)

    def kill(self) -> None:
        """SIGKILL, no grace — the chaos drill's weapon."""
        if self.process is not None:
            try:
                self.process.kill()
            except OSError:
                pass
            try:
                self.process.wait(timeout=5.0)
            except Exception:
                pass

    def stop(self) -> Optional[int]:
        if self.process is None:
            return None
        return stop_process(self.process)


class ShardProcessPool:
    """Spawn, probe, respawn, and stop the shard process fleet.

    The pool owns a scratch run directory holding the serialized config
    and the per-member port files.  :meth:`start` performs the ``hello``
    probe against every member, so a schema mismatch fails the router's
    startup — before any client traffic — with
    :class:`~repro.errors.SchemaVersionError`.
    """

    def __init__(
        self,
        config: ServiceConfig,
        *,
        run_dir: Optional[Any] = None,
        wire_schema: Optional[int] = None,
    ):
        if config.shard_processes < 1:
            raise ValueError("ShardProcessPool needs shard_processes >= 1")
        self.config = config
        self._own_run_dir = run_dir is None
        self.run_dir = Path(
            tempfile.mkdtemp(prefix="repro-shards-") if run_dir is None else run_dir
        )
        self.run_dir.mkdir(parents=True, exist_ok=True)
        self.config_path = self.run_dir / "shard-config.json"
        self.config_path.write_text(json.dumps(config.to_dict(), indent=2))
        self.handles: Dict[int, ShardProcessHandle] = {
            member: ShardProcessHandle(
                member,
                self.config_path,
                self.run_dir,
                timeout_s=config.shard_start_timeout_s,
                wire_schema=wire_schema,
            )
            for member in range(config.shard_processes)
        }

    def start(self) -> None:
        """Spawn every member and hello-probe each one."""
        try:
            for handle in self.handles.values():
                handle.spawn()
            for member in self.handles:
                self.probe(member)
        except BaseException:
            self.stop_all()
            raise

    def probe(self, member: int) -> Dict[str, Any]:
        """One-shot hello round trip (version negotiation)."""
        link = ShardLink(
            member,
            self.handles[member].address,
            timeout_s=self.config.shard_start_timeout_s,
        )
        try:
            link.connect()
            return {"member": member, "wire_schema": link.peer_schema}
        finally:
            link.close()

    def address(self, member: int) -> Tuple[str, int]:
        return self.handles[member].address()

    def is_alive(self, member: int) -> bool:
        return self.handles[member].alive()

    def poll_dead(self) -> List[int]:
        return [m for m, handle in self.handles.items() if not handle.alive()]

    def respawn(self, member: int) -> None:
        """Bring a dead member back (fresh process, fresh port)."""
        self.handles[member].spawn()
        self.probe(member)

    def kill(self, member: int) -> None:
        self.handles[member].kill()

    def stop_all(self) -> None:
        for handle in self.handles.values():
            try:
                handle.stop()
            except Exception:
                pass

    def pids(self) -> Dict[int, Optional[int]]:
        return {m: handle.pid for m, handle in self.handles.items()}


# ---------------------------------------------------------------------------
# Process entry point
# ---------------------------------------------------------------------------


def _parent_watchdog(parent_pid: int) -> None:
    """Exit when the router dies — a SIGKILLed router must not leak a
    fleet of orphan shard processes."""
    while True:
        time.sleep(1.0)
        if os.getppid() != parent_pid:
            os._exit(0)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.service.shard",
        description="One inference-service shard worker process.",
    )
    parser.add_argument("--config", required=True,
                        help="path to the serialized ServiceConfig (JSON)")
    parser.add_argument("--shard-id", type=int, required=True)
    parser.add_argument("--port-file", required=True,
                        help="readiness handshake: '<port>\\n<pid>' is "
                             "written here once the socket is bound")
    parser.add_argument("--parent-pid", type=int, default=None,
                        help="exit if reparented away from this pid")
    parser.add_argument("--wire-schema", type=int, default=WIRE_SCHEMA,
                        help="advertised request-schema version "
                             "(test seam for negotiation drills)")
    args = parser.parse_args(argv)

    with open(args.config, "r") as handle:
        fields = json.load(handle)
    config = ServiceConfig(**fields)

    if args.parent_pid is not None:
        threading.Thread(
            target=_parent_watchdog, args=(args.parent_pid,), daemon=True
        ).start()

    server = ShardServer(config, args.shard_id, wire_schema=args.wire_schema)

    async def run() -> None:
        serve_task = asyncio.ensure_future(server.serve())
        await server.started.wait()
        # Atomic publish: a reader never sees a half-written port.
        port_file = Path(args.port_file)
        tmp = port_file.with_name(f".tmp-{port_file.name}-{os.getpid()}")
        tmp.write_text(f"{server.port}\n{os.getpid()}\n")
        os.replace(tmp, port_file)
        await serve_task

    try:
        asyncio.run(run())
    except KeyboardInterrupt:
        pass
    return 0


if __name__ == "__main__":  # pragma: no cover — exercised via subprocess
    raise SystemExit(main())
