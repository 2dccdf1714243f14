"""The asyncio inference server: admission, shards, deadlines, recovery.

Request path
------------

Connections speak the framed codec protocol of
:mod:`repro.service.wire`.  Each request runs this gauntlet **on the
event loop** (cheap, non-blocking):

1. *shape validation* — unknown ops, missing fields, oversized frames
   are poison: structured ``bad_request``, never a crash;
2. *deadline resolution* — client deadline clamped to
   ``max_deadline_s``, default applied when absent;
3. *admission control* — per-tenant quotas on live sessions and
   in-flight requests (``quota_exceeded``);
4. *backpressure* — the target shard's bounded queue: full means
   ``overloaded`` with a drain-time ``retry_after_s`` estimate, and
   above ``shed_threshold`` occupancy only tenants at or above
   ``shed_protect_priority`` are admitted (the shedding rung);
5. *dispatch* — the request joins its session's shard queue.

The actual inference work happens in one worker thread per shard
(sessions hash to shards, so per-session ordering is structural).  A
request whose deadline expired while queued is rejected without burning
worker time; one that exceeds its deadline *mid-translation* is
cancelled at the next particle boundary by :class:`DeadlineHooks` and
rolled back transactionally — the session is byte-identical to before
the request.

Degradation ladder
------------------

#. normal service;
#. occupancy >= ``shed_threshold``: lowest-priority tenants shed first
   (structured ``overloaded`` rejections with retry-after);
#. queue full: every mutating request rejected with retry-after;
#. shard wedged (in-flight request older than ``wedged_after_s``) or
   queue unavailable: ``posterior`` reads served *degraded* from the
   last commit snapshot — stale but correct, and never blocked;
#. crash: restart replays commit snapshots
   (:meth:`DurableSessionStore.recover`) — every acknowledged mutation
   is on disk before its ack, so committed observations survive SIGKILL.
"""

from __future__ import annotations

import asyncio
import threading
import time
import zlib
from concurrent.futures import ThreadPoolExecutor
from functools import partial
from typing import Any, Callable, Dict, List, Optional, Tuple

from ..errors import (
    BadRequestError,
    DeadlineExceededError,
    OverloadedError,
    QuotaExceededError,
    ServiceUnavailableError,
)
from ..observability import Hooks, MetricsRegistry, Tracer
from ..store.session import _check_session_id
from .config import ServiceConfig
from .placement import PlacementMap
from .state import DurableSessionStore
from .wire import OPS, FrameError, encode_error, encode_ok, read_frame, write_frame

__all__ = ["DeadlineHooks", "InferenceService", "ServiceHandle", "shard_of"]

#: Seed latency estimate (seconds) before any request has completed.
_INITIAL_EWMA_S = 0.1
#: Floor for retry-after suggestions, so clients never busy-spin.
_MIN_RETRY_AFTER_S = 0.05


def shard_of(session_id: str, num_shards: int) -> int:
    """Stable session -> shard map (crc32, *not* the salted ``hash``).

    Must be deterministic across processes so a restarted server routes
    a recovered session to the same single-threaded worker.
    """
    return zlib.crc32(session_id.encode("utf-8")) % num_shards


class DeadlineHooks(Hooks):
    """Cancel an in-flight translation when its deadline passes.

    Raises :class:`~repro.errors.DeadlineExceededError` from the
    ``on_particle`` callback — i.e. at a particle boundary, where no
    partial mutation exists yet.  Combined with
    :meth:`InferenceSession.submit`'s rollback this makes a timeout
    side-effect-free: collection and RNG stream are restored, the
    session can serve the next request immediately.
    """

    def __init__(self, deadline_at: float, clock=time.monotonic):
        self._deadline_at = deadline_at
        self._clock = clock

    def _check(self) -> None:
        if self._clock() >= self._deadline_at:
            raise DeadlineExceededError(
                "request deadline expired mid-translation "
                "(cancelled at a particle boundary; session state rolled back)"
            )

    def on_step_start(self, step_index: Optional[int], num_particles: int) -> None:
        self._check()

    def on_particle(self, index: int, outcome: str) -> None:
        self._check()


def _require_str(payload: Dict[str, Any], field: str) -> str:
    value = payload.get(field)
    if not isinstance(value, str) or not value.strip():
        raise BadRequestError(f"op needs a non-empty string {field!r}")
    return value


def _optional_dict(payload: Dict[str, Any], field: str) -> Optional[Dict[str, Any]]:
    value = payload.get(field)
    if value is None:
        return None
    if not isinstance(value, dict):
        raise BadRequestError(f"{field!r} must be a mapping")
    return value


def execute_op(
    store: DurableSessionStore,
    op: str,
    tenant: str,
    session_id: str,
    payload: Dict[str, Any],
    hooks: Optional[Hooks],
    *,
    ensure_live: Optional[Callable[[str], None]] = None,
    middleware: Optional[Callable[..., Any]] = None,
) -> Any:
    """Validate ``payload`` and run one session op against ``store``.

    The single create/edit/observe/posterior/close path of both service
    modes: the in-process shard lanes and the shard processes of process
    mode.  ``ensure_live(session_id)`` runs before any op on an existing
    session (a shard process's lazy recovery); ``middleware(op,
    session_id, apply)``, when given, wraps the mutating ops (edit and
    observe) — a test seam.  The commit happens inside the store call.
    """
    if op == "create":
        return store.create_session(
            tenant,
            session_id,
            _require_str(payload, "program"),
            env=_optional_dict(payload, "env"),
            num_particles=payload.get("num_particles"),
            seed=payload.get("seed"),
        )
    if ensure_live is not None:
        ensure_live(session_id)
    store.owns(tenant, session_id)
    if op == "edit":
        apply = partial(
            store.apply_edit, session_id, _require_str(payload, "program"),
            hooks=hooks,
        )
    elif op == "observe":
        apply = partial(
            store.apply_observation, session_id,
            _require_str(payload, "statement"), hooks=hooks,
        )
    elif op == "posterior":
        return store.posterior(session_id, top=int(payload.get("top", 10)))
    elif op == "close":
        return store.close_session(session_id)
    else:  # pragma: no cover — both callers validate op first
        raise BadRequestError(f"unknown op {op!r}")
    if middleware is not None:
        return middleware(op, session_id, apply)
    return apply()


class _Shard:
    """One bounded queue + one worker thread + its telemetry."""

    def __init__(self, index: int, depth: int):
        self.index = index
        self.depth = depth  # 0 = unbounded
        self.queue: "asyncio.Queue[Any]" = asyncio.Queue(maxsize=depth)
        self.executor = ThreadPoolExecutor(
            max_workers=1, thread_name_prefix=f"repro-shard-{index}"
        )
        self.tracer = Tracer()  # thread-confined to this shard's worker
        self.busy_since: Optional[float] = None
        self.busy_op: Optional[str] = None
        self.ewma_latency_s = _INITIAL_EWMA_S
        self.completed = 0

    def record_latency(self, seconds: float) -> None:
        self.ewma_latency_s = 0.8 * self.ewma_latency_s + 0.2 * seconds
        self.completed += 1

    def retry_after_s(self) -> float:
        """Drain-time estimate: pending work x smoothed service time."""
        pending = self.queue.qsize() + (1 if self.busy_since is not None else 0)
        return max(_MIN_RETRY_AFTER_S, pending * self.ewma_latency_s)

    def occupancy(self) -> float:
        if self.depth <= 0:
            return 0.0
        return self.queue.qsize() / self.depth

    def wedged(self, wedged_after_s: float, now: float) -> bool:
        return self.busy_since is not None and now - self.busy_since >= wedged_after_s


class _Request:
    __slots__ = ("op", "tenant", "session", "payload", "deadline_at",
                 "future", "enqueued_at", "member", "replica")

    def __init__(self, op, tenant, session, payload, deadline_at, future,
                 member=None, replica=None):
        self.op = op
        self.tenant = tenant
        self.session = session
        self.payload = payload
        self.deadline_at = deadline_at
        self.future = future
        self.enqueued_at = time.monotonic()
        #: Process mode: the shard process this request is bound for,
        #: and (for acked mutations with ``replicate=True``) the member
        #: whose warm replica is refreshed afterwards.  Both resolved at
        #: dispatch time on the event loop, so lane threads never read
        #: the placement map.
        self.member = member
        self.replica = replica


_SHUTDOWN = object()


class InferenceService:
    """The multi-tenant incremental-inference server.

    Parameters
    ----------
    config:
        The :class:`ServiceConfig` (limits, deadlines, durability root).
    metrics:
        Optional shared registry; defaults to a fresh one (exposed via
        the ``stats`` op and :meth:`metrics_snapshot`).
    translator_middleware:
        Test seam for the chaos harness: a callable applied to every
        request's hooks-bearing work closure is too coarse, so instead
        this wraps the *store mutation call* — see
        :mod:`repro.testing.chaos`.  ``None`` in production.
    """

    def __init__(
        self,
        config: ServiceConfig,
        *,
        metrics: Optional[MetricsRegistry] = None,
        translator_middleware: Optional[Any] = None,
    ):
        self.config = config
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.store = DurableSessionStore(config)
        self.translator_middleware = translator_middleware
        self._shards = [
            _Shard(i, config.queue_depth) for i in range(config.num_shards)
        ]
        self._inflight: Dict[str, int] = {}
        self._server: Optional[asyncio.AbstractServer] = None
        self._worker_tasks: List[asyncio.Task] = []
        self._closing = False
        self.started = asyncio.Event()
        self.host: Optional[str] = None
        self.port: Optional[int] = None
        self.recovered_sessions: List[str] = []
        self.recovery_seconds: float = 0.0

        # -- process mode (shard_processes > 0) --------------------------
        # The router keeps the front end and forwards to shard worker
        # processes; every lane (_Shard) maps 1:1 to one member of the
        # rendezvous placement map.  ``_links[lane][member]`` holds the
        # persistent connections — each inner dict is touched only by
        # that lane's single worker thread, so no locking.
        self._process_mode = config.shard_processes > 0
        self._pool: Optional[Any] = None
        self._placement: Optional[PlacementMap] = None
        self._links: Dict[int, Dict[int, Any]] = {}
        self._session_inflight: Dict[str, int] = {}
        self._needs_rebalance = False
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._supervisor: Optional[threading.Thread] = None
        self._supervisor_stop = threading.Event()
        if self._process_mode:
            from .shard import ShardProcessPool  # deferred: shard imports us

            self._pool = ShardProcessPool(config)
            self._placement = PlacementMap(range(config.shard_processes))
            self._links = {i: {} for i in range(config.num_shards)}

    # -- lifecycle -------------------------------------------------------------

    async def serve(self) -> None:
        """Recover, bind, accept until :meth:`stop` is called."""
        self._loop = asyncio.get_running_loop()
        started = time.monotonic()
        if self._process_mode:
            # Spawn + hello-probe the shard fleet first: a schema
            # mismatch must fail startup, not the first request.  The
            # router then loads session *metadata* only — live state is
            # recovered lazily inside the shard processes.
            await self._loop.run_in_executor(None, self._pool.start)
            self.recovered_sessions = await self._loop.run_in_executor(
                None, self.store.scan_meta
            )
        else:
            self.recovered_sessions = await self._loop.run_in_executor(
                None, self.store.recover
            )
        self.recovery_seconds = time.monotonic() - started
        if self.recovered_sessions:
            self.metrics.counter("service.sessions_recovered").inc(
                len(self.recovered_sessions)
            )
        self.metrics.gauge("service.recovery_seconds").set(self.recovery_seconds)
        if self._process_mode:
            self._supervisor_stop.clear()
            self._supervisor = threading.Thread(
                target=self._supervise, name="repro-shard-supervisor", daemon=True
            )
            self._supervisor.start()

        self._server = await asyncio.start_server(
            self._handle_connection, self.config.host, self.config.port
        )
        sockname = self._server.sockets[0].getsockname()
        self.host, self.port = sockname[0], sockname[1]
        self._worker_tasks = [
            asyncio.create_task(self._worker(shard), name=f"shard-{shard.index}")
            for shard in self._shards
        ]
        self.started.set()
        try:
            await self._server.serve_forever()
        except asyncio.CancelledError:
            pass

    async def stop(self) -> None:
        """Graceful shutdown: stop accepting, drain workers, close pools."""
        self._closing = True
        if self._supervisor is not None:
            self._supervisor_stop.set()
            self._supervisor.join(5.0)
            self._supervisor = None
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        for shard in self._shards:
            shard.queue.put_nowait(_SHUTDOWN)
        for task in self._worker_tasks:
            try:
                await task
            except asyncio.CancelledError:
                pass
        for shard in self._shards:
            shard.executor.shutdown(wait=False, cancel_futures=True)
        for lane_links in self._links.values():
            for link in lane_links.values():
                link.close()
        if self._pool is not None:
            await asyncio.get_running_loop().run_in_executor(
                None, self._pool.stop_all
            )

    # -- connection handling ---------------------------------------------------

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
                    # The stream itself is poisoned: answer structurally,
                    # then hang up (we cannot resynchronize mid-garbage).
                    self.metrics.counter("service.rejections.bad_request").inc()
                    await write_frame(writer, encode_error(error))
                    break
                if request is None:
                    break
                response = await self._handle_request(request)
                if isinstance(request, dict) and "request_id" in request:
                    response["request_id"] = request["request_id"]
                await write_frame(writer, response)
        except (ConnectionResetError, BrokenPipeError, asyncio.CancelledError):
            pass
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError, asyncio.CancelledError):
                pass

    async def _handle_request(self, request: Any) -> Dict[str, Any]:
        started = time.monotonic()
        op = request.get("op") if isinstance(request, dict) else None
        try:
            result = await self._dispatch(request)
            response = encode_ok(result)
            self.metrics.counter(f"service.requests.{op}").inc()
        except BaseException as error:  # noqa: BLE001 — every error answers
            response = encode_error(error)
            self._count_rejection(error)
        if op in ("create", "observe", "edit", "posterior"):
            self.metrics.histogram(f"service.latency.{op}").observe(
                time.monotonic() - started
            )
        return response

    def _count_rejection(self, error: BaseException) -> None:
        if isinstance(error, QuotaExceededError):
            self.metrics.counter("service.rejections.quota").inc()
        elif isinstance(error, OverloadedError):
            self.metrics.counter("service.rejections.overloaded").inc()
        elif isinstance(error, DeadlineExceededError):
            self.metrics.counter("service.timeouts").inc()
        elif isinstance(error, BadRequestError):
            self.metrics.counter("service.rejections.bad_request").inc()
        else:
            self.metrics.counter("service.rejections.internal").inc()

    # -- admission + dispatch --------------------------------------------------

    async def _dispatch(self, request: Any) -> Any:
        if not isinstance(request, dict):
            raise BadRequestError(
                f"request must be a document, got {type(request).__name__}"
            )
        op = request.get("op")
        if op not in OPS:
            raise BadRequestError(f"unknown op {op!r}; expected one of {list(OPS)}")
        if op == "ping":
            return {"pong": True, "closing": self._closing}
        if op == "stats":
            return self.stats()
        if self._closing:
            raise ServiceUnavailableError("server is shutting down")

        tenant = request.get("tenant")
        session_id = request.get("session")
        if not isinstance(tenant, str) or not tenant:
            raise BadRequestError("request needs a non-empty 'tenant'")
        if not isinstance(session_id, str):
            raise BadRequestError("request needs a 'session' id")
        _check_session_id(session_id)
        deadline_s = self.config.clamp_deadline(request.get("deadline_s"))
        deadline_at = time.monotonic() + deadline_s
        member = replica = None
        if self._process_mode:
            try:
                member = self._place_session(session_id)
            except (RuntimeError, IndexError):
                raise ServiceUnavailableError(
                    "all shard processes are down (respawn in progress)",
                    retry_after_s=1.0,
                ) from None
            shard = self._shards[member]
            if self.config.replicate and op in ("create", "observe", "edit"):
                replica = self._placement.replica(session_id)
        else:
            shard = self._shards[shard_of(session_id, self.config.num_shards)]

        if op == "posterior":
            return await self._dispatch_posterior(
                request, tenant, session_id, shard, deadline_at, member=member
            )

        # -- mutating ops: quotas, then backpressure ----------------------
        if op == "create":
            limit = self.config.max_sessions_per_tenant
            if len(self.store.sessions_of(tenant)) >= limit:
                raise QuotaExceededError(
                    f"tenant {tenant!r} already holds {limit} live session(s)",
                    quota="sessions",
                    limit=limit,
                )
        self._check_inflight_quota(tenant, shard)
        self._check_backpressure(tenant, shard)
        return await self._enqueue(
            request, op, tenant, session_id, shard, deadline_at,
            member=member, replica=replica,
        )

    def _check_inflight_quota(self, tenant: str, shard: _Shard) -> None:
        limit = self.config.max_inflight_per_tenant
        if self._inflight.get(tenant, 0) >= limit:
            raise QuotaExceededError(
                f"tenant {tenant!r} already has {limit} request(s) in flight",
                quota="inflight",
                limit=limit,
                retry_after_s=shard.ewma_latency_s,
            )

    def _check_backpressure(self, tenant: str, shard: _Shard) -> None:
        if shard.depth > 0 and shard.queue.qsize() >= shard.depth:
            raise OverloadedError(
                f"shard {shard.index} queue is full "
                f"({shard.queue.qsize()}/{shard.depth})",
                retry_after_s=shard.retry_after_s(),
            )
        if (
            shard.depth > 0
            and shard.occupancy() >= self.config.shed_threshold
            and self.config.priority_of(tenant) < self.config.shed_protect_priority
        ):
            self.metrics.counter("service.rejections.shed").inc()
            raise OverloadedError(
                f"shard {shard.index} is shedding: occupancy "
                f"{shard.occupancy():.0%} >= {self.config.shed_threshold:.0%} and "
                f"tenant {tenant!r} priority "
                f"{self.config.priority_of(tenant)} < protected "
                f"{self.config.shed_protect_priority}",
                retry_after_s=shard.retry_after_s(),
            )

    async def _dispatch_posterior(
        self,
        request: Dict[str, Any],
        tenant: str,
        session_id: str,
        shard: _Shard,
        deadline_at: float,
        member: Optional[int] = None,
    ) -> Any:
        """Posterior reads prefer the live worker, degrade when it's gone.

        Degraded = served from the last commit snapshot: stale by at
        most one in-flight request, correct, and never queued behind a
        wedge.  Only possible with a durable store; an in-memory service
        reports the overload instead.
        """
        now = time.monotonic()
        top = int(request.get("top", 10))
        blocked = shard.wedged(self.config.wedged_after_s, now) or (
            shard.depth > 0 and shard.queue.qsize() >= shard.depth
        )
        if not blocked:
            self._check_inflight_quota(tenant, shard)
            self._check_backpressure(tenant, shard)
            return await self._enqueue(
                request, "posterior", tenant, session_id, shard, deadline_at,
                member=member,
            )
        if self.config.store_dir is None:
            raise OverloadedError(
                f"shard {shard.index} is saturated and no durable snapshot "
                "exists to serve a degraded read",
                retry_after_s=shard.retry_after_s(),
            )
        self.store.owns(tenant, session_id)
        self.metrics.counter("service.degraded_reads").inc()
        return await asyncio.get_running_loop().run_in_executor(
            None, partial(self.store.posterior_degraded, session_id, top=top)
        )

    async def _enqueue(
        self,
        request: Dict[str, Any],
        op: str,
        tenant: str,
        session_id: str,
        shard: _Shard,
        deadline_at: float,
        member: Optional[int] = None,
        replica: Optional[int] = None,
    ) -> Any:
        future: "asyncio.Future[Any]" = asyncio.get_running_loop().create_future()
        item = _Request(op, tenant, session_id, request, deadline_at, future,
                        member=member, replica=replica)
        try:
            shard.queue.put_nowait(item)
        except asyncio.QueueFull:
            raise OverloadedError(
                f"shard {shard.index} queue is full "
                f"({shard.queue.qsize()}/{shard.depth})",
                retry_after_s=shard.retry_after_s(),
            ) from None
        self._inflight[tenant] = self._inflight.get(tenant, 0) + 1
        self._session_inflight[session_id] = (
            self._session_inflight.get(session_id, 0) + 1
        )
        self.metrics.gauge(f"service.queue_depth.shard{shard.index}").set(
            shard.queue.qsize()
        )
        try:
            return await future
        finally:
            remaining = self._inflight.get(tenant, 1) - 1
            if remaining > 0:
                self._inflight[tenant] = remaining
            else:
                self._inflight.pop(tenant, None)
            left = self._session_inflight.get(session_id, 1) - 1
            if left > 0:
                self._session_inflight[session_id] = left
            else:
                self._session_inflight.pop(session_id, None)

    # -- the shard worker ------------------------------------------------------

    async def _worker(self, shard: _Shard) -> None:
        loop = asyncio.get_running_loop()
        while True:
            item = await shard.queue.get()
            self.metrics.gauge(f"service.queue_depth.shard{shard.index}").set(
                shard.queue.qsize()
            )
            if item is _SHUTDOWN:
                self._fail_pending(shard)
                return
            if item.future.cancelled():
                continue
            now = time.monotonic()
            if now >= item.deadline_at:
                self.metrics.counter("service.timeouts.queued").inc()
                item.future.set_exception(
                    DeadlineExceededError(
                        f"deadline expired after {now - item.enqueued_at:.3f}s "
                        "on the queue",
                        retry_after_s=shard.retry_after_s(),
                    )
                )
                continue
            shard.busy_since = now
            shard.busy_op = item.op
            try:
                result = await loop.run_in_executor(
                    shard.executor, partial(self._execute, shard, item)
                )
            except BaseException as error:  # noqa: BLE001
                if not item.future.done():
                    item.future.set_exception(error)
            else:
                if not item.future.done():
                    item.future.set_result(result)
            finally:
                shard.busy_since = None
                shard.busy_op = None
                shard.record_latency(time.monotonic() - now)

    def _fail_pending(self, shard: _Shard) -> None:
        while not shard.queue.empty():
            item = shard.queue.get_nowait()
            if item is not _SHUTDOWN and not item.future.done():
                item.future.set_exception(
                    ServiceUnavailableError("server is shutting down")
                )

    # -- process mode: placement, forwarding, supervision ----------------------

    def _place_session(self, session_id: str) -> int:
        """Resolve the owning shard process (event-loop only).

        Sticky-by-default: a session keeps its owner until that owner
        dies (immediate rendezvous failover inside ``place``) or an
        explicit migrate-home fires here.  Migration is gated on the
        session having **zero** in-flight requests, so two lanes can
        never interleave work for one session — the ordering guarantee
        the single-process service gets from shard affinity survives
        rebalancing.
        """
        placement = self._placement
        member = placement.place(session_id)
        if not self._needs_rebalance or self._session_inflight.get(session_id, 0):
            return member
        target = placement.home(session_id)
        if target == member:
            if not placement.displaced():
                self._needs_rebalance = False
            return member
        old_shard = self._shards[member]
        if old_shard.depth > 0 and old_shard.queue.qsize() >= old_shard.depth:
            return member  # old lane saturated — defer the migration
        move = placement.migrate_home(session_id)
        if move is None:  # pragma: no cover — raced with a concurrent heal
            return placement.place(session_id)
        self._enqueue_release(member, session_id)
        self.metrics.counter("service.migrations").inc()
        return target

    def _enqueue_release(self, member: int, session_id: str) -> None:
        """FIFO a ``release`` marker onto the old owner's lane.

        Queued *behind* any in-flight work for that lane, so the old
        shard drops its live copy only after everything it was already
        asked to do.  Fire-and-forget: a lost release leaves a harmless
        idle copy that never serves again.
        """
        future: "asyncio.Future[Any]" = asyncio.get_running_loop().create_future()
        future.add_done_callback(
            lambda f: f.exception() if not f.cancelled() else None
        )
        item = _Request(
            "release", "", session_id, {"op": "release", "session": session_id},
            time.monotonic() + 30.0, future, member=member,
        )
        try:
            self._shards[member].queue.put_nowait(item)
        except asyncio.QueueFull:  # pragma: no cover — capacity checked above
            pass

    def _link(self, lane: int, member: int) -> Any:
        """This lane's persistent connection to ``member`` (lane-thread
        confined; created lazily, re-negotiated on every reconnect)."""
        links = self._links[lane]
        if member not in links:
            from .shard import ShardLink

            links[member] = ShardLink(
                member,
                partial(self._pool.address, member),
                timeout_s=self.config.shard_start_timeout_s,
                shard_id=lane,
            )
        return links[member]

    def _execute_forward(self, shard: _Shard, item: _Request) -> Any:
        """Forward one admitted request to its shard process (lane thread).

        The wire format is the same framed codec protocol clients speak;
        the deadline travels as the *remaining* budget so the shard's
        own :class:`DeadlineHooks` cancels at the right wall-clock
        moment.  A transport failure is treated as a death signal: the
        event loop re-places the session (rendezvous failover) and the
        client's retry lands on the replica — which lazily recovers the
        acked state from the shared store.
        """
        op, payload, session_id = item.op, item.payload, item.session
        member = item.member if item.member is not None else shard.index
        if op == "release":
            try:
                self._link(shard.index, member).call(
                    {"op": "release", "session": session_id}, timeout_s=10.0
                )
            except Exception:
                pass  # fire-and-forget (see _enqueue_release)
            return {"session": session_id, "released": True}

        if op != "create":
            self.store.owns(item.tenant, session_id)
        remaining = item.deadline_at - time.monotonic()
        if remaining <= 0:
            raise DeadlineExceededError(
                "deadline expired before the request reached its shard process"
            )
        forward = dict(payload)
        forward["tenant"] = item.tenant
        forward["deadline_s"] = remaining
        with shard.tracer.span(f"service.forward.{op}") as span:
            span.count("member", member)
            try:
                result = self._link(shard.index, member).call(
                    forward, timeout_s=remaining + 5.0
                )
            except ServiceUnavailableError:
                self._loop.call_soon_threadsafe(self._note_shard_death, member)
                if op == "posterior" and self.config.store_dir is not None:
                    # Failover window: serve the read degraded from the
                    # shared snapshots instead of failing it.
                    self.metrics.counter("service.degraded_reads").inc()
                    return self.store.posterior_degraded(
                        session_id, top=int(payload.get("top", 10))
                    )
                raise

        # -- post-ack bookkeeping (the shard already committed) -----------
        if op == "create":
            self.store.register_meta(
                session_id, item.tenant,
                program=payload.get("program", ""),
                env=payload.get("env"),
            )
        elif op == "close":
            self.store.forget_meta(session_id)
            self._loop.call_soon_threadsafe(self._placement.forget, session_id)
        if (
            item.replica is not None
            and item.replica != member
            and op in ("create", "observe", "edit")
        ):
            try:
                self._link(shard.index, item.replica).call(
                    {"op": "replicate", "session": session_id}, timeout_s=10.0
                )
                self.metrics.counter("service.replications").inc()
            except Exception:
                # Durability never depended on the warm replica — the
                # commit is already fsynced in the shared store.
                self.metrics.counter("service.replication_failures").inc()
        return result

    def _note_shard_death(self, member: int) -> None:
        """Event-loop half of failover: mark dead, re-place its keys."""
        placement = self._placement
        if placement is None or not placement.is_alive(member):
            return
        if self._pool is not None and self._pool.is_alive(member):
            # The process is fine — the lane saw a transient transport
            # error (e.g. a timeout on a wedged translation).  Killing a
            # healthy member over it would thrash placement.
            return
        try:
            moved = placement.on_death(member)
        except RuntimeError:
            moved = []  # no survivors; _dispatch rejects until a respawn
        self.metrics.counter("service.failovers").inc()
        if moved:
            self.metrics.counter("service.failover_moves").inc(len(moved))

    def _on_shard_join(self, member: int) -> None:
        """Event-loop half of a respawn: rejoin + schedule rebalance."""
        placement = self._placement
        if placement is None or placement.is_alive(member):
            return
        placement.on_join(member)
        if placement.displaced():
            self._needs_rebalance = True
        self.metrics.counter("service.respawns").inc()

    def _supervise(self) -> None:
        """Supervisor thread: respawn dead shard processes.

        Death detection has two paths — a lane's transport error (fast,
        request-driven) and this poll (covers idle shards).  Both funnel
        through :meth:`_note_shard_death` on the event loop, which keeps
        every placement mutation loop-confined.
        """
        while not self._supervisor_stop.is_set():
            for member in self._pool.poll_dead():
                if self._supervisor_stop.is_set():
                    return
                try:
                    self._loop.call_soon_threadsafe(self._note_shard_death, member)
                except RuntimeError:
                    return  # loop is gone (abrupt kill)
                try:
                    self._pool.respawn(member)
                except Exception:
                    self.metrics.counter("service.respawn_failures").inc()
                    continue
                try:
                    self._loop.call_soon_threadsafe(self._on_shard_join, member)
                except RuntimeError:
                    return
            self._supervisor_stop.wait(0.2)

    # -- the actual work (shard worker thread) ---------------------------------

    def _execute(self, shard: _Shard, item: _Request) -> Any:
        """Run one admitted request against the durable store.

        Executes on the shard's worker thread.  Every mutating op runs
        under :class:`DeadlineHooks`; the commit (checkpoint fsync)
        happens inside the store call, before this returns — i.e. before
        any ack is written.  In process mode the work is forwarded to
        the owning shard process instead (:meth:`_execute_forward`).
        """
        if self._process_mode:
            return self._execute_forward(shard, item)
        with shard.tracer.span(f"service.{item.op}") as span:
            span.count("shard", shard.index)
            return execute_op(
                self.store, item.op, item.tenant, item.session, item.payload,
                DeadlineHooks(item.deadline_at),
                middleware=self.translator_middleware,
            )

    # -- introspection ---------------------------------------------------------

    def stats(self) -> Dict[str, Any]:
        now = time.monotonic()
        stats: Dict[str, Any] = {
            "config": self.config.to_dict(),
            "closing": self._closing,
            "sessions": self.store.session_ids(),
            "live_sessions": self.store.manager.live_sessions(),
            "recovered_sessions": list(self.recovered_sessions),
            "recovery_seconds": self.recovery_seconds,
            "inflight": dict(self._inflight),
            "shards": [
                {
                    "index": shard.index,
                    "queue_depth": shard.queue.qsize(),
                    "queue_limit": shard.depth,
                    "busy_op": shard.busy_op,
                    "busy_for_s": (
                        None if shard.busy_since is None else now - shard.busy_since
                    ),
                    "ewma_latency_s": shard.ewma_latency_s,
                    "completed": shard.completed,
                }
                for shard in self._shards
            ],
            "metrics": self.metrics.to_dict(),
        }
        if self._process_mode:
            placement = self._placement
            stats["process_mode"] = {
                "shard_processes": self.config.shard_processes,
                "replicate": self.config.replicate,
                "alive_members": placement.alive_members(),
                "assignments": len(placement.assignments()),
                "displaced": placement.displaced(),
                "placement_moves": placement.moves,
                "needs_rebalance": self._needs_rebalance,
                "pids": self._pool.pids(),
            }
        else:
            # The session manager's layout decisions at create
            # (``store.birth_spills.<code>``, ``store.create_spills.<code>``);
            # in process mode they live in each shard process's manager.
            stats["store_metrics"] = self.store.manager.metrics_snapshot()
        return stats

    def trace_snapshot(self) -> Dict[str, Any]:
        """Per-shard request span trees (each tracer is thread-confined)."""
        return {
            f"shard{shard.index}": shard.tracer.to_dict() for shard in self._shards
        }


class ServiceHandle:
    """A service running on a dedicated event-loop thread (tests, benchmarks,
    the loadgen's self-hosted mode).

    ``start`` blocks until the server is accepting; ``stop`` shuts it
    down gracefully; ``kill`` abandons the loop thread without draining
    — the in-process stand-in for a crashed worker (the real SIGKILL
    drill lives in the CI job and the chaos harness, which use ``repro
    serve`` subprocesses).
    """

    def __init__(self, service: InferenceService, thread: threading.Thread,
                 loop: asyncio.AbstractEventLoop):
        self.service = service
        self._thread = thread
        self._loop = loop
        self._stop_event: Optional[asyncio.Event] = None

    @classmethod
    def start(
        cls,
        config: ServiceConfig,
        *,
        translator_middleware: Optional[Any] = None,
        timeout_s: float = 30.0,
    ) -> "ServiceHandle":
        ready: "threading.Event" = threading.Event()
        holder: Dict[str, Any] = {}

        def run() -> None:
            loop = asyncio.new_event_loop()
            asyncio.set_event_loop(loop)
            service = InferenceService(
                config, translator_middleware=translator_middleware
            )
            stop_event = asyncio.Event()
            holder["service"] = service
            holder["loop"] = loop
            holder["stop_event"] = stop_event

            async def main() -> None:
                serve_task = asyncio.create_task(service.serve())
                await service.started.wait()
                ready.set()
                await stop_event.wait()
                await service.stop()
                serve_task.cancel()
                try:
                    await serve_task
                except asyncio.CancelledError:
                    pass

            try:
                loop.run_until_complete(main())
            except RuntimeError:
                pass  # kill(): loop stopped abruptly mid-flight
            finally:
                try:
                    pending = asyncio.all_tasks(loop)
                    for task in pending:
                        task.cancel()
                    if pending:
                        loop.run_until_complete(
                            asyncio.gather(*pending, return_exceptions=True)
                        )
                except RuntimeError:
                    pass
                loop.close()

        thread = threading.Thread(target=run, name="repro-service", daemon=True)
        thread.start()
        if not ready.wait(timeout_s):
            raise ServiceUnavailableError("service failed to start in time")
        handle = cls(holder["service"], thread, holder["loop"])
        handle._stop_event = holder["stop_event"]
        return handle

    @property
    def address(self) -> Tuple[str, int]:
        return self.service.host, self.service.port

    def stop(self, timeout_s: float = 10.0) -> None:
        if self._stop_event is not None:
            try:
                self._loop.call_soon_threadsafe(self._stop_event.set)
            except RuntimeError:
                return  # loop already gone
        self._thread.join(timeout_s)

    def kill(self) -> None:
        """Abrupt in-process death: stop the loop mid-flight, no draining.

        In process mode the shard worker processes are reaped afterwards
        — a real router SIGKILL would orphan them briefly until their
        parent-pid watchdogs fire, but tests must not leak children.
        """
        try:
            self._loop.call_soon_threadsafe(self._loop.stop)
        except RuntimeError:
            pass
        self._thread.join(5.0)
        if self.service._pool is not None:
            self.service._pool.stop_all()
