"""End-to-end server tests over a real socket.

Every test starts a real :class:`InferenceService` (via
:class:`ServiceHandle` on an ephemeral port) and drives it with the
blocking client.  Stall points are injected through
``translator_middleware`` — a threading.Event the test controls — so
queue-full, shedding, wedged, and deadline scenarios are deterministic
rather than timing hopes.
"""

import json
import pickle
import socket
import struct
import threading
import time

import numpy as np
import pytest

from repro.core.columnar import ColumnarCollection
from repro.core.importance import importance_sampling
from repro.errors import (
    BadRequestError,
    DeadlineExceededError,
    OverloadedError,
    QuotaExceededError,
    ServiceUnavailableError,
)
from repro.lang import lang_model, parse_program
from repro.service import ServiceClient, ServiceConfig, ServiceHandle
from repro.service.wire import frame_bytes
from repro.store.codec import loads, serialize

PROGRAM = "x = gauss(0.0, 2.0);\nreturn x;"
OBSERVE = "observe(gauss(x, 1.0) == 0.5);"
NUM_PARTICLES = 15

#: Set by :func:`_spring_trap`; a server that ever executes a client's
#: body as code would flip it.
TRAP_SPRUNG = False


def _spring_trap():
    global TRAP_SPRUNG
    TRAP_SPRUNG = True


class _Trap:
    def __reduce__(self):
        return (_spring_trap, ())


def _config(tmp_path, **kwargs):
    kwargs.setdefault("store_dir", str(tmp_path / "store"))
    kwargs.setdefault("num_shards", 1)
    kwargs.setdefault("num_particles", NUM_PARTICLES)
    return ServiceConfig(**kwargs)


class StallMiddleware:
    """Blocks every translation until the test releases it."""

    def __init__(self):
        self.entered = threading.Event()
        self.release = threading.Event()
        self.release.set()  # transparent until the test arms a stall

    def arm(self):
        self.entered.clear()
        self.release.clear()

    def __call__(self, op, session_id, apply):
        self.entered.set()
        self.release.wait(timeout=30)
        return apply()


@pytest.fixture
def handle(tmp_path):
    started = ServiceHandle.start(_config(tmp_path))
    yield started
    started.stop()


@pytest.fixture
def client(handle):
    with ServiceClient(*handle.address, tenant="alice") as connected:
        yield connected


class TestLifecycle:
    def test_create_observe_edit_posterior_close(self, client):
        created = client.create("s1", PROGRAM, seed=1)
        assert created["num_particles"] == NUM_PARTICLES
        assert created["num_edits"] == 0

        observed = client.observe("s1", OBSERVE)
        assert observed["num_edits"] == 1

        edited = client.edit(
            "s1", "x = gauss(0.5, 2.0);\nreturn x;"
        )
        assert edited["num_edits"] == 2

        posterior = client.posterior("s1", top=5)
        assert posterior["degraded"] is False
        assert posterior["num_edits"] == 2
        assert posterior["values"]

        closed = client.close_session("s1")
        assert closed["session"] == "s1"
        with pytest.raises(BadRequestError, match="unknown session"):
            client.posterior("s1")

    def test_ping_and_stats(self, client):
        assert client.ping()["pong"] is True
        client.create("s1", PROGRAM, seed=1)
        stats = client.stats()
        assert stats["sessions"] == ["s1"]
        assert stats["closing"] is False
        assert len(stats["shards"]) == 1
        assert stats["metrics"]["service.requests.create"]["value"] == 1

    def test_stats_reports_layout_counters(self, client):
        # Sampled branching: the birth spills before any draw, and the
        # object population's address sets differ, so it stays object.
        client.create(
            "s1",
            "z = flip(0.3);\nif z { y = gauss(0.0, 1.0); }\n"
            "observe(gauss(1.0, 1.0) == 0.4);\nreturn z;",
            seed=13,
        )
        client.create("s2", PROGRAM, seed=1)
        counters = {
            name: entry["value"]
            for name, entry in client.stats()["store_metrics"].items()
            if "_spills." in name
        }
        assert counters == {
            "store.birth_spills.control-flow": 1,
            "store.create_spills.address-structure": 1,
        }

    def test_seeded_creates_are_deterministic(self, handle, client):
        client.create("a1", PROGRAM, seed=9)
        client.create("a2", PROGRAM, seed=9)
        one = client.posterior("a1")
        two = client.posterior("a2")
        assert one["values"] == two["values"]


class TestValidation:
    def test_unknown_op(self, client):
        with pytest.raises(BadRequestError, match="unknown op"):
            client.call("transmogrify")

    def test_missing_tenant(self, handle):
        with ServiceClient(*handle.address, tenant="") as anonymous:
            with pytest.raises(BadRequestError, match="tenant"):
                anonymous.create("s1", PROGRAM)

    def test_path_traversal_session_id_rejected(self, client):
        with pytest.raises(BadRequestError, match="invalid session id"):
            client.create("../evil", PROGRAM)

    def test_unparseable_program_rejected(self, client):
        with pytest.raises(BadRequestError, match="parse"):
            client.create("s1", "this is ! not a program (")

    def test_bad_deadline_rejected(self, client):
        with pytest.raises(BadRequestError, match="deadline"):
            client.create("s1", PROGRAM, deadline_s=-3.0)

    def test_tenant_isolation(self, handle, client):
        client.create("s1", PROGRAM, seed=1)
        with ServiceClient(*handle.address, tenant="mallory") as intruder:
            with pytest.raises(BadRequestError, match="another tenant"):
                intruder.edit("s1", PROGRAM)
            with pytest.raises(BadRequestError, match="another tenant"):
                intruder.posterior("s1")

    def test_poison_frame_answered_then_disconnected(self, handle):
        sock = socket.create_connection(handle.address, timeout=10)
        try:
            body = b"complete garbage, not a codec document"
            sock.sendall(struct.pack(">I", len(body)) + body)
            prefix = sock.recv(4)
            (length,) = struct.unpack(">I", prefix)
            payload = b""
            while len(payload) < length:
                payload += sock.recv(length - len(payload))
            response = loads(payload)
            assert response["ok"] is False
            assert response["error"]["code"] == "bad_request"
            # The server hangs up after answering: EOF, not a hang.
            assert sock.recv(1) == b""
        finally:
            sock.close()

    def test_retired_binary_frame_refused_without_running_it(self, handle):
        """A body in the retired binary framing (magic, schema header,
        pickle) is refused before it is unpickled, so its payload never
        runs inside the server."""
        sock = socket.create_connection(handle.address, timeout=10)
        try:
            body = b"\x89REPROSTORE\x00" + (3).to_bytes(2, "big") + pickle.dumps(_Trap())
            sock.sendall(struct.pack(">I", len(body)) + body)
            (length,) = struct.unpack(">I", sock.recv(4))
            payload = b""
            while len(payload) < length:
                payload += sock.recv(length - len(payload))
            response = loads(payload)
        finally:
            sock.close()
        assert TRAP_SPRUNG is False
        assert response["ok"] is False
        assert response["error"]["code"] == "bad_request"
        assert "retired binary framing" in response["error"]["message"]

    def test_crafted_columnar_metadata_is_bad_request(self, handle):
        """A ``$ccoll`` whose metadata is not one entry per particle is a
        malformed frame, answered ``bad_request`` at decode time."""
        population = importance_sampling(
            lang_model(parse_program(PROGRAM)), np.random.default_rng(0), 4
        )
        document = serialize(
            {"op": "ping", "payload": ColumnarCollection.from_weighted(population)}
        )
        document["value"]["payload"]["$ccoll"]["metadata"] = [{}]
        body = json.dumps(document).encode("utf-8")
        sock = socket.create_connection(handle.address, timeout=10)
        try:
            sock.sendall(struct.pack(">I", len(body)) + body)
            (length,) = struct.unpack(">I", sock.recv(4))
            payload = b""
            while len(payload) < length:
                payload += sock.recv(length - len(payload))
            response = loads(payload)
        finally:
            sock.close()
        assert response["ok"] is False
        assert response["error"]["code"] == "bad_request"
        assert "malformed columnar collection" in response["error"]["message"]

    def test_request_id_echoed(self, handle):
        sock = socket.create_connection(handle.address, timeout=10)
        try:
            sock.sendall(frame_bytes({"op": "ping", "request_id": "r-42"}))
            prefix = sock.recv(4)
            (length,) = struct.unpack(">I", prefix)
            payload = b""
            while len(payload) < length:
                payload += sock.recv(length - len(payload))
            response = loads(payload)
            assert response["ok"] is True
            assert response["request_id"] == "r-42"
        finally:
            sock.close()


class TestQuotas:
    def test_session_quota(self, tmp_path):
        handle = ServiceHandle.start(
            _config(tmp_path, max_sessions_per_tenant=1)
        )
        try:
            with ServiceClient(*handle.address, tenant="alice") as client:
                client.create("s1", PROGRAM, seed=1)
                with pytest.raises(QuotaExceededError) as info:
                    client.create("s2", PROGRAM, seed=1)
                assert info.value.quota == "sessions"
                assert info.value.limit == 1
                assert info.value.retryable is True
                # Closing the session frees the quota.
                client.close_session("s1")
                client.create("s2", PROGRAM, seed=1)
        finally:
            handle.stop()

    def test_quota_is_per_tenant(self, tmp_path):
        handle = ServiceHandle.start(
            _config(tmp_path, max_sessions_per_tenant=1)
        )
        try:
            with ServiceClient(*handle.address, tenant="alice") as alice:
                alice.create("a1", PROGRAM, seed=1)
            with ServiceClient(*handle.address, tenant="bob") as bob:
                bob.create("b1", PROGRAM, seed=1)  # unaffected by alice's
        finally:
            handle.stop()

    def test_zero_inflight_quota_rejects_mutations(self, tmp_path):
        handle = ServiceHandle.start(
            _config(tmp_path, max_inflight_per_tenant=0)
        )
        try:
            with ServiceClient(*handle.address, tenant="alice") as client:
                assert client.ping()["pong"] is True
                with pytest.raises(QuotaExceededError) as info:
                    client.create("s1", PROGRAM)
                assert info.value.quota == "inflight"
        finally:
            handle.stop()


class TestBackpressureAndDegradation:
    def _start_stalled_edit(self, handle, middleware, session, tenant="alice"):
        """Occupy the single shard worker with a stalled edit."""
        middleware.arm()
        errors = []

        def run():
            try:
                with ServiceClient(*handle.address, tenant=tenant) as client:
                    client.edit(session, "x = gauss(1.0, 2.0);\nreturn x;")
            except Exception as error:  # pragma: no cover - surfaced below
                errors.append(error)

        thread = threading.Thread(target=run)
        thread.start()
        assert middleware.entered.wait(timeout=30)
        return thread, errors

    def test_queue_full_rejects_with_retry_after(self, tmp_path):
        middleware = StallMiddleware()
        handle = ServiceHandle.start(
            _config(tmp_path, queue_depth=1, max_inflight_per_tenant=8,
                    shed_threshold=1.0),
            translator_middleware=middleware,
        )
        try:
            with ServiceClient(*handle.address, tenant="alice") as client:
                client.create("s1", PROGRAM, seed=1)
            thread, errors = self._start_stalled_edit(handle, middleware, "s1")
            try:
                # Fill the depth-1 queue, then overflow it.
                filler_started = threading.Event()
                filler_errors = []

                def filler():
                    try:
                        with ServiceClient(
                            *handle.address, tenant="alice"
                        ) as client:
                            filler_started.set()
                            client.observe("s1", OBSERVE)
                    except Exception as error:  # pragma: no cover
                        filler_errors.append(error)

                filler_thread = threading.Thread(target=filler)
                filler_thread.start()
                assert filler_started.wait(timeout=10)
                deadline = time.monotonic() + 10
                with ServiceClient(*handle.address, tenant="alice") as client:
                    while client.stats()["shards"][0]["queue_depth"] < 1:
                        assert time.monotonic() < deadline
                        time.sleep(0.01)
                    with pytest.raises(OverloadedError) as info:
                        client.observe("s1", OBSERVE)
                assert "full" in str(info.value)
                assert info.value.retryable is True
                assert info.value.retry_after_s > 0
            finally:
                middleware.release.set()
                thread.join(timeout=30)
                filler_thread.join(timeout=30)
            assert not errors and not filler_errors
        finally:
            handle.stop()

    def test_shedding_protects_priority_tenants(self, tmp_path):
        middleware = StallMiddleware()
        handle = ServiceHandle.start(
            _config(
                tmp_path,
                queue_depth=4,
                shed_threshold=0.25,
                tenant_priorities={"gold": 5},
                shed_protect_priority=2,
                max_inflight_per_tenant=8,
            ),
            translator_middleware=middleware,
        )
        try:
            with ServiceClient(*handle.address, tenant="alice") as alice:
                alice.create("s1", PROGRAM, seed=1)
            with ServiceClient(*handle.address, tenant="gold") as gold:
                gold.create("g1", PROGRAM, seed=1)

            thread, errors = self._start_stalled_edit(handle, middleware, "s1")
            filler_thread = None
            try:
                # Queue one more edit so occupancy hits 1/4 >= 25%.
                filler_started = threading.Event()
                filler_errors = []

                def filler():
                    try:
                        with ServiceClient(
                            *handle.address, tenant="gold"
                        ) as client:
                            filler_started.set()
                            client.observe("g1", OBSERVE)
                    except Exception as error:  # pragma: no cover
                        filler_errors.append(error)

                filler_thread = threading.Thread(target=filler)
                filler_thread.start()
                assert filler_started.wait(timeout=10)
                deadline = time.monotonic() + 10
                with ServiceClient(*handle.address, tenant="alice") as client:
                    while client.stats()["shards"][0]["queue_depth"] < 1:
                        assert time.monotonic() < deadline
                        time.sleep(0.01)
                    # Low-priority tenant is shed...
                    with pytest.raises(OverloadedError, match="shedding"):
                        client.observe("s1", OBSERVE)
                    shed = client.stats()["metrics"][
                        "service.rejections.shed"
                    ]["value"]
                    assert shed == 1
            finally:
                middleware.release.set()
                thread.join(timeout=30)
                if filler_thread is not None:
                    filler_thread.join(timeout=30)
            # ...while the protected tenant's queued op succeeded.
            assert not errors and not filler_errors
        finally:
            handle.stop()

    def test_wedged_shard_serves_degraded_posterior(self, tmp_path):
        middleware = StallMiddleware()
        handle = ServiceHandle.start(
            _config(tmp_path, wedged_after_s=0.1, max_inflight_per_tenant=8),
            translator_middleware=middleware,
        )
        try:
            with ServiceClient(*handle.address, tenant="alice") as client:
                client.create("s1", PROGRAM, seed=1)
                client.observe("s1", OBSERVE)
            thread, errors = self._start_stalled_edit(handle, middleware, "s1")
            try:
                time.sleep(0.15)  # let the stall cross wedged_after_s
                with ServiceClient(*handle.address, tenant="alice") as client:
                    posterior = client.posterior("s1")
                assert posterior["degraded"] is True
                # Served from the last commit: the stalled edit (#2) is
                # not visible, the acked observe (#1) is.
                assert posterior["num_edits"] == 1
            finally:
                middleware.release.set()
                thread.join(timeout=30)
            assert not errors
        finally:
            handle.stop()


class TestDeadlines:
    def test_queued_deadline_expires_before_execution(self, tmp_path):
        middleware = StallMiddleware()
        handle = ServiceHandle.start(
            _config(tmp_path, max_inflight_per_tenant=8),
            translator_middleware=middleware,
        )
        try:
            with ServiceClient(*handle.address, tenant="alice") as client:
                client.create("s1", PROGRAM, seed=1)

            middleware.arm()
            errors = []

            def stalled():
                try:
                    with ServiceClient(*handle.address, tenant="alice") as c:
                        c.edit("s1", "x = gauss(1.0, 2.0);\nreturn x;")
                except Exception as error:  # pragma: no cover
                    errors.append(error)

            thread = threading.Thread(target=stalled)
            thread.start()
            assert middleware.entered.wait(timeout=30)
            # Queued behind the stall with a deadline shorter than it.
            with ServiceClient(*handle.address, tenant="alice") as client:
                started = threading.Timer(0.3, middleware.release.set)
                started.start()
                with pytest.raises(DeadlineExceededError):
                    client.observe("s1", OBSERVE, deadline_s=0.05)
            thread.join(timeout=30)
            assert not errors

            # The session is uncorrupted: the stalled edit landed, the
            # timed-out observe did not.
            with ServiceClient(*handle.address, tenant="alice") as client:
                posterior = client.posterior("s1")
                assert posterior["num_edits"] == 1
                # And it still accepts work.
                assert client.observe("s1", OBSERVE)["num_edits"] == 2
        finally:
            handle.stop()

    def test_mid_translation_deadline_rolls_back(self, tmp_path):
        # The stall happens *inside* the worker (between dequeue and
        # translation), so DeadlineHooks fires on the first particle.
        middleware = StallMiddleware()
        handle = ServiceHandle.start(
            _config(tmp_path, max_inflight_per_tenant=8),
            translator_middleware=middleware,
        )
        try:
            with ServiceClient(*handle.address, tenant="alice") as client:
                client.create("s1", PROGRAM, seed=1)
                middleware.arm()
                threading.Timer(0.3, middleware.release.set).start()
                with pytest.raises(DeadlineExceededError):
                    client.edit(
                        "s1", "x = gauss(1.0, 2.0);\nreturn x;",
                        deadline_s=0.05,
                    )
                posterior = client.posterior("s1")
                assert posterior["num_edits"] == 0
                assert posterior["degraded"] is False
                # No corruption: the same edit succeeds without the stall.
                done = client.edit("s1", "x = gauss(1.0, 2.0);\nreturn x;")
                assert done["num_edits"] == 1
        finally:
            handle.stop()


class TestShutdown:
    def test_stop_answers_unavailable_then_refuses(self, tmp_path):
        handle = ServiceHandle.start(_config(tmp_path))
        with ServiceClient(*handle.address, tenant="alice") as client:
            client.create("s1", PROGRAM, seed=1)
        handle.stop()
        with pytest.raises((ServiceUnavailableError, OSError)):
            with ServiceClient(*handle.address, tenant="alice") as client:
                client.ping()

    def test_kill_then_restart_recovers_sessions(self, tmp_path):
        config = _config(tmp_path)
        handle = ServiceHandle.start(config)
        with ServiceClient(*handle.address, tenant="alice") as client:
            client.create("s1", PROGRAM, seed=1)
            client.observe("s1", OBSERVE)
            before = client.posterior("s1", top=5)
        handle.kill()

        handle = ServiceHandle.start(config)
        try:
            assert handle.service.recovered_sessions == ["s1"]
            with ServiceClient(*handle.address, tenant="alice") as client:
                after = client.posterior("s1", top=5)
            assert after["num_edits"] == before["num_edits"]
            assert after["values"] == before["values"]
        finally:
            handle.stop()
