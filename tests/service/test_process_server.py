"""End-to-end tests for process mode: router + real shard processes.

These spawn actual ``python -m repro.service.shard`` subprocesses, so
they are marked slow; the logic-level coverage lives in
``test_shard.py`` (in-process shard server) and ``test_placement.py``.
"""

import random
import time

import pytest

from repro.errors import BadRequestError, SchemaVersionError, ServiceError
from repro.service import ServiceConfig, ShardProcessPool
from repro.service.client import RetryingClient, ServiceClient
from repro.service.server import ServiceHandle
from repro.service.state import value_histogram

from .object_reference import replay_object_session

pytestmark = pytest.mark.slow

PROGRAM = "x = gauss(0.0, 1.0);\nreturn x;"
OBSERVE = "observe(gauss(x, 1.0) == 0.5);"


def _config(tmp_path, **kwargs):
    kwargs.setdefault("shard_processes", 2)
    kwargs.setdefault("replicate", True)
    kwargs.setdefault("num_particles", 10)
    kwargs.setdefault("store_dir", str(tmp_path / "store"))
    return ServiceConfig(**kwargs)


def _client(handle, **kwargs):
    kwargs.setdefault("max_attempts", 8)
    kwargs.setdefault("backoff_cap_s", 0.5)
    kwargs.setdefault("rng", random.Random(0))
    return RetryingClient(ServiceClient(*handle.address, tenant="t"), **kwargs)


def _await_alive(client, expected, timeout_s=15.0):
    waited = 0.0
    while waited < timeout_s:
        alive = client.stats()["process_mode"]["alive_members"]
        if alive == expected:
            return
        time.sleep(0.1)
        waited += 0.1
    raise AssertionError(f"members never reached {expected}")


class TestProcessMode:
    def test_lifecycle_and_stats(self, tmp_path):
        handle = ServiceHandle.start(_config(tmp_path))
        client = _client(handle)
        try:
            for i in range(4):
                created = client.create(f"s{i}", PROGRAM, seed=i)
                assert created["session"] == f"s{i}"
            observed = client.observe("s0", OBSERVE)
            assert observed["num_edits"] == 1
            posterior = client.posterior("s0")
            assert posterior["num_edits"] == 1

            stats = client.stats()
            process = stats["process_mode"]
            assert process["shard_processes"] == 2
            assert process["replicate"] is True
            assert process["alive_members"] == [0, 1]
            assert process["assignments"] == 4
            assert len(process["pids"]) == 2

            closed = client.close_session("s0")
            assert closed["num_edits"] == 1
            assert client.stats()["process_mode"]["assignments"] == 3
        finally:
            client.client.close()
            handle.stop()

    def test_sigkill_fails_over_without_losing_acks(self, tmp_path):
        handle = ServiceHandle.start(_config(tmp_path))
        client = _client(handle)
        try:
            edits = {}
            for i in range(4):
                client.create(f"s{i}", PROGRAM, seed=i)
                client.observe(f"s{i}", OBSERVE)
                edits[f"s{i}"] = 1

            victim = handle.service._placement.assignments()["s0"]
            handle.service._pool.kill(victim)

            # Acked mutations survive: the retrying client lands on the
            # replica, which recovers the session lazily from the store.
            observed = client.observe("s0", OBSERVE)
            edits["s0"] += 1
            assert observed["num_edits"] == edits["s0"]
            for sid, expect in edits.items():
                assert client.posterior(sid)["num_edits"] == expect

            # The supervisor respawns the killed member.
            _await_alive(client, [0, 1])
        finally:
            client.client.close()
            handle.stop()

    def test_all_members_down_is_retryable_unavailable(self, tmp_path):
        handle = ServiceHandle.start(_config(tmp_path))
        client = _client(handle, max_attempts=1)
        try:
            client.create("s0", PROGRAM, seed=0)
            # Stop the supervisor first so nothing revives the fleet,
            # then kill every member.
            handle.service._supervisor_stop.set()
            handle.service._supervisor.join(timeout=5.0)
            for member in (0, 1):
                handle.service._pool.kill(member)
            deadline = time.monotonic() + 10.0
            while True:
                try:
                    client.client.observe("s0", OBSERVE)
                except ServiceError as error:
                    assert error.retryable
                    if "shard processes are down" in str(error):
                        break
                assert time.monotonic() < deadline, (
                    "router never reported the whole fleet down"
                )
        finally:
            client.client.close()
            handle.stop()

    def test_columnar_process_service_matches_object(self, tmp_path):
        # At full depth: a process fleet runs its steps columnar and
        # commits exactly the posterior an object-mode replay computes.
        handle = ServiceHandle.start(_config(tmp_path, replicate=False))
        client = _client(handle)
        try:
            client.create("s0", PROGRAM, seed=3)
            client.observe("s0", OBSERVE)
            served = client.posterior("s0", top=5)
        finally:
            client.client.close()
            handle.stop()
        reference = replay_object_session(
            PROGRAM, [("observe", OBSERVE)], num_particles=10, seed=3
        )
        assert served["values"] == value_histogram(reference, top=5)
        assert served["ess"] == reference.effective_sample_size()


class TestPoolNegotiation:
    def test_old_shard_build_fails_pool_startup(self, tmp_path):
        pool = ShardProcessPool(
            _config(tmp_path, shard_processes=1, replicate=False),
            wire_schema=0,
        )
        with pytest.raises(SchemaVersionError, match="wire schema"):
            pool.start()
        # start() cleaned up after itself: no orphan processes.
        assert pool.poll_dead() == [0]

    def test_pool_respawn_changes_pid(self, tmp_path):
        pool = ShardProcessPool(
            _config(tmp_path, shard_processes=1, replicate=False)
        )
        try:
            pool.start()
            first_pid = pool.pids()[0]
            pool.kill(0)
            assert pool.poll_dead() == [0]
            pool.respawn(0)
            assert pool.is_alive(0)
            assert pool.pids()[0] != first_pid
        finally:
            pool.stop_all()


class TestOpValidation:
    @pytest.mark.parametrize("shard_processes", [0, 1], ids=["in-process", "process"])
    def test_create_rejects_non_mapping_env(self, tmp_path, shard_processes):
        """Both service modes run one op path, so a malformed ``env`` is a
        ``bad_request`` whether the op runs in-process or on a shard."""
        handle = ServiceHandle.start(
            _config(tmp_path, shard_processes=shard_processes, replicate=False)
        )
        client = ServiceClient(*handle.address, tenant="t")
        program = "x = gauss(mu, 1.0);\nreturn x;"
        try:
            for env in ("abc", [["mu", 1.0]]):
                with pytest.raises(BadRequestError, match="'env' must be a mapping"):
                    client.create("s0", program, env=env)
            created = client.create("s0", program, env={"mu": 1.0}, seed=0)
            assert created["session"] == "s0"
        finally:
            client.close()
            handle.stop()
