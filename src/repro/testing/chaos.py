"""Deterministic chaos drill for the inference service.

:mod:`repro.testing.faults` attacks the SMC loop from inside one
particle; this module attacks the *service* contract from outside:

* **slow translators** — :class:`ChaosMiddleware` stalls every N-th
  mutating request on the shard worker thread, creating the wedge the
  degradation ladder and the deadline machinery exist for;
* **deadline cancellations** — the drill issues requests whose deadline
  is shorter than the injected stall and asserts the cancellation is
  *clean*: a structured ``deadline_exceeded`` rejection and a session
  whose edit count is exactly what was last acknowledged;
* **poison requests** — unparseable programs and unknown session ids,
  asserted to produce ``bad_request`` without disturbing state;
* **worker kills** — the server is killed abruptly (no draining, no
  graceful eviction) mid-workload and restarted over the same store;
  the drill asserts every *acknowledged* mutation survived and that the
  recovered durable state is byte-identical to the pre-kill snapshot;
* **shard-process kills** — :func:`run_process_chaos_drill` runs the
  same script against a router with ``shard_processes`` worker
  processes and delivers real ``SIGKILL``\\ s to the shard that owns the
  in-flight session, asserting the acked ledger survives failover to
  the replica, durable bytes never change across a kill, and the
  supervisor respawns the fleet.

Everything is seeded: the workload scripts come from
:data:`repro.service.loadgen.WORKLOADS` under a :class:`random.Random`
seeded from the config, the kill points are fixed op indices, and the
middleware's stall schedule is a call counter that lives in the driver
process and therefore survives server restarts.  Two runs of
:func:`run_chaos_drill` with the same config perform the same requests
and the same injections.

Invariant violations raise :class:`ChaosInvariantViolation` — a drill
that *returns* has proven its invariants, and the report it returns
says how much chaos that proof covered.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

from ..errors import (
    BadRequestError,
    DeadlineExceededError,
    ReproError,
    ServiceError,
)
from ..service.client import RetryingClient, ServiceClient
from ..service.config import ServiceConfig
from ..service.loadgen import WORKLOADS
from ..service.server import ServiceHandle
from ..store.checkpoint import CheckpointManager
from ..store.codec import dumps

__all__ = [
    "ChaosConfig",
    "ChaosInvariantViolation",
    "ChaosMiddleware",
    "run_chaos_drill",
    "run_process_chaos_drill",
]


class ChaosInvariantViolation(ReproError, AssertionError):
    """The service broke one of the contracts the drill checks."""


class ChaosMiddleware:
    """Stalls every ``slow_every``-th mutating request on the worker.

    The call counter lives here — in the *driver* process — so the stall
    schedule is deterministic across in-process server restarts.
    """

    def __init__(self, slow_every: int = 0, slow_seconds: float = 0.05):
        self.slow_every = int(slow_every)
        self.slow_seconds = float(slow_seconds)
        self.calls = 0
        self.stalled = 0

    def will_stall_next(self) -> bool:
        return self.slow_every > 0 and (self.calls + 1) % self.slow_every == 0

    def __call__(self, op: str, session_id: str, apply: Callable[[], Any]) -> Any:
        self.calls += 1
        if self.slow_every > 0 and self.calls % self.slow_every == 0:
            self.stalled += 1
            time.sleep(self.slow_seconds)
        return apply()


@dataclass(frozen=True)
class ChaosConfig:
    """One drill: which workload, how much chaos, where the kills land.

    ``kill_after_ops`` are 1-based indices into the flattened mutating-op
    sequence; before issuing that op the server is killed abruptly and
    restarted over the same store.  ``deadline_ops`` are indices issued
    with a deadline shorter than the injected stall (each must coincide
    with a stalled call — :func:`run_chaos_drill` arranges that by
    construction when left at defaults).
    """

    workload: str = "gauss-chain"
    num_sessions: int = 2
    ops_per_session: int = 6
    num_particles: int = 20
    seed: int = 0
    kill_after_ops: Tuple[int, ...] = (3, 8)
    slow_every: int = 4
    slow_seconds: float = 0.2
    tight_deadline_s: float = 0.05
    poison_every: int = 5
    tenant: str = "chaos"

    def replace(self, **changes: Any) -> "ChaosConfig":
        return replace(self, **changes)


def _service_config(store_dir: str, config: ChaosConfig) -> ServiceConfig:
    return ServiceConfig(
        store_dir=store_dir,
        num_particles=config.num_particles,
        num_shards=2,
        queue_depth=8,
        # Generous default; the drill's tight deadlines are per-request.
        default_deadline_s=30.0,
        wedged_after_s=0.5,
    )


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise ChaosInvariantViolation(message)


def _snapshot_bytes(handle: ServiceHandle, session_ids: List[str]) -> Dict[str, bytes]:
    store = handle.service.store
    return {
        sid: dumps(store.manager.get(sid).snapshot()) for sid in session_ids
    }


def run_chaos_drill(store_dir: str, config: Optional[ChaosConfig] = None) -> Dict[str, Any]:
    """Run the drill; return its report or raise :class:`ChaosInvariantViolation`.

    The drill is single-threaded by design: determinism is the point,
    concurrency soak is the load generator's job.
    """
    config = config or ChaosConfig()
    service_config = _service_config(store_dir, config)
    middleware = ChaosMiddleware(config.slow_every, config.slow_seconds)

    # -- the deterministic script ---------------------------------------------
    generator = WORKLOADS[config.workload]
    scripts: Dict[str, Tuple[str, List[Tuple[str, str]]]] = {}
    for index in range(config.num_sessions):
        rng = random.Random(f"{config.seed}:{config.workload}:{index}")
        scripts[f"{config.tenant}-s{index}"] = generator(
            index, config.ops_per_session, rng
        )
    # Round-robin interleave of the sessions' mutating ops.
    flattened: List[Tuple[str, str, str]] = []
    for position in range(config.ops_per_session):
        for sid, (_, ops) in scripts.items():
            op, payload = ops[position]
            flattened.append((sid, op, payload))

    ledger: Dict[str, int] = {}  # sid -> acknowledged mutating ops
    report: Dict[str, Any] = {
        "ops": 0, "acks": 0, "kills": 0, "recoveries_verified": 0,
        "deadline_cancellations": 0, "poison_rejections": 0,
        "rejections": {}, "stalls": 0, "byte_identical_recoveries": 0,
    }

    handle = ServiceHandle.start(
        service_config, translator_middleware=middleware
    )

    def make_client() -> RetryingClient:
        return RetryingClient(
            ServiceClient(*handle.address, tenant=config.tenant),
            max_attempts=3,
            rng=random.Random(config.seed),
            sleep=lambda _s: None,
        )

    client = make_client()

    def verify_recovery(expect_bytes: Dict[str, bytes]) -> None:
        recovered = set(handle.service.recovered_sessions)
        _require(
            recovered == set(ledger),
            f"recovered sessions {sorted(recovered)} != committed {sorted(ledger)}",
        )
        for sid, committed in ledger.items():
            posterior = client.posterior(sid)
            _require(
                posterior["num_edits"] == committed,
                f"{sid}: recovered {posterior['num_edits']} edits, "
                f"committed {committed} — an acknowledged mutation was dropped",
            )
        actual = _snapshot_bytes(handle, sorted(ledger))
        for sid, expected in expect_bytes.items():
            _require(
                actual[sid] == expected,
                f"{sid}: recovered snapshot differs from pre-kill bytes",
            )
        report["byte_identical_recoveries"] += len(expect_bytes)
        report["recoveries_verified"] += 1

    def kill_and_restart() -> None:
        nonlocal handle, client
        expect = _snapshot_bytes(handle, sorted(ledger))
        client.client.close()
        handle.kill()
        report["kills"] += 1
        handle = ServiceHandle.start(
            service_config, translator_middleware=middleware
        )
        client = make_client()
        verify_recovery(expect)

    def record_rejection(error: ServiceError) -> None:
        report["rejections"][error.code] = report["rejections"].get(error.code, 0) + 1

    try:
        # Create every session up front (these acks are mutating commits
        # in the ledger sense: the sessions must survive kills).
        for sid, (base, _) in scripts.items():
            result = client.create(
                sid, base, num_particles=config.num_particles, seed=config.seed
            )
            _require(result["session"] == sid, f"create echoed {result!r}")
            ledger[sid] = 0
            report["acks"] += 1

        for op_index, (sid, op, payload) in enumerate(flattened, start=1):
            if op_index in config.kill_after_ops:
                kill_and_restart()

            if config.poison_every and op_index % config.poison_every == 0:
                # Poison first: must reject structurally, not disturb state.
                try:
                    client.client.edit(sid, "this is ! not a program (")
                except BadRequestError:
                    report["poison_rejections"] += 1
                else:
                    raise ChaosInvariantViolation(
                        "poison program was accepted instead of rejected"
                    )
                posterior = client.posterior(sid)
                _require(
                    posterior["num_edits"] == ledger[sid],
                    f"{sid}: poison request disturbed session state",
                )

            deadline_s = None
            if middleware.will_stall_next():
                # This request will hit the injected stall; give it a
                # deadline it cannot meet, then verify the cancellation
                # was clean and retry without the tight deadline.
                deadline_s = config.tight_deadline_s

            def issue(deadline: Optional[float]) -> Dict[str, Any]:
                if op == "observe":
                    return client.client.observe(sid, payload, deadline_s=deadline)
                return client.client.edit(sid, payload, deadline_s=deadline)

            report["ops"] += 1
            if deadline_s is not None:
                try:
                    issue(deadline_s)
                except DeadlineExceededError as error:
                    report["deadline_cancellations"] += 1
                    record_rejection(error)
                    posterior = client.posterior(sid)
                    _require(
                        posterior["num_edits"] == ledger[sid],
                        f"{sid}: cancelled request corrupted session state",
                    )
                else:
                    raise ChaosInvariantViolation(
                        "a request stalled past its deadline was not cancelled"
                    )
            # The committed attempt (retries allowed, no tight deadline).
            try:
                result = issue(None)
            except ServiceError as error:
                _require(
                    error.code is not None and error.retryable is not None,
                    f"unstructured rejection {error!r}",
                )
                record_rejection(error)
                continue
            ledger[sid] += 1
            report["acks"] += 1
            _require(
                result["num_edits"] == ledger[sid],
                f"{sid}: server reports {result['num_edits']} edits, "
                f"ledger says {ledger[sid]}",
            )

        # Final kill: everything acknowledged must still be there.
        kill_and_restart()
        report["stalls"] = middleware.stalled
        report["final_ledger"] = dict(sorted(ledger.items()))
        return report
    finally:
        client.client.close()
        handle.stop()


# -- the shard-process drill ---------------------------------------------------


def _durable_bytes(store_dir: str, session_ids: List[str]) -> Dict[str, bytes]:
    """Latest commit-snapshot bytes straight off disk, one per session.

    The process drill cannot use :func:`_snapshot_bytes` — in process
    mode the router's manager holds no live sessions (they live in the
    shard processes) — so the byte-identity invariant is checked against
    the durability substrate itself: the fsynced checkpoint files the
    failover replica recovers from.
    """
    root = Path(store_dir) / "checkpoints"
    out: Dict[str, bytes] = {}
    for sid in session_ids:
        data = CheckpointManager(root / sid).latest_bytes()
        _require(data is not None, f"{sid}: no durable checkpoint on disk")
        out[sid] = data  # type: ignore[assignment]
    return out


def run_process_chaos_drill(
    store_dir: str,
    config: Optional[ChaosConfig] = None,
    *,
    shard_processes: int = 2,
    replicate: bool = True,
) -> Dict[str, Any]:
    """The kill drill against *shard processes*: SIGKILL individual
    shards mid-workload and prove failover loses nothing.

    Same deterministic script machinery as :func:`run_chaos_drill`, but
    the faults are real ``SIGKILL``\\ s delivered to individual shard
    worker processes while the router stays up.  At each kill point the
    drill:

    1. records the durable checkpoint bytes of every committed session;
    2. SIGKILLs the shard process that *owns* the next op's session
       (maximally adversarial: the kill always lands in the request
       path);
    3. immediately reads every session's posterior through the retrying
       client — the first attempts race the router's death detection, so
       this exercises the unavailable→retry→failover path and the
       degraded-read ladder — and requires exactly the ledgered edit
       count back (no acked mutation lost, no unacked mutation leaked);
    4. requires the on-disk checkpoint bytes to be byte-identical to the
       pre-kill capture (the kill corrupted nothing);
    5. resumes the script — the next mutating op must ack on the
       failed-over owner.

    Stall middleware does not apply here (translation runs inside the
    shard processes); the chaos is kills, races, and poison.  The drill
    ends with a full router+pool restart over the same store to prove
    cold recovery of the whole fleet, and verifies the supervisor
    respawned every killed member along the way.
    """
    config = config or ChaosConfig()
    service_config = _service_config(store_dir, config).replace(
        shard_processes=shard_processes, replicate=replicate
    )

    generator = WORKLOADS[config.workload]
    scripts: Dict[str, Tuple[str, List[Tuple[str, str]]]] = {}
    for index in range(config.num_sessions):
        rng = random.Random(f"{config.seed}:{config.workload}:{index}")
        scripts[f"{config.tenant}-s{index}"] = generator(
            index, config.ops_per_session, rng
        )
    flattened: List[Tuple[str, str, str]] = []
    for position in range(config.ops_per_session):
        for sid, (_, ops) in scripts.items():
            op, payload = ops[position]
            flattened.append((sid, op, payload))

    ledger: Dict[str, int] = {}
    report: Dict[str, Any] = {
        "ops": 0, "acks": 0, "process_kills": 0, "failover_reads": 0,
        "failover_acks": 0, "byte_identical_recoveries": 0,
        "poison_rejections": 0, "respawns_observed": 0,
        "cold_restarts": 0,
    }

    handle = ServiceHandle.start(service_config)

    def make_client() -> RetryingClient:
        # Real (short) sleeps: failover needs the router to *notice* the
        # death, which takes a transport error plus one loop tick.
        return RetryingClient(
            ServiceClient(*handle.address, tenant=config.tenant),
            max_attempts=8,
            backoff_base_s=0.05,
            backoff_cap_s=0.5,
            rng=random.Random(config.seed),
        )

    client = make_client()

    def verify_ledger(counter: str) -> None:
        for sid, committed in ledger.items():
            posterior = client.posterior(sid)
            _require(
                posterior["num_edits"] == committed,
                f"{sid}: read {posterior['num_edits']} edits after failover, "
                f"ledger says {committed} — an acknowledged mutation was lost",
            )
            report[counter] += 1

    def kill_owner_of(sid: str) -> None:
        service = handle.service
        victim = service._placement.assignments().get(sid)
        _require(victim is not None, f"{sid} has no placement to kill")
        expect = _durable_bytes(store_dir, sorted(ledger))
        service._pool.kill(victim)
        report["process_kills"] += 1
        # Reads race the death discovery: first attempts may land on the
        # dead lane, the retries must fail over to the replica.
        verify_ledger("failover_reads")
        actual = _durable_bytes(store_dir, sorted(ledger))
        for check_sid, expected in expect.items():
            _require(
                actual[check_sid] == expected,
                f"{check_sid}: durable snapshot changed across a shard "
                "SIGKILL — recovery is not byte-identical",
            )
        report["byte_identical_recoveries"] += len(expect)

    def await_respawn(deadline_s: float = 15.0) -> None:
        expected = list(range(shard_processes))
        waited = 0.0
        while waited < deadline_s:
            alive = client.stats()["process_mode"]["alive_members"]
            if alive == expected:
                report["respawns_observed"] += 1
                return
            time.sleep(0.1)
            waited += 0.1
        raise ChaosInvariantViolation(
            f"supervisor did not respawn killed shards within {deadline_s}s"
        )

    try:
        for sid, (base, _) in scripts.items():
            result = client.create(
                sid, base, num_particles=config.num_particles, seed=config.seed
            )
            _require(result["session"] == sid, f"create echoed {result!r}")
            ledger[sid] = 0
            report["acks"] += 1

        for op_index, (sid, op, payload) in enumerate(flattened, start=1):
            killed_here = op_index in config.kill_after_ops
            if killed_here:
                kill_owner_of(sid)

            if config.poison_every and op_index % config.poison_every == 0:
                try:
                    client.client.edit(sid, "this is ! not a program (")
                except BadRequestError:
                    report["poison_rejections"] += 1
                else:
                    raise ChaosInvariantViolation(
                        "poison program was accepted instead of rejected"
                    )
                posterior = client.posterior(sid)
                _require(
                    posterior["num_edits"] == ledger[sid],
                    f"{sid}: poison request disturbed session state",
                )

            report["ops"] += 1
            try:
                if op == "observe":
                    result = client.observe(sid, payload)
                else:
                    result = client.edit(sid, payload)
            except ServiceError as error:
                _require(
                    not killed_here,
                    f"{sid}: op after a shard kill was not failed over: {error!r}",
                )
                _require(
                    error.code is not None and error.retryable is not None,
                    f"unstructured rejection {error!r}",
                )
                continue
            ledger[sid] += 1
            report["acks"] += 1
            if killed_here:
                report["failover_acks"] += 1
            _require(
                result["num_edits"] == ledger[sid],
                f"{sid}: server reports {result['num_edits']} edits, "
                f"ledger says {ledger[sid]}",
            )

        # The supervisor must have brought every killed member back.
        await_respawn()

        # Cold restart of the whole fleet (router + every shard process)
        # over the same store: lazy recovery must reproduce the ledger
        # and must not rewrite a byte of durable state.
        expect = _durable_bytes(store_dir, sorted(ledger))
        client.client.close()
        handle.kill()
        handle = ServiceHandle.start(service_config)
        client = make_client()
        report["cold_restarts"] += 1
        verify_ledger("failover_reads")
        actual = _durable_bytes(store_dir, sorted(ledger))
        for check_sid, expected in expect.items():
            _require(
                actual[check_sid] == expected,
                f"{check_sid}: durable snapshot changed across a fleet restart",
            )
        report["byte_identical_recoveries"] += len(expect)

        report["final_ledger"] = dict(sorted(ledger.items()))
        return report
    finally:
        client.client.close()
        handle.stop()
