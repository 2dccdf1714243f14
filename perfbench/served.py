"""The served workloads: a ``repro serve`` child and a closed-loop client.

The server runs in one child process with the deployed defaults (two
in-process shard threads, ``collection=object``) and a durable
``--store-dir``, so every acknowledged mutation is fsynced before its
reply.  The load is :data:`CONNECTIONS` connections from this process,
each a closed loop: it sends its next request only after the reply to
the previous one, the way a modeller waits for the posterior before the
next edit.  There are no retries; every refusal is a failed op.  Each
connection starts sessions until the phase's seconds are up and
finishes the one it is in, so a run covers whole sessions.
"""

from __future__ import annotations

import json
import os
import random
import re
import shutil
import signal
import subprocess
import sys
import threading
import time
import zlib
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

import harness
import layers

clock = time.monotonic

#: Server spawns per run; ``setup_s`` is their median.
SETUP_REPEATS = 9
PORT_FILE_TIMEOUT_S = 60.0
STOP_TIMEOUT_S = 30.0
#: One closed loop.  With two, the two shard threads' ops contend for the
#: server's interpreter lock, so an op's latency depends on how the host
#: schedules the other thread rather than on the op's own work.
CONNECTIONS = 1
#: Shard threads of the deployed default (``repro serve --num-shards``).
SHARDS = 2


@dataclass(frozen=True)
class ServedWorkload:
    name: str
    script: str  # key of repro.service.loadgen.WORKLOADS
    op: str  # the mutating op of the script
    num_particles: int
    ops_per_session: int
    read_every: int  # a posterior read after every Nth mutating op
    check_normal_posterior: bool


SERVED = {
    "serve-fig8-edit": ServedWorkload(
        "serve-fig8-edit", "fig8-session", "edit", 200, 12, 3, False
    ),
    "serve-gauss-observe": ServedWorkload(
        "serve-gauss-observe", "gauss-chain", "observe", 100, 40, 1, True
    ),
}


@dataclass
class Request:
    request_id: str
    session: str
    op: str
    timed: bool
    sent: float
    received: float = 0.0
    ok: bool = False
    result: Any = None
    error: Optional[str] = None

    @property
    def latency(self) -> float:
        return self.received - self.sent


@dataclass
class Phase:
    """One timed pass of the workload against one server."""

    requests: List[Request] = field(default_factory=list)
    started: float = 0.0
    ended: float = 0.0
    failures: List[str] = field(default_factory=list)


# -- the server child ----------------------------------------------------------


class Server:
    """One ``repro serve`` child with its own store directory."""

    def __init__(self, root: Path, src: Path, run_dir: Path, tag: str,
                 trace: bool = False):
        self.dir = run_dir / tag
        self.dir.mkdir(parents=True)
        self.port_file = self.dir / "port"
        self.stats_file = self.dir / "stats.json"
        self.trace_file = self.dir / "spans.json" if trace else None
        self.log_path = self.dir / "serve.log"
        command = [
            sys.executable, str(root / "perfbench" / "serve_child.py"),
            "--src", str(src), "--stats-out", str(self.stats_file),
        ]
        if self.trace_file is not None:
            command += ["--trace-out", str(self.trace_file)]
        command += [
            "--", "serve", "--store-dir", str(self.dir / "store"),
            "--port-file", str(self.port_file),
        ]
        self.started = clock()
        with open(self.log_path, "wb") as log:
            self.proc = subprocess.Popen(
                command, stdout=log, stderr=subprocess.STDOUT,
                cwd=str(self.dir), env=dict(os.environ, PYTHONPATH=str(src)),
            )
        self.port = self._wait_for_port()
        self.setup_s = clock() - self.started

    def _log_tail(self) -> str:
        try:
            return self.log_path.read_text(errors="replace")[-2000:]
        except OSError:
            return ""

    def _wait_for_port(self) -> int:
        deadline = self.started + PORT_FILE_TIMEOUT_S
        while True:
            try:
                text = self.port_file.read_text()
            except FileNotFoundError:
                text = ""
            if text.endswith("\n"):
                return int(text)
            if self.proc.poll() is not None:
                raise RuntimeError(
                    f"server exited with code {self.proc.returncode} before "
                    f"writing its port file:\n{self._log_tail()}"
                )
            if clock() > deadline:
                self.kill()
                raise RuntimeError(
                    f"server wrote no port file within {PORT_FILE_TIMEOUT_S:.0f}s:\n"
                    f"{self._log_tail()}"
                )
            time.sleep(0.005)

    def stop(self) -> Dict[str, Any]:
        """SIGTERM, wait for the graceful drain, return the child's stats."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(STOP_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                self.kill()
                raise RuntimeError(f"server ignored SIGTERM:\n{self._log_tail()}")
        if self.proc.returncode != 0 or not self.stats_file.exists():
            raise RuntimeError(
                f"server exited with code {self.proc.returncode}:\n{self._log_tail()}"
            )
        return json.loads(self.stats_file.read_text())

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()


# -- the closed-loop client ----------------------------------------------------


def _session_scripts(workload: ServedWorkload, seed: int, connection: int):
    """Endless stream of (session id, base program, ops) for one connection.

    Connection ``c`` gets session ids that the server routes to shard
    ``c`` (crc32 of the id, :func:`repro.service.server.shard_of`), so
    closed loops never queue behind each other's ops and the
    session -> shard map is the same in every run.  The seed decides the
    program text: observed values and edited parameters.
    """
    from repro.service.loadgen import WORKLOADS
    from repro.service.server import shard_of

    generator = WORKLOADS[workload.script]
    index = 0
    names = (f"pb-c{connection}-{n}" for n in range(1 << 30))
    while True:
        session = next(n for n in names if shard_of(n, SHARDS) == connection)
        rng = random.Random(f"{seed}:{workload.script}:{connection}:{index}")
        base, ops = generator(index, workload.ops_per_session, rng)
        yield session, base, ops
        index += 1


class _Connection:
    def __init__(self, workload: ServedWorkload, seed: int, index: int,
                 port: int, deadline: float):
        from repro.service.client import ServiceClient

        self.workload = workload
        self.seed = seed
        self.index = index
        self.deadline = deadline
        self.client = ServiceClient("127.0.0.1", port, tenant=f"pb{index}",
                                    timeout_s=120.0)
        self.requests: List[Request] = []
        self.failures: List[str] = []
        self._sequence: Dict[str, int] = {}

    def call(self, op: str, session: str, timed: bool, **fields: Any) -> Request:
        from repro.errors import ServiceError

        sequence = self._sequence.get(session, 0)
        self._sequence[session] = sequence + 1
        request = Request(f"{session}#{sequence}", session, op, timed, clock())
        try:
            request.result = self.client.call(
                op, session=session, request_id=request.request_id, **fields
            )
            request.ok = True
        except ServiceError as error:
            request.error = f"{type(error).__name__}: {error}"
        request.received = clock()
        self.requests.append(request)
        return request

    def run(self) -> None:
        try:
            for session, base, ops in _session_scripts(
                self.workload, self.seed, self.index
            ):
                if clock() >= self.deadline:
                    break
                self._run_session(session, base, ops)
        finally:
            self.client.close()

    def _run_session(self, session: str, base: str, ops: List[Tuple[str, str]]) -> None:
        workload = self.workload
        created = self.call(
            "create", session, False, program=base,
            num_particles=workload.num_particles,
            seed=zlib.crc32(f"{self.seed}:{session}".encode()),
        )
        if not created.ok:
            return
        edits = 0
        observed: List[float] = []
        for index, (op, payload) in enumerate(ops):
            field_name = "statement" if op == "observe" else "program"
            reply = self.call(op, session, True, **{field_name: payload})
            if not reply.ok:
                break
            if reply.result.get("num_edits") != edits + 1:
                self.failures.append(
                    f"{reply.request_id}: num_edits {reply.result.get('num_edits')} "
                    f"after {edits} acked edits"
                )
            edits += 1
            if op == "observe":
                observed.append(_observed_value(payload))
            if (index + 1) % workload.read_every == 0:
                read = self.call("posterior", session, True)
                if read.ok and read.result.get("num_edits") != edits:
                    self.failures.append(
                        f"{read.request_id}: read num_edits "
                        f"{read.result.get('num_edits')} != {edits} acked"
                    )
        if workload.check_normal_posterior and observed:
            final = self.call("posterior", session, False, top=workload.num_particles)
            if final.ok:
                problem = check_normal_posterior(final.result, observed)
                if problem:
                    self.failures.append(f"{session}: {problem}")
        self.call("close", session, False)


_OBSERVED = re.compile(r"==\s*(-?[0-9.eE+-]+)\s*\)")


def _observed_value(statement: str) -> float:
    match = _OBSERVED.search(statement)
    if match is None:
        raise ValueError(f"cannot read the observed value of {statement!r}")
    return float(match.group(1))


#: Prior and noise of the gauss-chain program: x ~ N(0, 2^2), y ~ N(x, 1).
PRIOR_STD = 2.0
NOISE_STD = 1.0
#: Allowed error of the posterior mean, in standard errors.
Z_TOLERANCE = 6.0


def normal_posterior(observed: List[float]) -> Tuple[float, float]:
    precision = 1.0 / PRIOR_STD**2 + len(observed) / NOISE_STD**2
    mean = (sum(observed) / NOISE_STD**2) / precision
    return mean, precision ** -0.5


def check_normal_posterior(result: Dict[str, Any], observed: List[float]) -> str:
    """'' when the served posterior mean agrees with the analytic one.

    The tolerance is ``Z_TOLERANCE`` standard errors of a weighted mean:
    the posterior standard deviation over the square root of the
    effective sample size — the smaller of the reported ESS and the ESS
    of the distinct particle values (resampling duplicates particles,
    which the reported ESS does not see).
    """
    values = result.get("values") or []
    total = sum(entry["probability"] for entry in values)
    if not values or abs(total - 1.0) > 1e-6:
        return f"posterior histogram holds mass {total!r}, not the full population"
    estimate = sum(entry["value"] * entry["probability"] for entry in values)
    distinct_ess = 1.0 / sum(entry["probability"] ** 2 for entry in values)
    ess = min(float(result.get("ess", distinct_ess)), distinct_ess)
    mean, std = normal_posterior(observed)
    tolerance = Z_TOLERANCE * std / ess**0.5
    if abs(estimate - mean) > tolerance:
        return (
            f"posterior mean {estimate:.4f} vs analytic {mean:.4f} after "
            f"{len(observed)} observations: off by more than {tolerance:.4f} "
            f"(ESS {ess:.1f})"
        )
    return ""


def run_phase(workload: ServedWorkload, seed: int, seconds: float, port: int) -> Phase:
    phase = Phase()
    phase.started = clock()
    deadline = phase.started + seconds
    connections = [
        _Connection(workload, seed, index, port, deadline)
        for index in range(CONNECTIONS)
    ]
    errors: List[BaseException] = []

    def drive(connection: _Connection) -> None:
        try:
            connection.run()
        except BaseException as error:  # noqa: BLE001 - reported below
            errors.append(error)

    threads = [threading.Thread(target=drive, args=(c,)) for c in connections]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    if errors:
        raise errors[0]
    for connection in connections:
        phase.requests.extend(connection.requests)
        phase.failures.extend(connection.failures)
    timed = [r for r in phase.requests if r.timed]
    phase.ended = max((r.received for r in timed), default=phase.started)
    return phase


# -- metrics -------------------------------------------------------------------


def _ms_samples(requests: List[Request]) -> List[float]:
    """Latencies in ms; a failed request counts as missing every limit."""
    return [r.latency * 1e3 if r.ok else float("inf") for r in requests]


def end_to_end(workload: ServedWorkload, phase: Phase) -> Dict[str, Any]:
    ops = [r for r in phase.requests if r.timed and r.op == workload.op]
    reads = [r for r in phase.requests if r.timed and r.op == "posterior"]
    done = sum(1 for r in ops if r.ok)
    wall = phase.ended - phase.started
    return {
        "op": harness.summarize(_ms_samples(ops)),
        "read": harness.summarize(_ms_samples(reads)),
        "throughput_ops_s": done / wall if wall > 0 else 0.0,
        "attempted": len(phase.requests),
        "failed": sum(1 for r in phase.requests if not r.ok),
        "errors": [f"{r.request_id} {r.op}: {r.error}" for r in phase.requests if not r.ok],
    }


def join(phase: Phase, roots: List[Tuple[Any, harness.Root]], op: str):
    """Per-request layer budgets of the traced phase.

    Returns ``(budgets, reads, reloads)``: one ``(latency, layers,
    counts, calls)`` tuple per acked mutating op, the store-side read
    durations, and the session reloads seen.  Each budget's layers plus
    its ``unaccounted`` entry add up to the client-observed latency.
    """
    by_key: Dict[Any, List[harness.Root]] = {}
    for key, root in roots:
        by_key.setdefault(key, []).append(root)
    budgets = []
    reads = []
    for request in phase.requests:
        if not (request.ok and request.timed):
            continue
        found = {root.name: root for root in by_key.get(request.request_id, [])}
        decode = found.get("service.wire.decode")
        encode = found.get("service.wire.encode")
        store = next((r for n, r in found.items() if n.startswith("store.")), None)
        if decode is None or encode is None or store is None:
            raise RuntimeError(
                f"request {request.request_id} has no complete span set: "
                f"{sorted(found)}"
            )
        if request.op == "posterior":
            reads.append(store.duration * 1e3)
            continue
        if request.op != op:
            continue
        # The server holds the request from the start of its decode to
        # the end of the reply's encode; the socket write that follows
        # is part of the client hop.
        server = encode.end - decode.start
        queue = harness.interval("service.queue_wait", decode.end, store.start)
        layers_s, unaccounted = harness.budget(server, [decode, queue, store, encode])
        hop = request.latency - server
        if hop < 0:
            raise RuntimeError(
                f"request {request.request_id}: server time exceeds the "
                f"client-observed latency by {-hop * 1e3:.3f} ms"
            )
        layers_s["service.client_hop"] = hop
        layers_s["unaccounted"] = unaccounted
        counts, calls = harness.merge((decode, store, encode))
        budgets.append((request.latency, layers_s, counts, calls))
    reloads = sum(
        root.calls.get("store.session.reload", 0) for _, root in roots
    )
    return budgets, reads, reloads


# -- the workload --------------------------------------------------------------


def run(name: str, seed: int, seconds: float, trace: bool, root: Path,
        src: Path, run_dir: Path) -> Dict[str, Any]:
    workload = SERVED[name]
    servers: List[Server] = []
    try:
        repeats = 1 if trace else SETUP_REPEATS
        setup_times = []
        for attempt in range(repeats):
            server = Server(root, src, run_dir, f"setup{attempt}")
            servers.append(server)
            setup_times.append(server.setup_s)
            if attempt < repeats - 1:
                server.stop()
        server = servers[-1]
        plain = run_phase(workload, seed, seconds, server.port)
        stats = server.stop()
        result: Dict[str, Any] = {
            "setup_s": harness.summarize(setup_times),
            "peak_rss_mb": stats["peak_rss_mb"],
            "failures": list(plain.failures),
            **end_to_end(workload, plain),
        }
        if not trace:
            return result

        traced_server = Server(root, src, run_dir, "traced", trace=True)
        servers.append(traced_server)
        traced = run_phase(workload, seed, seconds, traced_server.port)
        traced_server.stop()
        result["failures"] += traced.failures
        traced_e2e = end_to_end(workload, traced)
        result["attempted"] += traced_e2e["attempted"]
        result["failed"] += traced_e2e["failed"]
        result["errors"] += traced_e2e["errors"]
        roots = layers.load_roots(str(traced_server.trace_file))
        budgets, reads, reloads = join(traced, roots, workload.op)
        result["layers"] = {
            "budgets": budgets,
            "reads_ms": reads,
            "reloads": reloads,
            "traced_op": traced_e2e["op"],
        }
        return result
    finally:
        for server in servers:
            server.kill()
        shutil.rmtree(run_dir, ignore_errors=True)
