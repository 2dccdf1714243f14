"""Per-chunk particle translation: the function that runs on workers.

A chunk is a contiguous slice of the particle collection plus the
matching slice of spawned seed sequences.  :func:`translate_chunk` runs
the fault-policy-aware per-particle translation
(:func:`repro.core.smc.translate_particle`) over the slice with each
particle's private RNG stream, and returns one :class:`ParticleOutcome`
per particle.  Because every particle's randomness comes from its own
:class:`numpy.random.SeedSequence` child (indexed by *global* particle
position), the outcomes are independent of which worker — or how many —
ran the chunk.

:func:`chunk_entry` is the picklable top-level entry point submitted to
:class:`concurrent.futures.ProcessPoolExecutor`.

Chaos alignment: translators that expose a ``sync_calls(index)`` method
(see :class:`repro.testing.faults.FaultyTranslator`) are re-synced to
the global particle index before each particle, so a *scripted* fault
schedule hits the same particles under every backend and chunking.
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import time
from typing import Any, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

__all__ = [
    "ParticleOutcome",
    "translate_chunk",
    "chunk_entry",
    "spawn_ready_process",
    "wait_for_file",
    "stop_process",
    "python_argv",
]


class ParticleOutcome(NamedTuple):
    """Result of translating one particle under the fault policy.

    ``value`` is the log-weight increment for ``"ok"`` outcomes, ``-inf``
    for ``"dropped"``, and the particle's new *absolute* log weight for
    ``"regenerated"``.  The four counter fields are this particle's
    fault-counter deltas; ``worker`` is the id of the chunk that ran it.
    """

    outcome: str
    trace: Any
    value: float
    failed: int
    retried: int
    dropped: int
    regenerated: int
    worker: int


def translate_chunk(
    translator: Any,
    items: Sequence[Any],
    seeds: Sequence[np.random.SeedSequence],
    policy: Any,
    regenerate_fn: Any,
    start_index: int,
    worker_id: int,
) -> List[ParticleOutcome]:
    """Translate one contiguous particle slice with per-particle RNGs."""
    from ..core.smc import translate_particle

    sync = getattr(translator, "sync_calls", None)
    outcomes: List[ParticleOutcome] = []
    for offset, (item, seed) in enumerate(zip(items, seeds)):
        if sync is not None:
            sync(start_index + offset)
        rng = np.random.default_rng(seed)
        outcome, trace, value, counters = translate_particle(
            translator, item, rng, policy, regenerate_fn
        )
        outcomes.append(ParticleOutcome(outcome, trace, value, *counters, worker_id))
    return outcomes


def chunk_entry(payload: Tuple) -> List[ParticleOutcome]:
    """Process-pool entry point: unpack one pickled chunk payload."""
    translator, items, seeds, policy, regenerate_fn, start_index, worker_id = payload
    return translate_chunk(
        translator, items, seeds, policy, regenerate_fn, start_index, worker_id
    )


# ---------------------------------------------------------------------------
# Worker-process lifecycle helpers
# ---------------------------------------------------------------------------
#
# ProcessExecutor leans on concurrent.futures for pool workers, but some
# workers are longer-lived than a chunk: the inference service's shard
# processes (repro.service.shard) are spawned as real OS processes that
# announce readiness by writing a handshake file (the same port-file
# pattern ``repro serve --port-file`` uses).  These helpers are the
# shared spawn / wait / stop machinery so every caller gets the same
# semantics: spawn never blocks, readiness is an explicit file the child
# writes only once it can actually serve, and stop escalates politely
# (SIGTERM, then SIGKILL after a grace period).


def wait_for_file(path: Any, timeout_s: float = 30.0,
                  poll_s: float = 0.02,
                  process: Optional[subprocess.Popen] = None) -> str:
    """Block until ``path`` exists and is non-empty; return its text.

    ``process``, when given, is checked each poll: a child that died
    before writing its handshake file raises immediately instead of
    burning the whole timeout.
    """
    deadline = time.monotonic() + float(timeout_s)
    path = os.fspath(path)
    while time.monotonic() < deadline:
        if process is not None and process.poll() is not None:
            raise RuntimeError(
                f"worker process exited with code {process.returncode} "
                f"before writing its handshake file {path}"
            )
        try:
            with open(path, "r") as handle:
                content = handle.read()
            if content.strip():
                return content
        except OSError:
            pass
        time.sleep(poll_s)
    raise TimeoutError(
        f"handshake file {path} did not appear within {timeout_s:.1f}s"
    )


def spawn_ready_process(
    argv: Sequence[str],
    ready_file: Any,
    *,
    timeout_s: float = 30.0,
    stdout: Any = subprocess.DEVNULL,
    stderr: Any = subprocess.DEVNULL,
) -> Tuple[subprocess.Popen, str]:
    """Spawn ``argv`` and wait until it writes ``ready_file``.

    Returns ``(process, ready_file_contents)``.  A stale ready file from
    a previous incarnation is removed before the spawn, so the contents
    are always the new child's.  On handshake failure the child is
    killed before the error propagates — no orphan survives a failed
    spawn.
    """
    ready_file = os.fspath(ready_file)
    try:
        os.unlink(ready_file)
    except OSError:
        pass
    process = subprocess.Popen(list(argv), stdout=stdout, stderr=stderr)
    try:
        content = wait_for_file(ready_file, timeout_s, process=process)
    except Exception:
        stop_process(process, grace_s=0.5)
        raise
    return process, content


def stop_process(process: subprocess.Popen, *, grace_s: float = 5.0) -> Optional[int]:
    """Terminate a worker process: SIGTERM, then SIGKILL after ``grace_s``.

    Returns the exit code (None if the process was already gone and
    unreaped).  Safe to call repeatedly.
    """
    if process.poll() is not None:
        return process.returncode
    try:
        process.send_signal(signal.SIGTERM)
    except OSError:
        return process.poll()
    try:
        return process.wait(timeout=grace_s)
    except subprocess.TimeoutExpired:
        process.kill()
        try:
            return process.wait(timeout=grace_s)
        except subprocess.TimeoutExpired:  # pragma: no cover — kernel-level wedge
            return None


def python_argv(module: str, *args: str) -> List[str]:
    """``[sys.executable, "-m", module, *args]`` — the spawn vector for a
    repro worker module, using the exact interpreter running this code."""
    return [sys.executable, "-m", module, *args]
