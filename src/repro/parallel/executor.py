"""Particle executors: the parallel backends of the SMC translate phase.

The paper's central loop (Algorithm 2, Lemma 2) translates every
particle of the input collection *independently* — an embarrassingly
parallel step.  A :class:`ParticleExecutor` owns the strategy for
running that map:

* ``serial`` — one particle after another in the calling thread, on
  the caller's translator.  The reference backend: ``process`` is
  required to reproduce its output byte for byte.
* ``process`` — a :class:`~concurrent.futures.ProcessPoolExecutor` over
  chunked particle batches.  The translator, fault policy, and particle
  batch are pickled to the workers, so everything reachable from them
  must be picklable (module-level model functions are; closures are
  not), and each chunk runs on its own unpickled copy of the translator.
  This is the backend that scales with cores.

Determinism
-----------

All backends draw per-particle randomness from RNG streams spawned via
:func:`numpy.random.SeedSequence.spawn` — never from a shared generator
— so the translated collection is **byte-identical across backends**
for a fixed seed, and independent of chunk boundaries and completion
order.  :func:`spawn_particle_rngs` derives the streams: the SMC loop
consumes exactly one ``integers`` draw from its step generator to form
the base :class:`~numpy.random.SeedSequence`, and particle ``i`` always
receives child stream ``i``.

Executors are cheap facades over lazily created pools; use
:func:`get_executor` to obtain a shared instance per ``(backend,
workers)`` so repeated :func:`repro.core.smc.infer` calls reuse one
process pool instead of paying startup per step.
"""

from __future__ import annotations

import atexit
import os
import threading
from abc import ABC, abstractmethod
from concurrent.futures import ProcessPoolExecutor
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..core.config import InferenceConfig

__all__ = [
    "EXECUTOR_BACKENDS",
    "ParticleExecutor",
    "SerialExecutor",
    "ProcessExecutor",
    "get_executor",
    "resolve_executor",
    "spawn_particle_rngs",
    "chunk_bounds",
]

#: Recognized backend names (defined once, on the config class).
EXECUTOR_BACKENDS = InferenceConfig.EXECUTOR_BACKENDS


def default_workers() -> int:
    """Worker count used when none is given: the machine's core count."""
    return max(1, os.cpu_count() or 1)


def spawn_particle_rngs(
    rng: np.random.Generator, count: int
) -> List[np.random.SeedSequence]:
    """Derive ``count`` independent per-particle seed sequences.

    Consumes exactly one draw from ``rng`` (the same draw under every
    backend), then spawns child sequences with
    :meth:`numpy.random.SeedSequence.spawn`.  Child ``i`` seeds particle
    ``i`` regardless of chunking, which is what makes the backends
    byte-identical.
    """
    base = int(rng.integers(0, np.iinfo(np.int64).max, dtype=np.int64))
    return np.random.SeedSequence(base).spawn(count)


def chunk_bounds(count: int, chunks: int) -> List[Tuple[int, int]]:
    """Split ``range(count)`` into at most ``chunks`` contiguous slices.

    Slices are balanced to within one particle and returned in index
    order; empty slices are never produced.
    """
    chunks = max(1, min(chunks, count))
    base, extra = divmod(count, chunks)
    bounds: List[Tuple[int, int]] = []
    lo = 0
    for index in range(chunks):
        hi = lo + base + (1 if index < extra else 0)
        bounds.append((lo, hi))
        lo = hi
    return bounds


class ParticleExecutor(ABC):
    """Strategy for mapping the translate phase over a particle batch.

    ``map_translate`` consumes the particles, their spawned seed
    sequences, and the fault policy, and returns one
    :class:`~repro.parallel.worker.ParticleOutcome` per particle, in
    particle order.  Outcomes carry per-particle fault counter deltas
    and the id of the worker (chunk) that produced them, which is how
    :class:`~repro.core.smc.SMCStats` reports per-worker fault counts.
    """

    #: Backend name (one of :data:`EXECUTOR_BACKENDS`).
    name: str = "abstract"

    def __init__(self, workers: Optional[int] = None):
        self.workers = int(workers) if workers is not None else default_workers()
        if self.workers < 1:
            raise ValueError(f"executor workers must be >= 1, got {workers!r}")

    @abstractmethod
    def map_translate(
        self,
        translator: Any,
        items: Sequence[Any],
        seeds: Sequence[np.random.SeedSequence],
        policy: Any,
        regenerate_fn: Any,
    ) -> List[Any]:
        """Translate every particle; return outcomes in particle order."""

    def close(self) -> None:
        """Release pool resources (no-op for poolless backends)."""

    def __enter__(self) -> "ParticleExecutor":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __repr__(self) -> str:
        return f"{type(self).__name__}(workers={self.workers})"


class SerialExecutor(ParticleExecutor):
    """Run every particle in the calling thread, one chunk, worker 0."""

    name = "serial"

    def __init__(self, workers: Optional[int] = None):
        super().__init__(workers=1 if workers is None else workers)

    def map_translate(self, translator, items, seeds, policy, regenerate_fn):
        from .worker import translate_chunk

        return translate_chunk(
            translator, list(items), list(seeds), policy, regenerate_fn,
            start_index=0, worker_id=0,
        )


class ProcessExecutor(ParticleExecutor):
    """Chunked process-pool backend (pickled translation closures)."""

    name = "process"

    def __init__(self, workers: Optional[int] = None):
        super().__init__(workers)
        self._pool: Optional[ProcessPoolExecutor] = None
        self._lock = threading.Lock()

    def _ensure_pool(self) -> ProcessPoolExecutor:
        with self._lock:
            if self._pool is None:
                self._pool = ProcessPoolExecutor(max_workers=self.workers)
            return self._pool

    def _preflight(self, translator, policy, regenerate_fn) -> None:
        """Reject unpicklable inputs *before* the pool sees them.

        A pickling failure inside ``pool.submit`` surfaces as an opaque
        traceback from the pool machinery; this check names the exact
        attribute to fix (e.g. a lambda-based correspondence predicate)
        and raises before any chunk is shipped.
        """
        from ..errors import PicklingError
        from .pickling import find_unpicklable

        for component, value in (
            ("translator", translator),
            ("fault_policy", policy),
            ("regenerate_fn", regenerate_fn),
        ):
            if value is None:
                continue
            culprit = find_unpicklable(value)
            if culprit is not None:
                raise PicklingError(
                    "the 'process' executor requires the translator, fault "
                    "policy, and regenerate_fn to be picklable, but "
                    f"{culprit.describe(root=component)}; replace it with a "
                    "module-level function or class",
                    component=component,
                    attribute=culprit.path,
                )

    def map_translate(self, translator, items, seeds, policy, regenerate_fn):
        from .worker import chunk_entry

        self._preflight(translator, policy, regenerate_fn)
        pool = self._ensure_pool()
        payloads = [
            (translator, list(items[lo:hi]), list(seeds[lo:hi]),
             policy, regenerate_fn, lo, worker_id)
            for worker_id, (lo, hi) in enumerate(chunk_bounds(len(items), self.workers))
        ]
        try:
            futures = [pool.submit(chunk_entry, payload) for payload in payloads]
            outcomes: List[Any] = []
            for future in futures:
                outcomes.extend(future.result())
            return outcomes
        except (TypeError, AttributeError, ImportError) as error:
            # The classic pickling failures: a closure-based model fn, a
            # lambda proposal, a regenerate_fn closure.  Surface what to
            # fix instead of a bare pool traceback.
            raise RuntimeError(
                "the 'process' executor requires the translator, fault "
                "policy, and particles to be picklable (module-level model "
                f"functions, no lambdas/closures): {error!r}"
            ) from error

    def close(self) -> None:
        with self._lock:
            if self._pool is not None:
                self._pool.shutdown(wait=True)
                self._pool = None


_BACKENDS = {
    "serial": SerialExecutor,
    "process": ProcessExecutor,
}

#: Shared executors keyed by ``(backend, workers)``; pools are expensive
#: (a process pool forks once per worker), so repeated infer() calls
#: with a string-configured executor reuse one instance.
_SHARED: Dict[Tuple[str, Optional[int]], ParticleExecutor] = {}
_SHARED_LOCK = threading.Lock()


def get_executor(backend: str, workers: Optional[int] = None) -> ParticleExecutor:
    """Shared executor instance for ``(backend, workers)``.

    Instances live for the process (closed at interpreter exit), so a
    sequence of ``infer`` calls — or the per-rung steps of the annealing
    helpers — pay pool startup once.
    """
    if backend not in _BACKENDS:
        raise ValueError(
            f"unknown executor backend {backend!r}; choose from {list(EXECUTOR_BACKENDS)}"
        )
    key = (backend, workers)
    with _SHARED_LOCK:
        executor = _SHARED.get(key)
        if executor is None:
            executor = _SHARED[key] = _BACKENDS[backend](workers)
        return executor


def resolve_executor(spec: Any, workers: Optional[int] = None) -> Optional[ParticleExecutor]:
    """Resolve an ``InferenceConfig.executor`` value to an executor.

    ``None`` means the legacy inline translate loop (shared step RNG,
    exactly the pre-parallel behaviour); a string resolves through
    :func:`get_executor`; a :class:`ParticleExecutor` (or any object
    with a ``map_translate`` method) passes through unchanged.
    """
    if spec is None:
        return None
    if isinstance(spec, str):
        return get_executor(spec, workers)
    if hasattr(spec, "map_translate"):
        return spec
    raise TypeError(
        f"executor must be None, a backend name {list(EXECUTOR_BACKENDS)}, "
        f"or a ParticleExecutor, got {spec!r}"
    )


@atexit.register
def _close_shared_executors() -> None:
    with _SHARED_LOCK:
        for executor in _SHARED.values():
            executor.close()
        _SHARED.clear()
