"""Parallel particle execution for the SMC translate phase.

The translate step of Algorithm 2 treats particles independently
(Lemma 2), so it parallelizes without changing the math.  This package
provides the executor abstraction the SMC loop dispatches through —
``serial`` / ``process`` backends selected via
:attr:`repro.core.config.InferenceConfig.executor` — with per-particle
RNG streams spawned from :class:`numpy.random.SeedSequence` so every
backend produces byte-identical collections for a fixed seed.

See :mod:`repro.parallel.executor` for backend semantics and
:mod:`repro.parallel.worker` for the chunk protocol.
"""

from .executor import (
    EXECUTOR_BACKENDS,
    ParticleExecutor,
    ProcessExecutor,
    SerialExecutor,
    chunk_bounds,
    get_executor,
    resolve_executor,
    spawn_particle_rngs,
)
from .pickling import UnpicklableAttribute, find_unpicklable
from .worker import ParticleOutcome

__all__ = [
    "UnpicklableAttribute",
    "find_unpicklable",
    "EXECUTOR_BACKENDS",
    "ParticleExecutor",
    "SerialExecutor",
    "ProcessExecutor",
    "ParticleOutcome",
    "chunk_bounds",
    "get_executor",
    "resolve_executor",
    "spawn_particle_rngs",
]
