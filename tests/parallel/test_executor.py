"""Unit tests for the particle-executor machinery itself.

Determinism across backends is covered by ``test_determinism.py``; this
module pins down the building blocks: chunking, seed spawning, the
shared-executor registry, spec resolution, and the outcome protocol.
"""

import numpy as np
import pytest

from repro.core.config import FaultPolicy, InferenceConfig
from repro.parallel import (
    ParticleExecutor,
    ProcessExecutor,
    SerialExecutor,
    chunk_bounds,
    get_executor,
    resolve_executor,
    spawn_particle_rngs,
)

from ._models import make_translator


class TestChunkBounds:
    def test_covers_range_contiguously(self):
        for count in (1, 2, 7, 10, 100):
            for chunks in (1, 2, 3, 8, 200):
                bounds = chunk_bounds(count, chunks)
                flat = [i for lo, hi in bounds for i in range(lo, hi)]
                assert flat == list(range(count))

    def test_never_produces_empty_chunks(self):
        assert chunk_bounds(3, 10) == [(0, 1), (1, 2), (2, 3)]

    def test_balanced_within_one(self):
        sizes = [hi - lo for lo, hi in chunk_bounds(10, 3)]
        assert max(sizes) - min(sizes) <= 1

    def test_respects_chunk_count(self):
        assert len(chunk_bounds(100, 4)) == 4


class TestSpawnParticleRngs:
    def test_consumes_exactly_one_draw(self):
        probe, reference = np.random.default_rng(5), np.random.default_rng(5)
        spawn_particle_rngs(probe, 16)
        reference.integers(0, np.iinfo(np.int64).max, dtype=np.int64)
        assert probe.random() == reference.random()

    def test_deterministic_per_seed(self):
        a = spawn_particle_rngs(np.random.default_rng(7), 4)
        b = spawn_particle_rngs(np.random.default_rng(7), 4)
        for left, right in zip(a, b):
            assert (
                np.random.default_rng(left).random()
                == np.random.default_rng(right).random()
            )

    def test_particle_stream_independent_of_count(self):
        """Particle i's stream does not depend on how many particles exist."""
        few = spawn_particle_rngs(np.random.default_rng(7), 4)
        many = spawn_particle_rngs(np.random.default_rng(7), 12)
        assert (
            np.random.default_rng(few[3]).random()
            == np.random.default_rng(many[3]).random()
        )


class TestRegistry:
    def test_shared_per_key(self):
        assert get_executor("serial", 1) is get_executor("serial", 1)
        assert get_executor("serial", 1) is not get_executor("serial", 2)

    def test_unknown_backend(self):
        with pytest.raises(ValueError, match="unknown executor backend"):
            get_executor("gpu")

    def test_resolve_none_is_inline(self):
        assert resolve_executor(None) is None

    def test_resolve_string(self):
        executor = resolve_executor("process", 2)
        assert isinstance(executor, ProcessExecutor)
        assert executor.workers == 2
        with pytest.raises(ValueError, match="unknown executor backend"):
            resolve_executor("thread", 2)

    def test_resolve_instance_passthrough(self):
        executor = SerialExecutor()
        assert resolve_executor(executor) is executor

    def test_resolve_rejects_other_types(self):
        with pytest.raises(TypeError, match="executor must be"):
            resolve_executor(42)

    def test_config_validates_backend_names(self):
        assert InferenceConfig(executor="process").executor == "process"
        for name in ("gpu", "thread"):
            with pytest.raises(ValueError, match="unknown executor backend"):
                InferenceConfig(executor=name)
        with pytest.raises(ValueError):
            InferenceConfig(executor="process", workers=0)


def _run_map(executor, num_particles, seed=3):
    translator = make_translator()
    rng = np.random.default_rng(seed)
    items = [translator.source.simulate(rng) for _ in range(num_particles)]
    seeds = spawn_particle_rngs(rng, num_particles)
    return executor.map_translate(translator, items, seeds, FaultPolicy(), None)


class TestOutcomeProtocol:
    def test_serial_defaults_to_one_worker(self):
        executor = SerialExecutor()
        assert executor.workers == 1
        assert executor.name == "serial"

    def test_outcomes_in_particle_order_with_worker_ids(self):
        with ProcessExecutor(workers=3) as executor:
            outcomes = _run_map(executor, 8)
        assert len(outcomes) == 8
        assert all(o.outcome == "ok" for o in outcomes)
        # Contiguous chunks: worker ids are non-decreasing in particle
        # order, and all three chunks ran.
        workers = [o.worker for o in outcomes]
        assert workers == sorted(workers)
        assert set(workers) == {0, 1, 2}

    def test_context_manager_closes_pool(self):
        executor = ProcessExecutor(workers=2)
        with executor:
            _run_map(executor, 4)
        assert executor._pool is None

    def test_process_rejects_unpicklable_translator(self):
        from repro import Correspondence, CorrespondenceTranslator, Model
        from repro.distributions import Flip

        def local_fn(t):  # closure-local: not picklable
            return t.sample(Flip(0.5), "x")

        translator = CorrespondenceTranslator(
            Model(local_fn), Model(local_fn), Correspondence.identity(["x"])
        )
        rng = np.random.default_rng(0)
        items = [translator.source.simulate(rng)]
        seeds = spawn_particle_rngs(rng, 1)
        with ProcessExecutor(workers=1) as executor:
            with pytest.raises(RuntimeError, match="picklable"):
                executor.map_translate(translator, items, seeds, FaultPolicy(), None)

    def test_abstract_base_requires_map_translate(self):
        with pytest.raises(TypeError):
            ParticleExecutor()  # abstract
