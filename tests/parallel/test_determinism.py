"""Cross-backend determinism: the tentpole guarantee of repro.parallel.

For a fixed seed, ``infer`` must produce **byte-identical** weighted
collections under the ``serial`` and ``process`` backends, for any
worker count — and, under the scripted fault injector, identical
``SMCStats`` fault counters too.  These tests are what the CI
parallel-correctness job runs with ``--workers 2``.
"""

import numpy as np
import pytest

from repro import WeightedCollection, infer
from repro.core import InferenceConfig
from repro.testing import FaultInjector, FaultyTranslator

from ._models import make_translator

NUM_PARTICLES = 24

#: (backend, workers) grid; None = the legacy inline loop, which has its
#: own RNG discipline and is only compared for fault accounting.
BACKENDS = [
    ("serial", 1),
    ("serial", 3),
    ("process", 1),
    ("process", 2),
    ("process", 3),
]


def _collection(seed=13):
    translator = make_translator()
    rng = np.random.default_rng(seed)
    traces = [translator.source.simulate(rng) for _ in range(NUM_PARTICLES)]
    return translator, WeightedCollection.uniform(traces)


def _run(backend, workers, policy="fail_fast", injector=None, seed=13):
    translator, collection = _collection(seed)
    if injector is not None:
        translator = FaultyTranslator(translator, injector)
    config = InferenceConfig(
        executor=backend, workers=workers, fault_policy=policy
    )
    rng = np.random.default_rng(101)
    return infer(translator, collection, rng, config=config)


def _fingerprint(collection):
    """Everything observable about a weighted collection, exactly."""
    return [
        (
            tuple(sorted(trace.choices(), key=lambda r: str(r.address))),
            trace.log_prob,
            log_weight,
        )
        for trace, log_weight in zip(collection.items, collection.log_weights)
    ]


class TestByteIdenticalBackends:
    def test_all_backends_match_serial_reference(self):
        reference = _run("serial", 1)
        expected = _fingerprint(reference.collection)
        for backend, workers in BACKENDS[1:]:
            step = _run(backend, workers)
            assert _fingerprint(step.collection) == expected, (
                f"{backend}/{workers} diverged from the serial reference"
            )

    def test_log_weights_bitwise_equal(self):
        serial = _run("serial", 1).collection.log_weights
        process = _run("process", 3).collection.log_weights
        assert [w.hex() for w in serial] == [w.hex() for w in process]

    def test_chunking_does_not_matter(self):
        """Same backend, different worker counts: same bytes."""
        expected = _fingerprint(_run("process", 1).collection)
        for workers in (2, 3):
            assert _fingerprint(_run("process", workers).collection) == expected

    def test_cli_selected_worker_count(self, cli_workers):
        """CI entry point: ``pytest tests/parallel --workers N``."""
        expected = _fingerprint(_run("serial", 1).collection)
        step = _run("process", cli_workers)
        assert _fingerprint(step.collection) == expected, (
            f"process/{cli_workers} diverged from the serial reference"
        )

    def test_repeated_runs_are_deterministic(self):
        assert _fingerprint(_run("process", 2).collection) == _fingerprint(
            _run("process", 2).collection
        )


SCHEDULE = {1: "error", 5: "neg_inf", 9: "error"}


class TestFaultDeterminism:
    @pytest.mark.parametrize("backend,workers", BACKENDS)
    def test_scripted_faults_identical_under_drop(self, backend, workers):
        injector = FaultInjector(at_calls=SCHEDULE)
        step = _run(backend, workers, policy="drop", injector=injector)
        stats = step.stats
        # Two scripted errors are dropped; the neg_inf weight survives
        # as a zero-probability particle, not a fault.
        assert stats.failed == 2
        assert stats.dropped == 2
        assert stats.regenerated == 0
        if backend == "serial":
            # The serial backend runs the caller's translator in place,
            # so its injector bookkeeping is visible; process chunks
            # operate on unpickled copies by design.
            assert injector.injected["error"] == 2
            assert injector.injected["neg_inf"] == 1
        # Dropped particles carry -inf; so does the neg_inf injection.
        neg_inf = [
            i
            for i, w in enumerate(step.collection.log_weights)
            if w == float("-inf")
        ]
        assert neg_inf == [1, 5, 9]

    def test_fault_collections_byte_identical_across_backends(self):
        expected = None
        for backend, workers in BACKENDS:
            injector = FaultInjector(at_calls=SCHEDULE)
            step = _run(backend, workers, policy="drop", injector=injector)
            fingerprint = _fingerprint(step.collection)
            if expected is None:
                expected = fingerprint
            else:
                assert fingerprint == expected, f"{backend}/{workers} diverged"

    def test_inline_loop_matches_executor_fault_counters(self):
        """The legacy inline loop sees the same scripted schedule."""
        inline = _run(None, None, policy="drop", injector=FaultInjector(at_calls=SCHEDULE))
        serial = _run("serial", 1, policy="drop", injector=FaultInjector(at_calls=SCHEDULE))
        assert inline.stats.failed == serial.stats.failed
        assert inline.stats.dropped == serial.stats.dropped

    def test_faults_by_worker_accounts_every_failure(self):
        injector = FaultInjector(at_calls=SCHEDULE)
        step = _run("process", 3, policy="drop", injector=injector)
        by_worker = step.stats.faults_by_worker
        assert by_worker is not None
        # 24 particles over 3 chunks of 8: both errors (particles 1 and
        # 9) land in workers 0 and 1; worker 2 reports an explicit zero.
        assert by_worker == {0: 1, 1: 1, 2: 0}
        assert sum(by_worker.values()) == step.stats.failed

    def test_inline_loop_reports_no_worker_breakdown(self):
        step = _run(None, None)
        assert step.stats.faults_by_worker is None
