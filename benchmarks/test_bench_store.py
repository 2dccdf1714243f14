"""Persistence benchmarks: checkpoint write/restore and session edits.

Measures the median latency of

* one atomic checkpoint ``save`` and one verified ``load`` of a
  realistic particle collection, as object traces (series ``json``) and
  as a columnar collection (series ``columnar``, whose value, log-prob
  and log-weight columns are numeric arrays),
* one session ``submit`` (translate request) on the fig8 regression
  workload, and one evict/reload round trip through the on-disk store,

and records everything through the ``store_bench`` fixture so the
session writes ``BENCH_store.json`` (see ``conftest.py``).  A
correctness guard rides along: the loaded checkpoint must carry the
same log-weights that were saved, so timing never drifts away from the
round-trip contract.

Run with ``pytest benchmarks/test_bench_store.py -q`` (benchmarks are
not collected by the default ``testpaths``).
"""

import time

import numpy as np
import pytest

from repro import CorrespondenceTranslator
from repro.core import ColumnarCollection
from repro.core.importance import importance_sampling
from repro.regression import (
    NoOutlierModelParams,
    OutlierModelParams,
    coefficient_correspondence,
    hospital_like_dataset,
    no_outlier_model,
    outlier_model,
)
from repro.store import CheckpointManager, SessionManager

#: Timed repetitions per median: at 5, back-to-back runs of unchanged
#: code spread ~50% in checkpoint restore on a 2-core container.
REPETITIONS = 25
NUM_PARTICLES = 200


def median_seconds(fn, repetitions=REPETITIONS):
    samples = []
    for _ in range(repetitions):
        start = time.perf_counter()
        fn()
        samples.append(time.perf_counter() - start)
    return float(np.median(samples))


@pytest.fixture(scope="module")
def fig8_setup():
    data = hospital_like_dataset(np.random.default_rng(7), num_points=50)
    source = no_outlier_model(NoOutlierModelParams(), data.xs, data.ys)
    target = outlier_model(OutlierModelParams(), data.xs, data.ys)
    translator = CorrespondenceTranslator(
        source, target, coefficient_correspondence()
    )
    collection = importance_sampling(
        source, np.random.default_rng(0), NUM_PARTICLES
    )
    return source, translator, collection


def _series_collection(fig8_setup, series):
    """The benchmark population in the layout a series stores."""
    _, _, collection = fig8_setup
    if series == "columnar":
        return ColumnarCollection.from_weighted(collection)
    return collection


@pytest.mark.parametrize("series", ["json", "columnar"])
def test_checkpoint_write_latency(fig8_setup, store_bench, tmp_path, series):
    collection = _series_collection(fig8_setup, series)
    manager = CheckpointManager(tmp_path)
    rng = np.random.default_rng(1)
    step = iter(range(10_000))

    latency = median_seconds(
        lambda: manager.save(next(step), collection, rng=rng)
    )
    size = manager.path_for(0).stat().st_size
    store_bench({
        "operation": "checkpoint_write",
        "series": series,
        "num_particles": NUM_PARTICLES,
        "file_bytes": size,
        "median_latency_s": latency,
    })


@pytest.mark.parametrize("series", ["json", "columnar"])
def test_checkpoint_restore_latency(fig8_setup, store_bench, tmp_path, series):
    collection = _series_collection(fig8_setup, series)
    manager = CheckpointManager(tmp_path)
    manager.save(0, collection, rng=np.random.default_rng(1))

    latency = median_seconds(lambda: manager.load(0))
    loaded = manager.load(0)
    assert np.array_equal(loaded.collection.log_weights, collection.log_weights)
    store_bench({
        "operation": "checkpoint_restore",
        "series": series,
        "num_particles": NUM_PARTICLES,
        "median_latency_s": latency,
    })


def test_session_translate_latency(fig8_setup, store_bench):
    _, translator, collection = fig8_setup
    manager = SessionManager()
    session = manager.create("bench", collection, seed=3)

    latency = median_seconds(lambda: session.submit(translator))
    store_bench({
        "operation": "session_translate",
        "series": "fig8",
        "num_particles": NUM_PARTICLES,
        "edits_timed": REPETITIONS,
        "median_latency_s": latency,
    })


def test_session_evict_reload_latency(fig8_setup, store_bench, tmp_path):
    _, _, collection = fig8_setup
    manager = SessionManager(tmp_path)
    manager.create("bench", collection, seed=3)

    def round_trip():
        manager.evict("bench")
        manager.get("bench")

    latency = median_seconds(round_trip)
    store_bench({
        "operation": "session_evict_reload",
        "series": "json",
        "num_particles": NUM_PARTICLES,
        "median_latency_s": latency,
    })
