"""Shared benchmark fixtures and the BENCH_smc.json recorder.

Benchmarks in ``test_bench_smc.py`` report structured measurements
(per-figure median step latency for the inline loop vs the parallel
executors, and for the columnar vs the object collection) through the
``smc_bench`` fixture; at session end everything recorded is written as
strict JSON to ``BENCH_smc.json`` in the repository root (override the
path with the ``BENCH_SMC_OUT`` environment variable).  CI uploads the
file as an artifact so speedups are tracked per-commit.
"""

import json
import os
import pathlib
import platform

import numpy as np
import pytest

_SMC_RECORDS = []
_STORE_RECORDS = []
_SERVICE_RECORDS = []
_DERIVE_RECORDS = []
_LANG_RECORDS = []


@pytest.fixture
def rng():
    return np.random.default_rng(2018)


@pytest.fixture
def smc_bench():
    """Record one structured measurement destined for BENCH_smc.json.

    Call it with a dict; ``figure``, ``series`` and
    ``median_step_latency_s`` are the conventional keys.
    """

    def record(entry):
        _SMC_RECORDS.append(dict(entry))

    return record


@pytest.fixture
def store_bench():
    """Record one structured measurement destined for BENCH_store.json.

    Call it with a dict; ``operation``, ``series`` and
    ``median_latency_s`` are the conventional keys.
    """

    def record(entry):
        _STORE_RECORDS.append(dict(entry))

    return record


@pytest.fixture
def service_bench():
    """Record one structured measurement destined for BENCH_service.json.

    Call it with a dict; ``series`` plus the latency/rejection/recovery
    keys of ``test_bench_service.py`` are the conventional shape.
    """

    def record(entry):
        _SERVICE_RECORDS.append(dict(entry))

    return record


@pytest.fixture
def derive_bench():
    """Record one structured measurement destined for BENCH_derive.json.

    Call it with a dict; ``series`` plus the latency/accuracy keys of
    ``test_bench_derive.py`` are the conventional shape.
    """

    def record(entry):
        _DERIVE_RECORDS.append(dict(entry))

    return record


@pytest.fixture
def lang_bench():
    """Record one structured measurement destined for BENCH_lang.json.

    Call it with a dict; ``operation``, ``series`` and
    ``median_latency_ms`` are the conventional keys.
    """

    def record(entry):
        _LANG_RECORDS.append(dict(entry))

    return record


def _write_bench_file(records, default_name, env_var):
    out = os.environ.get(env_var)
    if out is None:
        out = str(pathlib.Path(__file__).resolve().parent.parent / default_name)
    payload = {
        "machine": {
            "platform": platform.platform(),
            "python": platform.python_version(),
            "cpu_count": os.cpu_count(),
        },
        "records": records,
    }
    with open(out, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(f"\n{default_name}: {len(records)} records written to {out}")


def pytest_sessionfinish(session, exitstatus):
    if _SMC_RECORDS:
        _write_bench_file(_SMC_RECORDS, "BENCH_smc.json", "BENCH_SMC_OUT")
    if _STORE_RECORDS:
        _write_bench_file(_STORE_RECORDS, "BENCH_store.json", "BENCH_STORE_OUT")
    if _SERVICE_RECORDS:
        _write_bench_file(
            _SERVICE_RECORDS, "BENCH_service.json", "BENCH_SERVICE_OUT"
        )
    if _DERIVE_RECORDS:
        _write_bench_file(_DERIVE_RECORDS, "BENCH_derive.json", "BENCH_DERIVE_OUT")
    if _LANG_RECORDS:
        _write_bench_file(_LANG_RECORDS, "BENCH_lang.json", "BENCH_LANG_OUT")
