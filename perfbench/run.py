"""The repository's benchmark: one command, checked outputs, two gated workloads.

Usage (from the repository root)::

    python3 perfbench/run.py --workload serve-fig8-edit --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --seed 1            # every workload, one table

``--trace 0`` measures the end-to-end metrics with the program untouched.
``--trace 1`` runs the workload twice, untraced then with the layer
wrappers of ``layers.py`` installed, and reports the per-layer metrics
plus the tracing overhead.  Every row of the table names its metric, its
unit and, for timings, its sample count.  The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``.  A failed output check makes ``correct`` false and the exit
code 1.  ``--out FILE`` also writes every measurement, including sample
counts, tails and per-code spill counts.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import sys
import traceback
from pathlib import Path
from typing import Any, Callable, Dict, List, Tuple

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

#: The workloads ``BENCHMARK.json`` lists and gates.
WORKLOADS = ("serve-fig8-edit", "offline-fig8-columnar")
#: Runnable, with its output checks, but not gated: an op's cost climbs
#: along its 40-op session, so its medians spread the most from seed to
#: seed, and every layer it reaches is measured on ``serve-fig8-edit``.
EXTRA_WORKLOADS = ("serve-gauss-observe",)

#: (name, unit) of every end-to-end metric, in table order.
END_TO_END = (
    ("setup_s", "s"),
    ("op_p50_ms", "ms"),
    ("throughput_ops_s", "1/s"),
    ("peak_rss_mb", "MB"),
)

#: Per-op time metrics: each sums the self time of the span names listed.
#: Together they partition an op's client-observed latency.
TIME_LAYERS: Dict[str, Tuple[str, ...]] = {
    "service.client_hop_ms": ("service.client_hop",),
    "service.wire.decode_ms": ("service.wire.decode",),
    "service.queue_wait_ms": ("service.queue_wait",),
    "service.wire.encode_ms": ("service.wire.encode",),
    "store.state.apply_self_ms": ("store.state.apply_edit", "store.state.apply_observation"),
    "store.session.get_ms": ("store.session.get", "store.session.reload"),
    "store.session.submit_self_ms": ("store.session.submit",),
    "store.codec.dumps_ms": ("store.codec.dumps",),
    "store.checkpoint.fsync_ms": ("store.checkpoint.fsync",),
    "store.checkpoint.save_self_ms": ("store.checkpoint.save",),
    "lang.parse_ms": ("lang.parse",),
    "lang.interp_ms": ("lang.interp",),
    "graph.diff_ms": ("graph.diff",),
    "core.smc.infer_self_ms": ("core.infer",),
    "core.corr_translator.translate_self_ms": ("core.corr_translator.translate",),
    "core.weighted.resample_ms": ("core.weighted.resample",),
    "core.columnar.step_self_ms": ("core.columnar.step",),
    "core.columnar.from_weighted_ms": ("core.columnar.from_weighted",),
    "core.columnar.total_log_probs_ms": ("core.columnar.total_log_probs",),
    "core.columnar.resample_ms": ("core.columnar.resample",),
    "analysis.absint.plan_ms": ("analysis.absint.plan",),
    "distributions.log_prob_batch_ms": ("distributions.log_prob_batch",),
    "distributions.sample_batch_ms": ("distributions.sample_batch",),
    "unaccounted_ms": ("unaccounted",),
}

#: Reported as the mean over all ops rather than over the median band:
#: one-off work (the first step's object-to-columns conversion) that a
#: typical op never shows but throughput pays for.
AMORTIZED_LAYERS = {"core.columnar.from_weighted_ms"}

#: (name, unit) of the per-layer metrics beyond ``TIME_LAYERS``.
OTHER_LAYERS = (
    ("service.queue_wait_tail_ms", "ms"),
    ("store.session.reloads", "count"),
    ("store.checkpoint.bytes", "B"),
    ("store.posterior_ms", "ms"),
    ("lang.parse.calls_per_op", "count"),
    ("lang.interp.calls_per_op", "count"),
    ("core.smc.resample_ratio", "ratio"),
    ("core.smc.ess_frac", "ratio"),
    ("core.columnar.spill_ratio", "ratio"),
    ("distributions.batch_elements", "count"),
    ("layers_sum_frac", "ratio"),
    ("trace_overhead_frac", "ratio"),
)

PER_LAYER = tuple((name, "ms") for name in TIME_LAYERS) + OTHER_LAYERS


def _median(values: List[float]) -> float:
    return float(statistics.median(values)) if values else 0.0


def end_to_end_metrics(result: Dict[str, Any]) -> Dict[str, float]:
    return {
        "setup_s": result["setup_s"].p50,
        "op_p50_ms": result["op"].p50,
        "throughput_ops_s": result["throughput_ops_s"],
        "peak_rss_mb": result["peak_rss_mb"],
    }


def layer_metrics(result: Dict[str, Any]) -> Tuple[Dict[str, float], Dict[str, Any]]:
    """Per-layer metrics of a traced run, plus details for ``--out``."""
    import harness

    traced = result["layers"]
    budgets = traced["budgets"]
    if not budgets:
        raise RuntimeError("the traced phase completed no op")
    known = {name for names in TIME_LAYERS.values() for name in names}
    for _latency, layers_s, _counts, _calls in budgets:
        unknown = set(layers_s) - known
        if unknown:
            raise RuntimeError(f"spans with no layer metric: {sorted(unknown)}")

    def per_op(value: Callable[[Tuple], float]) -> List[float]:
        return [value(budget) for budget in budgets]

    # Time layers split the typical op: the mean over the median band of
    # each op's layer time, so they add up to the band's mean latency.
    band = [budgets[i] for i in harness.median_band([b[0] for b in budgets])]
    metrics: Dict[str, float] = {}
    time_sum = 0.0
    for metric, names in TIME_LAYERS.items():
        def layer_ms(b: Tuple, names: Tuple[str, ...] = names) -> float:
            return sum(b[1].get(n, 0.0) for n in names) * 1e3

        typical = sum(layer_ms(b) for b in band) / len(band)
        time_sum += typical
        metrics[metric] = (
            sum(per_op(layer_ms)) / len(budgets) if metric in AMORTIZED_LAYERS else typical
        )
    queue = harness.summarize(per_op(lambda b: b[1].get("service.queue_wait", 0.0) * 1e3))
    metrics["service.queue_wait_tail_ms"] = queue.tail or 0.0
    metrics["store.session.reloads"] = float(traced["reloads"])
    metrics["store.checkpoint.bytes"] = _median(
        per_op(lambda b: b[2].get("store.codec.dumps.bytes", 0.0))
    )
    metrics["store.posterior_ms"] = _median(traced["reads_ms"])
    metrics["lang.parse.calls_per_op"] = _median(per_op(lambda b: b[3].get("lang.parse", 0)))
    metrics["lang.interp.calls_per_op"] = _median(
        per_op(lambda b: b[3].get("lang.interp", 0))
    )
    steps = sum(b[2].get("core.infer.steps", 0.0) for b in budgets)
    resampled = sum(b[2].get("core.infer.resampled", 0.0) for b in budgets)
    metrics["core.smc.resample_ratio"] = resampled / steps if steps else 0.0
    metrics["core.smc.ess_frac"] = _median(
        [b[2]["core.infer.ess_frac"] for b in budgets if "core.infer.ess_frac" in b[2]]
    )
    attempts = sum(b[3].get("core.columnar.step", 0) for b in budgets)
    spills: Dict[str, float] = {}
    for _latency, _layers, counts, _calls in budgets:
        for name, value in counts.items():
            if name.startswith("core.columnar.step.raised."):
                code = name[len("core.columnar.step.raised."):]
                spills[code] = spills.get(code, 0.0) + value
    metrics["core.columnar.spill_ratio"] = sum(spills.values()) / attempts if attempts else 0.0
    metrics["distributions.batch_elements"] = _median(
        per_op(
            lambda b: b[2].get("distributions.log_prob_batch.elements", 0.0)
            + b[2].get("distributions.sample_batch.elements", 0.0)
        )
    )
    traced_p50 = traced["traced_op"].p50
    metrics["layers_sum_frac"] = time_sum / traced_p50
    metrics["trace_overhead_frac"] = traced_p50 / result["op"].p50 - 1.0
    details = {
        "traced_op": traced["traced_op"].to_dict(),
        "queue_wait": queue.to_dict(),
        "spills_by_code": {
            code: count / attempts for code, count in sorted(spills.items())
        },
        "columnar_attempts": attempts,
        "layer_sum_ms": time_sum,
        "median_band_ops": len(band),
    }
    return metrics, details


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> Dict[str, Any]:
    if name.startswith("serve-"):
        import served

        run_dir = ROOT / ".perfbench_runs" / f"{name}-{os.getpid()}"
        return served.run(name, seed, seconds, trace, ROOT, SRC, run_dir)
    import offline

    return offline.run(seed, seconds, trace)


def measure(name: str, seed: int, seconds: float, trace: bool) -> Dict[str, Any]:
    """One workload's outcome: the printed metrics and the full record."""
    import harness

    result = run_workload(name, seed, seconds, trace)
    if trace:
        metrics, details = layer_metrics(result)
        units = dict(PER_LAYER)
    else:
        metrics, details = end_to_end_metrics(result), {}
        units = dict(END_TO_END)
    for metric, value in metrics.items():
        harness.check_metric_name(metric)
        if value is None or not math.isfinite(value):
            raise RuntimeError(f"{name}: metric {metric} is {value!r}")
    samples = {
        "op": result["op"].to_dict(),
        "read": result["read"].to_dict(),
        "setup_s": result["setup_s"].to_dict(),
    }
    if trace:
        band = f"n={details['median_band_ops']} of {details['traced_op']['count']} ops"
        counts = {m: band for m in TIME_LAYERS if m not in AMORTIZED_LAYERS}
    else:
        counts = {"setup_s": f"n={samples['setup_s']['count']}",
                  "op_p50_ms": f"n={samples['op']['count']}"}
    return {
        "workload": name,
        "correct": not result["failures"],
        "failures": result["failures"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "errors": result["errors"],
        "error_rate": result["failed"] / max(1, result["attempted"]),
        "metrics": {m: {"value": v, "unit": units[m]} for m, v in metrics.items()},
        "samples": samples,
        "sample_counts": counts,
        "details": details,
    }


def print_table(outcomes: List[Dict[str, Any]]) -> None:
    """Every metric with its unit; timings with their sample counts, plus
    each timing's highest supported tail and the posterior-read latency,
    which are printed but not gated (see ``README.md``).  Untraced runs
    end with the end-to-end metrics as one row per workload."""
    print(f"{'workload':<24} {'metric':<40} {'value':>14}  unit   samples")

    def row(workload: str, metric: str, value: float, unit: str, note: str = "") -> None:
        print(f"{workload:<24} {metric:<40} {value:>14.4f}  {unit:<6} {note}")

    for outcome in outcomes:
        name, samples = outcome["workload"], outcome["samples"]
        for metric, entry in outcome["metrics"].items():
            row(name, metric, entry["value"], entry["unit"],
                outcome["sample_counts"].get(metric, ""))
        for kind in ("op", "read"):
            summary = samples[kind]
            if kind == "read" and summary["p50"] is not None:
                row(name, "read_p50_ms", summary["p50"], "ms", f"n={summary['count']}")
            if summary["tail_pct"] is not None:
                row(name, f"{kind}_p{summary['tail_pct']:g}_ms", summary["tail"], "ms",
                    f"n={summary['count']}")
        row(name, "error_rate", outcome["error_rate"], "ratio",
            f"n={outcome['attempted']} failed={outcome['failed']}")
        for error in outcome["errors"][:5]:
            print(f"{name:<24} OP FAILED: {error}")
        for failure in outcome["failures"]:
            print(f"{name:<24} CHECK FAILED: {failure}")
    if all(set(o["metrics"]) == {m for m, _ in END_TO_END} for o in outcomes):
        print()
        print(f"{'workload':<24}" + "".join(f"{f'{m} [{u}]':>24}" for m, u in END_TO_END))
        for outcome in outcomes:
            print(f"{outcome['workload']:<24}" + "".join(
                f"{outcome['metrics'][m]['value']:>24.4f}" for m, _ in END_TO_END))


def main(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS + EXTRA_WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="also write every measurement here (JSON)")
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no repro sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    names = [args.workload] if args.workload else list(WORKLOADS + EXTRA_WORKLOADS)
    outcomes = []
    for name in names:
        try:
            outcomes.append(measure(name, args.seed, args.seconds, bool(args.trace)))
        except Exception:
            traceback.print_exc()
            print(f"error: workload {name} did not complete", file=sys.stderr)
            return 1
    print_table(outcomes)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump({"seed": args.seed, "seconds": args.seconds,
                       "trace": args.trace, "outcomes": outcomes}, handle, indent=2)
    if len(outcomes) == 1:
        metrics = outcomes[0]["metrics"]
    else:
        metrics = {
            f"{o['workload']}.{m}": entry
            for o in outcomes
            for m, entry in o["metrics"].items()
        }
    correct = all(o["correct"] for o in outcomes)
    print(json.dumps({
        "correct": correct,
        "attempted": sum(o["attempted"] for o in outcomes),
        "failed": sum(o["failed"] for o in outcomes),
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
