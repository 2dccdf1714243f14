"""Run ``repro serve`` in this process, optionally with layer tracing.

Usage::

    python3 perfbench/serve_child.py --src SRC --stats-out STATS.json \
        [--trace-out SPANS.json] -- serve --store-dir DIR --port-file PORT ...

Everything after ``--`` is passed to ``repro.cli.main``.  With
``--trace-out`` the layer wrappers of :mod:`layers` are installed before
the server starts and every recorded span is written there once it shuts
down (SIGTERM).  The peak resident memory of this process is written to
``--stats-out``.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys


def main(argv: list) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--src", required=True)
    parser.add_argument("--stats-out", required=True)
    parser.add_argument("--trace-out")
    parser.add_argument("serve_args", nargs=argparse.REMAINDER)
    args = parser.parse_args(argv)
    serve_args = args.serve_args[1:] if args.serve_args[:1] == ["--"] else args.serve_args
    sys.path.insert(0, args.src)

    from repro.cli import main as repro_main

    recorder = None
    if args.trace_out:
        import layers

        recorder = layers.Recorder()
        layers.install_core(recorder)
        layers.install_service(recorder)
    code = repro_main(serve_args)
    if recorder is not None:
        recorder.dump(args.trace_out)
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    with open(args.stats_out, "w", encoding="utf-8") as handle:
        json.dump({"exit_code": code, "peak_rss_mb": peak_kib / 1024.0}, handle)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
