"""Tests for the command-line interface."""

import contextlib
import json
import os
import pathlib
import subprocess
import sys
import time

import pytest

from repro.cli import main
from repro.lang.programs import BURGLARY_ORIGINAL, BURGLARY_REFINED


@pytest.fixture
def burglary_files(tmp_path):
    old = tmp_path / "old.pp"
    new = tmp_path / "new.pp"
    old.write_text(BURGLARY_ORIGINAL)
    new.write_text(BURGLARY_REFINED)
    return str(old), str(new)


class TestParse:
    def test_pretty_prints(self, burglary_files, capsys):
        old, _new = burglary_files
        assert main(["parse", old]) == 0
        output = capsys.readouterr().out
        assert "burglary = flip(0.02);" in output
        assert "observe(" in output

    def test_missing_file(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["parse", str(tmp_path / "nope.pp")])

    def test_syntax_error_propagates(self, tmp_path):
        bad = tmp_path / "bad.pp"
        bad.write_text("x = ;")
        from repro.lang import ParseError

        with pytest.raises(ParseError):
            main(["parse", str(bad)])


class TestRun:
    def test_samples_with_seed(self, burglary_files, capsys):
        old, _new = burglary_files
        assert main(["run", old, "-n", "3", "--seed", "1"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 3
        assert all("log_prob=" in line for line in lines)

    def test_env_parsing(self, tmp_path, capsys):
        program = tmp_path / "p.pp"
        program.write_text("return n * 2;")
        assert main(["run", str(program), "-n", "1", "--env", "n=21"]) == 0
        assert "return=42" in capsys.readouterr().out

    def test_env_list_value(self, tmp_path, capsys):
        program = tmp_path / "p.pp"
        program.write_text("return ys[1];")
        assert main(["run", str(program), "-n", "1", "--env", "ys=1.5,2.5,3.5"]) == 0
        assert "return=2.5" in capsys.readouterr().out

    def test_bad_env_format(self, burglary_files):
        old, _new = burglary_files
        with pytest.raises(SystemExit):
            main(["run", old, "--env", "oops"])


class TestEnumerate:
    def test_burglary_posterior(self, burglary_files, capsys):
        old, _new = burglary_files
        assert main(["enumerate", old]) == 0
        output = capsys.readouterr().out
        assert "P(return = 1) = 0.2046" in output
        assert "P(return = 0) = 0.7953" in output


class TestDiff:
    def test_correspondence_lines(self, burglary_files, capsys):
        old, new = burglary_files
        assert main(["diff", old, new]) == 0
        output = capsys.readouterr().out
        assert "<-" in output
        # burglary's flip is matched between the programs.
        assert "flip:2:12  <-  flip:2:12" in output

    def test_unrelated_programs(self, tmp_path, capsys):
        a = tmp_path / "a.pp"
        b = tmp_path / "b.pp"
        a.write_text("x = gauss(0, 1);")
        b.write_text("y = uniform(0, 5);")
        assert main(["diff", str(a), str(b)]) == 0
        assert "no corresponding random expressions" in capsys.readouterr().out


class TestTranslate:
    def test_burglary_translation(self, burglary_files, capsys):
        old, new = burglary_files
        assert main(["translate", old, new, "-n", "4000", "--seed", "0"]) == 0
        output = capsys.readouterr().out
        assert "translated 4000 traces" in output
        # The refined posterior puts ~0.19 on burglary = 1.
        line = [l for l in output.splitlines() if "P(return = 1)" in l][0]
        probability = float(line.split("=")[-1])
        assert probability == pytest.approx(0.194, abs=0.05)

    def test_parameter_edit_translation(self, tmp_path, capsys):
        old = tmp_path / "old.pp"
        new = tmp_path / "new.pp"
        old.write_text("x = flip(0.5); return x;")
        new.write_text("x = flip(0.8); return x;")
        assert main(["translate", str(old), str(new), "-n", "3000", "--seed", "2"]) == 0
        output = capsys.readouterr().out
        line = [l for l in output.splitlines() if "P(return = 1)" in l][0]
        probability = float(line.split("=")[-1])
        assert probability == pytest.approx(0.8, abs=0.04)

    @pytest.mark.parametrize("policy", ["fail_fast", "drop", "regenerate"])
    def test_fault_policy_flag_accepted(self, burglary_files, capsys, policy):
        old, new = burglary_files
        assert main(["translate", old, new, "-n", "200", "--seed", "0",
                     "--fault-policy", policy]) == 0
        output = capsys.readouterr().out
        assert "translated 200 traces" in output
        # Clean translators produce no faults, so no fault line is shown.
        assert "faults:" not in output

    def test_unknown_fault_policy_rejected(self, burglary_files):
        old, new = burglary_files
        with pytest.raises(SystemExit):
            main(["translate", old, new, "--fault-policy", "sometimes"])


class TestCheck:
    def test_clean_program(self, burglary_files, capsys):
        old, _new = burglary_files
        assert main(["check", old]) == 0
        assert "ok" in capsys.readouterr().out

    def test_errors_set_exit_code(self, tmp_path, capsys):
        bad = tmp_path / "bad.pp"
        bad.write_text("y = x; z = flip(2);")
        assert main(["check", str(bad)]) == 1
        output = capsys.readouterr().out
        assert "error" in output
        assert "'x'" in output
        assert "outside [0, 1]" in output

    def test_env_declares_parameters(self, tmp_path, capsys):
        program = tmp_path / "p.pp"
        program.write_text("return n * 2;")
        assert main(["check", str(program)]) == 1
        capsys.readouterr()
        assert main(["check", str(program), "--env", "n=0"]) == 0

    def test_warning_does_not_fail(self, tmp_path, capsys):
        program = tmp_path / "p.pp"
        program.write_text("def f() { x = 1; } skip;")
        assert main(["check", str(program)]) == 0
        assert "warning" in capsys.readouterr().out

    def test_kind_errors_reported(self, tmp_path, capsys):
        program = tmp_path / "p.pp"
        program.write_text("x = 1; y = x[0];")
        assert main(["check", str(program)]) == 1
        assert "indexed but is a scalar" in capsys.readouterr().out

    def test_array_env_declares_array_kind(self, tmp_path, capsys):
        program = tmp_path / "p.pp"
        program.write_text("y = ys[0] + 1; return y;")
        assert main(["check", str(program), "--env", "ys=1,2,3"]) == 0
        assert "ok" in capsys.readouterr().out


class TestTranslateObservability:
    def test_trace_out_writes_span_tree(self, burglary_files, tmp_path, capsys):
        import json

        old, new = burglary_files
        trace_path = tmp_path / "trace.json"
        assert main(["translate", old, new, "-n", "50", "--seed", "0",
                     "--trace-out", str(trace_path)]) == 0
        assert f"trace written to {trace_path}" in capsys.readouterr().out
        payload = json.loads(trace_path.read_text())
        (step,) = payload["spans"]
        assert step["name"] == "smc.step"
        assert step["duration_s"] > 0
        child_names = [child["name"] for child in step["children"]]
        assert "smc.translate" in child_names
        # Per-particle spans nest inside the translate phase.
        translate = step["children"][child_names.index("smc.translate")]
        particles = [c for c in translate["children"]
                     if c["name"] == "translate.particle"]
        assert len(particles) == 50
        # Phase durations sum to within the step duration.
        phase_total = sum(child["duration_s"] for child in step["children"])
        assert phase_total <= step["duration_s"]

    def test_metrics_out_writes_registry_snapshot(self, burglary_files, tmp_path,
                                                  capsys):
        import json

        old, new = burglary_files
        metrics_path = tmp_path / "metrics.json"
        assert main(["translate", old, new, "-n", "40", "--seed", "0",
                     "--metrics-out", str(metrics_path)]) == 0
        capsys.readouterr()
        payload = json.loads(metrics_path.read_text())
        assert payload["smc.particles_translated"]["value"] == 40
        assert payload["smc.steps"]["value"] == 1
        assert "smc.ess_before_resample" in payload

    def test_verbose_prints_step_table(self, burglary_files, capsys):
        old, new = burglary_files
        assert main(["translate", old, new, "-n", "30", "--seed", "0",
                     "--verbose"]) == 0
        lines = capsys.readouterr().out.splitlines()
        header = [l for l in lines if "particles" in l and "ess" in l]
        assert header, "expected a step-table header"
        # One data row for the single SMC step ("-": no sequence index).
        assert any(l.strip().startswith("-") and "30" in l for l in lines)

    def test_quiet_without_flags_writes_nothing(self, burglary_files, tmp_path,
                                                capsys):
        old, new = burglary_files
        assert main(["translate", old, new, "-n", "20", "--seed", "0"]) == 0
        output = capsys.readouterr().out
        assert "trace written" not in output
        assert "metrics written" not in output
        names = {path.name for path in tmp_path.iterdir()}
        assert names == {"old.pp", "new.pp"}  # only the fixture inputs


class TestExperimentCommand:
    def test_unknown_name_rejected(self):
        with pytest.raises(SystemExit):
            main(["experiment", "fig99"])

    @pytest.mark.slow
    def test_fig8_quick_writes_artifacts(self, tmp_path, capsys):
        import json

        rows = tmp_path / "rows.json"
        trace = tmp_path / "trace.json"
        metrics = tmp_path / "metrics.json"
        assert main(["experiment", "fig8", "--quick",
                     "--out", str(rows),
                     "--trace-out", str(trace),
                     "--metrics-out", str(metrics)]) == 0
        capsys.readouterr()
        parsed_rows = json.loads(rows.read_text())
        assert any(row["series"] == "Incremental" for row in parsed_rows)
        payload = json.loads(trace.read_text())
        names = {span["name"] for span in payload["spans"]}
        assert "fig8.incremental" in names
        assert "fig8.mcmc" in names
        parsed_metrics = json.loads(metrics.read_text())
        assert parsed_metrics["smc.particles_translated"]["value"] > 0


class TestTranslateExecutor:
    def test_executor_flag_accepted(self, burglary_files, capsys):
        old, new = burglary_files
        assert main(["translate", old, new, "-n", "100", "--seed", "0",
                     "--executor", "serial"]) == 0
        assert "translated 100 traces" in capsys.readouterr().out

    def test_executor_matches_serial_reference(self, burglary_files, capsys):
        old, new = burglary_files

        def posterior_lines(extra):
            assert main(["translate", old, new, "-n", "200", "--seed", "4",
                         *extra]) == 0
            output = capsys.readouterr().out
            return [l for l in output.splitlines() if l.startswith("P(")]

        reference = posterior_lines(["--executor", "serial"])
        assert posterior_lines(["--executor", "process", "--workers", "2"]) == reference

    def test_unknown_backend_rejected(self, burglary_files):
        old, new = burglary_files
        for backend in ("gpu", "thread"):
            with pytest.raises(SystemExit):
                main(["translate", old, new, "--executor", backend])

    def test_bad_worker_count_rejected(self, burglary_files):
        old, new = burglary_files
        with pytest.raises(SystemExit):
            main(["translate", old, new, "--executor", "serial", "--workers", "0"])

    def test_verbose_reports_worker_fault_column(self, burglary_files, capsys):
        old, new = burglary_files
        assert main(["translate", old, new, "-n", "30", "--seed", "0",
                     "--fault-policy", "drop", "--verbose",
                     "--executor", "process", "--workers", "2"]) == 0
        lines = capsys.readouterr().out.splitlines()
        header = [l for l in lines if "by-worker" in l]
        assert header, "expected the by-worker column in the step table"
        (row,) = [l for l in lines if "w0=" in l]
        # A clean run still reports explicit zeros for both workers.
        assert "w0=0" in row and "w1=0" in row

    def test_verbose_inline_loop_has_no_worker_breakdown(self, burglary_files,
                                                         capsys):
        old, new = burglary_files
        assert main(["translate", old, new, "-n", "30", "--seed", "0",
                     "--fault-policy", "drop", "--verbose"]) == 0
        lines = capsys.readouterr().out.splitlines()
        (row,) = [l.rstrip() for l in lines
                  if l.strip().startswith("-") and l.rstrip().endswith("-")]
        assert "w0=" not in row


class TestLint:
    """The static-analysis subcommand and its exit-code contract."""

    def test_clean_program_exits_zero(self, tmp_path, capsys):
        program = tmp_path / "ok.pp"
        program.write_text("x = flip(0.3);\nobserve(flip(0.9) == 1);\nreturn x;\n")
        assert main(["lint", str(program)]) == 0
        assert "0 error(s)" in capsys.readouterr().out

    def test_error_findings_exit_lint(self, tmp_path, capsys):
        from repro.cli import EXIT_LINT

        program = tmp_path / "bad.pp"
        program.write_text("p = 3;\nx = flip(p / 2);\nreturn x;\n")
        assert main(["lint", str(program)]) == EXIT_LINT
        output = capsys.readouterr().out
        assert "param-range" in output

    def test_info_findings_never_fail_even_strict(self, tmp_path, capsys):
        program = tmp_path / "unused.pp"
        program.write_text("c = 1;\nx = flip(0.5);\nreturn x;\n")
        assert main(["lint", str(program), "--strict"]) == 0
        assert "unused-variable" in capsys.readouterr().out

    def test_strict_escalates_warnings(self, tmp_path, capsys):
        from repro.cli import EXIT_LINT

        program = tmp_path / "vacuous.pp"
        program.write_text("observe(flip(1) == 1);\nreturn 1;\n")
        assert main(["lint", str(program)]) == 0
        capsys.readouterr()
        assert main(["lint", str(program), "--strict"]) == EXIT_LINT

    def test_pair_runs_correspondence_and_edit_checks(self, burglary_files, capsys):
        old, new = burglary_files
        assert main(["lint", old, new]) == 0
        assert "error(s)" in capsys.readouterr().out

    def test_json_format_and_artifact(self, tmp_path, burglary_files, capsys):
        import json

        old, _new = burglary_files
        out = tmp_path / "report.json"
        assert main(["lint", old, "--format", "json", "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        assert report["version"] == 1
        assert set(report["summary"]) == {"info", "warning", "error"}
        printed = capsys.readouterr().out
        assert '"version": 1' in printed

    def test_three_files_is_usage_error(self, tmp_path, capsys):
        from repro.cli import EXIT_USAGE

        with pytest.raises(SystemExit) as excinfo:
            main(["lint", "a.pp", "b.pp", "c.pp"])
        assert excinfo.value.code == EXIT_USAGE

    def test_unreadable_file_is_usage_error(self, tmp_path):
        from repro.cli import EXIT_USAGE

        with pytest.raises(SystemExit) as excinfo:
            main(["lint", str(tmp_path / "missing.pp")])
        assert excinfo.value.code == EXIT_USAGE

    def test_env_declares_parameters(self, tmp_path, capsys):
        program = tmp_path / "param.pp"
        program.write_text("x = gauss(mu, 1.0);\nreturn x;\n")
        from repro.cli import EXIT_LINT

        assert main(["lint", str(program)]) == EXIT_LINT
        capsys.readouterr()
        assert main(["lint", str(program), "--env", "mu=0.0"]) == 0

    def test_bundled_strict_is_clean(self, capsys):
        # The acceptance gate: every shipped program, edit pair,
        # correspondence, and config is warning-free.
        assert main(["lint", "bundled", "--strict"]) == 0
        assert "0 error(s), 0 warning(s)" in capsys.readouterr().out

    def test_pair_with_derive_validates_the_derived_map(self, tmp_path, capsys):
        old = tmp_path / "old.pp"
        new = tmp_path / "new.pp"
        old.write_text("x = gauss(0.0, 2.0);\nobserve(gauss(x, 1.0) == 1.0);\nreturn x;\n")
        new.write_text("x = gauss(0.0, 3.0);\nobserve(gauss(x, 1.0) == 1.0);\nreturn x;\n")
        assert main(["lint", str(old), str(new), "--derive"]) == 0
        assert "0 error(s), 0 warning(s)" in capsys.readouterr().out


@pytest.fixture
def gauss_chain(tmp_path):
    """A three-program sigma-drift edit chain."""
    paths = []
    for index, (sigma, noise) in enumerate([(2.0, 1.0), (3.0, 1.0), (3.0, 0.5)]):
        path = tmp_path / f"p{index}.pp"
        path.write_text(
            f"x = gauss(0.0, {sigma});\n"
            f"observe(gauss(x, {noise}) == 1.0);\n"
            "return x;\n"
        )
        paths.append(str(path))
    return paths


class TestDerive:
    """The derive subcommand and --correspondence derive threading."""

    def test_text_report_lists_matches(self, gauss_chain, capsys):
        old, new, _ = gauss_chain
        assert main(["derive", old, new]) == 0
        output = capsys.readouterr().out
        assert "derived correspondence:" in output
        assert "[exact, confidence 1.00]" in output

    def test_json_report_and_artifact(self, tmp_path, gauss_chain, capsys):
        import json

        old, new, _ = gauss_chain
        out = tmp_path / "derivation.json"
        assert main(["derive", old, new, "--format", "json", "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        assert report["min_confidence"] == 1.0
        assert report["matches"] and report["fresh"] == []
        assert '"summary"' in capsys.readouterr().out

    def test_sequence_with_derived_maps_is_byte_identical(
        self, tmp_path, gauss_chain, capsys
    ):
        derived = tmp_path / "derived.bin"
        diffed = tmp_path / "diffed.bin"
        base = ["sequence", *gauss_chain, "--seed", "3", "-n", "50"]
        assert main(base + ["--correspondence", "derive", "--out", str(derived)]) == 0
        assert main(base + ["--out", str(diffed)]) == 0
        capsys.readouterr()
        # Same reuse decisions -> same RNG consumption -> same bytes.
        assert derived.read_bytes() == diffed.read_bytes()

    def test_missing_file_is_usage_error(self, tmp_path):
        from repro.cli import EXIT_USAGE

        with pytest.raises(SystemExit) as excinfo:
            main(["derive", str(tmp_path / "nope.pp"), str(tmp_path / "nope2.pp")])
        assert excinfo.value.code == EXIT_USAGE


class TestServeAndLoadgen:
    """The service commands and their distinct exit code (5)."""

    def test_exit_service_constant_is_distinct(self):
        from repro.cli import EXIT_FAULT, EXIT_LINT, EXIT_SERVICE, EXIT_USAGE

        assert EXIT_SERVICE == 5
        assert len({EXIT_USAGE, EXIT_FAULT, EXIT_LINT, EXIT_SERVICE}) == 4

    def test_serve_bad_config_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["serve", "--num-shards", "0"])
        assert info.value.code == 2
        assert "--num-shards" in capsys.readouterr().err

    def test_serve_bad_priority_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["serve", "--tenant-priority", "goldfive"])
        assert info.value.code == 2
        assert "NAME=RANK" in capsys.readouterr().err

    def test_loadgen_bad_workload_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["loadgen", "--port", "1", "--workload", "nonsense"])
        assert info.value.code == 2

    def test_loadgen_unreachable_server_exits_service(self, capsys):
        import socket

        # A port that is certainly closed: bind-then-release.
        probe = socket.socket()
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
        probe.close()
        code = main([
            "loadgen", "--port", str(port), "--sessions", "1", "--ops", "1",
            "--max-attempts", "1", "--fail-on-rejections",
        ])
        assert code == 5
        assert "rejected[unavailable]" in capsys.readouterr().out

    def test_loadgen_against_live_server(self, tmp_path, capsys):
        from repro.service import ServiceConfig, ServiceHandle

        handle = ServiceHandle.start(
            ServiceConfig(store_dir=str(tmp_path / "store"), num_particles=10)
        )
        try:
            host, port = handle.address
            out = tmp_path / "summary.json"
            code = main([
                "loadgen", "--host", host, "--port", str(port),
                "--sessions", "2", "--ops", "2", "-n", "10", "--seed", "3",
                "--out", str(out), "--fail-on-rejections",
            ])
        finally:
            handle.stop()
        assert code == 0
        output = capsys.readouterr().out
        assert "rejection rate 0.0%" in output
        assert "p50=" in output
        import json

        summary = json.loads(out.read_text())
        assert summary["ok"] == summary["requests"]

    def test_serve_old_shard_build_exits_usage(self, tmp_path, capsys, monkeypatch):
        # A shard fleet built against an older wire schema refuses the
        # router's hello; `repro serve` surfaces that as a usage error
        # (exit 2), the same rung as a newer-schema checkpoint.
        import functools

        from repro.service import shard as shard_module

        monkeypatch.setattr(
            shard_module,
            "ShardProcessPool",
            functools.partial(shard_module.ShardProcessPool, wire_schema=0),
        )
        code = main([
            "serve", "--port", "0",
            "--store-dir", str(tmp_path / "store"),
            "--shard-processes", "1", "-n", "10",
        ])
        assert code == 2
        assert "wire schema" in capsys.readouterr().err

    @staticmethod
    @contextlib.contextmanager
    def _serve_subprocess(tmp_path):
        """``repro serve`` in a child process: yields ``(process, port)``."""
        port_file = tmp_path / "port"
        env = dict(os.environ)
        env["PYTHONPATH"] = "src"
        process = subprocess.Popen(
            [
                sys.executable, "-m", "repro.cli", "serve",
                "--port", "0", "--port-file", str(port_file),
                "--store-dir", str(tmp_path / "store"), "-n", "10",
            ],
            cwd=str(pathlib.Path(__file__).resolve().parent.parent),
            env=env,
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
        )
        try:
            deadline = time.monotonic() + 30
            while not port_file.exists():
                assert process.poll() is None, process.stdout.read()
                assert time.monotonic() < deadline
                time.sleep(0.05)
            yield process, int(port_file.read_text().strip())
        finally:
            if process.poll() is None:
                process.kill()
                process.wait(timeout=10)

    def test_serve_subprocess_handshake_and_graceful_stop(self, tmp_path):
        import signal as signal_module

        from repro.service import ServiceClient

        with self._serve_subprocess(tmp_path) as (process, port):
            with ServiceClient("127.0.0.1", port, tenant="cli") as client:
                assert client.ping()["pong"] is True
                client.create("s1", "x = flip(0.5);\nreturn x;", seed=1)
            process.send_signal(signal_module.SIGTERM)
            assert process.wait(timeout=30) == 0
            assert "shutting down" in process.stdout.read()

    def test_serve_answers_a_malformed_array_with_bad_request(self, tmp_path):
        # An array whose bytes disagree with its shape is refused at
        # decode time, before the request reaches any handler.
        import socket
        import struct

        from repro.service import ServiceClient
        from repro.store.codec import SCHEMA_VERSION, loads

        array = {"$nd": {"dtype": "<f8", "shape": [1000000], "b64": "AAAAAAAAAAA="}}
        body = json.dumps({
            "format": "repro-store", "schema": SCHEMA_VERSION,
            "value": {"op": "ping", "payload": array},
        }).encode()
        with self._serve_subprocess(tmp_path) as (_, port):
            with socket.create_connection(("127.0.0.1", port), timeout=10) as sock:
                sock.sendall(struct.pack(">I", len(body)) + body)
                (length,) = struct.unpack(">I", sock.recv(4))
                reply = b""
                while len(reply) < length:
                    reply += sock.recv(length - len(reply))
            response = loads(reply)
            assert response["ok"] is False
            assert response["error"]["code"] == "bad_request"
            assert "array payload has 8 bytes" in response["error"]["message"]
            with ServiceClient("127.0.0.1", port, tenant="cli") as client:
                assert client.ping()["pong"] is True
