"""CLI persistence surface: sequence/resume/session, exit codes, kill-resume.

The subprocess test at the bottom is the CI persistence story in
miniature: SIGTERM a ``repro sequence`` run mid-flight via
``REPRO_KILL_AFTER_STEP``, ``repro resume`` from the latest checkpoint,
and require the resumed final collection to be byte-identical to an
uninterrupted run.
"""

import hashlib
import json
import os
import pathlib
import shutil
import subprocess
import sys

import pytest

from repro.cli import EXIT_FAULT, EXIT_USAGE, KILL_ENV_VAR, main
from repro.store import CheckpointManager, loads
from repro.store.codec import dumps

GAUSS_TEMPLATE = "x = gauss(0, 2); observe(gauss(x, 1) == {target}); return x;"

#: A columnar run's checkpoint directory as the schema-3 codec wrote it
#: (see ``fixtures/schema3/README.md``).
SCHEMA3_CHECKPOINTS = (
    pathlib.Path(__file__).parent / "fixtures" / "schema3" / "ckpt-columnar"
)


@pytest.fixture
def gauss_chain(tmp_path):
    """Four lang programs differing only in the observed value."""
    files = []
    for index, target in enumerate([1.0, 1.5, 2.0, 2.5]):
        path = tmp_path / f"p{index}.pp"
        path.write_text(GAUSS_TEMPLATE.format(target=target))
        files.append(str(path))
    return files


def run_sequence(files, out, ckpt_dir=None, extra=()):
    argv = ["sequence", *files, "-n", "50", "--seed", "3", "--out", str(out)]
    if ckpt_dir is not None:
        argv += ["--checkpoint-dir", str(ckpt_dir)]
    argv += list(extra)
    return main(argv)


class TestSequence:
    def test_writes_checkpoints_and_collection(self, gauss_chain, tmp_path, capsys):
        out = tmp_path / "final.bin"
        ckpt = tmp_path / "ckpt"
        assert run_sequence(gauss_chain, out, ckpt) == 0
        # 3 translators -> steps 0..2 all checkpointed (default every=1).
        assert CheckpointManager(ckpt).list_steps() == [0, 1, 2]
        collection = loads(out.read_bytes())
        assert len(collection) == 50
        assert "sequence complete: 3 step(s)" in capsys.readouterr().out

    def test_metrics_out(self, gauss_chain, tmp_path):
        metrics = tmp_path / "metrics.json"
        argv = ["sequence", *gauss_chain, "-n", "20", "--seed", "0",
                "--metrics-out", str(metrics)]
        assert main(argv) == 0
        payload = json.loads(metrics.read_text())
        assert payload  # at least the SMC counters are present

    def test_requires_two_files(self, gauss_chain, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["sequence", gauss_chain[0]])
        assert excinfo.value.code == EXIT_USAGE

    def test_missing_file_is_usage_error(self, gauss_chain, tmp_path):
        with pytest.raises(SystemExit) as excinfo:
            main(["sequence", gauss_chain[0], str(tmp_path / "nope.pp")])
        assert excinfo.value.code == EXIT_USAGE

    def test_bad_env_is_usage_error(self, gauss_chain):
        with pytest.raises(SystemExit) as excinfo:
            main(["sequence", *gauss_chain, "--env", "oops"])
        assert excinfo.value.code == EXIT_USAGE

    def test_inference_fault_exit_code(self, tmp_path):
        """A chain whose weights all collapse is an inference fault (3),
        distinct from usage errors (2)."""
        a = tmp_path / "a.pp"
        b = tmp_path / "b.pp"
        a.write_text("x = flip(0.5); observe(flip(0.5) == 1); return x;")
        b.write_text("x = flip(0.5); observe(flip(0.0) == 1); return x;")
        code = main(["sequence", str(a), str(b), "-n", "10", "--seed", "0"])
        assert code == EXIT_FAULT


class TestResume:
    def test_missing_checkpoint_dir_contents(self, gauss_chain, tmp_path):
        with pytest.raises(SystemExit) as excinfo:
            main(["resume", *gauss_chain, "--checkpoint-dir", str(tmp_path / "empty")])
        assert excinfo.value.code == EXIT_USAGE

    def test_newer_schema_checkpoint_rejected(self, gauss_chain, tmp_path):
        """A checkpoint written by a newer library version must be
        refused (exit 2), not silently skipped."""
        ckpt_dir = tmp_path / "ckpt"
        ckpt_dir.mkdir()
        body = b'{"format":"repro-store","schema":99,"value":null}'
        digest = hashlib.sha256(body).hexdigest()
        header = f"REPRO-CKPT 1 {digest} {len(body)}\n".encode()
        (ckpt_dir / "step-00000000.ckpt").write_bytes(header + body)
        with pytest.raises(SystemExit) as excinfo:
            main(["resume", *gauss_chain, "--checkpoint-dir", str(ckpt_dir)])
        assert excinfo.value.code == EXIT_USAGE

    def test_in_process_resume_matches_full_run(self, gauss_chain, tmp_path, capsys):
        full_out = tmp_path / "full.bin"
        assert run_sequence(gauss_chain, full_out) == 0

        # Interrupted variant: only the first two steps ran.
        ckpt = tmp_path / "ckpt"
        partial_out = tmp_path / "partial.bin"
        assert run_sequence(gauss_chain[:3], partial_out, ckpt) == 0

        resumed_out = tmp_path / "resumed.bin"
        code = main([
            "resume", *gauss_chain,
            "--checkpoint-dir", str(ckpt),
            "--out", str(resumed_out),
        ])
        assert code == 0
        assert "resuming from" in capsys.readouterr().out
        assert resumed_out.read_bytes() == full_out.read_bytes()

    def test_columnar_resume_from_schema3_checkpoint(self, gauss_chain, tmp_path):
        """On-disk state written before numeric arrays became raw bytes
        still resumes byte-identically to an uninterrupted run."""
        columnar = ["-n", "200", "--seed", "3", "--collection", "columnar"]
        full_out = tmp_path / "full.bin"
        assert main(["sequence", *gauss_chain, *columnar, "--out", str(full_out)]) == 0
        ckpt = shutil.copytree(SCHEMA3_CHECKPOINTS, tmp_path / "ckpt")
        assert b'"schema":3' in (ckpt / "step-00000000.ckpt").read_bytes()
        resumed_out = tmp_path / "resumed.bin"
        code = main([
            "resume", *gauss_chain, "--collection", "columnar",
            "--checkpoint-dir", str(ckpt), "--out", str(resumed_out),
        ])
        assert code == 0
        assert resumed_out.read_bytes() == full_out.read_bytes()


class TestSessionCommand:
    def test_fig8_workflow(self, tmp_path, capsys):
        metrics = tmp_path / "session.json"
        code = main([
            "session", "fig8", "-n", "40", "--seed", "0",
            "--metrics-out", str(metrics),
        ])
        assert code == 0
        payload = json.loads(metrics.read_text())
        assert payload["session"]["session.edits"]["value"] == 3
        assert len(payload["history"]) == 3
        assert len(payload["summaries"]["slope_mean_by_edit"]) == 4
        assert "edit 2" in capsys.readouterr().out

    def test_fig10_workflow_persists_store(self, tmp_path):
        store = tmp_path / "sessions"
        code = main([
            "session", "fig10", "-n", "10", "--seed", "0",
            "--store-dir", str(store),
        ])
        assert code == 0
        assert (store / "fig10-gmm.session").is_file()

    def test_unknown_workflow_is_usage_error(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["session", "fig99"])
        assert excinfo.value.code == EXIT_USAGE


@pytest.mark.slow
class TestKillAndResumeSubprocess:
    """The full crash-recovery story, across real processes."""

    def _run(self, argv, tmp_path, env_extra=None):
        env = dict(os.environ)
        root = os.path.join(os.path.dirname(__file__), os.pardir, os.pardir)
        env["PYTHONPATH"] = os.path.abspath(os.path.join(root, "src"))
        env.update(env_extra or {})
        return subprocess.run(
            [sys.executable, "-m", "repro.cli", *argv],
            cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
        )

    def test_sigterm_kill_then_resume_is_byte_identical(self, gauss_chain, tmp_path):
        full = self._run(
            ["sequence", *gauss_chain, "-n", "50", "--seed", "3",
             "--out", "full.bin"],
            tmp_path,
        )
        assert full.returncode == 0, full.stderr

        killed = self._run(
            ["sequence", *gauss_chain, "-n", "50", "--seed", "3",
             "--checkpoint-dir", "ckpt", "--out", "never-written.bin"],
            tmp_path,
            env_extra={KILL_ENV_VAR: "2"},
        )
        assert killed.returncode == -15  # died by SIGTERM
        assert not (tmp_path / "never-written.bin").exists()
        assert CheckpointManager(tmp_path / "ckpt").list_steps() == [0]

        resumed = self._run(
            ["resume", *gauss_chain, "--checkpoint-dir", "ckpt",
             "--out", "resumed.bin"],
            tmp_path,
        )
        assert resumed.returncode == 0, resumed.stderr
        assert "resuming from" in resumed.stdout
        assert (
            (tmp_path / "resumed.bin").read_bytes()
            == (tmp_path / "full.bin").read_bytes()
        )
