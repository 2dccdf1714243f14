"""CheckpointManager: atomic writes, corruption detection, recovery."""

import hashlib
import os
import pickle

import numpy as np
import pytest

from repro.core import Trace, WeightedCollection
from repro.errors import CheckpointCorruptionError, SchemaVersionError
from repro.store import Checkpoint, CheckpointManager
from repro.store.codec import dumps, serialize


def make_collection(rng, n=3):
    traces = [Trace() for _ in range(n)]
    return WeightedCollection(traces, list(rng.standard_normal(n)))


@pytest.fixture
def collection(rng):
    return make_collection(rng)


class TestSaveLoad:
    def test_round_trip(self, tmp_path, collection):
        manager = CheckpointManager(tmp_path)
        rng = np.random.default_rng(3)
        rng.standard_normal(4)
        path = manager.save(5, collection, rng=rng, extra={"note": "hi"})
        assert path.name == "step-00000005.ckpt"

        loaded = manager.load(5)
        assert isinstance(loaded, Checkpoint)
        assert loaded.step == 5
        assert loaded.collection.log_weights == collection.log_weights
        assert loaded.extra == {"note": "hi"}
        # The restored RNG continues the original stream exactly.
        assert list(loaded.rng.standard_normal(3)) == list(rng.standard_normal(3))

    def test_rng_is_optional(self, tmp_path, collection):
        manager = CheckpointManager(tmp_path)
        manager.save(0, collection)
        assert manager.load(0).rng is None

    def test_missing_checkpoint(self, tmp_path):
        manager = CheckpointManager(tmp_path)
        with pytest.raises(CheckpointCorruptionError):
            manager.load(0)

    def test_constructor_validation(self, tmp_path):
        with pytest.raises(ValueError):
            CheckpointManager(tmp_path, every=0)
        with pytest.raises(ValueError):
            CheckpointManager(tmp_path, keep=0)


class TestAtomicity:
    def test_no_tmp_files_left_behind(self, tmp_path, collection):
        manager = CheckpointManager(tmp_path)
        manager.save(0, collection)
        manager.save(1, collection)
        leftovers = [p.name for p in tmp_path.iterdir() if p.name.startswith(".tmp")]
        assert leftovers == []

    def test_stale_tmp_files_are_cleaned(self, tmp_path, collection):
        tmp_path.mkdir(exist_ok=True)
        stale = tmp_path / ".tmp-step-00000009-12345"
        stale.write_bytes(b"half a checkpoint")
        manager = CheckpointManager(tmp_path)
        manager.save(0, collection)
        assert not stale.exists()

    def test_tmp_files_invisible_to_readers(self, tmp_path, collection):
        manager = CheckpointManager(tmp_path)
        manager.save(0, collection)
        (tmp_path / ".tmp-step-00000003-777").write_bytes(b"junk")
        assert manager.list_steps() == [0]
        assert manager.load_latest().step == 0


class TestCorruptionDetection:
    def test_truncated_body(self, tmp_path, collection):
        manager = CheckpointManager(tmp_path)
        path = manager.save(0, collection)
        raw = path.read_bytes()
        path.write_bytes(raw[: len(raw) - 10])
        with pytest.raises(CheckpointCorruptionError, match="partial write"):
            manager.load(0)

    def test_bit_flip_in_body(self, tmp_path, collection):
        manager = CheckpointManager(tmp_path)
        path = manager.save(0, collection)
        raw = bytearray(path.read_bytes())
        raw[-5] ^= 0xFF
        path.write_bytes(bytes(raw))
        with pytest.raises(CheckpointCorruptionError, match="checksum"):
            manager.load(0)

    def test_malformed_header(self, tmp_path, collection):
        manager = CheckpointManager(tmp_path)
        path = manager.save(0, collection)
        path.write_bytes(b"TOTALLY-NOT-A-CHECKPOINT\nrest")
        with pytest.raises(CheckpointCorruptionError, match="header"):
            manager.load(0)

    def test_headerless_garbage(self, tmp_path, collection):
        manager = CheckpointManager(tmp_path)
        path = manager.save(0, collection)
        path.write_bytes(b"\x00" * 64)
        with pytest.raises(CheckpointCorruptionError):
            manager.load(0)

    def test_step_mismatch(self, tmp_path, collection):
        manager = CheckpointManager(tmp_path)
        source = manager.save(7, collection)
        target = manager.path_for(3)
        target.write_bytes(source.read_bytes())
        with pytest.raises(CheckpointCorruptionError, match="claims step"):
            manager.load(3)


class TestSchemaVersion:
    def _forge(self, directory, step, *, header_version=1, schema_body=None):
        """Write a structurally valid checkpoint with a chosen version."""
        body = schema_body
        if body is None:
            body = dumps({"step": step, "collection": None, "rng": None, "extra": {}})
        digest = hashlib.sha256(body).hexdigest()
        header = f"REPRO-CKPT {header_version} {digest} {len(body)}\n".encode()
        directory.mkdir(exist_ok=True)
        path = directory / f"step-{step:08d}.ckpt"
        path.write_bytes(header + body)
        return path

    def test_newer_header_version_rejected(self, tmp_path):
        self._forge(tmp_path, 0, header_version=99)
        manager = CheckpointManager(tmp_path)
        with pytest.raises(SchemaVersionError):
            manager.load(0)

    def test_newer_body_schema_rejected(self, tmp_path):
        body = b'{"format":"repro-store","schema":99,"value":null}'
        self._forge(tmp_path, 0, schema_body=body)
        manager = CheckpointManager(tmp_path)
        with pytest.raises(SchemaVersionError):
            manager.load(0)

    def test_load_latest_never_skips_newer_schema(self, tmp_path, collection):
        """Falling back past a newer-version checkpoint would silently
        rewind the run — load_latest must raise instead."""
        manager = CheckpointManager(tmp_path)
        manager.save(0, collection)
        self._forge(tmp_path, 1, header_version=99)
        with pytest.raises(SchemaVersionError):
            manager.load_latest()

    def test_load_latest_never_skips_retired_binary_body(self, tmp_path, collection):
        """A directory whose newest checkpoint is in the retired binary
        framing (with a valid checksum) reports it, not an older step."""
        manager = CheckpointManager(tmp_path)
        manager.save(0, collection)
        document = serialize({"step": 1, "collection": collection, "rng": None, "extra": {}})
        body = b"\x89REPROSTORE\x00" + (3).to_bytes(2, "big") + pickle.dumps(document)
        self._forge(tmp_path, 1, schema_body=body)
        with pytest.raises(SchemaVersionError) as excinfo:
            manager.load_latest()
        assert excinfo.value.found is None


class TestLoadLatest:
    def test_empty_directory(self, tmp_path):
        assert CheckpointManager(tmp_path).load_latest() is None

    def test_nonexistent_directory(self, tmp_path):
        manager = CheckpointManager(tmp_path / "never-created")
        assert manager.load_latest() is None
        assert manager.list_steps() == []

    def test_picks_newest(self, tmp_path, rng):
        manager = CheckpointManager(tmp_path)
        for step in (0, 3, 11):
            manager.save(step, make_collection(rng))
        assert manager.load_latest().step == 11

    def test_falls_back_over_corruption_with_warning(self, tmp_path, rng):
        manager = CheckpointManager(tmp_path)
        manager.save(0, make_collection(rng))
        newest = manager.save(1, make_collection(rng))
        raw = newest.read_bytes()
        newest.write_bytes(raw[: len(raw) // 2])  # torn write
        with pytest.warns(RuntimeWarning, match="skipping corrupt checkpoint"):
            loaded = manager.load_latest()
        assert loaded.step == 0

    def test_all_corrupt_returns_none(self, tmp_path, rng):
        manager = CheckpointManager(tmp_path)
        path = manager.save(0, make_collection(rng))
        path.write_bytes(b"garbage\n")
        with pytest.warns(RuntimeWarning):
            assert manager.load_latest() is None


class TestCadenceAndPruning:
    def test_maybe_save_cadence(self, tmp_path, collection):
        manager = CheckpointManager(tmp_path, every=3)
        written = [
            step
            for step in range(9)
            if manager.maybe_save(step, collection) is not None
        ]
        # Cadence counts completed steps: step indices 2, 5, 8.
        assert written == [2, 5, 8]

    def test_maybe_save_force(self, tmp_path, collection):
        manager = CheckpointManager(tmp_path, every=100)
        assert manager.maybe_save(0, collection) is None
        assert manager.maybe_save(1, collection, force=True) is not None
        assert manager.list_steps() == [1]

    def test_keep_prunes_oldest(self, tmp_path, rng):
        manager = CheckpointManager(tmp_path, keep=2)
        for step in range(5):
            manager.save(step, make_collection(rng))
        assert manager.list_steps() == [3, 4]

    def test_pruned_run_still_resumes(self, tmp_path, rng):
        manager = CheckpointManager(tmp_path, keep=1)
        for step in range(4):
            manager.save(step, make_collection(rng))
        assert manager.load_latest().step == 3


class TestCrashArtifacts:
    """Files a crashed writer can leave behind: empty, torn, garbled.

    ``load`` must report them as :class:`CheckpointCorruptionError`
    (never a bare ``ValueError`` leaking from header parsing), and
    ``load_latest`` must skip them in favor of an older valid snapshot
    — this is what the service's crash recovery leans on.
    """

    def test_zero_byte_file(self, tmp_path, collection):
        manager = CheckpointManager(tmp_path)
        path = manager.save(0, collection)
        path.write_bytes(b"")
        with pytest.raises(CheckpointCorruptionError, match="empty"):
            manager.load(0)

    def test_load_latest_skips_zero_byte_file(self, tmp_path, rng):
        manager = CheckpointManager(tmp_path)
        manager.save(0, make_collection(rng))
        newest = manager.save(1, make_collection(rng))
        newest.write_bytes(b"")
        with pytest.warns(RuntimeWarning, match="skipping corrupt checkpoint"):
            assert manager.load_latest().step == 0

    def test_truncated_header(self, tmp_path, collection):
        manager = CheckpointManager(tmp_path)
        path = manager.save(0, collection)
        path.write_bytes(path.read_bytes()[:8])  # cut mid-header, no newline
        with pytest.raises(CheckpointCorruptionError):
            manager.load(0)

    def test_non_numeric_header_fields(self, tmp_path, collection):
        manager = CheckpointManager(tmp_path)
        path = manager.save(0, collection)
        prefix, _, rest = path.read_bytes().partition(b" ")
        _, _, rest = rest.partition(b" ")  # drop the version field
        path.write_bytes(prefix + b" one " + rest)
        with pytest.raises(CheckpointCorruptionError, match="non-numeric"):
            manager.load(0)

    def test_non_numeric_length_field(self, tmp_path, collection):
        manager = CheckpointManager(tmp_path)
        path = manager.save(0, collection)
        header, newline, body = path.read_bytes().partition(b"\n")
        fields = header.split(b" ")
        fields[3] = b"NaN"
        path.write_bytes(b" ".join(fields) + newline + body)
        with pytest.raises(CheckpointCorruptionError, match="non-numeric"):
            manager.load(0)

    def test_load_latest_skips_garbled_header(self, tmp_path, rng):
        manager = CheckpointManager(tmp_path)
        manager.save(0, make_collection(rng))
        newest = manager.save(1, make_collection(rng))
        raw = newest.read_bytes()
        newest.write_bytes(raw.replace(b" 1 ", b" ? ", 1))
        with pytest.warns(RuntimeWarning, match="skipping corrupt checkpoint"):
            assert manager.load_latest().step == 0
