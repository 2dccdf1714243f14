"""Atomic, checksummed checkpoints of inference runs.

A checkpoint captures everything needed to continue an
``infer_sequence``/annealing run exactly where it stopped: the step
index, the particle collection (object or columnar layout), the RNG
generator state at the step boundary, and optional extras (per-step
stats).  Because the RNG state is part of the snapshot, a killed run
resumed from its latest checkpoint replays the remaining steps with the
exact draws the uninterrupted run would have made — the final
collection is byte-identical.

File layout (one file per checkpointed step, ``step-00000007.ckpt``)::

    REPRO-CKPT 1 <sha256-of-body> <body-length>\\n
    <body bytes — a repro.store.codec JSON document>

Writes are atomic: the body goes to a temporary file in the same
directory, is fsynced, and is renamed over the final name.  A crash
mid-write leaves only a ``.tmp-*`` file, which readers ignore and the
next writer cleans up.  Reads verify the length and checksum, so a torn
or bit-flipped file raises
:class:`~repro.errors.CheckpointCorruptionError`;
:meth:`CheckpointManager.load_latest` treats that as "fall back to the
previous checkpoint" while :meth:`CheckpointManager.load` surfaces it.
A checkpoint written by a *newer* library version, or in the retired
binary framing, raises :class:`~repro.errors.SchemaVersionError` and is
never skipped over —
silently resuming from an older checkpoint instead would corrupt the
run's history.
"""

from __future__ import annotations

import hashlib
import os
import re
import warnings
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Union

import numpy as np

from ..core.columnar import ColumnarCollection
from ..core.weighted import WeightedCollection
from ..errors import CheckpointCorruptionError, CodecError, SchemaVersionError
from .codec import dumps, loads

__all__ = ["Checkpoint", "CheckpointManager"]

_HEADER_PREFIX = b"REPRO-CKPT"
_HEADER_VERSION = 1
_STEP_FILE = re.compile(r"^step-(\d{8})\.ckpt$")

#: What a checkpoint holds: either particle layout.
ParticleCollection = Union[WeightedCollection, ColumnarCollection]


@dataclass
class Checkpoint:
    """One loaded checkpoint."""

    step: int
    collection: ParticleCollection
    rng: Optional[np.random.Generator]
    extra: Dict[str, Any] = field(default_factory=dict)
    path: Optional[Path] = None


class CheckpointManager:
    """Snapshot/restore of sequence runs in one directory.

    Parameters
    ----------
    directory:
        Where checkpoint files live; created on first save.
    every:
        Save cadence for :meth:`maybe_save` (``1`` = every step).
    keep:
        When set, only the ``keep`` newest checkpoints are retained;
        older ones are deleted after each successful save.
    """

    def __init__(
        self,
        directory: Any,
        *,
        every: int = 1,
        keep: Optional[int] = None,
    ):
        self.directory = Path(directory)
        if int(every) < 1:
            raise ValueError(f"every must be >= 1, got {every!r}")
        self.every = int(every)
        if keep is not None and int(keep) < 1:
            raise ValueError(f"keep must be >= 1, got {keep!r}")
        self.keep = None if keep is None else int(keep)

    # -- paths ----------------------------------------------------------------

    def path_for(self, step: int) -> Path:
        return self.directory / f"step-{step:08d}.ckpt"

    def list_steps(self) -> List[int]:
        """Steps with a checkpoint file present (unvalidated), ascending."""
        if not self.directory.is_dir():
            return []
        steps = []
        for entry in self.directory.iterdir():
            match = _STEP_FILE.match(entry.name)
            if match:
                steps.append(int(match.group(1)))
        return sorted(steps)

    def latest_step(self) -> Optional[int]:
        """The newest step with a checkpoint file present (unvalidated).

        Cheap directory metadata only — the failover path uses it to
        compare "is my warm replica behind the shared store?" without
        decoding a snapshot.
        """
        steps = self.list_steps()
        return steps[-1] if steps else None

    def latest_bytes(self) -> Optional[bytes]:
        """Raw bytes of the newest checkpoint file (header + body).

        Byte-identity checks (the chaos drills) compare these directly:
        two equal files imply equal recovered state because the body is
        a canonical codec document.
        """
        step = self.latest_step()
        if step is None:
            return None
        try:
            return self.path_for(step).read_bytes()
        except OSError:
            return None

    # -- writing --------------------------------------------------------------

    def save(
        self,
        step: int,
        collection: ParticleCollection,
        rng: Optional[np.random.Generator] = None,
        extra: Optional[Dict[str, Any]] = None,
    ) -> Path:
        """Atomically write the checkpoint for ``step``."""
        payload = {
            "step": int(step),
            "collection": collection,
            "rng": rng,
            "extra": dict(extra or {}),
        }
        body = dumps(payload)
        digest = hashlib.sha256(body).hexdigest()
        header = (
            f"{_HEADER_PREFIX.decode()} {_HEADER_VERSION} {digest} {len(body)}\n"
        ).encode("ascii")

        self.directory.mkdir(parents=True, exist_ok=True)
        self._clean_tmp_files()
        final_path = self.path_for(step)
        tmp_path = self.directory / f".tmp-step-{step:08d}-{os.getpid()}"
        with open(tmp_path, "wb") as handle:
            handle.write(header)
            handle.write(body)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp_path, final_path)
        self._fsync_directory()
        if self.keep is not None:
            self._prune()
        return final_path

    def maybe_save(
        self,
        step: int,
        collection: ParticleCollection,
        rng: Optional[np.random.Generator] = None,
        extra: Optional[Dict[str, Any]] = None,
        *,
        force: bool = False,
    ) -> Optional[Path]:
        """Save when the cadence (or ``force``) says so."""
        if force or (step + 1) % self.every == 0:
            return self.save(step, collection, rng=rng, extra=extra)
        return None

    def _clean_tmp_files(self) -> None:
        for entry in self.directory.glob(".tmp-step-*"):
            try:
                entry.unlink()
            except OSError:
                pass

    def _fsync_directory(self) -> None:
        try:
            fd = os.open(self.directory, os.O_RDONLY)
        except OSError:
            return
        try:
            os.fsync(fd)
        except OSError:
            pass
        finally:
            os.close(fd)

    def _prune(self) -> None:
        steps = self.list_steps()
        for step in steps[: max(0, len(steps) - self.keep)]:
            try:
                self.path_for(step).unlink()
            except OSError:
                pass

    # -- reading --------------------------------------------------------------

    def load(self, step: int) -> Checkpoint:
        """Load and verify one checkpoint; raises on any defect."""
        path = self.path_for(step)
        return self._load_path(path, expected_step=step)

    def load_latest(self) -> Optional[Checkpoint]:
        """The newest *valid* checkpoint, or None.

        Corrupt or truncated files are skipped with a warning (partial-
        write recovery: fall back to the previous snapshot).  A
        newer-schema or retired-format checkpoint is **not** skipped — it
        propagates as :class:`~repro.errors.SchemaVersionError`, because
        quietly resuming from an older step would silently rewind the run.
        """
        for step in reversed(self.list_steps()):
            try:
                return self.load(step)
            except SchemaVersionError:
                raise
            except (CheckpointCorruptionError, CodecError) as error:
                warnings.warn(
                    f"skipping corrupt checkpoint {self.path_for(step)}: {error}",
                    RuntimeWarning,
                    stacklevel=2,
                )
        return None

    def _load_path(self, path: Path, expected_step: Optional[int] = None) -> Checkpoint:
        try:
            raw = path.read_bytes()
        except OSError as error:
            raise CheckpointCorruptionError(f"cannot read checkpoint {path}: {error}")

        if not raw:
            raise CheckpointCorruptionError(
                f"checkpoint {path} is empty (zero-byte file from a crashed write)"
            )
        newline = raw.find(b"\n")
        if newline < 0 or not raw.startswith(_HEADER_PREFIX):
            raise CheckpointCorruptionError(
                f"checkpoint {path} has no valid header (truncated write?)"
            )
        header_fields = raw[:newline].decode("ascii", errors="replace").split()
        if len(header_fields) != 4 or header_fields[0] != _HEADER_PREFIX.decode():
            raise CheckpointCorruptionError(f"checkpoint {path} has a malformed header")
        _, header_version, digest, length = header_fields
        try:
            header_version = int(header_version)
            length = int(length)
        except ValueError:
            # A garbled header must degrade to "corrupt" (skippable by
            # load_latest), not leak a bare ValueError to the caller.
            raise CheckpointCorruptionError(
                f"checkpoint {path} has a non-numeric header field"
            )
        if header_version > _HEADER_VERSION:
            raise SchemaVersionError(
                f"checkpoint {path} uses header version {header_version}, "
                f"this library supports up to {_HEADER_VERSION}",
                found=header_version,
                supported=_HEADER_VERSION,
            )
        body = raw[newline + 1:]
        if len(body) != length:
            raise CheckpointCorruptionError(
                f"checkpoint {path} body is {len(body)} bytes, header promised "
                f"{length} (partial write)"
            )
        if hashlib.sha256(body).hexdigest() != digest:
            raise CheckpointCorruptionError(
                f"checkpoint {path} failed its checksum (corrupted on disk)"
            )

        payload = loads(body)  # may raise SchemaVersionError / CodecError
        if not isinstance(payload, dict) or "step" not in payload:
            raise CheckpointCorruptionError(
                f"checkpoint {path} decoded to an unexpected payload"
            )
        step = int(payload["step"])
        if expected_step is not None and step != expected_step:
            raise CheckpointCorruptionError(
                f"checkpoint {path} claims step {step}, expected {expected_step}"
            )
        collection = payload.get("collection")
        if not isinstance(collection, (WeightedCollection, ColumnarCollection)):
            raise CheckpointCorruptionError(
                f"checkpoint {path} carries no particle collection"
            )
        return Checkpoint(
            step=step,
            collection=collection,
            rng=payload.get("rng"),
            extra=payload.get("extra") or {},
            path=path,
        )
