"""Persistent trace store: codec, checkpoints, and inference sessions.

The durable-state layer for incremental inference (ROADMAP: durable,
resumable, serveable posterior collections).  Three pieces:

* :mod:`repro.store.codec` — versioned strict-JSON serialization of
  traces, graph traces, weighted collections, SMC stats, and RNG
  generator state, with bitwise log-weight fidelity;
* :mod:`repro.store.checkpoint` — atomic, checksummed snapshots of
  ``infer_sequence``/annealing runs (wired to
  ``InferenceConfig.checkpoint_dir``/``checkpoint_every``), with
  resume-from-latest and corruption fallback;
* :mod:`repro.store.session` — a keyed registry of live particle
  collections serving program-edit requests, with LRU eviction to the
  on-disk store and per-session metrics.
"""

from .checkpoint import Checkpoint, CheckpointManager
from .codec import (
    AST_REGISTRY,
    DISTRIBUTION_REGISTRY,
    SCHEMA_VERSION,
    decode_value,
    deserialize,
    dumps,
    encode_value,
    loads,
    serialize,
)
from .session import InferenceSession, SessionManager

__all__ = [
    "SCHEMA_VERSION",
    "DISTRIBUTION_REGISTRY",
    "AST_REGISTRY",
    "serialize",
    "deserialize",
    "dumps",
    "loads",
    "encode_value",
    "decode_value",
    "Checkpoint",
    "CheckpointManager",
    "InferenceSession",
    "SessionManager",
]
