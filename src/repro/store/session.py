"""Incremental-inference sessions over a durable trace store.

The paper's workflow is interactive: a user edits a probabilistic
program repeatedly, and each edit reuses the previous posterior particle
collection via trace translation (Algorithm 2).  An
:class:`InferenceSession` is the server-side object for that workflow —
a keyed, *live* particle collection plus its RNG stream; clients submit
a program edit as a translator (e.g. a
:class:`~repro.core.corr_translator.CorrespondenceTranslator` built from
a new :class:`~repro.core.correspondence.Correspondence`, or a
:class:`~repro.graph.translate.GraphTranslator`) and get back the
translated, reweighted collection.

:class:`SessionManager` is the keyed registry: it holds the most
recently used sessions live and evicts the rest to the on-disk store
(one codec document per session), reloading them transparently on next
access.  Translators are per-request and never persisted — only the
durable state (collection, RNG stream, edit history) is.

Every session owns a :class:`~repro.observability.MetricsRegistry`, so
per-session counters/histograms (edits, particles translated, ESS,
translate latency) can be exported independently of whatever global
sinks the inference config carries.
"""

from __future__ import annotations

import copy
import os
import re
import threading
from collections import OrderedDict
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence

import numpy as np

from ..core.config import InferenceConfig
from ..core.mcmc import Kernel
from ..core.smc import SMCStep, infer
from ..core.translator import TraceTranslator
from ..core.weighted import WeightedCollection
from ..errors import CodecError, SessionError
from ..observability import Hooks, MetricsRegistry
from .codec import dumps, loads

__all__ = ["InferenceSession", "SessionManager"]

_SESSION_ID = re.compile(r"^[A-Za-z0-9][A-Za-z0-9._-]*$")


def _check_session_id(session_id: str) -> str:
    if not isinstance(session_id, str) or not _SESSION_ID.match(session_id):
        raise SessionError(
            f"invalid session id {session_id!r}; use letters, digits, '.', '_', '-'"
        )
    return session_id


def _edit_summary(edit: int, step: SMCStep) -> Dict[str, Any]:
    """The history entry of one applied edit."""
    stats = step.stats
    return {
        "edit": edit,
        "num_particles": stats.num_traces,
        "ess_before_resample": stats.ess_before_resample,
        "ess_after": stats.ess_after,
        "resampled": stats.resampled,
        "log_mean_weight_increment": stats.log_mean_weight_increment,
        "translate_seconds": stats.translate_seconds,
        "mcmc_seconds": stats.mcmc_seconds,
        "faults": stats.total_faults,
    }


class InferenceSession:
    """One live incremental-inference session.

    Parameters
    ----------
    session_id:
        Registry key (also the on-disk file stem after eviction).
    collection:
        The current posterior particle collection.
    rng:
        The session's private random stream.  It advances with every
        edit and is part of the persisted state, so an evicted-and-
        reloaded session continues byte-identically.
    config:
        Base :class:`InferenceConfig` for edits; the session swaps in
        its own metrics registry.  Defaults to adaptive resampling.
    history:
        Per-edit summaries (restored verbatim on reload).
    """

    def __init__(
        self,
        session_id: str,
        collection: WeightedCollection,
        rng: np.random.Generator,
        *,
        config: Optional[InferenceConfig] = None,
        history: Optional[List[Dict[str, Any]]] = None,
    ):
        self.session_id = _check_session_id(session_id)
        self.collection = collection
        self.rng = rng
        self.metrics = MetricsRegistry()
        base = config if config is not None else InferenceConfig(resample="adaptive")
        # Checkpointing belongs to sequence runs, not per-edit requests;
        # sessions persist through the manager's store instead.
        self._config = base.replace(metrics=self.metrics, checkpoint_dir=None)
        self.history: List[Dict[str, Any]] = list(history or [])
        #: Serializes mutation (submit) against concurrent snapshots, so
        #: an eviction racing a long edit persists either the pre- or the
        #: post-edit state — never a torn mixture.
        self._lock = threading.RLock()

    @property
    def num_edits(self) -> int:
        return len(self.history)

    def submit(
        self,
        translator: TraceTranslator,
        mcmc_kernel: Optional[Kernel] = None,
        *,
        hooks: Optional[Hooks] = None,
        commit: Optional[Callable[["InferenceSession"], Any]] = None,
    ) -> SMCStep:
        """Apply one program edit: translate, reweight, maybe resample.

        Returns the :class:`SMCStep` and replaces the session's live
        collection with the translated one.

        The edit is *transactional*: if translation raises — a fault
        under ``fail_fast``, or a deadline hook cancelling the request
        mid-flight — or ``commit`` raises, the session's collection, its
        RNG stream **and** its history are rolled back to their
        pre-submit state, so a failed or cancelled edit leaves the
        session byte-identical to before.

        Parameters
        ----------
        hooks:
            Per-request observability/cancellation hooks layered over
            the session's config for this edit only (the inference
            service uses this to enforce request deadlines at particle
            boundaries).
        commit:
            Called with the session once the edit is applied, still
            under the session lock (the inference service writes its
            durable checkpoint here); the edit counts only if it
            returns.
        """
        with self._lock:
            config = self._config if hooks is None else self._config.replace(hooks=hooks)
            rng_state = copy.deepcopy(self.rng.bit_generator.state)
            collection, num_edits = self.collection, len(self.history)
            try:
                step = infer(
                    translator, self.collection, self.rng, mcmc_kernel, config=config
                )
                self.collection = step.collection
                self.history.append(_edit_summary(num_edits, step))
                if commit is not None:
                    commit(self)
            except BaseException:
                self.rng.bit_generator.state = rng_state
                self.collection = collection
                del self.history[num_edits:]
                raise
            return self._count_step(step)

    def sequence(
        self,
        models: Sequence[Any],
        mcmc_kernels: Optional[Sequence[Optional[Kernel]]] = None,
        *,
        correspondence: str = "derive",
        hooks: Optional[Hooks] = None,
    ) -> List[SMCStep]:
        """Apply a chain of edits given only the models, no address maps.

        ``models[0]`` must be the program the session's collection
        currently approximates; each later model is the program after
        one more edit.  With the default ``correspondence="derive"``,
        the adjacent correspondences are derived automatically
        (:func:`repro.derive.derive_sequence_translators`) before any
        edit is applied, so a derivation failure leaves the session
        untouched.  Each edit then goes through :meth:`submit` and is
        individually transactional.
        """
        if correspondence != "derive":
            raise ValueError(
                f"correspondence must be 'derive', got {correspondence!r}; "
                "build translators yourself and call submit() for "
                "hand-written maps"
            )
        from ..derive import derive_sequence_translators

        translators = derive_sequence_translators(models)
        if mcmc_kernels is None:
            mcmc_kernels = [None] * len(translators)
        if len(mcmc_kernels) != len(translators):
            raise ValueError(
                "one (possibly None) MCMC kernel per edit is required: "
                f"{len(models)} models make {len(translators)} edits, got "
                f"{len(mcmc_kernels)} kernels"
            )
        return [
            self.submit(translator, kernel, hooks=hooks)
            for translator, kernel in zip(translators, mcmc_kernels)
        ]

    def _count_step(self, step: SMCStep) -> SMCStep:
        stats = step.stats
        self.metrics.counter("session.edits").inc()
        self.metrics.counter("session.particles_translated").inc(stats.num_traces)
        self.metrics.counter("session.faults").inc(stats.total_faults)
        self.metrics.histogram("session.ess_after").observe(stats.ess_after)
        self.metrics.histogram("session.translate_seconds").observe(
            stats.translate_seconds
        )
        return step

    def estimate(self, phi: Any) -> float:
        return self.collection.estimate(phi)

    def snapshot(self) -> Dict[str, Any]:
        """The session's durable state (what eviction persists)."""
        with self._lock:
            return {
                "session_id": self.session_id,
                "collection": self.collection,
                "rng": self.rng,
                "history": list(self.history),
            }

    def metrics_snapshot(self) -> Dict[str, Any]:
        return self.metrics.to_dict()

    def __repr__(self) -> str:
        return (
            f"InferenceSession({self.session_id!r}, particles="
            f"{len(self.collection)}, edits={self.num_edits})"
        )


class SessionManager:
    """Keyed registry of inference sessions with LRU eviction to disk.

    Parameters
    ----------
    store_dir:
        Directory for evicted sessions (``<id>.session`` codec files).
        ``None`` keeps every session live (no eviction possible).
    capacity:
        Maximum number of *live* sessions before the least recently
        used one is evicted to ``store_dir``.  Ignored when
        ``store_dir`` is None.
    config:
        Base inference config handed to new and reloaded sessions.
    """

    def __init__(
        self,
        store_dir: Optional[Any] = None,
        *,
        capacity: int = 4,
        config: Optional[InferenceConfig] = None,
    ):
        if int(capacity) < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity!r}")
        self.store_dir = None if store_dir is None else Path(store_dir)
        self.capacity = int(capacity)
        self.config = config
        self.metrics = MetricsRegistry()
        self._live: "OrderedDict[str, InferenceSession]" = OrderedDict()
        #: Guards the live table, the LRU order, and the evict/reload
        #: paths.  Reentrant because evict (under the lock) calls
        #: session.snapshot, and a manager method may trigger capacity
        #: enforcement which evicts.  Long-running per-session work
        #: (submit) runs under the *session's* lock, not this one, so
        #: edits on different sessions still proceed concurrently.
        self._lock = threading.RLock()

    # -- paths ----------------------------------------------------------------

    def _path_for(self, session_id: str) -> Optional[Path]:
        if self.store_dir is None:
            return None
        return self.store_dir / f"{session_id}.session"

    # -- lifecycle ------------------------------------------------------------

    def create(
        self,
        session_id: str,
        collection: WeightedCollection,
        *,
        rng: Optional[np.random.Generator] = None,
        seed: Optional[int] = None,
    ) -> InferenceSession:
        """Register a new session around an initial collection."""
        _check_session_id(session_id)
        with self._lock:
            if session_id in self._live:
                raise SessionError(f"session {session_id!r} already exists")
            stored = self._path_for(session_id)
            if stored is not None and stored.exists():
                raise SessionError(
                    f"session {session_id!r} already exists in the store at {stored}"
                )
            if rng is None:
                rng = np.random.default_rng(seed)
            session = InferenceSession(session_id, collection, rng, config=self.config)
            self._live[session_id] = session
            self._live.move_to_end(session_id)
            self.metrics.counter("store.sessions_created").inc()
            self._enforce_capacity()
            return session

    def adopt(self, session: InferenceSession) -> InferenceSession:
        """Register an externally built session (the recovery hook).

        Crash recovery rebuilds sessions from checkpoint snapshots
        (collection + RNG stream + history) and adopts them here, so the
        recovered session enters the same LRU/eviction lifecycle as a
        freshly created one.  Unlike :meth:`create`, an existing stored
        file is *not* an error — recovery legitimately supersedes it.
        """
        with self._lock:
            if session.session_id in self._live:
                raise SessionError(f"session {session.session_id!r} already exists")
            self._live[session.session_id] = session
            self._live.move_to_end(session.session_id)
            self.metrics.counter("store.sessions_recovered").inc()
            self._enforce_capacity()
            return session

    def get(self, session_id: str) -> InferenceSession:
        """The live session, reloading it from the store if evicted."""
        _check_session_id(session_id)
        with self._lock:
            if session_id in self._live:
                self._live.move_to_end(session_id)
                return self._live[session_id]
            session = self._reload(session_id)
            self._live[session_id] = session
            self._live.move_to_end(session_id)
            self._enforce_capacity()
            return session

    def submit(
        self,
        session_id: str,
        translator: TraceTranslator,
        mcmc_kernel: Optional[Kernel] = None,
        *,
        hooks: Optional[Hooks] = None,
    ) -> SMCStep:
        """Route one edit request to the (possibly reloaded) session.

        The manager lock is held only for the table lookup; the edit
        itself runs under the session's own lock, so concurrent edits on
        *different* sessions proceed in parallel while an evict racing
        *this* session blocks until the edit commits or rolls back.
        """
        return self.get(session_id).submit(translator, mcmc_kernel, hooks=hooks)

    def evict(self, session_id: str) -> Path:
        """Persist one live session to the store and drop it from memory."""
        with self._lock:
            if session_id not in self._live:
                raise SessionError(f"session {session_id!r} is not live")
            path = self._path_for(session_id)
            if path is None:
                raise SessionError(
                    f"cannot evict session {session_id!r}: the manager has no store_dir"
                )
            session = self._live[session_id]
            # snapshot() takes the session lock, so a submit in flight on
            # another thread finishes (or rolls back) before we persist.
            body = dumps(session.snapshot())
            path.parent.mkdir(parents=True, exist_ok=True)
            tmp = path.with_name(f".tmp-{path.name}-{os.getpid()}")
            tmp.write_bytes(body)
            os.replace(tmp, path)
            del self._live[session_id]
            self.metrics.counter("store.evictions").inc()
            self.metrics.counter("store.bytes_written").inc(len(body))
            return path

    def close(self, session_id: str, *, persist: bool = True) -> Optional[Path]:
        """End a session; by default persist it to the store first."""
        with self._lock:
            if persist and self.store_dir is not None and session_id in self._live:
                return self.evict(session_id)
            self._live.pop(session_id, None)
            return None

    # -- internals ------------------------------------------------------------

    def _reload(self, session_id: str) -> InferenceSession:
        path = self._path_for(session_id)
        if path is None or not path.exists():
            raise SessionError(f"unknown session {session_id!r}")
        try:
            payload = loads(path.read_bytes())
        except CodecError as error:
            raise SessionError(
                f"cannot reload session {session_id!r} from {path}: {error}"
            ) from error
        if not isinstance(payload, dict) or "collection" not in payload:
            raise SessionError(f"session file {path} has an unexpected payload")
        rng = payload.get("rng")
        if rng is None:
            raise SessionError(f"session file {path} carries no RNG state")
        session = InferenceSession(
            session_id,
            payload["collection"],
            rng,
            config=self.config,
            history=payload.get("history") or [],
        )
        # The stored file stays behind as a snapshot; a later evict
        # overwrites it with the newer state.
        self.metrics.counter("store.reloads").inc()
        return session

    def _enforce_capacity(self) -> None:
        if self.store_dir is None:
            return
        with self._lock:
            while len(self._live) > self.capacity:
                oldest = next(iter(self._live))
                self.evict(oldest)

    # -- introspection ---------------------------------------------------------

    def live_sessions(self) -> List[str]:
        with self._lock:
            return list(self._live)

    def stored_sessions(self) -> List[str]:
        if self.store_dir is None or not self.store_dir.is_dir():
            return []
        return sorted(p.name[: -len(".session")] for p in self.store_dir.glob("*.session"))

    def list_sessions(self) -> Dict[str, List[str]]:
        return {"live": self.live_sessions(), "stored": self.stored_sessions()}

    def metrics_snapshot(self) -> Dict[str, Any]:
        return self.metrics.to_dict()

    def __repr__(self) -> str:
        return (
            f"SessionManager(live={len(self._live)}, capacity={self.capacity}, "
            f"store_dir={str(self.store_dir) if self.store_dir else None!r})"
        )
