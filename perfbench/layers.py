"""Layer tracing from outside the program.

:func:`install` wraps the public entry points of each layer of
``repro`` — ``service``, ``store``, ``lang``, ``graph``, ``core``,
``analysis``, ``distributions`` — and patches each name where its
callers look it up.  Nothing under ``src/`` is edited; only a traced run
calls :func:`install`, so untraced runs execute the program unchanged.

Every wrapped call becomes a span on a per-thread stack; when a
top-level span finishes it is compacted (:func:`harness.compact`) and
filed under a request key.  Served requests carry a ``request_id``: the
decode of a request frame maps its session to that id, and the store
call that follows on the shard thread takes the id of its session (a
closed loop keeps one request per session in flight).  Event-loop spans
(request decode, reply encode) are filed by the id in the frame itself,
never through the thread stack, because coroutines interleave.
"""

from __future__ import annotations

import functools
import json
import os
import threading
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

from harness import Root, Span, compact

clock = time.monotonic

CountFn = Callable[[tuple, dict, Any], Dict[str, float]]
KeyFn = Callable[[tuple, dict], Any]


class Recorder:
    """Spans in memory, keyed by request; written out when the run ends."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._lock = threading.Lock()
        self.roots: List[Tuple[Any, Root]] = []
        #: session id -> the request id most recently decoded for it.
        self.session_request: Dict[str, str] = {}
        #: key for top-level spans that find no request (offline steps).
        self.default_key: Any = None

    def _stack(self) -> List[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def file(self, key: Any, span: Span) -> None:
        root = compact(span)
        with self._lock:
            self.roots.append((key, root))

    def wrap(
        self,
        fn: Callable,
        name: str,
        *,
        key: Optional[KeyFn] = None,
        counts: Optional[CountFn] = None,
    ) -> Callable:
        """``fn`` timed as span ``name``, nested under the open span of
        the calling thread, or filed under ``key(args, kwargs)`` when it
        is top-level."""

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            stack = self._stack()
            parent = stack[-1] if stack else None
            span = Span(name, clock(), 0.0)
            stack.append(span)
            try:
                result = fn(*args, **kwargs)
            except Exception as error:
                code = getattr(error, "code", None) or type(error).__name__
                span.counts[f"raised.{code}"] = 1
                raise
            else:
                if counts is not None:
                    span.counts.update(counts(args, kwargs, result))
                return result
            finally:
                span.end = clock()
                stack.pop()
                if parent is not None:
                    parent.children.append(span)
                else:
                    found = None if key is None else key(args, kwargs)
                    self.file(self.default_key if found is None else found, span)

        return traced

    def session_key(self, position: int) -> KeyFn:
        """Key a store call by the request id of its session argument."""

        def key(args: tuple, kwargs: dict) -> Any:
            session = kwargs.get("session_id")
            if session is None and len(args) > position:
                session = args[position]
            return self.session_request.get(session)

        return key

    def dump(self, path: str) -> None:
        with self._lock:
            records = [{"key": k, **root.to_dict()} for k, root in self.roots]
        tmp = f"{path}.tmp"
        with open(tmp, "w", encoding="utf-8") as handle:
            json.dump(records, handle)
        os.replace(tmp, path)


def load_roots(path: str) -> List[Tuple[Any, Root]]:
    with open(path, encoding="utf-8") as handle:
        records = json.load(handle)
    return [(record.pop("key"), Root.from_dict(record)) for record in records]


# -- patching ------------------------------------------------------------------


def _patch_method(recorder: Recorder, cls: type, attr: str, name: str, **kw) -> None:
    raw = cls.__dict__[attr]
    if isinstance(raw, classmethod):
        setattr(cls, attr, classmethod(recorder.wrap(raw.__func__, name, **kw)))
    elif isinstance(raw, property):
        setattr(cls, attr, property(recorder.wrap(raw.fget, name, **kw)))
    else:
        setattr(cls, attr, recorder.wrap(raw, name, **kw))


def _len_bytes(args: tuple, kwargs: dict, result: Any) -> Dict[str, float]:
    return {"bytes": float(len(result))}


def _batch_elements(args: tuple, kwargs: dict, result: Any) -> Dict[str, float]:
    return {"elements": float(getattr(result, "size", 0))}


def _smc_stats(args: tuple, kwargs: dict, result: Any) -> Dict[str, float]:
    stats = result.stats
    num = max(1, int(stats.num_traces))
    return {
        "steps": 1.0,
        "resampled": float(bool(stats.resampled)),
        "ess_frac": float(stats.ess_before_resample) / num,
    }


def install_core(recorder: Recorder) -> None:
    """The inference layers: ``core``, ``analysis``, ``distributions``."""
    import repro.analysis.absint as absint
    import repro.core.columnar as columnar
    import repro.core.smc as smc
    import repro.store.session as store_session
    from repro import distributions
    from repro.core.corr_translator import CorrespondenceTranslator
    from repro.core.weighted import WeightedCollection
    from repro.distributions.base import Distribution

    traced_infer = recorder.wrap(smc.infer, "core.infer", counts=_smc_stats)
    smc.infer = traced_infer
    store_session.infer = traced_infer
    _patch_method(recorder, CorrespondenceTranslator, "translate",
                  "core.corr_translator.translate")
    _patch_method(recorder, WeightedCollection, "resample", "core.weighted.resample")
    columnar.columnar_infer_step = recorder.wrap(
        columnar.columnar_infer_step, "core.columnar.step"
    )
    _patch_method(recorder, columnar.ColumnarCollection, "from_weighted",
                  "core.columnar.from_weighted")
    _patch_method(recorder, columnar.ColumnarCollection, "total_log_probs",
                  "core.columnar.total_log_probs")
    _patch_method(recorder, columnar.ColumnarCollection, "resample",
                  "core.columnar.resample")
    absint.plan_columnar_step = recorder.wrap(
        absint.plan_columnar_step, "analysis.absint.plan"
    )

    classes = {Distribution}
    for value in vars(distributions).values():
        if isinstance(value, type) and issubclass(value, Distribution):
            classes.add(value)
    for cls in classes:
        for attr in ("log_prob_batch", "sample_batch"):
            if attr in cls.__dict__:
                _patch_method(recorder, cls, attr, f"distributions.{attr}",
                              counts=_batch_elements)


def install_service(recorder: Recorder) -> None:
    """The served layers: ``service`` wire, ``store``, ``lang``, ``graph``."""
    import repro.lang.interp as interp
    import repro.service.state as state
    import repro.service.wire as wire
    import repro.store.checkpoint as checkpoint
    from repro.store.checkpoint import CheckpointManager
    from repro.store.session import InferenceSession, SessionManager

    loads, frame_bytes = wire.loads, wire.frame_bytes

    def traced_loads(body: bytes) -> Any:
        start = clock()
        document = loads(body)
        end = clock()
        if isinstance(document, dict) and "request_id" in document:
            request_id = document["request_id"]
            session = document.get("session")
            if isinstance(session, str):
                recorder.session_request[session] = request_id
            recorder.file(request_id, Span("service.wire.decode", start, end))
        return document

    def traced_frame_bytes(payload: Any, **kwargs: Any) -> bytes:
        start = clock()
        data = frame_bytes(payload, **kwargs)
        if isinstance(payload, dict) and "request_id" in payload:
            recorder.file(
                payload["request_id"],
                Span("service.wire.encode", start, clock(), counts={"bytes": len(data)}),
            )
        return data

    wire.loads = traced_loads
    wire.frame_bytes = traced_frame_bytes

    store = state.DurableSessionStore
    _patch_method(recorder, store, "apply_edit", "store.state.apply_edit",
                  key=recorder.session_key(1))
    _patch_method(recorder, store, "apply_observation", "store.state.apply_observation",
                  key=recorder.session_key(1))
    _patch_method(recorder, store, "posterior", "store.posterior",
                  key=recorder.session_key(1))
    _patch_method(recorder, store, "posterior_degraded", "store.posterior_degraded",
                  key=recorder.session_key(1))
    _patch_method(recorder, InferenceSession, "submit", "store.session.submit")
    _patch_method(recorder, SessionManager, "get", "store.session.get")
    _patch_method(recorder, SessionManager, "_reload", "store.session.reload")
    _patch_method(recorder, CheckpointManager, "save", "store.checkpoint.save")
    checkpoint.dumps = recorder.wrap(
        checkpoint.dumps, "store.codec.dumps", counts=_len_bytes
    )
    os.fsync = recorder.wrap(os.fsync, "store.checkpoint.fsync")
    state.parse_program = recorder.wrap(state.parse_program, "lang.parse")
    interp.interpret = recorder.wrap(interp.interpret, "lang.interp")
    state.diff_correspondence = recorder.wrap(state.diff_correspondence, "graph.diff")
