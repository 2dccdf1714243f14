"""Columnar (structure-of-arrays) particle collections.

:class:`ColumnarCollection` stores an embedded-PPL particle population
address-major: one float64 array of values and one of log probabilities
per address, plus a log-weight vector — the trie-of-arrays layout of
GenJAX's vmap-based SMC (see PAPERS.md).  The columnar weigh of an SMC
step (:func:`columnar_infer_step`) runs the target program **once** with a
handler whose ``sample`` returns whole columns, so reused addresses are
re-scored with one :meth:`~repro.distributions.Distribution.log_prob_batch`
call per address and resampling is one ``np.take`` per column, instead
of one Python ``log_prob`` call and one object gather per particle.
The rest of the step is :func:`repro.core.smc._infer_step`, shared with
the object layout.

Equivalence contract
--------------------

For parameter-only edits (every address reused, nothing sampled fresh)
the columnar step is **bitwise identical** to the object path of
:func:`repro.core.smc.infer`: batched densities mirror the scalar
operation order exactly (:mod:`repro.distributions.batch`), per-particle
trace totals use the same ``math.fsum`` reduction as
:attr:`repro.core.trace.Trace.log_prob`, and the step RNG is consumed in
the same order, so weights, evidence increments, resampling indices, and
estimates all agree byte for byte.  For structure-changing edits the
fresh choices are drawn from the step RNG in a different order
(per-address rather than per-particle), so the two paths are equal in
distribution but not bitwise.  The same holds for a population sampled
columnar from scratch (:meth:`ColumnarCollection.importance_sample`):
its choices are drawn per address, and every log probability and log
weight is bitwise what the object handlers compute for those values.

Spilling
--------

Anything the columnar runtime cannot represent raises
:class:`ColumnarSpill`, and :func:`repro.core.smc._infer_step` weighs
that step's population on the object path instead, inside the same
``smc.translate`` span.  Spill triggers include:
heterogeneous address sets or orders across particles, non-numeric
choice values, translators other than a plain
:class:`~repro.core.corr_translator.CorrespondenceTranslator` (forward
or backward proposals, MCMC rejuvenation kernels, containing fault
policies), support comparisons that are ambiguous for array-valued
parameters, and models whose control flow branches on a sampled value
(an array in a ``bool`` context raises, which spills).  A spill's
``stage`` is ``"preflight"`` when it is raised before any randomness is
consumed (contract checks, the static plan, columnarizing the input)
and ``"probe"`` when the batched run raises it — possibly after it drew
fresh choices, so :func:`repro.core.smc._infer_step` restores the step
RNG's state before weighing on the object path, and every spilled step
is byte-identical to an object-mode step.

Batched return values follow the vmap convention: any ndarray in the
model's return value whose leading dimension equals the particle count
is treated as per-particle and gathered/unbatched along that axis.
"""

from __future__ import annotations

import copy as _copy
import dataclasses
import functools
import math
from typing import Any, ClassVar, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..distributions import Distribution
from .address import Address, normalize_address
from .correspondence import Correspondence
from .trace import ChoiceMap, ChoiceRecord, ObservationRecord, Trace
from .weighted import (
    RESAMPLING_SCHEMES,
    WeightedCollection,
    _log_normalized_weights,
    _normalized_weights,
    effective_sample_size,
    log_sum_exp_array,
)

__all__ = ["ColumnarCollection", "ColumnarSpill", "columnar_infer_step"]

NEG_INF = float("-inf")

#: Value-column kinds: the Python type the object path would carry.
_KINDS = ("float", "int", "bool")


class ColumnarSpill(Exception):
    """The columnar runtime cannot represent this step; use the object path.

    Deliberately **not** a :class:`~repro.errors.ReproError`: spilling is
    an internal representation decision, never a model fault, so fault
    policies must not observe (or count) it.

    ``code`` is a stable machine-readable reason (a key of
    :data:`repro.analysis.absint.plan.SPILL_CODES`) so tests, metrics,
    and the static pre-flight can match raise sites without parsing the
    human-readable ``detail``.
    """

    def __init__(self, code: str, detail: str, *, stage: str = "preflight"):
        self.code = code
        self.detail = detail
        #: ``"preflight"`` when raised before the step consumed any
        #: randomness, ``"probe"`` when the batched run raised it.
        self.stage = stage
        super().__init__(f"[{code}] {detail}")


# ---------------------------------------------------------------------------
# Value kinds
# ---------------------------------------------------------------------------


def _kind_of_values(values: Sequence[Any]) -> str:
    """The shared scalar kind of a value list, or spill."""
    if all(isinstance(v, (bool, np.bool_)) for v in values):
        return "bool"
    if all(isinstance(v, (int, np.integer)) and not isinstance(v, (bool, np.bool_)) for v in values):
        return "int"
    if all(isinstance(v, (float, np.floating)) for v in values):
        return "float"
    raise ColumnarSpill(
        "value-kind", f"non-numeric or mixed-kind value column: {values[:3]!r}..."
    )


def _kind_of_dtype(dtype: np.dtype) -> str:
    if dtype.kind == "b":
        return "bool"
    if dtype.kind in "iu":
        return "int"
    if dtype.kind == "f":
        return "float"
    raise ColumnarSpill("value-kind", f"unsupported sample dtype {dtype!r}")


def _restore_kind(value: float, kind: str) -> Any:
    if kind == "int":
        return int(value)
    if kind == "bool":
        return bool(value)
    return float(value)


def _column_view(column: np.ndarray, kind: str) -> np.ndarray:
    """The column as the dtype the model function should compute with."""
    if kind == "int":
        return column.astype(np.int64)
    if kind == "bool":
        return column.astype(bool)
    return column


# ---------------------------------------------------------------------------
# Distribution templates
# ---------------------------------------------------------------------------


@functools.cache
def _field_names(cls: type) -> Tuple[str, ...]:
    """The dataclass field names of a distribution type (none for others)."""
    if not dataclasses.is_dataclass(cls):
        return ()
    return tuple(f.name for f in dataclasses.fields(cls))


def _has_array_params(dist: Distribution) -> bool:
    """True when a field or instance attribute of ``dist`` is an ndarray.

    Slotted distributions keep their fields out of ``__dict__``, so the
    fields are read by name; a subclass without ``__slots__`` may also
    hold parameters in its ``__dict__``.
    """
    for name in _field_names(type(dist)):
        if isinstance(getattr(dist, name, None), np.ndarray):
            return True
    state = getattr(dist, "__dict__", None)
    return bool(state) and any(isinstance(v, np.ndarray) for v in state.values())


def _template_rebuild(dist: Distribution, transform) -> Distribution:
    """Rebuild an array-parameterized template with ``transform`` applied
    to every ndarray init field (gather / row-select)."""
    if not dataclasses.is_dataclass(dist):
        raise ColumnarSpill(
            "template",
            f"{type(dist).__name__} has array parameters but is not a "
            "dataclass; cannot gather its template",
        )
    kwargs = {}
    for f in dataclasses.fields(dist):
        if not f.init:
            continue
        value = getattr(dist, f.name)
        kwargs[f.name] = transform(value) if isinstance(value, np.ndarray) else value
    try:
        return type(dist)(**kwargs)
    except Exception as error:
        raise ColumnarSpill(
            "template", f"cannot rebuild {type(dist).__name__} template: {error!r}"
        ) from error


def _gather_dist(dist: Distribution, indices: np.ndarray) -> Distribution:
    if not _has_array_params(dist):
        return dist
    return _template_rebuild(dist, lambda arr: arr[indices])


def _unbatch_dist(dist: Distribution, index: int) -> Distribution:
    if not _has_array_params(dist):
        return dist
    return _template_rebuild(dist, lambda arr: float(arr[index]))


def _check_gatherable(dist: Distribution) -> None:
    """Fail (spill) *now*, before any RNG use, if a later resample could
    not gather this template."""
    if _has_array_params(dist):
        _gather_dist(dist, np.zeros(1, dtype=np.intp))


def _merge_dists(dists: Sequence[Distribution]) -> Distribution:
    """One template for a per-particle distribution list.

    All-equal lists collapse to the shared instance; lists varying only
    in numeric dataclass fields merge into one array-parameterized
    template.  Anything else spills.
    """
    first = dists[0]
    try:
        if all(d == first for d in dists):
            return first
    except Exception as error:
        raise ColumnarSpill(
            "dist-merge", f"ambiguous distribution equality: {error!r}"
        ) from error
    if not dataclasses.is_dataclass(first) or any(type(d) is not type(first) for d in dists):
        raise ColumnarSpill(
            "dist-merge",
            f"cannot merge heterogeneous distributions at one address: "
            f"{type(first).__name__}",
        )
    kwargs: Dict[str, Any] = {}
    for f in dataclasses.fields(first):
        if not f.init:
            continue
        values = [getattr(d, f.name) for d in dists]
        head = values[0]
        try:
            uniform = all(v == head for v in values)
        except Exception as error:
            raise ColumnarSpill(
                "dist-merge", f"ambiguous field equality: {error!r}"
            ) from error
        if uniform:
            kwargs[f.name] = head
        elif all(isinstance(v, (int, float, np.integer, np.floating)) for v in values):
            kwargs[f.name] = np.asarray(values, dtype=np.float64)
        else:
            raise ColumnarSpill(
                "dist-merge",
                f"non-numeric varying field {f.name!r} on {type(first).__name__}",
            )
    try:
        return type(first)(**kwargs)
    except Exception as error:
        raise ColumnarSpill(
            "dist-merge",
            f"cannot build merged {type(first).__name__} template: {error!r}",
        ) from error


# ---------------------------------------------------------------------------
# Batched return values (vmap convention)
# ---------------------------------------------------------------------------


def _gather_batched(value: Any, indices: np.ndarray, num: int) -> Any:
    if isinstance(value, np.ndarray) and value.ndim >= 1 and value.shape[0] == num:
        return value[indices]
    if isinstance(value, tuple):
        return tuple(_gather_batched(v, indices, num) for v in value)
    if isinstance(value, list):
        return [_gather_batched(v, indices, num) for v in value]
    if isinstance(value, dict):
        return {k: _gather_batched(v, indices, num) for k, v in value.items()}
    return value


def _unbatch_value(value: Any, index: int, num: int) -> Any:
    if isinstance(value, np.ndarray) and value.ndim >= 1 and value.shape[0] == num:
        entry = value[index]
        return entry.item() if np.ndim(entry) == 0 else entry
    if isinstance(value, tuple):
        return tuple(_unbatch_value(v, index, num) for v in value)
    if isinstance(value, list):
        return [_unbatch_value(v, index, num) for v in value]
    if isinstance(value, dict):
        return {k: _unbatch_value(v, index, num) for k, v in value.items()}
    return value


def _batch_values(values: Sequence[Any], num: int) -> Any:
    """Stack per-particle return values back into the vmap convention."""
    head = values[0]
    try:
        if all(v is head or v == head for v in values):
            return head
    except Exception:
        pass
    if all(isinstance(v, (bool, int, float, np.bool_, np.integer, np.floating)) for v in values):
        return np.asarray(values)
    if isinstance(head, tuple) and all(
        isinstance(v, tuple) and len(v) == len(head) for v in values
    ):
        return tuple(
            _batch_values([v[i] for v in values], num) for i in range(len(head))
        )
    raise ColumnarSpill(
        "return-value", f"cannot batch return values of type {type(head).__name__}"
    )


# ---------------------------------------------------------------------------
# Per-address column bundle
# ---------------------------------------------------------------------------


@dataclasses.dataclass
class _Column:
    """One address across all particles."""

    values: np.ndarray  # float64 (N,)
    log_probs: np.ndarray  # float64 (N,)
    dist: Distribution  # shared or array-parameterized template
    kind: str  # "float" | "int" | "bool"

    def take(self, indices: np.ndarray) -> "_Column":
        return _Column(
            np.take(self.values, indices),
            np.take(self.log_probs, indices),
            _gather_dist(self.dist, indices),
            self.kind,
        )


@dataclasses.dataclass
class _ObsColumn:
    """One observation address across all particles.

    The observed value is shared (it is data); the log probability may
    still vary per particle when the distribution's parameters depend on
    latent columns.
    """

    value: Any
    log_probs: np.ndarray  # float64 (N,)
    dist: Distribution
    varying_value: Optional[np.ndarray] = None  # per-particle values, if any

    def take(self, indices: np.ndarray) -> "_ObsColumn":
        varying = None if self.varying_value is None else np.take(self.varying_value, indices)
        return _ObsColumn(
            self.value,
            np.take(self.log_probs, indices),
            _gather_dist(self.dist, indices),
            varying,
        )

    def value_for(self, index: int) -> Any:
        if self.varying_value is not None:
            return float(self.varying_value[index])
        return self.value


class _ParticleView:
    """Read-only view of one particle, for ``estimate`` callables.

    Supports the subset of the :class:`~repro.core.trace.Trace` read API
    that estimators use: ``view[address]``, ``address in view``, and
    ``view.return_value``.
    """

    __slots__ = ("_collection", "_index")

    def __init__(self, collection: "ColumnarCollection", index: int):
        self._collection = collection
        self._index = index

    def __contains__(self, address) -> bool:
        return normalize_address(address) in self._collection._choices

    def __getitem__(self, address) -> Any:
        column = self._collection._choices[normalize_address(address)]
        return _restore_kind(column.values[self._index], column.kind)

    @property
    def return_value(self) -> Any:
        return _unbatch_value(
            self._collection.return_value, self._index, len(self._collection)
        )


# ---------------------------------------------------------------------------
# The collection
# ---------------------------------------------------------------------------


class ColumnarCollection:
    """Address-major particle population with a log-weight vector.

    Mirrors the :class:`~repro.core.weighted.WeightedCollection`
    diagnostics/estimation API (``estimate``, ``effective_sample_size``,
    ``log_normalized_weights``, ...) so experiment code can hold either
    representation; :meth:`to_weighted`/:meth:`from_weighted` convert
    between them (``from_weighted`` spills on anything non-homogeneous).
    """

    def __init__(
        self,
        num_particles: int,
        log_weights: np.ndarray,
        choice_order: Tuple[Address, ...],
        choices: Dict[Address, _Column],
        obs_order: Tuple[Address, ...],
        observations: Dict[Address, _ObsColumn],
        return_value: Any = None,
        metadata: Optional[List[Optional[Dict[str, Any]]]] = None,
        source_items: Optional[List[Trace]] = None,
    ):
        if num_particles < 1:
            raise ValueError("a columnar collection needs at least one particle")
        self.num_particles = num_particles
        self.log_weights = np.asarray(log_weights, dtype=np.float64)
        if self.log_weights.shape != (num_particles,):
            raise ValueError(
                f"log_weights shape {self.log_weights.shape} != ({num_particles},)"
            )
        self._choice_order = tuple(choice_order)
        self._choices = choices
        self._obs_order = tuple(obs_order)
        self._observations = observations
        self.return_value = return_value
        if metadata is not None:
            metadata = list(metadata)
            if len(metadata) != num_particles:
                raise ValueError(
                    f"{num_particles} particles but {len(metadata)} metadata entries"
                )
        self.metadata = metadata
        #: Original object traces, kept when the collection was converted
        #: from a WeightedCollection and not yet transformed — makes
        #: to_weighted lossless (same objects back).
        self._source_items = source_items
        self._totals: Optional[np.ndarray] = None

    # -- basic protocol -----------------------------------------------------

    def __len__(self) -> int:
        return self.num_particles

    def __repr__(self) -> str:
        return (
            f"ColumnarCollection(size={self.num_particles}, "
            f"addresses={len(self._choice_order)}, "
            f"observations={len(self._obs_order)})"
        )

    # -- columns ------------------------------------------------------------

    def addresses(self) -> List[Address]:
        return list(self._choice_order)

    def observation_addresses(self) -> List[Address]:
        return list(self._obs_order)

    def value_column(self, address) -> np.ndarray:
        return self._choices[normalize_address(address)].values

    def log_prob_column(self, address) -> np.ndarray:
        return self._choices[normalize_address(address)].log_probs

    def dist_template(self, address) -> Distribution:
        return self._choices[normalize_address(address)].dist

    def value_kind(self, address) -> str:
        return self._choices[normalize_address(address)].kind

    def particle(self, index: int) -> _ParticleView:
        return _ParticleView(self, index)

    @property
    def total_log_probs(self) -> np.ndarray:
        """Per-particle ``log P̃r[t]``: ``fsum`` of choice columns plus
        ``fsum`` of observation columns — the exact reduction
        :attr:`repro.core.trace.Trace.log_prob` performs, so each entry
        is bitwise identical to the object trace's total."""
        if self._totals is None:
            self._totals = _fsum_totals(
                self.num_particles,
                [self._choices[a].log_probs for a in self._choice_order],
                [self._observations[a].log_probs for a in self._obs_order],
            )
        return self._totals

    # -- diagnostics (WeightedCollection parity) ----------------------------

    def normalized_weights(self) -> np.ndarray:
        return _normalized_weights(self.log_weights)

    def log_normalized_weights(self) -> np.ndarray:
        return _log_normalized_weights(self.log_weights)

    def effective_sample_size(self) -> float:
        return effective_sample_size(self.log_weights)

    def log_mean_weight(self) -> float:
        return log_sum_exp_array(self.log_weights) - math.log(len(self))

    # -- estimation ---------------------------------------------------------

    def estimate(self, phi) -> float:
        """Equation 5 over particle views (same kernel as the object path)."""
        weights = self.normalized_weights()
        support = np.flatnonzero(weights > 0.0)
        values = np.fromiter(
            (float(phi(_ParticleView(self, int(i)))) for i in support),
            dtype=float,
            count=len(support),
        )
        return float(weights[support] @ values)

    def estimate_probability(self, event) -> float:
        return self.estimate(lambda item: 1.0 if event(item) else 0.0)

    # -- resampling ---------------------------------------------------------

    def resample(
        self,
        rng: np.random.Generator,
        size: Optional[int] = None,
        scheme: str = "multinomial",
    ) -> "ColumnarCollection":
        """One ``np.take`` per column; indices match the object path's
        :meth:`~repro.core.weighted.WeightedCollection.resample` draw for
        the same weights and RNG state."""
        if scheme not in RESAMPLING_SCHEMES:
            raise ValueError(
                f"unknown resampling scheme {scheme!r}; "
                f"choose from {sorted(RESAMPLING_SCHEMES)}"
            )
        size = size if size is not None else len(self)
        weights = self.normalized_weights()
        indices = np.asarray(RESAMPLING_SCHEMES[scheme](weights, size, rng))
        metadata = None
        if self.metadata is not None:
            metadata = [_copy.deepcopy(self.metadata[int(i)]) for i in indices]
        resampled = ColumnarCollection(
            size,
            np.zeros(size, dtype=np.float64),
            self._choice_order,
            {a: col.take(indices) for a, col in self._choices.items()},
            self._obs_order,
            {a: col.take(indices) for a, col in self._observations.items()},
            return_value=_gather_batched(self.return_value, indices, len(self)),
            metadata=metadata,
        )
        if self._totals is not None:
            # A particle's total depends on its row alone, so gathering
            # the totals equals re-reducing the gathered columns.
            resampled._totals = self._totals.take(indices)
        return resampled

    # -- conversions ---------------------------------------------------------

    @classmethod
    def from_weighted(cls, collection: WeightedCollection) -> "ColumnarCollection":
        """Columnarize a homogeneous collection of object traces.

        Raises :class:`ColumnarSpill` when the population cannot be laid
        out address-major: differing address sets/orders, non-numeric
        values, observation values that differ across particles, or
        distributions that cannot be merged into one template.
        """
        items = collection.items
        first = items[0]
        if not isinstance(first, Trace):
            raise ColumnarSpill("items", f"items are {type(first).__name__}, not Trace")
        order = first.addresses()
        obs_order = first.observation_addresses()
        for trace in items[1:]:
            if not isinstance(trace, Trace):
                raise ColumnarSpill("items", "mixed item types in collection")
            if trace.addresses() != order or trace.observation_addresses() != obs_order:
                raise ColumnarSpill(
                    "address-structure",
                    "heterogeneous address structure across particles",
                )

        num = len(items)
        choices: Dict[Address, _Column] = {}
        for address in order:
            records = [t.get_record(address) for t in items]
            values = [r.value for r in records]
            kind = _kind_of_values(values)
            column = _Column(
                np.asarray([float(v) for v in values], dtype=np.float64),
                np.asarray([r.log_prob for r in records], dtype=np.float64),
                _merge_dists([r.dist for r in records]),
                kind,
            )
            _check_gatherable(column.dist)
            choices[address] = column

        observations: Dict[Address, _ObsColumn] = {}
        for address in obs_order:
            records = [t.get_observation(address) for t in items]
            head = records[0].value
            try:
                shared = all(r.value is head or r.value == head for r in records)
            except Exception as error:
                raise ColumnarSpill(
                    "observation", f"ambiguous observation equality: {error!r}"
                ) from error
            varying = None
            if not shared:
                _kind_of_values([r.value for r in records])  # numeric or spill
                varying = np.asarray([float(r.value) for r in records], dtype=np.float64)
            column = _ObsColumn(
                head,
                np.asarray([r.log_prob for r in records], dtype=np.float64),
                _merge_dists([r.dist for r in records]),
                varying,
            )
            _check_gatherable(column.dist)
            observations[address] = column

        return cls(
            num,
            np.asarray(collection.log_weights, dtype=np.float64),
            tuple(order),
            choices,
            tuple(obs_order),
            observations,
            return_value=_batch_values([t.return_value for t in items], num),
            metadata=collection.metadata,
            source_items=list(items),
        )

    @classmethod
    def importance_sample(
        cls, model, rng: np.random.Generator, num: int
    ) -> "ColumnarCollection":
        """Likelihood weighting in one batched run of ``model``.

        The columnar image of
        :func:`repro.core.importance.importance_sampling`: every choice is
        drawn with one ``sample_batch`` per address, every observation is
        scored with one ``log_prob_batch``, and each particle's log weight
        is the plain ``+`` of its observation columns in execution order
        (the accumulator of
        :attr:`~repro.core.handlers.GenerateHandler.log_weight`).  Fresh
        choices are drawn per address rather than per particle, so the
        population equals the object one in distribution, not bitwise.

        Raises :class:`ColumnarSpill` when the population cannot be
        sampled columnar: a certain finding of the model's static plan,
        or a planner fault (code ``plan-unavailable``; both at stage
        ``"preflight"``, before any randomness is consumed), a
        batched run that raises, or a return value that is neither one
        numeric column nor one shared scalar (stage ``"probe"``, after the
        run drew; a caller falling back restores the RNG's state first).
        """
        try:
            from ..analysis.absint import plan_columnar_birth

            blocking = plan_columnar_birth(model).blocking(num_particles=num)
        except Exception as error:
            # Without a plan a certain spill would draw before it fails,
            # so a planner fault spills too, under its own code.
            name = type(error).__name__
            raise ColumnarSpill(PlanUnavailable.code, f"{name}: {error}") from error
        if blocking is not None:
            raise ColumnarSpill(blocking.code, blocking.detail)

        empty = cls(num, np.zeros(num, dtype=np.float64), (), {}, (), {})
        handler = _ColumnarForwardHandler(
            rng, model.observations, Correspondence.empty(), empty, num
        )
        _run_batched(model, handler)

        returned = handler.trace.return_value
        if isinstance(returned, np.ndarray):
            kept = returned.shape == (num,) and returned.dtype.kind in "biuf"
        else:
            kept = returned is None or isinstance(returned, (bool, int, float))
        if not kept:
            raise ColumnarSpill(
                "return-value",
                f"a born return value must be one numeric column or one shared "
                f"scalar, got {type(returned).__name__}",
                stage="probe",
            )
        log_weights = np.zeros(num, dtype=np.float64)
        for address in handler.obs_order:
            log_weights = log_weights + handler.observations[address].log_probs
        return cls(
            num,
            log_weights,
            tuple(handler.choice_order),
            handler.choices,
            tuple(handler.obs_order),
            handler.observations,
            return_value=returned,
        )

    def to_weighted(self) -> WeightedCollection:
        """Back to object traces.

        Lossless (same trace objects) when the collection still holds the
        traces it was converted from; otherwise each particle's trace is
        synthesized from the columns — records carry the same addresses,
        per-particle distributions, values, and (bitwise) log probs the
        object path would have produced.
        """
        if self._source_items is not None:
            return WeightedCollection(
                list(self._source_items),
                self.log_weights.tolist(),
                metadata=self.metadata,
            )
        num = self.num_particles
        value_rows = {
            a: self._choices[a].values.tolist() for a in self._choice_order
        }
        lp_rows = {a: self._choices[a].log_probs.tolist() for a in self._choice_order}
        obs_lp_rows = {
            a: self._observations[a].log_probs.tolist() for a in self._obs_order
        }
        traces: List[Trace] = []
        for i in range(num):
            trace = Trace()
            for address in self._choice_order:
                column = self._choices[address]
                trace.add_choice(
                    ChoiceRecord(
                        address,
                        _unbatch_dist(column.dist, i),
                        _restore_kind(value_rows[address][i], column.kind),
                        lp_rows[address][i],
                    )
                )
            for address in self._obs_order:
                column = self._observations[address]
                trace.add_observation(
                    ObservationRecord(
                        address,
                        _unbatch_dist(column.dist, i),
                        column.value_for(i),
                        obs_lp_rows[address][i],
                    )
                )
            trace.return_value = _unbatch_value(self.return_value, i, num)
            traces.append(trace)
        return WeightedCollection(
            traces,
            self.log_weights.tolist(),
            metadata=self.metadata,
        )


#: Particle rows per block of :func:`_fsum_rows`: at most this many rows
#: of a population are Python floats at once.
_FSUM_BLOCK = 256


def _fsum_rows(num: int, columns: List[np.ndarray]) -> List[float]:
    """``math.fsum`` of each particle's row across ``columns``."""
    if not columns:
        return [0.0] * num
    sums: List[float] = []
    for start in range(0, num, _FSUM_BLOCK):
        block = np.stack([c[start:start + _FSUM_BLOCK] for c in columns], axis=1)
        sums.extend(map(math.fsum, block.tolist()))
    return sums


def _fsum_totals(
    num: int,
    choice_columns: List[np.ndarray],
    obs_columns: List[np.ndarray],
) -> np.ndarray:
    """Per-particle ``fsum(choices) + fsum(observations)``.

    ``math.fsum`` is correctly rounded (order-independent), so summing a
    particle's row here equals the object trace's two-``fsum`` total bit
    for bit.
    """
    choice_tot = _fsum_rows(num, choice_columns)
    obs_tot = _fsum_rows(num, obs_columns)
    return np.asarray(
        [c + o for c, o in zip(choice_tot, obs_tot)], dtype=np.float64
    )


# ---------------------------------------------------------------------------
# The columnar forward handler
# ---------------------------------------------------------------------------


class _ColumnarForwardHandler:
    """Runs ``Q`` once over the whole population (Equation 6, batched).

    Duck-types the :class:`~repro.core.handlers.TraceHandler` interface
    (``sample``/``observe``/``trace``): corresponding choices with equal
    supports return the stored source **column**; everything else is
    sampled with one ``sample_batch`` per address.  Downstream
    distribution constructors receive whole columns as parameters, which
    is what makes one execution score all particles.
    """

    def __init__(
        self,
        rng: np.random.Generator,
        observations: ChoiceMap,
        correspondence,
        source: ColumnarCollection,
        num: int,
    ):
        self._rng = rng
        self._observations = observations
        self._correspondence = correspondence
        self._source = source
        self._num = num
        self.trace = Trace()  # return-value slot only; records live in columns
        self.choice_order: List[Address] = []
        self.choices: Dict[Address, _Column] = {}
        self.obs_order: List[Address] = []
        self.observations: Dict[Address, _ObsColumn] = {}
        #: float 0.0 until the first fresh sample, then a (N,) array —
        #: accumulated with ``+`` in Q's execution order, mirroring the
        #: scalar handler's ``forward_log_prob`` accumulator.
        self.forward_log_prob: Any = 0.0
        #: q_address -> p_address for every address actually reused.
        self.reused: Dict[Address, Address] = {}
        self.sampled_fresh = 0

    # -- scoring helpers ----------------------------------------------------

    def _score_column(self, dist: Distribution, values: np.ndarray) -> np.ndarray:
        log_probs = dist.log_prob_batch(values)
        log_probs = np.asarray(log_probs, dtype=np.float64)
        if log_probs.shape != (self._num,):
            raise ColumnarSpill(
                "batch-shape",
                f"log_prob_batch returned shape {log_probs.shape}, "
                f"expected ({self._num},)",
            )
        return log_probs

    def _score_shared(self, dist: Distribution, value: Any) -> np.ndarray:
        """Score one shared (scalar) value under a possibly-batched dist."""
        if _has_array_params(dist):
            return self._score_column(
                dist, np.full(self._num, float(value), dtype=np.float64)
            )
        return np.full(self._num, dist.log_prob(value), dtype=np.float64)

    # -- TraceHandler interface ---------------------------------------------

    def sample(self, dist: Distribution, address) -> Any:
        address = normalize_address(address)
        if address in self.choices or address in self.observations:
            raise ValueError(f"duplicate random choice at address {address!r}")
        observed = self._observations.lookup(address)
        if observed is not None:
            return self._observe_value(dist, observed[1], observed[0])

        source_address = self._correspondence.forward(address)
        if (
            source_address is not None
            and source_address in self._source._choices
        ):
            old = self._source._choices[source_address]
            # Template-level support comparison; an ambiguous comparison
            # (array-dependent supports) raises and spills the step.
            if dist.support() == old.dist.support():
                self.reused[address] = source_address
                column = _Column(
                    old.values, self._score_column(dist, old.values), dist, old.kind
                )
                _check_gatherable(dist)
                self.choice_order.append(address)
                self.choices[address] = column
                return _column_view(old.values, old.kind)

        # Fresh: one batched draw for the whole population.  (Proposals
        # were ruled out before the step started.)
        values = np.asarray(dist.sample_batch(self._rng, self._num))
        if values.shape != (self._num,):
            raise ColumnarSpill(
                "batch-shape",
                f"sample_batch returned shape {values.shape}, "
                f"expected ({self._num},)",
            )
        kind = _kind_of_dtype(values.dtype)
        float_values = values.astype(np.float64)
        log_probs = self._score_column(dist, float_values)
        _check_gatherable(dist)
        self.choice_order.append(address)
        self.choices[address] = _Column(float_values, log_probs, dist, kind)
        self.forward_log_prob = self.forward_log_prob + log_probs
        self.sampled_fresh += 1
        return _column_view(float_values, kind)

    def _observe_value(self, dist: Distribution, value: Any, address: Address) -> Any:
        if isinstance(value, np.ndarray):
            if value.shape != (self._num,):
                raise ColumnarSpill(
                    "observation",
                    f"array-valued observation at {address!r} is not per-particle",
                )
            varying = value.astype(np.float64)
            log_probs = self._score_column(dist, varying)
            column = _ObsColumn(float(varying[0]), log_probs, dist, varying)
        else:
            column = _ObsColumn(value, self._score_shared(dist, value), dist)
        _check_gatherable(dist)
        self.obs_order.append(address)
        self.observations[address] = column
        return value

    def observe(self, dist: Distribution, value: Any, address) -> None:
        address = normalize_address(address)
        if address in self.observations:
            raise ValueError(f"duplicate observation at address {address!r}")
        self._observe_value(dist, value, address)


def _run_batched(model, handler: _ColumnarForwardHandler) -> None:
    """Run ``model`` once over the whole population; any failure spills
    at stage ``"probe"``.

    Column arithmetic may overflow or produce NaN lanes exactly as the
    scalar path does, silently.  Array-in-bool-context, shape mismatches
    and real model faults all spill: the object path re-runs the step
    and reports (or contains) the true error per particle.  Numpy's
    truth-value guard identifies the control-flow case (a branch
    condition received a whole column).
    """
    try:
        with np.errstate(all="ignore"):
            model.run(handler)
    except ColumnarSpill as spill:
        spill.stage = "probe"
        raise
    except Exception as error:
        code = (
            "control-flow"
            if isinstance(error, ValueError) and "truth value" in str(error)
            else "execution"
        )
        raise ColumnarSpill(
            code, f"batched execution failed: {error!r}", stage="probe"
        ) from error


# ---------------------------------------------------------------------------
# The columnar SMC step
# ---------------------------------------------------------------------------


@dataclasses.dataclass(frozen=True)
class PlanUnavailable:
    """Why a translator's static pre-flight could not be computed.

    Planning is optional — the runtime probe still decides every step —
    so a planner fault only costs the pre-flight.  It must not do so
    silently: :func:`repro.core.smc._infer_step` reports ``code`` as the
    ``smc.columnar.plan-unavailable.<class>`` metric and a
    ``columnar.plan-unavailable.<class>`` counter on the ``smc.step``
    span of every columnar step that ran without a plan.
    """

    code: ClassVar[str] = "plan-unavailable"
    exception: str  # the planner exception's class name
    detail: str


def _static_plan(translator):
    """The translator's cached :class:`~repro.analysis.absint.plan.ColumnarPlan`.

    Computed once per translator (model-level facts only — kernel and
    fault-policy ineligibility is cheaper to check directly), so a
    sequence of steps over the same edit consults the abstract
    interpreter exactly once instead of probing every step.  ``None``
    when no plan is available: planning raised (cached as a
    :class:`PlanUnavailable`) or a falsy value was cached.
    """
    plan = getattr(translator, "_columnar_plan", None)
    if plan is None:
        try:
            from ..analysis.absint import plan_columnar_step

            plan = plan_columnar_step(translator)
        except Exception as error:
            name = type(error).__name__
            plan = PlanUnavailable(name, f"{name}: {error}")
        try:
            translator._columnar_plan = plan
        except Exception:  # pragma: no cover - slotted/frozen translator
            pass
    return None if not plan or isinstance(plan, PlanUnavailable) else plan


def plan_unavailable(translator) -> Optional[PlanUnavailable]:
    """The planning failure cached on ``translator``, if any."""
    cached = getattr(translator, "_columnar_plan", None)
    return cached if isinstance(cached, PlanUnavailable) else None


def _check_translator(translator, mcmc_kernel, policy) -> None:
    """Spill on anything outside the columnar runtime's contract.

    All of these checks run before any randomness is consumed.
    """
    from .corr_translator import CorrespondenceTranslator

    if type(translator) is not CorrespondenceTranslator:
        raise ColumnarSpill(
            "translator",
            f"columnar path supports plain CorrespondenceTranslator, "
            f"got {type(translator).__name__}",
        )
    if translator.forward_proposals or translator.backward_proposals:
        raise ColumnarSpill("proposals", "translator has custom proposals")
    if mcmc_kernel is not None:
        raise ColumnarSpill("mcmc", "MCMC rejuvenation uses the object path")
    if policy.contains_faults:
        raise ColumnarSpill(
            "fault-policy", f"fault policy {policy.mode!r} needs per-particle isolation"
        )


def _combine_columns(
    target: np.ndarray,
    backward: np.ndarray,
    source: np.ndarray,
    forward: np.ndarray,
) -> np.ndarray:
    """Vectorized image of ``corr_translator._combine`` (Equation 2)."""
    from ..errors import NumericalError

    numerator = target + backward
    denominator = source + forward
    if np.isnan(numerator).any():
        raise NumericalError(
            f"trace translation produced NaN weight numerators at indices "
            f"{np.flatnonzero(np.isnan(numerator)).tolist()}"
        )
    dead = numerator == NEG_INF
    bad = (denominator == NEG_INF) | np.isnan(denominator)
    if (bad & ~dead).any():
        raise NumericalError(
            "input trace has zero probability under the source program; "
            "it cannot have come from the source posterior"
        )
    safe_denominator = np.where(dead, 0.0, denominator)
    return np.where(dead, NEG_INF, numerator - safe_denominator)


def columnar_infer_step(
    translator,
    traces,
    rng: np.random.Generator,
    mcmc_kernel,
    config,
    executor: Any = None,
) -> Tuple[ColumnarCollection, np.ndarray]:
    """Weigh a population under a translator, on columns: the translated
    population (log weights still the input's) and its per-particle
    Equation 2 increments.  Raises :class:`ColumnarSpill` when the step
    cannot be represented columnar."""
    _check_translator(translator, mcmc_kernel, config.fault_policy)

    # Static pre-flight: a certain finding (value-dependent control flow
    # in the target, ...) routes to the object path immediately — before
    # columnarizing the population or consuming any randomness — instead
    # of probing by running the batched model until it fails.
    plan = _static_plan(translator)
    if plan is not None:
        try:
            num_hint: Optional[int] = len(traces)
        except TypeError:
            num_hint = None
        blocking = plan.blocking(num_particles=num_hint)
        if blocking is not None:
            raise ColumnarSpill(blocking.code, blocking.detail)

    if isinstance(traces, ColumnarCollection):
        source = traces
    elif isinstance(traces, WeightedCollection):
        source = ColumnarCollection.from_weighted(traces)
    else:
        raise ColumnarSpill(
            "collection-type", f"unsupported collection type {type(traces).__name__}"
        )

    num = len(source)
    handler = _ColumnarForwardHandler(
        rng,
        translator.target.observations,
        translator.correspondence,
        source,
        num,
    )
    _run_batched(translator.target, handler)

    if executor is not None:
        # The object path spawns per-particle streams whenever an
        # executor is configured; consume the same single draw so the
        # step RNG leaves this phase in the identical state.
        from ..parallel import spawn_particle_rngs

        spawn_particle_rngs(rng, num)

    tracer = config.tracer
    if tracer.enabled:  # counted on the caller's smc.translate span
        tracer.count("particles", num)
        tracer.count("choices.reused", len(handler.reused))
        tracer.count("choices.fresh", handler.sampled_fresh)

    translated = ColumnarCollection(
        num,
        source.log_weights,
        tuple(handler.choice_order),
        handler.choices,
        tuple(handler.obs_order),
        handler.observations,
        return_value=handler.trace.return_value,
        metadata=source.metadata,
    )

    # -- Equation 2, term by term across the population ------------------
    reused_sources = set(handler.reused.values())
    backward_col = np.zeros(num, dtype=np.float64)
    for address in source._choice_order:
        if address not in reused_sources:
            # Plain `+` in P's execution order: the scalar backward
            # scorer's accumulator, vectorized.
            backward_col = backward_col + source._choices[address].log_probs
    forward_col = (
        handler.forward_log_prob
        if isinstance(handler.forward_log_prob, np.ndarray)
        else np.zeros(num, dtype=np.float64)
    )
    increments = _combine_columns(
        translated.total_log_probs, backward_col, source.total_log_probs, forward_col
    )
    return translated, increments
