"""The output of the static model profiler.

A :class:`StaticProfile` is the abstract interpreter's answer to the
questions the rest of the system used to answer by *running* the model:

* which addresses the program samples at (split into latent choices and
  observations, mirroring the external-constraint treatment of
  observations in the runtime profiles of
  :mod:`repro.analysis.correspondence`);
* which distribution class and which supports sit at each address;
* how addresses group into loop-indexed families
  (``("hidden", i)``-style, the paper's Section 5.4 loop-index scheme);
* a statement-level dependency graph: for each address, the sampled
  addresses whose values feed the distribution's parameters
  (``param_deps``) and the sampled addresses that control whether the
  statement executes at all (``control_deps``);
* whether any control flow depends on a sampled value
  (``value_dependent_control_flow``), which is what the columnar
  pre-flight (:mod:`repro.analysis.absint.plan`) keys off.

``complete`` is the soundness switch: only a complete profile may be
used in place of a sampled/enumerated one.  A profile is *incomplete*
whenever the interpreter hit a construct it cannot close (a
value-dependent loop bound, a dynamic address, an unsupported statement
form, an unbounded widening); ``failure`` records the first such reason
so lint output and the derivation report can say why sampling ran.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field
from typing import Any, Dict, FrozenSet, Hashable, List, Optional, Tuple

from ...core.address import Address
from ..correspondence import AddressProfile

__all__ = ["AddressInfo", "ControlSite", "StaticProfile"]

_EMPTY: FrozenSet[Address] = frozenset()


def _intern_address(address: Address) -> Address:
    """Intern string components of an address.

    Runtime addresses are built from compiled string constants, which
    CPython interns; addresses reconstructed from parsed AST constants
    are equal but not identical.  Interning makes a statically derived
    address space *pickle byte-identical* to the runtime one (pickle
    memoizes by object identity, so shared heads serialize as
    back-references either way).
    """
    try:
        return tuple(
            sys.intern(part) if type(part) is str else part for part in address
        )
    except TypeError:
        return address


@dataclass
class AddressInfo:
    """Everything the analyzer learned about one address."""

    address: Address
    #: Distribution class names sampled at the address (usually one;
    #: branch-dependent distribution *classes* would produce several).
    dist_classes: Tuple[str, ...] = ()
    #: Distinct supports, in first-derived order — the same order a
    #: runtime :class:`~repro.analysis.correspondence.AddressProfile`
    #: records them in, so downstream support-compatibility checks see
    #: identical lists.
    supports: List[Any] = field(default_factory=list)
    #: True when the statement executes on every path through the
    #: program (it sits under no non-constant branch).
    always: bool = True
    #: True when the address is an observation (an ``observe`` statement
    #: or a ``sample`` at a conditioned address) rather than a latent.
    observed: bool = False
    #: Sampled addresses whose values flow into the distribution's
    #: parameters.
    param_deps: FrozenSet[Address] = _EMPTY
    #: Sampled addresses whose values decide whether this statement runs.
    control_deps: FrozenSet[Address] = _EMPTY
    #: False when some varying distribution parameter is not a numeric
    #: scalar (a transition row selected by a sampled state, an opaque
    #: value) — per-particle instances may then resist merging into one
    #: columnar template.
    scalar_params: bool = True
    #: False when the distribution class is a third-party subclass whose
    #: batched contract (``log_prob_batch``/``sample_batch`` shapes,
    #: template rebuild, value dtypes) this package has not verified —
    #: the columnar plan keeps the batch-layer spill codes possible.
    verified_batch: bool = True

    def merge_event(
        self,
        dist_class: str,
        supports: Tuple[Any, ...],
        always: bool,
        param_deps: FrozenSet[Address],
        control_deps: FrozenSet[Address],
        scalar_params: bool = True,
        verified_batch: bool = True,
    ) -> None:
        """Fold another sample/observe event at the same address in."""
        if dist_class not in self.dist_classes:
            self.dist_classes = self.dist_classes + (dist_class,)
        for support in supports:
            if support not in self.supports:
                self.supports.append(support)
        self.always = self.always or always
        self.param_deps = self.param_deps | param_deps
        self.control_deps = self.control_deps | control_deps
        self.scalar_params = self.scalar_params and scalar_params
        self.verified_batch = self.verified_batch and verified_batch


@dataclass(frozen=True)
class ControlSite:
    """One place where control flow depends on a sampled value."""

    kind: str  # "if" | "ifexp" | "while" | "for" | "boolop"
    line: int
    deps: FrozenSet[Address]

    def describe(self) -> str:
        deps = ", ".join(sorted(repr(d) for d in self.deps)) or "<unknown>"
        return f"{self.kind} at line {self.line} depends on sampled {deps}"


@dataclass
class StaticProfile:
    """Statically derived address space of one model."""

    name: str
    #: True when the analyzer closed the whole program: every address,
    #: distribution class, and support is known, and no unsupported
    #: construct was skipped.  Only complete profiles may stand in for
    #: sampled ones.
    complete: bool = False
    #: First reason the analyzer gave up (empty when complete).
    failure: str = ""
    #: Latent addresses, in program order.
    addresses: Dict[Address, AddressInfo] = field(default_factory=dict)
    #: Observed addresses (``observe`` statements and conditioned
    #: ``sample`` statements), in program order.
    observations: Dict[Address, AddressInfo] = field(default_factory=dict)
    #: Whether any branch/loop condition is sample-dependent.
    value_dependent_control_flow: bool = False
    #: The offending sites, in discovery order.
    control_sites: List[ControlSite] = field(default_factory=list)
    #: Whether the model's return value can be stacked into a column
    #: (the ``_batch_values`` convention of :mod:`repro.core.columnar`):
    #: ``True`` for scalars/shared constants/tuples thereof, ``False``
    #: for per-particle containers, ``None`` when not determined.
    return_batchable: Optional[bool] = None
    #: Line numbers of opaque calls receiving sample-dependent
    #: arguments.  The scalar semantics close fine (the result is just
    #: ``Unknown``), but a *batched* run feeds such calls whole columns
    #: — ``math.exp(column)``, ``float(column)`` — which may raise, so
    #: the columnar plan must keep an ``execution`` spill possible.
    opaque_tainted_lines: List[int] = field(default_factory=list)
    #: Constructs of a structured-language model that a *batched* run
    #: may fail on although no particle's scalar run would (see
    #: :mod:`repro.analysis.absint.lang`), described in words.  The
    #: columnar plan keeps an ``execution`` spill possible for them.
    column_hazards: List[str] = field(default_factory=list)

    # -- events (called by the interpreters) --------------------------------

    def record(
        self,
        address: Address,
        dist_class: str,
        supports: Tuple[Any, ...],
        *,
        observed: bool,
        always: bool,
        param_deps: FrozenSet[Address] = _EMPTY,
        control_deps: FrozenSet[Address] = _EMPTY,
        scalar_params: bool = True,
        verified_batch: bool = True,
    ) -> None:
        address = _intern_address(address)
        table = self.observations if observed else self.addresses
        info = table.get(address)
        if info is None:
            table[address] = AddressInfo(
                address=address,
                dist_classes=(dist_class,),
                supports=[s for s in supports],
                always=always,
                observed=observed,
                param_deps=param_deps,
                control_deps=control_deps,
                scalar_params=scalar_params,
                verified_batch=verified_batch,
            )
        else:
            info.merge_event(
                dist_class,
                supports,
                always,
                param_deps,
                control_deps,
                scalar_params,
                verified_batch,
            )

    def record_control(self, kind: str, line: int, deps: FrozenSet[Address]) -> None:
        self.value_dependent_control_flow = True
        site = ControlSite(kind=kind, line=line, deps=deps)
        if site not in self.control_sites:
            self.control_sites.append(site)

    def note_column_hazard(self, description: str) -> None:
        if description not in self.column_hazards:
            self.column_hazards.append(description)

    def fail(self, reason: str) -> None:
        """Mark the profile unusable (first reason wins)."""
        self.complete = False
        if not self.failure:
            self.failure = reason

    # -- views ---------------------------------------------------------------

    def families(self) -> Dict[Tuple[Hashable, int], List[Address]]:
        """Latent addresses grouped by (head, index arity) — the same
        family key the derivation aligner uses."""
        families: Dict[Tuple[Hashable, int], List[Address]] = {}
        for address in self.addresses:
            head = address[0] if address else None
            key = (head, max(len(address) - 1, 0))
            families.setdefault(key, []).append(address)
        return families

    def dependencies(self) -> Dict[Address, FrozenSet[Address]]:
        """Statement-level dependency graph: address -> the sampled
        addresses its distribution parameters or guarding branches read."""
        graph: Dict[Address, FrozenSet[Address]] = {}
        for table in (self.addresses, self.observations):
            for address, info in table.items():
                graph[address] = info.param_deps | info.control_deps
        return graph

    def to_address_profile(self) -> AddressProfile:
        """Project onto the runtime profile shape ``derive``/lint consume.

        Only valid for complete profiles — the ``complete=True`` flag
        promises "an absent address provably never occurs", which an
        incomplete static profile cannot honor.
        """
        if not self.complete:
            raise ValueError(
                f"static profile of {self.name!r} is incomplete ({self.failure}); "
                "it cannot stand in for a runtime profile"
            )
        profile = AddressProfile(name=self.name, complete=True)
        for address, info in self.addresses.items():
            profile.supports[address] = list(info.supports)
        return profile

    def to_json(self) -> Dict[str, Any]:
        """JSON-serializable summary (CLI ``--static-profile`` output and
        the CI profile artifacts)."""

        def info_json(info: AddressInfo) -> Dict[str, Any]:
            return {
                "address": repr(info.address),
                "dist_classes": list(info.dist_classes),
                "supports": [repr(s) for s in info.supports],
                "always": info.always,
                "observed": info.observed,
                "param_deps": sorted(repr(d) for d in info.param_deps),
                "control_deps": sorted(repr(d) for d in info.control_deps),
                "scalar_params": info.scalar_params,
                "verified_batch": info.verified_batch,
            }

        return {
            "name": self.name,
            "complete": self.complete,
            "failure": self.failure,
            "addresses": [info_json(i) for i in self.addresses.values()],
            "observations": [info_json(i) for i in self.observations.values()],
            "families": {
                repr(key): [repr(a) for a in members]
                for key, members in sorted(self.families().items(), key=repr)
            },
            "value_dependent_control_flow": self.value_dependent_control_flow,
            "control_sites": [site.describe() for site in self.control_sites],
            "return_batchable": self.return_batchable,
            "opaque_tainted_lines": list(self.opaque_tainted_lines),
            "column_hazards": list(self.column_hazards),
        }
