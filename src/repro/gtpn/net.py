"""Generalized Timed Petri Net (GTPN) structure.

The GTPN formalism follows Holliday & Vernon, the modeling tool used in
chapter 6 of the thesis.  A net is a multigraph of *places* and
*transitions*; each transition carries an attribute vector of

``(delay, frequency, resource)``

where *delay* is a deterministic, non-negative integer firing duration,
*frequency* governs the probabilistic resolution of conflicts between
transitions that share input places, and *resource* names an output
measure that is "in use" while the transition is firing.

Delay and frequency are constants.  The thesis's state-dependent
frequency expressions are all inhibitor conditions, such as::

    (NetIntr = 0) & !T6 & !T7  ->  1/853.2, 0

and a transition declares one as net structure, with a :class:`Gate`
naming the places that must be empty and the transitions that must not
be firing::

    net.transition("T2", delay=1, frequency=1 / 853.2,
                   gate=Gate(inhibitors=["NetIntr"],
                             not_firing=["T6", "T7"]), ...)

While the gate is closed the transition behaves exactly as if its
frequency were zero.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Mapping, Sequence

from repro.errors import ModelError


@dataclass(frozen=True)
class Gate:
    """A declarative inhibitor condition on a transition.

    The gated transition may join its conflict class's weighted choice
    only while every place in ``inhibitors`` holds zero tokens and no
    transition in ``not_firing`` has a firing in flight (started, in
    this tick or an earlier one, and not yet completed).  Places and
    transitions are given as objects or names and kept as names, so a
    gate may name transitions declared after the one it guards.
    """

    inhibitors: tuple[str, ...] = ()
    not_firing: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "inhibitors", tuple(
            p.name if isinstance(p, Place) else p for p in self.inhibitors))
        object.__setattr__(self, "not_firing", tuple(
            t.name if isinstance(t, Transition) else t
            for t in self.not_firing))
        if not self.inhibitors and not self.not_firing:
            raise ModelError("a gate needs an inhibitor place or a "
                             "not-firing transition")

    @property
    def label(self) -> str:
        """The condition in the thesis's notation."""
        return " & ".join([f"({p} = 0)" for p in self.inhibitors]
                          + [f"!{t}" for t in self.not_firing])

    def render(self, frequency_label: str) -> str:
        """``<condition> -> <frequency>, 0``, as the tables print it."""
        return f"{self.label} -> {frequency_label}, 0"


@dataclass(frozen=True)
class Place:
    """A GTPN place (drawn as a circle in the thesis figures)."""

    name: str
    index: int
    initial_tokens: int = 0

    def __repr__(self) -> str:
        return f"Place({self.name!r}, tokens={self.initial_tokens})"


@dataclass
class Transition:
    """A GTPN transition with its attribute vector.

    ``inputs`` and ``outputs`` map place index -> arc multiplicity.
    """

    name: str
    index: int
    delay: int
    frequency: float
    resource: str | None
    inputs: dict[int, int] = field(default_factory=dict)
    outputs: dict[int, int] = field(default_factory=dict)
    #: additional output-measure names this transition contributes to
    #: (a transition may count toward several resources, e.g. both the
    #: throughput measure and an occupancy measure for Little's law).
    extra_resources: tuple[str, ...] = ()
    #: human-readable rendering of the frequency attribute, in the
    #: thesis's notation (e.g. "1/544.7" or "(NetIntr = 0) & !T6 & !T7
    #: -> 1/853.2, 0"); used when reproducing the transition tables.
    frequency_label: str = ""
    #: inhibitor condition; closed, the transition acts as frequency 0
    gate: Gate | None = None

    @property
    def all_resources(self) -> tuple[str, ...]:
        if self.resource is None:
            return self.extra_resources
        return (self.resource, *self.extra_resources)

    @property
    def immediate(self) -> bool:
        """True when the delay is zero (fires in zero time)."""
        return self.delay == 0

    def enabled(self, marking: Sequence[int]) -> bool:
        """True when every input place holds enough tokens."""
        return all(marking[p] >= need for p, need in self.inputs.items())

    def __repr__(self) -> str:
        return f"Transition({self.name!r})"


class Net:
    """A GTPN under construction and its derived structure.

    Build nets with :meth:`place` and :meth:`transition`; the derived
    conflict classes (used by the firing semantics, see
    :mod:`repro.gtpn.reachability`) are computed lazily and cached.
    """

    def __init__(self, name: str = "gtpn"):
        self.name = name
        self.places: list[Place] = []
        self.transitions: list[Transition] = []
        self._place_by_name: dict[str, Place] = {}
        self._transition_by_name: dict[str, Transition] = {}
        self._conflict_classes: list[list[int]] | None = None
        self._resource_terms: dict[str, tuple] = {}

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def place(self, name: str, tokens: int = 0) -> Place:
        """Add a place holding *tokens* initially."""
        if name in self._place_by_name:
            raise ModelError(f"duplicate place name {name!r}")
        if tokens < 0:
            raise ModelError(f"place {name!r}: negative initial tokens")
        p = Place(name=name, index=len(self.places), initial_tokens=tokens)
        self.places.append(p)
        self._place_by_name[name] = p
        self._conflict_classes = None
        return p

    def transition(self, name: str, *,
                   delay: int,
                   frequency: float = 1.0,
                   resource: str | None = None,
                   extra_resources: Iterable[str] = (),
                   inputs: Iterable[Place] | Mapping[Place, int] = (),
                   outputs: Iterable[Place] | Mapping[Place, int] = (),
                   frequency_label: str = "",
                   gate: Gate | None = None,
                   ) -> Transition:
        """Add a transition.

        ``inputs``/``outputs`` accept either an iterable of places
        (repeat a place for arc multiplicity > 1, matching the
        multigraph definition in the thesis) or an explicit
        place -> multiplicity mapping.  ``gate`` declares an inhibitor
        condition (:class:`Gate`).
        """
        if name in self._transition_by_name:
            raise ModelError(f"duplicate transition name {name!r}")
        if callable(delay) or callable(frequency):
            raise ModelError(
                f"transition {name!r}: delay and frequency are constants; "
                "declare state-dependent inhibition with gate=Gate(...)")
        if not isinstance(delay, int) or delay < 0:
            raise ModelError(
                f"transition {name!r}: delay must be a non-negative integer")
        if float(frequency) < 0:
            raise ModelError(
                f"transition {name!r}: frequency must be >= 0, "
                f"got {frequency!r}")
        if not frequency_label:
            frequency_label = f"{float(frequency):g}"
            if gate is not None:
                frequency_label = gate.render(frequency_label)
        t = Transition(name=name, index=len(self.transitions),
                       delay=delay, frequency=frequency, resource=resource,
                       inputs=self._arc_dict(inputs, name),
                       outputs=self._arc_dict(outputs, name),
                       extra_resources=tuple(extra_resources),
                       frequency_label=frequency_label, gate=gate)
        self.transitions.append(t)
        self._transition_by_name[name] = t
        self._conflict_classes = None
        self._resource_terms = {}
        return t

    def _arc_dict(self, spec, tname: str) -> dict[int, int]:
        arcs: dict[int, int] = {}
        if isinstance(spec, Mapping):
            items = [(p, n) for p, n in spec.items()]
        else:
            items = [(p, 1) for p in spec]
        for p, n in items:
            if not isinstance(p, Place):
                raise ModelError(
                    f"transition {tname!r}: arc endpoint {p!r} is not a "
                    "Place")
            if n <= 0:
                raise ModelError(
                    f"transition {tname!r}: arc multiplicity must be >= 1")
            arcs[p.index] = arcs.get(p.index, 0) + n
        return arcs

    # ------------------------------------------------------------------
    # lookups
    # ------------------------------------------------------------------
    def place_index(self, name: str) -> int:
        try:
            return self._place_by_name[name].index
        except KeyError:
            raise ModelError(f"unknown place {name!r}") from None

    def transition_index(self, name: str) -> int:
        try:
            return self._transition_by_name[name].index
        except KeyError:
            raise ModelError(f"unknown transition {name!r}") from None

    def get_place(self, name: str) -> Place:
        return self.places[self.place_index(name)]

    def has_place(self, name: str) -> bool:
        return name in self._place_by_name

    def has_transition(self, name: str) -> bool:
        return name in self._transition_by_name

    def get_transition(self, name: str) -> Transition:
        return self.transitions[self.transition_index(name)]

    def gate_indices(self, t: Transition,
                     ) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """``(inhibitor places, not-firing transitions)`` of *t*'s gate,
        as sorted index tuples (both empty for an ungated transition)."""
        if t.gate is None:
            return (), ()
        return (tuple(sorted({self.place_index(p)
                              for p in t.gate.inhibitors})),
                tuple(sorted({self.transition_index(u)
                              for u in t.gate.not_firing})))

    @property
    def initial_marking(self) -> tuple[int, ...]:
        return tuple(p.initial_tokens for p in self.places)

    @property
    def resources(self) -> list[str]:
        """Distinct resource names, in first-use order."""
        seen: dict[str, None] = {}
        for t in self.transitions:
            for name in t.all_resources:
                seen.setdefault(name, None)
        return list(seen)

    def resource_terms(self, resource: str) -> tuple[tuple[int, bool], ...]:
        """``(index, immediate)`` of each transition tagged *resource*.

        In transition order, cached per resource until a transition is
        added.  A frequency-only copy of the net (the sweep's re-timed
        nets) shares the cache: its tags and delays are unchanged.
        """
        terms = self._resource_terms.get(resource)
        if terms is None:
            terms = tuple((t.index, t.immediate) for t in self.transitions
                          if resource in t.all_resources)
            self._resource_terms[resource] = terms
        return terms

    # ------------------------------------------------------------------
    # conflict classes
    # ------------------------------------------------------------------
    def conflict_classes(self) -> list[list[int]]:
        """Partition transition indices by transitive input-place sharing.

        Two transitions conflict when they share an input place; the
        transitive closure of that relation partitions the transitions
        into classes.  The firing semantics resolves the choice of which
        transition starts firing *within* a class by normalized
        frequencies; distinct classes proceed independently.  This is
        the documented subset of GTPN semantics used throughout the
        architecture models (see DESIGN.md).
        """
        if self._conflict_classes is None:
            parent = list(range(len(self.transitions)))

            def find(x: int) -> int:
                while parent[x] != x:
                    parent[x] = parent[parent[x]]
                    x = parent[x]
                return x

            def union(a: int, b: int) -> None:
                ra, rb = find(a), find(b)
                if ra != rb:
                    parent[rb] = ra

            by_place: dict[int, list[int]] = {}
            for t in self.transitions:
                for p in t.inputs:
                    by_place.setdefault(p, []).append(t.index)
            for members in by_place.values():
                for other in members[1:]:
                    union(members[0], other)
            classes: dict[int, list[int]] = {}
            for t in self.transitions:
                classes.setdefault(find(t.index), []).append(t.index)
            self._conflict_classes = sorted(classes.values())
        return self._conflict_classes

    def validate(self) -> None:
        """Raise :class:`ModelError` for structurally broken nets."""
        for t in self.transitions:
            if not t.inputs:
                raise ModelError(
                    f"transition {t.name!r} has no input places; it would "
                    "fire unboundedly")
            self.gate_indices(t)        # every gate name must resolve

    def __repr__(self) -> str:
        return (f"Net({self.name!r}, places={len(self.places)}, "
                f"transitions={len(self.transitions)})")
