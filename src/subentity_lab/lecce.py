"""Finite simulator of the laboratory semantics.

A LabWorld is a toy universe of laboratories, each with a roster of
physical objects tagged with the preparing device that produced them and
a counterfactual yes/no outcome for every registering device.  Limits of
frequencies are modeled as exact rational fractions over the finite
rosters, required equal across laboratories.  States are equivalence
classes of preparing devices (equal frequency rows), properties are
classes of ideal registering devices (equal extensions across labs), and
the certainly-true / certainly-yes domains are the dual maps built from
extension inclusion.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .lattice import NotALattice, build_lattice
from .sps import SPSError, build_sps


class LecceError(Exception):
    pass


class WorldInvalid(LecceError):
    """The world failed cross-laboratory frequency validation."""


@dataclass(frozen=True)
class LabObject:
    name: str
    preparer: str
    outcomes: tuple  # (register name, bool) pairs covering every registering device


@dataclass(frozen=True)
class LabWorld:
    labs: tuple  # laboratory identifiers
    preparers: tuple
    registerers: tuple
    ideal: frozenset  # registering devices flagged exact (property candidates)
    objects: dict  # lab -> tuple of LabObject
    domains: dict | None = None  # optional per-lab domain override (for corrupt fixtures)

    def domain(self, lab):
        if self.domains is not None:
            return tuple(self.domains[lab])
        return tuple(o.name for o in self.objects[lab])

    def prep_extension(self, lab, preparer):
        return frozenset(o.name for o in self.objects[lab] if o.preparer == preparer)

    def reg_extension(self, lab, register):
        return frozenset(
            o.name for o in self.objects[lab] if dict(o.outcomes).get(register, False))


@dataclass(frozen=True)
class OperationalState:
    id: int
    member_devices: frozenset
    extensions: dict  # lab -> frozenset of object names


@dataclass(frozen=True)
class OperationalProperty:
    id: int
    member_devices: frozenset
    extensions: dict  # lab -> frozenset of object names


@dataclass(frozen=True)
class WorldValidation:
    ok: bool
    violations: tuple  # (preparer, register, lab1, lab2, freq1, freq2)


def _frequency(w, lab, preparer, register):
    ext = w.prep_extension(lab, preparer)
    if not ext:
        raise LecceError(f"preparer {preparer} has empty extension in lab {lab}")
    yes = ext & w.reg_extension(lab, register)
    return Fraction(len(yes), len(ext))


def validate_world(w):
    """Cross-lab check: each (preparer, register) frequency must agree everywhere."""
    violations = []
    ref_lab = w.labs[0]
    for pi in w.preparers:
        for r in w.registerers:
            ref = _frequency(w, ref_lab, pi, r)
            for lab in w.labs[1:]:
                f = _frequency(w, lab, pi, r)
                if f != ref:
                    violations.append((pi, r, ref_lab, lab, ref, f))
    return WorldValidation(ok=not violations, violations=tuple(violations))


def _freq_row(w, preparer):
    return tuple(_frequency(w, w.labs[0], preparer, r) for r in w.registerers)


def partition_states(w):
    """Group preparing devices by equality of their full frequency row."""
    if not validate_world(w).ok:
        raise WorldInvalid("frequencies differ across laboratories")
    groups = {}
    for pi in w.preparers:
        groups.setdefault(_freq_row(w, pi), []).append(pi)
    states = []
    for i, (_, members) in enumerate(sorted(groups.items(), key=lambda kv: kv[1][0])):
        exts = {
            lab: frozenset().union(*(w.prep_extension(lab, pi) for pi in members))
            for lab in w.labs
        }
        states.append(OperationalState(id=i, member_devices=frozenset(members), extensions=exts))
    return states


def partition_effects(w):
    """Group ideal registering devices by extension equality across labs.

    Also reports pairs that are frequency-equivalent against every
    preparer yet have distinct extensions (the converse implication that
    does not hold a priori).
    """
    if not validate_world(w).ok:
        raise WorldInvalid("frequencies differ across laboratories")
    ideal = [r for r in w.registerers if r in w.ideal]
    groups = {}
    for r in ideal:
        key = tuple(sorted(w.reg_extension(lab, r)) for lab in w.labs)
        groups.setdefault(tuple(map(tuple, key)), []).append(r)
    props = []
    for i, (_, members) in enumerate(sorted(groups.items(), key=lambda kv: kv[1][0])):
        exts = {lab: w.reg_extension(lab, members[0]) for lab in w.labs}
        props.append(OperationalProperty(id=i, member_devices=frozenset(members), extensions=exts))
    freq_only_pairs = []
    for i, r1 in enumerate(ideal):
        for r2 in ideal[i + 1:]:
            same_freq = all(
                _frequency(w, lab, pi, r1) == _frequency(w, lab, pi, r2)
                for lab in w.labs for pi in w.preparers
            )
            same_ext = all(
                w.reg_extension(lab, r1) == w.reg_extension(lab, r2) for lab in w.labs
            )
            if same_freq and not same_ext:
                freq_only_pairs.append((r1, r2))
    return props, tuple(freq_only_pairs)


def certainly_domains(states, properties, labs):
    """Eqs-style dual maps from extension inclusion across every laboratory.

    Returns (certainly_true, certainly_yes): state id -> property id set
    and property id -> state id set.
    """
    def included(S, E):
        return all(S.extensions[lab] <= E.extensions[lab] for lab in labs)

    e_t = {S.id: frozenset(E.id for E in properties if included(S, E)) for S in states}
    s_y = {E.id: frozenset(S.id for S in states if included(S, E)) for E in properties}
    return e_t, s_y


def check_partition_property(w, states):
    """State extensions must be pairwise disjoint and exhaust each lab domain."""
    problems = []
    for lab in w.labs:
        for i, S1 in enumerate(states):
            for S2 in states[i + 1:]:
                overlap = S1.extensions[lab] & S2.extensions[lab]
                if overlap:
                    problems.append(
                        f"lab {lab}: states {S1.id} and {S2.id} share objects {sorted(overlap)}")
        covered = frozenset().union(*(S.extensions[lab] for S in states)) if states else frozenset()
        orphans = set(w.domain(lab)) - covered
        if orphans:
            problems.append(f"lab {lab}: objects {sorted(orphans)} have no state")
    return not problems, tuple(problems)


@dataclass(frozen=True)
class LecceBuild:
    sps: object  # StatePropertySystem or None when construction failed
    states: tuple
    properties: tuple
    property_classes: tuple  # per lattice element, frozenset of property ids (empty = synthetic)
    report: tuple  # human-readable lines on which conditions hold


def build_lecce_sps(w):
    """State property system induced by a LabWorld, verified rather than assumed.

    Properties are ordered by inclusion of their certainly-yes domains and
    quotiented by mutual inclusion; a synthetic bottom/top is added when
    absent; the meet tables must exist (otherwise the report flags the
    failure and no system is returned), and the two defining conditions of
    a state property system are checked honestly.
    """
    report = []
    states = partition_states(w)  # validates the world, raising WorldInvalid
    props, freq_only = partition_effects(w)
    if freq_only:
        report.append(f"frequency-equivalent but extension-distinct pairs: {freq_only}")
    _, s_y = certainly_domains(states, props, w.labs)

    all_ids = frozenset(S.id for S in states)
    classes = {}
    for E in props:
        classes.setdefault(s_y[E.id], []).append(E.id)
    keys = set(classes)
    if frozenset() not in keys:
        classes[frozenset()] = []
        report.append("synthetic bottom added (no property with empty certainly-yes domain)")
    if all_ids not in keys:
        classes[all_ids] = []
        report.append("synthetic top added (no property certain in every state)")
    ordered = sorted(classes.items(), key=lambda kv: (len(kv[0]), sorted(kv[0])))
    carriers = [k for k, _ in ordered]
    pairs = [
        (i, j)
        for i in range(len(carriers))
        for j in range(len(carriers))
        if i != j and carriers[i] <= carriers[j]
    ]
    try:
        lat = build_lattice(len(carriers), pairs)
    except NotALattice as exc:
        report.append(f"property order is not a lattice: {exc}")
        return LecceBuild(None, tuple(states), tuple(props),
                          tuple(frozenset(v) for _, v in ordered), tuple(report))
    actuality = [
        [S.id in carriers[c] for c in range(len(carriers))] for S in states
    ]
    try:
        sps = build_sps(lat, len(states), actuality)
    except SPSError as exc:
        report.append(f"state property conditions fail: {exc}")
        return LecceBuild(None, tuple(states), tuple(props),
                          tuple(frozenset(v) for _, v in ordered), tuple(report))
    report.append("state property conditions (top/bottom, meet closure) verified")
    return LecceBuild(sps, tuple(states), tuple(props),
                      tuple(frozenset(v) for _, v in ordered), tuple(report))
