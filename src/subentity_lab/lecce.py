"""Finite simulator of the laboratory semantics.

A LabWorld is a toy universe of laboratories, each with a roster of
physical objects tagged with the preparing device that produced them and
a counterfactual yes/no outcome for every registering device.  Limits of
frequencies are exact rational fractions over the finite rosters, which
are tallied once per world and required equal across laboratories.  The
tally groups each roster in one pass by preparer and outcomes tuple, and
works per group after that; labs are compared by their integer counts,
and Fractions are made only for the cells that differ.  States are
equivalence classes of preparing devices (equal frequency rows),
properties are classes of ideal registering devices (equal extensions
across labs), and the certainly-true / certainly-yes domains are the
dual maps of extension inclusion.  build_lecce_sps reads them off the
validated rows, where inclusion in every lab is a frequency of 1.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import NamedTuple

from .lattice import NotALattice, build_lattice
from .sps import SPSError, build_sps


class LecceError(Exception):
    pass


class WorldInvalid(LecceError):
    """The world failed cross-laboratory frequency validation."""

    def __init__(self, validation):
        self.validation = validation  # the WorldValidation listing the violations
        super().__init__("frequencies differ across laboratories")


class LabObject(NamedTuple):
    """One physical object of a lab's roster.

    outcomes holds (register name, bool) pairs covering every registering
    device exactly once.  Rows parsed from one document are in registerer
    order, and rows with the same outcome text share one outcomes tuple.
    A named tuple, so it also equals the plain tuple of its fields.
    """

    name: str
    preparer: str
    outcomes: tuple


@dataclass(frozen=True)
class LabWorld:
    labs: tuple  # laboratory identifiers
    preparers: tuple
    registerers: tuple
    ideal: frozenset  # registering devices flagged exact (property candidates)
    objects: dict  # lab -> tuple of LabObject, names unique within a lab


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


def _tally(w):
    """Read each lab's roster once and check the frequencies across labs.

    Returns (preps, yes, rows, whole, validation).  preps and yes are keyed
    by lab: the extension of every preparer and the yes-extension of every
    ideal register (frozensets of object names).  rows holds every
    preparer's frequency row over w.registerers in the reference lab
    w.labs[0], as numerators over the common denominator `whole`, so equal
    rows are equal tuples of ints and a frequency of 1 reads `whole`.

    One pass over a roster groups its objects by preparer and outcomes
    tuple (by identity); the rest is per group.  Labs are compared by
    their integer counts, and Fractions are made only for the cells that
    differ.
    """
    regs = w.registerers
    index = {r: j for j, r in enumerate(regs)}
    ideal = [(j, r) for j, r in enumerate(regs) if r in w.ideal]
    is_ideal = [r in w.ideal for r in regs]
    answered = {}  # id(outcomes) -> indices of the registers it answers yes, and the ideal ones
    preps, yes, sizes, counts = {}, {}, {}, {}
    for lab in w.labs:
        groups = defaultdict(list)  # (preparer, id(outcomes)) -> the rows sharing both
        for row in w.objects[lab]:
            groups[row[1], id(row[2])].append(row)
        by_prep, by_reg = defaultdict(list), [[] for _ in regs]
        count = counts[lab] = defaultdict(lambda: [0] * len(regs))
        for (pi, key), group in groups.items():
            if key not in answered:
                js = [index[r] for r, a in group[0][2] if a and r in index]
                answered[key] = js, [j for j in js if is_ideal[j]]
            js, ideal_js = answered[key]
            names = [row[0] for row in group]
            by_prep[pi] += names
            yes_count = count[pi]
            for j in js:
                yes_count[j] += len(names)
            for j in ideal_js:
                by_reg[j] += names
        preps[lab] = {pi: frozenset(by_prep[pi]) for pi in w.preparers}
        sizes[lab] = {pi: len(by_prep[pi]) for pi in w.preparers}
        yes[lab] = {r: frozenset(by_reg[j]) for j, r in ideal}
    empty = [(pi, lab) for pi in w.preparers for lab in w.labs if not preps[lab][pi]]
    if empty and regs:
        raise LecceError("preparer {} has empty extension in lab {}".format(*empty[0]))

    def frequencies(lab, pi):
        return [Fraction(c, sizes[lab][pi]) for c in counts[lab][pi]]

    ref = w.labs[0]
    violations = []
    for pi in w.preparers:
        differ = [lab for lab in w.labs[1:]
                  if (sizes[lab][pi], counts[lab][pi]) != (sizes[ref][pi], counts[ref][pi])]
        if differ:
            first, other = frequencies(ref, pi), {lab: frequencies(lab, pi) for lab in differ}
            violations += [(pi, r, ref, lab, first[j], other[lab][j])
                           for j, r in enumerate(regs) for lab in differ
                           if other[lab][j] != first[j]]
    whole = lcm(*sizes[ref].values())
    rows = {pi: tuple([c * (whole // sizes[ref][pi]) for c in counts[ref][pi]])
            for pi in w.preparers}
    return preps, yes, rows, whole, WorldValidation(ok=not violations,
                                                    violations=tuple(violations))


def validate_world(w):
    """Cross-lab check: each (preparer, register) frequency must agree everywhere."""
    return _tally(w)[-1]


def _valid_tally(w):
    *tally, validation = _tally(w)
    if not validation.ok:
        raise WorldInvalid(validation)
    return tally


def _states(w, preps, yes, rows):
    groups = {}
    for pi in w.preparers:
        groups.setdefault(rows[pi], []).append(pi)
    return [OperationalState(id=i, member_devices=frozenset(members), extensions={
                lab: frozenset().union(*(preps[lab][pi] for pi in members)) for lab in w.labs})
            for i, members in enumerate(sorted(groups.values()))]


def partition_states(w):
    """Group preparing devices by equality of their full frequency row."""
    return _states(w, *_valid_tally(w)[:3])


def _effects(w, preps, yes, rows):
    ideal = [r for r in w.registerers if r in w.ideal]
    ext_key = {r: tuple(yes[lab][r] for lab in w.labs) for r in ideal}
    groups = {}
    for r in ideal:
        groups.setdefault(ext_key[r], []).append(r)
    props = [OperationalProperty(id=i, member_devices=frozenset(members),
                                 extensions={lab: yes[lab][members[0]] for lab in w.labs})
             for i, members in enumerate(sorted(groups.values()))]
    # validated labs agree, so the reference lab's columns decide frequency equivalence
    column = {r: tuple(rows[pi][j] for pi in w.preparers)
              for j, r in enumerate(w.registerers) if r in w.ideal}
    return props, tuple((r1, r2) for i, r1 in enumerate(ideal) for r2 in ideal[i + 1:]
                        if column[r1] == column[r2] and ext_key[r1] != ext_key[r2])


def partition_effects(w):
    """Group ideal registering devices by extension equality across labs.

    Also reports pairs that are frequency-equivalent against every
    preparer yet have distinct extensions (the converse implication that
    does not hold a priori).
    """
    return _effects(w, *_valid_tally(w)[:3])


def certainly_domains(states, properties, labs):
    """Eqs-style dual maps from extension inclusion across every laboratory.

    Returns (certainly_true, certainly_yes): state id -> property id set
    and property id -> state id set.
    """
    included = {(S.id, E.id) for S in states for E in properties
                if all(S.extensions[lab] <= E.extensions[lab] for lab in labs)}
    e_t = {S.id: frozenset(E.id for E in properties if (S.id, E.id) in included) for S in states}
    s_y = {E.id: frozenset(S.id for S in states if (S.id, E.id) in included) for E in properties}
    return e_t, s_y


def _certainly_yes(w, states, props, rows, whole):
    """certainly_domains' certainly-yes map, read off the validated rows.

    A state's extension lies inside a property's in every lab exactly when
    its preparers answer yes to the property's registers with frequency 1:
    validated labs share their frequencies, and no preparer's extension is
    empty.  Members of one class share their row (or column), so any
    member stands for its class.
    """
    index = {r: j for j, r in enumerate(w.registerers)}
    row = {S.id: rows[min(S.member_devices)] for S in states}
    return {E.id: frozenset(S.id for S in states if row[S.id][j] == whole)
            for E in props for j in [index[min(E.member_devices)]]}


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
        orphans = {o.name for o in w.objects[lab]} - covered
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
    tally = _valid_tally(w)
    states = _states(w, *tally[:3])
    props, freq_only = _effects(w, *tally[:3])
    if freq_only:
        report.append(f"frequency-equivalent but extension-distinct pairs: {freq_only}")
    s_y = _certainly_yes(w, states, props, *tally[2:])

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
    pairs = [(i, j) for i, ci in enumerate(carriers) for j, cj in enumerate(carriers)
             if i != j and ci <= cj]
    sps = None
    try:
        lat = build_lattice(len(carriers), pairs)
    except NotALattice as exc:
        report.append(f"property order is not a lattice: {exc}")
    else:
        actuality = [[S.id in c for c in carriers] for S in states]
        try:
            sps = build_sps(lat, len(states), actuality)
        except SPSError as exc:
            report.append(f"state property conditions fail: {exc}")
        else:
            report.append("state property conditions (top/bottom, meet closure) verified")
    return LecceBuild(sps, tuple(states), tuple(props),
                      tuple(frozenset(v) for _, v in ordered), tuple(report))
