from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from subentity_lab import lecce
from subentity_lab.lecce import (
    LabObject,
    LabWorld,
    LecceError,
    WorldInvalid,
    build_lecce_sps,
    certainly_domains,
    check_partition_property,
    partition_effects,
    partition_states,
    WorldValidation,
    validate_world,
)
from subentity_lab.modelio import ModelDocument, ModelSchemaError, parse_model, serialize_model
from subentity_lab.sps import state_preorder

FIXTURES = Path(__file__).parent / "fixtures"


def load_world(name):
    doc = parse_model((FIXTURES / name).read_text())
    return doc.body["world"]


def make_world(labs, preparers, registerers, ideal, rows):
    objects = {
        lab: tuple(
            LabObject(name, prep, tuple(sorted(out.items())))
            for name, prep, out in rows[lab]
        )
        for lab in labs
    }
    return LabWorld(tuple(labs), tuple(preparers), tuple(registerers),
                    frozenset(ideal), objects)


def two_lab_world():
    return load_world("two_labs.labworld")


# --- validation -----------------------------------------------------------


def test_fixture_world_validates():
    assert validate_world(two_lab_world()).ok


def test_mismatch_world_flagged():
    w = load_world("two_labs_mismatch.labworld")
    val = validate_world(w)
    assert not val.ok
    pi, r, lab1, lab2, f1, f2 = val.violations[0]
    assert (pi, r) == ("p1", "r2")
    assert f1 != f2
    with pytest.raises(WorldInvalid):
        partition_states(w)
    with pytest.raises(WorldInvalid) as exc:
        build_lecce_sps(w)
    assert exc.value.validation == val


def test_equal_counts_over_different_sizes_are_a_violation():
    # p answers r yes once in each lab, out of one object in j and two in k
    rows = {"j": [("x", "p", {"r": True})],
            "k": [("y", "p", {"r": True}), ("z", "p", {"r": False})]}
    w = make_world(["j", "k"], ["p"], ["r"], ["r"], rows)
    assert validate_world(w).violations == (("p", "r", "j", "k", Fraction(1), Fraction(1, 2)),)


@pytest.mark.parametrize("rows,message", [
    # the yes count would be 2 over an extension of 1
    ([("o1", "p", (("r", True), ("r", True)))], "object o1 in lab j must answer every register once"),
    # the extension would be {o1} over a size of 2
    ([("o1", "p", (("r", True),)), ("o1", "p", (("r", False),))], "object o1 listed twice in lab j"),
    # o2 would count as answering no
    ([("o1", "p", (("r", True),)), ("o2", "p", ())], "object o2 in lab j must answer every register once"),
], ids=["register-answered-twice", "object-listed-twice", "no-outcomes"])
def test_malformed_hand_built_worlds_are_refused(rows, message):
    # the parser refuses each of these rows, so only a world built directly reaches the tally
    w = LabWorld(("j",), ("p",), ("r",), frozenset({"r"}),
                 {"j": tuple(LabObject(*row) for row in rows)})
    for fn in (validate_world, partition_states, partition_effects, build_lecce_sps):
        with pytest.raises(LecceError) as exc:
            fn(w)
        assert str(exc.value) == message


# --- partitions -----------------------------------------------------------


def test_state_partition():
    states = partition_states(two_lab_world())
    members = sorted(sorted(S.member_devices) for S in states)
    assert members == [["p1", "p2"], ["p3"]]
    big = next(S for S in states if len(S.member_devices) == 2)
    assert big.extensions["j1"] == frozenset({"x1", "x2", "x3", "x4"})
    assert big.extensions["j2"] == frozenset({"y1", "y2", "y3", "y4"})


def test_effect_partition():
    props, freq_only = partition_effects(two_lab_world())
    assert sorted(sorted(E.member_devices) for E in props) == [["r1"], ["r2"], ["r3"]]
    assert freq_only == ()


def test_frequency_equivalent_extension_distinct_pair_reported():
    # two ideal registers with identical statistics against the lone
    # preparer yet disjoint extensions
    rows = {"j": [
        ("x1", "p", {"ra": True, "rb": False}),
        ("x2", "p", {"ra": False, "rb": True}),
    ]}
    w = make_world(["j"], ["p"], ["ra", "rb"], ["ra", "rb"], rows)
    props, freq_only = partition_effects(w)
    assert len(props) == 2
    assert freq_only == (("ra", "rb"),)


def test_certainly_domains():
    w = two_lab_world()
    states = partition_states(w)
    props, _ = partition_effects(w)
    e_t, s_y = certainly_domains(states, props, w.labs)
    by_reg = {next(iter(E.member_devices)): E.id for E in props}
    s_big = next(S.id for S in states if len(S.member_devices) == 2)
    s_p3 = next(S.id for S in states if S.member_devices == frozenset({"p3"}))
    assert e_t[s_big] == frozenset({by_reg["r1"], by_reg["r3"]})
    assert e_t[s_p3] == frozenset({by_reg["r3"]})
    assert s_y[by_reg["r2"]] == frozenset()
    assert s_y[by_reg["r1"]] == frozenset({s_big})
    assert s_y[by_reg["r3"]] == frozenset({s_big, s_p3})
    # duality of the two maps
    for S in states:
        for E in props:
            assert (E.id in e_t[S.id]) == (S.id in s_y[E.id])


def test_partition_property_holds_on_fixture():
    w = two_lab_world()
    ok, problems = check_partition_property(w, partition_states(w))
    assert ok and problems == ()


def test_partition_property_detects_orphans():
    w = two_lab_world()
    states = partition_states(w)
    dropped = states[0]
    ok, problems = check_partition_property(w, states[1:])
    assert not ok
    for lab in w.labs:
        assert f"lab {lab}: objects {sorted(dropped.extensions[lab])} have no state" in problems


def test_partition_property_detects_overlap():
    w = two_lab_world()
    states = partition_states(w)
    # duplicate one state under a second id: extensions now overlap
    from dataclasses import replace
    doubled = list(states) + [replace(states[0], id=len(states))]
    ok, problems = check_partition_property(w, doubled)
    assert not ok
    assert any("share objects" in p for p in problems)


# --- induced state property system ----------------------------------------


def test_build_lecce_sps_fixture():
    build = build_lecce_sps(two_lab_world())
    assert build.sps is not None
    L = build.sps.lattice
    assert L.size == 3
    # a three-element chain: certainly-yes carriers {} < {S1} < {S1, S2}
    assert all(L.leq[i][j] == (i <= j) for i in range(3) for j in range(3))
    assert any("verified" in line for line in build.report)
    # no synthetic elements needed: r2 provides bottom, r3 the top
    assert all(cls for cls in build.property_classes)


def test_build_lecce_sps_synthetic_elements():
    rows = {"j": [("x1", "p", {"r": True})]}
    build = build_lecce_sps(make_world(["j"], ["p"], ["r"], ["r"], rows))
    assert any("synthetic bottom" in line for line in build.report)
    rows = {"j": [("x1", "p", {"r": False})]}
    build = build_lecce_sps(make_world(["j"], ["p"], ["r"], ["r"], rows))
    assert any("synthetic top" in line for line in build.report)


def test_build_lecce_sps_reports_failed_conditions():
    def one_object_per_preparer(answers, regs):
        rows = {"j": [(f"x{pi}", pi, dict(zip(regs, out))) for pi, out in answers.items()]}
        return make_world(["j"], list(answers), regs, regs, rows)

    # certainly-yes carriers {a}, {b}, {a,b,x}, {a,b,y}: {a} v {b} has no least bound
    build = build_lecce_sps(one_object_per_preparer(
        {"pa": (1, 0, 1, 1), "pb": (0, 1, 1, 1), "px": (0, 0, 1, 0), "py": (0, 0, 0, 1)},
        ["ra", "rb", "rx", "ry"]))
    assert build.sps is None
    assert build.report[-1] == (
        "property order is not a lattice: no unique join for element pair (1, 2)")
    assert len(build.property_classes) == 6
    # carriers {a,b} and {a,c} meet in the synthetic bottom, which state a lacks
    build = build_lecce_sps(one_object_per_preparer(
        {"pa": (1, 1), "pb": (1, 0), "pc": (0, 1)}, ["r1", "r2"]))
    assert build.sps is None
    assert build.report[-1] == (
        "state property conditions fail: state 0: meet closure fails on family (1, 2, 3)")
    assert build.property_classes == (frozenset(), frozenset({0}), frozenset({1}), frozenset())


def test_sps_preorder_matches_certainly_true_inclusion():
    w = two_lab_world()
    build = build_lecce_sps(w)
    e_t, _ = certainly_domains(build.states, build.properties, w.labs)
    S = build.sps
    for p in range(S.num_states):
        for q in range(S.num_states):
            assert state_preorder(S, p, q) == (e_t[q] <= e_t[p])


def test_relabeling_invariance():
    w = two_lab_world()
    ren_obj = lambda n: "obj_" + n
    rows = {
        "lab_" + lab: [
            (ren_obj(o.name), o.preparer, dict(o.outcomes)) for o in w.objects[lab]
        ]
        for lab in w.labs
    }
    v = make_world(["lab_" + l for l in w.labs], w.preparers, w.registerers,
                   w.ideal, rows)
    a, b = build_lecce_sps(w), build_lecce_sps(v)
    assert a.sps.lattice.leq == b.sps.lattice.leq
    assert a.sps.xi == b.sps.xi
    assert [S.member_devices for S in a.states] == [S.member_devices for S in b.states]


# --- brute-force oracle ---------------------------------------------------
# Every frequency is recomputed from the roster for each (lab, preparer,
# register) on each use; the library tallies each roster once.


def oracle_prep_extension(w, lab, preparer):
    return frozenset(o.name for o in w.objects[lab] if o.preparer == preparer)


def oracle_reg_extension(w, lab, register):
    return frozenset(o.name for o in w.objects[lab] if dict(o.outcomes).get(register, False))


def oracle_frequency(w, lab, preparer, register):
    ext = oracle_prep_extension(w, lab, preparer)
    if not ext:
        raise LecceError(f"preparer {preparer} has empty extension in lab {lab}")
    return Fraction(len(ext & oracle_reg_extension(w, lab, register)), len(ext))


def oracle_validate(w):
    violations = []
    ref_lab = w.labs[0]
    for pi in w.preparers:
        for r in w.registerers:
            ref = oracle_frequency(w, ref_lab, pi, r)
            for lab in w.labs[1:]:
                f = oracle_frequency(w, lab, pi, r)
                if f != ref:
                    violations.append((pi, r, ref_lab, lab, ref, f))
    return tuple(violations)


def oracle_require_valid(w):
    violations = oracle_validate(w)
    if violations:
        raise WorldInvalid(WorldValidation(ok=False, violations=violations))


def oracle_states(w):
    oracle_require_valid(w)
    groups = {}
    for pi in w.preparers:
        row = tuple(oracle_frequency(w, w.labs[0], pi, r) for r in w.registerers)
        groups.setdefault(row, []).append(pi)
    states = []
    for i, (_, members) in enumerate(sorted(groups.items(), key=lambda kv: kv[1][0])):
        exts = {lab: frozenset().union(*(oracle_prep_extension(w, lab, pi) for pi in members))
                for lab in w.labs}
        states.append((i, frozenset(members), exts))
    return states


def oracle_effects(w):
    oracle_require_valid(w)
    ideal = [r for r in w.registerers if r in w.ideal]
    groups = {}
    for r in ideal:
        key = tuple(tuple(sorted(oracle_reg_extension(w, lab, r))) for lab in w.labs)
        groups.setdefault(key, []).append(r)
    props = []
    for i, (_, members) in enumerate(sorted(groups.items(), key=lambda kv: kv[1][0])):
        exts = {lab: oracle_reg_extension(w, lab, members[0]) for lab in w.labs}
        props.append((i, frozenset(members), exts))
    pairs = []
    for i, r1 in enumerate(ideal):
        for r2 in ideal[i + 1:]:
            same_freq = all(oracle_frequency(w, lab, pi, r1) == oracle_frequency(w, lab, pi, r2)
                            for lab in w.labs for pi in w.preparers)
            same_ext = all(oracle_reg_extension(w, lab, r1) == oracle_reg_extension(w, lab, r2)
                           for lab in w.labs)
            if same_freq and not same_ext:
                pairs.append((r1, r2))
    return props, tuple(pairs)


def outcome(fn, w):
    """fn(w), or the raised LecceError as (type, message, validation)."""
    try:
        return fn(w)
    except LecceError as exc:
        return type(exc), str(exc), getattr(exc, "validation", None)


def fields(classes):
    return [(c.id, c.member_devices, c.extensions) for c in classes]


@st.composite
def lab_worlds(draw):
    """1-3 labs, 1-4 preparers, 1-4 registers, random ideal flags and outcomes.

    Labs share one shuffled roster (so frequencies agree) unless the world
    is skewed (one outcome flipped in the last lab), drawn per lab, or
    missing one preparer's objects in every lab.  Devices are listed in a
    drawn order.
    """
    labs = [f"j{i}" for i in range(draw(st.integers(1, 3)))]
    preps = [f"p{i}" for i in range(draw(st.integers(1, 4)))]
    regs = [f"r{i}" for i in range(draw(st.integers(1, 4)))]
    ideal = draw(st.sets(st.sampled_from(regs)))
    answers = st.lists(st.booleans(), min_size=len(regs), max_size=len(regs))

    def roster():
        extra = draw(st.lists(st.tuples(st.sampled_from(preps), answers), max_size=5))
        return [(pi, draw(answers)) for pi in preps] + extra

    mode = draw(st.sampled_from(["shared", "skewed", "per-lab", "missing"]))
    shared = roster()
    if len(regs) > 1 and draw(st.booleans()):
        # r1 answers as r0 does on the preparer's next object: same frequencies,
        # often a different extension
        ideal |= {"r0", "r1"}
        for pi in preps:
            mine = [out for p, out in shared if p == pi]
            for out, nxt in zip(mine, mine[1:] + mine[:1]):
                out[1] = nxt[0]
    rows = {}
    for lab in labs:
        own = draw(st.permutations(roster() if mode == "per-lab" else shared))
        rows[lab] = [[pi, list(out)] for pi, out in own]
    if mode == "skewed":
        row = draw(st.sampled_from(rows[labs[-1]]))
        k = draw(st.integers(0, len(regs) - 1))
        row[1][k] = not row[1][k]
    if mode == "missing":  # lab i loses the objects of preparer offset + i
        offset = draw(st.integers(0, len(preps) - 1))
        for i, lab in enumerate(labs):
            gone = preps[(offset + i) % len(preps)]
            rows[lab] = [row for row in rows[lab] if row[0] != gone]
    listed_preps, listed_regs = draw(st.permutations(preps)), draw(st.permutations(regs))
    return make_world(labs, listed_preps, listed_regs, ideal, {
        lab: [(f"{lab}o{k}", pi, dict(zip(regs, out))) for k, (pi, out) in enumerate(rows[lab])]
        for lab in labs
    })


def oracle_build(w):
    props, pairs = oracle_effects(w)
    pairs_line = [f"frequency-equivalent but extension-distinct pairs: {pairs}"] if pairs else []
    return oracle_states(w), props, pairs_line


def validation_view(w):
    val = validate_world(w)
    assert val.ok == (not val.violations)
    return val.violations


def effects_view(w):
    props, pairs = partition_effects(w)
    return fields(props), pairs


def build_view(w):
    build = build_lecce_sps(w)
    pairs_line = [line for line in build.report if line.startswith("frequency-equivalent")]
    return fields(build.states), fields(build.properties), pairs_line


def check_against_oracle(w):
    assert outcome(validation_view, w) == outcome(oracle_validate, w)
    assert outcome(lambda w: fields(partition_states(w)), w) == outcome(oracle_states, w)
    assert outcome(effects_view, w) == outcome(oracle_effects, w)
    assert outcome(build_view, w) == outcome(oracle_build, w)


def round_trip(w):
    """w written and parsed again: rows with equal outcomes now share one tuple."""
    doc = ModelDocument(kind="labworld", body={"world": w})
    return parse_model(serialize_model(doc)).body["world"]


@settings(max_examples=300, derandomize=True, deadline=None)
@given(lab_worlds())
def test_lecce_against_oracle(w):
    check_against_oracle(w)
    try:
        parsed = round_trip(w)
    except ModelSchemaError as exc:  # the parser refuses a preparer missing from a lab
        assert exc.reason.endswith("have empty extensions")
        assert outcome(oracle_validate, w)[0] is LecceError
    else:
        check_against_oracle(parsed)


@settings(max_examples=300, derandomize=True, deadline=None)
@given(lab_worlds())
def test_certainty_read_off_the_rows_is_extension_inclusion(w):
    try:
        states, (props, _) = oracle_states(w), oracle_effects(w)
    except LecceError:
        return
    # the definition: a state is certain for a property when its extension
    # lies inside the property's in every lab
    certain = {E: frozenset(S for S, _, s_ext in states
                            if all(s_ext[lab] <= e_ext[lab] for lab in w.labs))
               for E, _, e_ext in props}
    build = build_lecce_sps(w)
    e_t, s_y = certainly_domains(build.states, build.properties, w.labs)
    assert s_y == certain
    assert e_t == {S: frozenset(E for E in certain if S in certain[E]) for S, _, _ in states}
    tally = lecce._valid_tally(w)
    assert lecce._certainly_yes(w, build.states, build.properties, *tally[2:]) == certain
    if build.sps is not None:  # each property's class is actual in exactly its certain states
        for k, members in enumerate(build.property_classes):
            for E in members:
                assert certain[E] == {S.id for S in build.states if k in build.sps.xi[S.id]}


@pytest.mark.parametrize("skewed", [False, True])
def test_equal_outcomes_in_distinct_tuples_and_orders(skewed):
    # every outcomes tuple is built apart, half of them in reversed register order
    def outcomes(k, a, b, c):
        pairs = [("ra", a), ("rb", b), ("rc", c)]
        return tuple(pairs[::-1] if k % 2 else pairs)

    roster = [("p", (1, 0, 1)), ("p", (1, 0, 1)), ("p", (0, 1, 1)), ("q", (1, 1, 0)),
              ("q", (1, 1, 0)), ("q", (0, 0, 0)), ("s", (1, 0, 1)), ("s", (0, 1, 1))]
    objects = {}
    for lab, order in (("j", roster), ("k", roster[::-1]), ("m", roster[3:] + roster[:3])):
        objects[lab] = tuple(LabObject(f"{lab}{k}", pi, outcomes(k, *map(bool, answers)))
                             for k, (pi, answers) in enumerate(order))
    if skewed:
        x = objects["m"][0]
        objects["m"] = (x._replace(outcomes=outcomes(1, True, True, True)),) + objects["m"][1:]
    w = LabWorld(("j", "k", "m"), ("p", "q", "s"), ("ra", "rb", "rc"),
                 frozenset({"ra", "rb", "rc"}), objects)
    everyone = [o for lab in w.labs for o in w.objects[lab]]
    assert len({id(o.outcomes) for o in everyone}) == len(everyone)
    check_against_oracle(w)
    parsed = round_trip(w)
    check_against_oracle(parsed)
    for view in (validation_view, effects_view, build_view):
        assert outcome(view, parsed) == outcome(view, w)
    assert validate_world(w).ok is not skewed


def test_lab_object_contract():
    out = (("r1", True), ("r2", False))
    o = LabObject("x", "p", out)
    assert list(LabObject.__annotations__) == ["name", "preparer", "outcomes"]
    assert (o.name, o.preparer, o.outcomes) == ("x", "p", out)
    assert o == LabObject(name="x", preparer="p", outcomes=(("r1", True), ("r2", False)))
    assert o == LabObject("x", preparer="p", outcomes=out)
    assert o != LabObject("y", "p", out) and o != LabObject("x", "p", out[::-1])
    assert o == ("x", "p", out)  # a named tuple: equal to the plain tuple of its fields
    for field in ("name", "preparer", "outcomes"):
        with pytest.raises(AttributeError):
            setattr(o, field, "z")
    assert hash(o) == hash(LabObject("x", "p", (("r1", True), ("r2", False))))
    assert len({o, LabObject("x", "p", out), LabObject("y", "p", out)}) == 2
    w = make_world(["j"], ["p"], ["r1", "r2"], ["r1"], {"j": [("x", "p", dict(out))]})
    doc = ModelDocument(kind="labworld", body={"world": w})
    assert parse_model(serialize_model(doc)) == doc
