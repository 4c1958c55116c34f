import io
import json
import os
import random
import re
import signal
import subprocess
import sys
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from subentity_lab import cli as cli_module
from subentity_lab import modelio
from subentity_lab.cli import run_cli
from subentity_lab.lecce import LabObject, LabWorld
from subentity_lab.modelio import (
    ModelDocument,
    ModelIOError,
    ModelSchemaError,
    ModelSyntaxError,
    Report,
    format_complex,
    input_digest,
    parse_complex,
    parse_model,
    serialize_model,
)

FIXTURES = Path(__file__).parent / "fixtures"
ALL_FIXTURES = sorted(p for p in FIXTURES.iterdir() if p.is_file())


# --- complex literals -----------------------------------------------------


@pytest.mark.parametrize("token,value", [
    ("1", 1 + 0j),
    ("-2.5", -2.5 + 0j),
    ("1+2i", 1 + 2j),
    ("1-2i", 1 - 2j),
    (" 3.0 + 4.5 i", 3 + 4.5j),
    ("1e-3+2e-4i", 1e-3 + 2e-4j),
    (".5-.25i", 0.5 - 0.25j),
    ("0.70710678118654746+0i", 0.70710678118654746 + 0j),
])
def test_parse_complex(token, value):
    assert parse_complex(token) == value


@pytest.mark.parametrize("token", ["i", "1+", "2i", "1+2j", "", "+-1", "1 2"])
def test_parse_complex_rejects(token):
    with pytest.raises(ValueError):
        parse_complex(token)


# complex() reads each of these, once 'i' is written 'j' where it is the
# imaginary unit; the grammar refuses them all, in parse_complex and in a matrix
COMPLEX_ONLY = ["2i", "-i", "1+i", "inf", "nan", "1_0", "(1+2j)", "1e5j"]


@pytest.mark.parametrize("token", COMPLEX_ONLY)
def test_matrix_entries_refuse_what_only_complex_reads(token):
    complex(token if token in ("inf", "nan") else token.replace("i", "j"))
    with pytest.raises(ValueError):
        parse_complex(token)
    with pytest.raises(ModelSyntaxError) as exc:
        parse_model(MATRIX_HEAD + f"1 {token}\n")
    assert str(exc.value) == "line 5, col 3: expected a complex literal"


@pytest.mark.parametrize("bad", ["1x", "2i", "1e5j"])
def test_bad_last_entry_of_large_matrix_fails_promptly(bad):
    # each "10" could split as "1"+"0" under an ambiguous mantissa, and a failed
    # whole-matrix match would retry all 2^80 splits; the alarm turns a hang into
    # a failure (re checks for signals while it matches)
    rows = ["10 " * 8 + "10"] * 8 + ["10 " * 8 + bad]
    text = "[meta]\nkind = hilbert\n\n[matrix M 9 9]\n" + "\n".join(rows) + "\n"

    def hang(signum, frame):
        raise TimeoutError("matrix check backtracks")

    previous = signal.signal(signal.SIGALRM, hang)
    signal.alarm(5)
    try:
        with pytest.raises(ModelSyntaxError) as exc:
            parse_model(text)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    assert str(exc.value) == "line 13, col 25: expected a complex literal"


# the grammar's \d and float() both read every digit of Unicode category Nd
DIGITS = st.sampled_from("0123456789\u0661\uff15\u096a")


@st.composite
def grammar_entries(draw):
    """Matrix entries the grammar accepts: a real part and an optional imaginary one."""
    def number():
        whole, frac = (draw(st.text(DIGITS, min_size=1, max_size=4)) for _ in range(2))
        mantissa = draw(st.sampled_from([whole, whole + ".", whole + "." + frac, "." + frac]))
        exp = draw(st.sampled_from(["", "e", "E", "e+", "e-"]))
        return mantissa + (exp + draw(st.text(DIGITS, min_size=1, max_size=2)) if exp else "")

    entry = draw(st.sampled_from(["", "+", "-"])) + number()
    if draw(st.booleans()):
        entry += draw(st.sampled_from("+-")) + number() + "i"
    return entry


ENTRIES = grammar_entries()


@given(st.lists(ENTRIES, min_size=1, max_size=12))
@settings(max_examples=300, derandomize=True, deadline=None)
def test_matrix_entries_read_exactly_as_parse_complex(entries):
    doc = parse_model(f"[meta]\nkind = hilbert\n\n[matrix M 1 {len(entries)}]\n"
                      + " ".join(entries) + "\n")
    want = np.array([[parse_complex(tok) for tok in entries]])
    assert doc.body["matrices"]["M"].tobytes() == want.tobytes()  # bit for bit, signed zeros too


def test_format_parse_complex_exact():
    rng = random.Random(0)
    for _ in range(500):
        z = complex(rng.uniform(-10, 10), rng.choice([0.0, rng.uniform(-10, 10)]))
        assert parse_complex(format_complex(z)) == z


# --- round trips ----------------------------------------------------------


@pytest.mark.parametrize("path", ALL_FIXTURES, ids=lambda p: p.name)
def test_fixture_round_trip_fixpoint(path):
    text = path.read_bytes()
    doc = parse_model(text)
    ser = serialize_model(doc)
    doc2 = parse_model(ser)
    assert doc2 == doc
    assert serialize_model(doc2) == ser  # byte-level fixpoint


def test_fixtures_already_canonical():
    for path in ALL_FIXTURES:
        assert serialize_model(parse_model(path.read_bytes())) == path.read_bytes()


def test_digest():
    assert input_digest("abc") == input_digest(b"abc")
    assert len(input_digest("abc")) == 64
    assert input_digest("a") != input_digest("b")


# --- syntax and schema errors ---------------------------------------------

# Matrices inside the old parse tolerance (1e-7) but outside the tolerance
# of the carrier a command builds from them: W is Hermitian only to 2e-8,
# U is unitary only to 4e-8.  Parsing must reject them, not the command.
W_GAP = ("[meta]\nkind = hilbert\n\n[dims]\n1 2\n\n"
         "[matrix W 2 2]\n0.5 0.50000001\n0.49999999 0.5\n")
U_GAP = ("[meta]\nkind = hilbert\n\n[dims]\n1 2\n\n"
         "[matrix U 2 2]\n1.00000002 0\n0 1\n\n[matrix psi 2 1]\n1\n0\n")
W_EMPTY = "[meta]\nkind = hilbert\n\n[dims]\n1 1\n\n[matrix W 0 0]\n"
# fixtures whose [dims] no longer fit their matrices: psi on 4 != 2*3, P* on 2 != 4
ASYM_2X3 = (FIXTURES / "asym.hilbert").read_text().replace("[dims]\n2 2", "[dims]\n2 3")
MODEL_4X1 = (FIXTURES / "bell_completed.model").read_text().replace("[dims]\n2 2",
                                                                    "[dims]\n4 1")


def test_content_before_section_is_syntax_error():
    with pytest.raises(ModelSyntaxError) as exc:
        parse_model("kind = lattice\n")
    assert exc.value.line == 1


def test_unclosed_header():
    with pytest.raises(ModelSyntaxError):
        parse_model("[meta\nkind = lattice\n")


def test_bad_order_line_position():
    text = "[meta]\nkind = lattice\n\n[lattice]\nsize = 2\n\n[order]\n0 1\n0 x\n"
    with pytest.raises(ModelSyntaxError) as exc:
        parse_model(text)
    assert exc.value.line == 9


def test_comments_and_blank_lines_ignored():
    text = ("# leading comment\n[meta]\nkind = lattice  # trailing\n\n"
            "[lattice]\nsize = 2\n\n[order]\n0 1\n")
    doc = parse_model(text)
    assert doc.body["order"] == [(0, 1)]


@pytest.mark.parametrize("text,section", [
    ("[meta]\nkind = nonsense\n", "meta"),
    ("[meta]\nkind = lattice\n[meta]\nkind = lattice\n", "meta"),
    ("[meta]\nkind = lattice\n[lattice]\nsize = 0\n", "lattice"),
    ("[meta]\nkind = lattice\n[lattice]\nsize = 2\n[order]\n0 5\n", "order"),
    ("[meta]\nkind = sps\n[lattice]\nsize = 2\n[order]\n0 1\n"
     "[states]\ncount = 2\n[actuality]\n0 1\n", "actuality"),
    ("[meta]\nkind = lattice\n[lattice]\nsize = 2\n[devices]\nprep p\n", "devices"),
    (W_GAP, "matrix"),
    (U_GAP, "matrix"),
    (W_EMPTY, "matrix"),
    ("[meta]\nkind = hilbert\n[matrix U 0 0]\n", "matrix"),
    pytest.param(ASYM_2X3, "dims", id="psi-4-dims-2x3"),
    pytest.param(MODEL_4X1, "dims", id="P-2-dims-4x1"),
])
def test_schema_errors(text, section):
    with pytest.raises(ModelSchemaError) as exc:
        parse_model(text)
    assert section in exc.value.section


def hilbert_doc(name, rows):
    body = "\n".join(" ".join(row) for row in rows)
    return (f"[meta]\nkind = hilbert\n\n[matrix {name} {len(rows)} {len(rows[0])}]\n"
            + body + "\n")


def test_matrix_role_validation():
    with pytest.raises(ModelSchemaError):  # W not Hermitian
        parse_model(hilbert_doc("W", [["1", "0.5"], ["0", "0"]]))
    with pytest.raises(ModelSchemaError):  # W trace not 1
        parse_model(hilbert_doc("W", [["1", "0"], ["0", "1"]]))
    with pytest.raises(ModelSchemaError):  # P not idempotent
        parse_model(hilbert_doc("P", [["0.5", "0"], ["0", "0"]]))
    with pytest.raises(ModelSchemaError):  # U not unitary
        parse_model(hilbert_doc("U", [["1", "1"], ["0", "1"]]))
    with pytest.raises(ModelSchemaError):  # psi not normalized
        parse_model(hilbert_doc("psi", [["1"], ["1"]]))
    with pytest.raises(ModelSchemaError):  # overflowing literal
        parse_model(hilbert_doc("M", [["1e999", "0"], ["0", "0"]]))
    doc = parse_model(hilbert_doc("W", [["0.5", "0"], ["0", "0.5"]]))
    assert np.allclose(doc.body["matrices"]["W"], np.eye(2) / 2)


def test_labworld_schema_checks():
    head = "[meta]\nkind = labworld\n\n[devices]\nprep p\nreg r\nideal r\n\n"
    with pytest.raises(ModelSchemaError):  # object listed twice
        parse_model(head + "[lab j]\nx p r=yes\nx p r=no\n")
    with pytest.raises(ModelSchemaError):  # unknown preparer
        parse_model(head + "[lab j]\nx q r=yes\n")
    with pytest.raises(ModelSyntaxError):  # bad outcome token
        parse_model(head + "[lab j]\nx p r=maybe\n")
    with pytest.raises(ModelSchemaError):  # empty preparer extension
        parse_model("[meta]\nkind = labworld\n\n[devices]\nprep p q\nreg r\n\n"
                    "[lab j]\nx p r=yes\n")
    two = "[meta]\nkind = labworld\n\n[devices]\nprep p\nreg r1 r2\n\n[lab j]\n"
    with pytest.raises(ModelSchemaError, match="object x must answer every register once"):
        parse_model(two + "x p r1=yes r1=no\n")
    with pytest.raises(ModelSyntaxError, match="line 9, col 12"):  # unknown register
        parse_model(two + "x p r1=yes r3=no\n")


def test_labworld_outcomes_in_registerer_order():
    doc = parse_model("[meta]\nkind = labworld\n\n[devices]\nprep P0\nreg A B\n\n"
                      "[lab j]\no1 P0 B=no A=yes\n")
    (o1,) = doc.body["world"].objects["j"]
    assert o1.outcomes == (("A", True), ("B", False))
    assert parse_model(serialize_model(doc)) == doc


@pytest.mark.parametrize("devices,reason", [
    ("prep p1 p2\nprep p2\nreg r1 r2", "prep device p2 listed twice"),
    ("prep p1 p2\nreg r1 r2 r1", "reg device r1 listed twice"),
    ("prep p1 p2\nreg r1 r2\nideal r2 r2", "ideal device r2 listed twice"),
    ("prep p1 p2\nreg r1 r2 a=b", "reg device a=b contains '='"),
])
def test_labworld_rejects_repeated_device_names(devices, reason):
    text = (f"[meta]\nkind = labworld\n\n[devices]\n{devices}\n\n"
            "[lab j]\nx p1 r1=yes r2=no\ny p2 r1=no r2=yes\n")
    with pytest.raises(ModelSchemaError) as exc:
        parse_model(text)
    assert (exc.value.section, exc.value.reason) == ("devices", reason)


LAB_HEAD = "[meta]\nkind = labworld\n\n[devices]\nprep P Q\nreg A B\n\n[lab j]\n"  # rows from line 9
ONE_REG_HEAD = "[meta]\nkind = labworld\n\n[devices]\nprep p\nreg r\n\n[lab j]\n"
MATRIX_HEAD = "[meta]\nkind = hilbert\n\n[matrix W 1 2]\n"  # the row is line 5
FIELDS = "expected object, preparer, and 2 outcome assignments"


MALFORMED_ROWS = [  # (id, head, rows, exception type, message)
    ("short", LAB_HEAD, "x P A=yes", ModelSyntaxError, f"line 9, col 1: {FIELDS}"),
    ("long", LAB_HEAD, "x P A=yes B=no A=no", ModelSyntaxError, f"line 9, col 1: {FIELDS}"),
    ("object-only", LAB_HEAD, "x", ModelSyntaxError, f"line 9, col 1: {FIELDS}"),
    # a one-register row without its preparer, after a row with the same outcome text
    ("no-preparer", ONE_REG_HEAD, "y p r=yes\nx r=yes", ModelSyntaxError,
     "line 10, col 1: expected object, preparer, and 1 outcome assignments"),
    ("object-twice", LAB_HEAD, "x P A=yes B=no\nx Q A=no B=no", ModelSchemaError,
     "section [lab j]: object x listed twice"),
    ("object-twice-same-text", LAB_HEAD, "x P A=yes B=no\nx P A=yes B=no", ModelSchemaError,
     "section [lab j]: object x listed twice"),
    ("unknown-preparer", LAB_HEAD, "x R A=yes B=no", ModelSchemaError,
     "section [lab j]: unknown preparer R"),
    ("unknown-preparer-seen-text", LAB_HEAD, "y P A=yes B=no\nx R A=yes B=no", ModelSchemaError,
     "section [lab j]: unknown preparer R"),
    # bad REGISTER=yes|no tokens, each at its own column
    ("bad-answer", LAB_HEAD, "x P A=maybe B=no", ModelSyntaxError,
     "line 9, col 5: expected REGISTER=yes|no"),
    ("unknown-register", LAB_HEAD, "x P A=yes C=no", ModelSyntaxError,
     "line 9, col 11: expected REGISTER=yes|no"),
    ("no-answer", LAB_HEAD, "x P A=yes B=", ModelSyntaxError,
     "line 9, col 11: expected REGISTER=yes|no"),
    ("no-register", LAB_HEAD, "x P A=yes =no", ModelSyntaxError,
     "line 9, col 11: expected REGISTER=yes|no"),
    ("token-text-seen-earlier", LAB_HEAD, "B=maybe P A=yes B=maybe", ModelSyntaxError,
     "line 9, col 17: expected REGISTER=yes|no"),
    ("tabs", LAB_HEAD, "x\tP \t A=yes\t\tB=maybe", ModelSyntaxError,
     "line 9, col 14: expected REGISTER=yes|no"),
    ("indented-with-comment", LAB_HEAD, "  x P A=yes B=maybe  # note", ModelSyntaxError,
     "line 9, col 13: expected REGISTER=yes|no"),  # columns count from the file line
    ("short-indented", LAB_HEAD, "  x P A=yes", ModelSyntaxError, f"line 9, col 3: {FIELDS}"),
    ("object-only-tab", LAB_HEAD, "\t x  # note", ModelSyntaxError, f"line 9, col 3: {FIELDS}"),
    ("register-twice", LAB_HEAD, "x P A=yes A=no", ModelSchemaError,
     "section [lab j]: object x must answer every register once"),
    # which fault wins: field count, then object, preparer, token, register answered twice
    ("count-beats-object", LAB_HEAD, "x P A=yes B=no\nx R A=maybe", ModelSyntaxError,
     f"line 10, col 1: {FIELDS}"),
    ("object-beats-preparer", LAB_HEAD, "x P A=yes B=no\nx R A=maybe B=no", ModelSchemaError,
     "section [lab j]: object x listed twice"),
    ("preparer-beats-token", LAB_HEAD, "x R A=maybe B=no", ModelSchemaError,
     "section [lab j]: unknown preparer R"),
    ("token-beats-twice", LAB_HEAD, "x P A=yes A=maybe", ModelSyntaxError,
     "line 9, col 11: expected REGISTER=yes|no"),
    # matrix entries take the same columns: the bad entry's own, counted from the file line
    ("matrix-entry-text-seen-earlier", MATRIX_HEAD, "1e5 e5", ModelSyntaxError,
     "line 5, col 5: expected a complex literal"),
    ("matrix-entry-indented", MATRIX_HEAD, "   1 0x", ModelSyntaxError,
     "line 5, col 6: expected a complex literal"),
    ("matrix-count-indented", MATRIX_HEAD, "   1", ModelSyntaxError,
     "line 5, col 4: expected 2 complex entries"),
]


@pytest.mark.parametrize("head,rows,exc_type,message", [c[1:] for c in MALFORMED_ROWS],
                         ids=[c[0] for c in MALFORMED_ROWS])
def test_labworld_malformed_rows(head, rows, exc_type, message):
    with pytest.raises(ModelIOError) as exc:
        parse_model(head + rows + "\n")
    assert (type(exc.value), str(exc.value)) == (exc_type, message)


WHOLE_ROW_ERRORS = [  # (id, text with the bad row at {pad}, line, expected)
    ("meta-row", "[meta]\n{pad}kind labworld\n", 2, "'key = value' in section [meta]"),
    ("order-row", "[meta]\nkind = lattice\n\n[lattice]\nsize = 2\n\n[order]\n{pad}0 1 2\n",
     8, "two element indices"),
    ("actuality-row", "[meta]\nkind = sps\n\n[lattice]\nsize = 2\n\n[order]\n0 1\n\n"
     "[states]\ncount = 1\n\n[actuality]\n{pad}1 x\n", 14, "a row of 0/1 flags"),
    ("devices-row", "[meta]\nkind = labworld\n\n[devices]\nprep p\n{pad}regs r\n",
     6, "'prep', 'reg' or 'ideal' device list"),
    ("content-before-header", "{pad}kind = lattice\n", 1, "a section header before content"),
    ("matrix-count", "[meta]\nkind = hilbert\n\n[matrix W 1 2]\n{pad}1\n", 5, "2 complex entries"),
]


@pytest.mark.parametrize("pad", ["", "  ", "\t "])
@pytest.mark.parametrize("text,line,expected", [c[1:] for c in WHOLE_ROW_ERRORS],
                         ids=[c[0] for c in WHOLE_ROW_ERRORS])
def test_whole_row_errors_point_at_the_first_field(text, line, expected, pad):
    with pytest.raises(ModelSyntaxError) as exc:
        parse_model(text.format(pad=pad))
    assert str(exc.value) == f"line {line}, col {len(pad) + 1}: expected {expected}"


def test_labworld_rows_with_equal_outcome_text_share_one_tuple():
    doc = parse_model(LAB_HEAD + "x P A=yes B=no\ny Q A=yes B=no\nz Q B=no A=yes\n"
                      "\n[lab k]\nx Q A=yes B=no\ny P A=no B=no\n")
    w = doc.body["world"]
    (x, y, z), (kx, ky) = w.objects["j"], w.objects["k"]
    assert x.outcomes is y.outcomes is kx.outcomes
    assert z.outcomes == x.outcomes == (("A", True), ("B", False))
    assert ky.outcomes == (("A", False), ("B", False))


def test_labworld_serializes_hand_built_rows_in_registerer_order():
    rows = (LabObject("x", "P", (("B", False), ("A", True))),
            LabObject("y", "P", (("A", True), ("B", False))))
    doc = ModelDocument(kind="labworld", body={"world": LabWorld(
        labs=("j",), preparers=("P",), registerers=("A", "B"), ideal=frozenset(),
        objects={"j": rows})})
    text = serialize_model(doc).decode()
    assert text.endswith("[lab j]\nx P A=yes B=no\ny P A=yes B=no\n")
    assert parse_model(text).body["world"].objects["j"] == (
        LabObject("x", "P", (("A", True), ("B", False))),
        LabObject("y", "P", (("A", True), ("B", False))))


def _per_token_labworld_body(doc, by_name):
    """The per-token row loop the memoized parser replaced, kept as its oracle.

    Unchanged except that a bad token is reported at its own column and a
    malformed row at the column of its first field.
    """
    dev = by_name.pop(("devices",), None)
    if dev is None:
        raise ModelSchemaError("devices", "missing [devices] section")
    preps, regs, ideal = [], [], []
    for lineno, line in dev:
        parts = line.split()
        target = {"prep": preps, "reg": regs, "ideal": ideal}.get(parts[0])
        if target is None:
            raise ModelSyntaxError(lineno, re.search(r"\S", line).start() + 1,
                                   "'prep', 'reg' or 'ideal' device list")
        target.extend(parts[1:])
    if not preps or not regs:
        raise ModelSchemaError("devices", "need at least one preparing and one registering device")
    for kind, names in (("prep", preps), ("reg", regs), ("ideal", ideal)):
        if len(set(names)) != len(names):
            dup = next(x for i, x in enumerate(names) if x in names[:i])
            raise ModelSchemaError("devices", f"{kind} device {dup} listed twice")
    for r in regs:
        if "=" in r:
            raise ModelSchemaError("devices", f"reg device {r} contains '='")
    reg_index = {r: i for i, r in enumerate(regs)}
    unknown_ideal = [r for r in ideal if r not in reg_index]
    if unknown_ideal:
        raise ModelSchemaError("devices", f"ideal flags for unknown devices {unknown_ideal}")
    labs = []
    objects = {}
    for key in [k for k in by_name if k and k[0] == "lab"]:
        lines = by_name.pop(key)
        if len(key) != 2:
            raise ModelSchemaError(" ".join(key), "header must be [lab NAME]")
        lab = key[1]
        labs.append(lab)
        rows = []
        seen = set()
        for lineno, line in lines:
            parts = line.split()
            if len(parts) != 2 + len(regs):
                raise ModelSyntaxError(lineno, re.search(r"\S", line).start() + 1,
                                       f"object, preparer, and {len(regs)} outcome assignments")
            obj, prep = parts[0], parts[1]
            if obj in seen:
                raise ModelSchemaError(f"lab {lab}", f"object {obj} listed twice")
            seen.add(obj)
            if prep not in preps:
                raise ModelSchemaError(f"lab {lab}", f"unknown preparer {prep}")
            outcomes = [None] * len(regs)
            for j, tok in enumerate(parts[2:]):
                r, _, ans = tok.partition("=")
                i = reg_index.get(r)
                if i is None or ans not in ("yes", "no"):
                    col = [m.start() + 1 for m in re.finditer(r"\S+", line)][2 + j]
                    raise ModelSyntaxError(lineno, col, "REGISTER=yes|no")
                outcomes[i] = (r, ans == "yes")
            if None in outcomes:
                raise ModelSchemaError(f"lab {lab}", f"object {obj} must answer every register once")
            rows.append(LabObject(name=obj, preparer=prep, outcomes=tuple(outcomes)))
        objects[lab] = tuple(rows)
    if not labs:
        raise ModelSchemaError("lab", "labworld document needs at least one [lab] section")
    for lab in labs:
        present = {o.preparer for o in objects[lab]}
        missing = [p for p in preps if p not in present]
        if missing:
            raise ModelSchemaError(f"lab {lab}", f"preparers {missing} have empty extensions")
    doc.body["world"] = LabWorld(
        labs=tuple(sorted(labs)), preparers=tuple(preps), registerers=tuple(regs),
        ideal=frozenset(ideal), objects=objects)


def _outcome_or_error(text):
    try:
        return parse_model(text)
    except ModelIOError as exc:
        return type(exc), str(exc)


# corruptions of one row, given as its fields: each breaks one check or several
CORRUPTIONS = (
    lambda f: f[:-1],  # a token short
    lambda f: f + [f[-1]],  # a token over
    lambda f: f[:1] + f[2:],  # no preparer
    lambda f: f[:2] + [f[2].replace("=", "=maybe")] + f[3:],
    lambda f: f[:2] + ["Z=yes"] + f[3:],  # unknown register
    lambda f: f[:2] + [f[-1]] + f[3:],  # a register answered twice (or unchanged)
    lambda f: [f[0], "Pz"] + f[2:],  # unknown preparer
    lambda f: ["o0"] + f[1:],  # duplicate object (or unchanged)
    lambda f: [f[2]] + f[1:],  # object named like a token
)


@st.composite
def lab_world_texts(draw):
    """Worlds whose rows repeat a few outcome rows, under random spacing; half have one bad row."""
    regs = draw(st.lists(st.sampled_from(["A", "B", "R1", "R2", "N"]),
                         min_size=1, max_size=4, unique=True))
    preps = draw(st.lists(st.sampled_from(["P", "Q", "P2"]), min_size=1, max_size=3, unique=True))
    pool = draw(st.lists(st.tuples(*[st.booleans() for _ in regs]), min_size=1, max_size=3))
    rows = []  # (lab, fields)
    for lab in range(draw(st.integers(1, 3))):
        for k in range(draw(st.integers(len(preps), 8))):
            toks = [f"{r}={'yes' if a else 'no'}" for r, a in zip(regs, draw(st.sampled_from(pool)))]
            if draw(st.booleans()):
                toks = draw(st.permutations(toks))
            rows.append((lab, [f"o{k}", preps[k % len(preps)]] + toks))
    if draw(st.booleans()):
        i = draw(st.integers(0, len(rows) - 1))
        rows[i] = (rows[i][0], draw(st.sampled_from(CORRUPTIONS))(rows[i][1]))
    sep = st.text(st.sampled_from(" \t"), min_size=1, max_size=3)
    edge = st.text(st.sampled_from(" \t"), max_size=2)
    lines = ["[meta]", "kind = labworld", "", "[devices]", "prep " + " ".join(preps),
             "reg " + " ".join(regs)]
    for i, (lab, fields) in enumerate(rows):
        if i == 0 or rows[i - 1][0] != lab:
            lines += ["", f"[lab L{lab}]"]
        row = draw(edge) + "".join(f + draw(sep) for f in fields)
        lines.append(row.rstrip(" \t") + draw(edge))
    return "\n".join(lines) + "\n"


@given(lab_world_texts())
@settings(max_examples=400, derandomize=True, deadline=None)
def test_labworld_parser_matches_per_token_oracle(text):
    got = _outcome_or_error(text)
    with mock.patch.object(modelio, "_parse_labworld_body", _per_token_labworld_body):
        want = _outcome_or_error(text)
    assert got == want
    if isinstance(got, ModelDocument):
        data = serialize_model(got)
        assert parse_model(data) == got
        assert serialize_model(parse_model(data)) == data


# --- whole documents against the line-by-line parser ------------------------


def _line_by_line_split_sections(text):
    """The line-by-line splitter the section search replaced, kept as its oracle."""
    sections = []
    current = None
    for lineno, raw in enumerate(text.split("\n"), start=1):
        row = raw.partition("#")[0].rstrip()
        line = row.lstrip()
        if not line:
            continue
        if line.startswith("["):
            if not line.endswith("]"):
                raise ModelSyntaxError(lineno, len(row), "closing ']' on section header")
            tokens = line[1:-1].split()
            if not tokens:
                raise ModelSyntaxError(lineno, len(row) - len(line) + 2, "section name")
            current = (tokens, [])
            sections.append(current)
        else:
            if current is None:
                raise ModelSyntaxError(lineno, len(row) - len(line) + 1,
                                       "a section header before content")
            current[1].append((lineno, row))
    return sections


def _per_entry_hilbert_body(doc, by_name):
    """The per-entry matrix reader the grammar match replaced, kept as its oracle."""
    dims = None
    dim_lines = by_name.pop(("dims",), None)
    if dim_lines is not None:
        if len(dim_lines) != 1 or len(dim_lines[0][1].split()) != 2:
            raise ModelSchemaError("dims", "one line with two factor dimensions")
        a, b = dim_lines[0][1].split()
        if not (a.isdigit() and b.isdigit()) or int(a) < 1 or int(b) < 1:
            raise ModelSchemaError("dims", "factor dimensions must be positive integers")
        dims = (int(a), int(b))
    matrices = {}
    for key in [k for k in by_name if k and k[0] == "matrix"]:
        lines = by_name.pop(key)
        if (len(key) != 4 or not (key[2].isdigit() and key[3].isdigit())
                or int(key[2]) < 1 or int(key[3]) < 1):
            raise ModelSchemaError(" ".join(key), "header must be [matrix NAME ROWS COLS], "
                                                  "ROWS and COLS at least 1")
        name, rows, cols = key[1], int(key[2]), int(key[3])
        if name in matrices:
            raise ModelSchemaError(" ".join(key), "duplicate matrix name")
        if len(lines) != rows:
            raise ModelSchemaError(" ".join(key), f"expected {rows} rows, got {len(lines)}")
        M = np.zeros((rows, cols), dtype=complex)
        for i, (lineno, line) in enumerate(lines):
            entries = line.split()
            if len(entries) != cols:
                raise ModelSyntaxError(lineno, modelio._field_col(line, 0),
                                       f"{cols} complex entries")
            for j, tok in enumerate(entries):
                try:
                    M[i, j] = parse_complex(tok)
                except ValueError:
                    raise ModelSyntaxError(lineno, modelio._field_col(line, j), "a complex literal")
        matrices[name] = M
    if not matrices:
        raise ModelSchemaError("matrix", "hilbert document needs at least one matrix")
    for name, M in matrices.items():
        modelio._check_role(name, M, dims)
    doc.body["dims"] = dims
    doc.body["matrices"] = matrices


BLANKS = " \t\x0b\u3000"  # besides the line's own '\r', when lines end in "\r\n"


@st.composite
def model_sections(draw):
    """(header fields, rows as field lists) of a document of any kind, mostly well formed."""
    kind = draw(st.sampled_from(["lattice", "sps", "hilbert", "labworld"]))
    name = draw(st.sampled_from(["d", "a[1]", "x]y"]))  # brackets inside a row are no header
    sections = [(["meta"], [["kind", "=", kind], ["name", "=", name]])]
    if kind in ("lattice", "sps"):
        size = draw(st.integers(1, 4))
        pairs = draw(st.lists(st.tuples(st.integers(0, size - 1), st.integers(0, size - 1)),
                              max_size=4))
        sections += [(["lattice"], [["size", "=", str(size)]]),
                     (["order"], [[str(a), str(b)] for a, b in pairs])]
        if kind == "sps":
            rows = draw(st.lists(st.lists(st.sampled_from("01"), min_size=size, max_size=size),
                                 max_size=3))
            sections += [(["states"], [["count", "=", str(draw(st.integers(0, 3)))]]),
                         (["actuality"], rows)]
    if kind == "hilbert":
        if draw(st.booleans()):
            sections.append((["dims"], [["1", str(draw(st.integers(1, 2)))]]))
        entry = st.integers(0, 19).flatmap(  # one entry in 20 is refused or overflows
            lambda k: ENTRIES if k else st.sampled_from(COMPLEX_ONLY + ["1e999"]))
        for mat in draw(st.lists(st.sampled_from(["M", "N"]), min_size=1, max_size=2,
                                 unique=True)):
            r, c = draw(st.integers(1, 2)), draw(st.integers(1, 2))
            sections.append((["matrix", mat, str(r), str(c)],
                             [draw(st.lists(entry, min_size=c, max_size=c)) for _ in range(r)]))
        if draw(st.booleans()):  # a role the hilbert carriers check
            sections.append((["matrix", "psi", "2", "1"], [["0"], [draw(st.sampled_from(
                ["0+1i", "-1", ".6+.8i", "2"]))]]))
    if kind == "labworld":
        sections.append((["devices"], [["prep", "P", "Q"], ["reg", "A", "B"]]))
        answers = st.sampled_from(["A=yes B=no", "A=no B=no", "B=yes A=yes"])
        for lab in range(draw(st.integers(1, 2))):
            rows = [[f"o{k}", "PQ"[k % 2]] + draw(answers).split() for k in range(4)]
            if draw(st.booleans()):
                k = draw(st.integers(0, 3))
                rows[k] = draw(st.sampled_from(CORRUPTIONS))(rows[k])
            sections.append(([f"lab", f"L{lab}"], rows))
    return sections


@st.composite
def model_documents(draw):
    """Documents of every kind under comments, odd blanks, indents and stray lines."""
    blank = st.text(st.sampled_from(BLANKS), max_size=2)
    sep = st.text(st.sampled_from(BLANKS), min_size=1, max_size=2)
    comment = st.sampled_from(["", "", " # note", "# [x]", "\t#"])

    def line(fields):
        return draw(blank) + "".join(f + draw(sep) for f in fields).rstrip(BLANKS) \
            + draw(blank) + draw(comment)

    sections = draw(model_sections())
    fault = draw(st.sampled_from([None] * 5 + ["stray", "empty", "unclosed"]))
    where = draw(st.integers(0, len(sections) - 1))  # the header an empty or unclosed one replaces
    lines = [line(["stray"])] if fault == "stray" else []  # content before the first header
    for i, (header, rows) in enumerate(sections):
        if i == where and fault == "empty":
            header = []
        closing = "" if i == where and fault == "unclosed" else "]"
        lines.append(draw(blank) + "[" + draw(blank) + " ".join(header) + draw(blank) + closing
                     + draw(blank) + draw(comment))
        for row in rows:
            lines += draw(st.lists(st.sampled_from(["", "#", draw(blank)]), max_size=1))
            lines.append(line(row))
    newline = draw(st.sampled_from(["\n", "\r\n"]))
    return newline.join(lines) + draw(st.sampled_from(["", newline]))


@given(model_documents())
@settings(max_examples=400, derandomize=True, deadline=None)
def test_documents_match_the_line_by_line_parser(text):
    got = _outcome_or_error(text)
    with mock.patch.multiple(modelio, _split_sections=_line_by_line_split_sections,
                             _parse_hilbert_body=_per_entry_hilbert_body,
                             _parse_labworld_body=_per_token_labworld_body):
        want = _outcome_or_error(text)
    assert got == want
    if isinstance(got, ModelDocument):
        assert serialize_model(got) == serialize_model(want)


# --- fuzzing --------------------------------------------------------------


def test_parser_never_crashes_on_mutations():
    rng = random.Random(1234)
    seeds = [p.read_bytes() for p in ALL_FIXTURES]
    alphabet = b"[]=#ib 0123456789.+-\nWPU"
    for _ in range(1500):
        base = bytearray(rng.choice(seeds))
        for _ in range(rng.randint(1, 8)):
            op = rng.randrange(3)
            pos = rng.randrange(len(base) + 1) if base else 0
            if op == 0 and base:
                del base[pos % len(base)]
            elif op == 1:
                base.insert(pos, rng.choice(alphabet))
            elif base:
                base[pos % len(base)] = rng.choice(alphabet)
        try:
            parse_model(bytes(base))
        except ModelIOError:
            pass  # structured rejection is the contract


# --- reports --------------------------------------------------------------


def test_machine_report_round_trip():
    rep = Report("check-axioms", "ab" * 32,
                 verdicts=[{"axiom": "atomicity", "passed": True}])
    block = json.loads(rep.machine())
    assert block["tool_version"]
    assert block["command"] == rep.command
    assert block["input_digest"] == rep.digest
    assert block["verdicts"] == rep.verdicts


# --- CLI ------------------------------------------------------------------


def cli(*argv):
    out, err = io.StringIO(), io.StringIO()
    code = run_cli(list(argv), stdout=out, stderr=err)
    return code, out.getvalue(), err.getvalue()


def fx(name):
    return str(FIXTURES / name)


def test_cli_check_axioms_exit_and_machine_block():
    code, out, _ = cli("check-axioms", fx("boolean_square.sps"), "--format", "machine")
    assert code == 1  # no finite model passes the full battery
    block = json.loads(out)
    assert len(block["verdicts"]) == 8
    by = {v["axiom"]: v["passed"] for v in block["verdicts"]}
    assert by["orthocomplementation"] is True
    assert by["infinite_length"] is False


def test_cli_sps_check():
    assert cli("sps-check", fx("boolean_square.sps"))[0] == 0


def test_cli_sps_check_invalid_system_is_a_negative_verdict(tmp_path):
    # both middle properties actual in one state, but not their meet 0
    path = tmp_path / "bad.sps"
    path.write_text((FIXTURES / "boolean_square.sps").read_text().replace("0 1 0 1", "0 1 1 1"))
    code, out, _ = cli("sps-check", str(path), "--format", "machine")
    assert code == 1
    [verdict] = json.loads(out)["verdicts"]
    assert verdict["passed"] is False and "meet closure" in verdict["reason"]


def test_cli_schmidt():
    code, out, _ = cli("schmidt", fx("asym.hilbert"), "--format", "machine")
    assert code == 0
    v = json.loads(out)["verdicts"][0]
    assert v["rank"] == 2
    assert abs(v["coefficients"][0] - np.sqrt(2 / 3)) < 1e-12
    code, out, _ = cli("schmidt", fx("product.hilbert"), "--format", "machine")
    assert code == 0
    assert json.loads(out)["verdicts"][0]["rank"] == 1


def test_cli_ptrace():
    code, out, _ = cli("ptrace", fx("bell.hilbert"), "--format", "machine")
    assert code == 0
    v = json.loads(out)["verdicts"][0]
    assert abs(v["purity"] - 0.5) < 1e-9
    code, out, _ = cli("ptrace", fx("bell_density.hilbert"), "--keep", "B",
                       "--format", "machine")
    assert code == 0


def test_cli_subentity_search_exit_codes():
    assert cli("subentity-search", fx("part_pure.sps"), fx("whole_bell.sps"))[0] == 1
    code, out, _ = cli("subentity-search", fx("part_density.sps"),
                       fx("whole_bell.sps"), "--format", "machine")
    assert code == 0
    assert json.loads(out)["verdicts"][0]["witness"] is not None
    assert cli("subentity-search", fx("part_pure.sps"), fx("whole_bell.sps"),
               "--budget", "5")[0] == 3


def test_cli_subentity_quantum():
    code, out, _ = cli("subentity-quantum", fx("bell_completed.model"),
                       "--format", "machine")
    assert code == 0
    v = json.loads(out)["verdicts"][0]
    assert v["canonical_covariance"] and v["witness_verified"]


def test_cli_subentity_quantum_library_error_is_an_input_error():
    # a tolerance above 1 makes the zero projection actual in every state
    code, out, err = cli("subentity-quantum", fx("bell_completed.model"), "--eps", "1.5")
    assert code == 2 and out == ""
    assert err == f"{fx('bell_completed.model')}: state 0: bottom property is actual\n"


def test_cli_lecce_build():
    assert cli("lecce-build", fx("two_labs.labworld"))[0] == 0
    code, out, _ = cli("lecce-build", fx("two_labs_mismatch.labworld"), "--format", "machine")
    assert code == 1
    assert json.loads(out)["verdicts"] == [
        {"built": False, "violations": [["p1", "r2", "j1", "j2", "1/2", "1"]]}]


def test_cli_lecce_build_tallies_the_world_once(monkeypatch):
    from subentity_lab import lecce

    calls = []
    tally = lecce._tally
    monkeypatch.setattr(lecce, "_tally", lambda w: calls.append(w) or tally(w))
    assert cli("lecce-build", fx("two_labs.labworld"))[0] == 0
    assert len(calls) == 1


def test_cli_decompose():
    code, out, _ = cli("decompose", fx("mixed_w.hilbert"), "--parts", "3",
                       "--samples", "2", "--seed", "7", "--format", "machine")
    assert code == 0
    block = json.loads(out)
    assert len(block["verdicts"]) == 2
    assert cli("decompose", fx("mixed_w.hilbert"), "--parts", "1")[0] == 2


def test_cli_evolve():
    code, out, _ = cli("evolve", fx("cnot_evolve.hilbert"), "--format", "machine")
    assert code == 0
    v = json.loads(out)["verdicts"][0]
    assert abs(v["purity_before"] - 1) < 1e-9
    assert abs(v["purity_after"] - 0.5) < 1e-9
    assert v["nonunitary_reduction"] is True


def test_cli_input_errors():
    code, _, err = cli("schmidt", "/nonexistent/path.hilbert")
    assert code == 2 and "cannot read" in err
    assert cli("schmidt", fx("boolean_square.sps"))[0] == 2  # wrong kind
    assert cli("nonsense-command", fx("bell.hilbert"))[0] == 2


FILE = object()  # stands for the file argument under test
FILE_ARGUMENTS = [  # (argv, a fixture of a kind the argument refuses)
    (["check-axioms", FILE], "bell.hilbert"),
    (["sps-check", FILE], "o6.lattice"),
    (["schmidt", FILE], "boolean_square.sps"),
    (["ptrace", FILE], "o6.lattice"),
    (["subentity-search", FILE, fx("whole_bell.sps")], "bell.hilbert"),
    (["subentity-search", fx("part_pure.sps"), FILE], "two_labs.labworld"),
    (["subentity-quantum", FILE], "whole_bell.sps"),
    (["lecce-build", FILE], "bell.hilbert"),
    (["decompose", FILE, "--parts", "3"], "o6.lattice"),
    (["evolve", FILE], "two_labs.labworld"),
]
NO_TOP = "[meta]\nkind = lattice\n\n[lattice]\nsize = 3\n\n[order]\n0 1\n0 2\n"
BAD_FILE_ERRORS = {"wrong-kind": "document, got", "unreadable": "cannot read",
                   "no-lattice": "no unique join for element pair (1, 2)"}


@pytest.mark.parametrize("argv,other,problem", [
    pytest.param(argv, other, problem, id=f"{argv[0]}-arg{argv.index(FILE)}-{problem}")
    for argv, other in FILE_ARGUMENTS
    for problem in ("wrong-kind", "unreadable")
    + (("no-lattice",) if argv[0] == "subentity-search" else ())
])
def test_cli_input_error_names_the_file(tmp_path, argv, other, problem):
    path = tmp_path / "probe"
    if problem != "unreadable":
        path.write_text(NO_TOP if problem == "no-lattice" else (FIXTURES / other).read_text())
    code, out, err = cli(*[str(path) if a is FILE else a for a in argv])
    assert code == 2 and out == ""
    assert err.count("\n") == 1 and err.startswith((f"cannot read {path}: ", f"{path}: "))
    assert BAD_FILE_ERRORS[problem] in err


@pytest.mark.parametrize("argv", [
    ["decompose", fx("mixed_w.hilbert"), "--parts", "3", "--seed", "-1"],
    ["decompose", fx("mixed_w.hilbert"), "--parts", "3", "--samples", "-2"],
    ["decompose", fx("mixed_w.hilbert"), "--parts", "3", "--samples", "0"],
    ["subentity-search", fx("part_pure.sps"), fx("whole_bell.sps"), "--budget", "-5"],
    ["evolve", fx("cnot_evolve.hilbert"), "--eps", "nan"],
    ["evolve", fx("cnot_evolve.hilbert"), "--eps", "inf"],
    ["evolve", fx("cnot_evolve.hilbert"), "--eps=-0.5"],
], ids=lambda argv: " ".join(a for a in argv if "/" not in a))
def test_cli_rejects_numeric_option_out_of_range(argv):
    code, out, err = cli(*argv)
    assert code == 2 and out == ""
    assert err.count("error: argument --") == 1 and "Traceback" not in err


def test_cli_out_flag(tmp_path):
    target = tmp_path / "report.json"
    code, out, _ = cli("ptrace", fx("bell.hilbert"), "--format", "machine",
                       "--out", str(target))
    assert code == 0 and out == ""
    assert json.loads(target.read_text())["command"] == "ptrace"


def test_cli_unwritable_out_is_an_input_error(tmp_path):
    target = tmp_path / "missing" / "report.json"
    code, out, err = cli("ptrace", fx("bell.hilbert"), "--out", str(target))
    assert code == 2 and out == ""
    assert err.startswith(f"cannot write {target}: ") and err.count("\n") == 1


@pytest.mark.parametrize("text,argv", [
    (W_GAP, ["ptrace"]),
    (W_GAP, ["decompose", "--parts", "2"]),
    (U_GAP, ["evolve"]),
    (W_EMPTY, ["ptrace"]),
    pytest.param(ASYM_2X3, ["schmidt"], id="schmidt-dims-2x3"),
    pytest.param(ASYM_2X3, ["ptrace"], id="ptrace-dims-2x3"),
    pytest.param(MODEL_4X1, ["subentity-quantum"], id="subentity-quantum-dims-4x1"),
])
def test_cli_rejects_unusable_matrix_as_input_error(tmp_path, text, argv):
    path = tmp_path / "probe.hilbert"
    path.write_text(text)
    code, out, err = cli(argv[0], str(path), *argv[1:])
    assert code == 2 and out == ""
    assert err.count("\n") == 1 and "Traceback" not in err


def test_cli_refuses_eps_where_unused():
    code, out, err = cli("check-axioms", fx("boolean_square.sps"), "--eps", "1e-6")
    assert code == 2 and out == ""
    assert "unrecognized arguments: --eps" in err


def test_cli_eps_env_and_flag(monkeypatch):
    # a huge tolerance makes the purity drop count as "no change"
    monkeypatch.setenv("SUBENTITY_LAB_EPS", "1.0")
    code, out, _ = cli("evolve", fx("cnot_evolve.hilbert"), "--format", "machine")
    assert json.loads(out)["verdicts"][0]["nonunitary_reduction"] is False
    # the flag wins over the environment
    code, out, _ = cli("evolve", fx("cnot_evolve.hilbert"), "--format", "machine",
                       "--eps", "1e-9")
    assert json.loads(out)["verdicts"][0]["nonunitary_reduction"] is True
    monkeypatch.setenv("SUBENTITY_LAB_EPS", "not-a-number")
    code, out, err = cli("evolve", fx("cnot_evolve.hilbert"))
    assert code == 2 and out == ""
    assert "argument --eps: invalid float value: 'not-a-number'" in err
    monkeypatch.setenv("SUBENTITY_LAB_EPS", "nan")
    code, out, err = cli("evolve", fx("cnot_evolve.hilbert"))
    assert code == 2 and out == ""
    assert "argument --eps: must be a finite value >= 0, got 'nan'" in err


def test_cli_builds_the_parser_once_and_reads_eps_every_call(monkeypatch):
    monkeypatch.setenv("COLUMNS", "200")  # keep each help entry on one line
    cli_module._build_parser.cache_clear()
    monkeypatch.setenv("SUBENTITY_LAB_EPS", "1.0")
    code, out, _ = cli("evolve", fx("cnot_evolve.hilbert"), "--format", "machine")
    assert code == 0 and json.loads(out)["verdicts"][0]["nonunitary_reduction"] is False
    assert "(default 1.0, from SUBENTITY_LAB_EPS if set)" in cli("evolve", "--help")[1]
    monkeypatch.setenv("SUBENTITY_LAB_EPS", "not-a-number")
    code, out, err = cli("evolve", fx("cnot_evolve.hilbert"))
    assert code == 2 and out == ""
    assert "argument --eps: invalid float value: 'not-a-number'" in err
    code, out, err = cli("subentity-quantum", fx("bell_completed.model"))
    assert code == 2 and "argument --eps: invalid float value: 'not-a-number'" in err
    assert cli("check-axioms", fx("o6.lattice"))[0] == 1  # takes no --eps
    monkeypatch.delenv("SUBENTITY_LAB_EPS")
    code, out, _ = cli("evolve", fx("cnot_evolve.hilbert"), "--format", "machine")
    assert code == 0 and json.loads(out)["verdicts"][0]["nonunitary_reduction"] is True
    assert "(default 1e-09, from SUBENTITY_LAB_EPS if set)" in cli("evolve", "--help")[1]
    info = cli_module._build_parser.cache_info()
    assert (info.misses, info.hits) == (1, 6)


def test_cli_help_shows_the_user_description_only():
    code, out, _ = cli("--help")
    assert code == 0
    assert "Exit codes: 0 = ran and the primary verdict is positive" in " ".join(out.split())
    assert "built once per process" not in out  # a note for library callers
    assert "built once per process" in cli_module.__doc__


@pytest.mark.filterwarnings("ignore:Support for `\\[tool.setuptools\\]`")  # beta before setuptools 68
def test_pyproject_version_is_the_package_version():
    from setuptools.config.pyprojecttoml import read_configuration

    import subentity_lab

    project = read_configuration(Path(__file__).parents[1] / "pyproject.toml")["project"]
    assert "version" in project["dynamic"]
    assert project["version"] == subentity_lab.__version__


def test_cli_fresh_interpreter_matches_golden():
    # the first-call path: the in-process golden tests reuse a built parser
    src = Path(__file__).parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(src), os.environ.get("PYTHONPATH")])))
    run = subprocess.run(
        [sys.executable, "-m", "subentity_lab.cli", "check-axioms", fx("o6.lattice"),
         "--format", "machine"], capture_output=True, text=True, env=env, timeout=60)
    golden = Path(__file__).parent / "golden" / "check-axioms__o6.lattice.machine"
    assert (run.returncode, run.stderr) == (1, "")  # no finite model passes every axiom
    assert run.stdout == golden.read_text()
