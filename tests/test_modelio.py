import io
import json
import os
import random
from pathlib import Path

import numpy as np
import pytest

from subentity_lab.cli import run_cli
from subentity_lab.modelio import (
    ModelIOError,
    ModelSchemaError,
    ModelSyntaxError,
    Report,
    format_complex,
    input_digest,
    parse_complex,
    parse_machine_report,
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


@pytest.mark.parametrize("devices,reason", [
    ("prep p1 p2\nprep p2\nreg r1 r2", "prep device p2 listed twice"),
    ("prep p1 p2\nreg r1 r2 r1", "reg device r1 listed twice"),
    ("prep p1 p2\nreg r1 r2\nideal r2 r2", "ideal device r2 listed twice"),
])
def test_labworld_rejects_repeated_device_names(devices, reason):
    text = (f"[meta]\nkind = labworld\n\n[devices]\n{devices}\n\n"
            "[lab j]\nx p1 r1=yes r2=no\ny p2 r1=no r2=yes\n")
    with pytest.raises(ModelSchemaError) as exc:
        parse_model(text)
    assert (exc.value.section, exc.value.reason) == ("devices", reason)


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
    back = parse_machine_report(rep.machine())
    assert back.command == rep.command
    assert back.digest == rep.digest
    assert back.verdicts == rep.verdicts


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
