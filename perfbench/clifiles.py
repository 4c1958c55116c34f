"""cli-files: one run_cli call, or one parse/serialize round trip, per case.

Covers `modelio`, `cli` and `lecce`.  Set-up writes seeded model files
of every kind into a scratch directory inside the checkout.  Each of the
nine subcommands then runs in-process in both report formats, with
round trips interleaved: writes beside reads.  Per-call costs are small,
so fixed costs (argparse, rendering, lecce rescans) show here.
"""

from __future__ import annotations

import io
import json
import random
import shutil
import tempfile
from functools import partial
from pathlib import Path

import numpy as np

from subentity_lab import cli, modelio

from battery import verdict_string
from harness import HERE, Case, Workload, expect, load_answers
from lattices import NAMED, relabel
from quantum import make_inputs
from search import pure_and_bell

WORK_ROOT = HERE.parent / ".perfbench-work"
TOL = 1e-7
PREPARERS = ("P0", "P1", "P2", "P3")
# certainly-yes domains of the ideal registers: a lattice with a synthetic bottom
IDEAL_DOMAINS = ((0,), (1,), (2,), (3,), (0, 1), (2, 3), (0, 1, 2, 3))
NOISE = 2  # non-ideal registers with seeded outcomes
WORLDS = {"world-2x32": (2, 8), "world-3x64": (3, 16), "world-4x128": (4, 32)}  # labs, per preparer
# Copies per cycle and format: the largest lab world fills the 12 slowest
# places, so the tail (11th-slowest of 60) measures it.
COPIES = {"lecce-build/world-4x128": 6}


# ---------------------------------------------------------------------------
# document text, written here so the parser under test reads foreign bytes


def _head(kind, name):
    return ["[meta]", f"kind = {kind}", f"name = {name}"]


def lattice_text(name, size, pairs):
    lines = _head("lattice", name) + ["", "[lattice]", f"size = {size}", "", "[order]"]
    return "\n".join(lines + [f"{a} {b}" for a, b in pairs]) + "\n"


def sps_text(name, size, pairs, rows):
    lines = lattice_text(name, size, pairs).replace("kind = lattice", "kind = sps").splitlines()
    lines += ["", "[states]", f"count = {len(rows)}", "", "[actuality]"]
    lines += [" ".join("1" if v else "0" for v in row) for row in rows]
    return "\n".join(lines) + "\n"


def _entry(z):
    return "%.17g%+.17gi" % (z.real, z.imag)


def hilbert_text(name, dims, matrices):
    lines = _head("hilbert", name)
    if dims:
        lines += ["", "[dims]", "%d %d" % dims]
    for key, M in matrices.items():
        M = np.asarray(M).reshape(len(M), -1)
        lines += ["", f"[matrix {key} {M.shape[0]} {M.shape[1]}]"]
        lines += [" ".join(_entry(z) for z in row) for row in M]
    return "\n".join(lines) + "\n"


def labworld_text(name, rng, labs, per_preparer, skew=False):
    """Labs share one roster of (preparer, outcomes) rows, so frequencies agree.

    With skew, the last lab flips one noise outcome and the world fails
    cross-laboratory validation.
    """
    ideal = [f"R{''.join(map(str, dom))}" for dom in IDEAL_DOMAINS]
    noise = [f"N{i}" for i in range(NOISE)]
    roster = []
    for p, prep in enumerate(PREPARERS):
        for _ in range(per_preparer):
            answers = [p in dom for dom in IDEAL_DOMAINS]
            answers += [rng.random() < 0.5 for _ in noise]
            roster.append((prep, answers))
    regs = ideal + noise
    lines = _head("labworld", name) + ["", "[devices]", "prep " + " ".join(PREPARERS),
                                       "reg " + " ".join(regs), "ideal " + " ".join(ideal)]
    for lab in range(labs):
        rows = list(roster)
        rng.shuffle(rows)
        if skew and lab == labs - 1:
            prep, answers = rows[0]
            rows[0] = (prep, answers[:-1] + [not answers[-1]])
        lines += ["", f"[lab L{lab}]"]
        for k, (prep, answers) in enumerate(rows):
            outs = " ".join(f"{r}={'yes' if a else 'no'}" for r, a in zip(regs, answers))
            lines.append(f"o{lab}_{k} {prep} {outs}")
    return "\n".join(lines) + "\n"


def _pure_bell_texts():
    texts = []
    for name, S in zip(("pure", "bell"), pure_and_bell()):
        L = S.lattice
        pairs = [(a, b) for a in range(L.size) for b in range(L.size) if a != b and L.leq[a][b]]
        rows = [[a in S.xi[p] for a in range(L.size)] for p in range(S.num_states)]
        texts.append((name, sps_text(name, L.size, pairs, rows)))
    return texts


def write_files(rng, nrng, work):
    """Every document the cycle reads, written into `work`; returns name -> Path."""
    texts = {}
    for rung in ("B3", "O6", "MO4"):
        texts[rung] = lattice_text(rung, *relabel(NAMED[rung](), rng))
    # the pair with a witness keeps its built labeling, as in witness-search
    for rung in ("B2", "B4"):
        texts[rung] = lattice_text(rung, *NAMED[rung]())
    size, pairs = relabel(NAMED["B3"](), rng)
    leq = {(a, a) for a in range(size)} | set(pairs)
    for _ in range(size):  # transitive closure, enough passes for height 3
        leq |= {(a, c) for a, b in leq for b2, c in leq if b == b2}
    atoms = sorted(x for x in range(size) if sum(1 for a, b in leq if b == x) == 2)
    rows = [[(atom, a) in leq for a in range(size)] for atom in atoms]
    texts["sps-valid"] = sps_text("sps-valid", size, pairs, rows)
    bad = [list(r) for r in rows]
    bad[0] = [False] * size  # top no longer actual: violates the top/bottom condition
    texts["sps-invalid"] = sps_text("sps-invalid", size, pairs, bad)
    texts.update(_pure_bell_texts())

    refs = {}
    inp = make_inputs(nrng, (3, 3), "rank1")
    texts["psi-3x3"] = hilbert_text("psi-3x3", (3, 3), {"psi": inp["psi"], "U": inp["U"]})
    refs["psi-3x3"] = inp
    W = inp["wholes"][3]  # rank 2 on the 9-dimensional space
    texts["W-3x3"] = hilbert_text("W-3x3", (3, 3), {"W": W})
    refs["W-3x3"] = W
    model = make_inputs(nrng, (2, 2), "coatoms")
    mats = {f"W{k}": M for k, M in enumerate(model["wholes"])}
    mats.update({f"P{k}": M for k, M in enumerate(model["props"])})
    texts["model-2x2"] = hilbert_text("model-2x2", (2, 2), mats)

    for name, (labs, per) in WORLDS.items():
        texts[name] = labworld_text(name, rng, labs, per)
    texts["world-skew"] = labworld_text("world-skew", rng, 2, 8, skew=True)

    paths = {}
    for name, text in texts.items():
        path = work / f"{name}.model"
        path.write_text(text)
        paths[name] = path
    return paths, texts, refs


# ---------------------------------------------------------------------------
# checks on machine reports


def _complex(s):
    return complex(s.replace("i", "j")) if s.endswith("i") else complex(s)


def _check_schmidt(v, inp):
    ref = inp["ref_schmidt_sq"]
    got = np.array(v["coefficients"]) ** 2
    expect(np.allclose(got, ref[:len(got)], atol=TOL), "schmidt coefficients disagree with eigvalsh")


def _check_ptrace(v, W):
    R = np.array([[_complex(z) for z in row] for row in v["matrix"]])
    ref = np.einsum("ijkj->ik", W.reshape(3, 3, 3, 3))
    expect(np.allclose(R, ref, atol=TOL), "reduced operator differs from numpy")


def _check_decompose(verdicts, W):
    for v in verdicts:
        vecs = [np.array([_complex(z) for z in vec]) for vec in v["vectors"]]
        rebuilt = sum(q * np.outer(x, x.conj()) for q, x in zip(v["weights"], vecs))
        expect(np.allclose(rebuilt, W, atol=TOL), "decomposition does not rebuild W")


def _check_evolve(v, inp):
    expect(np.allclose((v["purity_before"], v["purity_after"]), inp["ref_purity"], atol=TOL),
           "reduced purities differ from numpy")


def cli_case(argv, code, check, fmt):
    out, err = io.StringIO(), io.StringIO()
    got = cli.run_cli(argv + ["--format", fmt], stdout=out, stderr=err)
    expect(got == code, f"exit {got}, pinned {code}: {err.getvalue().strip()}")
    if code == 2:
        expect(out.getvalue() == "" and err.getvalue(), "input error must go to stderr only")
        return
    text = out.getvalue()
    if fmt == "machine":
        check(json.loads(text)["verdicts"])
    else:
        expect(text.startswith("subentity-lab "), "human report lacks its header")


def round_trip_case(path, text):
    doc = modelio.parse_model(path.read_bytes())
    data = modelio.serialize_model(doc)
    again = modelio.parse_model(data)
    expect(again == doc, "parse(serialize(doc)) != doc")
    expect(modelio.serialize_model(again) == data, "serialization is not a fixpoint")
    if doc.kind in ("lattice", "sps"):
        pairs = {tuple(map(int, line.split())) for line in
                 text.split("[order]\n")[1].split("\n\n")[0].splitlines()}
        expect(doc.body["order"] == sorted(pairs), "order pairs differ from the file")


def commands(paths, refs, answers, battery):
    """(kind, argv, exit code, machine check) for every subcommand case."""
    p = {k: str(v) for k, v in paths.items()}
    world = answers["lecce-build"]

    def lecce_ok(v):
        got = {k: v[0][k] for k in ("built", "num_states", "num_properties", "lattice_size")}
        expect(got == world, f"lecce-build {got}, pinned {world}")

    def axioms_of(rung):
        def check(verdicts):
            got = verdict_string(v["passed"] for v in verdicts)
            expect(got == battery[rung], f"verdicts {got}, pinned {battery[rung]}")
        return check

    def field(key, want):
        def check(verdicts):
            expect(verdicts[0][key] == want, f"{key} = {verdicts[0][key]}, pinned {want}")
        return check

    def quantum_ok(v):
        got = {k: v[0][k] for k in ("canonical_covariance", "witness_verified", "part_states")}
        expect(got == answers["subentity-quantum"], f"{got}, pinned {answers['subentity-quantum']}")

    out = [
        ("check-axioms/B3", ["check-axioms", p["B3"]], 1, axioms_of("B3")),
        ("check-axioms/O6", ["check-axioms", p["O6"]], 1, axioms_of("O6")),
        ("check-axioms/wrong-kind", ["check-axioms", p["W-3x3"]], 2, None),
        ("sps-check/valid", ["sps-check", p["sps-valid"]], 0, field("passed", True)),
        ("sps-check/invalid", ["sps-check", p["sps-invalid"]], 1, field("passed", False)),
        ("schmidt", ["schmidt", p["psi-3x3"]], 0,
         lambda v: _check_schmidt(v[0], refs["psi-3x3"])),
        ("ptrace", ["ptrace", p["W-3x3"]], 0, lambda v: _check_ptrace(v[0], refs["W-3x3"])),
        ("subentity-search/found", ["subentity-search", p["B2"], p["B4"]], 0,
         lambda v: expect(v[0]["witness"] is not None, "no witness for B2 -> B4")),
        ("subentity-search/none", ["subentity-search", p["pure"], p["bell"]], 1,
         field("exhausted", False)),
        ("subentity-search/budget", ["subentity-search", p["B2"], p["MO4"], "--budget", "500"], 3,
         field("exhausted", True)),
        ("subentity-quantum", ["subentity-quantum", p["model-2x2"]], 0, quantum_ok),
        ("decompose", ["decompose", p["W-3x3"], "--parts", "3", "--samples", "2"], 0,
         lambda v: _check_decompose(v, refs["W-3x3"])),
        ("evolve", ["evolve", p["psi-3x3"]], 0, lambda v: _check_evolve(v[0], refs["psi-3x3"])),
        ("lecce-build/skew", ["lecce-build", p["world-skew"]], 1, field("built", False)),
    ]
    for name in WORLDS:
        out.append((f"lecce-build/{name}", ["lecce-build", p[name]], 0, lecce_ok))
    return out


def build(seed):
    rng = random.Random(seed)
    nrng = np.random.default_rng(seed)
    answers = load_answers()
    WORK_ROOT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="cli-", dir=WORK_ROOT))
    paths, texts, refs = write_files(rng, nrng, work)
    cycle = []
    for kind, argv, code, check in commands(paths, refs, answers["cli-files"],
                                            answers["battery-ladder"]):
        for fmt in ("human", "machine"):
            case = Case(f"{kind}/{fmt}", partial(cli_case, argv, code, check, fmt))
            cycle += [case] * COPIES.get(kind, 1)
    trips = [Case(f"round-trip/{name}", partial(round_trip_case, path, texts[name]))
             for name, path in paths.items()]
    rng.shuffle(cycle)
    rng.shuffle(trips)
    # interleave: a round trip after every few commands
    step = max(1, len(cycle) // len(trips))
    mixed = []
    for i, case in enumerate(cycle):
        mixed.append(case)
        if i % step == step - 1 and trips:
            mixed.append(trips.pop())
    mixed += trips
    warmup = [c for c in mixed if c.kind in ("check-axioms/B3/machine", "round-trip/B3")]
    return Workload(mixed, warmup,
                    cleanup=partial(shutil.rmtree, work, True))
