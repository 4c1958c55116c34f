"""Command-line front end.

DESCRIPTION, the text `--help` shows, states the exit codes and the
option rules.  The argument parser is built once per process, on the
first call; SUBENTITY_LAB_EPS is still read on every call.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import math
import os
import sys
from pathlib import Path

import numpy as np

from . import axioms, hilbert, lecce, subentity
from .hilbert import EPS, DensityOperator
from .lattice import LatticeError, build_lattice
from .modelio import (
    ModelIOError,
    Report,
    format_complex,
    input_digest,
    parse_model,
)
from .sps import SPSError, atomic_sps, build_sps, quantum_sps


DESCRIPTION = """\
Finite-model toolkit for state property systems, quantum axiom checking and
the subentity problem.  Exit codes: 0 = ran and the primary verdict is
positive, 1 = ran and the verdict is negative (an axiom failed, no witness
found, ...), 2 = input error, 3 = search budget exhausted.  The two commands
that use a tolerance, subentity-quantum and evolve, take it from --eps,
falling back to the SUBENTITY_LAB_EPS environment variable, then the
built-in default; the other commands refuse --eps.  Numeric options are
checked as they are parsed: a negative --seed or --budget, a --samples below
1, or an --eps that is negative or not finite is a usage error (exit 2).
"""


class _InputError(Exception):
    pass


def _load(path):
    try:
        data = Path(path).read_bytes()
    except OSError as exc:
        raise _InputError(f"cannot read {path}: {exc}")
    try:
        doc = parse_model(data)
    except ModelIOError as exc:
        raise _InputError(f"{path}: {exc}")
    return doc, input_digest(data)


def _want(doc, path, *kinds):
    if doc.kind not in kinds:
        raise _InputError(f"{path}: expected a {' or '.join(kinds)} document, got {doc.kind}")


def _doc_sps(doc, path):
    try:
        lat = build_lattice(doc.body["size"], doc.body["order"])
    except LatticeError as exc:
        raise _InputError(f"{path}: {exc}")
    if doc.kind == "lattice":
        try:
            return atomic_sps(lat)
        except SPSError as exc:
            raise _InputError(f"{path}: {exc}")
    try:
        return build_sps(lat, doc.body["num_states"], doc.body["actuality"])
    except SPSError as exc:
        raise _InputError(f"{path}: {exc}")


def _matrix(doc, path, name):
    M = doc.body["matrices"].get(name)
    if M is None:
        have = ", ".join(sorted(doc.body["matrices"]))
        raise _InputError(f"{path}: needs a matrix named {name} (have: {have})")
    return M


def _dims(doc, path):
    dims = doc.body.get("dims")
    if dims is None:
        raise _InputError(f"{path}: needs a [dims] section with the two factor dimensions")
    return dims


def _at_least(parse, least):
    """An argparse `type`: the value `parse` reads, refused unless finite and >= least."""
    def convert(text):
        try:
            value = parse(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid {parse.__name__} value: {text!r}") from None
        if not (math.isfinite(value) and value >= least):
            raise argparse.ArgumentTypeError(f"must be a finite value >= {least}, got {text!r}")
        return value
    return convert


def _fmt_matrix_lines(M):
    return [" ".join(format_complex(M[i, j]) for j in range(M.shape[1]))
            for i in range(M.shape[0])]


# ---------------------------------------------------------------------------
# subcommands


def _cmd_check_axioms(args):
    doc, digest = _load(args.file)
    _want(doc, args.file, "sps", "lattice")
    S = _doc_sps(doc, args.file)
    verdicts = axioms.run_battery(S)
    rep = Report("check-axioms", digest)
    for v in verdicts:
        rep.verdicts.append({
            "axiom": v.axiom,
            "passed": v.passed,
            "witness": list(v.witness) if isinstance(v.witness, tuple) else v.witness,
            "counterexample": list(v.counterexample)
            if isinstance(v.counterexample, tuple) else v.counterexample,
            "note": v.note,
        })
        status = {True: "pass", False: "FAIL", None: "ambiguous"}[v.passed]
        line = f"  {v.axiom:<20} {status}"
        if v.note:
            line += f"  ({v.note})"
        rep.human_lines.append(line)
    ok = all(v.passed for v in verdicts)
    return rep, 0 if ok else 1


def _cmd_sps_check(args):
    doc, digest = _load(args.file)
    _want(doc, args.file, "sps")
    rep = Report("sps-check", digest)
    try:
        lat = build_lattice(doc.body["size"], doc.body["order"])
        build_sps(lat, doc.body["num_states"], doc.body["actuality"])
    except (LatticeError, SPSError) as exc:
        rep.verdicts.append({"check": "state_property_system", "passed": False,
                             "reason": str(exc)})
        rep.human_lines.append(f"  not a state property system: {exc}")
        return rep, 1
    rep.verdicts.append({"check": "state_property_system", "passed": True, "reason": None})
    rep.human_lines.append("  valid state property system")
    return rep, 0


def _cmd_schmidt(args):
    doc, digest = _load(args.file)
    _want(doc, args.file, "hilbert")
    dA, dB = _dims(doc, args.file)
    psi = _matrix(doc, args.file, "psi").reshape(-1)
    form = hilbert.schmidt(psi, dA, dB)
    rep = Report("schmidt", digest)
    rep.verdicts.append({
        "rank": form.rank,
        "coefficients": [float(c) for c in form.coefficients],
        "entangled": form.rank > 1,
    })
    rep.human_lines.append(f"  rank {form.rank}  coefficients "
                           + " ".join("%.12g" % c for c in form.coefficients))
    rep.human_lines.append("  entangled" if form.rank > 1 else "  product state")
    return rep, 0


def _cmd_ptrace(args):
    doc, digest = _load(args.file)
    _want(doc, args.file, "hilbert")
    dA, dB = _dims(doc, args.file)
    mats = doc.body["matrices"]
    if "W" in mats:
        W = DensityOperator(mats["W"])
    elif "psi" in mats:
        v = mats["psi"].reshape(-1)
        W = DensityOperator(np.outer(v, v.conj()))
    else:
        raise _InputError(f"{args.file}: needs a matrix named W or psi")
    R = hilbert.partial_trace(W, dA, dB, keep=args.keep)
    rep = Report("ptrace", digest)
    rep.verdicts.append({
        "keep": args.keep,
        "dim": R.dim,
        "purity": hilbert.purity(R),
        "matrix": [[format_complex(R.matrix[i, j]) for j in range(R.dim)]
                   for i in range(R.dim)],
    })
    rep.human_lines.append(f"  reduced operator on factor {args.keep} "
                           f"(purity {hilbert.purity(R):.12g}):")
    rep.human_lines.extend("    " + line for line in _fmt_matrix_lines(R.matrix))
    return rep, 0


def _cmd_subentity_search(args):
    part_doc, d1 = _load(args.part)
    whole_doc, d2 = _load(args.whole)
    _want(part_doc, args.part, "sps", "lattice")
    _want(whole_doc, args.whole, "sps", "lattice")
    part = _doc_sps(part_doc, args.part)
    whole = _doc_sps(whole_doc, args.whole)
    rep = Report("subentity-search", d1 + ":" + d2)
    try:
        w = subentity.search_witness(part, whole, budget=args.budget)
    except subentity.BudgetExhausted:
        rep.verdicts.append({"witness": None, "exhausted": True, "budget": args.budget})
        rep.human_lines.append(f"  budget of {args.budget} nodes exhausted before completion")
        return rep, 3
    if w is None:
        rep.verdicts.append({"witness": None, "exhausted": False})
        rep.human_lines.append("  no subentity witness exists (exhaustive search)")
        return rep, 1
    rep.verdicts.append({"witness": {"m": list(w.m), "n": list(w.n)}, "exhausted": False})
    rep.human_lines.append(f"  witness found: m = {list(w.m)}, n = {list(w.n)}")
    return rep, 0


def _cmd_subentity_quantum(args):
    doc, digest = _load(args.file)
    _want(doc, args.file, "hilbert")
    dims = _dims(doc, args.file)
    mats = doc.body["matrices"]
    wholes = [mats[k] for k in sorted(mats) if k.startswith("W")]
    props = [mats[k] for k in sorted(mats) if k.startswith("P")]
    if not wholes:
        raise _InputError(f"{args.file}: needs W* matrices for the compound states")
    try:
        model = subentity.build_completed_model(dims, wholes, props, args.eps)
    except (hilbert.HilbertError, SPSError, subentity.SubentityError) as exc:
        raise _InputError(f"{args.file}: {exc}")
    cov = subentity.canonical_witness_check(model, args.eps)
    ver = subentity.verify_witness(model.part.sps, model.whole.sps, model.witness)
    rep = Report("subentity-quantum", digest)
    rep.verdicts.append({
        "canonical_covariance": cov,
        "witness_verified": ver.ok,
        "witness": {"m": list(model.witness.m), "n": list(model.witness.n)},
        "part_states": len(model.part.state_ops),
        "violation": ver.detail or None,
    })
    rep.human_lines.append(f"  canonical witness m = partial trace, n = tensor-identity")
    rep.human_lines.append(f"  covariance identity: {'holds' if cov else 'VIOLATED'}")
    rep.human_lines.append(f"  witness verification: {'ok' if ver.ok else ver.detail}")
    return rep, 0 if (cov and ver.ok) else 1


def _cmd_lecce_build(args):
    doc, digest = _load(args.file)
    _want(doc, args.file, "labworld")
    w = doc.body["world"]
    rep = Report("lecce-build", digest)
    try:
        build = lecce.build_lecce_sps(w)
    except lecce.WorldInvalid as exc:
        violations = exc.validation.violations
        rep.verdicts.append({"built": False,
                             "violations": [[str(x) for x in v] for v in violations]})
        for v in violations:
            rep.human_lines.append(f"  frequency mismatch: {v}")
        return rep, 1
    rep.verdicts.append({
        "built": build.sps is not None,
        "num_states": len(build.states),
        "num_properties": len(build.properties),
        "lattice_size": build.sps.lattice.size if build.sps else None,
        "report": list(build.report),
    })
    rep.human_lines.append(f"  {len(build.states)} operational states, "
                           f"{len(build.properties)} properties")
    rep.human_lines.extend("  " + line for line in build.report)
    return rep, 0 if build.sps is not None else 1


def _cmd_decompose(args):
    doc, digest = _load(args.file)
    _want(doc, args.file, "hilbert")
    W = DensityOperator(_matrix(doc, args.file, "W"))
    try:
        samples = hilbert.decompositions_sample(W, args.parts, args.samples, args.seed)
    except hilbert.PartsBelowRank as exc:
        raise _InputError(f"{args.file}: {exc}")
    rep = Report("decompose", digest)
    for k, terms in enumerate(samples):
        rep.verdicts.append({
            "sample": k,
            "weights": [q for q, _ in terms],
            "vectors": [[format_complex(z) for z in v] for _, v in terms],
        })
        rep.human_lines.append(f"  sample {k}: weights "
                               + " ".join("%.12g" % q for q, _ in terms))
    return rep, 0


def _cmd_evolve(args):
    doc, digest = _load(args.file)
    _want(doc, args.file, "hilbert")
    dA, dB = _dims(doc, args.file)
    psi = _matrix(doc, args.file, "psi").reshape(-1)
    U = _matrix(doc, args.file, "U")
    before, after = hilbert.reduced_evolution(psi, U, dA, dB)
    rep = Report("evolve", digest)
    rep.verdicts.append({"purity_before": before, "purity_after": after,
                         "nonunitary_reduction": abs(after - before) > args.eps})
    rep.human_lines.append(f"  reduced purity {before:.12g} -> {after:.12g}")
    if abs(after - before) > args.eps:
        rep.human_lines.append("  reduced dynamics is not unitary (purity changed)")
    return rep, 0


# ---------------------------------------------------------------------------


@functools.cache
def _build_parser():
    """The parser and its --eps action; run_cli sets that action's default."""
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("human", "machine"), default="human")
    common.add_argument("--out", default=None, help="write the report to a file")

    # the commands that take this parent share the one action object
    tolerance = argparse.ArgumentParser(add_help=False)
    eps = tolerance.add_argument("--eps", type=_at_least(float, 0), default=EPS,
                                 help="actuality tolerance (default %(default)s, from "
                                      "SUBENTITY_LAB_EPS if set)")

    ap = argparse.ArgumentParser(prog="subentity-lab", description=DESCRIPTION)
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check-axioms", parents=[common],
                       help="run the eight-axiom battery on an sps/lattice document")
    p.add_argument("file")
    p.set_defaults(func=_cmd_check_axioms)

    p = sub.add_parser("sps-check", parents=[common],
                       help="verify the state property conditions")
    p.add_argument("file")
    p.set_defaults(func=_cmd_sps_check)

    p = sub.add_parser("schmidt", parents=[common],
                       help="biorthogonal decomposition of a bipartite vector")
    p.add_argument("file")
    p.set_defaults(func=_cmd_schmidt)

    p = sub.add_parser("ptrace", parents=[common], help="partial trace of a state")
    p.add_argument("file")
    p.add_argument("--keep", choices=("A", "B"), default="A")
    p.set_defaults(func=_cmd_ptrace)

    p = sub.add_parser("subentity-search", parents=[common],
                       help="exhaustive subentity witness search between two systems")
    p.add_argument("part")
    p.add_argument("whole")
    p.add_argument("--budget", type=_at_least(int, 0), default=10_000_000)
    p.set_defaults(func=_cmd_subentity_search)

    p = sub.add_parser("subentity-quantum", parents=[common, tolerance],
                       help="build the completed model and verify the canonical witness")
    p.add_argument("file")
    p.set_defaults(func=_cmd_subentity_quantum)

    p = sub.add_parser("lecce-build", parents=[common],
                       help="build the state property system of a laboratory world")
    p.add_argument("file")
    p.set_defaults(func=_cmd_lecce_build)

    p = sub.add_parser("decompose", parents=[common],
                       help="sample convex pure-state decompositions of a density operator")
    p.add_argument("file")
    p.add_argument("--parts", type=int, required=True)
    p.add_argument("--samples", type=_at_least(int, 1), default=1)
    p.add_argument("--seed", type=_at_least(int, 0), default=0)
    p.set_defaults(func=_cmd_decompose)

    p = sub.add_parser("evolve", parents=[common, tolerance],
                       help="reduced purity before/after a unitary step")
    p.add_argument("file")
    p.set_defaults(func=_cmd_evolve)
    return ap, eps


def run_cli(argv, stdout=None, stderr=None):
    """Run one command; returns the exit code and writes the report to stdout."""
    stdout = stdout if stdout is not None else sys.stdout
    stderr = stderr if stderr is not None else sys.stderr
    ap, eps = _build_parser()
    # a string default (the environment variable) is parsed like the flag,
    # and only for the commands that take --eps
    eps.default = os.environ.get("SUBENTITY_LAB_EPS", EPS)
    try:  # usage errors and --help go to the streams the caller passed
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            args = ap.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        rep, code = args.func(args)
    except _InputError as exc:
        print(str(exc), file=stderr)
        return 2
    text = rep.render(args.format)
    if args.out:
        try:
            Path(args.out).write_text(text)
        except OSError as exc:
            print(f"cannot write {args.out}: {exc}", file=stderr)
            return 2
    else:
        stdout.write(text)
    return code


def main():
    sys.exit(run_cli(sys.argv[1:]))


if __name__ == "__main__":
    main()
