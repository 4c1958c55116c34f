"""Command-line front end.

Every subcommand takes one path.  `_build_parser` declares each one once:
its help text, its handler, and the document kinds each file argument
accepts.  `run_cli` reads, parses, kind-checks and digests every file
argument (`_load`), starts the report, and calls the handler with it and
the documents; the handler fills the report and returns the exit code.
An input error at any step is one stderr line and exit 2.

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
from .hilbert import EPS
from .lattice import LatticeError, build_lattice
from .modelio import (
    ModelIOError,
    Report,
    format_complex,
    format_row,
    input_digest,
    parse_model,
)
from .sps import SPSError, atomic_sps, build_sps


DESCRIPTION = """\
Finite-model toolkit for state property systems, quantum axiom checking and
the subentity problem.  Exit codes: 0 = ran and the primary verdict is
positive, 1 = ran and the verdict is negative (an axiom failed, no witness
found, ...), 2 = input error, 3 = search budget exhausted.  The two commands
that use a tolerance, subentity-quantum and evolve, take it from --eps,
falling back to the SUBENTITY_LAB_EPS environment variable, then the
built-in default; the other commands refuse --eps.  In subentity-quantum
eps is the actuality tolerance; in evolve it is the largest change of the
reduced purity still reported as unitary.  Numeric options are
checked as they are parsed: a negative --seed or --budget, a --samples below
1, or an --eps that is negative or not finite is a usage error (exit 2).
"""


class _InputError(Exception):
    pass


def _load(path, kinds):
    """Read, parse, kind-check and digest one file argument; returns (doc, digest)."""
    try:
        data = Path(path).read_bytes()
    except OSError as exc:
        raise _InputError(f"cannot read {path}: {exc}")
    try:
        doc = parse_model(data)
    except ModelIOError as exc:
        raise _InputError(f"{path}: {exc}")
    if doc.kind not in kinds:
        raise _InputError(f"{path}: expected a {' or '.join(kinds)} document, got {doc.kind}")
    return doc, input_digest(data)


def _doc_sps(doc, path):
    """The system of an sps document, or the atomic system of a lattice document."""
    try:
        lat = build_lattice(doc.body["size"], doc.body["order"])
        if doc.kind == "lattice":
            return atomic_sps(lat)
        return build_sps(lat, doc.body["num_states"], doc.body["actuality"])
    except (LatticeError, SPSError) as exc:
        raise _InputError(f"{path}: {exc}") from exc


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


# ---------------------------------------------------------------------------
# subcommands: each fills the report it is given and returns the exit code


def _cmd_check_axioms(args, rep, doc):
    verdicts = axioms.run_battery(_doc_sps(doc, args.file))
    for v in verdicts:
        rep.verdicts.append({
            "axiom": v.axiom,
            "passed": v.passed,
            "witness": v.witness,  # json writes a tuple as an array
            "counterexample": v.counterexample,
            "note": v.note,
        })
        status = {True: "pass", False: "FAIL", None: "ambiguous"}[v.passed]
        line = f"  {v.axiom:<20} {status}"
        if v.note:
            line += f"  ({v.note})"
        rep.human_lines.append(line)
    ok = all(v.passed for v in verdicts)
    return 0 if ok else 1


def _cmd_sps_check(args, rep, doc):
    try:
        _doc_sps(doc, args.file)
    except _InputError as exc:  # here a failed check is the verdict, not an input error
        rep.verdicts.append({"check": "state_property_system", "passed": False,
                             "reason": str(exc.__cause__)})
        rep.human_lines.append(f"  not a state property system: {exc.__cause__}")
        return 1
    rep.verdicts.append({"check": "state_property_system", "passed": True, "reason": None})
    rep.human_lines.append("  valid state property system")
    return 0


def _cmd_schmidt(args, rep, doc):
    dA, dB = _dims(doc, args.file)
    psi = _matrix(doc, args.file, "psi").reshape(-1)
    form = hilbert.schmidt(psi, dA, dB)
    rep.verdicts.append({
        "rank": form.rank,
        "coefficients": [float(c) for c in form.coefficients],
        "entangled": form.rank > 1,
    })
    rep.human_lines.append(f"  rank {form.rank}  coefficients "
                           + " ".join("%.12g" % c for c in form.coefficients))
    rep.human_lines.append("  entangled" if form.rank > 1 else "  product state")
    return 0


def _cmd_ptrace(args, rep, doc):
    dA, dB = _dims(doc, args.file)
    mats = doc.body["matrices"]
    if "W" in mats:
        W = mats["W"]
    elif "psi" in mats:
        v = mats["psi"].reshape(-1)
        W = np.outer(v, v.conj())
    else:
        raise _InputError(f"{args.file}: needs a matrix named W or psi")
    R = hilbert.partial_trace(W, dA, dB, keep=args.keep)
    purity = hilbert.purity(R)
    rep.verdicts.append({
        "keep": args.keep,
        "dim": R.dim,
        "purity": purity,
        "matrix": [[format_complex(z) for z in row] for row in R.matrix],
    })
    rep.human_lines.append(f"  reduced operator on factor {args.keep} "
                           f"(purity {purity:.12g}):")
    rep.human_lines.extend("    " + format_row(row) for row in R.matrix)
    return 0


def _cmd_subentity_search(args, rep, part_doc, whole_doc):
    part = _doc_sps(part_doc, args.part)
    whole = _doc_sps(whole_doc, args.whole)
    try:
        w = subentity.search_witness(part, whole, budget=args.budget)
    except subentity.BudgetExhausted:
        rep.verdicts.append({"witness": None, "exhausted": True, "budget": args.budget})
        rep.human_lines.append(f"  budget of {args.budget} nodes exhausted before completion")
        return 3
    if w is None:
        rep.verdicts.append({"witness": None, "exhausted": False})
        rep.human_lines.append("  no subentity witness exists (exhaustive search)")
        return 1
    rep.verdicts.append({"witness": {"m": list(w.m), "n": list(w.n)}, "exhausted": False})
    rep.human_lines.append(f"  witness found: m = {list(w.m)}, n = {list(w.n)}")
    return 0


def _cmd_subentity_quantum(args, rep, doc):
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
    cov = subentity.canonical_witness_check(model)
    ver = subentity.verify_witness(model.part.sps, model.whole.sps, model.witness)
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
    return 0 if (cov and ver.ok) else 1


def _cmd_lecce_build(args, rep, doc):
    try:
        build = lecce.build_lecce_sps(doc.body["world"])
    except lecce.WorldInvalid as exc:
        violations = exc.validation.violations
        rep.verdicts.append({"built": False,
                             "violations": [[str(x) for x in v] for v in violations]})
        for v in violations:
            rep.human_lines.append(f"  frequency mismatch: {v}")
        return 1
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
    return 0 if build.sps is not None else 1


def _cmd_decompose(args, rep, doc):
    W = _matrix(doc, args.file, "W")
    try:
        samples = hilbert.decompositions_sample(W, args.parts, args.samples, args.seed)
    except hilbert.PartsBelowRank as exc:
        raise _InputError(f"{args.file}: {exc}")
    for k, terms in enumerate(samples):
        rep.verdicts.append({
            "sample": k,
            "weights": [q for q, _ in terms],
            "vectors": [[format_complex(z) for z in v] for _, v in terms],
        })
        rep.human_lines.append(f"  sample {k}: weights "
                               + " ".join("%.12g" % q for q, _ in terms))
    return 0


def _cmd_evolve(args, rep, doc):
    dA, dB = _dims(doc, args.file)
    psi = _matrix(doc, args.file, "psi").reshape(-1)
    U = _matrix(doc, args.file, "U")
    before, after = hilbert.reduced_evolution(psi, U, dA, dB)
    rep.verdicts.append({"purity_before": before, "purity_after": after,
                         "nonunitary_reduction": abs(after - before) > args.eps})
    rep.human_lines.append(f"  reduced purity {before:.12g} -> {after:.12g}")
    if abs(after - before) > args.eps:
        rep.human_lines.append("  reduced dynamics is not unitary (purity changed)")
    return 0


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
                                 help="subentity-quantum: actuality tolerance; evolve: "
                                      "largest purity change reported as unitary (default "
                                      "%(default)s, from SUBENTITY_LAB_EPS if set)")

    ap = argparse.ArgumentParser(prog="subentity-lab", description=DESCRIPTION)
    sub = ap.add_subparsers(dest="command", required=True)

    def command(name, handler, help, files, parents=(common,)):
        """Declare a subcommand: its file arguments, in order, with the kinds each accepts."""
        p = sub.add_parser(name, parents=list(parents), help=help)
        for arg in files:
            p.add_argument(arg)
        p.set_defaults(handler=handler, files=files)
        return p

    system = ("sps", "lattice")
    command("check-axioms", _cmd_check_axioms,
            "run the eight-axiom battery on an sps/lattice document", {"file": system})
    command("sps-check", _cmd_sps_check,
            "verify the state property conditions", {"file": ("sps",)})
    command("schmidt", _cmd_schmidt,
            "biorthogonal decomposition of a bipartite vector", {"file": ("hilbert",)})
    p = command("ptrace", _cmd_ptrace, "partial trace of a state", {"file": ("hilbert",)})
    p.add_argument("--keep", choices=("A", "B"), default="A")
    p = command("subentity-search", _cmd_subentity_search,
                "exhaustive subentity witness search between two systems",
                {"part": system, "whole": system})
    p.add_argument("--budget", type=_at_least(int, 0), default=subentity.DEFAULT_BUDGET,
                   help="the most property injections to try before stopping "
                        "with exit 3 (default %(default)s)")
    command("subentity-quantum", _cmd_subentity_quantum,
            "build the completed model and verify the canonical witness",
            {"file": ("hilbert",)}, parents=(common, tolerance))
    command("lecce-build", _cmd_lecce_build,
            "build the state property system of a laboratory world", {"file": ("labworld",)})
    p = command("decompose", _cmd_decompose,
                "sample convex pure-state decompositions of a density operator",
                {"file": ("hilbert",)})
    p.add_argument("--parts", type=int, required=True)
    p.add_argument("--samples", type=_at_least(int, 1), default=1)
    p.add_argument("--seed", type=_at_least(int, 0), default=0)
    command("evolve", _cmd_evolve, "reduced purity before/after a unitary step",
            {"file": ("hilbert",)}, parents=(common, tolerance))
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
        docs, digests = [], []
        for arg, kinds in args.files.items():
            doc, digest = _load(getattr(args, arg), kinds)
            docs.append(doc)
            digests.append(digest)
        rep = Report(args.command, ":".join(digests))
        code = args.handler(args, rep, *docs)
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
