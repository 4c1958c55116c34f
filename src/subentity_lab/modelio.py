"""Line-oriented model files: parser, canonical serializer, and reports.

One document kind per file ("lattice", "sps", "hilbert", "labworld").
Complex entries are written `a+bi` / `a-bi` with optional whitespace;
bare reals are permitted.  Matrix names carry roles, checked on parse by
the `hilbert` carrier types under their tolerances.  Canonical
serialization sorts sections, formats floats with 17 significant digits,
and is a fixpoint: parse(serialize(doc)) == doc.
"""

from __future__ import annotations

import hashlib
import json
import re
from dataclasses import dataclass, field

import numpy as np

from . import __version__
from .hilbert import DensityOperator, HilbertError, Projection, StateVector, check_unitary
from .lecce import LabObject, LabWorld

KINDS = ("lattice", "sps", "hilbert", "labworld")


class ModelIOError(Exception):
    pass


class ModelSyntaxError(ModelIOError):
    def __init__(self, line, col, expected):
        self.line = line
        self.col = col
        self.expected = expected
        super().__init__(f"line {line}, col {col}: expected {expected}")


class ModelSchemaError(ModelIOError):
    def __init__(self, section, reason):
        self.section = section
        self.reason = reason
        super().__init__(f"section [{section}]: {reason}")


@dataclass
class ModelDocument:
    kind: str
    name: str = ""
    description: str = ""
    body: dict = field(default_factory=dict)

    def __eq__(self, other):
        if not isinstance(other, ModelDocument):
            return NotImplemented
        if (self.kind, self.name, self.description) != (other.kind, other.name, other.description):
            return False
        if set(self.body) != set(other.body):
            return False
        for k, v in self.body.items():
            w = other.body[k]
            if isinstance(v, dict) and k == "matrices":
                if set(v) != set(w):
                    return False
                if any(x.shape != w[nm].shape or not np.array_equal(x, w[nm])
                       for nm, x in v.items()):
                    return False
            elif v != w:
                return False
        return True


# ---------------------------------------------------------------------------
# lexing helpers

_COMPLEX_RE = re.compile(
    r"^\s*([+-]?(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)"
    r"(?:\s*([+-])\s*((?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)\s*i)?\s*$"
)


def parse_complex(token):
    m = _COMPLEX_RE.match(token)
    if not m:
        raise ValueError(f"bad complex literal {token!r}")
    re_part = float(m.group(1))
    if m.group(2) is None:
        return complex(re_part, 0.0)
    im = float(m.group(3))
    return complex(re_part, -im if m.group(2) == "-" else im)


def _fmt_real(x):
    s = "%.17g" % x
    return s


def format_complex(z):
    if z.imag == 0.0:
        return _fmt_real(z.real)
    sign = "-" if z.imag < 0 or (z.imag == 0 and np.signbit(z.imag)) else "+"
    return f"{_fmt_real(z.real)}{sign}{_fmt_real(abs(z.imag))}i"


def _strip(line):
    cut = line.find("#")
    if cut >= 0:
        line = line[:cut]
    return line.strip()


def _field_col(line, k):
    """1-based column of the k-th (0-based) whitespace-separated field of line."""
    end = 0
    for tok in line.split()[:k + 1]:
        start = line.find(tok, end)  # only whitespace lies between end and the field
        end = start + len(tok)
    return start + 1


# ---------------------------------------------------------------------------
# parsing


def _split_sections(text):
    """Yield (header_tokens, [(lineno, content)]) per section, in file order."""
    sections = []
    current = None
    for lineno, raw in enumerate(text.split("\n"), start=1):
        line = _strip(raw)
        if not line:
            continue
        if line.startswith("["):
            if not line.endswith("]"):
                raise ModelSyntaxError(lineno, len(line), "closing ']' on section header")
            tokens = line[1:-1].split()
            if not tokens:
                raise ModelSyntaxError(lineno, 2, "section name")
            current = (tokens, [])
            sections.append(current)
        else:
            if current is None:
                raise ModelSyntaxError(lineno, 1, "a section header before content")
            current[1].append((lineno, line))
    return sections


def _kv_lines(lines, section):
    out = {}
    for lineno, line in lines:
        if "=" not in line:
            raise ModelSyntaxError(lineno, 1, f"'key = value' in section [{section}]")
        key, _, val = line.partition("=")
        out[key.strip()] = val.strip()
    return out


def parse_model(data):
    """Parse a model document from bytes or text.

    Raises ModelSyntaxError with position on malformed input and
    ModelSchemaError when a well-formed document violates its kind's
    schema (missing sections, inconsistent dimensions, a matrix failing
    the invariants its name declares).
    """
    if isinstance(data, bytes):
        try:
            text = data.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ModelSyntaxError(1, 1, "UTF-8 text") from exc
    else:
        text = data
    sections = _split_sections(text)
    by_name = {}
    for tokens, lines in sections:
        key = tuple(tokens)
        if key in by_name:
            raise ModelSchemaError(" ".join(tokens), "duplicate section")
        by_name[key] = lines

    meta = _kv_lines(by_name.pop(("meta",), []), "meta")
    kind = meta.get("kind", "")
    if kind not in KINDS:
        raise ModelSchemaError("meta", f"kind must be one of {KINDS}, got {kind!r}")
    doc = ModelDocument(kind=kind, name=meta.get("name", ""),
                        description=meta.get("description", ""))

    if kind in ("lattice", "sps"):
        _parse_lattice_body(doc, by_name)
    if kind == "sps":
        _parse_sps_body(doc, by_name)
    if kind == "hilbert":
        _parse_hilbert_body(doc, by_name)
    if kind == "labworld":
        _parse_labworld_body(doc, by_name)
    leftovers = [" ".join(k) for k in by_name]
    if leftovers:
        raise ModelSchemaError(leftovers[0], f"unexpected section for kind {kind}")
    return doc


def _parse_lattice_body(doc, by_name):
    if ("lattice",) not in by_name:
        raise ModelSchemaError("lattice", "missing [lattice] section")
    kv = _kv_lines(by_name.pop(("lattice",)), "lattice")
    try:
        size = int(kv["size"])
    except (KeyError, ValueError):
        raise ModelSchemaError("lattice", "size must be a positive integer")
    if size < 1:
        raise ModelSchemaError("lattice", "size must be a positive integer")
    order = []
    for lineno, line in by_name.pop(("order",), []):
        parts = line.split()
        if len(parts) != 2 or not all(p.isdigit() for p in parts):
            raise ModelSyntaxError(lineno, 1, "two element indices")
        a, b = int(parts[0]), int(parts[1])
        if not (0 <= a < size and 0 <= b < size):
            raise ModelSchemaError("order", f"pair ({a},{b}) out of range for size {size}")
        order.append((a, b))
    doc.body["size"] = size
    doc.body["order"] = sorted(set(order))  # canonical: deduped, sorted


def _parse_sps_body(doc, by_name):
    kv = _kv_lines(by_name.pop(("states",), []), "states")
    try:
        count = int(kv["count"])
    except (KeyError, ValueError):
        raise ModelSchemaError("states", "count must be an integer")
    rows = []
    for lineno, line in by_name.pop(("actuality",), []):
        parts = line.split()
        if not all(p in ("0", "1") for p in parts):
            raise ModelSyntaxError(lineno, 1, "a row of 0/1 flags")
        rows.append([p == "1" for p in parts])
    if len(rows) != count:
        raise ModelSchemaError("actuality", f"expected {count} rows, got {len(rows)}")
    if any(len(r) != doc.body["size"] for r in rows):
        raise ModelSchemaError("actuality", "row width must equal the lattice size")
    doc.body["num_states"] = count
    doc.body["actuality"] = rows


def _parse_hilbert_body(doc, by_name):
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
                raise ModelSyntaxError(lineno, 1, f"{cols} complex entries")
            for j, tok in enumerate(entries):
                try:
                    M[i, j] = parse_complex(tok)
                except ValueError:
                    raise ModelSyntaxError(lineno, 1 + line.find(tok), "a complex literal")
        matrices[name] = M
    if not matrices:
        raise ModelSchemaError("matrix", "hilbert document needs at least one matrix")
    for name, M in matrices.items():
        _validate_matrix_role(name, M)
        if dims is not None:
            _check_dims(name, M, dims)
    doc.body["dims"] = dims
    doc.body["matrices"] = matrices


def _validate_matrix_role(name, M):
    """Names carry roles: W* density, P* projection, U* unitary, psi* unit vector.

    Each role is checked by the matching `hilbert` carrier, so a matrix
    that parses is accepted by every command that reads it.
    """
    if not np.all(np.isfinite(M.real)) or not np.all(np.isfinite(M.imag)):
        raise ModelSchemaError("matrix", f"{name}: entries must be finite")
    if name.startswith("psi") and M.shape[1] != 1:
        raise ModelSchemaError("matrix", f"{name}: state vector must be a column")
    if name[0] in ("W", "P", "U") and M.shape[0] != M.shape[1]:
        raise ModelSchemaError("matrix", f"{name}: operator must be square")
    try:
        if name.startswith("psi"):
            StateVector(M)
        elif name.startswith("W"):
            DensityOperator(M)
        elif name.startswith("P"):
            Projection(M)
        elif name.startswith("U"):
            check_unitary(M)
    except HilbertError as exc:
        raise ModelSchemaError("matrix", f"{name}: {exc}")


def _check_dims(name, M, dims):
    """With [dims] dA dB, psi*, W* and U* live on the dA*dB space, P* on factor A."""
    dA, dB = dims
    if name.startswith(("psi", "W", "U")):
        want = dA * dB
    elif name.startswith("P"):
        want = dA
    else:
        return
    if M.shape[0] != want:
        raise ModelSchemaError("dims", f"{name} has dimension {M.shape[0]}, "
                                       f"[dims] {dA} {dB} needs {want}")


def _parse_labworld_body(doc, by_name):
    dev = by_name.pop(("devices",), None)
    if dev is None:
        raise ModelSchemaError("devices", "missing [devices] section")
    preps, regs, ideal = [], [], []
    for lineno, line in dev:
        parts = line.split()
        target = {"prep": preps, "reg": regs, "ideal": ideal}.get(parts[0])
        if target is None:
            raise ModelSyntaxError(lineno, 1, "'prep', 'reg' or 'ideal' device list")
        target.extend(parts[1:])
    if not preps or not regs:
        raise ModelSchemaError("devices", "need at least one preparing and one registering device")
    for kind, names in (("prep", preps), ("reg", regs), ("ideal", ideal)):
        if len(set(names)) != len(names):
            dup = next(x for i, x in enumerate(names) if x in names[:i])
            raise ModelSchemaError("devices", f"{kind} device {dup} listed twice")
    for r in regs:
        if "=" in r:  # no REGISTER=yes|no token could name it
            raise ModelSchemaError("devices", f"reg device {r} contains '='")
    unknown_ideal = [r for r in ideal if r not in regs]
    if unknown_ideal:
        raise ModelSchemaError("devices", f"ideal flags for unknown devices {unknown_ideal}")
    # each valid outcome token, looked up once: token -> (register index, outcome pair)
    tokens = {}
    for i, r in enumerate(regs):
        tokens[r + "=yes"] = (i, (r, True))
        tokens[r + "=no"] = (i, (r, False))
    known = {}  # outcome text -> its validated outcomes tuple, shared by equal rows
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
            parts = line.split(None, 2)
            # every known text answers a register, so "" always takes the field-count check
            text = parts[2] if len(parts) == 3 else ""
            outcomes = known.get(text)
            if outcomes is None:
                toks = text.split()
                if len(toks) != len(regs):
                    raise ModelSyntaxError(
                        lineno, 1, f"object, preparer, and {len(regs)} outcome assignments")
            obj, prep = parts[0], parts[1]
            if obj in seen:
                raise ModelSchemaError(f"lab {lab}", f"object {obj} listed twice")
            seen.add(obj)
            if prep not in preps:
                raise ModelSchemaError(f"lab {lab}", f"unknown preparer {prep}")
            if outcomes is None:
                outcomes = [None] * len(regs)  # registerer order, the order serialize_model writes
                for j, tok in enumerate(toks):
                    hit = tokens.get(tok)
                    if hit is None:
                        raise ModelSyntaxError(lineno, _field_col(line, 2 + j), "REGISTER=yes|no")
                    outcomes[hit[0]] = hit[1]
                if None in outcomes:  # as many tokens as registers, so one was answered twice
                    raise ModelSchemaError(f"lab {lab}",
                                           f"object {obj} must answer every register once")
                outcomes = known[text] = tuple(outcomes)
            rows.append(LabObject(name=obj, preparer=prep, outcomes=outcomes))
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


# ---------------------------------------------------------------------------
# serialization


def serialize_model(doc):
    """Canonical bytes: [meta] first, remaining sections sorted, fixed floats."""
    out = ["[meta]"]
    meta = {"kind": doc.kind}
    if doc.name:
        meta["name"] = doc.name
    if doc.description:
        meta["description"] = doc.description
    for k in sorted(meta):
        out.append(f"{k} = {meta[k]}")
    chunks = []
    if doc.kind in ("lattice", "sps"):
        chunks.append(("lattice", ["size = %d" % doc.body["size"]]))
        chunks.append(("order", ["%d %d" % p for p in sorted(doc.body["order"])]))
    if doc.kind == "sps":
        chunks.append(("states", ["count = %d" % doc.body["num_states"]]))
        chunks.append(("actuality",
                       [" ".join("1" if v else "0" for v in row)
                        for row in doc.body["actuality"]]))
    if doc.kind == "hilbert":
        if doc.body.get("dims"):
            chunks.append(("dims", ["%d %d" % doc.body["dims"]]))
        for name in sorted(doc.body["matrices"]):
            M = doc.body["matrices"][name]
            chunks.append((
                "matrix %s %d %d" % (name, M.shape[0], M.shape[1]),
                [" ".join(format_complex(M[i, j]) for j in range(M.shape[1]))
                 for i in range(M.shape[0])],
            ))
    if doc.kind == "labworld":
        w = doc.body["world"]
        chunks.append(("devices",
                       ["prep " + " ".join(w.preparers),
                        "reg " + " ".join(w.registerers)]
                       + (["ideal " + " ".join(sorted(w.ideal))] if w.ideal else [])))
        yes = {r: r + "=yes" for r in w.registerers}
        no = {r: r + "=no" for r in w.registerers}
        texts = {}  # id of an outcomes tuple -> its text; parsed rows share tuples
        for lab in w.labs:
            rows = []
            for o in w.objects[lab]:
                text = texts.get(id(o.outcomes))
                if text is None:
                    answers = dict(o.outcomes)
                    text = texts[id(o.outcomes)] = " ".join(
                        [yes[r] if answers[r] else no[r] for r in w.registerers])
                rows.append(f"{o.name} {o.preparer} {text}")
            chunks.append(("lab %s" % lab, rows))
    # sections in canonical sorted order; actuality rows and lab rows keep
    # their semantic order, everything else is already sorted above
    for header, lines in sorted(chunks, key=lambda c: c[0]):
        out.append("")
        out.append("[%s]" % header)
        out.extend(lines)
    return ("\n".join(out) + "\n").encode("utf-8")


def input_digest(data):
    if isinstance(data, str):
        data = data.encode("utf-8")
    return hashlib.sha256(data).hexdigest()


# ---------------------------------------------------------------------------
# reports


@dataclass
class Report:
    command: str
    digest: str
    verdicts: list = field(default_factory=list)  # list of dicts, machine-stable
    human_lines: list = field(default_factory=list)

    def machine(self):
        block = {
            "command": self.command,
            "input_digest": self.digest,
            "tool_version": __version__,
            "verdicts": self.verdicts,
        }
        return json.dumps(block, sort_keys=True, indent=2) + "\n"

    def human(self):
        head = [f"subentity-lab {__version__} :: {self.command}",
                f"input sha256 {self.digest[:16]}"]
        return "\n".join(head + list(self.human_lines)) + "\n"

    def render(self, fmt):
        return self.machine() if fmt == "machine" else self.human()


def parse_machine_report(text):
    """Inverse of Report.machine for round-trip checks."""
    block = json.loads(text)
    return Report(command=block["command"], digest=block["input_digest"],
                  verdicts=block["verdicts"])
