"""Line-oriented model files: parser, canonical serializer, and reports.

One document kind per file ("lattice", "sps", "hilbert", "labworld").
Complex entries are written `a+bi` / `a-bi` with no inner whitespace
(only `parse_complex` takes `a + bi`); bare reals are permitted.  Matrix
names carry roles, checked on parse by the `hilbert` carrier types under
their tolerances.  Canonical serialization sorts sections, formats floats
with 17 significant digits, and is a fixpoint: parse(serialize(doc)) == doc.

The parser works on whole sections, not line by line.  It finds the
headers by searching for '[' and cuts the rows between two headers out
at once.  A lab's rows are checked column by column (object names,
preparers, each distinct outcome text once) and a matrix's entries by
one grammar match; the grammar reads each entry in one way only, so a
match that fails costs about as much as one that succeeds.  A
row-by-row scan runs only when a check fails, to name the first bad
row, so every error is the one a line-by-line parser reports.
"""

from __future__ import annotations

import hashlib
import json
import re
from dataclasses import dataclass, field
from itertools import chain, count, repeat
from operator import itemgetter

import numpy as np

from . import __version__
from .hilbert import (DensityOperator, HilbertError, InvalidOperator, Projection, StateVector,
                      _entries, check_unitary)
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

# each number matches in one way only: with an ambiguous mantissa such as
# \d+\.?\d*, a failed match of a whole matrix would retry every split of
# every earlier entry, exponential in the number of entries
_NUMBER = r"(?:\d+(?:\.\d*)?|\.\d+)(?:[eE][+-]?\d+)?"
_COMPLEX_RE = re.compile(rf"^\s*([+-]?{_NUMBER})(?:\s*([+-])\s*({_NUMBER})\s*i)?\s*$")
# entries joined by single spaces, each one that parse_complex accepts
_ENTRY = rf"[+-]?{_NUMBER}(?:[+-]{_NUMBER}i)?"
_ENTRIES_RE = re.compile(rf"{_ENTRY}(?: {_ENTRY})*")


_COMMENT_RE = re.compile(r"#[^\n]*")


def parse_complex(token):
    m = _COMPLEX_RE.match(token)
    if not m:
        raise ValueError(f"bad complex literal {token!r}")
    re_part = float(m.group(1))
    if m.group(2) is None:
        return complex(re_part, 0.0)
    im = float(m.group(3))
    return complex(re_part, -im if m.group(2) == "-" else im)


def format_complex(z):
    if z.imag == 0.0:
        return "%.17g" % z.real
    sign = "-" if z.imag < 0 or (z.imag == 0 and np.signbit(z.imag)) else "+"
    return "%.17g%s%.17gi" % (z.real, sign, abs(z.imag))


def format_row(row):
    """One matrix row as the model files write it: its entries, space-separated."""
    return " ".join([format_complex(z) for z in row])


def _field_col(line, k):
    """1-based column of the k-th (0-based) whitespace-separated field of line."""
    end = 0
    for tok in line.split()[:k + 1]:
        start = line.find(tok, end)  # only whitespace lies between end and the field
        end = start + len(tok)
    return start + 1


# ---------------------------------------------------------------------------
# parsing


def _rows(chunk, first):
    """(lineno, row) for each line of chunk with text left once its comment
    and trailing whitespace are cut, and the number of lines in chunk.

    The chunk's first line is line `first` of the file.  The lines are cut
    by C-level calls, with no Python step per line.
    """
    if "#" in chunk:
        chunk = _COMMENT_RE.sub("", chunk)
    lines = chunk.split("\n")
    return list(filter(itemgetter(1), zip(count(first), map(str.rstrip, lines)))), len(lines)


def _split_sections(text):
    """Return [(header_tokens, [(lineno, row)])] per section, in file order.

    A row loses its comment and trailing whitespace but keeps its indent,
    so a column found in it counts from the start of the file line.  A
    header is a line whose first non-blank character is '['; the search
    for '[' visits each line at most once, and the rows between two
    headers are cut out together.
    """
    heads = []  # (start, end) offsets of each header line
    i = text.find("[")
    while i != -1:
        start = text.rfind("\n", 0, i) + 1
        end = text.find("\n", i)
        if end == -1:
            end = len(text)
        if not text[start:i].strip():
            heads.append((start, end))
        i = text.find("[", end)
    starts = [start for start, _ in heads] + [len(text)]
    stray, lineno = _rows(text[:starts[0]], 1)
    if stray:
        n, row = stray[0]
        raise ModelSyntaxError(n, len(row) - len(row.lstrip()) + 1,
                               "a section header before content")
    sections = []
    for (start, end), stop in zip(heads, starts[1:]):
        row = text[start:end].partition("#")[0].rstrip()
        line = row.lstrip()
        if not line.endswith("]"):
            raise ModelSyntaxError(lineno, len(row), "closing ']' on section header")
        tokens = line[1:-1].split()
        if not tokens:
            raise ModelSyntaxError(lineno, len(row) - len(line) + 2, "section name")
        rows, n = _rows(text[end + 1:stop], lineno + 1)
        sections.append((tokens, rows))
        lineno += n
    return sections


def _kv_lines(lines, section):
    out = {}
    for lineno, line in lines:
        if "=" not in line:
            raise ModelSyntaxError(lineno, _field_col(line, 0),
                                   f"'key = value' in section [{section}]")
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
            raise ModelSyntaxError(lineno, _field_col(line, 0), "two element indices")
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
            raise ModelSyntaxError(lineno, _field_col(line, 0), "a row of 0/1 flags")
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
        grid = [line.split() for _, line in lines]
        flat = " ".join(chain.from_iterable(grid))
        if any(len(entries) != cols for entries in grid) or not _ENTRIES_RE.fullmatch(flat):
            raise _matrix_row_fault(lines, cols)
        # once the grammar has passed every entry, complex() reads each exactly as
        # parse_complex would: the same correctly rounded parts, with 'i' as 'j'
        values = map(complex, flat.replace("i", "j").split(" "))
        matrices[name] = np.array(list(values), dtype=complex).reshape(rows, cols)
    if not matrices:
        raise ModelSchemaError("matrix", "hilbert document needs at least one matrix")
    for name, M in matrices.items():
        _check_role(name, M, dims)
    doc.body["dims"] = dims
    doc.body["matrices"] = matrices


def _matrix_row_fault(lines, cols):
    """The error of a matrix's first bad row: its entry count, then each entry in order."""
    for lineno, line in lines:
        entries = line.split()
        if len(entries) != cols:
            return ModelSyntaxError(lineno, _field_col(line, 0), f"{cols} complex entries")
        for j, tok in enumerate(entries):
            try:
                parse_complex(tok)
            except ValueError:
                return ModelSyntaxError(lineno, _field_col(line, j), "a complex literal")


def _column_state(M):
    if M.shape[1] != 1:
        raise InvalidOperator("state vector must be a column")
    StateVector(M)


# name prefix -> the `hilbert` check of the role, and whether [dims] puts
# the matrix on factor A (else on the dA*dB space)
_ROLES = {"psi": (_column_state, False), "W": (DensityOperator, False),
          "P": (Projection, True), "U": (check_unitary, False)}


def _check_role(name, M, dims):
    """Names carry roles: W* density, P* projection, U* unitary, psi* unit vector.

    Every matrix must be finite, and each role is checked by the matching
    `hilbert` carrier, so a matrix that parses is accepted by every command
    that reads it; with [dims], each role must have its space's dimension.
    """
    role = next((r for prefix, r in _ROLES.items() if name.startswith(prefix)), None)
    try:
        _entries(M, square=False)
        if role:
            role[0](M)
    except HilbertError as exc:
        raise ModelSchemaError("matrix", f"{name}: {exc}")
    if role and dims:
        want = dims[0] if role[1] else dims[0] * dims[1]
        if M.shape[0] != want:
            raise ModelSchemaError("dims", f"{name} has dimension {M.shape[0]}, "
                                           f"[dims] {dims[0]} {dims[1]} needs {want}")


def _parse_labworld_body(doc, by_name):
    dev = by_name.pop(("devices",), None)
    if dev is None:
        raise ModelSchemaError("devices", "missing [devices] section")
    preps, regs, ideal = [], [], []
    for lineno, line in dev:
        parts = line.split()
        target = {"prep": preps, "reg": regs, "ideal": ideal}.get(parts[0])
        if target is None:
            raise ModelSyntaxError(lineno, _field_col(line, 0),
                                   "'prep', 'reg' or 'ideal' device list")
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
    prep_set = set(preps)
    known = {}  # outcome text -> its validated outcomes tuple, shared by equal rows
    labs = []
    objects = {}
    present = {}  # lab -> the preparers its rows name
    for key in [k for k in by_name if k and k[0] == "lab"]:
        lines = by_name.pop(key)
        if len(key) != 2:
            raise ModelSchemaError(" ".join(key), "header must be [lab NAME]")
        lab = key[1]
        labs.append(lab)
        # the rows are checked column by column, and scanned row by row only to name a fault
        columns = list(zip(*[line.split(None, 2) for _, line in lines])) or [(), (), ()]
        if len(columns) < 3:  # some row has fewer than three fields
            raise _lab_row_fault(lab, lines, tokens, len(regs), prep_set)
        names, used, texts = columns
        present[lab] = set(used)
        if len(set(names)) < len(names) or not present[lab] <= prep_set:
            raise _lab_row_fault(lab, lines, tokens, len(regs), prep_set)
        for text in set(texts).difference(known):
            outcomes = _outcomes(text, tokens, len(regs))
            if not isinstance(outcomes, tuple):
                raise _lab_row_fault(lab, lines, tokens, len(regs), prep_set)
            known[text] = outcomes
        # tuple.__new__ builds each LabObject without the named tuple's Python __new__
        objects[lab] = tuple(map(tuple.__new__, repeat(LabObject),
                                 zip(names, used, map(known.__getitem__, texts))))
    if not labs:
        raise ModelSchemaError("lab", "labworld document needs at least one [lab] section")
    for lab in labs:
        missing = [p for p in preps if p not in present[lab]]
        if missing:
            raise ModelSchemaError(f"lab {lab}", f"preparers {missing} have empty extensions")
    doc.body["world"] = LabWorld(
        labs=tuple(sorted(labs)), preparers=tuple(preps), registerers=tuple(regs),
        ideal=frozenset(ideal), objects=objects)


def _outcomes(text, tokens, width):
    """The outcomes tuple of a row's outcome text, in registerer order, or its fault.

    The fault is "count" (not one token per register), the index of the
    first token that is no REGISTER=yes|no, or "twice" (a register
    answered twice, so another not at all).
    """
    toks = text.split()
    if len(toks) != width:
        return "count"
    outcomes = [None] * width  # registerer order, the order serialize_model writes
    for j, tok in enumerate(toks):
        hit = tokens.get(tok)
        if hit is None:
            return j
        outcomes[hit[0]] = hit[1]
    return "twice" if None in outcomes else tuple(outcomes)


def _lab_row_fault(lab, lines, tokens, width, prep_set):
    """The error of a lab's first bad row, its checks in the order a row meets them.

    The order is field count, object listed twice, unknown preparer, bad
    token, register answered twice.
    """
    seen = set()
    for lineno, line in lines:
        parts = line.split(None, 2)
        # every outcome text answers a register, so "" always has the wrong count
        fault = _outcomes(parts[2] if len(parts) == 3 else "", tokens, width)
        if fault == "count":
            return ModelSyntaxError(lineno, _field_col(line, 0),
                                    f"object, preparer, and {width} outcome assignments")
        obj, prep = parts[0], parts[1]
        if obj in seen:
            return ModelSchemaError(f"lab {lab}", f"object {obj} listed twice")
        seen.add(obj)
        if prep not in prep_set:
            return ModelSchemaError(f"lab {lab}", f"unknown preparer {prep}")
        if fault == "twice":
            return ModelSchemaError(f"lab {lab}", f"object {obj} must answer every register once")
        if not isinstance(fault, tuple):
            return ModelSyntaxError(lineno, _field_col(line, 2 + fault), "REGISTER=yes|no")


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
                [format_row(row) for row in M],
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

