"""Traced run: wrappers around each layer's public functions.

The benchmark's own code replaces every listed function, in the module
that defines it and in every module that imported the name, with a
wrapper that records a span (name, start, end, parent span, case id).
Spans stay in memory and are written out when the run ends.  Functions
called in inner loops (lattice.meet, lattice.interval, hilbert.born)
get count-only wrappers to keep the overhead small.  A layer's self time
is its spans' duration minus the time their child spans cover.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter, defaultdict

import subentity_lab.cli  # noqa: F401  (loads every layer module install() patches)

# layer -> (function or Class.method, outputs); "calls" and "busy_s" are
# recorded for every timed function, the other outputs by _extra below.
TIMED = {
    "lattice": (
        ("build_lattice", ("calls", "busy_s", "elements")),
        ("automorphisms", ("calls", "busy_s", "maps")),
    ),
    "sps": (
        ("build_sps", ("calls", "busy_s")),
        ("atomic_sps", ("busy_s",)),
        ("close_projections", ("calls", "busy_s", "projections_out")),
        ("quantum_sps", ("busy_s",)),
    ),
    "axioms": (
        ("run_battery", ("busy_s",)),
        ("orthocomplementations", ("calls", "busy_s", "found")),
        *((f"check_{a}", ("busy_s",)) for a in (
            "state_determination", "atomicity", "orthocomplementation", "covering_law",
            "weak_modularity", "plane_transitivity", "irreducibility", "infinite_length")),
    ),
    "hilbert": (
        ("jacobi_eigh", ("calls", "busy_s")),
        ("DensityOperator.__post_init__", ("calls", "busy_s")),
        ("Projection.__post_init__", ("calls", "busy_s")),
        ("meet_projection", ("calls", "busy_s")),
        ("eigendecomposition", ("busy_s",)),
        ("partial_trace", ("busy_s",)),
        ("schmidt", ("busy_s",)),
        ("decompositions_sample", ("busy_s",)),
        ("reduced_evolution", ("busy_s",)),
    ),
    "subentity": (
        ("search_witness", ("calls", "busy_s", "found", "none", "exhausted")),
        ("build_completed_model", ("busy_s",)),
        ("verify_witness", ("busy_s",)),
        ("canonical_witness_check", ("busy_s",)),
    ),
    "lecce": (
        ("validate_world", ("calls", "busy_s")),
        ("partition_states", ("busy_s",)),
        ("partition_effects", ("busy_s",)),
        ("build_lecce_sps", ("busy_s",)),
    ),
    "modelio": (
        ("parse_model", ("calls", "busy_s", "bytes")),
        ("serialize_model", ("calls", "busy_s", "bytes")),
        ("Report.render", ("busy_s",)),
    ),
    "cli": (
        ("run_cli", ("calls", "busy_s")),
    ),
}
COUNTED = {"lattice": ("interval", "meet"), "hilbert": ("born",)}


def _display(qualname):
    return qualname.replace(".__post_init__", "")


def _extra(name, args, result, exc):
    """Work counts recorded at the boundary: (counter suffix, amount) pairs."""
    if name == "build_lattice" and exc is None:
        return (("elements", result.size),)
    if name in ("automorphisms", "orthocomplementations", "close_projections") and exc is None:
        key = {"automorphisms": "maps", "orthocomplementations": "found",
               "close_projections": "projections_out"}[name]
        return ((key, len(result)),)
    if name == "search_witness":
        if exc is not None:
            return (("exhausted", 1),) if type(exc).__name__ == "BudgetExhausted" else ()
        return (("none" if result is None else "found", 1),)
    if name == "parse_model" and exc is None:
        data = args[0]
        return (("bytes", len(data if isinstance(data, bytes) else data.encode())),)
    if name == "serialize_model" and exc is None:
        return (("bytes", len(result)),)
    if name == "run_cli" and exc is None:
        return ((f"exit_code.{result}", 1),)
    return ()


class Tracer:
    """Installs the wrappers, records spans and counts, and undoes both."""

    def __init__(self):
        self.spans = []  # (name, start, end, parent index or -1, case id)
        self.stack = []
        self.counts = Counter()
        self.case = None
        self._undo = []

    def _timed(self, key, fn):
        spans, stack, counts = self.spans, self.stack, self.counts
        bare = key.split(".")[-1]
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            result = exc = None
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as e:  # recorded, then re-raised unchanged
                exc = e
                raise
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[idx] = (key, start, end, parent, tracer.case)
                for suffix, amount in _extra(bare, args, result, exc):
                    counts[f"{key}.{suffix}"] += amount

        return wrapper

    def _counted(self, key, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _patch_everywhere(self, original, replacement):
        """Rebind every module-level name in the package that holds `original`."""
        for modname, module in list(sys.modules.items()):
            if modname != "subentity_lab" and not modname.startswith("subentity_lab."):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, replacement)
                    self._undo.append((module, attr, original))

    def install(self):
        for layer, entries in TIMED.items():
            module = sys.modules[f"subentity_lab.{layer}"]
            for qualname, _ in entries:
                key = f"{layer}.{_display(qualname)}"
                if "." in qualname:
                    cls_name, method = qualname.split(".")
                    cls = getattr(module, cls_name)
                    original = cls.__dict__[method]
                    setattr(cls, method, self._timed(key, original))
                    self._undo.append((cls, method, original))
                else:
                    original = getattr(module, qualname)
                    self._patch_everywhere(original, self._timed(key, original))
        for layer, names in COUNTED.items():
            module = sys.modules[f"subentity_lab.{layer}"]
            for name in names:
                original = getattr(module, name)
                self._patch_everywhere(original, self._counted(f"{layer}.{name}.calls", original))

    def uninstall(self):
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    def layer_metrics(self, timeouts):
        """Every per-layer metric by name: (value, unit)."""
        calls = Counter()
        busy = defaultdict(float)
        child = defaultdict(float)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        for idx, (name, start, end, parent, _) in enumerate(self.spans):
            calls[name] += 1
            busy[name] += (end - start) - child[idx]
        out = {}
        for layer, entries in TIMED.items():
            for qualname, outputs in entries:
                key = f"{layer}.{_display(qualname)}"
                for o in outputs:
                    if o == "calls":
                        out[f"{key}.calls"] = (calls[key], "count")
                    elif o == "busy_s":
                        out[f"{key}.busy_s"] = (busy[key], "s")
                    else:
                        out[f"{key}.{o}"] = (self.counts[f"{key}.{o}"],
                                             "bytes" if o == "bytes" else "count")
        for layer, names in COUNTED.items():
            for name in names:
                out[f"{layer}.{name}.calls"] = (self.counts[f"{layer}.{name}.calls"], "count")
        out["axioms.timeouts"] = (timeouts, "count")
        for code in range(4):
            out[f"cli.exit_code.{code}"] = (self.counts[f"cli.run_cli.exit_code.{code}"], "count")
        return out

    def write(self, path):
        with open(path, "w") as fh:
            fh.write("name\tstart_s\tend_s\tparent\tcase\n")
            for name, start, end, parent, case in self.spans:
                fh.write(f"{name}\t{start:.9f}\t{end:.9f}\t{parent}\t{case}\n")


def per_layer_names():
    """(name, unit) of every per-layer metric, in report order (no trace run needed)."""
    return [(k, v[1]) for k, v in Tracer().layer_metrics(0).items()]
