"""Outside-in layer tracing: wrap public functions of each gorhom layer.

Nothing in the package changes.  ``Tracer.install`` replaces every target
at every binding site: ``from .exactlin import rref`` copies the function
into each importing module, so each ``gorhom.*`` namespace holding the
original is rebound, and methods are rebound on their class.  Each call
records a span (name, start, end, parent) in flat arrays; the per-layer
numbers are derived from the spans when the pass ends.

The wrappers use ``time.perf_counter`` and cost about a microsecond per
call, far less than cProfile's hook on every Python call.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from array import array

# (span name, module, attribute).  A span name is "<layer>.<function>";
# the arithmetic methods of Mat share one name, and so do both Frobenius
# certifications.  The one private target, _radical_generic, runs once per
# radical not found in the algebra's cache: the public radical_basis cannot
# tell a computation from a cache hit.
SPANS = [
    ("exactlin.rref", "gorhom.exactlin", "rref"),
    ("exactlin.solve", "gorhom.exactlin", "solve"),
    ("exactlin.kron", "gorhom.exactlin", "kron"),
] + [
    ("exactlin.mat_ops", "gorhom.exactlin", f"Mat.{op}")
    for op in ("__add__", "__sub__", "__neg__", "__mul__", "scale", "transpose", "hstack",
               "vstack", "select_cols", "rank", "kernel_basis", "inverse")
] + [
    ("algebra.load", "gorhom.algebra", "load_algebra"),
    ("algebra.Algebra", "gorhom.algebra", "Algebra.__init__"),
    ("algebra.radical", "gorhom.algebra", "_radical_generic"),
    ("algebra.tensor_algebra", "gorhom.algebra", "tensor_algebra"),
    ("modrep.load", "gorhom.modrep", "load_module"),
    ("modrep.Module", "gorhom.modrep", "Module.__init__"),
    ("modrep.ModHom", "gorhom.modrep", "ModHom.__post_init__"),
    ("modrep.hom_space", "gorhom.modrep", "hom_space"),
    ("modrep.is_isomorphic", "gorhom.modrep", "is_isomorphic"),
    ("modrep.dual_module", "gorhom.modrep", "dual_module"),
    ("modrep.cover_envelope", "gorhom.modrep", "cover_envelope"),
    ("homology.load", "gorhom.homology", "load_complex"),
    ("homology.resolve", "gorhom.homology", "resolve"),
    ("homology.ext_dim", "gorhom.homology", "ext_dim"),
    ("homology.ext_dim_injective", "gorhom.homology", "ext_dim_injective"),
    ("homology.is_gorenstein_projective", "gorhom.homology", "is_gorenstein_projective"),
    ("homology.gorenstein_profile", "gorhom.homology", "gorenstein_profile"),
    ("homology.gpd", "gorhom.homology", "gpd"),
    ("homology.gid", "gorhom.homology", "gid"),
    ("homology.totalize_quasi_bicomplex", "gorhom.homology", "totalize_quasi_bicomplex"),
    ("frobenius.load", "gorhom.frobenius", "load_extension"),
    ("frobenius.load", "gorhom.frobenius", "load_bimodule"),
    ("frobenius.induce", "gorhom.frobenius", "induce"),
    ("frobenius.coinduce", "gorhom.frobenius", "coinduce"),
    ("frobenius.restrict", "gorhom.frobenius", "restrict"),
    ("frobenius.certify", "gorhom.frobenius", "is_frobenius_extension"),
    ("frobenius.certify", "gorhom.frobenius", "is_frobenius_bimodule"),
    ("frobenius.verify_gpd_transfer", "gorhom.frobenius", "verify_gpd_transfer"),
    ("frobenius.tri_equiv_conditions", "gorhom.frobenius", "tri_equiv_conditions"),
]
# Constructions counted without a span: about a million per pass.
COUNTERS = [("exactlin.Mat.new", "gorhom.exactlin", "Mat.__init__")]

LAYERS = ("exactlin", "algebra", "modrep", "homology", "frobenius")

# Every per-layer metric: name -> (unit, how it is derived).  A stat is
# "calls", "s" (inclusive seconds, outermost calls only), "cells",
# "distinct", "inconclusive", "count" (a COUNTERS entry), "self" (layer
# self time), or one of the process-level figures the worker adds.
PER_LAYER = {
    "exactlin.rref.calls": ("count", "exactlin.rref", "calls"),
    "exactlin.rref.s": ("s", "exactlin.rref", "s"),
    "exactlin.solve.calls": ("count", "exactlin.solve", "calls"),
    "exactlin.solve.s": ("s", "exactlin.solve", "s"),
    "exactlin.solve.cells": ("count", "exactlin.solve", "cells"),
    "exactlin.kron.calls": ("count", "exactlin.kron", "calls"),
    "exactlin.kron.s": ("s", "exactlin.kron", "s"),
    "exactlin.mat_ops.calls": ("count", "exactlin.mat_ops", "calls"),
    "exactlin.mat_ops.s": ("s", "exactlin.mat_ops", "s"),
    "exactlin.Mat.new": ("count", "exactlin.Mat.new", "count"),
    "exactlin.self_s": ("s", "exactlin", "self"),
    "algebra.load.calls": ("count", "algebra.load", "calls"),
    "algebra.load.s": ("s", "algebra.load", "s"),
    "algebra.Algebra.new": ("count", "algebra.Algebra", "calls"),
    "algebra.radical.computed": ("count", "algebra.radical", "calls"),
    "algebra.radical.distinct": ("count", "algebra.radical", "distinct"),
    "algebra.radical.s": ("s", "algebra.radical", "s"),
    "algebra.tensor_algebra.calls": ("count", "algebra.tensor_algebra", "calls"),
    "algebra.tensor_algebra.s": ("s", "algebra.tensor_algebra", "s"),
    "algebra.self_s": ("s", "algebra", "self"),
    "modrep.Module.new": ("count", "modrep.Module", "calls"),
    "modrep.Module.new_s": ("s", "modrep.Module", "s"),
    "modrep.ModHom.new": ("count", "modrep.ModHom", "calls"),
    "modrep.ModHom.new_s": ("s", "modrep.ModHom", "s"),
    "modrep.hom_space.calls": ("count", "modrep.hom_space", "calls"),
    "modrep.hom_space.distinct": ("count", "modrep.hom_space", "distinct"),
    "modrep.hom_space.s": ("s", "modrep.hom_space", "s"),
    "modrep.is_isomorphic.calls": ("count", "modrep.is_isomorphic", "calls"),
    "modrep.is_isomorphic.s": ("s", "modrep.is_isomorphic", "s"),
    "modrep.is_isomorphic.inconclusive": ("count", "modrep.is_isomorphic", "inconclusive"),
    "modrep.dual_module.calls": ("count", "modrep.dual_module", "calls"),
    "modrep.cover_envelope.calls": ("count", "modrep.cover_envelope", "calls"),
    "modrep.cover_envelope.s": ("s", "modrep.cover_envelope", "s"),
    "modrep.self_s": ("s", "modrep", "self"),
    "homology.resolve.calls": ("count", "homology.resolve", "calls"),
    "homology.resolve.s": ("s", "homology.resolve", "s"),
    "homology.ext_dim.calls": ("count", "homology.ext_dim", "calls"),
    "homology.ext_dim.s": ("s", "homology.ext_dim", "s"),
    "homology.ext_dim_injective.calls": ("count", "homology.ext_dim_injective", "calls"),
    "homology.ext_dim_injective.s": ("s", "homology.ext_dim_injective", "s"),
    "homology.is_gorenstein_projective.calls":
        ("count", "homology.is_gorenstein_projective", "calls"),
    "homology.is_gorenstein_projective.s": ("s", "homology.is_gorenstein_projective", "s"),
    "homology.gorenstein_profile.calls": ("count", "homology.gorenstein_profile", "calls"),
    "homology.gorenstein_profile.s": ("s", "homology.gorenstein_profile", "s"),
    "homology.gpd.calls": ("count", "homology.gpd", "calls"),
    "homology.gpd.s": ("s", "homology.gpd", "s"),
    "homology.gid.calls": ("count", "homology.gid", "calls"),
    "homology.gid.s": ("s", "homology.gid", "s"),
    "homology.totalize_quasi_bicomplex.calls":
        ("count", "homology.totalize_quasi_bicomplex", "calls"),
    "homology.totalize_quasi_bicomplex.s": ("s", "homology.totalize_quasi_bicomplex", "s"),
    "homology.self_s": ("s", "homology", "self"),
    "frobenius.induce.calls": ("count", "frobenius.induce", "calls"),
    "frobenius.induce.s": ("s", "frobenius.induce", "s"),
    "frobenius.coinduce.calls": ("count", "frobenius.coinduce", "calls"),
    "frobenius.coinduce.s": ("s", "frobenius.coinduce", "s"),
    "frobenius.restrict.calls": ("count", "frobenius.restrict", "calls"),
    "frobenius.restrict.s": ("s", "frobenius.restrict", "s"),
    "frobenius.certify.calls": ("count", "frobenius.certify", "calls"),
    "frobenius.certify.s": ("s", "frobenius.certify", "s"),
    "frobenius.verify_gpd_transfer.s": ("s", "frobenius.verify_gpd_transfer", "s"),
    "frobenius.tri_equiv_conditions.s": ("s", "frobenius.tri_equiv_conditions", "s"),
    "frobenius.self_s": ("s", "frobenius", "self"),
    "cli.import_s": ("s", "process", "import_s"),
    "cli.load_s": ("s", "load", "s"),
    "trace.overhead_frac": ("frac", "process", "overhead_frac"),
}


def _resolve(module: str, attr: str):
    owner = importlib.import_module(module)
    *path, name = attr.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, name


def _content_key(obj, memo: dict):
    """A hashable key for an algebra's or a module's content, memoized per
    object (the memo holds the object, so ids are not reused)."""
    hit = memo.get(id(obj))
    if hit is not None:
        return hit[1]
    if hasattr(obj, "table"):
        key = (obj.field.characteristic, obj.table, obj.unit, obj.idempotents)
    else:
        key = (_content_key(obj.algebra, memo), tuple(m.data for m in obj.action))
    memo[id(obj)] = (obj, key)
    return key


class Tracer:
    """Spans and counters for one traced pass.  ``install`` patches every
    binding site, ``uninstall`` restores them; use it as a context manager."""

    def __init__(self):
        self.names: list = []
        self.name_ids: dict = {}
        self.span_name = array("H")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("l")
        self.nested = array("b")   # 1 when an enclosing span has the same name
        self.stack: list = []
        self.open = {}             # name id -> open spans of that name
        self.counts = {name: 0 for name, _, _ in COUNTERS}
        self.cells = 0
        self.inconclusive = 0
        self.distinct = {"modrep.hom_space": set(), "algebra.radical": set()}
        self._memo: dict = {}
        self._patched: list = []   # (owner, attribute, original)

    # -- patching -------------------------------------------------------------

    def _wrap_span(self, name: str, fn):
        nid = self.name_ids.setdefault(name, len(self.names))
        if nid == len(self.names):
            self.names.append(name)
        observe = self._observers().get(name)
        span_name, start, end = self.span_name, self.start, self.end
        parent, nested, stack, open_ = self.parent, self.nested, self.stack, self.open
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(start)
            span_name.append(nid)
            parent.append(stack[-1] if stack else -1)
            depth = open_.get(nid, 0)
            nested.append(1 if depth else 0)
            open_[nid] = depth + 1
            stack.append(idx)
            start.append(clock())
            end.append(0.0)
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
                open_[nid] = depth
            if observe is not None:
                observe(args, result)
            return result

        return wrapper

    def _wrap_counter(self, name: str, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _observers(self) -> dict:
        def solve_cells(args, _result):
            a, b = args[0], args[1]
            self.cells += a.rows * (a.cols + b.cols)

        def hom_pair(args, _result):
            self.distinct["modrep.hom_space"].add(
                (_content_key(args[0], self._memo), _content_key(args[1], self._memo)))

        def radical(args, _result):
            self.distinct["algebra.radical"].add(_content_key(args[0], self._memo))

        def iso(_args, result):
            if result.verdict == "inconclusive":
                self.inconclusive += 1

        return {"exactlin.solve": solve_cells, "modrep.hom_space": hom_pair,
                "algebra.radical": radical, "modrep.is_isomorphic": iso}

    def install(self) -> "Tracer":
        wrappers = {}
        for kind, table in (("span", SPANS), ("count", COUNTERS)):
            for name, module, attr in table:
                owner, attr_name = _resolve(module, attr)
                original = getattr(owner, attr_name)
                wrap = self._wrap_span if kind == "span" else self._wrap_counter
                wrappers[id(original)] = (original, wrap(name, original))
                if "." in attr:  # a method: its class is the one binding site
                    self._rebind(owner, attr_name, original, wrappers[id(original)][1])
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "gorhom" or mod_name.startswith("gorhom.")):
                continue
            for attr_name, value in list(vars(mod).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    self._rebind(mod, attr_name, value, hit[1])
        return self

    def _rebind(self, owner, attr_name, original, wrapper):
        setattr(owner, attr_name, wrapper)
        self._patched.append((owner, attr_name, original))

    def uninstall(self) -> None:
        for owner, attr_name, original in reversed(self._patched):
            setattr(owner, attr_name, original)
        self._patched.clear()

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # -- results --------------------------------------------------------------

    def dump(self, path) -> None:
        """Write the spans: a header line of names, then the raw arrays."""
        with open(path, "wb") as fh:
            fh.write((" ".join(self.names) + f"\n{len(self.start)}\n").encode())
            for arr in (self.span_name, self.start, self.end, self.parent, self.nested):
                arr.tofile(fh)

    def summary(self) -> dict:
        """Per span name and per layer figures derived from the spans."""
        return summarize(self.names, self.span_name, self.start, self.end, self.parent,
                         self.nested, extra={
                             "counts": dict(self.counts), "cells": self.cells,
                             "inconclusive": self.inconclusive,
                             "distinct": {k: len(v) for k, v in self.distinct.items()}})


def summarize(names, span_name, start, end, parent, nested, extra) -> dict:
    """Derive calls, inclusive seconds and layer self time from spans.

    Inclusive seconds count only spans with no enclosing span of the same
    name, so recursion is not counted twice.  A span's self time is its
    duration minus its direct children's durations, and a layer's self
    time sums the self times of its spans.  Loads are the ``*.load`` spans
    that no other load span encloses.
    """
    n = len(start)
    child = [0.0] * n
    for i in range(n):
        p = parent[i]
        if p >= 0:
            child[p] += end[i] - start[i]
    calls = {name: 0 for name in names}
    incl = {name: 0.0 for name in names}
    layer_self = {layer: 0.0 for layer in LAYERS}
    is_load = [name.endswith(".load") for name in names]
    in_load = [False] * n
    load_s = 0.0
    for i in range(n):
        name = names[span_name[i]]
        dur = end[i] - start[i]
        calls[name] += 1
        if not nested[i]:
            incl[name] += dur
        layer_self[name.split(".", 1)[0]] += dur - child[i]
        p = parent[i]
        enclosed = p >= 0 and (in_load[p] or is_load[span_name[p]])
        in_load[i] = enclosed
        if is_load[span_name[i]] and not enclosed:
            load_s += dur
    return {"calls": calls, "s": incl, "self": layer_self, "load_s": load_s, **extra}


def metrics(summary: dict, process: dict) -> dict:
    """Map a summary (plus process-level figures) onto PER_LAYER names."""
    out = {}
    for metric, (unit, source, stat) in PER_LAYER.items():
        if stat == "self":
            value = summary["self"].get(source, 0.0)
        elif stat == "count":
            value = summary["counts"].get(source, 0)
        elif stat == "cells":
            value = summary["cells"]
        elif stat == "inconclusive":
            value = summary["inconclusive"]
        elif stat == "distinct":
            value = summary["distinct"].get(source, 0)
        elif source == "load":
            value = summary["load_s"]
        elif source == "process":
            value = process[stat]
        else:
            value = summary[stat].get(source, 0)
        out[metric] = {"value": value, "unit": unit}
    return out
