"""Span tracing of the chflow layers, installed from outside the package.

``Tracer.install`` replaces the public functions of each chflow module (and
every private function another module imports) with wrappers that record a
span: name, start, end and parent.  The replacement is made in every module
namespace that holds the function, so calls are caught where they are made,
including calls inside the defining module.  ``Poly`` and ``PolyMatrix``
methods run tens of thousands of times per operation; they are counted and
their outermost calls timed in aggregate instead of spanned.  Spans stay in
memory until ``write``.

A layer's self time is the time of its spans minus the time of their child
spans and of the polynomial calls made directly under them.
"""

from __future__ import annotations

import inspect
import json
import sys
from collections import Counter
from time import perf_counter

LAYERS = ("pairs", "poly", "stringsys", "direct", "inverse", "flow", "cli")
# the direct-transform entry points; each builds one transfer product
TRANSFORMS = frozenset(("spectral_data", "spectrum", "weyl_function",
                        "wronskian_poly"))

# Poly methods left unwrapped: trivial accessors and debug output
UNTIMED = frozenset(("__getitem__", "__repr__", "debug_text"))

_NAME, _START, _END, _PARENT, _LIGHT = range(5)


class Tracer:
    """Records spans and counters while installed; restores on ``uninstall``."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.counts = Counter()
        self.poly_s = 0.0
        self.ops = 0
        self._poly_depth = 0
        self._transform_depth = 0
        self._seen = set()
        self._patches = []

    # -- operation boundaries ---------------------------------------------

    def begin_op(self):
        """Start a new operation: repeat detection is per operation."""
        self.ops += 1
        self._seen = set()

    # -- wrappers ---------------------------------------------------------

    def _span(self, fn, layer, attr):
        spans, stack, counts = self.spans, self.stack, self.counts
        name = f"{layer}.{attr}"
        transform = layer == "direct" and attr in TRANSFORMS
        strip = name == "inverse.layer_strip"

        def traced(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, 0.0]
            stack.append(len(spans))
            spans.append(rec)
            outer = transform and self._transform_depth == 0
            if transform:
                self._transform_depth += 1
                if outer:
                    self._note_transform(args[0])
            rec[_START] = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[_END] = perf_counter()
                stack.pop()
                if transform:
                    self._transform_depth -= 1
            if strip:
                counts["inverse.strip_returns"] += 1
            return out

        traced.__wrapped__ = fn
        return traced

    def _note_transform(self, pair):
        self.counts["direct.transforms"] += 1
        key = (pair.sites.tobytes(), pair.weights.tobytes(),
               pair.atoms.tobytes())
        if key in self._seen:
            self.counts["direct.repeats"] += 1
        self._seen.add(key)

    def _light(self, fn, counter):
        counts, stack, spans = self.counts, self.stack, self.spans

        def counted(*args, **kwargs):
            if counter:
                counts[counter] += 1
            if self._poly_depth:
                return fn(*args, **kwargs)
            self._poly_depth = 1
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                self._poly_depth = 0
                self.poly_s += dt
                if stack:
                    spans[stack[-1]][_LIGHT] += dt

        counted.__wrapped__ = fn
        return counted

    def _counter(self, fn, counter, size_of=None):
        counts = self.counts

        def counted(*args, **kwargs):
            counts[counter] += size_of(*args) if size_of else 1
            return fn(*args, **kwargs)

        counted.__wrapped__ = fn
        return counted

    # -- installation -----------------------------------------------------

    def _set(self, owner, attr, value):
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self):
        """Wrap the layers of the already imported chflow package."""
        mods = {name: sys.modules[f"chflow.{name}"] for name in LAYERS}
        namespaces = [sys.modules["chflow"], *mods.values()]
        wrapped = {}
        for layer, mod in mods.items():
            for attr, obj in vars(mod).items():
                if not inspect.isfunction(obj) or obj.__module__ != mod.__name__:
                    continue
                imported = any(ns is not mod and ns.__dict__.get(attr) is obj
                               for ns in namespaces)
                if not attr.startswith("_") or imported:
                    wrapped[obj] = self._span(obj, layer, attr)
        cli = mods["cli"]
        wrapped[cli._emit] = self._counter(cli._emit, "cli.bytes_out",
                                           lambda text, path=None: len(text))
        for ns in namespaces:
            for attr, obj in list(vars(ns).items()):
                if inspect.isfunction(obj) and obj in wrapped:
                    self._set(ns, attr, wrapped[obj])

        poly = mods["poly"]
        counters = {"__mul__": "poly.mul_calls", "__rmul__": "poly.mul_calls",
                    "__call__": "poly.eval_calls",
                    "from_roots": "poly.from_roots_calls"}
        for cls in (poly.Poly, poly.PolyMatrix):
            for attr, obj in list(vars(cls).items()):
                fn = obj.__func__ if isinstance(obj, classmethod) else obj
                # coefficient access and debug text are not arithmetic
                if (not inspect.isfunction(fn) or attr in UNTIMED
                        or (attr.startswith("_") and not attr.startswith("__"))):
                    continue
                counter = counters.get(attr) if cls is poly.Poly else None
                light = self._light(fn, counter)
                self._set(cls, attr, classmethod(light)
                          if isinstance(obj, classmethod) else light)
        herglotz = mods["direct"].RationalHerglotz
        self._set(herglotz, "as_poly_pair",
                  self._counter(herglotz.as_poly_pair, "inverse.strip_attempts"))
        return self

    def uninstall(self):
        for owner, attr, value in reversed(self._patches):
            setattr(owner, attr, value)
        self._patches = []

    # -- results ----------------------------------------------------------

    def layer_metrics(self) -> dict:
        """Per-layer metrics as (value, unit); counts and times are per traced
        operation."""
        spans, counts = self.spans, self.counts
        child = [0.0] * len(spans)
        strips = Counter()
        for rec in spans:
            parent = rec[_PARENT]
            if parent >= 0:
                child[parent] += rec[_END] - rec[_START]
                if (rec[_NAME] == "inverse.layer_strip" and
                        spans[parent][_NAME] == "inverse.inverse_transform"):
                    strips[parent] += 1
        self_s = dict.fromkeys(LAYERS, 0.0)
        self_s["poly"] = self.poly_s
        certificate = validate = 0.0
        snapshots = builds = 0
        for i, rec in enumerate(spans):
            name, dur = rec[_NAME], rec[_END] - rec[_START]
            self_s[name.split(".", 1)[0]] += dur - child[i] - rec[_LIGHT]
            if name == "inverse._round_trip_residual":
                certificate += dur
            elif name == "flow.snapshot":
                snapshots += 1
            elif name == "stringsys.cumulative_transfer":
                builds += 1
            elif (name == "direct.spectrum" and rec[_PARENT] >= 0
                  and spans[rec[_PARENT]][_NAME] == "flow.make_trajectory"):
                validate += dur
        retries = sum(n - 1 for n in strips.values())
        transforms = counts["direct.transforms"]
        attempts = counts["inverse.strip_attempts"]
        ops = max(1, self.ops)
        per_op = {f"{layer}.self_s": (self_s[layer], "s/op") for layer in LAYERS}
        per_op.update({
            "poly.mul_calls": (counts["poly.mul_calls"], "calls/op"),
            "poly.from_roots_calls": (counts["poly.from_roots_calls"], "calls/op"),
            "poly.eval_calls": (counts["poly.eval_calls"], "calls/op"),
            "stringsys.transfer_builds": (builds, "builds/op"),
            "direct.transforms": (transforms, "transforms/op"),
            "inverse.strip_attempts": (attempts, "attempts/op"),
            "inverse.certificate_s": (certificate, "s/op"),
            "inverse.certificate_retries": (retries, "retries/op"),
            "flow.snapshots": (snapshots, "snapshots/op"),
            "flow.validate_s": (validate, "s/op"),
            "cli.bytes_out": (counts["cli.bytes_out"], "bytes/op"),
        })
        out = {name: (total / ops, unit) for name, (total, unit) in per_op.items()}
        out["direct.useful_ratio"] = (transforms / builds if builds else 1.0,
                                      "ratio")
        out["direct.repeat_share"] = (counts["direct.repeats"] / transforms
                                      if transforms else 0.0, "ratio")
        out["inverse.strip_useful_ratio"] = (
            counts["inverse.strip_returns"] / attempts if attempts else 1.0,
            "ratio")
        return out

    def write(self, path):
        """Spans as JSON lines: name, start, end, parent index, poly time."""
        with open(path, "w") as fh:
            for i, rec in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": rec[_NAME],
                                     "start": rec[_START], "end": rec[_END],
                                     "parent": rec[_PARENT],
                                     "poly_s": rec[_LIGHT]}) + "\n")
