"""Span tracer that wraps bettiforge's public functions from outside `src/`.

Each wrapped call appends a span (layer, start, end, parent, attrs) to a list
held in memory. A function is patched at every module that binds it, because
modules import names directly (`resolver`, `apolarity` and `special` all bind
`rank_of_rows`), and every patched site is restored on exit. Per-layer
metrics are counts and self times derived from the spans of one pass.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import weakref
from collections import defaultdict
from dataclasses import dataclass
from time import perf_counter

import numpy as np

# The tracer's own work after a call (span attributes); recorded as a sibling
# of the call so that no layer's self time includes it.
BOOKKEEPING = "trace"
SUFFIXED_FIELDS = ("qq", "gf1073741789")


class TraceError(RuntimeError):
    """A wrapper was still installed after the tracer closed."""


def _field_tag(field):
    return "qq" if field.characteristic == 0 else f"gf{field.characteristic}"


def _nonzeros(rows):
    if isinstance(rows, np.ndarray):
        return int(np.count_nonzero(rows))
    return sum(int(np.count_nonzero(r)) if isinstance(r, np.ndarray) else sum(1 for x in r if x)
               for r in rows)


def _rank_attrs(tracer, args, result):
    rows = args["rows"]
    return {"field": _field_tag(args["field"]), "cells": len(rows) * args["ncols"],
            "rank": result, "nnz": _nonzeros(rows)}


def _rref_attrs(tracer, args, result):
    return {"field": _field_tag(args["field"]), "cells": len(args["rows"]) * args["ncols"]}


def _absorb_attrs(tracer, args, result):
    return {"field": _field_tag(args["self"].field), "useful": result is not None}


def _seen_attrs(tracer, args, result):
    """Was this call's instance already asked for these arguments?"""
    key = tuple(v for k, v in args.items() if k != "self")
    seen = tracer.seen.setdefault(args["self"], set())
    hit = key in seen
    seen.add(key)
    return {"hit": hit}


# (layer, module, attribute or Class.method, span attributes)
TARGETS = (
    ("cli", "bettiforge.cli", "main", None),
    ("exactalg.rank", "bettiforge.exactalg", "rank_of_rows", _rank_attrs),
    ("exactalg.rref", "bettiforge.exactalg", "RowBasis.from_rows", _rref_attrs),
    ("exactalg.absorb", "bettiforge.exactalg", "Accumulator.absorb", _absorb_attrs),
    ("resolver.slices", "bettiforge.resolver", "slice_at_degree", None),
    ("resolver.colon", "bettiforge.resolver", "colon_ideal", None),
    ("resolver.mingens", "bettiforge.resolver", "minimal_generators", None),
    ("resolver.quotient.class", "bettiforge.resolver", "GradedQuotient.class_matrix", _seen_attrs),
    ("resolver.quotient.mult", "bettiforge.resolver", "GradedQuotient.mult_variable", _seen_attrs),
    ("resolver.quotient.products", "bettiforge.resolver",
     "GradedQuotient.products_class_matrix", None),
    ("resolver.koszul", "bettiforge.resolver", "betti_from_quotient", None),
    ("formulas", "bettiforge.formulas", "betti_aci_odd", None),
    ("formulas", "bettiforge.formulas", "betti_gorenstein_odd", None),
    ("formulas", "bettiforge.formulas", "betti_sum_formula", None),
    ("hilbert", "bettiforge.hilbert", "ci_hilbert", None),
    ("hilbert", "bettiforge.hilbert", "froberg_series", None),
    ("hilbert", "bettiforge.hilbert", "gorenstein_linked_hilbert", None),
    ("hilbert", "bettiforge.hilbert", "series_numerator", None),
    ("polyring.mul", "bettiforge.polyring", "Polynomial.__mul__", None),
    ("apolarity.lefschetz", "bettiforge.apolarity", "lefschetz_check", None),
)

_EXACTALG = (("rank.calls", "count", "lower"), ("rank.s", "s", "lower"),
             ("rank.cells", "count", "lower"), ("rank.max_cells", "count", "lower"),
             ("rank.ops", "count", "lower"), ("rank.density", "ratio", "lower"),
             ("rref.calls", "count", "lower"), ("rref.s", "s", "lower"),
             ("rref.cells", "count", "lower"),
             ("absorb.calls", "count", "lower"), ("absorb.s", "s", "lower"),
             ("absorb.useful_ratio", "ratio", "higher"))

# Every per-layer metric: name -> (unit, which direction is better).
PER_LAYER = {f"exactalg.{name}{suffix}": (unit, better)
             for suffix in ("",) + tuple(f".{f}" for f in SUFFIXED_FIELDS)
             for name, unit, better in _EXACTALG}
PER_LAYER.update({
    "resolver.slices.calls": ("count", "lower"),
    "resolver.slices.self_s": ("s", "lower"),
    "resolver.colon.calls": ("count", "lower"),
    "resolver.colon.self_s": ("s", "lower"),
    "resolver.mingens.self_s": ("s", "lower"),
    "resolver.quotient.class_s": ("s", "lower"),
    "resolver.quotient.mult_s": ("s", "lower"),
    "resolver.quotient.products_s": ("s", "lower"),
    "resolver.quotient.hit_ratio": ("ratio", "higher"),
    "resolver.koszul.self_s": ("s", "lower"),
    "formulas.calls": ("count", "lower"),
    "formulas.s": ("s", "lower"),
    "hilbert.s": ("s", "lower"),
    "polyring.mul.calls": ("count", "lower"),
    "polyring.mul.s": ("s", "lower"),
    "cli.self_s": ("s", "lower"),
    "apolarity.lefschetz.self_s": ("s", "lower"),
    "trace.overhead_s": ("s", "lower"),
})

# Layers that must read nonzero on the workload where they are hot.
HOT = {
    "koszul-large": ("exactalg.rank.calls", "exactalg.rank.s", "resolver.koszul.self_s"),
    "sweep-verify": ("exactalg.rank.s", "exactalg.rref.s", "resolver.slices.self_s",
                     "resolver.colon.self_s", "resolver.quotient.class_s",
                     "resolver.quotient.mult_s", "formulas.s", "hilbert.s",
                     "polyring.mul.calls", "cli.self_s"),
    "linked-gens": ("exactalg.absorb.s", "resolver.mingens.self_s",
                    "resolver.quotient.products_s", "apolarity.lefschetz.self_s"),
    "exact-fields": ("exactalg.rank.s.qq", "exactalg.rank.s.gf1073741789"),
}


@dataclass
class Span:
    layer: str
    start: float
    end: float
    parent: int
    attrs: dict | None = None

    @property
    def seconds(self):
        return self.end - self.start


class Tracer:
    """Context manager: wraps every target while open, restores every site on exit."""

    def __init__(self):
        self.spans = []
        self.seen = weakref.WeakKeyDictionary()
        self._stack = []
        self._patches = []

    def take(self):
        """The spans recorded so far, in start order; the tracer starts afresh."""
        out = list(self.spans)
        self.spans.clear()
        self.seen = weakref.WeakKeyDictionary()
        return out

    def _wrap(self, layer, fn, hook):
        spans, stack = self.spans, self._stack
        signature = inspect.signature(fn) if hook else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            parent = stack[-1] if stack else -1
            spans.append(None)
            stack.append(idx)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[idx] = Span(layer, start, end, parent)
            if hook:
                spans[idx].attrs = hook(self, signature.bind(*args, **kwargs).arguments, result)
                spans.append(Span(BOOKKEEPING, end, perf_counter(), parent))
            return result

        traced.perfbench_layer = layer
        return traced

    def _patch(self, owner, name, new):
        self._patches.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, new)

    def __enter__(self):
        importlib.import_module("bettiforge.cli")
        modules = _program_modules()
        for layer, modname, attr, hook in TARGETS:
            module = sys.modules[modname]
            if "." in attr:
                cls_name, name = attr.split(".")
                owner = getattr(module, cls_name)
                raw = owner.__dict__[name]
                if isinstance(raw, classmethod):
                    self._patch(owner, name, classmethod(self._wrap(layer, raw.__func__, hook)))
                else:
                    self._patch(owner, name, self._wrap(layer, raw, hook))
                continue
            original = getattr(module, attr)
            wrapped = self._wrap(layer, original, hook)
            for mod in modules:
                for name, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, name, wrapped)
        return self

    def __exit__(self, *exc):
        for owner, name, original in reversed(self._patches):
            setattr(owner, name, original)
        self._patches.clear()
        left = installed_sites()
        if left and exc[0] is None:
            raise TraceError(f"wrappers left installed: {left}")
        return False


def installed_sites():
    """Where each layer is patched right now, as {layer: ["module.name", ...]}."""
    out = defaultdict(list)
    for owner, name, value in _bound_names():
        func = value.__func__ if isinstance(value, classmethod) else value
        layer = getattr(func, "perfbench_layer", None)
        if layer:
            out[layer].append(f"{owner.__name__}.{name}")
    return dict(out)


def _program_modules():
    return [m for name, m in list(sys.modules.items())
            if name == "bettiforge" or name.startswith("bettiforge.")]


def _bound_names():
    """(owner, name, value) for every name bound in a bettiforge module or class."""
    for mod in _program_modules():
        for name, value in list(vars(mod).items()):
            yield mod, name, value
            if isinstance(value, type) and value.__module__ == mod.__name__:
                for attr, member in list(vars(value).items()):
                    yield value, attr, member


def self_times(spans):
    """Each span's duration minus the durations of its direct children."""
    own = [s.seconds for s in spans]
    for s in spans:
        if s.parent >= 0:
            own[s.parent] -= s.seconds
    return own


def layer_metrics(spans):
    """Every PER_LAYER metric except trace.overhead_s, from the spans of one pass."""
    own = self_times(spans)
    index = defaultdict(list)
    for k, s in enumerate(spans):
        index[s.layer].append(k)

    def outermost(k):
        layer, p = spans[k].layer, spans[k].parent
        while p >= 0:
            if spans[p].layer == layer:
                return False
            p = spans[p].parent
        return True

    def inclusive(layer):
        return sum(spans[k].seconds for k in index[layer] if outermost(k))

    def own_s(layer):
        return sum(own[k] for k in index[layer])

    out = {}
    for suffix in ("",) + tuple(f".{f}" for f in SUFFIXED_FIELDS):
        def pick(layer, suffix=suffix):
            return [spans[k] for k in index[layer] if not suffix or spans[k].attrs["field"] == suffix[1:]]

        rank, rref, absorb = pick("exactalg.rank"), pick("exactalg.rref"), pick("exactalg.absorb")
        cells = sum(s.attrs["cells"] for s in rank)
        out.update({
            f"exactalg.rank.calls{suffix}": len(rank),
            f"exactalg.rank.s{suffix}": sum(s.seconds for s in rank),
            f"exactalg.rank.cells{suffix}": cells,
            f"exactalg.rank.max_cells{suffix}": max((s.attrs["cells"] for s in rank), default=0),
            f"exactalg.rank.ops{suffix}": sum(s.attrs["rank"] * s.attrs["cells"] for s in rank),
            f"exactalg.rank.density{suffix}":
                sum(s.attrs["nnz"] for s in rank) / cells if cells else 0.0,
            f"exactalg.rref.calls{suffix}": len(rref),
            f"exactalg.rref.s{suffix}": sum(s.seconds for s in rref),
            f"exactalg.rref.cells{suffix}": sum(s.attrs["cells"] for s in rref),
            f"exactalg.absorb.calls{suffix}": len(absorb),
            f"exactalg.absorb.s{suffix}": sum(s.seconds for s in absorb),
            f"exactalg.absorb.useful_ratio{suffix}":
                sum(s.attrs["useful"] for s in absorb) / len(absorb) if absorb else 0.0,
        })
    cached = index["resolver.quotient.class"] + index["resolver.quotient.mult"]
    out.update({
        "resolver.slices.calls": len(index["resolver.slices"]),
        "resolver.slices.self_s": own_s("resolver.slices"),
        "resolver.colon.calls": len(index["resolver.colon"]),
        "resolver.colon.self_s": own_s("resolver.colon"),
        "resolver.mingens.self_s": own_s("resolver.mingens"),
        "resolver.quotient.class_s": own_s("resolver.quotient.class"),
        "resolver.quotient.mult_s": own_s("resolver.quotient.mult"),
        "resolver.quotient.products_s": own_s("resolver.quotient.products"),
        "resolver.quotient.hit_ratio":
            sum(spans[k].attrs["hit"] for k in cached) / len(cached) if cached else 0.0,
        "resolver.koszul.self_s": own_s("resolver.koszul"),
        "formulas.calls": len(index["formulas"]),
        "formulas.s": inclusive("formulas"),
        "hilbert.s": inclusive("hilbert"),
        "polyring.mul.calls": len(index["polyring.mul"]),
        "polyring.mul.s": inclusive("polyring.mul"),
        "cli.self_s": own_s("cli"),
        "apolarity.lefschetz.self_s": own_s("apolarity.lefschetz"),
    })
    return out


def self_check(workload, metrics, walls, per_pass):
    """Why the traced run cannot be trusted: hot layers reading zero, or self
    times that do not add up to the traced wall time of their pass."""
    problems = [f"{name} reads zero on {workload}, where it is hot"
                for name in HOT[workload] if not metrics[name] > 0]
    for wall, spans in zip(walls, per_pass):
        own = sum(self_times(spans))
        if abs(own - wall) > 0.02 * wall:
            problems.append(f"self times sum to {own:.6f} s, the traced pass took {wall:.6f} s")
    return problems


def self_time_shares(spans):
    """Self seconds per layer, largest first, with the tracer's bookkeeping."""
    per = defaultdict(float)
    for s, own in zip(spans, self_times(spans)):
        per[s.layer] += own
    return sorted(per.items(), key=lambda kv: -kv[1])
