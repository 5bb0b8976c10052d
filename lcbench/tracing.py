"""Per-layer spans and counters, recorded by wrapping lcivt from outside.

``Tracer.install()`` replaces each traced function with a wrapper in every
lcivt module or class that holds it (``from .x import y`` copies included)
and in ``sympy.Poly``; ``Tracer.uninstall()`` puts every original back.
Layers are named after lcivt modules.  A span opens only where control
crosses into another layer, so a layer's self time is its spans' durations
minus the durations of the spans they directly contain.  Spans stay in
memory, tagged with the operation (request) id, until ``dump``.
"""

from __future__ import annotations

import gzip
import json
import sys
import time
from collections import Counter

LAYERS = ("dsl", "pseries", "lcnum", "realalg", "hensel", "rootfind", "cli")

# (module, class or None, attribute, layer, counter or None)
_FUNCTIONS = [
    ("lcivt.dsl", None, "parse_series", "dsl", None),
    ("lcivt.dsl", None, "parse_literal", "dsl", None),
    ("lcivt.dsl", None, "parse_exponent", "dsl", None),
    ("lcivt.dsl", None, "parse_xpoly", "dsl", None),
    ("lcivt.pseries", None, "normalize", "pseries", "pseries.normalize_calls"),
    ("lcivt.pseries", None, "evaluate", "pseries", "pseries.evaluate_calls"),
    ("lcivt.pseries", None, "transform_interval", "pseries", None),
    ("lcivt.pseries", None, "partial_sum", "pseries", None),
    ("lcivt.lcnum", "LcNumber", "__add__", "lcnum", "lcnum.add_calls"),
    ("lcivt.lcnum", "LcNumber", "__sub__", "lcnum", None),
    ("lcivt.lcnum", "LcNumber", "__rsub__", "lcnum", None),
    ("lcivt.lcnum", "LcNumber", "__neg__", "lcnum", None),
    ("lcivt.lcnum", "LcNumber", "__mul__", "lcnum", "lcnum.mul_calls"),
    ("lcivt.lcnum", "LcNumber", "pow_int", "lcnum", None),
    ("lcivt.lcnum", "LcNumber", "truncate", "lcnum", None),
    ("lcivt.lcnum", "LcNumber", "compare", "lcnum", None),
    ("lcivt.lcnum", "LcNumber", "invert", "lcnum", "lcnum.invert_calls"),
    ("lcivt.lcnum", "LcNumber", "div", "lcnum", None),
    ("lcivt.lcnum", "LcNumber", "nth_root", "lcnum", None),
    ("lcivt.lcnum", "LcNumber", "render", "lcnum", None),
    ("lcivt.realalg", "RealAlgebraic", "__add__", "realalg", None),
    ("lcivt.realalg", "RealAlgebraic", "__sub__", "realalg", None),
    ("lcivt.realalg", "RealAlgebraic", "__neg__", "realalg", None),
    ("lcivt.realalg", "RealAlgebraic", "__mul__", "realalg", "realalg.mul_calls"),
    ("lcivt.realalg", "RealAlgebraic", "inverse", "realalg", None),
    ("lcivt.realalg", "RealAlgebraic", "compare", "realalg", None),
    ("lcivt.realalg", "RealAlgebraic", "sign", "realalg", None),
    ("lcivt.realalg", "RealAlgebraic", "nth_root", "realalg", None),
    ("lcivt.realalg", "RealAlgebraic", "__str__", "realalg", None),
    ("lcivt.realalg", None, "algebraic_roots", "realalg", "rootfind.algebraic_roots_calls"),
    ("lcivt.realalg", None, "isolate_real_roots", "realalg", None),
    ("sympy", "Poly", "factor_list", "realalg", "realalg.sympy_factor_misses"),
    ("lcivt.hensel", None, "weierstrass_factor", "hensel", "hensel.factor_calls"),
    ("lcivt.hensel", None, "weierstrass_factor_batched", "hensel", "hensel.factor_calls"),
    ("lcivt.hensel", None, "n_poly_root", "hensel", None),
    ("lcivt.rootfind", None, "count_zeros", "rootfind", None),
    ("lcivt.rootfind", None, "ivt_root", "rootfind", None),
    ("lcivt.rootfind", None, "multiplicity_at", "rootfind", None),
    ("lcivt.rootfind", None, "poly_roots", "rootfind", "rootfind.poly_roots_calls"),
    ("lcivt.rootfind", None, "monic_real_roots", "rootfind", None),
    ("lcivt.rootfind", None, "track_partial_sum_zeros", "rootfind", None),
    ("lcivt.rootfind", None, "track_extremes", "rootfind", None),
    ("lcivt.rootfind", None, "target_extreme_kind", "rootfind", None),
    ("lcivt.rootfind", None, "certified_sign", "rootfind", None),
    ("lcivt.cli", None, "main", "cli", None),
]
# Series rules: every coefficient and tail query of a PSeries subclass.
_SERIES_METHODS = ("coeff", "tail_index")
# Counted only: a span here would charge rootfind's Newton steps to hensel.
_COUNTED = [("lcivt.hensel", "poly_mul", "hensel.poly_mul_calls")]
# Inclusive time of these is kept per operation kind, whatever layer calls them.
INCLUSIVE = ("normalize", "weierstrass_factor", "poly_roots", "monic_real_roots",
             "evaluate", "factor_list")


def traced_targets():
    """(owner, attribute, function) for every traced function loaded so far."""
    out = []
    for modname, clsname, attr, _layer, _counter in _FUNCTIONS:
        if modname not in sys.modules:
            continue
        owner = sys.modules[modname]
        if clsname is not None:
            owner = getattr(owner, clsname)
        out.append((owner, attr, owner.__dict__[attr] if clsname else getattr(owner, attr)))
    return out


def is_wrapper(fn):
    return getattr(fn, "_lcbench_original", None) is not None


class Tracer:
    def __init__(self):
        self.counts = Counter()
        self.self_s = dict.fromkeys(LAYERS, 0.0)
        self.inclusive = Counter()
        self.terms = Counter()
        self.spans = []          # (request, span, parent, layer, name, start, end)
        self.request = None
        self.kind = None
        self._stack = []         # [layer, name, start, child_s, span_id]
        self._active = Counter()  # inclusive-timed functions currently running
        self._patched = []       # (owner, attribute, original)

    # --------------------------------------------------------------- wrappers

    def _wrap(self, fn, layer, name, counter):
        stack, counts, spans, selfs = self._stack, self.counts, self.spans, self.self_s
        active, inclusive, terms = self._active, self.inclusive, self.terms
        clock = time.perf_counter
        timed = name in INCLUSIVE
        sample_terms = layer == "lcnum" and name in ("__add__", "__mul__")
        tracer = self

        def wrapper(*args, **kwargs):
            if counter is not None:
                counts[counter] += 1
            outer = timed and not active[name]
            if stack and stack[-1][0] == layer and not outer:
                out = fn(*args, **kwargs)
                if sample_terms and out is not NotImplemented:
                    terms[len(out.terms)] += 1
                return out
            if outer:
                active[name] += 1
            span_id = len(spans)
            parent = stack[-1][4] if stack else -1
            frame = [layer, name, clock(), 0.0, span_id]
            spans.append(None)
            stack.append(frame)
            try:
                out = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                dur = end - frame[2]
                selfs[layer] += dur - frame[3]
                if stack:
                    stack[-1][3] += dur
                spans[span_id] = (tracer.request, span_id, parent, layer, name,
                                  frame[2], end)
                if outer:
                    active[name] -= 1
                    inclusive[(tracer.kind, name)] += dur
            if sample_terms and out is not NotImplemented:
                terms[len(out.terms)] += 1
            return out

        wrapper._lcbench_original = fn
        return wrapper

    def _counting(self, fn, counter):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[counter] += 1
            return fn(*args, **kwargs)

        wrapper._lcbench_original = fn
        return wrapper

    def _replace_everywhere(self, original, wrapper):
        """Rebind every lcivt module attribute that is ``original``."""
        for modname, mod in list(sys.modules.items()):
            if mod is None or not (modname == "lcivt" or modname.startswith("lcivt.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._patched.append((mod, attr, original))
                    setattr(mod, attr, wrapper)

    def _replace_in_class(self, cls, original, wrapper):
        """Rebind every alias in the class body (``__radd__ = __add__``)."""
        for attr, value in list(vars(cls).items()):
            if value is original:
                self._patched.append((cls, attr, original))
                setattr(cls, attr, wrapper)

    # ---------------------------------------------------------- install/remove

    def install(self):
        import sympy  # noqa: F401  (so that Poly.factor_list can be wrapped)

        from lcivt import pseries

        for modname, clsname, attr, layer, counter in _FUNCTIONS:
            mod = sys.modules[modname]
            if clsname is None:
                original = getattr(mod, attr)
                self._replace_everywhere(original, self._wrap(original, layer, attr, counter))
            else:
                cls = getattr(mod, clsname)
                original = vars(cls)[attr]
                self._replace_in_class(cls, original, self._wrap(original, layer, attr, counter))
        for cls in vars(pseries).values():
            if isinstance(cls, type) and issubclass(cls, pseries.PSeries):
                for attr in _SERIES_METHODS:
                    if attr in vars(cls):
                        original = vars(cls)[attr]
                        self._replace_in_class(
                            cls, original, self._wrap(original, "pseries", attr, None))
        for modname, attr, counter in _COUNTED:
            original = getattr(sys.modules[modname], attr)
            self._replace_everywhere(original, self._counting(original, counter))

    def uninstall(self):
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    # ----------------------------------------------------------------- output

    def dump(self, path):
        with gzip.open(path, "wt") as fh:
            fh.write(json.dumps({"fields": ["request", "span", "parent", "layer", "name",
                                            "start", "end"]}) + "\n")
            for span in self.spans:
                if span is not None:
                    fh.write(json.dumps(span) + "\n")
