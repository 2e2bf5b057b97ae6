"""Spans around the public functions of each qbailey layer, from outside.

``Tracer.install`` replaces every listed function and method with a wrapper
that records a span (name, start, end, parent span) and, for a few of them,
counts that only the call site can see.  A function is replaced in every
qbailey module namespace that bound it, because ``from .qproducts import
poch_finite`` gives ``lattice`` a name of its own.  ``uninstall`` puts every
original back.  Spans are kept in memory; ``write_spans`` writes them out.

A span's self time is its duration minus the durations of its child spans.
"""

import sys
import time
from collections import defaultdict

# module -> {attribute: span name}
FUNCTIONS = {
    "qbailey.qproducts": {
        "poch_finite": "qproducts.poch_finite",
        "inv_poch_finite": "qproducts.inv_poch_finite",
        "poch_inf": "qproducts.poch_inf",
        "inv_poch_inf": "qproducts.inv_poch_inf",
        "inv_euler": "qproducts.inv_euler",
        "qtpi_product": "qproducts.qtpi_product",
    },
    "qbailey.bailey": {
        "compose_exact": "bailey.compose_exact",
        "apply_moves": "bailey.apply_moves",
    },
    "qbailey.lattice": {
        "build_multisum_spec": "lattice.build_multisum_spec",
        "eval_multisum": "lattice.eval_multisum",
        "alpha_side": "lattice.alpha_side",
        "verify_limit_identity": "lattice.verify_limit_identity",
    },
    "qbailey.characters": {
        "verify_character_identity": "characters.verify_character_identity",
        "char_product": "characters.char_product",
        "normalization_poly": "characters.normalization_poly",
    },
    "qbailey.records": {
        "build_record": "records.build_record",
        "emit_json": "records.emit",
        "emit_latex": "records.emit",
    },
}
# (module, class) -> {method: span name}; aliases such as __rmul__ follow.
METHODS = {
    ("qbailey.laurent", "LaurentSeries"): {
        "__mul__": "laurent.mul",
        "__add__": "laurent.add",
        "invert": "laurent.invert",
    },
    ("qbailey.bailey", "BaileyPair"): {"beta": "bailey.pair.beta"},
}
# The lru_cache'd Pochhammer builders whose cache_info() deltas are reported.
CACHED = ("poch_finite", "inv_poch_finite", "poch_inf", "inv_poch_inf",
          "inv_euler")
SMALL_TERMS = 32

PER_LAYER = [
    ("laurent.mul.calls", "count"),
    ("laurent.mul.self_s", "s"),
    ("laurent.mul.coef_pairs", "count"),
    ("laurent.mul.small_share", "ratio"),
    ("laurent.new.calls", "count"),
    ("laurent.add.calls", "count"),
    ("laurent.add.self_s", "s"),
    ("laurent.invert.calls", "count"),
    ("laurent.invert.self_s", "s"),
    *[(f"qproducts.{f}.{m}", u) for f in CACHED
      for m, u in (("calls", "count"), ("hits", "count"),
                   ("misses", "count"), ("self_s", "s"))],
    ("qproducts.qtpi_product.calls", "count"),
    ("qproducts.qtpi_product.self_s", "s"),
    ("qproducts.cache_hit_ratio", "ratio"),
    ("qproducts.cache_entries", "count"),
    ("bailey.compose_exact.calls", "count"),
    ("bailey.compose_exact.self_s", "s"),
    ("bailey.compose_exact.deepened", "count"),
    ("bailey.max_requested_order", "exponent"),
    ("bailey.apply_moves.self_s", "s"),
    ("bailey.pair.beta.calls", "count"),
    ("bailey.pair.beta.self_s", "s"),
    ("lattice.eval_multisum.calls", "count"),
    ("lattice.eval_multisum.self_s", "s"),
    ("lattice.alpha_side.calls", "count"),
    ("lattice.alpha_side.self_s", "s"),
    ("lattice.build_multisum_spec.self_s", "s"),
    ("lattice.verify_limit_identity.calls", "count"),
    ("characters.verify_character_identity.self_s", "s"),
    ("characters.char_product.self_s", "s"),
    ("characters.normalization_poly.self_s", "s"),
    ("records.build_record.self_s", "s"),
    ("records.emit.self_s", "s"),
    ("trace_overhead_ratio", "ratio"),
]
# Derived from operand sizes at the call, not measured.
COMPUTED = ("laurent.mul.coef_pairs",)


def _qbailey_modules():
    return [m for n, m in list(sys.modules.items())
            if n == "qbailey" or n.startswith("qbailey.")]


class Tracer:
    def __init__(self, run_id: int):
        self.run_id = run_id
        self.spans: list = []  # (name, start, end, parent index or -1)
        self._stack = [-1]
        self._patches: list = []  # (owner, attribute, original)
        self.counts = defaultdict(int)
        self._caches = {}
        self._info0 = {}
        self._info1 = {}
        self._epoch = time.perf_counter()

    # -- wrappers ----------------------------------------------------------

    def _span(self, name, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def wrapper(*args, **kwargs):
            sid = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(sid)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                spans[sid] = (name, t0, t1, parent)
        return wrapper

    def _mul(self, series_cls, fn):
        span, counts = self._span("laurent.mul", fn), self.counts

        def mul(a, b):
            if type(b) is series_cls:
                na, nb = len(a.terms), len(b.terms)
                counts["products"] += 1
                counts["coef_pairs"] += na * nb
                if na <= SMALL_TERMS and nb <= SMALL_TERMS:
                    counts["small"] += 1
            return span(a, b)
        return mul

    def _new(self, fn):
        counts = self.counts

        def init(series, terms, trunc):
            counts["new"] += 1
            fn(series, terms, trunc)
        return init

    def _compose(self, fn):
        span, counts = self._span("bailey.compose_exact", fn), self.counts

        def compose(order, shift, parent_get, *unit_gets):
            asked = []

            def counted(o):
                asked.append(o)
                return parent_get(o)
            try:
                return span(order, shift, counted, *unit_gets)
            finally:
                if len(asked) > 1:
                    counts["deepened"] += 1
                if asked and max(asked) > counts["max_order"]:
                    counts["max_order"] = max(asked)
        return compose

    # -- install / uninstall -----------------------------------------------

    def _patch_everywhere(self, owners, original, wrapper):
        for owner in owners:
            for attr, value in list(vars(owner).items()):
                if value is original:
                    self._patches.append((owner, attr, original))
                    setattr(owner, attr, wrapper)

    def install(self):
        modules = _qbailey_modules()
        for modname, names in FUNCTIONS.items():
            mod = sys.modules[modname]
            for attr, span_name in names.items():
                fn = getattr(mod, attr)
                if attr in CACHED:
                    self._caches[attr] = fn
                    self._info0[attr] = fn.cache_info()
                wrapper = (self._compose(fn) if attr == "compose_exact"
                           else self._span(span_name, fn))
                self._patch_everywhere(modules, fn, wrapper)
        for (modname, clsname), names in METHODS.items():
            cls = getattr(sys.modules[modname], clsname)
            for attr, span_name in names.items():
                fn = vars(cls)[attr]
                wrapper = (self._mul(cls, fn) if attr == "__mul__"
                           else self._span(span_name, fn))
                self._patch_everywhere([cls], fn, wrapper)
            if clsname == "LaurentSeries":
                fn = vars(cls)["__init__"]
                self._patch_everywhere([cls], fn, self._new(fn))

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()
        self._info1 = {n: fn.cache_info() for n, fn in self._caches.items()}

    # -- results -----------------------------------------------------------

    def layer_metrics(self) -> dict:
        child = [0.0] * len(self.spans)
        for name, t0, t1, parent in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        calls, self_s = defaultdict(int), defaultdict(float)
        for sid, (name, t0, t1, parent) in enumerate(self.spans):
            calls[name] += 1
            self_s[name] += (t1 - t0) - child[sid]
        values = {}
        for names in [*FUNCTIONS.values(), *METHODS.values()]:
            for span_name in names.values():
                values[f"{span_name}.calls"] = calls[span_name]
                values[f"{span_name}.self_s"] = self_s[span_name]
        c = self.counts
        values["laurent.mul.coef_pairs"] = c["coef_pairs"]
        values["laurent.mul.small_share"] = (
            c["small"] / c["products"] if c["products"] else 0.0)
        values["laurent.new.calls"] = c["new"]
        values["bailey.compose_exact.deepened"] = c["deepened"]
        values["bailey.max_requested_order"] = c["max_order"]
        hits = misses = 0
        for n in CACHED:
            h = self._info1[n].hits - self._info0[n].hits
            m = self._info1[n].misses - self._info0[n].misses
            values[f"qproducts.{n}.hits"], values[f"qproducts.{n}.misses"] = h, m
            hits, misses = hits + h, misses + m
        values["qproducts.cache_hit_ratio"] = (
            hits / (hits + misses) if hits + misses else 0.0)
        values["qproducts.cache_entries"] = sum(
            i.currsize for i in self._info1.values())
        return {n: values[n] for n, _ in PER_LAYER if n in values}

    def write_spans(self, path: str):
        """One tab-separated line per span: id, parent, run, name, start and
        end in seconds since the tracer was made."""
        with open(path, "w") as fh:
            fh.write("span\tparent\trun\tname\tstart_s\tend_s\n")
            for sid, (name, t0, t1, parent) in enumerate(self.spans):
                fh.write(f"{sid}\t{parent}\t{self.run_id}\t{name}\t"
                         f"{t0 - self._epoch:.9f}\t{t1 - self._epoch:.9f}\n")
