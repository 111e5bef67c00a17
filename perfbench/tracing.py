"""Per-layer tracing of truncmod from outside the package.

``Tracer.install`` wraps the public functions and methods of each truncmod
module.  A function is replaced in every truncmod module namespace that binds
it, so a name imported with ``from .groebner import SpanGB`` is caught too;
a class keeps its identity and has its methods wrapped in place.

A wrapped call records a span: name, start, end, parent span and job id.
Spans stay in memory until ``dump``.  The small kernels in ``_COUNT_ONLY``
run millions of times per pass; they are counted but get no span, so their
time is charged to the layer that called them.
"""

from __future__ import annotations

import functools
import inspect
import json
import time
import weakref

LAYERS = ("cli", "arith", "groebner", "multiring", "fpmod", "dualtor",
          "regseq", "doublepoint", "hilbert")

_COUNT_ONLY = {
    "arith.MonomialOrder.key", "arith.mono_mul", "arith.mono_divides",
    "arith.mono_div", "arith.mono_lcm", "arith.Poly.is_zero",
    "arith.Poly.__bool__", "arith.Poly.__eq__", "arith.Poly.__init__",
    "arith.Poly.__add__", "arith.Poly.__sub__", "arith.Poly.__neg__",
    "arith.Poly.coefficient", "arith.Poly.constant_term",
    "arith.PolyRing.__eq__", "arith.MonomialOrder.__eq__", "arith.PolyRing.zero",
    "arith.PolyRing.one", "arith.PolyRing.const",
    "groebner.ModuleOrder.__init__", "groebner.ModuleOrder.key", "groebner.vec_lead", "groebner.vec_sub_scaled",
    "groebner.vec_add", "groebner.vec_scale",
}
# Dunder methods worth a span or a count; other dunders are left alone.
_DUNDERS = ("__init__", "__mul__", "__pow__", "__add__", "__sub__", "__neg__",
            "__eq__", "__bool__")
# name -> per-layer metric holding the inclusive time of its outermost calls
_TIMED = {
    "arith.PolyRing.parse": "arith.parse_s",
    "arith.PolyRing.format": "arith.format_s",
    "groebner.buchberger": "groebner.buchberger_s",
    "groebner.SpanGB.__init__": "groebner.spangb_build_s",
    "groebner.kernel_through": "groebner.kernel_through_s",
    "fpmod.is_balanced": "fpmod.is_balanced_s",
    "fpmod.comparison_maps": "fpmod.comparison_maps_s",
    "dualtor.torsion": "dualtor.torsion_s",
    "hilbert.reduced_hilbert_polynomial": "hilbert.reduced_hilbert_polynomial_s",
    "regseq.is_regular_sequence": "regseq.is_regular_sequence_s",
}
_LIFT_USES = ("groebner.SpanGB.nf_with_lift", "groebner.SpanGB.lift",
              "groebner.SpanGB.syzygies")


def _span_key(args, kwargs):
    """Content key of a SpanGB build: ring, order, rank and generators."""
    bound = inspect.signature(type(args[0]).__init__).bind(*args, **kwargs).arguments
    ring, vecs = bound["ring"], bound["vecs"]
    order = bound.get("order") or ring.order
    return (ring.variables, order.kind, order.block_split, bound["rank"],
            tuple(tuple(sorted(v.items())) for v in vecs))


class Tracer:
    def __init__(self, modules: dict):
        """``modules`` maps layer names to the imported truncmod modules."""
        self.modules = modules
        self.spans: list[tuple] = []
        self.names: list[str] = []
        self.calls: dict[str, int] = {}
        self.self_ns = dict.fromkeys(LAYERS, 0)
        self.timed_ns = dict.fromkeys(_TIMED.values(), 0)
        self.job = -1
        self._stack: list[list] = []      # [span index, name id, child ns]
        self._depth: dict[str, int] = {}  # open calls per timed name
        self._restore: list[tuple] = []
        self.spair_reductions = 0
        self.spair_zero = 0
        self.basis_size_max = 0
        self._span_keys: set = set()
        self.spangb_builds = 0
        self.spangb_repeats = 0
        self._lift_used: weakref.WeakSet = weakref.WeakSet()
        self.spangb_lift_used = 0

    # -- installation ---------------------------------------------------------

    def _targets(self):
        """(qualified name, owner, attribute, original) for every callable
        to wrap; functions are listed once per namespace that binds them."""
        out = []
        for layer, mod in self.modules.items():
            for attr, obj in vars(mod).items():
                if getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj) and not attr.startswith("_"):
                    qual = f"{layer}.{attr}"
                    for other in self.modules.values():
                        for name, bound in vars(other).items():
                            if bound is obj:
                                out.append((qual, other, name, obj))
                elif inspect.isclass(obj) and not attr.startswith("_"):
                    for name, member in vars(obj).items():
                        if not inspect.isfunction(member):
                            continue
                        if name.startswith("_") and name not in _DUNDERS:
                            continue
                        out.append((f"{layer}.{attr}.{name}", obj, name, member))
        return out

    def install(self) -> None:
        for qual, owner, name, original in self._targets():
            wrapper = self._wrap(qual, original)
            self._restore.append((owner, name, original))
            setattr(owner, name, wrapper)

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._restore):
            setattr(owner, name, original)
        self._restore.clear()

    def _wrap(self, qual: str, fn):
        layer = qual.split(".", 1)[0]
        self.calls.setdefault(qual, 0)
        calls = self.calls
        if qual in _COUNT_ONLY:
            @functools.wraps(fn)
            def counted(*args, **kwargs):
                calls[qual] += 1
                return fn(*args, **kwargs)
            return counted

        name_id = len(self.names)
        self.names.append(qual)
        stack, spans, self_ns = self._stack, self.spans, self.self_ns
        timed = _TIMED.get(qual)
        depth = self._depth
        clock = time.perf_counter_ns
        before = self._before.get(qual)
        after = self._after.get(qual)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            calls[qual] += 1
            if before is not None:
                before(self, args, kwargs)
            parent = stack[-1][0] if stack else -1
            index = len(spans)
            spans.append(None)
            frame = [index, name_id, 0]
            stack.append(frame)
            if timed is not None:
                depth[qual] = depth.get(qual, 0) + 1
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                self_ns[layer] += duration - frame[2]
                if stack:
                    stack[-1][2] += duration
                spans[index] = (name_id, start, end, parent, self.job)
                if timed is not None:
                    depth[qual] -= 1
                    if depth[qual] == 0:
                        self.timed_ns[timed] += duration
            if after is not None:
                after(self, args, result)
            return result
        return traced

    # -- hooks for the groebner ratios ------------------------------------------

    def _on_spangb(self, args, kwargs):
        self.spangb_builds += 1
        key = _span_key(args, kwargs)
        if key in self._span_keys:
            self.spangb_repeats += 1
        else:
            self._span_keys.add(key)

    def _on_lift(self, args, kwargs):
        span = args[0]
        if span not in self._lift_used:
            self._lift_used.add(span)
            self.spangb_lift_used += 1

    def _after_reduce(self, args, result):
        parent = self._stack[-1][1] if self._stack else -1
        if parent >= 0 and self.names[parent] == "groebner.buchberger":
            self.spair_reductions += 1
            if not result:
                self.spair_zero += 1

    def _after_buchberger(self, args, result):
        self.basis_size_max = max(self.basis_size_max, len(result))

    _before = {"groebner.SpanGB.__init__": _on_spangb,
               **dict.fromkeys(_LIFT_USES, _on_lift)}
    _after = {"groebner.vec_reduce": _after_reduce,
              "groebner.buchberger": _after_buchberger}

    # -- results -----------------------------------------------------------------

    def metrics(self, raw_s: float, traced_s: float, untraced_s: float) -> dict:
        """Every per-layer metric, as ``{name: (value, unit)}``.  ``raw_s``
        is the traced pass's job time as measured; ``traced_s`` and
        ``untraced_s`` are the traced and untraced passes' job times at the
        reference speed, to which every reported time is scaled."""
        scale = traced_s / raw_s / 1e9
        out = {}
        for layer in LAYERS:
            calls = sum(c for q, c in self.calls.items() if q.split(".", 1)[0] == layer)
            out[f"{layer}.calls"] = (calls, "count")
            out[f"{layer}.self_s"] = (self.self_ns[layer] * scale, "s")
            out[f"{layer}.share"] = (self.self_ns[layer] / 1e9 / raw_s, "frac")
        out["arith.mul_calls"] = (self.calls.get("arith.Poly.__mul__", 0), "count")
        out["arith.order_key_calls"] = (self.calls.get("arith.MonomialOrder.key", 0), "count")
        out["groebner.vec_reduce_calls"] = (self.calls.get("groebner.vec_reduce", 0), "count")
        out["groebner.reduce_to_zero_frac"] = (
            self.spair_zero / max(self.spair_reductions, 1), "frac")
        out["groebner.basis_size_max"] = (self.basis_size_max, "count")
        out["groebner.spangb_builds"] = (self.spangb_builds, "count")
        out["groebner.spangb_repeat_frac"] = (
            self.spangb_repeats / max(self.spangb_builds, 1), "frac")
        out["groebner.spangb_lift_used_frac"] = (
            self.spangb_lift_used / max(self.spangb_builds, 1), "frac")
        for metric, ns in self.timed_ns.items():
            out[metric] = (ns * scale, "s")
        out["trace_overhead_frac"] = (traced_s / untraced_s - 1.0, "frac")
        return out

    def dump(self, path) -> None:
        """Write one JSON line per span: name, start and end (ns), parent
        span index (-1 for none) and job id."""
        with open(path, "w", encoding="utf-8") as fh:
            for name_id, start, end, parent, job in self.spans:
                fh.write(json.dumps([self.names[name_id], start, end, parent, job]))
                fh.write("\n")
