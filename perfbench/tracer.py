"""Span tracer for the capelli layers, installed from outside the package.

Each traced function or method is replaced, in every binding it is called
through, by a wrapper that opens a span (name, start, end, parent span) and
updates the counters of that layer.  Spans are folded into per-name totals
as they close, so memory stays bounded however many calls a pass makes:
self time is the span's duration minus the time its child spans cover, and
the (parent, child) pairs are kept as call-edge counts.

Bindings are found by identity: a class attribute is replaced on its class
(``MultiPoly.__rmul__`` is wrapped wherever it is the same function as
``__mul__``), and a module-level function is replaced in its defining
module and in every other loaded ``capelli`` module that imported it by
name, such as ``bfunction.twisted_apply`` and ``modules.weyl_apply``.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter, defaultdict

# (module of capelli, attribute path, span name); a target missing from the
# package is skipped, so the layers it belongs to simply read zero
TARGETS = [
    ("poly", "MultiPoly.__mul__", "poly.mul"),
    ("poly", "MultiPoly.__rmul__", "poly.mul"),
    ("poly", "MultiPoly.divide_exact", "poly.divide_exact"),
    ("poly", "MultiPoly.partial", "poly.partial"),
    ("poly", "UniPoly.__mul__", "poly.upoly_mul"),
    ("poly", "UniPoly.__rmul__", "poly.upoly_mul"),
    ("poly", "UniPoly.shift", "poly.upoly_shift"),
    ("weyl", "twisted_apply", "weyl.twisted_apply"),
    ("weyl", "twisted_canonical", "weyl.twisted_canonical"),
    ("weyl", "weyl_apply", "weyl.weyl_apply"),
    ("catalog", "instantiate", "catalog.instantiate"),
    ("bfunction", "compute_b", "bfunction.compute_b"),
    ("bfunction", "verify_table", "bfunction.verify_table"),
    ("bfunction", "verify_annihilation", "bfunction.verify_annihilation"),
    ("bfunction", "presentation_for", "bfunction.presentation_for"),
    ("algebra", "a_mul", "algebra.a_mul"),
    ("algebra", "confluence_exhaustive", "algebra.confluence"),
    ("algebra", "confluence_fuzz", "algebra.confluence"),
    ("modules", "mat_mul", "modules.mat_mul"),
    ("modules", "validate", "modules.validate"),
    ("modules", "build_ladder", "modules.build_ladder"),
    ("modules", "break_points", "modules.break_points"),
    ("modules", "psi_of_ladder", "modules.psi_of_ladder"),
    ("modules", "equivalence_witness", "modules.equivalence_witness"),
    ("expr", "parse_expr", "expr.parse_expr"),
    ("expr", "fmt_expr", "expr.fmt_expr"),
    ("expr", "eval_expr", "expr.eval_expr"),
    ("cli", "main", "cli.main"),
]

LAYERS = ["poly", "weyl", "catalog", "bfunction", "algebra", "modules", "expr", "cli"]


def _terms_out(key):
    def hook(tr, args, result, own):
        tr.counts[key] += len(result.terms)
    return hook


def _division(tr, args, result, own):
    if result is None:
        tr.counts["poly.divide_exact.failed"] += 1
        tr.fail_self_s += own


def _canonical(tr, args, result, own):
    e = args[0]
    tr.counts["weyl.twisted_canonical.levels_removed"] += e.m - result.m
    peak = "weyl.twisted_canonical.peak_q_terms"
    tr.counts[peak] = max(tr.counts[peak], len(e.q.terms))


def _confluence(tr, args, result, own):
    tr.counts["algebra.confluence.words_checked"] += result.words_checked


HOOKS = {
    "poly.mul": _terms_out("poly.mul.out_terms"),
    "weyl.weyl_apply": _terms_out("weyl.weyl_apply.out_terms"),
    "poly.divide_exact": _division,
    "weyl.twisted_canonical": _canonical,
    "algebra.confluence": _confluence,
}


def capelli_modules():
    return [m for k, m in list(sys.modules.items())
            if m is not None and (k == "capelli" or k.startswith("capelli."))]


def rebind(original, replacement):
    """Point every loaded capelli module global that is `original` at `replacement`."""
    for mod in capelli_modules():
        for name, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, name, replacement)


class Tracer:
    def __init__(self):
        self.stack = []                  # open spans: [child seconds, name]
        self.calls = Counter()
        self.self_s = defaultdict(float)
        self.counts = Counter()
        self.edges = Counter()           # (parent name, name) -> spans
        self.fail_self_s = 0.0

    def wrap(self, name, fn):
        stack, clock, hook = self.stack, time.perf_counter, HOOKS.get(name)
        calls, self_s, edges = self.calls, self.self_s, self.edges

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            frame = [0.0, name]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = clock() - start
                stack.pop()
                own = dur - frame[0]
                if parent is not None:
                    parent[0] += dur
                calls[name] += 1
                self_s[name] += own
                edges[(parent[1] if parent else "", name)] += 1
            if hook is not None:
                hook(self, args, result, own)
            return result

        return functools.update_wrapper(traced, fn)

    def install(self):
        """Wrap every target in every binding."""
        done = {}
        for modname, path, name in TARGETS:
            owner = sys.modules.get("capelli." + modname)
            *holders, attr = path.split(".")
            for h in holders:
                owner = getattr(owner, h, None)
            original = vars(owner).get(attr) if owner is not None else None
            if original is None:
                continue
            if id(original) not in done:
                done[id(original)] = (original, self.wrap(name, original))
            wrapper = done[id(original)][1]
            if holders:
                setattr(owner, attr, wrapper)
            else:
                rebind(original, wrapper)

    def reset(self):
        """Start a new phase; call only while no span is open."""
        for acc in (self.calls, self.self_s, self.counts, self.edges):
            acc.clear()
        self.fail_self_s = 0.0

    def report(self):
        return {
            "calls": dict(self.calls),
            "self_s": dict(self.self_s),
            "counts": dict(self.counts),
            "fail_self_s": self.fail_self_s,
            "edges": {f"{a}>{b}": n for (a, b), n in sorted(self.edges.items())},
        }


def counters(report):
    """The part of a report that must repeat exactly from pass to pass."""
    return {"calls": report["calls"], "counts": report["counts"], "edges": report["edges"]}


def layer_metrics(report):
    """Per-layer metrics of one traced pass, by the names BENCHMARK.json lists."""
    calls, own = report["calls"], report["self_s"]
    out = dict(report["counts"])
    for name in {n for _, _, n in TARGETS}:
        out[name + ".calls"] = calls.get(name, 0)
        out[name + ".self_s"] = own.get(name, 0.0)
    for layer in LAYERS:
        out[layer + ".self_s"] = layer_self_s(report, layer)
    divisions = out["poly.divide_exact.calls"]
    ok = divisions - out.get("poly.divide_exact.failed", 0)
    out["poly.divide_exact.ok_ratio"] = ok / divisions if divisions else 0.0
    out["poly.divide_exact.fail_self_s"] = report["fail_self_s"]
    out["poly.upoly.self_s"] = out["poly.upoly_mul.self_s"] + out["poly.upoly_shift.self_s"]
    out["trace.spans"] = sum(calls.values())
    return out


def layer_self_s(report, layer):
    return sum(v for k, v in report["self_s"].items() if k.startswith(layer + "."))
