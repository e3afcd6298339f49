"""Span tracing around the package's public functions, installed from outside.

The tracer replaces each traced function at every binding the package looks
it up through: ``lp.conic_membership`` is also reachable as
``net.conic_membership`` and ``cone.conic_membership``, so all three names
are swapped for one wrapper.  Methods are swapped on their class.  Nothing
under ``src/`` changes; ``uninstall`` puts every original back.

A span is ``(name, start, end, parent, request)``: ``parent`` is the index of
the enclosing traced span (-1 at top level) and ``request`` names the
benchmark call that caused it.  Spans stay in memory until ``write``.  A
span's self time is its duration minus the durations of its direct
children, which never overlap because the package is single-threaded.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
from collections import Counter
from time import perf_counter

PACKAGE = "credalcones"

ROUTES = (
    "positive-span",
    "cached-separator",
    "local-assembly",
    "product-separator",
    "exact-lp",
    "zero-convention",
    "canonical-witness",
)

# (metric, unit, better); BENCHMARK.json lists the same names under per_layer
PER_LAYER = [
    ("lp.conic_membership.calls", "count", "lower"),
    ("lp.conic_membership.self_s", "s", "lower"),
    ("lp.conic_membership.cells", "count", "lower"),
    ("lp.conic_membership.max_cells", "count", "lower"),
    ("lp.contains_zero.calls", "count", "lower"),
    ("lp.contains_zero.self_s", "s", "lower"),
    ("lp.LinearSystem.solve.calls", "count", "lower"),
    ("lp.LinearSystem.solve.self_s", "s", "lower"),
    ("lp.LinearSystem.solve.cells", "count", "lower"),
    ("lp.errors", "count", "lower"),
    ("net.member_with_certificate.calls", "count", "lower"),
    ("net.member_with_certificate.self_s", "s", "lower"),
    ("net.structured_member.calls", "count", "lower"),
    ("net.structured_member.self_s", "s", "lower"),
    ("net.lower_prevision.self_s", "s", "lower"),
    *[
        (f"net.route.{r}", "count", "lower" if r == "exact-lp" else "higher")
        for r in ROUTES
    ],
    ("net.quick_hit_ratio", "ratio", "higher"),
    ("net.build_joint.self_s", "s", "lower"),
    ("cone.is_coherent.calls", "count", "lower"),
    ("cone.is_coherent.self_s", "s", "lower"),
    ("cone.member_with_certificate.calls", "count", "lower"),
    ("cone.member_with_certificate.self_s", "s", "lower"),
    ("oracle.positivity_audit.self_s", "s", "lower"),
    ("oracle.fm_membership.calls", "count", "lower"),
    ("oracle.fm_membership.self_s", "s", "lower"),
    ("core.indicator.calls", "count", "lower"),
    ("core.indicator.self_s", "s", "lower"),
    ("cli.load_network.self_s", "s", "lower"),
    ("cli.run_query.self_s", "s", "lower"),
    ("trace.untraced_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
    ("trace.spans", "count", "lower"),
]


def _conic_cells(args, kwargs) -> int:
    target, generators = args[0], args[1]
    return len(target) * len(generators)


def _system_cells(args, kwargs) -> int:
    system = args[0]
    return len(system._rows) * system.num_vars


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.counts: Counter = Counter()
        self.max_cells: Counter = Counter()
        self.request = ""
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        mod = {
            m: importlib.import_module(f"{PACKAGE}.{m}")
            for m in ("lp", "net", "cone", "oracle", "core", "cli")
        }
        self._function(mod["lp"], "conic_membership", "lp.conic_membership", _conic_cells)
        self._function(mod["lp"], "contains_zero", "lp.contains_zero")
        self._method(mod["lp"], "LinearSystem", "solve", "lp.LinearSystem.solve", _system_cells)
        for meth in ("member_with_certificate", "structured_member"):
            self._method(mod["net"], "JointModel", meth, f"net.{meth}", on_result=self._membership)
        self._method(mod["net"], "JointModel", "contains_zero", "net.contains_zero", on_result=self._route)
        self._method(mod["net"], "JointModel", "lower_prevision", "net.lower_prevision")
        self._method(mod["net"], "CredalNet", "build_joint", "net.build_joint")
        self._method(mod["cone"], "AssessmentCone", "is_coherent", "cone.is_coherent")
        self._method(mod["cone"], "AssessmentCone", "member_with_certificate", "cone.member_with_certificate")
        self._function(mod["oracle"], "positivity_audit", "oracle.positivity_audit")
        self._function(mod["oracle"], "fm_membership", "oracle.fm_membership")
        self._function(mod["core"], "indicator", "core.indicator")
        self._function(mod["cli"], "load_network", "cli.load_network")
        self._function(mod["cli"], "run_query", "cli.run_query")

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    def _function(self, module, attr: str, name: str, cells=None) -> None:
        """Swap a module-level function at every package module binding it."""
        original = getattr(module, attr)
        wrapped = self._wrap(original, name, cells)
        for mod_name, owner in list(sys.modules.items()):
            if mod_name != PACKAGE and not mod_name.startswith(PACKAGE + "."):
                continue
            for key, value in list(vars(owner).items()):
                if value is original:
                    setattr(owner, key, wrapped)
                    self._undo.append((owner, key, original))

    def _method(self, module, cls_name: str, attr: str, name: str, cells=None, on_result=None) -> None:
        cls = getattr(module, cls_name)
        original = vars(cls)[attr]
        setattr(cls, attr, self._wrap(original, name, cells, on_result))
        self._undo.append((cls, attr, original))

    def _wrap(self, fn, name: str, cells=None, on_result=None):
        tracer = self
        is_lp = name.startswith("lp.")

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            counts = tracer.counts
            counts[name + ".calls"] += 1
            if cells is not None:
                n = cells(args, kwargs)
                counts[name + ".cells"] += n
                if n > tracer.max_cells[name]:
                    tracer.max_cells[name] = n
            stack = tracer._stack
            parent = stack[-1] if stack else -1
            index = len(tracer.spans)
            tracer.spans.append(None)
            stack.append(index)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception:
                if is_lp:
                    counts["lp.errors"] += 1
                raise
            finally:
                tracer.spans[index] = (name, start, perf_counter(), parent, tracer.request)
                stack.pop()
            if on_result is not None:
                on_result(result)
            return result

        return traced

    # -- result hooks -------------------------------------------------------

    def _route(self, result) -> None:
        self.counts["net.route." + result.route] += 1

    def _membership(self, result) -> None:
        self._route(result)
        self.counts["membership"] += 1
        if result.route != "exact-lp":
            self.counts["membership.quick"] += 1

    # -- reporting ----------------------------------------------------------

    def self_times(self) -> Counter:
        own: Counter = Counter()
        spans = self.spans
        for name, start, end, parent, _ in spans:
            own[name] += end - start
            if parent >= 0:
                own[spans[parent][0]] -= end - start
        return own

    def layer_metrics(self, untraced_s: float, traced_s: float) -> dict[str, float]:
        own = self.self_times()
        membership = self.counts["membership"]
        values: dict[str, float] = {}
        for metric, _, _ in PER_LAYER:
            if metric.endswith(".self_s"):
                values[metric] = own[metric[: -len(".self_s")]]
            elif metric.endswith(".max_cells"):
                values[metric] = self.max_cells[metric[: -len(".max_cells")]]
            else:
                values[metric] = self.counts[metric]
        values["net.quick_hit_ratio"] = (
            self.counts["membership.quick"] / membership if membership else 0.0
        )
        values["trace.untraced_s"] = untraced_s
        values["trace.overhead_s"] = traced_s - untraced_s
        values["trace.spans"] = len(self.spans)
        return values

    def write(self, path) -> None:
        """One JSON array per line: name, start and end (seconds from the
        first span), parent index, request."""
        origin = self.spans[0][1] if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, request in self.spans:
                fh.write(
                    json.dumps([name, round(start - origin, 9), round(end - origin, 9), parent, request])
                )
                fh.write("\n")
