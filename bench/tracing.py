"""Spans and counters for the traced run, installed from outside the package.

`Tracer.install` wraps every public function of every `tensorgap` module in
each module namespace that holds it, so calls between modules
(`tensorgap.degeneration.restrict`, say) are seen as well as calls from the
benchmark.  A few methods carry a layer's work and are wrapped on their
class.  The `fields` dunder methods get counters only: a span per scalar
operation would cost more than the operation.

Spans are kept in memory as parallel arrays (name, parent, start, end) and
written out when the run ends; self time is computed from them afterwards.
"""

from __future__ import annotations

import functools
import inspect
import json
import os
import sys
import time
from array import array

PACKAGE = "tensorgap"

# Span names of the functions the per-layer metrics are built from; any other
# public function is traced as "<module>.<function>".
SPAN_NAMES = {
    "degeneration.grassmann_degenerates": "degeneration.grassmann",
    "degeneration.pluecker_wedge": "degeneration.pluecker",
    "degeneration.WedgePoint.proportional_to": "degeneration.pluecker",
    "degeneration.construct_w_degeneration": "degeneration.construct",
    "degeneration.verify_certificate": "degeneration.verify",
    "ratfunc.RatFunc.__init__": "ratfunc.normalize",
    "ratfunc.RatFunc.coefficient": "ratfunc.coefficient",
    "ratfunc.RatFunc.substitute_power": "ratfunc.substitute",
    "linalg.mat_rank": "linalg.rank",
    "linalg.mat_det": "linalg.det",
    "linalg.mat_solve": "linalg.solve",
    "linalg.mat_inverse": "linalg.inverse",
    "tensors.lift_tensor": "tensors.lift",
    "ranks.pr_at_least_two": "ranks.pr_gate",
    "ranks.rank_signature": "ranks.signature",
    "ranks.has_rank_one_flattening": "ranks.rank_one_gate",
    "ranks.subrank_bruteforce": "ranks.subrank",
    "ranks.generic_compress": "ranks.compress",
    "classify.unit_restriction_witness": "classify.unit_witness",
    "classify.cayley_hyperdet": "classify.cayley",
    "classify.classify_222": "classify.orbit222",
}

METHODS = (
    ("degeneration", "WedgePoint", "proportional_to"),
    ("ratfunc", "RatFunc", "__init__"),
    ("ratfunc", "RatFunc", "coefficient"),
    ("ratfunc", "RatFunc", "substitute_power"),
)

# Elimination spans are split by the ring of the matrix argument.
RING_TAGGED = {"linalg.rank", "linalg.det", "linalg.solve", "linalg.inverse"}

COUNTERS = {
    "fields.scalar_ops": ("Scalar", ("__add__", "__radd__", "__sub__", "__rsub__",
                                     "__mul__", "__rmul__", "__truediv__", "__rtruediv__")),
    "fields.coerce": ("FieldSpec", ("coerce",)),
    "fields.spec_eq": ("FieldSpec", ("__eq__",)),
}


def _ring_tag(args) -> str:
    p = getattr(args[0].ring, "p", False)
    return "eps" if p is False else "q" if p is None else "fp"


def _file_size(path) -> int:
    return os.path.getsize(path)


# What a span records about its result, summed per span name: accepted
# Grassmann limits, "yes" subrank answers, witnesses found, census rows and
# certificate bytes written or read.
OUTCOMES = {
    "degeneration.grassmann": lambda result, args: bool(result),
    "ranks.subrank": lambda result, args: bool(result),
    "classify.unit_witness": lambda result, args: result is not None,
    "census.census_222": lambda result, args: len(result),
    "io.save_certificate": lambda result, args: _file_size(args[1]),
    "io.load_certificate": lambda result, args: _file_size(args[0]),
}


class Tracer:
    """Spans with parent links and named counters; records only while `on`."""

    def __init__(self):
        self.on = False
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("l")
        self.parent = array("l")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self.counts = {key: 0 for key in COUNTERS}
        self.outcomes: dict[str, int] = {}
        self._patched: list[tuple] = []

    # -- spans -----------------------------------------------------------------

    def open(self, name: str) -> int:
        ident = self._ids.get(name)
        if ident is None:
            ident = self._ids[name] = len(self.names)
            self.names.append(name)
        i = len(self.start)
        self.name.append(ident)
        self.parent.append(self._stack[-1])
        self.end.append(0.0)
        self._stack.append(i)
        self.start.append(time.perf_counter())
        return i

    def close(self, i: int) -> None:
        self.end[i] = time.perf_counter()
        self._stack.pop()

    def _span_wrapper(self, fn, name):
        tag = _ring_tag if name in RING_TAGGED else None
        outcome = OUTCOMES.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.on:
                return fn(*args, **kwargs)
            span = name if tag is None else f"{name}.{tag(args)}"
            i = self.open(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(i)
            if outcome is not None:
                self.outcomes[span] = self.outcomes.get(span, 0) + outcome(result, args)
            return result

        return traced

    def _count_wrapper(self, fn, key):
        counts = self.counts

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            if self.on:
                counts[key] += 1
            return fn(*args, **kwargs)

        return counted

    # -- installing ---------------------------------------------------------------

    def _patch(self, owner, attr, value):
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        modules = {
            name: module for name, module in sys.modules.items()
            if name == PACKAGE or name.startswith(PACKAGE + ".")
        }
        wrappers = {}
        for mod_name, module in modules.items():
            short = mod_name[len(PACKAGE) + 1:]
            for attr, obj in vars(module).items():
                if inspect.isfunction(obj) and obj.__module__ == mod_name and not attr.startswith("_"):
                    key = f"{short}.{attr}"
                    wrappers[obj] = self._span_wrapper(obj, SPAN_NAMES.get(key, key))
        for module in modules.values():
            for attr, obj in list(vars(module).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    self._patch(module, attr, wrappers[obj])
        for short, cls_name, attr in METHODS:
            cls = getattr(modules[f"{PACKAGE}.{short}"], cls_name)
            key = f"{short}.{cls_name}.{attr}"
            self._patch(cls, attr, self._span_wrapper(vars(cls)[attr], SPAN_NAMES[key]))
        fields = modules[f"{PACKAGE}.fields"]
        for key, (cls_name, attrs) in COUNTERS.items():
            cls = getattr(fields, cls_name)
            for attr in attrs:
                self._patch(cls, attr, self._count_wrapper(vars(cls)[attr], key))

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    # -- results ------------------------------------------------------------------

    def span_totals(self):
        """Per span name: (calls, self seconds), and per span index its name."""
        n = len(self.start)
        child = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        calls: dict[str, int] = {}
        self_s: dict[str, float] = {}
        for i in range(n):
            name = self.names[self.name[i]]
            calls[name] = calls.get(name, 0) + 1
            self_s[name] = self_s.get(name, 0.0) + (self.end[i] - self.start[i] - child[i])
        return calls, self_s

    def child_calls(self, parent_name: str, child_name: str, direct: bool = True) -> int:
        """Spans named child_name below a span named parent_name (directly
        below it, or anywhere beneath it)."""
        want_parent = self._ids.get(parent_name)
        want_child = self._ids.get(child_name)
        if want_parent is None or want_child is None:
            return 0
        total = 0
        for i in range(len(self.start)):
            if self.name[i] != want_child:
                continue
            p = self.parent[i]
            while p >= 0 and self.name[p] != want_parent and not direct:
                p = self.parent[p]
            if p >= 0 and self.name[p] == want_parent:
                total += 1
        return total

    def write(self, path: str) -> None:
        """Spans as JSON lines: a header with the name table, then one
        [name, parent, start, end] per span."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"names": self.names, "counters": self.counts}) + "\n")
            for i in range(len(self.start)):
                fh.write(json.dumps([self.name[i], self.parent[i], self.start[i], self.end[i]]) + "\n")


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer, gate_agreements: int) -> dict:
    """The per-layer metrics (name -> (value, unit)) of one traced run."""
    calls, self_s = tracer.span_totals()
    out = {}

    def span(metric, names):
        names = [names] if isinstance(names, str) else names
        out[f"{metric}.calls"] = (sum(calls.get(n, 0) for n in names), "count")
        out[f"{metric}.self_s"] = (sum(self_s.get(n, 0.0) for n in names), "s")

    def ratio(metric, num, den_span, unit="ratio"):
        out[metric] = (_ratio(num, calls.get(den_span, 0)), unit)

    span("degeneration.grassmann", "degeneration.grassmann")
    ratio("degeneration.grassmann.accept_ratio",
          tracer.outcomes.get("degeneration.grassmann", 0), "degeneration.grassmann")
    for name in ("pluecker", "construct", "verify"):
        span(f"degeneration.{name}", f"degeneration.{name}")
    span("ratfunc.normalize", "ratfunc.normalize")
    span("ratfunc.coefficient", "ratfunc.coefficient")
    out["ratfunc.substitute.calls"] = (calls.get("ratfunc.substitute", 0), "count")
    for name in ("rank.q", "rank.fp", "rank.eps", "det.q", "det.eps", "solve.eps"):
        span(f"linalg.{name}", f"linalg.{name}")
    span("linalg.inverse", [n for n in calls if n.startswith("linalg.inverse.")])
    for name in ("flatten", "restrict", "lift"):
        span(f"tensors.{name}", f"tensors.{name}")
    for key, value in tracer.counts.items():
        out[key if key == "fields.scalar_ops" else f"{key}.calls"] = (value, "count")
    span("ranks.pr_gate", "ranks.pr_gate")
    ratio("ranks.pr_gate.oracle_agreement", gate_agreements, "ranks.pr_gate")
    span("ranks.signature", "ranks.signature")
    span("ranks.rank_one_gate", "ranks.rank_one_gate")
    span("ranks.subrank", "ranks.subrank")
    ratio("ranks.subrank.yes_ratio", tracer.outcomes.get("ranks.subrank", 0), "ranks.subrank")
    span("ranks.compress", "ranks.compress")
    ratio("ranks.compress.attempts_per_call",
          tracer.child_calls("ranks.compress", "tensors.restrict"), "ranks.compress", "count")
    span("classify.trichotomy", "classify.trichotomy")
    ratio("classify.trichotomy.compressions_per_call",
          tracer.child_calls("classify.trichotomy", "ranks.compress"), "classify.trichotomy", "count")
    span("classify.unit_witness", "classify.unit_witness")
    ratio("classify.unit_witness.found_ratio",
          tracer.outcomes.get("classify.unit_witness", 0), "classify.unit_witness")
    span("classify.cayley", "classify.cayley")
    span("classify.orbit222", "classify.orbit222")
    rows = tracer.outcomes.get("census.census_222", 0)
    out["census.rows"] = (rows, "count")
    out["census.cayley_per_row"] = (
        _ratio(tracer.child_calls("census.census_222", "classify.cayley", direct=False), rows), "count")
    out["census.census_222.self_s"] = (self_s.get("census.census_222", 0.0), "s")
    for name in ("load_tensor", "load_certificate", "save_certificate"):
        out[f"io.{name}.self_s"] = (self_s.get(f"io.{name}", 0.0), "s")
    out["io.cert_bytes"] = (
        tracer.outcomes.get("io.save_certificate", 0) + tracer.outcomes.get("io.load_certificate", 0),
        "bytes")
    out["cli.main.self_s"] = (self_s.get("cli.main", 0.0), "s")
    return out
