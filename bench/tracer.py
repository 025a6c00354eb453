"""Outside-in tracing of polaris's layers for the benchmark's traced run.

Nothing inside the package is edited.  `Tracer.install` replaces public
functions with timing wrappers at every polaris module that holds them
(so calls between modules are caught too) and wraps methods on their
classes; `Tracer.uninstall` puts the originals back.

Each wrapped call is a span: name, start, end, parent span and request
id.  Spans live in memory until `write` is called at the end of the run.
`Polynomial` methods run millions of times, so they are aggregated per
(name, parent name) instead of kept one by one.  A layer's self time is
its span's duration minus the time its child spans cover; the tracer's
own bookkeeping after a call is counted as child time of the parent, so
it does not inflate the parent's self time.
"""

from __future__ import annotations

import itertools
import json
import sys
from time import perf_counter

# (module, function, span name).  Several functions may share a span name.
FUNCTIONS = (
    ("cli", "main", "cli.main"),
    ("cli", "load_problem", "cli.load_problem"),
    ("cli", "_emit", "cli.emit"),
    ("parsing", "parse_polynomial", "parsing.parse"),
    ("checks", "run_suite", "checks.suite"),
    ("checks", "structure_checks", "checks.structure"),
    ("checks", "map_checks", "checks.map"),
    ("checks", "routes_check", "checks.pair"),
    ("checks", "closure_check", "checks.pair"),
    ("checks", "morphism_check", "checks.pair"),
    ("checks", "pairing_bracket_check", "checks.pair"),
    ("checks", "jacobi_result", "checks.triple"),
    ("checks", "random_corpus_checks", "checks.random_corpus"),
    ("checks", "nambu_rk1_checks", "checks.nambu"),
    ("checks", "nambu_r3n_checks", "checks.nambu"),
    ("sampling", "random_polarized", "sampling.random_polarized"),
    ("hamiltonian", "hamiltonian_field", "hamiltonian.field"),
    ("hamiltonian", "decompose_polarized", "hamiltonian.decompose"),
    ("hamiltonian", "bracket", "hamiltonian.bracket"),
    ("hamiltonian", "bracket_via_theta", "hamiltonian.bracket_via_theta"),
    ("hamiltonian", "lie_bracket", "hamiltonian.lie_bracket"),
    ("hamiltonian", "jacobi_check", "hamiltonian.jacobi"),
    ("nambu", "jacobian_det", "nambu.jacobian_det"),
    ("nambu", "nambu_field_rk1", "nambu.field_rk1"),
    ("nambu", "nambu_field_r3n", "nambu.field_r3n"),
    ("nambu", "nambu_bracket_r3n", "nambu.bracket_r3n"),
    ("nambu", "verify_relation_rk1", "nambu.relation_rk1"),
    ("nambu", "verify_relation_r3n", "nambu.relation_r3n"),
    ("geometry", "interior_product", "geometry.interior_product"),
    ("geometry", "differential", "geometry.differential"),
    ("geometry", "xi_pairing", "geometry.xi_pairing"),
    ("geometry", "check_ksymplectic", "geometry.check_ksymplectic"),
    ("linalg", "kernel", "linalg.kernel"),
    ("linalg", "invert", "linalg.invert"),
    ("dynamics", "rk4_integrate", "dynamics.rk4"),
    ("dynamics", "conservation_report", "dynamics.conservation"),
)

# (module, class, method, span name) for methods kept as single spans.
METHODS = (
    ("hamiltonian", "PolarizedForm", "to_map", "hamiltonian.to_map"),
    ("hamiltonian", "GeneralPoissonTensor", "apply", "hamiltonian.tensor_apply"),
    ("geometry", "KSymplecticStructure", "canonical", "geometry.canonical"),
    ("dynamics", "Trajectory", "write_csv", "dynamics.write_csv"),
)

# Polynomial methods, aggregated per (name, parent).
POLY_METHODS = (
    ("__mul__", "poly.mul"), ("__rmul__", "poly.mul"),
    ("__add__", "poly.addsub"), ("__radd__", "poly.addsub"),
    ("__sub__", "poly.addsub"), ("__rsub__", "poly.addsub"),
    ("__neg__", "poly.neg"),
    ("partial", "poly.partial"),
    ("__eq__", "poly.eq"),
    ("evaluate", "poly.evaluate"), ("__call__", "poly.evaluate"),
    ("__init__", "poly.new"),
    ("to_string", "poly.to_string"),
)

_TIMED = sorted({name for _, _, name in FUNCTIONS}
                | {name for *_, name in METHODS}
                | {name for _, name in POLY_METHODS})

# Every per-layer metric the traced run prints, in order, with its unit.
LAYER_METRICS = tuple(
    [(f"{name}.{part}", unit) for name in _TIMED
     for part, unit in (("calls", "count"), ("self_s", "s"))]
    + [("poly.mul.term_pairs", "count"), ("poly.mul.terms_out", "count"),
       ("poly.mul.out_per_pair", "ratio"), ("poly.peak_terms", "count"),
       ("poly.max_coeff_bits", "bits"),
       ("geometry.canonical.rebuild_ratio", "ratio"),
       ("checks.results", "count"), ("checks.failed", "count"),
       ("dynamics.rk4.steps", "count"), ("dynamics.rk4.rhs_evals", "count"),
       ("dynamics.write_csv.bytes", "B"),
       ("trace.requests", "count"), ("trace.overhead_ratio", "ratio")])


def _coeff_bits(poly) -> int:
    return max((max(c.numerator.bit_length(), c.denominator.bit_length())
                for c in poly.terms.values()), default=0)


class Tracer:
    """Wraps polaris from outside and collects spans and counters."""

    def __init__(self):
        self.request_id = None
        self._stack = [[0.0, None, None]]  # frames: child time, span id, name
        self._ids = itertools.count(1)
        self._patches = []
        self.spans = []   # (id, name, start, end, parent id, request, self_s)
        self.agg = {}     # (name, parent name) -> [calls, total_s, self_s]
        self.counts = {}
        self.charts = set()
        self.dims = set()
        self.reset()

    def reset(self):
        """Forget what was recorded; the installed wrappers keep working."""
        self.spans.clear()
        self.agg.clear()
        self.counts.update(dict.fromkeys(
            ("term_pairs", "terms_out", "peak_terms", "max_coeff_bits",
             "results", "failed", "steps", "csv_bytes"), 0))
        self.charts.clear()
        self.dims.clear()

    # -- wrappers ---------------------------------------------------------

    def _span(self, name, fn, pre=None, post=None):
        stack, ids, spans, tracer = self._stack, self._ids, self.spans, self

        def wrapper(*args, **kwargs):
            begin = perf_counter()
            parent = stack[-1]
            frame = [0.0, next(ids), name]
            token = pre(args) if pre is not None else None
            stack.append(frame)
            returned = False
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
                returned = True
                return result
            finally:
                end = perf_counter()
                stack.pop()
                spans.append((frame[1], name, start, end, parent[1],
                              tracer.request_id, end - start - frame[0]))
                if post is not None and returned:
                    post(args, result, token)
                parent[0] += perf_counter() - begin

        wrapper.__wrapped__ = fn
        return wrapper

    def _aggregated(self, name, fn, post=None):
        stack, agg = self._stack, self.agg

        def wrapper(*args, **kwargs):
            parent = stack[-1]
            frame = [0.0, None, name]
            stack.append(frame)
            returned = False
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
                returned = True
                return result
            finally:
                end = perf_counter()
                stack.pop()
                rec = agg.get((name, parent[2]))
                if rec is None:
                    rec = agg[(name, parent[2])] = [0, 0.0, 0.0]
                rec[0] += 1
                rec[1] += end - start
                rec[2] += end - start - frame[0]
                if post is not None and returned and result is not NotImplemented:
                    post(args, result)
                parent[0] += perf_counter() - start

        wrapper.__wrapped__ = fn
        return wrapper

    # -- counters -----------------------------------------------------------

    def _ring_result(self, args, result):
        counts = self.counts
        size = len(result.terms)
        if size > counts["peak_terms"]:
            counts["peak_terms"] = size
        bits = _coeff_bits(result)
        if bits > counts["max_coeff_bits"]:
            counts["max_coeff_bits"] = bits

    def _mul_result(self, args, result):
        a, b = args
        other = len(b.terms) if hasattr(b, "terms") else 1
        self.counts["term_pairs"] += len(a.terms) * other
        self.counts["terms_out"] += len(result.terms)
        self._ring_result(args, result)

    def _size_result(self, args, result):
        size = len(result.terms)
        if size > self.counts["peak_terms"]:
            self.counts["peak_terms"] = size

    def _suite_result(self, args, result, token):
        self.counts["results"] += len(result)
        self.counts["failed"] += sum(1 for r in result if not r.passed)

    def _canonical_result(self, args, result, token):
        self.charts.add(args[1])

    def _rk4_result(self, args, result, token):
        self.counts["steps"] += len(result.times) - 1
        self.dims.add(args[0].chart.dim)

    def _csv_post(self, args, result, token):
        self.counts["csv_bytes"] += args[1].tell() - token

    # -- install / uninstall ------------------------------------------------

    def _set(self, owner, attr, value):
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self):
        import polaris
        modules = [m for name, m in sorted(sys.modules.items())
                   if m is not None and (name == "polaris"
                                         or name.startswith("polaris."))]
        pres = {"dynamics.write_csv": lambda args: args[1].tell()}
        posts = {"checks.suite": self._suite_result,
                 "dynamics.rk4": self._rk4_result,
                 "geometry.canonical": self._canonical_result,
                 "dynamics.write_csv": self._csv_post}
        for mod_name, attr, name in FUNCTIONS:
            original = getattr(sys.modules[f"polaris.{mod_name}"], attr)
            wrapped = self._span(name, original, post=posts.get(name))
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._set(module, key, wrapped)
        for mod_name, cls_name, attr, name in METHODS:
            cls = getattr(sys.modules[f"polaris.{mod_name}"], cls_name)
            raw = cls.__dict__[attr]
            is_classmethod = isinstance(raw, classmethod)
            wrapped = self._span(name, raw.__func__ if is_classmethod else raw,
                                 pres.get(name), posts.get(name))
            self._set(cls, attr, classmethod(wrapped) if is_classmethod else wrapped)
        poly_posts = {"poly.mul": self._mul_result,
                      "poly.addsub": self._ring_result,
                      "poly.neg": self._size_result,
                      "poly.partial": self._size_result}
        for attr, name in POLY_METHODS:
            raw = polaris.Polynomial.__dict__[attr]
            self._set(polaris.Polynomial, attr,
                      self._aggregated(name, raw, poly_posts.get(name)))

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- results --------------------------------------------------------------

    def layer_metrics(self) -> dict[str, float]:
        """Calls, self time and counters of everything recorded so far."""
        out = {}
        for name in _TIMED:
            out[f"{name}.calls"] = 0
            out[f"{name}.self_s"] = 0.0
        for _, name, _, _, _, _, self_s in self.spans:
            out[f"{name}.calls"] += 1
            out[f"{name}.self_s"] += self_s
        for (name, _), (calls, _, self_s) in self.agg.items():
            out[f"{name}.calls"] += calls
            out[f"{name}.self_s"] += self_s
        c = self.counts
        out["poly.mul.term_pairs"] = c["term_pairs"]
        out["poly.mul.terms_out"] = c["terms_out"]
        out["poly.mul.out_per_pair"] = (c["terms_out"] / c["term_pairs"]
                                        if c["term_pairs"] else 0.0)
        out["poly.peak_terms"] = c["peak_terms"]
        out["poly.max_coeff_bits"] = c["max_coeff_bits"]
        out["geometry.canonical.rebuild_ratio"] = (
            out["geometry.canonical.calls"] / len(self.charts)
            if self.charts else 0.0)
        out["checks.results"] = c["results"]
        out["checks.failed"] = c["failed"]
        out["dynamics.rk4.steps"] = c["steps"]
        rk4_evals = sum(rec[0] for (name, parent), rec in self.agg.items()
                        if name == "poly.evaluate" and parent == "dynamics.rk4")
        out["dynamics.rk4.rhs_evals"] = (rk4_evals // max(self.dims)
                                         if self.dims else 0)
        out["dynamics.write_csv.bytes"] = c["csv_bytes"]
        return out

    def write(self, path):
        """All spans and aggregates as JSON lines, times relative to the first span."""
        origin = min((s[2] for s in self.spans), default=0.0)
        with open(path, "w", encoding="ascii") as handle:
            for sid, name, start, end, parent, request, self_s in self.spans:
                handle.write(json.dumps(
                    {"id": sid, "name": name, "start": start - origin,
                     "end": end - origin, "parent": parent, "request": request,
                     "self_s": self_s}) + "\n")
            for (name, parent), (calls, total, self_s) in sorted(
                    self.agg.items(), key=lambda item: (item[0][0], str(item[0][1]))):
                handle.write(json.dumps(
                    {"name": name, "parent": parent, "calls": calls,
                     "total_s": total, "self_s": self_s}) + "\n")
