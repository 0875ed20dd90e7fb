"""Span tracer that measures fracdec's layers from outside the package.

The tracer replaces public functions at the module attribute their
caller looks up (for example ``fracdec.metric.simplex_distance``, which
``fracdec.operator`` reaches through ``metric.simplex_distance``) with
wrappers that record a span or bump a counter, and puts the originals
back on ``uninstall``.  Spans are kept in memory as
``[name, start, end, parent]`` lists; a layer's self time is its span's
duration minus the durations of its child spans.

Calls that happen once per quadrature node (the L2 integrand, Gamma)
are counted but get no span: a span per call would cost more than the
work it measures.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import os
import time
from collections import Counter, defaultdict

import numpy as np

# Span name -> per-layer metric reporting its inclusive time.  Names
# listed in SELF_TIMED report self time instead, so nested layers are
# not counted twice.
INCLUSIVE_TIMED = {
    "analysis.l2": "analysis.l2_s",
    "metric.vertex_dist": "metric.vertex_dist_s",
    "operator.apply": "operator.apply_s",
    "special.ml": "special.ml_s",
    "analysis.whitney": "analysis.whitney_s",
    "analysis.edge_integrals": "analysis.edge_integrals_s",
    "analysis.compare": "analysis.compare_s",
    "mesh.build": "mesh.build_s",
    "mesh.coboundary": "mesh.coboundary_s",
}
SELF_TIMED = {
    "metric.simplex_dist": "metric.simplex_dist_s",
    "operator.build": "operator.build_s",
    "oracles.reference": "oracles.reference_s",
    "mesh.io": "mesh.io_s",
    "cli.main": "cli.self_s",
}
COUNTERS = (
    "analysis.quad_calls", "analysis.ref_evals",
    "metric.simplex_dist_calls", "metric.simplex_dist_unique",
    "metric.table_bytes",
    "operator.build_calls", "operator.weight_bytes",
    "operator.apply_calls", "operator.apply_flops",
    "special.ml_calls", "special.gamma_calls", "oracles.reference_points",
    "mesh.build_calls", "mesh.io_bytes",
    "cli.commands", "cli.output_bytes",
)


class Tracer:
    """Records spans and counters while active; does nothing otherwise."""

    def __init__(self):
        self.active = False
        self.spans = []
        self.counts = Counter()
        self._stack = []
        self._saved = []
        self._quad_depth = 0
        self._dist_keys = set()

    # -- recording -----------------------------------------------------

    def reset(self):
        self.spans = []
        self.counts = Counter()
        self._stack = []
        self._dist_keys = set()

    def add(self, name, amount=1):
        if self.active:
            self.counts[name] += amount

    @contextlib.contextmanager
    def span(self, name):
        if not self.active:
            yield
            return
        record = [name, time.perf_counter(), None,
                  self._stack[-1] if self._stack else None]
        index = len(self.spans)
        self.spans.append(record)
        self._stack.append(index)
        try:
            yield
        finally:
            self._stack.pop()
            record[2] = time.perf_counter()

    def span_self_times(self):
        """Self time of every span, in recording order."""
        out = [end - start for _, start, end, _ in self.spans]
        for _, start, end, parent in self.spans:
            if parent is not None:
                out[parent] -= end - start
        return out

    def self_times(self):
        """Total self time per span name."""
        out = defaultdict(float)
        for span, own in zip(self.spans, self.span_self_times()):
            out[span[0]] += own
        return dict(out)

    def inclusive_times(self):
        """Total duration per span name, counting only the outermost
        span when a name nests inside itself."""
        out = defaultdict(float)
        for i, (name, start, end, parent) in enumerate(self.spans):
            p = parent
            while p is not None and self.spans[p][0] != name:
                p = self.spans[p][3]
            if p is None:
                out[name] += end - start
        return dict(out)

    def layer_metrics(self):
        """Per-layer metrics of everything recorded since the last reset."""
        inclusive = self.inclusive_times()
        selfs = self.self_times()
        out = {metric: inclusive.get(name, 0.0)
               for name, metric in INCLUSIVE_TIMED.items()}
        out.update({metric: selfs.get(name, 0.0)
                    for name, metric in SELF_TIMED.items()})
        out.update({name: int(self.counts[name]) for name in COUNTERS})
        calls = self.counts["metric.simplex_dist_calls"]
        out["metric.dist_useful_ratio"] = (
            self.counts["metric.simplex_dist_unique"] / calls if calls else 0.0)
        return out

    # -- installing wrappers ------------------------------------------

    def _patch(self, owner, attr, replacement):
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def uninstall(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)
        self.active = False

    def _spanned(self, name, fn, after=None):
        tracer = self

        def wrapper(*args, **kwargs):
            with tracer.span(name):
                result = fn(*args, **kwargs)
            if after is not None:
                after(args, kwargs, result)
            return result
        return wrapper

    def _counted(self, counter, fn):
        tracer = self

        def wrapper(*args, **kwargs):
            tracer.counts[counter] += 1
            return fn(*args, **kwargs)
        return wrapper

    def install(self, fracdec):
        """Wrap fracdec's layer entry points and start recording."""
        analysis, cli, mesh = fracdec.analysis, fracdec.cli, fracdec.mesh
        metric, operator = fracdec.metric, fracdec.operator
        oracles, special = fracdec.oracles, fracdec.special
        tracer = self

        # analysis: L2 norm, its quadrature and integrand evaluations.
        self._patch(analysis, "l2_error_stairs",
                    self._spanned("analysis.l2", analysis.l2_error_stairs))
        quad = analysis.quad

        def traced_quad(func, *args, **kwargs):
            tracer.counts["analysis.quad_calls"] += 1

            def integrand(t):
                tracer.counts["analysis.ref_evals"] += 1
                return func(t)
            tracer._quad_depth += 1
            try:
                return quad(integrand, *args, **kwargs)
            finally:
                tracer._quad_depth -= 1
        self._patch(analysis, "quad", traced_quad)

        # analysis: Whitney lifting, duality integrals, comparison.
        for attr, name in (("whitney_reconstruct", "analysis.whitney"),
                           ("edge_integrals", "analysis.edge_integrals"),
                           ("eval_at_barycenters", "analysis.compare"),
                           ("relative_l2_per_triangle", "analysis.compare")):
            self._patch(analysis, attr, self._spanned(name, getattr(analysis, attr)))

        # metric: vertex and simplex distance tables.
        def after_vertex(args, kwargs, table):
            tracer.counts["metric.table_bytes"] += table.entries.nbytes

        def after_simplex(args, kwargs, table):
            tracer.counts["metric.simplex_dist_calls"] += 1
            tracer.counts["metric.table_bytes"] += table.entries.nbytes
            key = (table.p, table.mode, _complex_digest(args[0]))
            if key not in tracer._dist_keys:
                tracer._dist_keys.add(key)
                tracer.counts["metric.simplex_dist_unique"] += 1
        self._patch(metric, "all_pairs_vertex_distance",
                    self._spanned("metric.vertex_dist",
                                  metric.all_pairs_vertex_distance, after_vertex))
        self._patch(metric, "simplex_distance",
                    self._spanned("metric.simplex_dist",
                                  metric.simplex_distance, after_simplex))

        # operator: assembly and application.
        def after_build(args, kwargs, op):
            tracer.counts["operator.build_calls"] += 1
            weights = getattr(op, "weights", None)
            if isinstance(weights, np.ndarray):
                tracer.counts["operator.weight_bytes"] += weights.nbytes

        def after_apply(args, kwargs, out):
            op = args[0]
            tracer.counts["operator.apply_calls"] += 1
            tracer.counts["operator.apply_flops"] += _apply_flops(op)
        self._patch(operator, "build_frac_derivative",
                    self._spanned("operator.build",
                                  operator.build_frac_derivative, after_build))
        self._patch(operator.FracOperator, "apply",
                    self._spanned("operator.apply",
                                  operator.FracOperator.apply, after_apply))

        # special / oracles: Mittag-Leffler, Gamma, reference functions.
        def after_ml(args, kwargs, value):
            tracer.counts["special.ml_calls"] += 1
        self._patch(oracles, "mittag_leffler",
                    self._spanned("special.ml", oracles.mittag_leffler, after_ml))
        for module in (special, oracles, operator):
            self._patch(module, "gamma",
                        self._counted("special.gamma_calls", module.gamma))
        get_family = oracles.get_family

        def traced_get_family(*args, **kwargs):
            family = get_family(*args, **kwargs)
            return dataclasses.replace(
                family, reference=tracer._traced_reference(family.reference))
        self._patch(oracles, "get_family", traced_get_family)

        # mesh: construction, coboundary, file I/O.
        def after_build_mesh(args, kwargs, cx):
            tracer.counts["mesh.build_calls"] += 1
        from_simplices = mesh.SimplicialComplex.__dict__["from_simplices"].__func__
        self._patch(mesh.SimplicialComplex, "from_simplices", classmethod(
            self._spanned("mesh.build", from_simplices, after_build_mesh)))
        self._patch(mesh, "build_coboundary",
                    self._spanned("mesh.coboundary", mesh.build_coboundary))
        for attr, path_arg in (("load_off", 0), ("load_json", 0),
                               ("save_off", 1), ("save_json", 1)):
            def after_io(args, kwargs, result, path_arg=path_arg):
                tracer.counts["mesh.io_bytes"] += os.path.getsize(args[path_arg])
            self._patch(mesh, attr,
                        self._spanned("mesh.io", getattr(mesh, attr), after_io))

        # cli: one span per command.
        def after_cli(args, kwargs, code):
            tracer.counts["cli.commands"] += 1
        self._patch(cli, "main", self._spanned("cli.main", cli.main, after_cli))
        self.active = True

    def _traced_reference(self, reference):
        tracer = self

        def wrapper(*args, **kwargs):
            tracer.counts["oracles.reference_points"] += int(np.size(args[0]))
            if tracer._quad_depth:
                return reference(*args, **kwargs)
            with tracer.span("oracles.reference"):
                return reference(*args, **kwargs)
        return wrapper


def _complex_digest(cx):
    """Content hash of a complex: equal hashes mean equal distance tables."""
    h = hashlib.sha1()
    for p in sorted(cx.simplices):
        h.update(np.ascontiguousarray(cx.simplices[p]).tobytes())
    if cx.vertex_coords is not None:
        h.update(np.ascontiguousarray(cx.vertex_coords).tobytes())
    h.update(np.ascontiguousarray(cx.edge_lengths).tobytes())
    return h.hexdigest()


def _apply_flops(op):
    """Computed floating-point operations of one dense ``apply``.

    Coboundary product 2·nnz(D); with a weight matrix, a dense E×E
    matrix-vector product 2·E² plus E for the scale (and E² more when a
    right-sign mask is multiplied in).
    """
    flops = 2 * int(op.coboundary.nnz)
    weights = getattr(op, "weights", None)
    if isinstance(weights, np.ndarray):
        rows, cols = weights.shape
        flops += 2 * rows * cols + rows
        if getattr(op, "signs", None) is not None:
            flops += rows * cols
    return flops
