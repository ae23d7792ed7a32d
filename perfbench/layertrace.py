"""Per-layer tracing of magschro from outside the library.

A traced run patches public callables at the points where magschro's layers
call each other, and undoes every patch when it ends, on the modules and on
the graph instances alike.  Two kinds of wrapper are used:

* span wrappers around module-level functions (for example
  ``magschro.criteria.completeness_probe``): each call becomes one span with
  a name, start, end, parent span and operation id, kept in memory and
  written out at the end of the run;
* aggregate wrappers around per-vertex calls (the graph instances' ``vertex``
  and ``neighbors`` methods and the expression closures returned by
  ``magschro.families.compile_text``): a million-vertex search makes millions
  of these, so they keep only a call count and summed times.

Both kinds share one accounting stack, so the self time of every wrapper is
its duration minus the time of the wrapped calls made inside it.  A layer's
self time is the sum over the wrappers assigned to it.
"""

from __future__ import annotations

import json
from collections import defaultdict
from time import perf_counter

_UNSET = object()  # the patched instance had no attribute of its own


class _Agg:
    """Call count, inclusive time and self time of one aggregate boundary."""

    __slots__ = ("calls", "total", "self_time")

    def __init__(self):
        self.calls = 0
        self.total = 0.0
        self.self_time = 0.0


class Tracer:
    # (module, attribute, span name, layer that owns the span's self time)
    SPANS = (
        ("criteria", "selfadjointness_criteria", "criteria.selfadjointness_criteria", "criteria"),
        ("criteria", "completeness_probe", "criteria.probe", "metric"),
        ("criteria", "shortest_paths", "criteria.window_search", "metric"),
        ("criteria", "degree_bound_check", "criteria.degree_scan", "criteria"),
        ("criteria", "minorant_check", "criteria.minorant_scan", "criteria"),
        ("criteria", "lipschitz_best_constant", "criteria.lipschitz_scan", "criteria"),
        ("metric", "shortest_paths", "metric.shortest_paths", "metric"),
        ("metric", "distance", "metric.distance", "metric"),
        ("metric", "ball", "metric.ball", "metric"),
        ("metric", "cutoff_property_check", "metric.cutoff_property_check", "metric"),
        ("spectral", "spectral_trend", "spectral.spectral_trend", "spectral"),
        ("spectral", "assemble_truncation", "spectral.assemble_truncation", "spectral"),
        ("spectral", "eigen_extremes", "spectral.eigen_extremes", "spectral"),
        ("suites", "identity_suite", "suites.identity_suite", "suites"),
        ("suites", "square_average_suite", "suites.square_average_suite", "suites"),
        ("suites", "leibniz_residual", "operators.leibniz", "operators"),
        ("suites", "product_rule_residual", "operators.product_rule", "operators"),
        ("suites", "adjointness_residual", "operators.adjointness", "operators"),
        ("suites", "composition_residual", "operators.composition", "operators"),
        ("suites", "symmetry_residual", "operators.symmetry", "operators"),
        ("suites", "random_connected_graph", "randomgraphs.random_connected_graph",
         "randomgraphs"),
        ("estimates", "energy_bound_check", "estimates.energy_bound", "estimates"),
        ("estimates", "gradient_energy_inequality", "estimates.gradient_energy", "estimates"),
        ("estimates", "tapered_defect_bound", "estimates.tapered_defect", "estimates"),
        ("graphio", "parse_graph", "graphio.parse_graph", "graphio"),
        ("families", "quadratic_well_ray", "families.quadratic_well_ray", "families"),
        ("families", "make_family", "families.make_family", "families"),
    )

    def __init__(self):
        self.spans = []  # [name, start, end, parent index, operation id]
        self.op = None
        self._stack = []
        self._active = defaultdict(int)  # span name -> open spans with that name
        self._child = 0.0  # wrapped time spent inside the innermost open wrapper
        self._span_layer = {}
        self.span_calls = defaultdict(int)
        self.span_total = defaultdict(float)
        self.span_self = defaultdict(float)
        self.aggs = defaultdict(_Agg)  # "families.vertex", "graphs.neighbors", ...
        self.closures = {}  # wrapped expression closure -> its _Agg
        self.counters = defaultdict(float)
        self._ray_vertices = []  # (vertices touched, w closure counts, w evaluations at build)
        self._patches = []

    # -- wrappers ------------------------------------------------------------

    def _span(self, name, layer, fn, after=None):
        self._span_layer[name] = layer
        tracer = self

        def wrapper(*args, **kwargs):
            index = len(tracer.spans)
            tracer.spans.append(None)
            parent = tracer._stack[-1] if tracer._stack else None
            tracer._stack.append(index)
            tracer._active[name] += 1
            saved = tracer._child
            tracer._child = 0.0
            start = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                elapsed = end - start
                tracer.span_calls[name] += 1
                tracer.span_total[name] += elapsed
                tracer.span_self[name] += elapsed - tracer._child
                tracer._child = saved + elapsed
                tracer._active[name] -= 1
                tracer._stack.pop()
                tracer.spans[index] = [name, start, end, parent, tracer.op]
            if after is not None:
                out = after(out, elapsed, args, kwargs)
            return out

        return wrapper

    def _aggregate(self, agg, fn):
        tracer = self

        def wrapper(*args):
            saved = tracer._child
            tracer._child = 0.0
            start = perf_counter()
            try:
                return fn(*args)
            finally:
                elapsed = perf_counter() - start
                agg.calls += 1
                agg.total += elapsed
                agg.self_time += elapsed - tracer._child
                tracer._child = saved + elapsed

        return wrapper

    # -- what happens after a wrapped call -----------------------------------

    def _after(self, name):
        c = self.counters

        def search(out, elapsed, args, kwargs):
            settled = len(out.distances)
            c["metric.searches"] += 1
            c["metric.settled"] += settled
            if self._active["criteria.selfadjointness_criteria"]:
                c["criteria.settled"] += settled
            if self._active["metric.cutoff_property_check"]:
                c["metric.cutoff_searches"] += 1
            return out

        def criteria(out, elapsed, args, kwargs):
            c["criteria.window_vertices"] += out.window_size
            return out

        def eigen(out, elapsed, args, kwargs):
            kind = "dense" if out.method == "dense" else "lanczos"
            c[f"spectral.{kind}_calls"] += 1
            c[f"spectral.{kind}_s"] += elapsed
            c["spectral.max_residual"] = max(c["spectral.max_residual"], out.residual)
            return out

        def assemble(out, elapsed, args, kwargs):
            c["spectral.nnz"] += out.matrix.nnz
            return out

        def residual(out, elapsed, args, kwargs):
            c["operators.max_rel_residual"] = max(c["operators.max_rel_residual"], out)
            return out

        def explicit_graph(out, elapsed, args, kwargs):
            return self.instrument_graph(out)

        def family(out, elapsed, args, kwargs):
            return self.instrument_family(out)

        def parsed(out, elapsed, args, kwargs):
            self._patch(out, "to_graph", self._span("graphio.to_graph", "graphio",
                                                    out.to_graph, explicit_graph))
            return out

        table = {
            "metric.shortest_paths": search,
            "criteria.window_search": search,
            "criteria.selfadjointness_criteria": criteria,
            "spectral.eigen_extremes": eigen,
            "spectral.assemble_truncation": assemble,
            "randomgraphs.random_connected_graph": explicit_graph,
            "families.quadratic_well_ray": family,
            "families.make_family": family,
            "graphio.parse_graph": parsed,
        }
        if name.startswith("operators."):
            return residual
        return table.get(name)

    # -- instance instrumentation -------------------------------------------

    def instrument_graph(self, g):
        """Count and time an explicit graph's ``vertex`` and ``neighbors`` calls."""
        self._patch(g, "vertex", self._aggregate(self.aggs["graphs.vertex"], g.vertex))
        self._patch(g, "neighbors", self._aggregate(self.aggs["graphs.neighbors"], g.neighbors))
        return g

    def instrument_family(self, g):
        """Like :meth:`instrument_graph` for lazy families, also tracking rebuilds.

        An explicit graph returned by ``make_family`` for a finite shape is
        instrumented as a graph.
        """
        if getattr(g, "is_finite", False):
            return self.instrument_graph(g)
        touched = set()
        add = touched.add
        vertex = g.vertex

        def touching(x):
            add(x)
            return vertex(x)

        self._patch(g, "vertex", self._aggregate(self.aggs["families.vertex"], touching))
        self._patch(g, "neighbors",
                    self._aggregate(self.aggs["families.neighbors"], g.neighbors))
        w = self.closures.get(getattr(g, "_w", None))
        self._ray_vertices.append((touched, w, w.calls if w is not None else 0))
        return g

    # -- install and remove --------------------------------------------------

    def _patch(self, owner, attribute, value):
        """Set ``owner.attribute``; an instance's own attribute is removed again."""
        self._patches.append((owner, attribute, vars(owner).get(attribute, _UNSET)))
        setattr(owner, attribute, value)

    def install(self, m):
        """Patch the magschro package ``m``; :meth:`uninstall` undoes it."""
        for module, attribute, name, layer in self.SPANS:
            owner = getattr(m, module)
            self._patch(owner, attribute,
                        self._span(name, layer, getattr(owner, attribute), self._after(name)))
        compile_text = m.families.compile_text

        def traced_compile_text(text):
            agg = _Agg()
            closure = self._aggregate(agg, compile_text(text))
            self.closures[closure] = agg
            return closure

        self._patch(m.families, "compile_text", traced_compile_text)

    def uninstall(self):
        while self._patches:
            owner, attribute, original = self._patches.pop()
            if original is _UNSET:
                delattr(owner, attribute)
            else:
                setattr(owner, attribute, original)

    # -- results -------------------------------------------------------------

    def layer_metrics(self) -> dict:
        """Every per-layer metric as ``name -> (value, unit)``.

        A metric whose layer did no work reads 0, and so does a ratio whose
        base is 0.
        """
        c = self.counters
        total, self_s = self.span_total, self.span_self
        aggs = self.aggs
        layer_self = defaultdict(float)
        for name, value in self_s.items():
            layer_self[self._span_layer[name]] += value

        def ratio(num, den):
            return num / den if den else 0.0

        expr_calls = sum(a.calls for a in self.closures.values())
        expr_busy = sum(a.self_time for a in self.closures.values())
        fam = (aggs["families.vertex"], aggs["families.neighbors"])
        gra = (aggs["graphs.vertex"], aggs["graphs.neighbors"])
        distinct = sum(len(t) for t, _, _ in self._ray_vertices)
        w_evals = sum(w.calls - base for _, w, base in self._ray_vertices if w is not None)
        cutoff_checks = self.span_calls["metric.cutoff_property_check"]
        return {
            "exprlang.evals": (expr_calls, "count"),
            "exprlang.busy_s": (expr_busy, "s"),
            "families.vertex_calls": (fam[0].calls, "count"),
            "families.neighbors_calls": (fam[1].calls, "count"),
            "families.busy_s": (fam[0].self_time + fam[1].self_time
                                + layer_self["families"], "s"),
            "families.rebuild_ratio": (ratio(w_evals, distinct), "ratio"),
            "graphs.vertex_calls": (gra[0].calls, "count"),
            "graphs.neighbors_calls": (gra[1].calls, "count"),
            "graphs.busy_s": (gra[0].self_time + gra[1].self_time, "s"),
            "graphio.parse_s": (total["graphio.parse_graph"], "s"),
            "graphio.build_s": (total["graphio.to_graph"], "s"),
            "metric.searches": (int(c["metric.searches"]), "count"),
            "metric.settled": (int(c["metric.settled"]), "count"),
            "metric.self_s": (layer_self["metric"], "s"),
            "metric.us_per_settled": (1e6 * ratio(layer_self["metric"], c["metric.settled"]),
                                      "us"),
            "metric.cutoff_check_s": (total["metric.cutoff_property_check"], "s"),
            "metric.searches_per_cutoff_check": (ratio(c["metric.cutoff_searches"],
                                                       cutoff_checks), "ratio"),
            "criteria.probe_s": (total["criteria.probe"], "s"),
            "criteria.window_search_s": (total["criteria.window_search"], "s"),
            "criteria.window_scan_s": (total["criteria.degree_scan"]
                                       + total["criteria.minorant_scan"]
                                       + total["criteria.lipschitz_scan"], "s"),
            "criteria.settled_per_window_vertex": (ratio(c["criteria.settled"],
                                                         c["criteria.window_vertices"]),
                                                   "ratio"),
            "spectral.assemble_s": (total["spectral.assemble_truncation"], "s"),
            "spectral.nnz": (int(c["spectral.nnz"]), "count"),
            "spectral.dense_calls": (int(c["spectral.dense_calls"]), "count"),
            "spectral.dense_s": (c["spectral.dense_s"], "s"),
            "spectral.lanczos_calls": (int(c["spectral.lanczos_calls"]), "count"),
            "spectral.lanczos_s": (c["spectral.lanczos_s"], "s"),
            "spectral.max_residual": (c["spectral.max_residual"], "ratio"),
            "operators.leibniz_s": (total["operators.leibniz"], "s"),
            "operators.product_rule_s": (total["operators.product_rule"], "s"),
            "operators.adjointness_s": (total["operators.adjointness"], "s"),
            "operators.composition_s": (total["operators.composition"], "s"),
            "operators.symmetry_s": (total["operators.symmetry"], "s"),
            "operators.max_rel_residual": (c["operators.max_rel_residual"], "ratio"),
            "randomgraphs.build_s": (total["randomgraphs.random_connected_graph"], "s"),
            "estimates.energy_bound_s": (total["estimates.energy_bound"], "s"),
            "estimates.gradient_energy_s": (total["estimates.gradient_energy"], "s"),
            "estimates.tapered_defect_s": (total["estimates.tapered_defect"], "s"),
        }

    def write_spans(self, path):
        """Write the kept spans as JSON lines, one span per line."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            for index, span in enumerate(self.spans):
                if span is None:
                    continue
                name, start, end, parent, op = span
                handle.write(json.dumps({"id": index, "name": name, "start": start,
                                         "end": end, "parent": parent, "op": op}) + "\n")
