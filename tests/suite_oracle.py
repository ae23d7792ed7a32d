"""Per-graph oracle for the seeded property suites.

The two suite loops of :mod:`magschro.suites` written one graph and one
sample at a time: one graph, one patch and five residual calls per random
graph, one vertex function and two ``edge_average`` calls per square-average
sample.  The random graphs and functions are drawn one number per call, as
loops over scalar draws.  The suites draw the same numbers in the same order,
so their stacked evaluation can be checked against these loops for equality.
The square-average loop also records each sample's margin and whether the
edge's two end values are equal.
"""

import cmath
import math

import numpy as np

from magschro.functions import EdgeFunction, VertexFunction, edge_average
from magschro.graphs import ExplicitGraph
from magschro.operators import (
    Patch,
    adjointness_residual,
    composition_residual,
    leibniz_residual,
    product_rule_residual,
    symmetry_residual,
)


def _log_uniform(rng, low=0.1, high=10.0):
    return math.exp(rng.uniform(math.log(low), math.log(high)))


def random_connected_graph(rng, *, min_vertices=4, max_vertices=40, ensure_minorant=False):
    n = int(rng.integers(min_vertices, max_vertices + 1))
    pairs = set()
    for k in range(2, n + 1):
        parent = int(rng.integers(1, k))
        pairs.add((parent, k))
    extra = int(rng.integers(0, n))
    for _ in range(extra):
        u = int(rng.integers(1, n + 1))
        v = int(rng.integers(1, n + 1))
        if u == v:
            continue
        pairs.add((min(u, v), max(u, v)))

    w, W, q = [], [], []
    for _ in range(n):
        w.append(_log_uniform(rng))
        q.append(1.0 + abs(rng.normal(0.0, 2.0)))
        W.append(-q[-1] + rng.exponential(2.0) if ensure_minorant else rng.normal(0.0, 5.0))

    pairs = sorted(pairs)
    a, sigma = [], []
    for _ in pairs:
        a.append(_log_uniform(rng))
        sigma.append(cmath.exp(1j * rng.uniform(0.0, 2.0 * math.pi)))
    return ExplicitGraph.from_columns(list(range(1, n + 1)), w, W, q, [o for o, _ in pairs],
                                      [t for _, t in pairs], a, sigma)


def random_function(rng, ids, *, max_support=None, real=False):
    cap = len(ids) if max_support is None else min(max_support, len(ids))
    size = int(rng.integers(1, cap + 1))
    chosen = rng.choice(len(ids), size=size, replace=False)
    if real:
        return VertexFunction({ids[int(i)]: float(rng.normal(0.0, 2.0)) for i in chosen})
    return VertexFunction({ids[int(i)]: complex(rng.normal(0.0, 2.0), rng.normal(0.0, 2.0))
                           for i in chosen})


def random_vertex_function(rng, g, *, max_support=None, real=False):
    return random_function(rng, list(g.vertices()), max_support=max_support, real=real)


def random_edge_function(rng, g, *, max_support=None, twist=1):
    keys = g.edges()
    cap = len(keys) if max_support is None else min(max_support, len(keys))
    size = int(rng.integers(1, cap + 1))
    chosen = rng.choice(len(keys), size=size, replace=False)
    values = {keys[int(i)]: complex(rng.normal(0.0, 2.0), rng.normal(0.0, 2.0))
              for i in chosen}
    return EdgeFunction(g, values, twist=twist)


def identity_residuals(*, seed=42, graphs=200, max_vertices=40) -> dict:
    """The largest relative residual per identity over ``graphs`` random graphs."""
    rng = np.random.default_rng(seed)
    worst = dict.fromkeys(("leibniz", "product-rule", "adjointness", "composition",
                           "symmetry"), 0.0)
    for _ in range(graphs):
        g = random_connected_graph(rng, max_vertices=max_vertices)
        u = random_vertex_function(rng, g)
        v = random_vertex_function(rng, g)
        Y = random_edge_function(rng, g)
        patch = Patch.closure(g, [*u._values, *v._values], Y._values)
        for name, value in (
                ("leibniz", leibniz_residual(g, u, v, relative=True, patch=patch)),
                ("product-rule", product_rule_residual(g, u, Y, relative=True, patch=patch)),
                ("adjointness", adjointness_residual(g, u, Y, relative=True, patch=patch)),
                ("composition", composition_residual(g, u, relative=True, patch=patch)),
                ("symmetry", symmetry_residual(g, u, v, relative=True, patch=patch))):
            worst[name] = max(worst[name], value)
    return worst


def square_average(*, seed=7, samples=10_000):
    """``(samples, violations, worst_margin)`` as the loop counts them over all
    samples, then each sample's margin and whether its two end values are equal."""
    rng = np.random.default_rng(seed)
    violations = 0
    worst = float("inf")
    done = 0
    margins, equal = [], []
    while done < samples:
        g = random_connected_graph(rng, max_vertices=12)
        edges = g.edges()
        for _ in range(min(len(edges) * 4, samples - done)):
            phi = random_vertex_function(rng, g, real=True)
            e = edges[int(rng.integers(0, len(edges)))]
            lhs = edge_average(phi, e) ** 2
            rhs = edge_average(phi.pointwise(phi), e)
            margin = rhs - lhs
            worst = min(worst, margin)
            if lhs > rhs:
                violations += 1
            done += 1
            margins.append(margin)
            equal.append(phi(e.origin) == phi(e.terminus))
    return (done, violations, worst), margins, equal
