"""Per-graph oracle for the seeded property suites.

The two suite loops of :mod:`magschro.suites` written one graph and one
sample at a time: one graph, one patch and five residual calls per random
graph, one vertex function and two ``edge_average`` calls per square-average
sample.  The random graphs and functions are drawn one number per call, as
loops over scalar draws, in the order of the stream that
:mod:`magschro.randomgraphs` documents; the extra pairs are gathered in a set,
a support by a stable sort of its keys.  numpy draws the same numbers one
call at a time as in one array call.  Weights and phases come from the drawn
logs and angles by the library's formula, ``np.exp`` of an array, since
``math.exp`` can differ from it in the last bit.  The suites draw the same
numbers in the same order, so their stacked evaluation can be checked against
these loops for equality.  The square-average loop also records each sample's
margin and whether the edge's two end values are equal.
"""

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


_LOG_LOW, _LOG_HIGH = math.log(0.1), math.log(10.0)


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

    logs = [rng.uniform(_LOG_LOW, _LOG_HIGH) for _ in range(n)]
    q = [1.0 + abs(rng.normal(0.0, 2.0)) for _ in range(n)]
    if ensure_minorant:
        W = [-q[i] + rng.exponential(2.0) for i in range(n)]
    else:
        W = [rng.normal(0.0, 5.0) for _ in range(n)]

    pairs = sorted(pairs)
    edge_logs, angles = [], []
    for _ in pairs:
        edge_logs.append(rng.uniform(_LOG_LOW, _LOG_HIGH))
        angles.append(rng.uniform(0.0, 2.0 * math.pi))
    w, a = np.exp(np.array(logs)).tolist(), np.exp(np.array(edge_logs)).tolist()
    sigma = np.exp(1j * np.array(angles)).tolist()
    return ExplicitGraph.from_columns(list(range(1, n + 1)), w, W, q, [o for o, _ in pairs],
                                      [t for _, t in pairs], a, sigma)


def random_support(rng, count, cap):
    """The indices of a random support among ``count`` keys, of at most ``cap``."""
    size = int(rng.integers(1, min(cap, count) + 1))
    keys = [rng.random() for _ in range(count)]
    return sorted(range(count), key=keys.__getitem__)[:size]


def random_function(rng, ids, *, max_support=None, real=False):
    chosen = random_support(rng, len(ids), len(ids) if max_support is None else max_support)
    if real:
        return VertexFunction({ids[i]: float(rng.normal(0.0, 2.0)) for i in chosen})
    return VertexFunction({ids[i]: complex(rng.normal(0.0, 2.0), rng.normal(0.0, 2.0))
                           for i in chosen})


def random_vertex_function(rng, g, *, max_support=None, real=False):
    return random_function(rng, list(g.vertices()), max_support=max_support, real=real)


def random_edge_function(rng, g, *, max_support=None, twist=1):
    keys = g.edges()
    chosen = random_support(rng, len(keys), len(keys) if max_support is None else max_support)
    values = {keys[i]: complex(rng.normal(0.0, 2.0), rng.normal(0.0, 2.0)) for i in chosen}
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
    samples, then each sample's margin and whether its two end values are equal.

    A graph's samples are drawn together after it: each one's support size,
    then each one's key per vertex, each one's value per vertex, and each
    one's edge."""
    rng = np.random.default_rng(seed)
    violations = 0
    worst = float("inf")
    done = 0
    margins, equal = [], []
    while done < samples:
        g = random_connected_graph(rng, max_vertices=12)
        edges, n = g.edges(), len(g.vertices())
        k = min(len(edges) * 4, samples - done)
        sizes = [int(rng.integers(1, n + 1)) for _ in range(k)]
        keys = [[rng.random() for _ in range(n)] for _ in range(k)]
        values = [[float(rng.normal(0.0, 2.0)) for _ in range(n)] for _ in range(k)]
        picks = [int(rng.integers(0, len(edges))) for _ in range(k)]
        for size, key, value, pick in zip(sizes, keys, values, picks):
            support = sorted(range(n), key=key.__getitem__)[:size]
            phi = VertexFunction({x + 1: value[x] for x in support})
            e = edges[pick]
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
