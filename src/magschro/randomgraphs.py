"""Seeded random graphs, functions and gauges for the property suites.

Everything here is driven by a numpy Generator, so suites are bit
reproducible given a seed.
"""

from __future__ import annotations

import cmath
import math

import numpy as np

from .functions import EdgeFunction, VertexFunction
from .graphs import EdgeData, ExplicitGraph, VertexData


def _log_uniform(rng, low=0.1, high=10.0):
    return math.exp(rng.uniform(math.log(low), math.log(high)))


def random_connected_graph(rng: np.random.Generator, *, min_vertices=4, max_vertices=40,
                           phases=True, ensure_minorant=False) -> ExplicitGraph:
    """A random connected weighted graph on integer vertices 1..n.

    Vertex and edge weights are log-uniform in [0.1, 10] and phases are
    uniform on the unit circle.  With ``ensure_minorant=True`` the potential
    is drawn so that W >= -q holds everywhere (with q > 1 generically),
    which is what the energy estimates presume.
    """
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
        pair = (min(u, v), max(u, v))
        pairs.add(pair)

    vertices = {}
    for x in range(1, n + 1):
        w = _log_uniform(rng)
        if ensure_minorant:
            q = 1.0 + abs(rng.normal(0.0, 2.0))
            W = -q + rng.exponential(2.0)
        else:
            q = 1.0 + abs(rng.normal(0.0, 2.0))
            W = rng.normal(0.0, 5.0)
        vertices[x] = VertexData(w, W, q)

    edges = {}
    for pair in sorted(pairs):
        a = _log_uniform(rng)
        sigma = cmath.exp(1j * rng.uniform(0.0, 2.0 * math.pi)) if phases else 1.0 + 0.0j
        edges[pair] = EdgeData(a, sigma)
    return ExplicitGraph(vertices, edges)


def random_function(rng: np.random.Generator, ids, *, max_support=None,
                    real=False) -> VertexFunction:
    """Normal(0, 2) values, complex unless ``real``, on a random subset of ``ids``."""
    cap = len(ids) if max_support is None else min(max_support, len(ids))
    size = int(rng.integers(1, cap + 1))
    chosen = rng.choice(len(ids), size=size, replace=False)
    if real:
        return VertexFunction({ids[int(i)]: float(rng.normal(0.0, 2.0)) for i in chosen})
    return VertexFunction({ids[int(i)]: complex(rng.normal(0.0, 2.0), rng.normal(0.0, 2.0))
                           for i in chosen})


def random_vertex_function(rng: np.random.Generator, g, *, max_support=None,
                           real=False) -> VertexFunction:
    return random_function(rng, list(g.vertices()), max_support=max_support, real=real)


def random_edge_function(rng: np.random.Generator, g, *, max_support=None,
                         twist=1) -> EdgeFunction:
    keys = g.edges()
    cap = len(keys) if max_support is None else min(max_support, len(keys))
    size = int(rng.integers(1, cap + 1))
    chosen = rng.choice(len(keys), size=size, replace=False)
    values = {keys[int(i)]: complex(rng.normal(0.0, 2.0), rng.normal(0.0, 2.0))
              for i in chosen}
    return EdgeFunction(g, values, twist=twist)


def random_gauge(rng: np.random.Generator, g) -> dict:
    """A random unit scalar per vertex."""
    return {x: cmath.exp(1j * rng.uniform(0.0, 2.0 * math.pi)) for x in g.vertices()}


def gauge_transformed(g: ExplicitGraph, tau: dict) -> ExplicitGraph:
    """Replace sigma(e) by conj(tau(o)) sigma(e) tau(t) on every edge.

    Together with u -> tau u this is a unitary change of variables, so
    differential norms and truncation spectra are unchanged.
    """
    vertices = {x: g.vertex(x) for x in g.vertices()}
    edges = {}
    for e in g.edges():
        data = g.edge_data(e)
        sigma = tau[e.origin].conjugate() * data.phase * tau[e.terminus]
        edges[(e.origin, e.terminus)] = EdgeData(data.weight, sigma)
    return ExplicitGraph(vertices, edges, degree_bound=g.degree_bound)
