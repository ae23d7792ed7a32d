"""Seeded random graphs, functions and gauges for the property suites.

Everything here is driven by a numpy Generator, so suites are bit
reproducible given a seed.  Consecutive draws from one distribution are
made in one call, which draws the same numbers as one call per number.
"""

from __future__ import annotations

import cmath
import math
from itertools import chain
from typing import NamedTuple

import numpy as np

from .errors import GraphStructureError
from .functions import EdgeFunction, VertexFunction
from .graphs import ExplicitGraph


def _log_uniform(rng, low=0.1, high=10.0):
    return math.exp(rng.uniform(math.log(low), math.log(high)))


# the bounds of an edge's two uniform draws: its log weight, then its phase angle
_EDGE_LOW, _EDGE_HIGH = (math.log(0.1), 0.0), (math.log(10.0), 2.0 * math.pi)


class GraphColumns(NamedTuple):
    """The columns of a graph on the vertices 1..n: w, W and q by vertex, and the
    edges ``origins[k] < termini[k]`` in sorted order with their a and sigma."""

    n: int
    w: list
    W: list
    q: list
    origins: list
    termini: list
    a: list
    sigma: list

    def graph(self) -> ExplicitGraph:
        return ExplicitGraph.from_columns(range(1, self.n + 1), *self[1:])


def random_columns(rng: np.random.Generator, *, min_vertices=4, max_vertices=40,
                   ensure_minorant=False) -> GraphColumns:
    """The columns of :func:`random_connected_graph`, drawn as it draws them."""
    n = int(rng.integers(min_vertices, max_vertices + 1))
    pairs = set(zip(rng.integers(1, np.arange(2, n + 1)).tolist(), range(2, n + 1)))
    extra = int(rng.integers(0, n))
    for u, v in rng.integers(1, n + 1, size=(extra, 2)).tolist():
        if u != v:
            pairs.add((min(u, v), max(u, v)))

    w, W, q = [], [], []
    for _ in range(n):
        w.append(_log_uniform(rng))
        q.append(1.0 + abs(rng.normal(0.0, 2.0)))
        W.append(-q[-1] + rng.exponential(2.0) if ensure_minorant else rng.normal(0.0, 5.0))

    pairs = sorted(pairs)
    # per edge a log-uniform weight, then a uniform angle: one uniform draw each, in turn
    drawn = rng.uniform(_EDGE_LOW, _EDGE_HIGH, size=(len(pairs), 2)).tolist()
    a = [math.exp(x) for x, _ in drawn]
    sigma = [cmath.exp(1j * angle) for _, angle in drawn]
    return GraphColumns(n, w, W, q, [o for o, _ in pairs], [t for _, t in pairs], a, sigma)


def random_connected_graph(rng: np.random.Generator, *, min_vertices=4, max_vertices=40,
                           ensure_minorant=False) -> ExplicitGraph:
    """A random connected weighted graph on integer vertices 1..n.

    Vertex and edge weights are log-uniform in [0.1, 10] and phases are
    uniform on the unit circle.  With ``ensure_minorant=True`` the potential
    is drawn so that W >= -q holds everywhere (with q > 1 generically),
    which is what the energy estimates presume.
    """
    return random_columns(rng, min_vertices=min_vertices, max_vertices=max_vertices,
                          ensure_minorant=ensure_minorant).graph()


def stacked_graph(drawn) -> tuple:
    """The disjoint union of the graphs of the columns ``drawn``, each one's ids
    shifted by the vertices before it, and the first id of each.

    The union gets every check that each graph alone gets, with each graph
    checked for connectivity; a fault is named as :func:`random_connected_graph`
    names it for the first graph that has one.
    """
    sizes = [c.n for c in drawn]
    counts = [len(c.origins) for c in drawn]
    offsets = np.cumsum([0, *sizes[:-1]])
    shift = np.repeat(offsets, counts)
    origins, termini = (np.fromiter(chain.from_iterable(getattr(c, name) for c in drawn),
                                    np.int64, sum(counts)) + shift
                        for name in ("origins", "termini"))
    w, W, q, a, sigma = (list(chain.from_iterable(getattr(c, name) for c in drawn))
                         for name in ("w", "W", "q", "a", "sigma"))
    try:
        g = ExplicitGraph.from_columns(range(1, sum(sizes) + 1), w, W, q, origins.tolist(),
                                       termini.tolist(), a, sigma, blocks=sizes)
    except GraphStructureError:
        for c in drawn:
            c.graph()  # raises the first graph's own fault
        raise
    return g, (offsets + 1).tolist()


def random_function(rng: np.random.Generator, ids, *, max_support=None,
                    real=False) -> VertexFunction:
    """The vertex function of :func:`random_values` on ``ids``."""
    return VertexFunction(random_values(rng, ids, max_support=max_support, real=real))


def random_values(rng: np.random.Generator, keys, *, max_support=None, real=False) -> dict:
    """Normal(0, 2) values, complex unless ``real``, on a random subset of the
    sequence ``keys`` of at most ``max_support`` keys, by key."""
    cap = len(keys) if max_support is None else min(max_support, len(keys))
    size = int(rng.integers(1, cap + 1))
    chosen = rng.choice(len(keys), size=size, replace=False).tolist()
    if real:
        values = rng.normal(0.0, 2.0, size=size).tolist()
    else:  # the real and imaginary part of each value in turn
        values = rng.normal(0.0, 2.0, size=(size, 2)).view(np.complex128)[:, 0].tolist()
    return dict(zip(map(keys.__getitem__, chosen), values))


def random_vertex_function(rng: np.random.Generator, g, *, max_support=None,
                           real=False) -> VertexFunction:
    return random_function(rng, list(g.vertices()), max_support=max_support, real=real)


def random_edge_function(rng: np.random.Generator, g, *, max_support=None,
                         twist=1) -> EdgeFunction:
    return EdgeFunction(g, random_values(rng, g.edges(), max_support=max_support), twist=twist)


def random_gauge(rng: np.random.Generator, g) -> dict:
    """A random unit scalar per vertex."""
    return {x: cmath.exp(1j * rng.uniform(0.0, 2.0 * math.pi)) for x in g.vertices()}


def gauge_transformed(g: ExplicitGraph, tau: dict) -> ExplicitGraph:
    """Replace sigma(e) by conj(tau(o)) sigma(e) tau(t) on every edge.

    Together with u -> tau u this is a unitary change of variables, so
    differential norms and truncation spectra are unchanged.
    """
    ids = g.vertices()
    win = g.closure_window(ids)
    rows = win.rows()
    later = np.flatnonzero(rows < win.indices)
    origins, termini = win.ids[rows[later]].tolist(), win.ids[win.indices[later]].tolist()
    sigma = [tau[o].conjugate() * phase * tau[t]
             for o, phase, t in zip(origins, win.sigma[later].tolist(), termini)]
    return ExplicitGraph.from_columns(ids, win.w, win.W, win.q, origins, termini, win.a[later],
                                      sigma, degree_bound=g.degree_bound)
