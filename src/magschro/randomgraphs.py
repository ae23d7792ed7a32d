"""Seeded random graphs, functions and gauges for the property suites.

Each run of draws from one distribution is one array call of a numpy
Generator, so suites are bit reproducible given a seed.  The stream, in draw
order (integers uniform on the bounds given):

* a graph (:func:`random_columns`): n in [min_vertices, max_vertices]; the parent
  of each vertex k = 2..n in [1, k); a count in [0, n) of extra pairs, then their
  two ends in [1, n], pair by pair; n uniform log weights, n normal draws for q,
  n potentials W (normal, or exponential with ``ensure_minorant``); per sorted
  edge a uniform log weight, then a uniform angle.
* a function (:func:`random_entries`): the support size in [1, cap]; a uniform
  key per candidate, the support being the first ``size`` of a stable argsort
  of the keys; a normal value per point of it (real, then imaginary part if complex).
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .errors import GraphStructureError
from .functions import EdgeFunction, VertexFunction
from .graphs import ExplicitGraph

# the bounds of the uniform draws of a log weight (of a vertex or an edge), then of an angle
_LOW, _HIGH = np.array([math.log(0.1), 0.0]), np.array([math.log(10.0), 2.0 * math.pi])


class GraphColumns(NamedTuple):
    """The columns of a graph on the vertices 1..n as arrays: w, W and q by vertex,
    and the sorted edges ``origins[k] < termini[k]`` with their a and sigma."""

    n: int
    w: np.ndarray
    W: np.ndarray
    q: np.ndarray
    origins: np.ndarray
    termini: np.ndarray
    a: np.ndarray
    sigma: np.ndarray

    def graph(self, blocks=None) -> ExplicitGraph:
        """The graph; with ``blocks``, a disjoint union of parts of those sizes."""
        return ExplicitGraph.from_columns(range(1, self.n + 1), self.w, self.W, self.q,
                                          self.origins.tolist(), self.termini.tolist(),
                                          self.a, self.sigma, blocks=blocks)


def random_columns(rng: np.random.Generator, *, min_vertices=4, max_vertices=40,
                   ensure_minorant=False) -> GraphColumns:
    """The columns of :func:`random_connected_graph`, drawn as it draws them."""
    n = int(rng.integers(min_vertices, max_vertices + 1))
    tree = np.stack([rng.integers(1, np.arange(2, n + 1)), np.arange(2, n + 1)], axis=1)
    ends = rng.integers(1, n + 1, size=(int(rng.integers(0, n)), 2))
    low, high = np.sort(np.concatenate([tree, ends]), axis=1).T
    origins, termini = np.divmod(np.unique((low * (n + 1) + high)[low != high]), n + 1)
    w = np.exp(rng.uniform(_LOW[0], _HIGH[0], size=n))
    q = 1.0 + np.abs(rng.normal(0.0, 2.0, size=n))
    W = -q + rng.exponential(2.0, size=n) if ensure_minorant else rng.normal(0.0, 5.0, size=n)
    # rng.uniform(_LOW, _HIGH, size) as numpy computes it, low + (high - low) * U,
    # in three array operations, not its broadcast of the bounds element by element
    log_a, angle = (_LOW + (_HIGH - _LOW) * rng.random((len(origins), 2))).T
    return GraphColumns(n, w, W, q, origins, termini, np.exp(log_a), np.exp(1j * angle))


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
    offsets = np.cumsum([0, *sizes[:-1]])
    shift = np.repeat(offsets, [len(c.origins) for c in drawn])
    w, W, q, origins, termini, a, sigma = map(np.concatenate, zip(*(c[1:] for c in drawn)))
    try:
        g = GraphColumns(len(w), w, W, q, origins + shift, termini + shift, a, sigma).graph(sizes)
    except GraphStructureError:
        for c in drawn:
            c.graph()  # raises the first graph's own fault
        raise
    return g, (offsets + 1).tolist()


def random_entries(rng: np.random.Generator, count, *, max_support=None, real=False) -> tuple:
    """A random support of at most ``max_support`` of ``count`` keys, as an
    array of their indices, and Normal(0, 2) values on it, complex unless ``real``."""
    cap = count if max_support is None else min(max_support, count)
    size = int(rng.integers(1, cap + 1))
    chosen = rng.random(count).argsort(kind="stable")[:size]
    values = rng.normal(0.0, 2.0, size=size if real else (size, 2))
    return chosen, values if real else values.view(np.complex128)[:, 0]


def random_values(rng: np.random.Generator, keys, *, max_support=None, real=False) -> dict:
    """The values of :func:`random_entries` on the sequence ``keys``, by key."""
    chosen, values = random_entries(rng, len(keys), max_support=max_support, real=real)
    return dict(zip(map(keys.__getitem__, chosen.tolist()), values.tolist()))


def random_function(rng: np.random.Generator, ids, *, max_support=None,
                    real=False) -> VertexFunction:
    """The vertex function of :func:`random_values` on ``ids``."""
    return VertexFunction(random_values(rng, ids, max_support=max_support, real=real))


def random_vertex_function(rng: np.random.Generator, g, *, max_support=None,
                           real=False) -> VertexFunction:
    return random_function(rng, list(g.vertices()), max_support=max_support, real=real)


def random_edge_function(rng: np.random.Generator, g, *, max_support=None,
                         twist=1) -> EdgeFunction:
    return EdgeFunction(g, random_values(rng, g.edges(), max_support=max_support), twist=twist)


def random_gauge(rng: np.random.Generator, g) -> dict:
    """A random unit scalar per vertex, from one uniform angle each."""
    ids = list(g.vertices())
    return dict(zip(ids, np.exp(1j * rng.uniform(0.0, 2.0 * math.pi, size=len(ids))).tolist()))


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
