"""Vertex-loop oracles for the criteria scan and the truncation assembly.

Vertex by vertex over the neighbor oracle, with no window and no arrays:
the degree, minorant and Lipschitz checks of :mod:`magschro.criteria` and
the truncation matrix of :mod:`magschro.spectral` written as plain loops,
so the array passes can be checked against them.
"""

import numpy as np
import scipy.sparse as sp

from magschro.criteria import DegreeCheck, LipschitzCheck, MinorantCheck, positive_part
from magschro.errors import InputError, UnknownVertexError
from magschro.graphs import normalize_edge, vertex_sort_key
from magschro.spectral import TruncatedOperator


def window_walk(g, window):
    """Degree, minorant and Lipschitz checks in one vertex-ordered pass over a window set.

    Each edge is taken where the walk first meets it: at its smaller endpoint,
    or at its window endpoint when the other one lies outside the window.
    """
    window = set(window)
    observed = 0
    worst = 0.0
    vertex_witness = None
    best = 0.0
    edge_witness = None
    for x in sorted(window, key=vertex_sort_key):
        rx = g.vertex(x)
        gap = positive_part(-rx.minorant - rx.potential)
        if gap > worst:
            worst = gap
            vertex_witness = x
        nbrs = g.neighbors(x)
        observed = max(observed, len(nbrs))
        for e, data in nbrs:
            key = normalize_edge(e)
            if key != e and key.origin in window:
                continue
            ry = g.vertex(e.terminus)
            ro, rt = (rx, ry) if key == e else (ry, rx)
            gap = abs(rt.minorant ** -0.5 - ro.minorant ** -0.5)
            ratio = gap / (min(ro.weight, rt.weight) / data.weight) ** 0.5
            if ratio > best:
                best = ratio
                edge_witness = key
    declared = g.degree_bound
    return (DegreeCheck(observed=observed, declared=declared,
                        passed=declared is None or observed <= declared),
            MinorantCheck(worst_violation=float(worst), witness=vertex_witness, passed=worst == 0),
            LipschitzCheck(constant=best, witness=edge_witness))


def loop_truncation(g, window) -> TruncatedOperator:
    """The truncation of the operator to ``window``, entry by entry."""
    ordered = sorted(set(window), key=vertex_sort_key)
    if not ordered:
        raise InputError("window must be nonempty")
    for x in ordered:
        if not g.has_vertex(x):
            raise UnknownVertexError(x)
    index = {x: i for i, x in enumerate(ordered)}
    weights = np.array([g.vertex(x).weight for x in ordered], dtype=float)

    rows, cols, vals = [], [], []
    for i, x in enumerate(ordered):
        rec = g.vertex(x)
        degree_term = 0.0
        for e, data in g.neighbors(x):
            degree_term += data.weight
            j = index.get(e.terminus)
            if j is not None:
                # coupling coefficient of u(y): -(a(e) / w(x)) * conj(sigma(e))
                rows.append(i)
                cols.append(j)
                vals.append(-data.weight * complex(data.phase).conjugate() / rec.weight)
        rows.append(i)
        cols.append(i)
        vals.append(complex(degree_term / rec.weight + rec.potential))

    matrix = sp.csr_matrix((vals, (rows, cols)), shape=(len(ordered), len(ordered)))
    return TruncatedOperator(tuple(ordered), index, matrix, weights)
