"""Phase-deformed differential calculus on weighted graphs.

The operators act on finitely supported functions, so all sums below are
finite.  Each call works on one :class:`Patch`: the window of the graph
holding the one-hop closure of the vertex supports and the ends of the edge
support (:meth:`~magschro.graphs.WeightedGraph.closure_window`), read once;
:func:`schrodinger_apply` and the residuals also take, as ``patch=``, one
built for several calls.  Formulas are array expressions over its vertices
and numbered edges; sums keep the order of the defining loops
(``np.add.at`` per vertex, ``cumsum`` across).  Float data run in float64,
or complex128 when a phase or value is complex; exact scalars
(``Fraction``, :class:`~magschro.exact.ComplexRational`) go through object
arrays and keep their exact arithmetic.  Results are Python scalars.

Each residual helper evaluates both sides of one defining identity and
returns the largest pointwise deviation: zero in exact arithmetic, at
rounding level in double precision.  With ``relative=True`` the deviation is
normalized by the magnitude of the terms entering the comparison, which is
the right yardstick for accumulated floating-point error.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property

import numpy as np

from .errors import InputError, require_finite
from .functions import EdgeFunction, VertexFunction, inner_w
from .graphs import OrientedEdge

_TINY = 1e-300


def _residual(dev, scale, relative):
    require_finite(dev, scale)
    if not relative:
        return dev
    return 0.0 if dev == 0.0 else dev / max(scale, _TINY)


class Patch:
    """A window of a graph view with its edges numbered and canonically oriented.

    Build one for the graph view ``g`` with :meth:`closure` and pass it as
    ``patch=`` to share it among calls on ``g`` whose functions it covers
    (:func:`schrodinger_apply`, the residuals, the energies of
    :mod:`magschro.estimates`).  The CSR entries with row < column are the window's unoriented edges, in
    :func:`~magschro.graphs.edge_sort_key` order: edge k joins rows
    ``o[k] < t[k]``, with ``sigma[k]`` the phase of o -> t.  ``co``, ``ct``,
    ``ca`` and ``csigma`` are the rows and data of its canonical orientation,
    which is t -> o where ``flipped`` (None when no edge of the window is).
    """

    def __init__(self, g, win):
        self.window, self.m = win, len(win.ids)
        self.row = dict(zip(win.ids.tolist(), range(self.m)))
        self.rows = win.rows()
        e = np.flatnonzero(self.rows < win.indices)
        self.o, self.t, self.sigma = self.rows[e], win.indices[e], win.sigma[e]
        self.kinds = "".join(a.dtype.kind for a in (win.w, win.W, win.a, win.sigma))
        flipped = [self.number[k] for k in g._flipped if k in self.number]
        self.flipped = None
        if flipped:
            self.flipped = np.zeros(len(e), dtype=bool)
            self.flipped[flipped] = True
            # the window holds both orientations of each of its edges, so its
            # entries by (column, row) are the reverses of those by (row, column)
            rev = np.lexsort((self.rows, win.indices))
            e = np.where(self.flipped, rev[e], e)
        self.co, self.ct = self.rows[e], win.indices[e]
        self.ca, self.csigma = win.a[e], win.sigma[e]

    @classmethod
    def closure(cls, g, vertices, edges=()) -> "Patch":
        """The patch of the one-hop closure of ``vertices`` with the ends of
        the id-ordered ``edges``: it covers vertex functions supported in
        ``vertices`` and edge functions on ``edges``."""
        return cls(g, g.closure_window(vertices, [x for k in edges for x in k]))

    @cached_property
    def ends(self):
        """Each canonical edge's terminus, then its origin, in edge order."""
        return np.stack((self.ct, self.co), axis=1).ravel()

    @cached_property
    def keys(self):
        """The id-ordered edge of each edge number."""
        ids = self.window.ids
        return list(map(OrientedEdge, ids[self.o].tolist(), ids[self.t].tolist()))

    @cached_property
    def number(self) -> dict:
        return dict(zip(self.keys, range(len(self.keys))))

    def _filled(self, size, at, values):
        """``values`` at ``at`` among zeros: objects if the graph or ``values``
        hold objects, else complex128 if either is complex, else float64.

        Object zeros are ``Fraction(0)``, so that a mean of two of them,
        (0 + 0) / 2, stays exact instead of turning into the float 0.0.
        """
        kinds = self.kinds + values.dtype.kind
        if "O" in kinds:
            out = np.full(size, Fraction(0), dtype=object)
        else:
            out = np.zeros(size, np.complex128 if "c" in kinds else np.float64)
        out[at] = values
        return out

    def vector(self, f: VertexFunction, *, interior=True):
        """The values of ``f`` by row.  Its support must be interior to the
        window, or without ``interior``, its values off the window are dropped."""
        row = self.row
        rows = np.array([row.get(x, -1) for x in f._values], dtype=np.int64)
        inside = rows >= 0
        if interior and not (inside.all() and self.window.interior[rows].all()):
            raise InputError("the window does not hold the one-hop closure of the support")
        return self._filled(self.m, rows[inside], np.array(list(f._values.values()))[inside])

    def edge_vector(self, Y: EdgeFunction):
        """The values of ``Y`` on the canonical orientations, by edge number."""
        try:
            at = [self.number[k] for k in Y._values]
        except KeyError:
            raise InputError("the window does not hold every edge of the edge function") from None
        return self.canonical(self._filled(len(self.o), at, np.array(list(Y._values.values()))),
                              Y.twist)

    def canonical(self, y, twist):
        """Edge values on the canonical orientations, from the stored ones."""
        if self.flipped is None:
            return y
        phase = self.sigma if twist == 1 else np.conj(self.sigma) if twist == -1 else 1
        return np.where(self.flipped, -phase * y, y)

    def star_sums(self, at_terminus, at_origin):
        """Per-vertex sums over the canonical edges in order, each edge adding
        ``at_terminus`` at its terminus, then ``at_origin`` at its origin."""
        values = np.empty(2 * len(self.co), np.result_type(at_terminus, at_origin))
        values[0::2] = at_terminus
        values[1::2] = at_origin
        acc = np.zeros(self.m, values.dtype)
        np.add.at(acc, self.ends, values)
        return acc

    # -- kernels: arrays by row (vertex functions) and by edge number

    def differential(self, u, conjugate_phase=False):
        """conj(sigma) u(t) - u(o), or sigma u(t) - u(o) with ``conjugate_phase``,
        per edge o -> t in id order."""
        phase = self.sigma if conjugate_phase else np.conj(self.sigma)
        return phase * u[self.t] - u[self.o]

    def codifferential(self, yc, plain=False):
        """The codifferential of the edge values ``yc`` on canonical orientations."""
        term = self.ca * yc
        inflow = term if plain else self.csigma * term
        return self.star_sums(inflow, -term) / self.window.w

    def laplacian(self, u):
        win = self.window
        term = win.a * (u[self.rows] - np.conj(win.sigma) * u[win.indices])
        acc = np.zeros(len(u), term.dtype)
        np.add.at(acc, self.rows, term)
        return acc / win.w

    def schrodinger(self, u):
        return self.laplacian(u) + self.window.W * u


def _vertex_function(P: Patch, values) -> VertexFunction:
    nz = np.flatnonzero(values != 0)
    return VertexFunction(dict(zip(P.window.ids[nz].tolist(), values[nz].tolist())))


def _max(values):
    """The running maximum of a loop over ``values`` that starts at 0.0."""
    values = values.tolist()
    require_finite(*values)  # max() would pass over a NaN
    return max([0.0, *values])


def _sum(values):
    """The sum of a loop that adds ``values`` in order, starting at 0."""
    return values.cumsum()[-1:].tolist()[0] if len(values) else 0


# -- public operators -----------------------------------------------------------

def differential(g, u: VertexFunction, *, conjugate_phase=False) -> EdgeFunction:
    """The deformed differential conj(sigma(e)) u(t(e)) - u(o(e)).

    With ``conjugate_phase=True`` the phase field is conjugated first, which
    yields sigma(e) u(t(e)) - u(o(e)); this variant appears on the product
    side of the Leibniz rule.
    """
    P = Patch.closure(g, u._values)
    values = P.differential(P.vector(u), conjugate_phase)
    nz = np.flatnonzero(values != 0).tolist()
    return EdgeFunction(g, dict(zip(map(P.keys.__getitem__, nz), values[nz].tolist())),
                        twist=-1 if conjugate_phase else 1, _normalized=True)


def codifferential(g, Y: EdgeFunction, *, plain=False) -> VertexFunction:
    """The deformed codifferential, the formal adjoint of the differential.

    At a vertex x it collects sigma(e) a(e) Y(e) over canonical edges ending
    at x minus a(e) Y(e) over canonical edges starting at x, divided by
    w(x).  With ``plain=True`` the phases are ignored (the classical
    codifferential).
    """
    P = Patch.closure(g, (), Y._values)
    return _vertex_function(P, P.codifferential(P.edge_vector(Y), plain))


def laplacian(g, u: VertexFunction) -> VertexFunction:
    """The phase-deformed (magnetic) graph Laplacian.

    (L u)(x) = (1/w(x)) * sum over edges e leaving x of
    a(e) (u(x) - conj(sigma(e)) u(t(e))).  The output is supported on the
    support of u and its one-hop neighborhood.
    """
    P = Patch.closure(g, u._values)
    return _vertex_function(P, P.laplacian(P.vector(u)))


def schrodinger_apply(g, u: VertexFunction, *, patch=None) -> VertexFunction:
    """Apply H = laplacian + potential to a finitely supported function."""
    P = patch or Patch.closure(g, u._values)
    return _vertex_function(P, P.schrodinger(P.vector(u)))


def leibniz_residual(g, u: VertexFunction, v: VertexFunction, *, relative=False,
                     patch=None) -> float:
    """Deviation in the product rule for the conjugate-phase differential.

    On every edge, d(uv) computed with conjugated phases must equal
    (du with conjugated phases) * mean(v) + phased-mean(u) * dv.
    """
    P = patch or Patch.closure(g, [*u._values, *v._values])
    uu, vv = P.vector(u), P.vector(v)
    uv = uu * vv
    o, t, phase = P.co, P.ct, P.csigma
    ut, uo, vt, vo = uu[t], uu[o], vv[t], vv[o]
    lhs = phase * uv[t] - uv[o]
    first = (phase * ut - uo) * ((vt + vo) / 2)
    second = ((phase * ut + uo) / 2) * (vt - vo)
    dev = _max(np.abs(lhs - (first + second)))
    scale = _max(np.abs(lhs) + np.abs(first) + np.abs(second))
    return _residual(dev, scale, relative)


def product_rule_residual(g, u: VertexFunction, Y: EdgeFunction, *, relative=False,
                          patch=None) -> float:
    """Deviation in the codifferential product rule.

    Vertex-wise, the plain codifferential of (phased-mean(u) * Y) must equal
    u(x) times the deformed codifferential of Y minus half the w-normalized
    star sum of a(e) Y(e) (du with conjugated phases)(e).
    """
    P = patch or Patch.closure(g, (), Y._values)
    uu = P.vector(u, interior=False)  # only its values at the ends of Y's edges count
    yc = P.edge_vector(Y)
    o, t, phase, a, w = P.co, P.ct, P.csigma, P.ca, P.window.w
    flow = a * (((phase * uu[t] + uu[o]) / 2) * yc)
    corr = a * yc * (phase * uu[t] - uu[o])
    lhs = P.star_sums(flow, -flow) / w
    first = uu * P.codifferential(yc)
    second = P.star_sums(corr, corr) / (2 * w)
    dev = _max(np.abs(lhs - (first - second)))
    scale = _max(np.abs(lhs) + np.abs(first) + np.abs(second))
    return _residual(dev, scale, relative)


def adjointness_residual(g, u: VertexFunction, Y: EdgeFunction, *, relative=False,
                         patch=None) -> float:
    """Deviation between (du, Y) in the edge product and (u, codiff Y) in the vertex product."""
    P = patch or Patch.closure(g, u._values, Y._values)
    uu = P.vector(u)
    yc = P.edge_vector(Y)
    edge_terms = P.ca * P.canonical(P.differential(uu), 1) * np.conj(yc)
    vertex_terms = P.window.w * uu * np.conj(P.codifferential(yc))
    dev = abs(_sum(edge_terms) - _sum(vertex_terms))
    scale = _sum(np.abs(np.concatenate((edge_terms, vertex_terms))))
    return _residual(dev, scale, relative)


def composition_residual(g, u: VertexFunction, *, relative=False, patch=None) -> float:
    """Deviation between codifferential(differential(u)) and laplacian(u)."""
    P = patch or Patch.closure(g, u._values)
    uu = P.vector(u)
    left = P.codifferential(P.canonical(P.differential(uu), 1))
    right = P.laplacian(uu)
    dev = _max(np.abs(left - right))
    scale = _max(np.abs(left) + np.abs(right))
    return _residual(dev, scale, relative)


def symmetry_residual(g, u: VertexFunction, v: VertexFunction, *, relative=False,
                      patch=None) -> float:
    """Deviation between (Hu, v) and (u, Hv) in the weighted vertex product."""
    P = patch or Patch.closure(g, [*u._values, *v._values])
    uu, vv = P.vector(u), P.vector(v)
    w = P.window.w
    lhs_terms = w * P.schrodinger(uu) * np.conj(vv)
    rhs_terms = w * uu * np.conj(P.schrodinger(vv))
    dev = abs(_sum(lhs_terms) - _sum(rhs_terms))
    scale = _sum(np.abs(np.concatenate((lhs_terms, rhs_terms))))
    return _residual(dev, scale, relative)


def rayleigh_quotient(g, u: VertexFunction):
    """(Hu, u) / (u, u) in the weighted vertex product."""
    Hu = schrodinger_apply(g, u)
    num = inner_w(g, Hu, u)
    den = inner_w(g, u, u)
    return num / den
