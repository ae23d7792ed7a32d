"""Phase-deformed differential calculus on weighted graphs.

The operators act on finitely supported functions, so all sums below are
finite.  Each call works on one :class:`Patch`: the window of the graph
holding the one-hop closure of the vertex supports and the ends of the edge
support (:meth:`~magschro.graphs.WeightedGraph.closure_window`), read once;
:func:`schrodinger_apply` and the residuals also take, as ``patch=``, one
built for several calls.  Formulas are array expressions over its vertices
and numbered edges; sums keep the order of the defining loops
(``np.add.at`` per vertex and per block).  Float data run in float64,
or complex128 when a phase or value is complex; exact scalars
(``Fraction``, :class:`~magschro.exact.ComplexRational`) go through object
arrays and keep their exact arithmetic.  Results are Python scalars.

Each residual helper evaluates both sides of one defining identity and
returns the largest pointwise deviation: zero in exact arithmetic, at
rounding level in double precision.  With ``relative=True`` the deviation is
normalized by the magnitude of the terms entering the comparison, which is
the right yardstick for accumulated floating-point error.  A patch of a
disjoint union of graphs (``Patch.closure(..., starts=)``) reduces each
graph's block alone, maxima by ``np.maximum.at`` and sums in each block's
loop order, and a residual returns the largest over the blocks: the value
the largest of one patch per graph would give, bit for bit.

Bit reproducibility rests on each array operation giving every element the
bits it gives that element in any array, which numpy does for the
elementwise operations here, except one way: for an operand that is a
temporary of 256 KiB or more (16,384 complex128), numpy reuses its buffer
(temporary elision), and ``x * tmp`` computed in place as ``tmp *= x``
rounds complex products differently in the last bit (numpy 2.4).  The
residuals of a patch whose arrays reach that size can therefore differ in
the last bits from those of a smaller patch; the identity suite keeps its
stacked patches below it.

numpy's complex128 ``*`` is consistent with itself, but it is not Python's
``complex * complex``: where numpy fuses the multiply and add (its AVX-512
kernels do), about half of random products differ from Python's in the last
bit.  Code that must equal a loop over Python scalars, as the estimates of
:mod:`magschro.estimates` do, forms complex products by :func:`python_product`.
A product of a real and a complex number is the same either way.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property

import numpy as np

from .errors import InputError, overflow_error, require_finite
from .functions import EdgeFunction, VertexFunction, inner_w
from .graphs import OrientedEdge

_TINY = 1e-300


def _residual(devs, scales, relative):
    """The largest deviation over the blocks, each relative to its block's scale
    with ``relative``."""
    require_finite(*devs, *scales)
    if relative:
        devs = [0.0 if dev == 0.0 else dev / max(scale, _TINY)
                for dev, scale in zip(devs, scales)]
    return max(devs)


class Patch:
    """A window of a graph view with its edges numbered and canonically oriented.

    Build one for the graph view ``g`` with :meth:`closure` and pass it as
    ``patch=`` to share it among calls on ``g`` whose functions it covers
    (:func:`schrodinger_apply`, the residuals).  The CSR entries with row <
    column are the window's unoriented edges, in
    :func:`~magschro.graphs.edge_sort_key` order: edge k joins rows
    ``o[k] < t[k]``, with ``sigma[k]`` the phase of o -> t.  ``co``, ``ct``,
    ``ca`` and ``csigma`` are the rows and data of its canonical orientation,
    which is t -> o where ``flipped`` (None when no edge of the window is).
    ``block`` numbers the graph of each row when ``g`` is a disjoint union of
    ``blocks`` graphs on runs of int ids that begin at ``starts``; else all
    rows are block 0 of one.
    """

    def __init__(self, g, win, starts=None):
        self.window, self.m = win, len(win.ids)
        self.blocks = 1 if starts is None else len(starts)
        self.block = (np.zeros(self.m, np.int64) if starts is None
                      else np.searchsorted(starts, win.ids, side="right") - 1)
        self.row = win.row_by_id
        self.rows = win.rows()
        e = np.flatnonzero(self.rows < win.indices)
        self.o, self.t, self.sigma = self.rows[e], win.indices[e], win.sigma[e]
        self.kinds = "".join(a.dtype.kind for a in (win.w, win.W, win.a, win.sigma))
        flipped = self.numbers(g._flipped) if g._flipped else np.zeros(0, np.int64)
        flipped = flipped[flipped >= 0]
        self.flipped = None
        if len(flipped):
            self.flipped = np.zeros(len(e), dtype=bool)
            self.flipped[flipped] = True
            # the window holds both orientations of each of its edges, so its
            # entries by (column, row) are the reverses of those by (row, column)
            rev = np.lexsort((self.rows, win.indices))
            e = np.where(self.flipped, rev[e], e)
        self.co, self.ct = self.rows[e], win.indices[e]
        self.ca, self.csigma = win.a[e], win.sigma[e]

    @classmethod
    def closure(cls, g, vertices, edges=(), starts=None) -> "Patch":
        """The patch of the one-hop closure of ``vertices`` with the ends of
        the id-ordered ``edges``: it covers vertex functions supported in
        ``vertices`` and edge functions on ``edges``.  ``starts``: the first id
        of each graph, where ``g`` is a disjoint union of graphs on runs of ids."""
        return cls(g, g.closure_window(vertices, [x for k in edges for x in k]), starts)

    @cached_property
    def edge_block(self):
        """The block of each edge, by edge number."""
        return self.block[self.o]

    def maxima(self, values, block):
        """Per block, the running maximum of a loop over the ``values`` in it
        (``block``: the block of each) that starts at 0.0."""
        if values.dtype == object or not np.isfinite(values).all():
            require_finite(*values.tolist())  # np.maximum would pass a NaN on
        out = np.full(self.blocks, 0.0, dtype=values.dtype)
        np.maximum.at(out, block, values)
        return out.tolist()

    def sums(self, *parts):
        """Per block, the sum of a loop that adds, starting at 0, its values
        of each part in turn; a part is ``(values, block)``, in block order.

        ``np.add.at`` adds repeated indices one at a time in index order, so
        each block's sum is the loop's."""
        out = np.zeros(self.blocks, np.result_type(*(v for v, _ in parts)))
        for values, block in parts:
            np.add.at(out, block, values)
        return out

    @cached_property
    def ends(self):
        """Each canonical edge's terminus, then its origin, in edge order."""
        return np.stack((self.ct, self.co), axis=1).ravel()

    @cached_property
    def keys(self):
        """The id-ordered edge of each edge number."""
        ids = self.window.ids
        return list(map(OrientedEdge, ids[self.o].tolist(), ids[self.t].tolist()))

    def numbers(self, edges):
        """The number of each id-ordered edge of ``edges``, -1 where the window
        has none: a search of the edges' row codes ``o * m + t``, which ascend."""
        row, m = self.row, self.m
        ends = np.array([row.get(x, -1) for k in edges for x in k], np.int64).reshape(-1, 2)
        codes, wanted = self.o * m + self.t, ends[:, 0] * m + ends[:, 1]
        at = codes.searchsorted(wanted)
        found = (ends >= 0).all(axis=1) & (at < len(codes))
        found[found] = codes[at[found]] == wanted[found]
        return np.where(found, at, -1)

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
        at = self.numbers(Y._values)
        if (at < 0).any():
            raise InputError("the window does not hold every edge of the edge function")
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


def python_product(x, y):
    """``x * y`` by element, each complex product rounded as Python's
    ``complex * complex`` rounds it: (ar br - ai bi) + (ar bi + ai br) i, one
    ufunc per step.  A real operand is complex with imaginary part 0.0, as
    Python takes it; real and object operands multiply as they are."""
    kinds = x.dtype.kind + y.dtype.kind
    if "c" not in kinds or "O" in kinds:
        return x * y
    re = x.real * y.real - x.imag * y.imag
    out = np.empty(re.shape, np.complex128)
    out.real, out.imag = re, x.real * y.imag + x.imag * y.real
    return out


def _moduli(values):
    """Python's ``abs`` of each value: ``np.abs`` of a complex128 can differ
    from it in the last bit."""
    try:
        return list(map(abs, values.tolist()))
    except OverflowError:  # a modulus past the float range
        raise overflow_error() from None


def _vertex_function(P: Patch, values) -> VertexFunction:
    nz = np.flatnonzero(values != 0)
    return VertexFunction(dict(zip(P.window.ids[nz].tolist(), values[nz].tolist())))


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
    dev = P.maxima(np.abs(lhs - (first + second)), P.edge_block)
    scale = P.maxima(np.abs(lhs) + np.abs(first) + np.abs(second), P.edge_block)
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
    dev = P.maxima(np.abs(lhs - (first - second)), P.block)
    scale = P.maxima(np.abs(lhs) + np.abs(first) + np.abs(second), P.block)
    return _residual(dev, scale, relative)


def adjointness_residual(g, u: VertexFunction, Y: EdgeFunction, *, relative=False,
                         patch=None) -> float:
    """Deviation between (du, Y) in the edge product and (u, codiff Y) in the vertex product."""
    P = patch or Patch.closure(g, u._values, Y._values)
    uu = P.vector(u)
    yc = P.edge_vector(Y)
    edge_terms = P.ca * P.canonical(P.differential(uu), 1) * np.conj(yc)
    vertex_terms = P.window.w * uu * np.conj(P.codifferential(yc))
    edges, vertices = P.edge_block, P.block
    dev = _moduli(P.sums((edge_terms, edges)) - P.sums((vertex_terms, vertices)))
    scale = P.sums((np.abs(edge_terms), edges), (np.abs(vertex_terms), vertices)).tolist()
    return _residual(dev, scale, relative)


def composition_residual(g, u: VertexFunction, *, relative=False, patch=None) -> float:
    """Deviation between codifferential(differential(u)) and laplacian(u)."""
    P = patch or Patch.closure(g, u._values)
    uu = P.vector(u)
    left = P.codifferential(P.canonical(P.differential(uu), 1))
    right = P.laplacian(uu)
    dev = P.maxima(np.abs(left - right), P.block)
    scale = P.maxima(np.abs(left) + np.abs(right), P.block)
    return _residual(dev, scale, relative)


def symmetry_residual(g, u: VertexFunction, v: VertexFunction, *, relative=False,
                      patch=None) -> float:
    """Deviation between (Hu, v) and (u, Hv) in the weighted vertex product."""
    P = patch or Patch.closure(g, [*u._values, *v._values])
    uu, vv = P.vector(u), P.vector(v)
    w = P.window.w
    lhs_terms = w * P.schrodinger(uu) * np.conj(vv)
    rhs_terms = w * uu * np.conj(P.schrodinger(vv))
    dev = _moduli(P.sums((lhs_terms, P.block)) - P.sums((rhs_terms, P.block)))
    scale = P.sums((np.abs(lhs_terms), P.block), (np.abs(rhs_terms), P.block)).tolist()
    return _residual(dev, scale, relative)


def rayleigh_quotient(g, u: VertexFunction):
    """(Hu, u) / (u, u) in the weighted vertex product."""
    Hu = schrodinger_apply(g, u)
    num = inner_w(g, Hu, u)
    den = inner_w(g, u, u)
    return num / den
