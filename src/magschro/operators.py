"""Phase-deformed differential calculus on weighted graphs.

The operators act on finitely supported functions, so all sums below are
finite.  Each residual helper evaluates both sides of one defining identity
and returns the largest pointwise deviation: zero in exact arithmetic, at
rounding level in double precision.  With ``relative=True`` the deviation is
normalized by the magnitude of the terms entering the comparison, which is
the right yardstick for accumulated floating-point error.
"""

from __future__ import annotations

from .functions import EdgeFunction, VertexFunction, inner_w, support_union
from .graphs import edge_sort_key, incident_edges, vertex_sort_key

_TINY = 1e-300


def _rel(dev: float, scale: float) -> float:
    if dev == 0.0:
        return 0.0
    return dev / max(scale, _TINY)


def _one_hop_closure(g, supports):
    verts = set()
    for sup in supports:
        for x in sup:
            verts.add(x)
            verts.update(e.terminus for e, _ in g.neighbors(x))
    return sorted(verts, key=vertex_sort_key)


def differential(g, u: VertexFunction, *, conjugate_phase=False) -> EdgeFunction:
    """The deformed differential conj(sigma(e)) u(t(e)) - u(o(e)).

    With ``conjugate_phase=True`` the phase field is conjugated first, which
    yields sigma(e) u(t(e)) - u(o(e)); this variant appears on the product
    side of the Leibniz rule.
    """
    values = {}
    for k in incident_edges(g, u.support):
        data = g.edge_data(k)
        phase = data.phase if conjugate_phase else data.phase.conjugate()
        values[k] = phase * u(k[1]) - u(k[0])
    return EdgeFunction(g, values, twist=-1 if conjugate_phase else 1, _normalized=True)


def codifferential(g, Y: EdgeFunction, *, plain=False) -> VertexFunction:
    """The deformed codifferential, the formal adjoint of the differential.

    At a vertex x it collects sigma(e) a(e) Y(e) over canonical edges ending
    at x minus a(e) Y(e) over canonical edges starting at x, divided by
    w(x).  With ``plain=True`` the phases are ignored (the classical
    codifferential).
    """
    acc = {}
    for k, _ in Y.items():
        c = g.canonical(k)
        data = g.edge_data(c)
        yc = Y.value(c)
        term = data.weight * yc
        inflow = term if plain else data.phase * term
        acc[c.terminus] = acc.get(c.terminus, 0) + inflow
        acc[c.origin] = acc.get(c.origin, 0) - term
    return VertexFunction({x: v / g.vertex(x).weight for x, v in acc.items()})


def laplacian(g, u: VertexFunction) -> VertexFunction:
    """The phase-deformed (magnetic) graph Laplacian.

    (L u)(x) = (1/w(x)) * sum over edges e leaving x of
    a(e) (u(x) - conj(sigma(e)) u(t(e))).  The output is supported on the
    support of u and its one-hop neighborhood.
    """
    out = {}
    for x in _one_hop_closure(g, [u.support]):
        ux = u(x)
        acc = 0
        for e, data in g.neighbors(x):
            acc = acc + data.weight * (ux - data.phase.conjugate() * u(e.terminus))
        out[x] = acc / g.vertex(x).weight
    return VertexFunction(out)


def schrodinger_apply(g, u: VertexFunction) -> VertexFunction:
    """Apply H = laplacian + potential to a finitely supported function."""
    lap = laplacian(g, u)
    out = {}
    for x in support_union(lap, u):
        out[x] = lap(x) + g.vertex(x).potential * u(x)
    return VertexFunction(out)


def leibniz_residual(g, u: VertexFunction, v: VertexFunction, *, relative=False) -> float:
    """Deviation in the product rule for the conjugate-phase differential.

    On every edge, d(uv) computed with conjugated phases must equal
    (du with conjugated phases) * mean(v) + phased-mean(u) * dv.
    """
    uv = u.pointwise(v)
    dev = 0.0
    scale = 0.0
    for k in incident_edges(g, support_union(u, v)):
        c = g.canonical(k)
        phase = g.edge_data(c).phase
        ut, uo = u(c.terminus), u(c.origin)
        vt, vo = v(c.terminus), v(c.origin)
        lhs = phase * uv(c.terminus) - uv(c.origin)
        first = (phase * ut - uo) * ((vt + vo) / 2)
        second = ((phase * ut + uo) / 2) * (vt - vo)
        dev = max(dev, abs(lhs - (first + second)))
        scale = max(scale, abs(lhs) + abs(first) + abs(second))
    return _rel(dev, scale) if relative else dev


def product_rule_residual(g, u: VertexFunction, Y: EdgeFunction, *, relative=False) -> float:
    """Deviation in the codifferential product rule.

    Vertex-wise, the plain codifferential of (phased-mean(u) * Y) must equal
    u(x) times the deformed codifferential of Y minus half the w-normalized
    star sum of a(e) Y(e) (du with conjugated phases)(e).
    """
    dY = codifferential(g, Y)
    # one pass over the sorted keys; each vertex sums its edges in key order
    lhs_acc = {}
    corr_acc = {}
    for k, _ in Y.items():
        c = g.canonical(k)
        data = g.edge_data(c)
        yc = Y.value(c)
        flow = data.weight * (((data.phase * u(c.terminus) + u(c.origin)) / 2) * yc)
        corr = data.weight * yc * (data.phase * u(c.terminus) - u(c.origin))
        lhs_acc[c.terminus] = lhs_acc.get(c.terminus, 0) + flow
        lhs_acc[c.origin] = lhs_acc.get(c.origin, 0) - flow
        corr_acc[c.terminus] = corr_acc.get(c.terminus, 0) + corr
        corr_acc[c.origin] = corr_acc.get(c.origin, 0) + corr
    dev = 0.0
    scale = 0.0
    for x in sorted(lhs_acc, key=vertex_sort_key):
        wx = g.vertex(x).weight
        lhs = lhs_acc[x] / wx
        first = u(x) * dY(x)
        second = corr_acc[x] / (2 * wx)
        dev = max(dev, abs(lhs - (first - second)))
        scale = max(scale, abs(lhs) + abs(first) + abs(second))
    return _rel(dev, scale) if relative else dev


def adjointness_residual(g, u: VertexFunction, Y: EdgeFunction, *, relative=False) -> float:
    """Deviation between (du, Y) in the edge product and (u, codiff Y) in the vertex product."""
    F = differential(g, u)
    lhs = 0
    scale = 0.0
    for k in sorted({*F.support, *Y.support}, key=edge_sort_key):
        c = g.canonical(k)
        term = g.edge_data(c).weight * F.value(c) * Y.value(c).conjugate()
        lhs = lhs + term
        scale += abs(term)
    dY = codifferential(g, Y)
    rhs = 0
    for x in support_union(u, dY):
        term = g.vertex(x).weight * u(x) * dY(x).conjugate()
        rhs = rhs + term
        scale += abs(term)
    dev = abs(lhs - rhs)
    return _rel(dev, scale) if relative else dev


def composition_residual(g, u: VertexFunction, *, relative=False) -> float:
    """Deviation between codifferential(differential(u)) and laplacian(u)."""
    left = codifferential(g, differential(g, u))
    right = laplacian(g, u)
    dev = 0.0
    scale = 0.0
    for x in support_union(left, right):
        dev = max(dev, abs(left(x) - right(x)))
        scale = max(scale, abs(left(x)) + abs(right(x)))
    return _rel(dev, scale) if relative else dev


def symmetry_residual(g, u: VertexFunction, v: VertexFunction, *, relative=False) -> float:
    """Deviation between (Hu, v) and (u, Hv) in the weighted vertex product."""
    Hu = schrodinger_apply(g, u)
    Hv = schrodinger_apply(g, v)
    lhs = 0
    scale = 0.0
    for x in support_union(Hu, v):
        term = g.vertex(x).weight * Hu(x) * v(x).conjugate()
        lhs = lhs + term
        scale += abs(term)
    rhs = 0
    for x in support_union(u, Hv):
        term = g.vertex(x).weight * u(x) * Hv(x).conjugate()
        rhs = rhs + term
        scale += abs(term)
    dev = abs(lhs - rhs)
    return _rel(dev, scale) if relative else dev


def rayleigh_quotient(g, u: VertexFunction):
    """(Hu, u) / (u, u) in the weighted vertex product."""
    Hu = schrodinger_apply(g, u)
    num = inner_w(g, Hu, u)
    den = inner_w(g, u, u)
    return num / den
