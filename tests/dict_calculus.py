"""Dict-loop oracle for the deformed calculus.

Vertex by vertex and edge by edge, over the neighbor oracle and tuple keys:
the formulas of :mod:`magschro.operators` written as plain loops, with no
window and no arrays, so the array operators can be checked against them.
"""

from magschro.functions import EdgeFunction, VertexFunction, support_union
from magschro.graphs import edge_sort_key, normalize_edge, vertex_sort_key

_TINY = 1e-300


def _rel(dev, scale):
    if dev == 0.0:
        return 0.0
    return dev / max(scale, _TINY)


def incident_edges(g, vertices):
    """The normalized edges meeting any of ``vertices``, sorted."""
    return sorted({normalize_edge(e) for x in vertices for e, _ in g.neighbors(x)},
                  key=edge_sort_key)


def one_hop_closure(g, support):
    verts = set()
    for x in support:
        verts.add(x)
        verts.update(e.terminus for e, _ in g.neighbors(x))
    return sorted(verts, key=vertex_sort_key)


def differential(g, u, *, conjugate_phase=False):
    values = {}
    for k in incident_edges(g, u.support):
        data = g.edge_data(k)
        phase = data.phase if conjugate_phase else data.phase.conjugate()
        values[k] = phase * u(k[1]) - u(k[0])
    return EdgeFunction(g, values, twist=-1 if conjugate_phase else 1, _normalized=True)


def codifferential(g, Y, *, plain=False):
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


def laplacian(g, u):
    out = {}
    for x in one_hop_closure(g, u.support):
        ux = u(x)
        acc = 0
        for e, data in g.neighbors(x):
            acc = acc + data.weight * (ux - data.phase.conjugate() * u(e.terminus))
        out[x] = acc / g.vertex(x).weight
    return VertexFunction(out)


def schrodinger_apply(g, u):
    lap = laplacian(g, u)
    return VertexFunction({x: lap(x) + g.vertex(x).potential * u(x)
                           for x in support_union(lap, u)})


def leibniz_residual(g, u, v, *, relative=False):
    uv = u.pointwise(v)
    dev = scale = 0.0
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


def product_rule_residual(g, u, Y, *, relative=False):
    dY = codifferential(g, Y)
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
    dev = scale = 0.0
    for x in sorted(lhs_acc, key=vertex_sort_key):
        wx = g.vertex(x).weight
        lhs = lhs_acc[x] / wx
        first = u(x) * dY(x)
        second = corr_acc[x] / (2 * wx)
        dev = max(dev, abs(lhs - (first - second)))
        scale = max(scale, abs(lhs) + abs(first) + abs(second))
    return _rel(dev, scale) if relative else dev


def adjointness_residual(g, u, Y, *, relative=False):
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


def composition_residual(g, u, *, relative=False):
    left = codifferential(g, differential(g, u))
    right = laplacian(g, u)
    dev = scale = 0.0
    for x in support_union(left, right):
        dev = max(dev, abs(left(x) - right(x)))
        scale = max(scale, abs(left(x)) + abs(right(x)))
    return _rel(dev, scale) if relative else dev


def symmetry_residual(g, u, v, *, relative=False):
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
