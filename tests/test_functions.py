import cmath
import math

import pytest

from conftest import two_vertex_graph
from magschro.errors import InputError
from magschro.families import make_family
from magschro.functions import (
    EdgeFunction,
    VertexFunction,
    edge_average,
    inner_a,
    inner_w,
    norm_w,
    phased_edge_average,
)
from magschro.graphs import OrientedEdge
from magschro.randomgraphs import random_connected_graph, random_vertex_function


def test_inner_w_unit_delta():
    g = two_vertex_graph()
    d = VertexFunction.delta("x")
    assert inner_w(g, d, d) == 1.0


def test_inner_w_weight_scaling():
    g = two_vertex_graph(w1=3.0)
    d = VertexFunction.delta("x")
    assert inner_w(g, d, d) == 3.0


def test_inner_w_disjoint_supports():
    g = two_vertex_graph()
    assert inner_w(g, VertexFunction.delta("x"), VertexFunction.delta("y")) == 0


def test_inner_w_conjugate_symmetry(rng):
    g = random_connected_graph(rng, max_vertices=10)
    f = random_vertex_function(rng, g)
    h = random_vertex_function(rng, g)
    assert inner_w(g, f, h) == pytest.approx(inner_w(g, h, f).conjugate(), rel=1e-12)
    assert norm_w(g, f) > 0


def test_inner_a_indicator_edge():
    g = two_vertex_graph()
    F = EdgeFunction(g, {("x", "y"): 1.0})
    assert inner_a(g, F, F) == 1.0
    g5 = two_vertex_graph(a=5.0)
    F5 = EdgeFunction(g5, {("x", "y"): 1.0})
    assert inner_a(g5, F5, F5) == 5.0


def test_inner_a_orientation_rechoice(rng):
    g = random_connected_graph(rng, max_vertices=10)
    from magschro.randomgraphs import random_edge_function

    F = random_edge_function(rng, g)
    G = random_edge_function(rng, g)
    base = inner_a(g, F, G)
    flipped = g.with_flipped_orientation(g.edges()[:3])
    assert inner_a(flipped, F, G) == pytest.approx(base, abs=1e-12, rel=1e-12)


def test_edge_average_values():
    e = OrientedEdge("x", "y")
    u = VertexFunction({"x": 1.0, "y": 3.0})
    assert edge_average(u, e) == 2.0
    c = VertexFunction({"x": 4.5, "y": 4.5})
    assert edge_average(c, e) == 4.5
    assert edge_average(VertexFunction.delta("x"), e) == 0.5


def test_phased_edge_average():
    g1 = two_vertex_graph()
    u = VertexFunction({"x": 1.0, "y": 3.0})
    e = OrientedEdge("x", "y")
    assert phased_edge_average(g1, u, e) == edge_average(u, e)
    gi = two_vertex_graph(sigma=1j)
    v = VertexFunction({"y": 2.0})
    assert phased_edge_average(gi, v, e) == 1j
    assert phased_edge_average(gi, VertexFunction(), e) == 0


def test_edge_function_plain_antisymmetry():
    g = two_vertex_graph()
    e = OrientedEdge("x", "y")
    Y = EdgeFunction(g, {e: 2.0 + 1.0j}, twist=0)
    assert Y.value(e.reverse()) == -(2.0 + 1.0j)
    assert Y.value(e) == 2.0 + 1.0j


def test_edge_function_phase_twist():
    sigma = cmath.exp(0.7j)
    g = two_vertex_graph(sigma=sigma)
    e = OrientedEdge("x", "y")
    val = 2.0 - 0.5j
    Y = EdgeFunction(g, {e: val})
    assert Y.value(e.reverse()) == pytest.approx(-sigma * val, rel=1e-15)
    assert abs(Y.value(e.reverse())) == pytest.approx(abs(val), rel=1e-15)
    # supplying the value on the reversed edge stores the consistent translate
    Z = EdgeFunction(g, {e.reverse(): Y.value(e.reverse())})
    assert Z.value(e) == pytest.approx(val, rel=1e-14)
    # plain rule for unit phase coincides with the twisted one
    gu = two_vertex_graph()
    P = EdgeFunction(gu, {e: val})
    assert P.value(e.reverse()) == -val


def test_edge_function_zero_and_conflicts():
    g = two_vertex_graph()
    e = OrientedEdge("x", "y")
    assert len(EdgeFunction(g, {e: 0.0})) == 0
    with pytest.raises(InputError, match="conflicting"):
        EdgeFunction(g, {e: 1.0, e.reverse(): 5.0})


def test_nan_rejected():
    with pytest.raises(InputError):
        VertexFunction({"x": float("nan")})
    with pytest.raises(InputError):
        VertexFunction({"x": complex(1.0, float("inf"))})
    g = two_vertex_graph()
    with pytest.raises(InputError):
        EdgeFunction(g, {("x", "y"): float("nan")})


def test_vertex_function_algebra():
    u = VertexFunction({1: 1.0, 2: 2.0})
    v = VertexFunction({2: 3.0, 3: -1.0})
    assert (u + v)(2) == 5.0
    assert (u - v)(3) == 1.0
    assert (2.0 * u)(2) == 4.0
    assert u.pointwise(v).items() == [(2, 6.0)]
    assert (u + (-u)).support == []
    assert VertexFunction({1: 0.0}).support == []
    w = VertexFunction({1: 1 + 2j})
    assert w.conjugated()(1) == 1 - 2j


def test_square_average_inequality_random(rng):
    g = random_connected_graph(rng, max_vertices=12)
    edges = g.edges()
    for _ in range(500):
        phi = random_vertex_function(rng, g, real=True)
        e = edges[int(rng.integers(0, len(edges)))]
        assert edge_average(phi, e) ** 2 <= edge_average(phi.pointwise(phi), e)


def test_phased_average_parallelogram_bound(rng):
    gi = two_vertex_graph(sigma=cmath.exp(1.3j))
    e = OrientedEdge("x", "y")
    for _ in range(200):
        u = VertexFunction({"x": complex(rng.normal(), rng.normal()),
                            "y": complex(rng.normal(), rng.normal())})
        lhs = abs(phased_edge_average(gi, u.conjugated(), e)) ** 2
        rhs = (abs(u("x")) ** 2 + abs(u("y")) ** 2) / 2
        assert lhs <= rhs + 1e-12 * max(rhs, 1.0)


def test_inner_products_on_path_family():
    g = make_family({"family": "path", "size": 4, "w": "n"})
    d2 = VertexFunction.delta(2)
    assert inner_w(g, d2, d2) == 2.0
    assert norm_w(g, d2) == math.sqrt(2.0)


def test_edge_function_rejects_unknown_edge():
    g = make_family({"family": "path", "size": 4})
    with pytest.raises(InputError, match="no edge"):
        EdgeFunction(g, {(1, 3): 1.0})


def test_an_edge_function_refuses_a_twist_outside_minus_one_to_one():
    with pytest.raises(InputError, match=r"^twist must be -1, 0 or 1, got 2$"):
        EdgeFunction(make_family({"family": "path", "size": 3}), {}, twist=2)
