from fractions import Fraction

import numpy as np
import pytest

from conftest import two_vertex_graph
from magschro.errors import InputError
from magschro.exact import FOURTH_ROOTS, ComplexRational, pythagorean_phase
from magschro.families import make_family, quadratic_well_ray
from magschro.functions import EdgeFunction, VertexFunction, inner_a, inner_w, norm_a
from magschro.graphs import ExplicitGraph
from magschro.operators import (
    Patch,
    adjointness_residual,
    codifferential,
    composition_residual,
    differential,
    laplacian,
    leibniz_residual,
    product_rule_residual,
    rayleigh_quotient,
    schrodinger_apply,
    symmetry_residual,
)
from magschro.randomgraphs import (
    gauge_transformed,
    random_connected_graph,
    random_edge_function,
    random_gauge,
    random_vertex_function,
)

REL_TOL = 1e-10


def unit_path(n, **kw):
    return make_family({"family": "path", "size": n, **kw})


def test_differential_kills_local_constants():
    g = unit_path(3)
    u = VertexFunction({1: 4.0, 2: 4.0})
    assert differential(g, u).value((1, 2)) == 0.0


def test_differential_delta_on_path():
    g = unit_path(3)
    du = differential(g, VertexFunction.delta(2))
    assert du.value((1, 2)) == 1.0
    assert du.value((2, 1)) == -1.0


def test_differential_with_phase():
    g = two_vertex_graph(sigma=1j)
    du = differential(g, VertexFunction.delta("y"))
    assert du.value(("x", "y")) == -1j  # conj(i) * 1 - 0


def test_differential_conjugate_variant():
    g = two_vertex_graph(sigma=1j)
    du = differential(g, VertexFunction.delta("y"), conjugate_phase=True)
    assert du.value(("x", "y")) == 1j
    # its reversal rule reproduces the formula there: sigma(y,x) u(x) - u(y)
    formula_at_reverse = (-1j) * 0 - 1
    assert du.value(("y", "x")) == pytest.approx(formula_at_reverse)


def test_codifferential_zero():
    g = unit_path(3)
    assert codifferential(g, EdgeFunction(g, {})).support == []


def test_codifferential_indicator_edge():
    g = unit_path(4)
    Y = EdgeFunction(g, {(1, 2): 1.0})
    dY = codifferential(g, Y)
    assert dY(2) == 1.0
    assert dY(1) == -1.0
    assert dY(3) == 0


def test_laplacian_triangle_delta():
    g = make_family({"family": "cycle", "size": 3})
    lap = laplacian(g, VertexFunction.delta(1))
    assert (lap(1), lap(2), lap(3)) == (2.0, -1.0, -1.0)


def test_laplacian_phase_example():
    g = two_vertex_graph(sigma=1j)
    lap = laplacian(g, VertexFunction.delta("y"))
    assert lap("x") == 1j  # -sigma([y,x]) = -conj(i) = i


def test_laplacian_of_constant_vanishes():
    g = make_family({"family": "cycle", "size": 5, "w": "n", "a": "n"})
    u = VertexFunction({x: 3.0 for x in g.vertices()})
    lap = laplacian(g, u)
    assert all(abs(lap(x)) < 1e-14 for x in g.vertices())


def test_laplacian_locality(rng):
    g = random_connected_graph(rng, max_vertices=15)
    u = random_vertex_function(rng, g, max_support=3)
    hop = set(u.support)
    for x in u.support:
        hop.update(e.terminus for e, _ in g.neighbors(x))
    assert set(laplacian(g, u).support) <= hop


def test_schrodinger_reference_delta():
    g = quadratic_well_ray()
    Hu = schrodinger_apply(g, VertexFunction.delta(1))
    assert Hu(1) == 0.0
    assert Hu(2) == -1.0


def test_schrodinger_zero_potential_is_laplacian(rng):
    g = random_connected_graph(rng, max_vertices=12)
    flat = ExplicitGraph({x: (g.vertex(x).weight, 0.0, g.vertex(x).minorant)
                          for x in g.vertices()},
                         {tuple(e): g.edge_data(e) for e in g.edges()})
    u = random_vertex_function(rng, flat)
    Hu = schrodinger_apply(flat, u)
    lap = laplacian(flat, u)
    assert all(Hu(x) == lap(x) for x in set(Hu.support) | set(lap.support))


def test_delta_rayleigh_reference_value():
    g = quadratic_well_ray()
    assert rayleigh_quotient(g, VertexFunction.delta(5)) == -23.0


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_identity_residuals_random(seed):
    rng = np.random.default_rng(seed)
    for _ in range(25):
        g = random_connected_graph(rng, max_vertices=40)
        u = random_vertex_function(rng, g)
        v = random_vertex_function(rng, g)
        Y = random_edge_function(rng, g)
        assert leibniz_residual(g, u, v, relative=True) <= REL_TOL
        assert product_rule_residual(g, u, Y, relative=True) <= REL_TOL
        assert adjointness_residual(g, u, Y, relative=True) <= REL_TOL
        assert composition_residual(g, u, relative=True) <= REL_TOL
        assert symmetry_residual(g, u, v, relative=True) <= REL_TOL


def test_composition_against_laplacian_delta(rng):
    g = random_connected_graph(rng, max_vertices=20)
    x = g.vertices()[0]
    dd = codifferential(g, differential(g, VertexFunction.delta(x)))
    lap = laplacian(g, VertexFunction.delta(x))
    for y in set(dd.support) | set(lap.support):
        assert dd(y) == pytest.approx(lap(y), rel=1e-12, abs=1e-12)


def test_trivial_residual_cases():
    g = unit_path(5)
    d = VertexFunction.delta(2)
    assert leibniz_residual(g, d, d) <= 1e-12
    assert composition_residual(g, d) <= 1e-12
    assert adjointness_residual(g, d, EdgeFunction(g, {(1, 2): 1.0})) <= 1e-12
    assert product_rule_residual(g, d, EdgeFunction(g, {(1, 2): 1.0})) <= 1e-12
    assert product_rule_residual(g, VertexFunction(), EdgeFunction(g, {})) == 0.0


def test_symmetry_residual_separated_supports():
    g = unit_path(9)
    u = VertexFunction.delta(1)
    v = VertexFunction.delta(9)
    assert symmetry_residual(g, u, v) == 0.0


def test_exact_arithmetic_residuals_are_zero():
    half = Fraction(1, 2)
    vertices = {
        1: (Fraction(2), Fraction(-3), Fraction(3)),
        2: (half, Fraction(1), Fraction(1)),
        3: (Fraction(3, 4), Fraction(0), Fraction(5, 2)),
    }
    edges = {
        (1, 2): (Fraction(5, 3), FOURTH_ROOTS[1]),
        (2, 3): (Fraction(2), pythagorean_phase(2, 1)),
        (1, 3): (half, pythagorean_phase(3, -2)),
    }
    g = ExplicitGraph(vertices, edges)
    u = VertexFunction({1: ComplexRational(1, 2), 2: ComplexRational(half, -1)})
    v = VertexFunction({2: ComplexRational(-2, half), 3: ComplexRational(0, 3)})
    Y = EdgeFunction(g, {(1, 2): ComplexRational(1, -1), (2, 3): ComplexRational(half, 2)})
    assert leibniz_residual(g, u, v) == 0.0
    assert product_rule_residual(g, u, Y) == 0.0
    assert adjointness_residual(g, u, Y) == 0.0
    assert composition_residual(g, u) == 0.0
    assert symmetry_residual(g, u, v) == 0.0


def test_gauge_covariance_of_differential_norm(rng):
    for _ in range(10):
        g = random_connected_graph(rng, max_vertices=20)
        tau = random_gauge(rng, g)
        gg = gauge_transformed(g, tau)
        u = random_vertex_function(rng, g)
        tu = VertexFunction({x: tau[x] * u(x) for x in u.support})
        n1 = norm_a(g, differential(g, u))
        n2 = norm_a(gg, differential(gg, tu))
        assert n2 == pytest.approx(n1, rel=1e-10)


def test_orientation_flip_invariance(rng):
    g = random_connected_graph(rng, max_vertices=25)
    u = random_vertex_function(rng, g)
    v = random_vertex_function(rng, g)
    Y = random_edge_function(rng, g)
    edges = g.edges()
    picks = rng.choice(len(edges), size=min(4, len(edges)), replace=False)
    g2 = g.with_flipped_orientation([edges[int(i)] for i in picks])

    assert inner_a(g2, Y, Y) == pytest.approx(inner_a(g, Y, Y), abs=1e-12)
    d1 = codifferential(g, Y)
    d2 = codifferential(g2, Y)
    for x in set(d1.support) | set(d2.support):
        assert abs(d1(x) - d2(x)) <= 1e-12 * max(1.0, abs(d1(x)))
    assert abs(adjointness_residual(g, u, Y) - adjointness_residual(g2, u, Y)) <= 1e-12
    assert abs(leibniz_residual(g, u, v) - leibniz_residual(g2, u, v)) <= 1e-12
    assert abs(product_rule_residual(g, u, Y) - product_rule_residual(g2, u, Y)) <= 1e-12
    assert abs(composition_residual(g, u) - composition_residual(g2, u)) <= 1e-12
    assert abs(symmetry_residual(g, u, v) - symmetry_residual(g2, u, v)) <= 1e-12


def test_adjointness_two_term_hand_check():
    g = unit_path(4)
    u = VertexFunction.delta(2)
    Y = EdgeFunction(g, {(1, 2): 1.0})
    # (du, Y) = a * du([1,2]) * conj(1) = 1;  (u, codiff Y) = u(2) * dY(2) = 1
    du = differential(g, u)
    assert inner_a(g, du, Y) == 1.0
    assert inner_w(g, u, codifferential(g, Y)) == 1.0
    assert adjointness_residual(g, u, Y) <= 1e-15


def test_product_rule_residual_zero_function_nonzero_edges():
    g = unit_path(4)
    Y = EdgeFunction(g, {(1, 2): 2.0 - 1.0j, (2, 3): 0.5j})
    assert product_rule_residual(g, VertexFunction(), Y) == 0.0


def test_symmetry_residual_equal_real_inputs():
    g = unit_path(6)
    u = VertexFunction({2: 1.5, 3: -0.25, 4: 2.0})
    assert symmetry_residual(g, u, u) <= 1e-12


def test_a_patch_numbers_only_its_own_edges():
    g = unit_path(6)
    P = Patch.closure(g, [3])  # the window 2, 3, 4 with its edges (2, 3) and (3, 4)
    # (4, 5) leaves the window at the row code of (3, 4); (2, 4) is no edge
    assert P.numbers([(2, 3), (3, 4), (4, 5), (1, 2), (2, 4)]).tolist() == [0, 1, -1, -1, -1]
    assert P.numbers([]).tolist() == []
    for edge in ((4, 5), (1, 2)):
        with pytest.raises(InputError, match="does not hold every edge"):
            P.edge_vector(EdgeFunction(g, {(2, 3): 1.0, edge: 2.0}))
    assert P.edge_vector(EdgeFunction(g, {(3, 4): 2.0})).tolist() == [0.0, 2.0]


def test_residuals_refuse_overflowing_inputs():
    g = unit_path(3)
    u = VertexFunction({1: 1e308, 2: -1e308})
    v = VertexFunction({1: 1.0})
    Y = EdgeFunction(g, {(1, 2): 1e308, (2, 3): -1e308})
    for residual, args in ((leibniz_residual, (u, v)), (composition_residual, (u,)),
                           (symmetry_residual, (u, v)), (adjointness_residual, (u, Y)),
                           (product_rule_residual, (u, Y))):
        for relative in (False, True):
            with pytest.raises(InputError, match="non-finite"):
                residual(g, *args, relative=relative)
