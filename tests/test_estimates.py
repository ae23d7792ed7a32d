import math

import pytest

from magschro.criteria import lipschitz_best_constant
from magschro.errors import InputError, MinorantViolationError
from magschro.estimates import (
    energy_bound_check,
    gradient_energy_inequality,
    minorant_weighted_energy,
    tapered_defect_bound,
    tapered_symmetry_defect,
    weighted_gradient_energy,
)
from magschro.families import make_family, quadratic_well_ray
from magschro.functions import VertexFunction, norm_w
from magschro.graphs import ExplicitGraph
from magschro.metric import AnchorFunction, CutoffFunction, edge_length
from magschro.operators import schrodinger_apply
from magschro.randomgraphs import random_connected_graph, random_vertex_function


def random_ray_function(rng, span=40, size=6):
    ids = rng.choice(span, size=size, replace=False) + 1
    return VertexFunction({int(i): complex(rng.normal(0, 2), rng.normal(0, 2))
                           for i in ids})


def test_weighted_gradient_energy_zero_weight():
    g = quadratic_well_ray()
    assert weighted_gradient_energy(g, VertexFunction.delta(1), VertexFunction()) == 0.0


def test_weighted_gradient_energy_single_edge():
    g = make_family({"family": "path", "size": 6})
    u = VertexFunction.delta(1)
    phi = VertexFunction({1: 1.0, 2: 1.0})
    assert weighted_gradient_energy(g, u, phi) == 1.0


def test_weighted_gradient_energy_homogeneity(rng):
    g = quadratic_well_ray()
    u = random_ray_function(rng)
    phi = VertexFunction({int(x): float(rng.normal()) for x in range(1, 12)})
    base = weighted_gradient_energy(g, u, phi)
    assert weighted_gradient_energy(g, u, -2.5 * phi) == pytest.approx(2.5 * base, rel=1e-12)


def test_weighted_gradient_energy_rejects_complex_weight():
    g = quadratic_well_ray()
    with pytest.raises(InputError, match="real-valued"):
        weighted_gradient_energy(g, VertexFunction.delta(1), VertexFunction({1: 1j}))


def test_gradient_energy_inequality_zero_function():
    g = quadratic_well_ray()
    phi = CutoffFunction(g, 1, 2).tapered_profile()
    report = gradient_energy_inequality(g, VertexFunction(), phi)
    assert report.energy_sq == 0.0 and report.bound == 0.0 and report.passed


def test_gradient_energy_inequality_reference_case():
    g = quadratic_well_ray()
    phi = CutoffFunction(g, 1, 5).tapered_profile()
    report = gradient_energy_inequality(g, VertexFunction.delta(1), phi)
    assert report.passed and report.slack >= 0.0


def test_gradient_energy_inequality_random(rng):
    g = quadratic_well_ray()
    for n in (1, 2, 4, 8):
        phi = CutoffFunction(g, 1, n).tapered_profile()
        for _ in range(5):
            report = gradient_energy_inequality(g, random_ray_function(rng), phi)
            assert report.passed


def test_gradient_energy_inequality_random_graphs(rng):
    for _ in range(10):
        g = random_connected_graph(rng, max_vertices=20, ensure_minorant=True)
        u = random_vertex_function(rng, g)
        phi = random_vertex_function(rng, g, real=True)
        assert gradient_energy_inequality(g, u, phi).passed


def test_minorant_violation_refused():
    g = ExplicitGraph(
        {1: (1.0, -5.0, 1.0), 2: (1.0, 0.0, 1.0)},
        {(1, 2): (1.0, 1.0 + 0j)},
    )
    with pytest.raises(MinorantViolationError):
        gradient_energy_inequality(g, VertexFunction.delta(1), VertexFunction.delta(1))
    with pytest.raises(MinorantViolationError):
        energy_bound_check(g, VertexFunction.delta(1))


def test_energy_bound_hand_case():
    g = quadratic_well_ray()
    report = energy_bound_check(g, VertexFunction.delta(1), lipschitz_constant=1.0,
                                degree_bound=2)
    assert report.energy_sq == 0.25
    assert report.bound == 12.0
    assert report.passed
    assert report.contributions == {(1, 2): 0.25}


def test_energy_bound_zero_function():
    g = quadratic_well_ray()
    report = energy_bound_check(g, VertexFunction(), lipschitz_constant=1.0, degree_bound=2)
    assert report.energy_sq == 0.0 and report.bound == 0.0 and report.passed


def test_energy_bound_requires_constant_on_infinite_graphs():
    with pytest.raises(InputError, match="Lipschitz"):
        energy_bound_check(quadratic_well_ray(), VertexFunction.delta(1))


def test_energy_bound_random_reference_window(rng):
    g = quadratic_well_ray()
    for _ in range(25):
        u = random_ray_function(rng, span=200, size=10)
        report = energy_bound_check(g, u, lipschitz_constant=1.0, degree_bound=2)
        assert report.passed


def test_energy_bound_random_finite_graphs(rng):
    for _ in range(10):
        g = random_connected_graph(rng, max_vertices=25, ensure_minorant=True)
        for _ in range(5):
            u = random_vertex_function(rng, g)
            assert energy_bound_check(g, u).passed


def test_energy_chain_orderings(rng):
    # min(1/q) per edge is dominated by the endpoint average of 1/q, and the
    # averaged energy obeys the same operator bound on finite graphs
    for _ in range(5):
        g = random_connected_graph(rng, max_vertices=15, ensure_minorant=True)
        u = random_vertex_function(rng, g)
        lhs, per_edge = minorant_weighted_energy(g, u)
        C = lipschitz_best_constant(g, g.vertices()).constant
        N = g.degree_bound
        avg = 0.0
        from magschro.operators import differential

        du = differential(g, u)
        for k, v in du.items():
            qinv = (1.0 / g.vertex(k.origin).minorant + 1.0 / g.vertex(k.terminus).minorant) / 2
            avg += g.edge_data(k).weight * abs(v) ** 2 * qinv
        nu = norm_w(g, u)
        nHu = norm_w(g, schrodinger_apply(g, u))
        rhs = 2.0 * (nHu * nu + (2.0 * N * C * C + 1.0) * nu ** 2)
        scale = max(lhs, avg, rhs, 1.0)
        assert lhs <= avg + 1e-10 * scale
        assert avg <= rhs + 1e-10 * scale


def test_finite_taper_energy_chain(rng):
    # the taper-localized energy obeys the n-dependent bound for finite n
    g = quadratic_well_ray()
    C, N = 1.0, 2
    for n in (1, 2, 4, 8):
        phi = CutoffFunction(g, 1, n).tapered_profile()
        for _ in range(5):
            u = random_ray_function(rng)
            energy = weighted_gradient_energy(g, u, phi)
            nu = norm_w(g, u)
            nHu = norm_w(g, schrodinger_apply(g, u))
            bound = 2.0 * (nHu * nu + (2.0 * N * (1.0 / n + C) ** 2 + 1.0) * nu ** 2)
            assert energy ** 2 <= bound + 1e-10 * max(bound, 1.0)


def test_anchor_reference_values():
    g = quadratic_well_ray()
    assert AnchorFunction(g, 1)(1) == 0.0
    assert AnchorFunction(g, 1)(4) == pytest.approx(13.0 / 12.0, rel=1e-15)


def test_anchor_edge_bound(rng):
    g = random_connected_graph(rng, max_vertices=12)
    x0 = g.vertices()[0]
    fn = AnchorFunction(g, x0)
    for e in g.edges():
        gap = abs(fn(e.terminus) - fn(e.origin))
        assert gap <= edge_length(g, e) + 1e-12


def test_tapered_defect_vanishes_for_equal_real_inputs(rng):
    g = make_family({"family": "path", "size": 20, "W": "0 - n"})
    u = random_vertex_function(rng, g, real=True)
    for s in (0.5, 1.0, 3.0, 100.0):
        assert tapered_symmetry_defect(g, u, u, 1, s) == 0


def test_tapered_defect_rejects_bad_radius():
    g = quadratic_well_ray()
    with pytest.raises(InputError):
        tapered_symmetry_defect(g, VertexFunction.delta(1), VertexFunction.delta(2), 1, 0.0)


def test_tapered_defect_order_independence(rng):
    g = quadratic_well_ray()
    u = random_ray_function(rng)
    v = random_ray_function(rng)
    anchor_fn = AnchorFunction(g, 1)
    s = 2.0
    value = tapered_symmetry_defect(g, u, v, 1, s, anchor_fn=anchor_fn)
    # independent re-summation in reversed vertex order
    Hu = schrodinger_apply(g, u)
    Hv = schrodinger_apply(g, v)
    region = sorted(set(Hu.support) | set(u.support) | set(Hv.support) | set(v.support),
                    reverse=True)
    total = 0.0
    for x in region:
        ramp = max(1.0 - anchor_fn(x) / s, 0.0)
        total += ramp * (Hu(x) * v(x).conjugate() - u(x) * Hv(x).conjugate()) * g.vertex(x).weight
    assert abs(value - total) <= 1e-12 * max(1.0, abs(value))


def test_tapered_defect_bound_sweep(rng):
    g = quadratic_well_ray()
    anchor_fn = AnchorFunction(g, 1)
    for _ in range(10):
        u = random_ray_function(rng)
        v = random_ray_function(rng)
        eu = math.sqrt(minorant_weighted_energy(g, u)[0])
        ev = math.sqrt(minorant_weighted_energy(g, v)[0])
        uniform = math.sqrt(2.0) * (norm_w(g, v) * eu + norm_w(g, u) * ev)
        for s in (1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0):
            report = tapered_defect_bound(g, u, v, 1, s, degree_bound=2, anchor_fn=anchor_fn)
            assert report.passed
            # radius times defect stays below the radius-free energy bound
            assert s * abs(report.value) <= uniform * (1.0 + 1e-10) + 1e-12


def test_tapered_defect_scaled_by_radius_stabilizes(rng):
    g = quadratic_well_ray()
    u = random_ray_function(rng, span=12)
    v = random_ray_function(rng, span=12)
    anchor_fn = AnchorFunction(g, 1)
    Hu = schrodinger_apply(g, u)
    Hv = schrodinger_apply(g, v)
    region = set(Hu.support) | set(u.support) | set(Hv.support) | set(v.support)
    summand_scale = sum(abs(Hu(x) * v(x).conjugate() - u(x) * Hv(x).conjugate())
                        * g.vertex(x).weight for x in region)
    radii = (50.0, 400.0, 3200.0)
    products = [s * tapered_symmetry_defect(g, u, v, 1, s, anchor_fn=anchor_fn)
                for s in radii]
    # the defect decays exactly like 1/s once the ramp stops clipping, up to
    # summation noise amplified by the radius
    tol = 1e-12 * radii[-1] * summand_scale + 1e-12
    assert abs(products[0] - products[1]) <= tol
    assert abs(products[1] - products[2]) <= tol
    assert abs(products[0]) > tol  # the stabilized value is a genuine constant


def test_tapered_defect_large_radius_limit(rng):
    g = quadratic_well_ray()
    anchor_fn = AnchorFunction(g, 1)
    u = random_ray_function(rng)
    v = random_ray_function(rng)
    Hu = schrodinger_apply(g, u)
    Hv = schrodinger_apply(g, v)
    region = set(Hu.support) | set(u.support) | set(Hv.support) | set(v.support)
    # scale of the terms entering the sum, before their cancellation
    scale = sum((abs(Hu(x) * v(x).conjugate()) + abs(u(x) * Hv(x).conjugate()))
                * g.vertex(x).weight for x in region)
    far = tapered_symmetry_defect(g, u, v, 1, 1e12, anchor_fn=anchor_fn)
    assert abs(far) <= 1e-10 * scale
    plain = sum((Hu(x) * v(x).conjugate() - u(x) * Hv(x).conjugate()) * g.vertex(x).weight
                for x in sorted(region))
    assert abs(plain) <= 1e-10 * scale


def test_tapered_defect_order_independence_with_phases(rng):
    # explicit truncation of the reference ray, with random unit phases
    import cmath

    vertices = {n: (1.0, -float(n * n), float(n * n)) for n in range(1, 21)}
    edges = {(n, n + 1): (1.0, cmath.exp(1j * rng.uniform(0, 2 * math.pi)))
             for n in range(1, 20)}
    g = ExplicitGraph(vertices, edges)
    u = random_vertex_function(rng, g)
    v = random_vertex_function(rng, g)
    anchor_fn = AnchorFunction(g, 1)
    s = 2.0
    value = tapered_symmetry_defect(g, u, v, 1, s, anchor_fn=anchor_fn)
    Hu = schrodinger_apply(g, u)
    Hv = schrodinger_apply(g, v)
    region = sorted(set(Hu.support) | set(u.support) | set(Hv.support) | set(v.support),
                    reverse=True)
    total = 0.0
    for x in region:
        ramp = max(1.0 - anchor_fn(x) / s, 0.0)
        total += ramp * (Hu(x) * v(x).conjugate() - u(x) * Hv(x).conjugate()) * g.vertex(x).weight
    assert abs(value - total) <= 1e-12 * max(1.0, abs(value))


def test_tapered_defect_bound_zero_input():
    g = quadratic_well_ray()
    report = tapered_defect_bound(g, VertexFunction(), VertexFunction(), 1, 4.0,
                                  degree_bound=2)
    assert report.value == 0 and report.bound == 0.0 and report.passed
