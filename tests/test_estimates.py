import dataclasses
import json
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import estimate_oracle as oracle
from magschro import estimates
from magschro.cli import main
from magschro.criteria import lipschitz_best_constant
from magschro.errors import InputError, MinorantViolationError
from magschro.estimates import (
    energy_bound_check,
    gradient_energy_inequality,
    minorant_weighted_energy,
    tapered_defect_bound,
    tapered_defect_profile,
    tapered_symmetry_defect,
    weighted_gradient_energy,
)
from magschro.exact import FOURTH_ROOTS, ComplexRational, pythagorean_phase
from magschro.families import make_family, quadratic_well_ray
from magschro.functions import VertexFunction, norm_w
from magschro.graphs import ExplicitGraph
from magschro.metric import AnchorFunction, CutoffFunction, edge_length
from magschro.operators import python_product, schrodinger_apply
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


@pytest.mark.parametrize("value", [0.5 + 0j, complex(2), np.complex128(1.5), "1", None,
                                   ComplexRational(Fraction(1, 2))])
def test_phi_of_any_type_but_a_real_number_is_refused(value):
    g = quadratic_well_ray()
    u, phi = VertexFunction({1: 1.0, 2: 2j}), VertexFunction({1: 1, 2: value})
    for check in (weighted_gradient_energy, gradient_energy_inequality):
        with pytest.raises(InputError) as info:
            check(g, u, phi)
        assert str(info.value) == f"phi must be real-valued; phi(2) = {value!r}"


def test_fraction_phi_matches_the_loops_bit_for_bit(rng):
    """Fraction weights, as an exact cut-off profile holds them, with ints,
    floats and numpy floats beside them: every ``numbers.Real`` is a weight."""
    g = quadratic_well_ray()
    for _ in range(20):
        u = random_ray_function(rng, span=12)
        phi = VertexFunction({x: Fraction(int(k), 7) for x, k in
                              zip(range(1, 14), rng.integers(-9, 10, 13))})
        phi = phi + VertexFunction({3: 1, 5: 0.25, 9: np.float64(1.5)})
        assert (_bits(gradient_energy_inequality(g, u, phi))
                == _bits(oracle.gradient_energy_inequality(g, u, phi)))
        assert (_bits(weighted_gradient_energy(g, u, phi))
                == _bits(oracle.weighted_gradient_energy(g, u, phi)))


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


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning",
                            "ignore:invalid value encountered:RuntimeWarning")
@pytest.mark.parametrize("spec", [{"family": "path", "size": 5, "w": "1e-300"},
                                  {"family": "path", "size": 5, "a": "1e308"},
                                  {"family": "path-nat", "a": "1e308"}],
                         ids=["path-w", "path-a", "ray-a"])
def test_energy_bound_refuses_squares_past_the_float_range(spec):
    # abs(x) ** 2 of a finite Hu or du raises OverflowError, which is refused as
    # require_finite refuses an overflow to inf
    with pytest.raises(InputError, match="the inputs overflow double precision"):
        energy_bound_check(make_family(spec), VertexFunction({2: 1.0, 3: 0.5j}),
                           lipschitz_constant=1.0, degree_bound=2)


@pytest.mark.parametrize("value", [1e200, 1.5e308 + 1.5e308j], ids=["power", "abs"])
def test_squares_past_the_float_range_are_an_input_error(value):
    with pytest.raises(InputError, match="the inputs overflow double precision"):
        estimates._squares(np.array([1.0, value]))


@pytest.mark.parametrize("constant", [math.nan, math.inf, -math.inf, -1.0])
def test_hostile_lipschitz_constant_is_an_input_error(constant):
    with pytest.raises(InputError, match="Lipschitz constant must be finite and nonnegative"):
        energy_bound_check(quadratic_well_ray(), VertexFunction.delta(1),
                           lipschitz_constant=constant, degree_bound=2)


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


def test_gradient_energy_inequality_reads_each_closure_once(rng):
    from magschro.randomgraphs import random_function

    for _ in range(10):
        g = random_connected_graph(rng, ensure_minorant=True, max_vertices=20)
        u = random_vertex_function(rng, g, max_support=4)
        phi = random_function(rng, g.vertices(), max_support=4, real=True)
        closure = {s: {y for x in f.support for y in [x, *(e.terminus for e, _ in g.neighbors(x))]}
                   for s, f in (("u", u), ("phi", phi))}
        calls, read = [], g.closure_window
        g.closure_window = lambda *args: calls.append(set(read(*args).ids.tolist())) or read(*args)
        g.neighbors = lambda x: pytest.fail("the closures are sliced from the arrays")
        gradient_energy_inequality(g, u, phi)
        assert calls == [closure["phi"], closure["u"]]


def test_commutator_term_matches_the_edge_loop(rng):
    """The cross term over the closure window equals the loop over incident
    edges and their looked-up data, bit for bit."""
    from dict_calculus import incident_edges
    from magschro.randomgraphs import random_function

    for _ in range(40):
        g = random_connected_graph(rng, ensure_minorant=True, max_vertices=20)
        u = random_vertex_function(rng, g, max_support=5)
        phi = random_function(rng, g.vertices(), max_support=5, real=True)
        cross = 0.0
        for k in incident_edges(g, phi.support):
            data = g.edge_data(k)
            dphi = phi(k[1]) - phi(k[0])
            if dphi != 0:
                phased = (data.phase * u(k[1]).conjugate() + u(k[0]).conjugate()) / 2
                cross += data.weight * abs(dphi) ** 2 * abs(phased) ** 2
        report = gradient_energy_inequality(g, u, phi)
        energy = weighted_gradient_energy(g, u, phi)
        assert report.commutator_term == 2.0 * energy * math.sqrt(cross)


# -- the array passes against the per-vertex loops of estimate_oracle, bit for bit

def _bits(x):
    """``x`` with every float spelled by ``float.hex``, every other value by type and repr."""
    if isinstance(x, float):
        return "float " + x.hex()
    if isinstance(x, complex):
        return f"complex {x.real.hex()} {x.imag.hex()}"
    if isinstance(x, dict):
        return [(_bits(k), _bits(v)) for k, v in x.items()]
    if isinstance(x, (list, tuple)):
        return [_bits(v) for v in x]
    if dataclasses.is_dataclass(x):
        return [(f.name, _bits(getattr(x, f.name))) for f in dataclasses.fields(x)]
    return f"{type(x).__name__} {x!r}"


def _outcome(call, *args, **kwargs):
    """The bits of what ``call`` returns, or the type and message of what it raises.

    A TypeError is given by its type alone, and by whether a ComplexRational
    raised it on meeting a float in the loops: its message names the first
    operation to meet one, and the loop and the array pass take their
    products in another order.
    """
    try:
        return _bits(call(*args, **kwargs))
    except TypeError as error:
        return FLOAT_MET if "'ComplexRational'" in str(error) else "raises TypeError"
    except Exception as error:  # the oracle must raise the same, with the same message
        return f"raises {type(error).__name__}: {error}"


FLOAT_MET = "raises TypeError: a ComplexRational met a float"
NO_FLOAT_FACTOR = "and ComplexRational values take no float factor"
REFUSED = {
    "gradient": "raises InputError: gradient energy inequality: a weight of phi or a phase "
                f"is a float, {NO_FLOAT_FACTOR}",
    "tapered": f"raises InputError: tapered defect: the taper ramp 1 - d/s is a float, "
               f"{NO_FLOAT_FACTOR}",
}


def _refused(outcome, check):
    """The loop's outcome as the array pass gives it: where a ComplexRational
    met a float in the loop, an InputError that names the float."""
    return REFUSED[check] if outcome == FLOAT_MET else outcome


def _assert_estimates_match(g, u, v, phi, x0, radii, **constants):
    """Every estimate of ``u``, ``v`` and ``phi`` equals the oracle's, field by field."""
    for f in (u, v):
        assert (_outcome(energy_bound_check, g, f, **constants)
                == _outcome(oracle.energy_bound_check, g, f, **constants))
    assert (_outcome(gradient_energy_inequality, g, u, phi)
            == _refused(_outcome(oracle.gradient_energy_inequality, g, u, phi), "gradient"))
    degree = {k: c for k, c in constants.items() if k == "degree_bound"}
    want = [_refused(_outcome(oracle.tapered_defect_bound, g, u, v, x0, s, **degree), "tapered")
            for s in radii]
    assert [_outcome(tapered_defect_bound, g, u, v, x0, s, **degree) for s in radii] == want
    # the profile fails as its first radius to fail does
    failed = [outcome for outcome in want if isinstance(outcome, str)]
    profile = _outcome(tapered_defect_profile, g, u, v, x0, radii, **degree)
    assert profile == (failed[0] if failed else want)
    for s in radii:
        assert (_outcome(tapered_symmetry_defect, g, u, v, x0, s)
                == _refused(_outcome(oracle.tapered_symmetry_defect, g, u, v, x0, s), "tapered"))


def _benchmark_draw(rng, limit):
    """Up to 12 points of 1..limit with complex normal values, as the benchmark draws them."""
    size = int(rng.integers(1, min(12, limit) + 1))
    chosen = rng.choice(limit, size=size, replace=False)
    return VertexFunction({int(i) + 1: complex(rng.normal(0, 2), rng.normal(0, 2))
                           for i in chosen})


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_benchmark_inputs_match_the_loops_bit_for_bit(seed):
    rng = np.random.default_rng(seed)
    g = quadratic_well_ray()
    for _ in range(40):
        u = _benchmark_draw(rng, 200)
        assert (_bits(energy_bound_check(g, u, lipschitz_constant=1.0))
                == _bits(oracle.energy_bound_check(g, u, lipschitz_constant=1.0)))
    for n in (1, 2, 4, 8):
        phi = CutoffFunction(g, 1, n).tapered_profile()
        for _ in range(5):
            u = _benchmark_draw(rng, 16)
            assert (_bits(gradient_energy_inequality(g, u, phi))
                    == _bits(oracle.gradient_energy_inequality(g, u, phi)))
    radii = [float(2 ** k) for k in range(8)]
    anchor, oracle_anchor = AnchorFunction(g, 1), AnchorFunction(g, 1)
    for _ in range(15):
        u, v = _benchmark_draw(rng, 200), _benchmark_draw(rng, 200)
        want = [_bits(oracle.tapered_defect_bound(g, u, v, 1, s, anchor_fn=oracle_anchor))
                for s in radii]
        assert [_bits(tapered_defect_bound(g, u, v, 1, s, anchor_fn=anchor))
                for s in radii] == want
        assert _bits(tapered_defect_profile(g, u, v, 1, radii, anchor_fn=anchor)) == want


def _relabelled(g, ids):
    """``g`` with its int ids x renamed "vx": all of them ("str") or the odd ones ("mixed")."""
    def name(x):
        return f"v{x}" if ids == "str" or x % 2 else x

    return ExplicitGraph({name(x): g.vertex(x) for x in g.vertices()},
                         {(name(e.origin), name(e.terminus)): g.edge_data(e)
                          for e in g.edges()})


@settings(max_examples=60)
@given(seed=st.integers(0, 2**32 - 1), ids=st.sampled_from(["int", "str", "mixed"]),
       real=st.booleans(), minorant=st.booleans(), flips=st.integers(0, 4),
       radii=st.lists(st.floats(1e-3, 1e3), min_size=1, max_size=4))
def test_complex_phase_graphs_match_the_loops_bit_for_bit(seed, ids, real, minorant, flips,
                                                         radii):
    rng = np.random.default_rng(seed)
    g = random_connected_graph(rng, max_vertices=16, ensure_minorant=minorant)
    if ids != "int":
        g = _relabelled(g, ids)
    n = len(g.vertices())
    u = random_vertex_function(rng, g, max_support=int(rng.integers(1, n + 1)), real=real)
    v = random_vertex_function(rng, g, max_support=int(rng.integers(1, n + 1)))
    phi = random_vertex_function(rng, g, max_support=int(rng.integers(1, n + 1)), real=True)
    kind = rng.random()
    if kind < 0.3:  # int weights, as a cut-off profile may hold
        phi = VertexFunction({x: int(round(p)) for x, p in phi.items()})
    elif kind < 0.4:  # real values of complex type, which both refuse
        phi = VertexFunction({x: complex(p) for x, p in phi.items()})
    edges = g.edges()
    picks = rng.choice(len(edges), size=min(flips, len(edges)), replace=False)
    g = g.with_flipped_orientation([edges[int(i)] for i in picks])
    x0 = g.vertices()[int(rng.integers(n))]
    _assert_estimates_match(g, u, v, phi, x0, radii)
    _assert_estimates_match(g, u, v, phi, x0, radii, lipschitz_constant=1.5, degree_bound=7)


def _fractions(lo, hi):
    return st.builds(Fraction, st.integers(lo, hi), st.integers(1, 9))


@st.composite
def _exact_cases(draw):
    """A graph of Fraction data with u and v of Fraction or float values and phase
    1, or of ComplexRational values and exact unit phases; W >= -q may fail."""
    n = draw(st.integers(2, 6))
    scalar, phases = draw(st.sampled_from([
        (_fractions(-9, 9), (1,)),
        (st.floats(-9, 9), (1,)),
        (st.builds(ComplexRational, _fractions(-9, 9), _fractions(-9, 9)),
         FOURTH_ROOTS + (pythagorean_phase(2, 1),))]))
    q = {x: 1 + draw(_fractions(0, 9)) for x in range(1, n + 1)}
    vertices = {x: (draw(_fractions(1, 9)), draw(_fractions(-1, 9)) - q[x], q[x]) for x in q}
    edges = {(draw(st.integers(1, k - 1)), k): (draw(_fractions(1, 9)),
                                                draw(st.sampled_from(phases)))
             for k in range(2, n + 1)}
    u, v = (VertexFunction(draw(st.dictionaries(st.integers(1, n), scalar, min_size=1,
                                                max_size=n)))
            for _ in range(2))
    phi = VertexFunction(draw(st.dictionaries(st.integers(1, n),
                                              st.one_of(st.integers(-3, 3), st.floats(-3, 3)),
                                              max_size=n)))
    radii = draw(st.lists(st.sampled_from([Fraction(1, 2), 1, 3.5, 1e6]), min_size=1,
                          max_size=3))
    return ExplicitGraph(vertices, edges), u, v, phi, draw(st.integers(1, n)), radii


@settings(max_examples=60)
@given(case=_exact_cases())
def test_exact_data_match_the_loops_through_object_arrays(case):
    _assert_estimates_match(*case)


def test_tapered_defect_is_the_int_0_when_every_ramp_vanishes(capsys):
    g = quadratic_well_ray()
    u, v = VertexFunction({5: 1 + 2j, 6: -1.5}), VertexFunction({5: 0.5j, 7: 2.0})
    assert tapered_symmetry_defect(g, u, v, 1, 3.0) != 0  # the defect itself is not zero
    for rep in (tapered_defect_bound(g, u, v, 1, 1e-3),
                *tapered_defect_profile(g, u, v, 1, [1e-3, 0.5])):
        assert type(rep.value) is int and rep.value == 0 and rep.passed
    # the CLI writes that int 0: a one-vertex window draws u and v on x0
    # alone, whose defect cancels exactly on the free ray, so no term is left
    assert main(["estimate", "--family", "path-nat", "--lipschitz-c", "1", "--x0", "500",
                 "--window", "1", "--trials", "2", "--json", "-"]) == 0
    sweep = json.loads(capsys.readouterr().out.split("PASS\n", 1)[1])["tapered_defect"]
    assert [point["value"] for point in sweep["last_sweep"]] == [0] * 8


def test_complex_rational_data_meeting_a_float_raise_an_input_error():
    """The ramp and float phi weights cannot multiply ComplexRational values;
    the checks say so, where the loops end in a bare TypeError."""
    half = ComplexRational(Fraction(1, 2), Fraction(1, 3))
    g = ExplicitGraph({1: (Fraction(1), Fraction(-1), Fraction(1)),
                       2: (Fraction(2), Fraction(-3), Fraction(4)),
                       3: (Fraction(1), Fraction(-1), Fraction(2))},
                      {(1, 2): (Fraction(1), FOURTH_ROOTS[1]), (2, 3): (Fraction(1, 2), 1)})
    u, v = VertexFunction({1: half, 2: ComplexRational(1)}), VertexFunction({2: half})
    with pytest.raises(TypeError):
        oracle.tapered_defect_bound(g, u, v, 1, 3.5, degree_bound=2)
    with pytest.raises(InputError, match="the taper ramp 1 - d/s is a float, and "
                                         "ComplexRational values take no float factor"):
        tapered_defect_bound(g, u, v, 1, 3.5, degree_bound=2)
    with pytest.raises(InputError, match="the taper ramp"):
        tapered_defect_profile(g, u, v, 1, [1e-3, 3.5], degree_bound=2)
    with pytest.raises(InputError, match="a weight of phi or a phase is a float"):
        gradient_energy_inequality(g, u, VertexFunction({1: 0.5, 2: 1}))
    phi = VertexFunction({1: 1, 2: 2})  # int weights and exact phases: no float
    assert gradient_energy_inequality(g, u, phi) == oracle.gradient_energy_inequality(g, u, phi)


def test_python_product_rounds_as_python_does():
    """The reason for ``python_product``: numpy's complex ``*`` can round a
    product differently from Python's; the helper never does."""
    rng = np.random.default_rng(5)
    a, b = (rng.normal(size=(400, 2)) @ np.array([1, 1j]) for _ in range(2))
    loop = [x * y for x, y in zip(a.tolist(), b.tolist())]
    assert python_product(a, b).tolist() == loop
    assert python_product(a.real, b).tolist() == [x * y for x, y in zip(a.real.tolist(),
                                                                         b.tolist())]


def test_gradient_energy_inequality_checks_phi_once(monkeypatch, rng):
    calls = []
    check = estimates._require_real
    monkeypatch.setattr(estimates, "_require_real", lambda phi: calls.append(phi) or check(phi))
    g = quadratic_well_ray()
    phi = CutoffFunction(g, 1, 4).tapered_profile()
    gradient_energy_inequality(g, random_ray_function(rng), phi)
    assert calls == [phi]
