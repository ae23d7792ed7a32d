"""Acceptance battery: one test per release criterion, printed pass/fail.

Each test pins the tolerance it must meet; run with ``pytest -s`` to see the
one-line summaries.  The reference scenario is the quadratic-well half-line,
whose metric reduces to the harmonic series.
"""

import numpy as np

from magschro.cli import main
from magschro.criteria import lipschitz_best_constant
from magschro.estimates import (
    energy_bound_check,
    gradient_energy_inequality,
    tapered_defect_bound,
    tapered_symmetry_defect,
)
from magschro.families import quadratic_well_ray
from magschro.functions import VertexFunction, inner_a
from magschro.graphio import parse_graph, serialize_graph
from magschro.metric import (
    WITH_Q,
    AnchorFunction,
    completeness_probe,
    cutoff_property_check,
    shortest_paths,
)
from magschro.operators import (
    adjointness_residual,
    codifferential,
    composition_residual,
    leibniz_residual,
    product_rule_residual,
    schrodinger_apply,
    symmetry_residual,
)
from magschro.exprlang import eval_expr, parse_expr
from magschro.randomgraphs import (
    random_connected_graph,
    random_edge_function,
    random_vertex_function,
)
from magschro.spectral import assemble_truncation, eigen_extremes
from magschro.suites import identity_suite, square_average_suite


def report(name, ok, detail):
    print(f"ACCEPTANCE {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, detail


def ray_function(rng, span, size=8):
    ids = rng.choice(span, size=min(size, span), replace=False) + 1
    return VertexFunction({int(i): complex(rng.normal(0, 2), rng.normal(0, 2))
                           for i in ids})


def test_criterion_01_identity_suite():
    result = identity_suite(seed=42, graphs=200, max_vertices=40)
    ok = result.passed and result.elapsed < 30.0
    report("01 identity-suite", ok,
           f"worst relative residual {result.worst:.3e} over {result.graphs} graphs "
           f"in {result.elapsed:.1f}s (tolerance 1e-10, limit 30s)")


def test_criterion_02_square_average():
    result = square_average_suite(seed=7, samples=10_000)
    report("02 square-average", result.passed,
           f"{result.violations} violations over {result.samples} samples, "
           f"{result.degenerate} degenerate, worst margin {result.worst_margin:.3e} "
           f"over the rest")


def test_criterion_03_reference_metric():
    g = quadratic_well_ray()
    search = shortest_paths(g, 1, q_mode=WITH_Q, budget=1_100_000, target=1_000_000)
    dist = search.distances
    harmonic = 1.0
    max_rel = 0.0
    for k in range(2, 10_001):
        harmonic += 1.0 / k
        oracle = harmonic - 1.0
        max_rel = max(max_rel, abs(dist[k] - oracle) / oracle)
    d_far = dist[1_000_000]
    verdict = completeness_probe(g, 1, budget=20_000).verdict
    ok = max_rel <= 1e-12 and 13.39 <= d_far <= 13.40 and verdict == "complete (exact)"
    report("03 reference-metric", ok,
           f"max rel err vs harmonic oracle {max_rel:.3e}; d(1,1e6) = {d_far:.6f}; "
           f"completeness verdict {verdict!r}")


def test_criterion_04_reference_lipschitz():
    g = quadratic_well_ray()
    check = lipschitz_best_constant(g, range(1, 10_001))
    ok = abs(check.constant - 0.5) <= 1e-12 and tuple(check.witness) == (1, 2)
    report("04 reference-lipschitz", ok,
           f"C_best = {check.constant!r}, witness {tuple(check.witness)}")


def test_criterion_05_unbounded_below_spectrum():
    g = quadratic_well_ray()
    values = []
    residuals = []
    for k in (10, 20, 40):
        ext = eigen_extremes(assemble_truncation(g, range(1, k + 1)))
        values.append(ext.lambda_min)
        residuals.append(ext.residual)
    ok = all(lam <= 2 - k * k for lam, k in zip(values, (10, 20, 40)))
    ok = ok and values[0] > values[1] > values[2]
    ok = ok and all(r <= 1e-8 for r in residuals)
    report("05 spectrum-unbounded-below", ok,
           f"lambda_min = {values}, residuals <= {max(residuals):.2e}")


def test_criterion_06_energy_bound():
    g = quadratic_well_ray()
    hand = energy_bound_check(g, VertexFunction.delta(1), lipschitz_constant=1.0,
                              degree_bound=2)
    ok = hand.energy_sq == 0.25 and hand.bound == 12.0
    rng = np.random.default_rng(606)
    violations = 0
    for _ in range(100):
        u = ray_function(rng, 200)
        if not energy_bound_check(g, u, lipschitz_constant=1.0, degree_bound=2).passed:
            violations += 1
    for _ in range(20):
        gg = random_connected_graph(rng, max_vertices=30, ensure_minorant=True)
        for _ in range(5):
            u = random_vertex_function(rng, gg)
            if not energy_bound_check(gg, u).passed:
                violations += 1
    ok = ok and violations == 0
    report("06 energy-bound", ok,
           f"hand case lhs = {hand.energy_sq}, rhs = {hand.bound}; "
           f"{violations} violations over 100 reference + 100 random-graph draws")


def test_criterion_07_gradient_energy_inequality():
    g = quadratic_well_ray()
    rng = np.random.default_rng(707)
    violations = 0
    pairs = 0
    from magschro.metric import CutoffFunction

    for n in (1, 2, 4, 8):
        phi = CutoffFunction(g, 1, n).tapered_profile()
        for _ in range(25):
            u = ray_function(rng, 50)
            if not gradient_energy_inequality(g, u, phi).passed:
                violations += 1
            pairs += 1
    report("07 gradient-energy-inequality", violations == 0,
           f"{violations} violations over {pairs} (u, taper) pairs, n in {{1,2,4,8}}")


def test_criterion_08_cutoff_properties():
    g = quadratic_well_ray()
    bad = [n for n in range(1, 21) if not cutoff_property_check(g, 1, n).ok]
    rng = np.random.default_rng(808)
    random_bad = 0
    for _ in range(20):
        gg = random_connected_graph(rng, max_vertices=20)
        x0 = gg.vertices()[0]
        for n in (1, 2, 3):
            if not cutoff_property_check(gg, x0, n).ok:
                random_bad += 1
    ok = not bad and random_bad == 0
    report("08 cutoff-properties", ok,
           f"reference ray n=1..20 failures {bad}; random-graph failures {random_bad}/60")


def test_criterion_09_tapered_defect():
    g = quadratic_well_ray()
    rng = np.random.default_rng(909)
    anchor_fn = AnchorFunction(g, 1)
    sweep_violations = 0
    limit_violations = 0
    for _ in range(50):
        u = ray_function(rng, 40, size=6)
        v = ray_function(rng, 40, size=6)
        for s in (1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0):
            if not tapered_defect_bound(g, u, v, 1, s, degree_bound=2,
                                        anchor_fn=anchor_fn).passed:
                sweep_violations += 1
        Hu = schrodinger_apply(g, u)
        Hv = schrodinger_apply(g, v)
        region = set(Hu.support) | set(u.support) | set(Hv.support) | set(v.support)
        # scale of the terms entering the sum, before their cancellation
        scale = sum((abs(Hu(x) * v(x).conjugate()) + abs(u(x) * Hv(x).conjugate()))
                    * g.vertex(x).weight for x in region)
        far = tapered_symmetry_defect(g, u, v, 1, 1e12, anchor_fn=anchor_fn)
        plain = sum((Hu(x) * v(x).conjugate() - u(x) * Hv(x).conjugate())
                    * g.vertex(x).weight for x in sorted(region))
        if abs(far) > 1e-10 * scale or abs(plain) > 1e-10 * scale:
            limit_violations += 1
    ok = sweep_violations == 0 and limit_violations == 0
    report("09 tapered-defect", ok,
           f"{sweep_violations} bound violations over 50 pairs x 8 dyadic radii; "
           f"{limit_violations} large-radius limits above 1e-10 x scale")


def test_criterion_10_truncation_oracle():
    g = quadratic_well_ray()
    rng = np.random.default_rng(1010)
    worst_rel = 0.0
    worst_defect = 0.0
    trunc = assemble_truncation(g, range(1, 31))
    worst_defect = max(worst_defect, trunc.hermitian_defect())
    for _ in range(50):
        u = ray_function(rng, 30, size=6)
        out = trunc.apply(trunc.vector_of(u))
        Hu = schrodinger_apply(g, u)
        expected = np.array([complex(Hu(x)) for x in trunc.window])
        scale = max(float(np.max(np.abs(expected))), 1e-30)
        worst_rel = max(worst_rel, float(np.max(np.abs(out - expected))) / scale)
    for _ in range(10):
        gg = random_connected_graph(rng, max_vertices=30)
        tt = assemble_truncation(gg, gg.vertices())
        worst_defect = max(worst_defect, tt.hermitian_defect())
        for _ in range(5):
            u = random_vertex_function(rng, gg)
            out = tt.apply(tt.vector_of(u))
            Hu = schrodinger_apply(gg, u)
            expected = np.array([complex(Hu(x)) for x in tt.window])
            scale = max(float(np.max(np.abs(expected))), 1e-30)
            worst_rel = max(worst_rel, float(np.max(np.abs(out - expected))) / scale)
    ok = worst_rel <= 1e-12 and worst_defect <= 1e-12
    report("10 truncation-oracle", ok,
           f"worst matrix-vs-operator relative gap {worst_rel:.3e} over 100 functions; "
           f"worst hermitian defect {worst_defect:.3e}")


def test_criterion_11_orientation_flip_invariance():
    rng = np.random.default_rng(1111)
    g = random_connected_graph(rng, min_vertices=20, max_vertices=40)
    edges = g.edges()
    picks = rng.choice(len(edges), size=10, replace=False)
    g2 = g.with_flipped_orientation([edges[int(i)] for i in picks])
    u = random_vertex_function(rng, g)
    v = random_vertex_function(rng, g)
    Y = random_edge_function(rng, g)

    gaps = {}
    gaps["inner_a"] = abs(inner_a(g, Y, Y) - inner_a(g2, Y, Y))
    c1 = codifferential(g, Y)
    c2 = codifferential(g2, Y)
    gaps["codifferential"] = max(abs(c1(x) - c2(x))
                                 for x in set(c1.support) | set(c2.support))
    gaps["leibniz"] = abs(leibniz_residual(g, u, v) - leibniz_residual(g2, u, v))
    gaps["product-rule"] = abs(product_rule_residual(g, u, Y)
                               - product_rule_residual(g2, u, Y))
    gaps["adjointness"] = abs(adjointness_residual(g, u, Y)
                              - adjointness_residual(g2, u, Y))
    gaps["composition"] = abs(composition_residual(g, u) - composition_residual(g2, u))
    gaps["symmetry"] = abs(symmetry_residual(g, u, v) - symmetry_residual(g2, u, v))

    from magschro.estimates import weighted_gradient_energy

    phi = random_vertex_function(rng, g, real=True)
    gaps["gradient-energy"] = abs(weighted_gradient_energy(g, u, phi)
                                  - weighted_gradient_energy(g2, u, phi))
    x0 = g.vertices()[0]
    gaps["tapered-defect"] = abs(
        tapered_symmetry_defect(g, u, v, x0, 2.0)
        - tapered_symmetry_defect(g2, u, v, x0, 2.0))

    worst = max(gaps.values())
    report("11 orientation-flip", worst <= 1e-12,
           "; ".join(f"{k} {val:.2e}" for k, val in gaps.items()))


def test_criterion_12_cli_reproduction(capsys):
    assert eval_expr(parse_expr("-(n^2)"), 3) == -9.0
    doc = ('{"vertices": [{"id": "b"}, {"id": "a"}], '
           '"edges": [{"u": "b", "v": "a", "sigma": {"re": 0.6, "im": 0.8}}]}')
    once = serialize_graph(parse_graph(doc))
    assert serialize_graph(parse_graph(once)) == once

    code = main(["reproduce", "paper-example", "--seed", "42"])
    out = capsys.readouterr().out
    with capsys.disabled():
        ok = code == 0 and "summary: all stages pass" in out
        for marker in ("C_best = 0.5", "> 13 and still growing",
                       "lambda_min(K=40) <= -1598: True", "all identity suites pass"):
            ok = ok and marker in out
        report("12 cli-reproduction", ok,
               f"exit code {code}; round-trip idempotent; expression oracle -9.0")
