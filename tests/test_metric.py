import math

import pytest

from conftest import two_vertex_graph
from magschro.errors import BudgetExhaustedError, InputError
from magschro.families import make_family, quadratic_well_ray
from magschro.metric import (
    UNIT_Q,
    WITH_Q,
    AnchorFunction,
    CutoffFunction,
    ball,
    completeness_probe,
    cutoff_property_check,
    distance,
    edge_length,
    shortest_paths,
)
from magschro.randomgraphs import random_connected_graph


def unit_path(n):
    return make_family({"family": "path", "size": n})


def brute_force_distance(g, x, y, q_mode):
    """Exhaustive minimum over simple paths; usable up to ~12 vertices."""
    best = math.inf

    def walk(node, acc, visited):
        nonlocal best
        if node == y:
            best = min(best, acc)
            return
        for e, _ in g.neighbors(node):
            t = e.terminus
            if t not in visited:
                walk(t, acc + edge_length(g, e, q_mode), visited | {t})

    walk(x, 0.0, {x})
    return best


def test_edge_length_reference_ray():
    g = quadratic_well_ray()
    for n in (1, 2, 3, 10):
        assert edge_length(g, (n, n + 1), WITH_Q) == 1.0 / (n + 1)


def test_edge_length_unit_q():
    g = quadratic_well_ray()
    assert edge_length(g, (5, 6), UNIT_Q) == 1.0
    g2 = two_vertex_graph(w1=4.0, w2=9.0, a=4.0)
    assert edge_length(g2, ("x", "y"), UNIT_Q) == 1.0  # min(2,3)/2


def test_edge_length_symmetric_under_reversal():
    g = quadratic_well_ray()
    assert edge_length(g, (4, 5)) == edge_length(g, (5, 4))


def test_edge_length_rejects_bad_mode():
    with pytest.raises(InputError):
        edge_length(quadratic_well_ray(), (1, 2), "no-q")


def test_distance_reference_values():
    g = quadratic_well_ray()
    assert distance(g, 1, 4) == pytest.approx(13.0 / 12.0, rel=1e-15)
    assert distance(g, 1, 1) == 0.0
    assert distance(unit_path(6), 1, 4, q_mode=UNIT_Q) == 3.0


def test_distance_harmonic_oracle():
    g = quadratic_well_ray()
    settled = shortest_paths(g, 1, q_mode=WITH_Q, target=1000).distances
    harmonic = 1.0
    for k in range(2, 1001):
        harmonic += 1.0 / k
        assert settled[k] == pytest.approx(harmonic - 1.0, rel=1e-13)


def test_distance_budget_unresolved():
    g = quadratic_well_ray()
    assert distance(g, 1, 1000, budget=10) is None


def test_distance_matches_brute_force(rng):
    for _ in range(15):
        g = random_connected_graph(rng, max_vertices=9)
        ids = g.vertices()
        x = ids[int(rng.integers(0, len(ids)))]
        y = ids[int(rng.integers(0, len(ids)))]
        for mode in (WITH_Q, UNIT_Q):
            assert distance(g, x, y, q_mode=mode) == brute_force_distance(g, x, y, mode)


def test_metric_symmetry_and_triangle(rng):
    g = random_connected_graph(rng, max_vertices=8)
    ids = g.vertices()
    d = {x: shortest_paths(g, x, q_mode=WITH_Q).distances for x in ids}
    for x in ids:
        for y in ids:
            assert d[x][y] == pytest.approx(d[y][x], abs=1e-12)
            for z in ids:
                assert d[x][z] <= d[x][y] + d[y][z] + 1e-12


def test_ball_reference_cases():
    g = quadratic_well_ray()
    b = ball(g, 1, 0.6)
    assert set(b.members) == {1, 2}
    assert b.members[2] == 0.5
    assert b.complete
    assert set(ball(g, 7, 0.0).members) == {7}
    assert set(ball(unit_path(9), 1, 2.5, q_mode=UNIT_Q).members) == {1, 2, 3}


def test_ball_budget_flags_incomplete():
    g = quadratic_well_ray()
    b = ball(g, 1, 5.0, budget=20)
    assert not b.complete


def test_ball_rejects_negative_radius():
    with pytest.raises(InputError):
        ball(quadratic_well_ray(), 1, -1.0)


def test_minorant_shrinks_metric(rng):
    g = random_connected_graph(rng, max_vertices=12)
    for e in g.edges():
        assert edge_length(g, e, WITH_Q) <= edge_length(g, e, UNIT_Q)
    x0 = g.vertices()[0]
    unit_ball = ball(g, x0, 1.5, q_mode=UNIT_Q)
    q_ball = ball(g, x0, 1.5, q_mode=WITH_Q)
    assert set(unit_ball.members) <= set(q_ball.members)


def test_completeness_probe_reference_ray():
    report = completeness_probe(quadratic_well_ray(), 1, budget=20000)
    assert report.verdict == "complete (exact)"
    assert report.series.classification == "divergent"
    assert report.frontier_open


def test_completeness_probe_convergent_ray():
    g = make_family({"family": "path-nat", "q": "n^4", "W": "-(n^4)"})
    report = completeness_probe(g, 1, budget=5000)
    assert report.verdict == "incomplete (exact)"
    assert report.series.classification == "convergent"


def test_completeness_probe_finite_graph():
    report = completeness_probe(unit_path(30), 1, budget=1000)
    assert report.verdict == "complete (exact)"
    assert not report.frontier_open


def test_cutoff_values():
    g = unit_path(12)
    assert CutoffFunction(g, 1, 2).value(1) == 1.0  # at the base point
    assert CutoffFunction(g, 1, 2).value(4) == 0.5  # distance 3 = 1.5 n
    assert CutoffFunction(g, 1, 2).value(5) == 0.0  # distance 4 = 2 n
    assert CutoffFunction(g, 1, 2).value(9) == 0.0  # far outside


def test_cutoff_function_support_and_profile():
    g = quadratic_well_ray()
    chi = CutoffFunction(g, 1, 3)  # unit-q lengths are 1, so d(1, k) = k - 1
    assert chi.support() == list(range(1, 7))
    f = chi.as_vertex_function()
    assert f(1) == 1.0 and f(4) == 1.0 and f(5) == pytest.approx(2.0 / 3.0)
    phi = chi.tapered_profile()
    assert phi(4) == pytest.approx(1.0 / 4.0)  # chi = 1, q(4) ** -0.5 = 1/4


def test_cutoff_budget_error():
    with pytest.raises(BudgetExhaustedError):
        CutoffFunction(quadratic_well_ray(), 1, 50, budget=20)


def test_cutoff_property_check_reference():
    g = quadratic_well_ray()
    for n in (1, 2, 5):
        report = cutoff_property_check(g, 1, n)
        assert report.ok, report.violations
        assert report.support_size == 2 * n


def test_cutoff_property_check_random_graphs(rng):
    for _ in range(5):
        g = random_connected_graph(rng, max_vertices=15)
        report = cutoff_property_check(g, g.vertices()[0], 3)
        assert report.ok, report.violations


def test_cutoff_gradient_equality_case():
    # on a unit path with x0 = 1 and n = 1 the edge (2, 3) straddles the ramp:
    # chi(2) = 1, chi(3) = 0 and d(2, 3) = 1, so the gradient bound is tight
    g = unit_path(5)
    chi = CutoffFunction(g, 1, 1)
    assert chi.value(2) == 1.0
    assert chi.value(3) == 0.0
    assert distance(g, 2, 3, q_mode=UNIT_Q) == 1.0
    report = cutoff_property_check(g, 1, 1)
    assert report.ok


def test_anchor_function_incremental():
    g = quadratic_well_ray()
    anchor = AnchorFunction(g, 1)
    assert anchor(1) == 0.0
    assert anchor(4) == pytest.approx(13.0 / 12.0, rel=1e-15)
    assert anchor(2) == 0.5  # already settled, cached
    tight = AnchorFunction(g, 1, budget=5)
    with pytest.raises(BudgetExhaustedError):
        tight(1000)


def test_search_result_radius_semantics():
    g = quadratic_well_ray()
    res = shortest_paths(g, 1, q_mode=UNIT_Q, radius=3.0)
    assert set(res.distances) == {1, 2, 3, 4}
    assert res.complete
    assert res.settled_radius > 3.0


def test_default_budget_env_override(monkeypatch):
    from magschro.metric import default_budget

    monkeypatch.delenv("MAGSCHRO_BUDGET", raising=False)
    assert default_budget() == 250_000
    monkeypatch.setenv("MAGSCHRO_BUDGET", "1234")
    assert default_budget() == 1234
    monkeypatch.setenv("MAGSCHRO_BUDGET", "zero")
    with pytest.raises(InputError):
        default_budget()
    monkeypatch.setenv("MAGSCHRO_BUDGET", "-5")
    with pytest.raises(InputError):
        default_budget()


def test_completeness_probe_numeric_evidence_paths(monkeypatch):
    # mask the series classifier so the probe must argue from radius growth
    divergent = quadratic_well_ray()
    monkeypatch.setattr(type(divergent), "is_metric_ray", False)
    report = completeness_probe(divergent, 1, budget=20000)
    assert report.series is None
    assert report.verdict.startswith("evidence-of-completeness up to R=")

    convergent = make_family({"family": "path-nat", "q": "n^4", "W": "-(n^4)"})
    report = completeness_probe(convergent, 1, budget=20000)
    assert report.verdict == "evidence-of-incompleteness"
