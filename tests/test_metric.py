import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import two_vertex_graph
from lattices import flux_lattice
from loop_oracles import window_walk
from magschro import criteria, metric, reference
from magschro.criteria import selfadjointness_criteria
from magschro.errors import BudgetExhaustedError, InputError, MagschroError
from magschro.families import make_family, quadratic_well_ray
from magschro.graphs import ExplicitGraph
from magschro.metric import (
    UNIT_Q,
    WITH_Q,
    AnchorFunction,
    CutoffCheckReport,
    CutoffFunction,
    ball,
    completeness_probe,
    cutoff_property_check,
    distance,
    edge_length,
    shortest_paths,
)
from magschro.randomgraphs import random_connected_graph
from search_probes import count_records, frontier_only


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
    """d(x0, k) = |k - x0| in unit-q on the well, so chi steps down by 1/n per
    edge between n and 2n, which d / n bounds with equality."""
    g = quadratic_well_ray()
    for x0 in (1, 1000):
        for n in range(1, 21):
            assert cutoff_property_check(g, x0, n) == CutoffCheckReport(
                x0=x0, n=n, support_size=2 * n if x0 == 1 else 4 * n - 1, violations=[])


def test_cutoff_property_check_random_graphs(rng):
    for _ in range(5):
        g = random_connected_graph(rng, max_vertices=15)
        report = cutoff_property_check(g, g.vertices()[0], 3)
        assert report.ok, report.violations


def _cutoff_cases():
    well = quadratic_well_ray()
    yield from ((well, 1, n) for n in range(1, 61))
    lattice = flux_lattice(40, 1)
    centres = np.random.default_rng(2).choice(lattice.vertices(), 20, replace=False).tolist()
    yield from ((lattice, x, n) for x in centres for n in (1, 2))
    rng = np.random.default_rng(3)
    for n in range(30):
        g = random_connected_graph(rng, max_vertices=25)
        yield g, g.vertices()[0], 1 + n % 3


def test_a_cutoff_check_searches_its_ball_once(monkeypatch):
    balls = []

    def counted(*args, **kw):
        if kw.get("radius") is not None:
            balls.append(kw["radius"])
        return shortest_paths(*args, **kw)

    for g, x0, n in _cutoff_cases():
        report = cutoff_property_check(g, x0, n)
        assert report.support_size == len(CutoffFunction(g, x0, n).support())
        balls.clear()
        monkeypatch.setattr(metric, "shortest_paths", counted)
        cutoff_property_check(g, x0, n)
        monkeypatch.undo()
        assert balls == [2.5 * n]


def test_cutoff_function_and_check_refuse_as_one():
    g = quadratic_well_ray()
    for n in (0, -1, True, 1.5, "2"):
        for build in (CutoffFunction, cutoff_property_check):
            with pytest.raises(InputError) as info:
                build(g, 1, n)
            assert str(info.value) == f"cut-off index must be a positive integer, got {n!r}"
    # both reach 10: 11 vertices, and the budget stops a search before the radius does
    for build, n, reach in ((CutoffFunction, 5, "2"), (cutoff_property_check, 4, "2.5")):
        with pytest.raises(BudgetExhaustedError) as info:
            build(g, 1, n, budget=11)
        assert str(info.value) == (
            f"the {reach}n-ball around 1 (n={n}) was not settled within the budget")
        build(g, 1, n, budget=12)


def test_cutoff_check_names_the_ball_it_searched():
    # the check searches to 2.5n, past the 2n-ball that CutoffFunction needs:
    # 9 vertices within 8 and 11 within 10 on the well's unit-q metric
    g = quadratic_well_ray()
    assert CutoffFunction(g, 1, 4, budget=10).support() == list(range(1, 9))
    with pytest.raises(BudgetExhaustedError) as info:
        cutoff_property_check(g, 1, 4, budget=10)
    assert str(info.value) == "the 2.5n-ball around 1 (n=4) was not settled within the budget"
    assert cutoff_property_check(g, 1, 4, budget=12).ok


def test_cutoff_check_reports_a_short_metric(monkeypatch):
    """With every pair distance halved, the gradient bound d / n fails on each
    of the n ramp edges (k, k + 1), d(1, k) = k - 1 from n to 2n - 1."""
    g = quadratic_well_ray()
    true = metric.distance
    monkeypatch.setattr(metric, "distance", lambda *args, **kw: true(*args, **kw) / 2)
    for n in range(1, 21):
        report = cutoff_property_check(g, 1, n)
        assert not report.ok and {kind for kind, *_ in report.violations} == {"gradient"}
        ramp = [(k, k + 1) for k in range(n + 1, 2 * n + 1)]
        assert [edge for _, edge, _ in report.violations] == ramp
        assert all(excess == pytest.approx(0.5 / n) for *_, excess in report.violations)


_RAMP = metric._ramp


@pytest.mark.parametrize("broken, found", [
    (lambda n, d: 1.5 if d == 0 else _RAMP(n, d),
     [("range", 1, 1.5), ("plateau", 1, 1.5), ("limit", 1, 1.5)]),
    (lambda n, d: 0.5 if d == 1 else _RAMP(n, d), [("plateau", 2, 0.5), ("limit", 2, 0.5)]),
    (lambda n, d: 0.25 if (n, d) == (2, 4) else _RAMP(n, d), [("support", 5, 0.25)]),
    (lambda n, d: 0.0 if (n, d) == (4, 3) else _RAMP(n, d), [("monotone", 4, -0.5)]),
    (lambda n, d: 0.5 if (n, d) == (6, 5) else _RAMP(n, d), [("limit", 6, 0.5)]),
], ids=["range", "plateau", "support", "monotone", "limit"])
def test_cutoff_check_reports_a_broken_ramp_where_it_breaks(monkeypatch, broken, found):
    """n = 2 on the well: the check settles 1..6 at unit-q distances 0..5,
    reads the ramp at n and at 3, 4, 8 (monotone) and 6 (the limit), and
    reports each property the broken ramp fails at the vertex that fails it.
    The gradient bound is broken through the metric instead, in
    ``test_cutoff_check_reports_a_short_metric``."""
    g = quadratic_well_ray()
    assert cutoff_property_check(g, 1, 2).ok
    monkeypatch.setattr(metric, "_ramp", broken)
    assert cutoff_property_check(g, 1, 2).violations == found


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


def test_anchor_on_a_disjoint_union_refuses_the_other_part():
    """Once the frontier is exhausted, every later read of the other part is
    refused as the first was; a budget of the whole part runs out first."""
    g = ExplicitGraph.from_columns(list(range(1, 9)), [1.0] * 8, [0.0] * 8, [1.0] * 8,
                                   [1, 2, 3, 4, 6, 7], [2, 3, 4, 5, 7, 8], [1.0] * 6,
                                   [1.0] * 6, blocks=[5, 3])
    anchor = AnchorFunction(g, 1, q_mode=UNIT_Q)
    for x in (7, 7, 6):
        with pytest.raises(InputError, match=f"vertex {x} is not reachable from 1"):
            anchor(x)
    assert [anchor(x) for x in range(1, 6)] == [0.0, 1.0, 2.0, 3.0, 4.0]
    for budget, error in ((5, BudgetExhaustedError), (6, InputError)):
        anchor = AnchorFunction(g, 1, budget=budget)
        for _ in range(2):
            with pytest.raises(error):
                anchor(8)
    with pytest.raises(BudgetExhaustedError, match="unresolved within budget 4"):
        AnchorFunction(g, 1, budget=4)(5)


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


def test_budget_must_be_a_positive_integer():
    g = quadratic_well_ray()
    for budget in (0, -1, 2.5, True, "10"):
        with pytest.raises(InputError, match="budget must be a positive integer"):
            shortest_paths(g, 1, budget=budget)
        with pytest.raises(InputError):
            AnchorFunction(g, 1, budget=budget)
        with pytest.raises(InputError):
            completeness_probe(g, 1, budget=budget)
        with pytest.raises(InputError):
            selfadjointness_criteria(g, 1, budget=budget)
    res = shortest_paths(g, 1, budget=1)
    assert res.distances == {1: 0.0}
    assert res.budget_hit and not res.complete
    assert AnchorFunction(g, 1, budget=1)(1) == 0.0


def test_distance_to_itself_checks_its_arguments():
    g = quadratic_well_ray()
    for y in (5, 6):
        for budget in (0, -3, 2.5):
            with pytest.raises(InputError, match="budget must be a positive integer"):
                distance(g, 5, y, budget=budget)
        with pytest.raises(InputError, match="q_mode must be"):
            distance(g, 5, y, q_mode="bogus")
    assert distance(g, 5, 5, budget=1) == 0.0


def test_nan_radius_is_an_input_error():
    g = make_family({"family": "path-nat"})
    with pytest.raises(InputError, match="must be nonnegative, got nan"):
        ball(g, 1, math.nan, budget=3000)
    with pytest.raises(InputError, match="radius must not be NaN"):
        shortest_paths(g, 1, radius=math.nan)
    assert len(ball(g, 1, math.inf, budget=3000)) == 3000


def _outcome(spec, x0, *, frontier_only, **kwargs):
    """A search's fields and window checks, or the error it raised."""
    g = make_family(spec)
    with pytest.MonkeyPatch.context() as mp:
        if frontier_only:
            mp.setattr(metric, "WINDOW_MIN", 10**9)
        try:
            res = shortest_paths(g, x0, **kwargs)
        except MagschroError as exc:
            return (type(exc), str(exc)), None
    if res.method == "window":
        scan = criteria._scan(g, *criteria._explored(g, res))
    else:
        scan = window_walk(g, res.distances)
    return (list(res.distances.items()), res.complete, res.budget_hit, res.settled_radius,
            res.settled_distances().tolist(), scan), res.method


_RAY_TERMS = st.sampled_from(["n", "1", "2", "0.5", "(n - 7)", "(n - 150)", "1/n", "sqrt(n)"])
_RAY_EXPR = st.recursive(
    _RAY_TERMS,
    lambda inner: st.one_of(
        st.tuples(inner, st.sampled_from("+-*/"), inner).map(lambda t: f"({t[0]} {t[1]} {t[2]})"),
        st.tuples(st.sampled_from(["min", "max"]), inner, inner)
        .map(lambda t: f"{t[0]}({t[1]}, {t[2]})"),
        inner.map(lambda e: f"abs({e})")),
    max_leaves=4)


@settings(max_examples=150)
@given(w=_RAY_EXPR, a=_RAY_EXPR, W=_RAY_EXPR, q=_RAY_EXPR,
       x0=st.integers(1, 300) | st.integers(10**6, 10**6 + 300),
       q_mode=st.sampled_from([WITH_Q, UNIT_Q]),
       stop=st.sampled_from(["budget-1", "budget", "budget+1", "2x", "10x", "radius", "target"]),
       offset=st.integers(-300, 300), radius=st.floats(0.0, 60.0))
def test_window_path_matches_the_frontier(w, a, W, q, x0, q_mode, stop, offset, radius):
    """Random rays; the frontier path is the oracle, the window forced early."""
    spec = {"family": "path-nat", "w": f"0.25 + ({w})^2", "a": f"1/8 + abs({a})",
            "W": W, "q": f"1 + ({q})^2"}
    try:
        make_family(spec)
    except MagschroError:
        return
    small = 16
    kwargs = {"q_mode": q_mode, "budget": {
        "budget-1": small - 1, "budget": small, "budget+1": small + 1, "2x": 2 * small,
        "10x": 10 * small}.get(stop, 1000)}
    if stop == "radius":
        kwargs["radius"] = radius
    if stop == "target":
        kwargs["target"] = max(1, x0 + offset)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(metric, "WINDOW_MIN", small)
        windowed, method = _outcome(spec, x0, frontier_only=False, **kwargs)
    expected, _ = _outcome(spec, x0, frontier_only=True, **kwargs)
    assert windowed == expected
    if kwargs["budget"] <= small:
        assert method in ("frontier", None)


def test_a_target_search_evaluates_one_doubling_past_the_target(monkeypatch):
    g = quadratic_well_ray()
    evaluated = count_records(monkeypatch, g)
    # the sums double from 512 hops to 8192, the first span past the target's
    # 4999 hops, whatever the budget allows; 1..1024 is read from the prefix
    found = distance(g, 1, 5000, budget=10**8)
    assert evaluated == list(range(1025, 8194))
    monkeypatch.setattr(metric, "WINDOW_MIN", 10**9)
    assert found == distance(g, 1, 5000, budget=10**8) == pytest.approx(
        math.fsum(1 / n for n in range(2, 5001)), rel=1e-12)


def test_a_target_behind_cheap_edges_retries_wider(monkeypatch):
    # edges to the right of 2000 are shorter, so about 3,800 vertices there
    # settle before the target 1000: the right side doubles to 4096 hops
    # while the left one stops at the 1024 that reach the target
    spec = {"family": "path-nat", "a": "n^3"}
    g = make_family(spec)
    res = shortest_paths(g, 2000, target=1000)
    assert res.method == "window" and res._span == (976, 6096)
    assert max(res.distances) - 2000 > 1001
    windowed, _ = _outcome(spec, 2000, frontier_only=False, target=1000)
    assert windowed == _outcome(spec, 2000, frontier_only=True, target=1000)[0]


def test_search_reports_its_path():
    g = quadratic_well_ray()
    assert shortest_paths(g, 1, budget=metric.WINDOW_MIN).method == "frontier"
    assert shortest_paths(g, 1, budget=metric.WINDOW_MIN + 1).method == "window"
    assert shortest_paths(g, 1, radius=0.5).method == "frontier"
    free = make_family({"family": "path-nat"})
    res = shortest_paths(free, 50, budget=9)
    assert list(res.distances) == [50, 49, 51, 48, 52, 47, 53, 46, 54]
    # ties on the free ray settle by id, which is the frontier's push order
    res = shortest_paths(free, 50, budget=5000)
    assert res.method == "window"
    assert list(res.distances)[:5] == [50, 49, 51, 48, 52]
    # the left side is 1..49; the right one doubles until its end is not settled
    assert res._span == (1, 50 + 8192) and max(res.distances) == 5000
    # an explicit graph cuts its windows from its arrays; exact data stay on the frontier
    explicit = random_connected_graph(np.random.default_rng(3), min_vertices=300,
                                      max_vertices=300)
    res = shortest_paths(explicit, explicit.vertices()[0])
    assert res.method == "window" and res.complete and len(res.distances) == 300
    small = shortest_paths(explicit, explicit.vertices()[0], budget=10)
    assert small.method == "frontier" and small.window is None


def test_ties_settle_by_id_on_both_paths(monkeypatch):
    # unit-q lengths 1 to the left of 10 and 0.5, 0.5, 2, 2, ... to the right:
    # 7 and 13 tie at distance 3, and 13 is pushed first because its pusher 12
    # (distance 1) settles before 7's pusher 8 (distance 2); 7 settles first
    g = make_family({"family": "path-nat",
                     "a": "4^(min(max(n-9,0),1) - 2*min(max(n-11,0),1))"})

    def summary(res):
        return (list(res.distances.items()), res.complete, res.budget_hit, res.settled_radius)

    monkeypatch.setattr(metric, "WINDOW_MIN", 2)
    res = shortest_paths(g, 10, q_mode=UNIT_Q, budget=12)
    assert res.method == "window"
    assert list(res.distances) == [10, 11, 9, 12, 8, 7, 13, 6, 5, 14, 4, 3]
    monkeypatch.setattr(metric, "WINDOW_MIN", 10**9)
    oracle = shortest_paths(g, 10, q_mode=UNIT_Q, budget=12)
    assert oracle.method == "frontier" and summary(oracle) == summary(res)


@pytest.mark.parametrize("ids", [int, str])
@pytest.mark.parametrize("path", ["frontier", "window"])
def test_an_unhashable_vertex_has_no_distance_on_either_path(path, ids):
    names = [ids(x) for x in range(600)]
    g = ExplicitGraph({x: (1.0, 0.0, 1.0) for x in names},
                      {(u, v): (1.0, 1.0) for u, v in zip(names, names[1:])})
    x0 = names[0]
    res = shortest_paths(g, x0, budget=metric.WINDOW_MIN + (path == "window"))
    assert res.method == path
    assert res.get([1]) is None and res.get({}) is None and res.get(x0) == 0.0


def test_window_search_stops_like_the_frontier():
    g = quadratic_well_ray()
    far = shortest_paths(g, 1, target=50_000, budget=60_000)
    assert far.method == "window" and not far.complete and not far.budget_hit
    assert len(far.distances) == 50_000
    checkpoints = dict(completeness_probe(g, 1, budget=64_000).radius_trail)  # every 1000
    steps = (10_000, 20_000, 30_000, 40_000, 50_000)
    assert [checkpoints[k] for k in steps] == [far.distances[k] for k in steps]
    assert far.settled_radius == far.distances[50_000] + 1.0 / 50_001
    assert distance(g, 1, 50_000, budget=60_000) == far.distances[50_000]
    assert distance(g, 1, 50_000, budget=49_999) is None
    # the target is settled as the budget-th vertex: the target test comes first
    exact = shortest_paths(g, 1, target=50_000, budget=50_000)
    assert not exact.budget_hit and exact.get(50_000) == far.distances[50_000]
    ball_ = ball(g, 1, 9.0, budget=10**6)
    assert ball_.complete and len(ball_) == max(ball_.members) and len(ball_) > 1000


def test_far_ids_stay_on_the_frontier():
    g = make_family({"family": "path-nat"})
    for x in (10**20, 2**63 - 10):  # windows from 2**63 - 10 would end past int64
        assert distance(g, x, x + 5) == 5.0
        res = shortest_paths(g, x, budget=500)
        assert res.method == "frontier" and min(res.distances) == x - 250


@pytest.mark.parametrize("x0", [1324, 3000, 10**7])
def test_far_starts_take_the_window(monkeypatch, x0):
    res = shortest_paths(quadratic_well_ray(), x0, budget=2000)
    assert res.method == "window"
    monkeypatch.setattr(metric, "WINDOW_MIN", 10**9)
    oracle = shortest_paths(quadratic_well_ray(), x0, budget=2000)
    assert list(res.distances.items()) == list(oracle.distances.items())
    assert res.settled_radius == oracle.settled_radius


@pytest.mark.parametrize("target", [np.int64(5000), 5000.0, np.float64(5000.0), 5000.5],
                         ids=["int64", "float", "float64", "fraction"])
def test_window_target_compares_like_the_frontier(monkeypatch, target):
    g = quadratic_well_ray()
    res = shortest_paths(g, 1, target=target, budget=20_000)
    assert res.method == "window"
    monkeypatch.setattr(metric, "WINDOW_MIN", 10**9)
    oracle = shortest_paths(g, 1, target=target, budget=20_000)
    assert (res.budget_hit, res.settled_radius, res.settled_distances().tolist()) == (
        oracle.budget_hit, oracle.settled_radius, oracle.settled_distances().tolist())
    assert res.get(target) == oracle.distances.get(target)
    assert res.get(np.int64(4000)) == res.get(4000.0) == oracle.distances[4000]


@pytest.mark.parametrize("n", [5, 400], ids=["frontier-settled", "window-settled"])
def test_explicit_window_ray_run_and_frontier_compare_ids_alike(n):
    # equal as a dict key: an unhashable id such as np.array(n) finds no vertex
    probes = [np.array(n), [1], float(n), np.int64(n), True, Fraction(n), "a"]
    for g in (unit_path(600), quadratic_well_ray()):
        frontier = shortest_paths(frontier_only(g), 1, budget=600)
        d = frontier.distances[n]
        want = [frontier.get(x) for x in probes]
        assert want == [None, None, d, d, 0.0, d, None]
        res = shortest_paths(g, 1, budget=600)
        assert (frontier.method, res.method) == ("frontier", "window")
        assert [res.get(x) for x in probes] == want
        assert list(res.distances.items()) == list(frontier.distances.items())
        assert [res.get(x) for x in probes] == want  # now from the dict
        for x in probes:  # a search to x stops where the frontier's does
            found = shortest_paths(g, 1, budget=600, target=x).settled_distances()
            oracle = shortest_paths(frontier_only(g), 1, budget=600, target=x)
            assert found.tolist() == oracle.settled_distances().tolist()


def test_reproduce_builds_no_distance_dict_past_the_harmonic_ladder(monkeypatch):
    # the metric stage reads d(1, 10^6) by distance, which builds no dict
    sizes = []
    read = metric.SearchResult.distances.fget
    monkeypatch.setattr(metric.SearchResult, "distances",
                        property(lambda res: sizes.append(len(read(res))) or read(res)))
    steps, ok = reference.run_reference_scenario(identity_graphs=1)
    assert ok and steps[2].name == "metric"
    assert max(sizes) == reference.ORACLE_LADDER


# a ray search keeps no window: distance and ball read ids lo + order and
# rows int_id(x) - lo from the run itself, and never join its record blocks
_RAY_STARTS = [pytest.param(1, WITH_Q, id="1-with-q"), pytest.param(1, UNIT_Q, id="1-unit-q"),
               pytest.param(10**7, WITH_Q, id="1e7-with-q"),
               pytest.param(10**7, UNIT_Q, id="1e7-unit-q")]


@pytest.mark.parametrize("x0, q_mode", _RAY_STARTS)
def test_ray_distance_and_ball_never_build_the_window(monkeypatch, x0, q_mode):
    g = quadratic_well_ray()
    target = x0 + 3000
    expected = distance(g, x0, target, q_mode=q_mode, budget=10**5)
    radius = shortest_paths(g, x0, q_mode=q_mode, budget=2000).settled_radius
    members = ball(g, x0, radius, q_mode=q_mode).members

    def refuse(*args):
        raise AssertionError("a ray search's records were joined")

    monkeypatch.setattr(metric.SearchResult, "records", refuse)
    assert shortest_paths(g, x0, q_mode=q_mode, target=target, budget=10**5).method == "window"
    assert distance(g, x0, target, q_mode=q_mode, budget=10**5) == expected is not None
    found = ball(g, x0, radius, q_mode=q_mode)
    assert found.complete and list(found.members.items()) == list(members.items())
    assert len(found) > metric.WINDOW_MIN
    with pytest.raises(AssertionError, match="a ray search's records were joined"):
        shortest_paths(g, x0, q_mode=q_mode, budget=2000).records()


@pytest.mark.parametrize("x0, q_mode", _RAY_STARTS)
def test_ray_records_are_the_records_over_its_span(x0, q_mode):
    g = quadratic_well_ray()
    res = shortest_paths(g, x0, q_mode=q_mode, budget=5000)
    assert res.method == "window" and res.window is None
    lo, hi = res._span
    got, want = res.records(), g._records(lo, hi)
    assert got[0] == lo and len(got) == 5
    for name, column, ref in zip("wWqa", got[1:], want):
        assert column.dtype == ref.dtype and np.array_equal(column, ref), name
    assert list(res.distances) == (lo + res.order).tolist()


def test_only_a_search_on_an_explicit_graph_keeps_a_window():
    explicit = unit_path(600)
    frontier = shortest_paths(explicit, 1, budget=10)
    whole = shortest_paths(explicit, 1)
    ray = shortest_paths(quadratic_well_ray(), 1, budget=2000)
    assert (frontier.method, whole.method, ray.method) == ("frontier", "window", "window")
    assert frontier.window is None and frontier.records() is None
    assert whole.window is explicit.whole_window() and whole.records() is None
    assert ray.window is None and ray.records()[0] == 1


@pytest.mark.parametrize("x0, q_mode", _RAY_STARTS)
def test_ray_get_compares_ids_like_the_frontier(x0, q_mode):
    g = quadratic_well_ray()
    res = shortest_paths(g, x0, q_mode=q_mode, budget=2000)
    oracle = shortest_paths(frontier_only(g), x0, q_mode=q_mode, budget=2000).distances
    lo, hi = res._span  # the run, whose ends the search does not settle
    probes = [float(x0 + 5), True, np.int64(x0 + 7), Fraction(x0 + 3), Fraction(2 * x0 + 1, 2),
              "a", [1], 10**30, 0, -3, x0, lo, hi, hi + 1, x0 + 10**6, np.float64(x0 + 9.5)]
    assert res.method == "window" and res._records is not None

    def want(x):
        try:
            return oracle.get(x)
        except TypeError:  # unhashable
            return None

    assert [res.get(x) for x in probes] == [want(x) for x in probes]
    assert res.get(x0) == 0.0 and res.get(hi) is res.get(hi + 1) is None
    assert res.get(True) == (0.0 if x0 == 1 else None)
    assert res._records is not None  # get built no window
    win = res.window
    assert [res.get(x) for x in probes] == [want(x) for x in probes]
    assert res.window is win
