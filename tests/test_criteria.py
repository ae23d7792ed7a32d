import dataclasses

import numpy as np
import pytest

from loop_oracles import window_walk
from magschro import criteria, metric
from magschro.criteria import (
    degree_bound_check,
    lipschitz_best_constant,
    minorant_check,
    positive_part,
    selfadjointness_criteria,
    semibounded_probe,
)
from magschro.errors import InputError, UnknownVertexError
from magschro.families import make_family, quadratic_well_ray
from magschro.graphs import ExplicitGraph
from magschro.randomgraphs import random_connected_graph
from magschro.spectral import EigenExtremes, spectral_trend
from search_probes import count_records


def test_positive_part():
    assert positive_part(3.5) == 3.5
    assert positive_part(-2.0) == 0.0
    assert positive_part(0.0) == 0.0


def test_minorant_check_reference_ray():
    report = minorant_check(quadratic_well_ray(), range(1, 200))
    assert report.passed and report.worst_violation == 0.0


def test_minorant_check_flat():
    g = make_family({"family": "path", "size": 5})
    assert minorant_check(g, g.vertices()).passed


def test_minorant_check_violation():
    g = ExplicitGraph(
        {1: (1.0, -5.0, 1.0), 2: (1.0, 0.0, 1.0)},
        {(1, 2): (1.0, 1.0 + 0j)},
    )
    report = minorant_check(g, [1, 2])
    assert not report.passed
    assert report.worst_violation == 4.0
    assert report.witness == 1


def test_lipschitz_reference_ray():
    report = lipschitz_best_constant(quadratic_well_ray(), range(1, 10001))
    assert report.constant == pytest.approx(0.5, abs=1e-12)
    assert tuple(report.witness) == (1, 2)


def test_lipschitz_constant_minorant_gives_zero():
    g = make_family({"family": "path", "size": 8, "q": "4"})
    assert lipschitz_best_constant(g, g.vertices()).constant == 0.0


def test_lipschitz_single_edge_value():
    q2 = (1.0 / 0.7) ** 2  # q(y)**-0.5 = 0.7
    g = ExplicitGraph(
        {"x": (1.0, 0.0, 1.0), "y": (1.0, 0.0, q2)},
        {("x", "y"): (4.0, 1.0 + 0j)},
    )
    report = lipschitz_best_constant(g, ["x", "y"])
    assert report.constant == pytest.approx(0.6, rel=1e-12)


def test_selfadjointness_criteria_reference_ray():
    report = selfadjointness_criteria(quadratic_well_ray(), 1, budget=5000,
                                      lipschitz_budget=1.0)
    assert report.overall == "pass"
    assert report.scope == "exact"
    assert report.completeness.verdict == "complete (exact)"
    assert report.degree.passed and report.minorant.passed
    assert report.lipschitz_passed is True
    assert report.lipschitz.constant == pytest.approx(0.5, abs=1e-12)


def test_selfadjointness_criteria_incomplete_ray():
    g = make_family({"family": "path-nat", "q": "n^4", "W": "-(n^4)"})
    report = selfadjointness_criteria(g, 1, budget=3000)
    assert report.completeness.verdict == "incomplete (exact)"
    assert report.overall == "fail"


def test_selfadjointness_criteria_finite_graph(rng):
    g = random_connected_graph(rng, max_vertices=15, ensure_minorant=True)
    report = selfadjointness_criteria(g, g.vertices()[0])
    assert report.overall == "pass"  # finite spaces are complete
    assert report.completeness.verdict == "complete (exact)"


@pytest.mark.parametrize("build, budget", [
    (quadratic_well_ray, 5000),
    (lambda: make_family({"family": "path-nat", "q": "n^4", "W": "-(n^4)"}), 3000),
    (lambda: random_connected_graph(np.random.default_rng(11), max_vertices=15,
                                    ensure_minorant=True), 1000),
], ids=["quadratic-well", "convergent-ray", "random-finite"])
def test_selfadjointness_criteria_single_search(monkeypatch, build, budget):
    g = build()
    x0 = 1
    searches = []
    search = metric.shortest_paths

    def counting(*args, **kwargs):
        searches.append(args[1])
        return search(*args, **kwargs)

    monkeypatch.setattr(metric, "shortest_paths", counting)
    monkeypatch.setattr(criteria, "shortest_paths", counting)
    report = selfadjointness_criteria(g, x0, budget=budget)
    assert searches == [x0]

    probe = metric.completeness_probe(g, x0, budget)
    explored = search(g, x0, budget=budget)
    assert report.window_size == len(explored.distances)
    for field in dataclasses.fields(probe):
        assert getattr(report.completeness, field.name) == getattr(probe, field.name), field.name


def test_selfadjointness_criteria_lipschitz_budget_failure():
    report = selfadjointness_criteria(quadratic_well_ray(), 1, budget=3000,
                                      lipschitz_budget=0.1)
    assert report.lipschitz_passed is False
    assert report.overall == "fail"


@pytest.mark.parametrize("budget", [float("nan"), float("inf"), float("-inf"), -1.0])
def test_hostile_lipschitz_budget_is_an_input_error(budget):
    with pytest.raises(InputError, match="Lipschitz budget must be finite and nonnegative"):
        selfadjointness_criteria(quadratic_well_ray(), 1, budget=300, lipschitz_budget=budget)
    assert selfadjointness_criteria(quadratic_well_ray(), 1, budget=300,
                                    lipschitz_budget=0.0).lipschitz_passed is False


@pytest.mark.parametrize("g, x0", [(quadratic_well_ray(), 0), (quadratic_well_ray(), "1"),
                                   (make_family({"family": "path", "size": 5}), 6),
                                   (make_family({"family": "path", "size": 5}), "v1")])
def test_an_unknown_start_is_refused_after_the_argument_checks(g, x0):
    with pytest.raises(UnknownVertexError) as info:
        selfadjointness_criteria(g, x0)
    assert info.value.args == UnknownVertexError(x0).args
    with pytest.raises(InputError, match="budget must be a positive integer"):
        selfadjointness_criteria(g, x0, budget=0)
    with pytest.raises(InputError, match="Lipschitz budget must be finite and nonnegative"):
        selfadjointness_criteria(g, x0, lipschitz_budget=-1.0)


def test_semibounded_probe_reference_ray():
    g = quadratic_well_ray()
    probe = semibounded_probe(g, [range(1, k + 1) for k in (5, 10, 20)])
    for row, k in zip(probe.rows, (5, 10, 20)):
        assert row.rayleigh_min == pytest.approx(2 - k * k)
        assert row.lambda_min <= 2 - k * k
    assert probe.nonincreasing
    assert "no lower bound" in probe.verdict


def test_semibounded_probe_nonnegative_flat_potential():
    g = make_family({"family": "path", "size": 30})
    probe = semibounded_probe(g, [range(1, k + 1) for k in (10, 20, 30)])
    for row in probe.rows:
        assert row.lambda_min >= -1e-12


def test_semibounded_probe_constant_shift():
    g = make_family({"family": "path", "size": 30, "W": "0 - 1"})
    probe = semibounded_probe(g, [range(1, k + 1) for k in (10, 20, 30)])
    for row in probe.rows:
        assert row.lambda_min >= -1.0 - 1e-12


def test_semibounded_probe_stable_minimum():
    # the same window twice, and nested windows around a ground state held at
    # one vertex by W = -1e6 there: on each window the minimum lies about
    # 2e-6 below that vertex's diagonal entry 2 - 1e6
    path = make_family({"family": "path", "size": 30, "W": "0 - 1"})
    probe = semibounded_probe(path, [range(1, 21), range(1, 21)])
    low = probe.rows[0].lambda_min
    assert probe.rows[1].lambda_min == low and probe.nonincreasing
    assert probe.verdict == f"minimum stable near {low:.6g} on the tested windows"
    well = ExplicitGraph({k: (1.0, -1e6 if k == 10 else 0.0, 1e6) for k in range(1, 20)},
                         {(k, k + 1): (1.0, 1) for k in range(1, 19)})
    probe = semibounded_probe(well, [range(9, 12), range(5, 16), range(1, 20)])
    mins = [row.lambda_min for row in probe.rows]
    assert all(2 - 1e6 - 3e-6 < low < 2 - 1e6 - 1e-6 for low in mins)
    assert probe.verdict == f"minimum stable near {mins[-1]:.6g} on the tested windows"
    assert probe.nonincreasing  # Cauchy interlacing, and no rounding read as a rise


@pytest.mark.parametrize("rise, expected", [(2.9e-9, True), (3.1e-9, False)])
def test_a_rise_counts_only_beyond_the_two_residuals(rise, expected, monkeypatch):
    # each minimum lies within its residual, 1e-9 and 2e-9, of an eigenvalue
    exts = [EigenExtremes(-1e3, 1.0, 1e-9, "tridiagonal"),
            EigenExtremes(-1e3 + rise, 1.0, 2e-9, "tridiagonal")]
    monkeypatch.setattr(criteria, "spectral_trend", lambda g, windows: exts)
    assert semibounded_probe(None, [None, None]).nonincreasing is expected


def test_the_probe_and_the_trend_read_the_same_minima():
    g = quadratic_well_ray()
    windows = [range(1, k + 1) for k in (5, 150, 201, 2000)]
    assert ([row.lambda_min for row in semibounded_probe(g, windows).rows]
            == [row.lambda_min for row in spectral_trend(g, windows)])


def test_lambda_min_monotone_under_window_growth(rng):
    g = random_connected_graph(rng, max_vertices=20)
    ids = g.vertices()
    probe = semibounded_probe(g, [ids[:8], ids[:14], ids])
    mins = [row.lambda_min for row in probe.rows]
    assert all(b <= a + 1e-10 for a, b in zip(mins, mins[1:]))


def test_zero_lipschitz_scale_is_an_input_error():
    g = make_family({"family": "path", "size": 5, "w": "1e-200", "a": "1e200"})
    with pytest.raises(InputError, match=r"edge \(1, 2\): the Lipschitz scale"):
        lipschitz_best_constant(g, [3, 2])


def test_degree_bound_check_star():
    g = make_family({"family": "star", "size": 7})
    report = degree_bound_check(g, g.vertices())
    assert report.observed == 6
    assert report.passed


def test_lipschitz_constant_monotone_in_window():
    g = quadratic_well_ray()
    previous = -1.0
    for upper in (3, 10, 50, 200):
        constant = lipschitz_best_constant(g, range(1, upper + 1)).constant
        assert constant >= previous
        previous = constant


def _count_reads(monkeypatch, g):
    calls = {"vertex": 0, "neighbors": 0}
    for name in calls:
        def counting(x, _oracle=getattr(g, name), _name=name):
            calls[_name] += 1
            return _oracle(x)
        monkeypatch.setattr(g, name, counting)
    return calls


def test_selfadjointness_criteria_reads_the_window_once(monkeypatch):
    # on the frontier path the scan runs on the closure of the settled run
    # 1..2000, which the ray cuts from its records without the oracle
    monkeypatch.setattr(metric, "WINDOW_MIN", 10**9)
    g = quadratic_well_ray()
    calls = _count_reads(monkeypatch, g)
    report = selfadjointness_criteria(g, 1, budget=2000, lipschitz_budget=1.0)
    assert report.window_size == 2000 and report.overall == "pass"
    assert report.lipschitz.constant == 0.5 and tuple(report.lipschitz.witness) == (1, 2)
    # neighbors: once per settled vertex in the search
    assert calls["neighbors"] == 2000
    # vertex: the search reads both endpoints of each of its 2000 settle steps and
    # the series classifier 38 edges
    assert calls["vertex"] == 2 * 2000 + 2 * 38


def test_explicit_closure_reads_no_neighbor_list(monkeypatch):
    # the closure is sliced from the graph's CSR arrays, not read from the oracle
    g = make_family({"family": "binary-tree", "size": 63, "W": "-(n^2) - n", "q": "n^2"})
    calls = _count_reads(monkeypatch, g)
    window = range(2, 20)
    win = g.closure_window(window)
    assert win.ids.tolist() == list(range(1, 40))  # parents and children of 2..19
    # 20..31 have children outside; 32..39 have none in a tree of 63 vertices
    assert win.interior.tolist() == [True] * 19 + [False] * 12 + [True] * 8
    assert minorant_check(g, window).witness == 19
    assert calls == {"vertex": 0, "neighbors": 0}


def test_selfadjointness_criteria_window_path_reads_arrays(monkeypatch):
    g = quadratic_well_ray()
    calls = _count_reads(monkeypatch, g)
    report = selfadjointness_criteria(g, 1, budget=5000, lipschitz_budget=1.0)
    assert report.window_size == 5000 and report.overall == "pass"
    assert report.lipschitz.constant == 0.5 and tuple(report.lipschitz.witness) == (1, 2)
    # only the frontier steps before the restart and the series classifier's
    # 38 edges reach the oracle
    assert calls["neighbors"] == metric.WINDOW_MIN
    assert calls["vertex"] == 2 * metric.WINDOW_MIN + 2 * 38


def test_an_invalid_record_near_the_start_costs_its_own_span(monkeypatch):
    # the sums double up to the block that holds 3000, which ends the right
    # side at 2999; settling 2999 hands the search to the frontier, which
    # raises, and nothing near the budget's 5,000,000 records is evaluated
    g = make_family({"family": "path-nat", "w": "abs(n - 3000)"})
    evaluated = count_records(monkeypatch, g)
    with pytest.raises(InputError, match=r"^family 'path-nat': w\(3000\) = 0.0 is not positive$"):
        selfadjointness_criteria(g, 1, budget=5_000_000)
    assert 0 < len(evaluated) < 10**4


def test_a_far_check_evaluates_about_what_it_settles(monkeypatch):
    x0 = 10**7
    g = quadratic_well_ray()
    evaluated = count_records(monkeypatch, g)
    report = selfadjointness_criteria(g, x0)
    assert report.search.method == "window" and report.overall == "pass"
    explored = metric.shortest_paths(quadratic_well_ray(), x0)
    for side in (lambda n: n < x0, lambda n: n > x0):
        settled = sum(map(side, explored.distances))
        assert settled > 10**5
        assert sum(map(side, evaluated)) <= 2 * settled + 2 * metric.WINDOW_MIN


@pytest.mark.parametrize("spec, x0", [
    ({"family": "path-nat", "W": "-(n^2)", "q": "n^2"}, 1),
    ({"family": "path-nat"}, 50),
    ({"family": "path-nat", "w": "1 + (n - 400)^2", "a": "1/n", "W": "-3*n", "q": "1 + n/7"}, 300),
    ({"family": "path-nat", "w": "min(n, 9)", "q": "max(1, 40 - n)", "W": "5 - n"}, 120),
])
def test_settled_scan_matches_the_vertex_walk(spec, x0):
    g = make_family(spec)
    explored = metric.shortest_paths(g, x0, budget=3000)
    assert explored.method == "window"
    assert criteria._scan(g, *criteria._explored(g, explored)) == window_walk(g, explored.distances)


def test_semibounded_probe_reads_each_closure_once(monkeypatch):
    g = make_family({"family": "cycle", "size": 400})
    calls = _count_reads(monkeypatch, g)
    closures, read = [], g.closure_window
    monkeypatch.setattr(g, "closure_window",
                        lambda *args: closures.append(read(*args).ids.tolist()) or read(*args))
    semibounded_probe(g, [range(1, 101), range(1, 201)])
    # the closures {1..101, 400} and {1..201, 400}, sliced from the arrays
    assert closures == [[*range(1, 102), 400], [*range(1, 202), 400]]
    assert calls == {"vertex": 0, "neighbors": 0}


def test_rayleigh_min_is_the_smallest_delta_quotient(rng):
    from magschro.functions import VertexFunction, inner_w
    from magschro.operators import schrodinger_apply

    graphs = [(quadratic_well_ray(), range(1, 40)),
              (make_family({"family": "cycle", "size": 30}), range(3, 20))]
    for _ in range(20):
        g = random_connected_graph(rng, max_vertices=15)
        graphs.append((g, g.vertices()[::2]))
    for g, window in graphs:
        quotients, scale = [], 0.0
        for x in window:
            d = VertexFunction.delta(x)
            quotients.append((inner_w(g, schrodinger_apply(g, d), d) / inner_w(g, d, d)).real)
            rec = g.vertex(x)
            degree = sum(data.weight for _, data in g.neighbors(x))
            scale = max(scale, abs(degree / rec.weight), abs(rec.potential))
        got = semibounded_probe(g, [window]).rows[0].rayleigh_min
        assert abs(got - min(quotients)) <= 1e-12 * scale
