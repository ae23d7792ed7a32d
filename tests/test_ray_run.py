"""A ray search's settled run: the check's scan of its records against the
closure scan and the vertex walk, and the growth decision against the sort.

A ray search settles one run of ids, and the check reads the degree,
minorant and Lipschitz checks from slices of the search's records.  Those
must equal :func:`criteria._scan`, the CSR walk of the closure of what it
settled, and ``window_walk`` over it, witnesses and errors included.  The
search decides each growth from ranks on the two monotone sides of its
distances; that must be the decision of sorting them all.
"""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from loop_oracles import window_walk
from magschro import criteria, metric
from magschro.errors import InputError
from magschro.families import PathRayGraph, make_family, quadratic_well_ray
from magschro.graphs import Window
from magschro.metric import UNIT_Q, WITH_Q, shortest_paths

# non-integral exponents, stretches of constant q (q is 1 past 40, and 300
# up to 400 then 1400 past 1500), and a potential below -q in places
RUN_SPECS = [
    {"family": "path-nat", "W": "-(n^2)", "q": "n^2"},
    {"family": "path-nat", "w": "n^-2.5", "a": "n^0.5", "q": "n^0.7"},
    {"family": "path-nat", "q": "n^1.5+1/n", "a": "n^0.3", "w": "1+1/n"},
    {"family": "path-nat", "w": "min(n, 9)", "q": "max(1, 40 - n)", "W": "5 - n"},
    {"family": "path-nat", "w": "1 + 1/n", "a": "n^0.3 + 1/3", "W": "sqrt(n) - 7",
     "q": "min(max(n, 400), 1500) - 100"},
    {"family": "path-nat"},
]


def _checks(report):
    return report.degree, report.minorant, report.lipschitz


def _assert_same_checks(new, old):
    """Equal checks whose witnesses and numbers have the same Python types."""
    assert new == old
    for a, b in zip(new, old):
        for name in vars(a):
            x, y = getattr(a, name), getattr(b, name)
            assert type(x) is type(y), name
            if isinstance(x, tuple):
                assert [type(v) for v in x] == [type(v) for v in y], name


def _window_scan(g, res):
    """``_scan`` on the closure window of what the search settled."""
    return criteria._scan(g, *criteria._explored(g, res))


def _outcome(scan, *args):
    try:
        return scan(*args)
    except InputError as error:
        return f"InputError: {error}"


@settings(max_examples=40, deadline=None)
@given(spec=st.sampled_from(RUN_SPECS),
       x0=st.one_of(st.sampled_from([1, 2, 300, 5000, 10**7]), st.integers(1, 10**6)),
       budget=st.one_of(st.integers(257, 3000), st.sampled_from([257, 40_000, 250_000])))
@example(spec=RUN_SPECS[0], x0=1, budget=250_000)
@example(spec=RUN_SPECS[0], x0=10**7, budget=250_000)
def test_the_run_scan_equals_the_window_scan_and_the_walk(spec, x0, budget):
    g = make_family(spec)
    res = shortest_paths(g, x0, q_mode=WITH_Q, budget=budget)
    assert res.method == "window"
    first, last = min(res.distances), max(res.distances)
    assert last - first + 1 == len(res.order)  # one run
    run = criteria._scan_search(g, res)
    _assert_same_checks(run, _window_scan(g, res))
    if budget <= 3000:
        _assert_same_checks(run, window_walk(g, res.distances))
    report = criteria.selfadjointness_criteria(make_family(spec), x0, budget=budget)
    _assert_same_checks(_checks(report), run)
    assert report.window_size == len(res.order)


# a(700) = 1e300 makes the scale (min(w) / a)**0.5 of 700 ~ 701 underflow,
# with q constant there (ratio 0) or not
UNDERFLOW_SPECS = [
    {"family": "path-nat", "w": "1e-100", "a": "max(1, 1e300 * (1 - abs(n - 700)))",
     "q": q} for q in ("1 + n/9", "max(1, 720 - n)", "3")]


@pytest.mark.parametrize("spec", UNDERFLOW_SPECS)
@pytest.mark.parametrize("x0, budget", [(1, 1000), (1, 699), (1000, 700), (1000, 601),
                                        (400, 700), (5000, 300)])
def test_an_underflowing_scale_raises_at_the_same_edge_on_both_paths(spec, x0, budget):
    g = make_family(spec)
    res = shortest_paths(g, x0, budget=budget)
    assert res.method == "window"
    run = _outcome(criteria._scan_search, g, res)
    assert run == _outcome(_window_scan, g, res)
    reaches = 700 in res.distances or 701 in res.distances
    if reaches:
        assert run == "InputError: edge (700, 701): the Lipschitz scale (min(w) / a)**0.5 " \
                      "underflows to 0"
        with pytest.raises(ZeroDivisionError):
            window_walk(g, res.distances)
    else:
        _assert_same_checks(run, window_walk(g, res.distances))


def test_a_tie_cut_by_the_budget_scans_the_closure():
    # lengths below half an ulp of the distance tie 1..11 at one distance (the
    # edges from 11 down have w = 1e-40 at one end); the sort settles ties by
    # id, so a budget inside the tie leaves a gap
    g = make_family({"family": "path-nat", "w": "max(1e-40, n - 10)"})
    full = shortest_paths(g, 400, budget=700)
    tied = [x for x, d in full.distances.items() if d == full.distances[1]]
    assert tied == list(range(1, 12))
    budget = list(full.distances).index(1) + 3  # settles 1, 2, 3 of the tie and not 4..11
    res = shortest_paths(g, 400, budget=budget)
    assert res.method == "window" and {1, 2, 3} <= set(res.distances)
    assert 4 not in res.distances
    _assert_same_checks(criteria._scan_search(g, res), window_walk(g, res.distances))
    _assert_same_checks(criteria._scan_search(g, res), _window_scan(g, res))


def test_the_check_builds_no_window_and_reads_no_csr(monkeypatch):
    def refuse(*args):
        raise AssertionError("the check built a window")

    monkeypatch.setattr(PathRayGraph, "_closure", staticmethod(refuse))
    monkeypatch.setattr(Window, "rows", refuse)
    for x0 in (1, 10**7):
        report = criteria.selfadjointness_criteria(quadratic_well_ray(), x0)
        assert report.overall == "pass" and report.window_size == 250_000


# -- the growth decision: ranks on the two sides against one stable sort

_LENGTHS = st.sampled_from([1.0, 0.5, 2.0, 3.0, 1e-20, 1e308])  # ties, ties below an ulp, inf


@st.composite
def _v_columns(draw):
    """Distances that do not rise up to row ``mid`` and do not fall from it,
    summed outwards from 0 as a ray search sums them, with the stops of a
    search: a budget, a radius and a target row."""
    left = draw(st.lists(_LENGTHS, max_size=24))
    right = draw(st.lists(_LENGTHS, max_size=24))
    with np.errstate(over="ignore"):
        dist = np.concatenate([np.cumsum(left)[::-1], [0.0], np.cumsum(right)])
    budget = draw(st.integers(1, len(dist) + 1))
    radius = draw(st.one_of(st.none(), st.sampled_from(dist.tolist()),
                            st.floats(0, 20), st.just(math.inf)))
    row = draw(st.one_of(st.none(), st.integers(0, len(dist) - 1)))
    return dist, len(left), row, budget, radius


@settings(max_examples=500)
@given(case=_v_columns())
def test_the_growth_decision_is_that_of_the_sort(case):
    dist, mid, row, budget, radius = case
    order = metric._settle(dist, row, budget, radius)[0]
    ends = bool(np.any(order == 0)), bool(np.any(order == len(dist) - 1))
    assert metric._settles_ends(dist, mid, row, budget, radius) == ends


@pytest.mark.parametrize("x0, q_mode, stops", [
    (1, WITH_Q, {"budget": 250_000}), (10**7, WITH_Q, {"budget": 250_000}),
    (1, UNIT_Q, {"target": 1_000_000, "budget": 1_100_000}),
    (5000, WITH_Q, {"radius": 9.0})])
def test_a_ray_search_sorts_its_distances_once(monkeypatch, x0, q_mode, stops):
    calls = []
    settle = metric._settle
    monkeypatch.setattr(metric, "_settle", lambda *args: calls.append(len(args[0])) or
                        settle(*args))
    res = shortest_paths(quadratic_well_ray(), x0, q_mode=q_mode, **stops)
    assert res.method == "window" and len(calls) == 1
