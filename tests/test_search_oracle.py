"""Searches against networkx and against the frontier.

``shortest_paths`` and ``ball`` on random explicit graphs must settle
networkx's ``single_source_dijkstra`` distances, bit for bit, on both of
their paths: the frontier over the neighbor oracle and the graph's whole
window searched as arrays.  The two paths must agree on everything they
report, ties included; lengths drawn from a few powers of two make
distances tie.  Both paths settle by distance, ties by id, so tied graphs
take the window too.  On power-law rays the running sums must settle what
the frontier and networkx settle, from near and far starts, with every
kind of stop, with ties, beside invalid records and near the end of int64.
"""

import dataclasses
import json
import math
import warnings

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from magschro import metric
from magschro.criteria import selfadjointness_criteria
from magschro.errors import ExprEvalError
from magschro.families import make_family
from magschro.graphio import parse_graph
from magschro.graphs import ExplicitGraph, OrientedEdge, vertex_sort_key
from magschro.metric import UNIT_Q, WITH_Q, ball, edge_length, shortest_paths
from search_probes import frontier_only as _frontier_only


def _name(x, ids):
    if ids == "str":
        return f"v{x:04d}"
    return f"v{x}" if ids == "mixed" and x % 2 else x


def _graph(seed, n, ids, ties, shape="tree"):
    """A connected graph on n vertices: a random tree and about n / 2 more edges,
    or a ``"path"`` or ``"cycle"`` through the vertices in order."""
    rng = np.random.default_rng(seed)
    names = [_name(x, ids) for x in range(n)]

    def draw(size, low=-1.0):
        if ties:
            return (4.0 ** rng.integers(0, 2, size)).tolist()
        return np.exp(rng.uniform(low, 1.0, size)).tolist()

    if shape == "tree":
        pairs = {(int(rng.integers(0, k)), k) for k in range(1, n)}
        for u, v in rng.integers(0, n, (n // 2, 2)).tolist():
            if u != v and (v, u) not in pairs:
                pairs.add((u, v))
    else:
        pairs = {(k - 1, k) for k in range(1, n)} | ({(0, n - 1)} if shape == "cycle" else set())
    pairs = sorted(pairs)
    return ExplicitGraph(
        {x: rec for x, rec in zip(names, zip(draw(n), draw(n), draw(n, low=0.0)))},
        {(names[u], names[v]): (a, 1.0) for (u, v), a in zip(pairs, draw(len(pairs)))})


def _networkx(g, x0, q_mode, cutoff=None):
    lengths = nx.Graph()
    lengths.add_nodes_from(g.vertices())
    lengths.add_weighted_edges_from((e.origin, e.terminus, edge_length(g, e, q_mode))
                                    for e in g.edges())
    return nx.single_source_dijkstra_path_length(lengths, x0, cutoff=cutoff)


def _summary(res):
    return (list(res.distances.items()), res.complete, res.budget_hit, res.settled_radius,
            res.settled_distances().tolist())


def _in_settle_order(got):
    return list(got) == sorted(got, key=lambda x: (got[x], vertex_sort_key(x)))


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 700),
       ids=st.sampled_from(["int", "str", "mixed"]), ties=st.booleans(),
       q_mode=st.sampled_from([WITH_Q, UNIT_Q]),
       budget=st.sampled_from([1, 2, 255, 257, 300, 310, None]))
def test_searches_settle_the_networkx_distances(seed, n, ids, ties, q_mode, budget):
    g = _graph(seed, n, ids, ties)
    x0 = g.vertices()[seed % n]
    res = shortest_paths(g, x0, q_mode=q_mode, budget=budget)
    assert _summary(res) == _summary(shortest_paths(_frontier_only(g), x0, q_mode=q_mode,
                                                    budget=budget))
    want = _networkx(g, x0, q_mode)
    got = res.distances
    assert all(got[x] == want[x] for x in got)
    assert _in_settle_order(got)
    cap = len(want) if budget is None else min(budget, len(want))
    assert len(got) == cap
    assert sorted(got.values()) == sorted(want.values())[:cap]
    assert res.budget_hit == (budget is not None and budget <= len(want))
    if len(got) > metric.WINDOW_MIN and not ties:
        assert res.method == "window"


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 700),
       ids=st.sampled_from(["int", "str", "mixed"]), ties=st.booleans(),
       radius=st.sampled_from([0.0, 0.5, 2.0, 6.0, 40.0]))
def test_balls_hold_the_networkx_ball(seed, n, ids, ties, radius):
    g = _graph(seed, n, ids, ties)
    x0 = g.vertices()[seed % n]
    found = ball(g, x0, radius)
    assert found.complete
    assert found.members == _networkx(g, x0, WITH_Q, cutoff=radius)
    assert found.members == ball(_frontier_only(g), x0, radius).members
    target = g.vertices()[(7 * seed) % n]
    assert metric.distance(g, x0, target) == _networkx(g, x0, WITH_Q)[target]


@settings(max_examples=24, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), shape=st.sampled_from(["path", "cycle"]),
       ids=st.sampled_from(["int", "str", "mixed"]), ties=st.booleans(),
       stop=st.sampled_from(["budget", "radius", "target"]))
def test_long_paths_and_cycles_settle_the_networkx_distances(seed, shape, ids, ties, stop):
    n = 1500
    g = _graph(seed, n, ids, ties, shape)
    names = g.vertices()
    x0 = names[seed % n]
    want = _networkx(g, x0, WITH_Q)
    order = sorted(want.values())
    stops = {"budget": {"budget": 300 + seed % n},
             "radius": {"radius": order[300 + seed % (n - 300)]},
             "target": {"target": names[(seed // n + n // 2) % n]}}[stop]
    res = shortest_paths(g, x0, **stops)
    assert _summary(res) == _summary(shortest_paths(_frontier_only(g), x0, **stops))
    got = res.distances
    assert all(got[x] == want[x] for x in got)
    assert _in_settle_order(got)
    assert sorted(got.values()) == order[:len(got)]
    if stop == "budget":
        assert len(got) == min(stops["budget"], n) and res.budget_hit == (stops["budget"] <= n)
    elif stop == "radius":
        assert res.complete and {x: d for x, d in got.items() if d <= stops["radius"]} == \
            _networkx(g, x0, WITH_Q, cutoff=stops["radius"])
    else:
        assert got[stops["target"]] == want[stops["target"]]
    assert res.method == ("window" if len(got) > metric.WINDOW_MIN else "frontier")


def test_tied_graphs_take_the_window():
    # every length is a power of two, so many vertices tie; both paths settle
    # ties by id, so every search past WINDOW_MIN runs on the window
    for seed in range(6):
        g = _graph(seed, 600, "str", ties=True)
        x0 = g.vertices()[0]
        res = shortest_paths(g, x0, budget=400)
        assert res.method == "window"
        assert _summary(res) == _summary(shortest_paths(_frontier_only(g), x0, budget=400))
    # on a path the two sides of the centre tie, and the smaller id settles first
    path = make_family({"family": "path", "size": 600})
    res = shortest_paths(path, 300, budget=400)
    assert res.method == "window"
    assert _summary(res) == _summary(shortest_paths(_frontier_only(path), 300, budget=400))
    assert list(res.distances)[:5] == [300, 299, 301, 298, 302]


def _uniform_lattice(side):
    """A side x side lattice with a Landau-gauge flux and unit data, read from
    graph JSON: every edge has length 1, so each distance is shared by many vertices."""
    def name(r, c):
        return f"{r:03d}-{c:03d}"

    cells = [(r, c) for r in range(side) for c in range(side)]
    edges = [{"u": name(r, c), "v": name(r, c + 1)} for r, c in cells if c + 1 < side]
    edges += [{"u": name(r, c), "v": name(r + 1, c),
               "sigma": {"re": math.cos(0.2 * math.pi * c), "im": math.sin(0.2 * math.pi * c)}}
              for r, c in cells if r + 1 < side]
    vertices = [{"id": name(r, c)} for r, c in cells]
    return parse_graph(json.dumps({"vertices": vertices, "edges": edges})).to_graph()


@pytest.mark.parametrize("budget", [None, 1000])
def test_a_uniform_lattice_searches_its_centre_on_the_window(budget):
    g = _uniform_lattice(60)
    centre = "030-030"
    res = shortest_paths(g, centre, budget=budget)
    assert res.method == "window"
    assert _summary(res) == _summary(shortest_paths(_frontier_only(g), centre, budget=budget))
    want = _networkx(g, centre, WITH_Q)
    got = res.distances
    assert len(got) == (budget or 3600) and all(got[x] == want[x] for x in got)
    assert _in_settle_order(got)
    report = selfadjointness_criteria(g, centre, budget=budget)
    oracle = selfadjointness_criteria(_frontier_only(g), centre, budget=budget)
    assert (report.search.method, oracle.search.method) == ("window", "frontier")
    assert report.search.settled == oracle.search.settled == len(got)
    assert dataclasses.replace(report, search=None) == dataclasses.replace(oracle, search=None)


def test_a_window_with_an_isolated_vertex_searches_as_the_frontier():
    # an unchecked graph: a path of 400 vertices and vertex 200 with no edge,
    # whose CSR row is empty
    ids = [x for x in range(401) if x != 200]
    g = ExplicitGraph({x: (1.0, 0.0, 1.0) for x in range(401)},
                      {(u, v): (1.0, 1.0) for u, v in zip(ids, ids[1:])}, check=False)
    for budget in (None, 300):
        res = shortest_paths(g, 0, budget=budget)
        assert res.method == "window" and res.get(200) is None
        assert _summary(res) == _summary(shortest_paths(_frontier_only(g), 0, budget=budget))
    assert list(shortest_paths(g, 200).distances.items()) == [(200, 0.0)]


@pytest.mark.parametrize("ids", ["int", "str", "mixed"])
def test_window_path_runs_on_every_kind_of_id(ids):
    g = _graph(5, 900, ids, ties=False)
    x0 = g.vertices()[3]
    res = shortest_paths(g, x0)
    assert res.method == "window" and res.complete and len(res.distances) == 900
    assert res.window is g.whole_window()
    assert res.get(x0) == 0.0 and res.get("nowhere") is None and res.get(math.nan) is None
    far = max(res.distances, key=res.distances.get)
    assert res.get(far) == res.distances[far] == max(_networkx(g, x0, WITH_Q).values())


def _ray_networkx(g, lo, hi, x0, q_mode):
    """networkx's distances from ``x0`` on the run lo..hi of the ray ``g``."""
    lengths = nx.Graph()
    lengths.add_weighted_edges_from((n, n + 1, edge_length(g, OrientedEdge(n, n + 1), q_mode))
                                    for n in range(lo, hi))
    return nx.single_source_dijkstra_path_length(lengths, x0)


def _ray_stops(frontier, stop, kind):
    """The stops of a search: a budget, a radius that the frontier reaches
    past ``WINDOW_MIN``, or a target of the given kind, left or right of x0."""
    if stop == "budget":
        return {"budget": 3000}
    settled = list(frontier.distances.items())
    if stop == "radius":
        return {"radius": settled[1500][1], "budget": 10**6}
    x = settled[1200 if kind == "int" else 1700][0]
    return {"target": {"int": x, "float": float(x), "int64": np.int64(x)}[kind], "budget": 10**6}


@settings(max_examples=30, deadline=None)
@given(alpha=st.sampled_from([-2.0, 0.0, 0.5, 1.0, 3.0]),
       beta=st.sampled_from([-1.0, 0.0, 1.0, 3.0]),
       gamma=st.sampled_from([0.0, 1.0, 2.0]),
       x0=st.sampled_from([1, 2, 600, 3000, 10**7]),
       q_mode=st.sampled_from([WITH_Q, UNIT_Q]),
       stop=st.sampled_from(["budget", "radius", "target"]),
       kind=st.sampled_from(["int", "float", "int64"]))
def test_power_law_rays_settle_the_frontier_and_networkx_distances(alpha, beta, gamma, x0,
                                                                   q_mode, stop, kind):
    g = make_family({"family": "path-nat", "w": f"n^{alpha}", "a": f"n^{beta}",
                     "q": f"n^{gamma}"})
    frontier = shortest_paths(_frontier_only(g), x0, q_mode=q_mode, budget=3000)
    stops = _ray_stops(frontier, stop, kind)
    res = shortest_paths(g, x0, q_mode=q_mode, **stops)
    oracle = shortest_paths(_frontier_only(g), x0, q_mode=q_mode, **stops)
    assert res.method == "window" and oracle.method == "frontier"
    assert _summary(res) == _summary(oracle)
    got = res.distances
    want = _ray_networkx(g, max(1, min(got) - 1), max(got) + 1, x0, q_mode)
    assert all(got[x] == want[x] for x in got)
    assert _in_settle_order(got)


def test_ties_on_the_free_ray_settle_left_first():
    g = make_family({"family": "path-nat"})
    for x0 in (3000, 10**7):
        res = shortest_paths(g, x0, budget=4001)
        assert res.method == "window"
        assert list(res.distances)[:5] == [x0, x0 - 1, x0 + 1, x0 - 2, x0 + 2]
        assert list(res.distances)[-2:] == [x0 - 2000, x0 + 2000]
        assert _summary(res) == _summary(shortest_paths(_frontier_only(g), x0, budget=4001))


@pytest.mark.parametrize("x0, method", [(2000, "window"), (4000, "window")])
def test_a_cut_record_on_either_side_of_the_start(x0, method):
    # W raises at 3000: the right side of 2000 ends at 2999 and the left side
    # of 4000 at 3001, which the search does not settle
    g = make_family({"family": "path-nat", "W": "1/(n-3000)"})
    res = shortest_paths(g, x0, budget=1500)
    assert res.method == method
    assert _summary(res) == _summary(shortest_paths(_frontier_only(g), x0, budget=1500))
    end = 2999 if x0 < 3000 else 3001
    assert end in res._span and end not in res.distances
    for budget in (2500, 10**6):  # the search settles the cut end, and raises the frontier's error
        with pytest.raises(ExprEvalError, match=r"\(at n=3000\)"):
            shortest_paths(g, x0, budget=budget)


@pytest.mark.parametrize("bad, x0", [(500, 2000), (1500, 2000), (3000, 3513)])
def test_a_left_side_ends_above_its_last_invalid_record(bad, x0):
    # the left side of x0 is evaluated from its top down, so it ends at
    # bad + 1, in the ray's prefix (cut at 499) or past it; from 3513 the
    # first growth ends at 3001 uncut, and the next one adds no record
    g = make_family({"family": "path-nat", "W": f"1/(n-{bad})"})
    budget = 2 * (x0 - bad - 1) - 1  # settles x0 - k..x0 + k, short of bad + 1
    res = shortest_paths(g, x0, budget=budget)
    assert res.method == "window" and res._span[0] == bad + 1
    assert min(res.distances) == bad + 2
    assert _summary(res) == _summary(shortest_paths(_frontier_only(g), x0, budget=budget))
    with pytest.raises(ExprEvalError, match=rf"\(at n={bad}\)"):
        shortest_paths(g, x0, budget=budget + 2)


@pytest.mark.parametrize("x0, budget, method", [
    (2**63 - 2000, 1000, "window"), (2**63 - 2000, 3000, "frontier"),
    (2**63 - 600, 2000, "frontier"), (2**63 - 10, 1000, "frontier")])
def test_starts_near_the_end_of_int64(x0, budget, method):
    g = make_family({"family": "path-nat", "w": "1 + 1/n", "q": "n^0.5"})
    res = shortest_paths(g, x0, budget=budget)
    assert res.method == method
    assert _summary(res) == _summary(shortest_paths(_frontier_only(g), x0, budget=budget))


@pytest.mark.parametrize("g, x0, q_mode, edge, method", [
    (make_family({"family": "path", "size": 600}), 1, UNIT_Q, 300, "window"),
    (_graph(3, 700, "mixed", ties=True), "v1", WITH_Q, 400, "window"),
    (_graph(4, 200, "str", ties=False), "v0001", WITH_Q, 150, "frontier"),
    (make_family({"family": "path-nat", "W": "-(n^2)", "q": "n^2"}), 1, WITH_Q, 700, "window"),
    (make_family({"family": "path-nat", "a": "n^0.5"}), 5000, UNIT_Q, 400, "window")])
def test_balls_are_the_vertices_their_searches_settle(g, x0, q_mode, edge, method):
    """With the radius at a settled distance, so that d == radius is met, a
    ball holds the search's own settled vertices in settle order: those that
    the frontier settles at or within the radius."""
    settled = list(shortest_paths(_frontier_only(g), x0, q_mode=q_mode, budget=2000)
                   .distances.items())
    radius = sorted(d for _, d in settled)[edge]
    assert shortest_paths(g, x0, q_mode=q_mode, radius=radius).method == method
    found = ball(g, x0, radius, q_mode=q_mode)
    assert found.complete and list(found.members.items()) == [
        (x, d) for x, d in settled if d <= radius]
    assert max(found.members.values()) == radius and len(found) > edge


@pytest.mark.parametrize("kind", ["a*q overflows", "w / a overflows", "ray a*q overflows"])
def test_zero_and_infinite_lengths_keep_the_search_on_the_frontier(kind):
    """An edge of length 0 (a * q overflows to inf) or inf (sqrt(w / a)
    overflows), met past WINDOW_MIN, is one that neither array path takes:
    the frontier goes on, without a numpy overflow warning, and never
    crosses an infinite edge."""
    if kind == "ray a*q overflows":
        g, budget = make_family({"family": "path-nat", "a": "1e308", "q": "1e308"}), 1000
    else:
        w, a, q = {"a*q overflows": (1.0, 1e308, 10.0),
                   "w / a overflows": (1e308, 5e-324, 1.0)}[kind]
        g, budget = ExplicitGraph.from_columns(
            list(range(1, 401)), [w] * 400, [0.0] * 400, [q] * 400, list(range(1, 400)),
            list(range(2, 401)), [a if k == 350 else 1.0 for k in range(1, 400)],
            [1.0] * 399), None
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        res = shortest_paths(g, 1, budget=budget)
    assert res.method == "frontier"
    assert _summary(res) == _summary(shortest_paths(_frontier_only(g), 1, budget=budget))
    got = res.distances
    if kind == "ray a*q overflows":
        assert list(got.items()) == [(x, 0.0) for x in range(1, 1001)]
    elif kind == "a*q overflows":
        assert len(got) == 400 and got[351] == got[350]
    else:
        assert len(got) == 350 and res.complete
