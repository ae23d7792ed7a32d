"""The array-backed explicit graph against plain reads.

The builder must refuse what the dict-backed ``graph_oracle.DictGraph``
refuses, with the same first message, build the same graph otherwise, and
hand unchecked broken graphs to ``validate`` unchanged.  Edge lookups must
find what a scan of the neighbor list finds, and closure windows must hold
what the base class reads from the neighbor oracle; the whole window of a
float graph, which searches run on, is built once.
"""

import cmath
import copy
import math
from fractions import Fraction

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graph_oracle import DictGraph
from magschro.errors import GraphStructureError, InputError, UnknownVertexError
from magschro.exact import FOURTH_ROOTS
from magschro.families import make_family
from magschro.graphs import ExplicitGraph, WeightedGraph, sorted_ids, validate
from magschro.metric import shortest_paths
from magschro.randomgraphs import gauge_transformed, random_connected_graph, random_gauge
from search_probes import frontier_only

FAULTS = ("vertex", "loop", "duplicate", "unknown", "phase", "edge-data", "asymmetry",
          "conjugacy", "disconnected")
BAD_VERTEX = [math.nan, math.inf, -math.inf, 0.0, -1.0, 0.5, 0, -3]
BAD_WEIGHT = [math.nan, math.inf, -math.inf, 0.0, -2.0, 0]
BAD_PHASE = [2.0, 0.5j, 2, complex(math.nan, 0.0), complex(0.0, math.inf), 1.0 + 1e-9j]


def _name(x, ids):
    if ids == "str":
        return f"v{x}"
    return f"v{x}" if ids == "mixed" and x % 2 else x


@st.composite
def _specs(draw):
    """Vertices and edges of a connected graph with up to three faults put in.

    The ids come in a drawn order, so that the first fault in the given
    order is not always the first in id order; the edges are a mapping or a
    list of items, which alone can repeat an oriented edge.
    """
    n = draw(st.integers(0, 8))
    kind = draw(st.sampled_from(["int", "str", "mixed"]))
    names = draw(st.permutations([_name(x, kind) for x in range(n)]))
    vertices = {x: [1.0 + i % 3, -1.0 * i, 1 + i % 2] for i, x in enumerate(names)}
    items = []
    for j in range(1, n):
        o, t = names[draw(st.integers(0, j - 1))], names[j]
        if draw(st.booleans()):
            o, t = t, o
        phase = cmath.exp(0.5j * j) if j % 3 else 1.0
        items.append([(o, t), [0.5 + j, phase]])
        if draw(st.booleans()):  # the reverse given too
            items.append([(t, o), [0.5 + j, phase.conjugate()]])
    faults = draw(st.lists(st.sampled_from(FAULTS), max_size=3))
    for fault in faults:
        if fault == "unknown":
            items.append([(draw(st.sampled_from(names or [0])), "nowhere"), [1.0, 1.0]])
        elif fault == "disconnected":  # anywhere in the given order, which the search starts from
            at = draw(st.integers(0, len(vertices)))
            listed = list(vertices.items())
            vertices = dict(listed[:at] + [("lonely", [1.0, 0.0, 1.0])] + listed[at:])
        elif fault == "vertex" and names:
            record = vertices[draw(st.sampled_from(names))]
            record[draw(st.integers(0, 2))] = draw(st.sampled_from(BAD_VERTEX))
        elif fault == "loop" and names:
            x = draw(st.sampled_from(names))
            items.insert(draw(st.integers(0, len(items))), [(x, x), [1.0, 1.0]])
        elif items:  # the first edges, so that one edge often takes two faults
            item = draw(st.sampled_from(items[:2]))
            (o, t), (a, phase) = item
            if fault == "duplicate":
                items.append([(o, t), [a + 1.0, phase]])
            elif fault == "phase":
                item[1][1] = draw(st.sampled_from(BAD_PHASE))
            elif fault == "edge-data":
                item[1][0] = draw(st.sampled_from(BAD_WEIGHT))
            elif fault == "asymmetry":
                items.append([(t, o), [a * 2.0, phase.conjugate()]])
            else:  # conjugacy: the same phase both ways, which is real only for +-1
                items.append([(t, o), [a, phase * 1j]])
    mapping = "duplicate" not in faults and draw(st.booleans())
    vertices = {x: tuple(rec) for x, rec in vertices.items()}
    if mapping:
        return vertices, {pair: tuple(data) for pair, data in items}
    return vertices, [(pair, tuple(data)) for pair, data in items]


def _built(cls, vertices, edges, **kwargs):
    """The graph, or the message of the GraphStructureError that refused it."""
    try:
        return cls(vertices, edges, **kwargs)
    except GraphStructureError as exc:
        return str(exc)


def _report(g):
    window = g.vertices()
    if not window:
        return None
    return [(v.kind, v.location, repr(v.measured)) for v in validate(g, window).violations]


@settings(max_examples=400, deadline=None)
@given(spec=_specs())
def test_builder_refuses_as_the_dict_oracle(spec):
    vertices, edges = spec
    new, old = _built(ExplicitGraph, vertices, edges), _built(DictGraph, vertices, edges)
    if isinstance(old, str):
        assert new == old
        return
    assert not isinstance(new, str), new
    assert new.vertices() == old.vertices() and new.degree_bound == old.degree_bound
    assert new.edges() == old.edges()
    for x in old.vertices():
        assert new.vertex(x) == old.vertex(x)
        assert new.neighbors(x) == old.neighbors(x)


@settings(max_examples=300, deadline=None)
@given(spec=_specs())
def test_unchecked_graphs_reach_validate_unchanged(spec):
    vertices, edges = spec
    new = _built(ExplicitGraph, vertices, edges, check=False)
    old = _built(DictGraph, vertices, edges, check=False)
    if isinstance(old, str):  # a repeated edge or an unknown end is refused unchecked too
        assert new == old
        return
    assert _report(new) == _report(old)


def test_refusals_name_the_first_fault_in_the_given_order():
    clean = {1: (1.0, 0.0, 1.0), 2: (1.0, 0.0, 1.0), 3: (1.0, 0.0, 1.0)}
    cases = [
        ({}, {}, "graph has no vertices"),
        ({}, {(1, 2): (1.0, 1.0)}, "edge (1, 2) references an unknown vertex"),
        ({3: (1.0, 0.0, 0.5), 1: (0, 0.0, 1.0), 2: (1.0, 0.0, 1.0)},
         {(1, 2): (1.0, 1.0), (2, 3): (1.0, 1.0)}, "vertex 3: minorant must be >= 1, got 0.5"),
        ({1: (1.0, math.nan, 1), 2: (1.0, 0.0, 1.0)}, {(1, 2): (1.0, 1.0)},
         "vertex 1: w, W and q must be finite, got (1.0, nan, 1)"),
        (clean, [((2, 3), (1.0, 2)), ((1, 2), (-1.0, 1.0))], "edge (2, 3): phase modulus 2 != 1"),
        (clean, [((1, 2), (1.0, 1.0)), ((2, 3), (1.0, 1.0)), ((1, 2), (1.0, 1.0))],
         "duplicate oriented edge (1, 2)"),
        (clean, {(1, 2): (1.0, 1j), (2, 1): (1.0, 1j), (2, 3): (1.0, 1.0)},
         "edge (1, 2): phases are not conjugate"),
        (clean, {(1, 2): (1.0, 1.0)}, "graph is not connected; unreachable: [3]"),
        ({3: (1.0, 0.0, 1.0), 1: (1.0, 0.0, 1.0), 2: (1.0, 0.0, 1.0)}, {(1, 2): (1.0, 1.0)},
         "graph is not connected; unreachable: [1, 2]"),
        # one edge with several faults: the first check in the dict code's order names it
        (clean, [((1, 2), (-1.0, 2.0)), ((2, 3), (1.0, 1.0))],
         "edge (1, 2): weight must be positive"),
        (clean, [((2, 2), (math.nan, 2.0)), ((1, 2), (1.0, 1.0))], "loop at vertex 2"),
        (clean, {(1, 2): (1.0, 2.0), (2, 1): (2.0, 1.0), (2, 3): (1.0, 1.0)},
         "edge (1, 2): phase modulus 2.0 != 1"),
        (clean, {(1, 2): (1.0, 1j), (2, 1): (2.0, 1j), (2, 3): (1.0, 1.0)},
         "edge (1, 2): weight differs between orientations"),
    ]
    for vertices, edges, message in cases:
        for cls in (ExplicitGraph, DictGraph):
            with pytest.raises(GraphStructureError) as info:
                cls(vertices, edges)
            assert str(info.value) == message


def test_from_columns_refuses_a_repeated_vertex():
    with pytest.raises(GraphStructureError, match="duplicate vertex 'a'"):
        ExplicitGraph.from_columns(["a", "b", "a"], [1.0] * 3, [0.0] * 3, [1.0] * 3,
                                   ["a"], ["b"], [1.0], [1.0])


def _relabelled(g, ids):
    if ids == "int":
        return g
    return ExplicitGraph({_name(x, ids): g.vertex(x) for x in g.vertices()},
                         {(_name(e.origin, ids), _name(e.terminus, ids)): g.edge_data(e)
                          for e in g.edges()})


_ID_KINDS = st.sampled_from(["int", "str", "mixed"])


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), ids=_ID_KINDS)
def test_edge_lookups_match_the_neighbor_scan(seed, ids):
    g = _relabelled(random_connected_graph(np.random.default_rng(seed), max_vertices=25), ids)
    names = g.vertices()
    for x in names:
        for y in [*names, "nowhere", 10**6]:
            try:
                want = WeightedGraph.edge_data(g, (x, y))  # a scan of x's neighbor list
            except InputError:
                want = None
            assert g.has_edge((x, y)) == WeightedGraph.has_edge(g, (x, y)) == (want is not None)
            if want is None:
                with pytest.raises(InputError, match="no edge"):
                    g.edge_data((x, y))
            else:
                assert g.edge_data((x, y)) is want
    assert not g.has_edge(("nowhere", names[0]))
    with pytest.raises(UnknownVertexError):
        g.edge_data(("nowhere", names[0]))


def test_hub_lookups_binary_search_the_row():
    star = make_family({"family": "star", "size": 4000})
    twisted = gauge_transformed(star, random_gauge(np.random.default_rng(4), star))
    for g in (star, twisted):
        for e in g.edges():
            assert g.edge_data(e) is WeightedGraph.edge_data(g, e)
            assert g.edge_data(e.reverse()).phase == g.edge_data(e).phase.conjugate()
        assert not g.has_edge((2, 3)) and g.has_edge((4000, 1))


def _assert_same_window(new, old):
    """Equal fields with equal dtypes; the oracle read infers a dtype from the
    entries it keeps, the array graph keeps its column's when none is kept."""
    for name in old.__dataclass_fields__:
        a, b = getattr(new, name), getattr(old, name)
        assert a.shape == b.shape and (a.dtype == b.dtype or not a.size), name
        assert a.tobytes() == b.tobytes() if a.dtype != object else a.tolist() == b.tolist(), name


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), ids=_ID_KINDS)
def test_whole_window_is_the_graph(seed, ids):
    rng = np.random.default_rng(seed)
    g = _relabelled(random_connected_graph(rng, max_vertices=30), ids)
    names = g.vertices()
    win = g.whole_window()
    assert g.whole_window() is win and win.ids.tolist() == names
    # it shares the graph's arrays and its id -> row dict
    assert win.w is g._w and win.a is g._a and win.indices is g._indices
    assert win.row_by_id is g._row and all(win.row_of(x) == r for r, x in enumerate(names))
    assert win.interior.all() and g.closure_window(names) is win
    _assert_same_window(win, WeightedGraph.closure_window(g, names))
    exact = ExplicitGraph({x: tuple(map(Fraction, g.vertex(x))) for x in names},
                          {e: (Fraction(g.edge_data(e).weight), 1) for e in g.edges()})
    assert exact.whole_window() is None


@settings(max_examples=80, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), ids=_ID_KINDS)
def test_closure_windows_match_the_oracle_read(seed, ids):
    rng = np.random.default_rng(seed)
    g = _relabelled(random_connected_graph(rng, max_vertices=30), ids)
    names = g.vertices()
    picks = rng.choice(len(names), size=int(rng.integers(0, len(names) + 1)), replace=False)
    vertices = [names[int(i)] for i in picks]
    extra = [names[int(i)] for i in rng.choice(len(names), size=2)]
    _assert_same_window(g.closure_window(vertices, extra),
                        WeightedGraph.closure_window(g, vertices, extra))


def test_ids_past_int64_are_held_as_objects():
    """A path on the int ids 2**70 + k: its windows hold them in an object
    array, as the oracle read does, and a search past WINDOW_MIN runs on it."""
    top = 2 ** 70
    names = [top + k for k in range(400)]
    g = ExplicitGraph.from_columns(names, np.linspace(1, 2, 400), [0.0] * 400,
                                   np.linspace(1, 5, 400), names[:-1], names[1:],
                                   np.linspace(0.5, 3, 399), [1.0] * 399)
    whole = g.whole_window()
    assert whole.ids.dtype == object and whole.ids.tolist() == names
    _assert_same_window(whole, WeightedGraph.closure_window(g, names))
    for vertices, extra in (([top + 7, top + 300], [top + 399]), ([top], [])):
        _assert_same_window(g.closure_window(vertices, extra),
                            WeightedGraph.closure_window(g, vertices, extra))
    res = shortest_paths(g, top + 100)
    assert res.method == "window" and len(res.distances) == 400
    oracle = shortest_paths(frontier_only(g), top + 100).distances
    assert list(res.distances.items()) == list(oracle.items())
    assert res.get(top + 399) == oracle[top + 399] and res.get(399) is None


def test_closure_window_refuses_unknown_vertices_as_the_oracle_read():
    g = make_family({"family": "cycle", "size": 5})
    for vertices, extra, unknown in (([3, 9, 0], (), 9), ([2], ["b", 7, "a"], 7),
                                     ([2], ["b", "a"], "a")):
        for read in (g.closure_window, lambda v, e: WeightedGraph.closure_window(g, v, e)):
            with pytest.raises(UnknownVertexError) as info:
                read(vertices, extra)
            assert info.value.args == UnknownVertexError(unknown).args


def test_windows_share_read_only_arrays():
    g = make_family({"family": "path", "size": 40})
    whole = g.whole_window()
    assert whole.ids.tolist() == list(range(1, 41)) and whole.interior.all()
    assert whole.w is g.closure_window(g.vertices()).w
    with pytest.raises(ValueError):
        whole.w[0] = 2.0
    with pytest.raises(UnknownVertexError):
        shortest_paths(g, 0, budget=300)


def test_exact_graphs_hand_over_no_whole_window():
    g = ExplicitGraph({1: (Fraction(1), Fraction(0), Fraction(1)),
                       2: (Fraction(2), Fraction(0), Fraction(1))},
                      {(1, 2): (Fraction(3), FOURTH_ROOTS[1])})
    assert g.whole_window() is None
    win = g.closure_window([1])
    assert win.w.dtype == object
    assert win.sigma.tolist() == [FOURTH_ROOTS[1], FOURTH_ROOTS[1].conjugate()]


def test_neighbor_lists_are_built_once_per_row():
    g = make_family({"family": "cycle", "size": 6})
    first = g.neighbors(3)
    assert g.neighbors(3) is first and copy.copy(g).neighbors(3) is first
    assert [tuple(e) for e, _ in first] == [(3, 2), (3, 4)]
