import cmath
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from magschro.errors import GraphStructureError, InputError, UnknownVertexError
from magschro.families import FamilySpec, make_family, quadratic_well_ray
from magschro.graphs import (
    EdgeData,
    ExplicitGraph,
    OrientedEdge,
    VertexData,
    WeightedGraph,
    edge_sort_key,
    normalize_edge,
    validate,
)


def unit_path(n):
    return make_family({"family": "path", "size": n})


def test_neighbors_path_endpoint():
    g = quadratic_well_ray()
    assert [tuple(e) for e, _ in g.neighbors(1)] == [(1, 2)]


def test_neighbors_path_interior_sorted():
    g = quadratic_well_ray()
    assert [tuple(e) for e, _ in g.neighbors(3)] == [(3, 2), (3, 4)]


def test_neighbors_triangle():
    g = make_family({"family": "cycle", "size": 3})
    assert [tuple(e) for e, _ in g.neighbors(2)] == [(2, 1), (2, 3)]


def test_neighbors_unknown_vertex():
    g = unit_path(4)
    with pytest.raises(UnknownVertexError):
        g.neighbors(9)
    ray = quadratic_well_ray()
    with pytest.raises(UnknownVertexError):
        ray.neighbors(0)


def test_degree():
    ray = quadratic_well_ray()
    assert ray.degree(1) == 1
    assert ray.degree(7) == 2
    star = make_family({"family": "star", "size": 6})
    assert star.degree(1) == 5


def test_star_edges_canonical():
    ray = quadratic_well_ray()
    assert [tuple(e) for e in ray.star_edges(2)] == [(1, 2), (2, 3)]
    assert [tuple(e) for e in ray.star_edges(1)] == [(1, 2)]


def test_involution_and_normalize():
    e = OrientedEdge(5, 2)
    assert e.reverse().reverse() == e
    assert normalize_edge(e) == OrientedEdge(2, 5)
    assert normalize_edge((2, 5)) == OrientedEdge(2, 5)


def test_orientation_flip_round_trip():
    g = unit_path(4)
    e = OrientedEdge(1, 2)
    assert g.is_canonical(e)
    flipped = g.with_flipped_orientation([e])
    assert not flipped.is_canonical(e)
    assert flipped.is_canonical(e.reverse())
    assert flipped.canonical(e) == e.reverse()
    restored = flipped.with_flipped_orientation([e.reverse()])
    assert restored.is_canonical(e)
    # the base graph is untouched
    assert g.is_canonical(e)


def test_validate_clean_window():
    g = unit_path(6)
    report = validate(g, range(1, 6))
    assert report.ok
    assert report.violations == []


def test_validate_edge_weight_asymmetry():
    g = ExplicitGraph(
        {"x": (1.0, 0.0, 1.0), "y": (1.0, 0.0, 1.0)},
        {("x", "y"): (1.0, 1.0 + 0j), ("y", "x"): (2.0, 1.0 + 0j)},
        check=False,
    )
    report = validate(g, ["x", "y"])
    assert any(v.kind == "edge-weight-asymmetry" for v in report.violations)


def test_validate_non_unit_phase():
    g = ExplicitGraph(
        {"x": (1.0, 0.0, 1.0), "y": (1.0, 0.0, 1.0)},
        {("x", "y"): (1.0, 2.0 + 0j)},
        check=False,
    )
    report = validate(g, ["x"])
    bad = [v for v in report.violations if v.kind == "non-unit-phase"]
    assert bad and bad[0].measured == pytest.approx(2.0)


class _ListedGraph(WeightedGraph):
    """A graph read from neighbor lists as given: no builder dedupes an entry or
    derives a missing reverse, so these lists can hold a doubled edge 1 -> 2
    and a one-way edge 2 -> 3."""

    is_finite = True
    _LISTS = {1: [(2, 1.0), (2, 1.0)], 2: [(1, 1.0), (3, 1.0)], 3: []}

    def has_vertex(self, x):
        return x in self._LISTS

    def vertex(self, x):
        return VertexData(1.0, 0.0, 1.0)

    def neighbors(self, x):
        return [(OrientedEdge(x, t), EdgeData(a, 1.0 + 0j)) for t, a in self._LISTS[x]]


def test_validate_reports_a_multi_edge_and_a_missing_reverse():
    report = validate(_ListedGraph(), [1, 2, 3])
    assert report.violations == [("multi-edge", (1, 2), 1.0),
                                 ("missing-reverse-edge", (2, 3), 0.0)]


@pytest.mark.parametrize("g", [quadratic_well_ray(), unit_path(3)], ids=["well", "path"])
def test_an_unknown_vertex_has_no_edge_and_no_star(g):
    assert g.has_edge(("x", 1)) is False
    with pytest.raises(UnknownVertexError, match="unknown vertex: 'x'"):
        g.star_edges("x")


def test_validate_unknown_vertex_raises():
    g = unit_path(3)
    with pytest.raises(UnknownVertexError):
        validate(g, [1, 99])


def test_validate_empty_window_rejected():
    with pytest.raises(InputError):
        validate(unit_path(3), [])


def test_disconnected_graph_rejected():
    with pytest.raises(GraphStructureError, match="not connected"):
        ExplicitGraph(
            {1: (1.0, 0.0, 1.0), 2: (1.0, 0.0, 1.0), 3: (1.0, 0.0, 1.0)},
            {(1, 2): (1.0, 1.0 + 0j)},
        )


def test_loop_rejected():
    with pytest.raises(GraphStructureError, match="loop"):
        ExplicitGraph({1: (1.0, 0.0, 1.0)}, {(1, 1): (1.0, 1.0 + 0j)})


def test_bad_minorant_rejected():
    with pytest.raises(GraphStructureError, match="minorant"):
        ExplicitGraph(
            {1: (1.0, 0.0, 0.5), 2: (1.0, 0.0, 1.0)},
            {(1, 2): (1.0, 1.0 + 0j)},
        )


def test_nan_minorant_and_inf_weight_rejected():
    # NaN fails every comparison, so unchecked this graph passes `check` with
    # a minorant violation of 0.0 and a Lipschitz constant of 0.0
    with pytest.raises(GraphStructureError, match="finite"):
        ExplicitGraph(
            {1: (1.0, 0.0, math.nan), 2: (1.0, 0.0, 1.0), 3: (math.inf, 0.0, 1.0)},
            {(1, 2): (1.0, 1 + 0j), (2, 3): (1.0, 1 + 0j)},
        )


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("field", ["w", "W", "q", "a", "phase"])
def test_non_finite_graph_data_rejected(field, bad):
    vertex = {"w": 1.0, "W": 0.0, "q": 1.0}
    edge = {"a": 1.0, "phase": 1.0 + 0j}
    if field in vertex:
        vertex[field] = bad
    else:
        edge[field] = complex(bad, 0.0) if field == "phase" else bad
    with pytest.raises(GraphStructureError, match="finite"):
        ExplicitGraph(
            {1: (vertex["w"], vertex["W"], vertex["q"]), 2: (1.0, 0.0, 1.0)},
            {(1, 2): (edge["a"], edge["phase"])},
        )


def test_make_family_reference_values():
    g = make_family({"family": "path-nat", "a": "1", "w": "1", "W": "-(n^2)", "q": "n^2"})
    assert g.vertex(3) == VertexData(1.0, -9.0, 9.0)
    assert g.degree_bound == 2
    assert not g.is_finite
    assert g.mode == "lazy-generated"


def test_make_family_cycle_degree_bound():
    g = make_family({"family": "cycle", "size": 4})
    assert g.degree_bound == 2
    assert g.vertices() == [1, 2, 3, 4]
    assert g.is_finite


def test_make_family_bad_minorant():
    with pytest.raises(InputError, match="below 1"):
        make_family({"family": "path-nat", "q": "0.5"})


def test_make_family_unknown_name():
    with pytest.raises(InputError, match="unknown family"):
        make_family({"family": "hypercube"})


def test_make_family_spec_dataclass():
    g = make_family(FamilySpec("binary-tree", size=7))
    assert g.degree(1) == 2
    assert g.degree(2) == 3
    assert g.degree_bound == 3


def test_explicit_graph_mode_and_edges():
    g = unit_path(4)
    assert g.mode == "explicit-finite"
    assert [tuple(e) for e in g.edges()] == [(1, 2), (2, 3), (3, 4)]
    data = g.edge_data((2, 1))
    assert data == EdgeData(1.0, 1.0)


def test_validate_lazy_family_window():
    report = validate(quadratic_well_ray(), range(1, 100))
    assert report.ok


def _validate_unchecked(vertices, edges):
    g = ExplicitGraph(vertices, edges, check=False)
    return validate(g, g.vertices())


def test_validate_reports_nan_minorant_and_inf_weight():
    report = _validate_unchecked(
        {1: (1.0, math.nan, math.nan), 2: (1.0, 0.0, 1.0), 3: (math.inf, 0.0, 1.0)},
        {(1, 2): (1.0, 1 + 0j), (2, 3): (1.0, 1 + 0j)},
    )
    assert [(v.kind, v.location) for v in report.violations] == [
        ("non-finite-vertex-data", 1), ("non-finite-vertex-data", 3)]


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("field", ["w", "W", "q", "a", "phase"])
def test_validate_reports_non_finite_data_where_it_sits(field, bad):
    vertex = {"w": 1.0, "W": 0.0, "q": 1.0}
    edge = {"a": 1.0, "phase": 1.0 + 0j}
    if field in vertex:
        vertex[field] = bad
    else:
        edge[field] = complex(bad, 0.0) if field == "phase" else bad
    report = _validate_unchecked({1: (vertex["w"], vertex["W"], vertex["q"]), 2: (1.0, 0.0, 1.0)},
                                 {(1, 2): (edge["a"], edge["phase"])})
    if field in vertex:
        expected = [("non-finite-vertex-data", 1)]
    else:  # the derived reverse carries the same non-finite number; nothing else is reported
        expected = [("non-finite-edge-data", (1, 2)), ("non-finite-edge-data", (2, 1))]
    assert [(v.kind, v.location) for v in report.violations] == expected


_CORRUPT = [math.nan, math.inf, -math.inf, 0.0, -1.0, 0.5, 1.0, 2.0]
_CORRUPT_PHASE = [complex(math.nan, 0), complex(0, math.inf), 2.0 + 0j, 1j, -1j, 1 + 0j,
                  cmath.exp(0.3j), cmath.exp(-0.3j)]


@st.composite
def _corrupted_graphs(draw):
    """A small connected graph, both orientations given, with one field replaced."""
    size = draw(st.integers(2, 6))
    vertices = {x: [1.0 + x, 0.5 * x - 1.0, 1.0 + x / 2] for x in range(size)}
    pairs = [(draw(st.integers(0, x - 1)), x) for x in range(1, size)]
    pairs += [p for p in draw(st.lists(st.tuples(st.integers(0, size - 1), st.integers(0, size - 1)),
                                       max_size=4)) if p[0] < p[1] and p not in pairs]
    edges = {}
    for o, t in pairs:
        phase = cmath.exp(1j * (o - 2 * t))
        edges[(o, t)] = [0.5 + o + t, phase]
        edges[(t, o)] = [0.5 + o + t, phase.conjugate()]
    if draw(st.booleans()):
        field = vertices[draw(st.sampled_from(sorted(vertices)))]
        field[draw(st.integers(0, 2))] = draw(st.sampled_from(_CORRUPT))
    else:
        field = edges[draw(st.sampled_from(sorted(edges)))]
        at = draw(st.integers(0, 1))
        field[at] = draw(st.sampled_from(_CORRUPT_PHASE if at else _CORRUPT))
    return ({x: tuple(v) for x, v in vertices.items()}, {e: tuple(d) for e, d in edges.items()})


@settings(max_examples=300)
@given(graph=_corrupted_graphs())
def test_validate_agrees_with_the_constructor(graph):
    vertices, edges = graph
    try:
        ExplicitGraph(vertices, edges)
        refused = False
    except GraphStructureError:
        refused = True
    assert refused == (not _validate_unchecked(vertices, edges).ok)


_IDS = {"int": st.integers(-50, 50), "str": st.text("abcxyz", min_size=1, max_size=3),
        "mixed": st.one_of(st.integers(-50, 50), st.text("abcxyz", min_size=1, max_size=3))}


@st.composite
def _graphs_with_ids(draw, kind):
    """A connected graph on ids of the given kind, each edge given in one orientation."""
    ids = draw(st.lists(_IDS[kind], min_size=2, max_size=8, unique=True))
    pairs = [(draw(st.integers(0, k - 1)), k) for k in range(1, len(ids))]
    pairs += draw(st.lists(st.tuples(st.integers(0, len(ids) - 1), st.integers(0, len(ids) - 1)),
                           max_size=6))
    edges = {}
    for i, j in pairs:  # either orientation, as drawn
        if i != j and (ids[j], ids[i]) not in edges:
            edges[(ids[i], ids[j])] = EdgeData(1.0 + len(edges), cmath.exp(0.7j * len(edges)))
    return ExplicitGraph({x: (1.0, 0.0, 1.0) for x in ids}, edges), edges


@settings(max_examples=150)
@given(graph=st.sampled_from(sorted(_IDS)).flatmap(_graphs_with_ids))
def test_edge_table_on_int_str_and_mixed_ids(graph):
    g, edges = graph
    entries = {normalize_edge(e) for x in g.vertices() for e, _ in g.neighbors(x)}
    assert g.edges() == sorted(entries, key=edge_sort_key)
    assert all(type(e) is OrientedEdge for e in g.edges())
    for (o, t), data in edges.items():
        assert g.edge_data((o, t)) == data
        assert g.edge_data((t, o)) == EdgeData(data.weight, data.phase.conjugate())
    for x in g.vertices():  # no loops, and no edge from an unknown vertex
        with pytest.raises(InputError, match="no edge"):
            g.edge_data((x, x))
        with pytest.raises(InputError):
            g.edge_data(("nowhere", x))


def test_vertex_records_are_built_on_the_first_read():
    g = ExplicitGraph({"b": (2.0, -1.0, 3.0), "a": (1.0, 0.0, 1.0)},
                      {("a", "b"): (1.0, 1.0)})
    assert g._records == []  # building the graph builds no record
    with pytest.raises(UnknownVertexError):
        g.vertex("c")
    assert g._records == []
    assert g.vertex("b") == VertexData(2.0, -1.0, 3.0)
    assert g._records == [VertexData(1.0, 0.0, 1.0), VertexData(2.0, -1.0, 3.0)]
    with pytest.raises(UnknownVertexError):
        g.vertex("c")
