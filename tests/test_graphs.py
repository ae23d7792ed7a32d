import math

import pytest

from magschro.errors import GraphStructureError, InputError, UnknownVertexError
from magschro.families import FamilySpec, make_family, quadratic_well_ray
from magschro.graphs import (
    EdgeData,
    ExplicitGraph,
    OrientedEdge,
    VertexData,
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
