import json

import pytest

from magschro.errors import GraphStructureError, SchemaError
from magschro.graphio import EdgeRecord, GraphFile, VertexRecord, parse_graph, serialize_graph

MINIMAL = json.dumps({
    "vertices": [{"id": "a", "w": 1.0, "W": 0.0, "q": 1.0},
                 {"id": "b", "w": 2.0, "W": -1.0, "q": 1.5}],
    "edges": [{"u": "a", "v": "b", "a": 0.5, "sigma": {"re": 1.0, "im": 0.0}}],
})


def test_parse_minimal_two_vertex_file():
    gf = parse_graph(MINIMAL)
    g = gf.to_graph()
    assert g.vertices() == ["a", "b"]
    assert g.edge_data(("a", "b")).weight == 0.5
    assert g.edge_data(("b", "a")).weight == 0.5  # both orientations derived
    assert g.edge_data(("b", "a")).phase == (1.0 - 0.0j)


def test_parse_applies_defaults_and_coerces_ids():
    gf = parse_graph(json.dumps({
        "vertices": [{"id": 1}, {"id": 2}],
        "edges": [{"u": 1, "v": 2}],
    }))
    assert gf.vertices[0].id == "1"
    assert gf.vertices[0].w == 1.0 and gf.vertices[0].q == 1.0
    assert gf.edges[0].a == 1.0 and gf.edges[0].sigma == 1.0 + 0.0j


def test_parse_renormalizes_pythagorean_phase():
    gf = parse_graph(json.dumps({
        "vertices": [{"id": "a"}, {"id": "b"}],
        "edges": [{"u": "a", "v": "b", "sigma": {"re": 0.6, "im": 0.8}}],
    }))
    assert abs(abs(gf.edges[0].sigma) - 1.0) < 1e-15


def test_parse_rejects_bad_minorant_with_path():
    bad = json.dumps({"vertices": [{"id": "a", "q": 0.5}], "edges": []})
    with pytest.raises(SchemaError) as exc:
        parse_graph(bad)
    assert exc.value.path == "$.vertices[0].q"


@pytest.mark.parametrize("doc,path_prefix", [
    ({"vertices": [{"id": "a"}], "edges": [{"u": "a", "v": "a"}]}, "$.edges[0]"),
    ({"vertices": [{"id": "a"}, {"id": "b"}],
      "edges": [{"u": "a", "v": "b"}, {"u": "b", "v": "a"}]}, "$.edges[1]"),
    ({"vertices": [{"id": "a"}], "edges": [{"u": "a", "v": "zz"}]}, "$.edges[0].v"),
    ({"vertices": [{"id": "a"}, {"id": "a"}], "edges": []}, "$.vertices[1].id"),
    ({"vertices": [{"id": "a", "nope": 1}], "edges": []}, "$.vertices[0]"),
    ({"vertices": [{"id": "a"}, {"id": "b"}],
      "edges": [{"u": "a", "v": "b", "a": -1.0}]}, "$.edges[0].a"),
    ({"vertices": [{"id": "a"}, {"id": "b"}],
      "edges": [{"u": "a", "v": "b", "sigma": {"re": 2.0, "im": 0.0}}]}, "$.edges[0].sigma"),
    ({"vertices": [{"id": True}], "edges": []}, "$.vertices[0].id"),
], ids=["loop", "duplicate-edge", "unknown-vertex", "duplicate-id", "unknown-key",
        "bad-weight", "bad-sigma", "bool-id"])
def test_parse_schema_violations(doc, path_prefix):
    with pytest.raises(SchemaError) as exc:
        parse_graph(json.dumps(doc))
    assert exc.value.path.startswith(path_prefix)


def test_parse_rejects_invalid_json():
    with pytest.raises(SchemaError):
        parse_graph("{not json")


def test_round_trip_identity_and_byte_stability():
    messy = json.dumps({
        "vertices": [{"id": "b", "w": 2.0, "W": -1.0, "q": 1.5}, {"id": "a"}],
        "edges": [{"u": "b", "v": "a", "a": 0.5, "sigma": {"re": 0.0, "im": 1.0}}],
    })
    once = serialize_graph(parse_graph(messy))
    twice = serialize_graph(parse_graph(once))
    assert once == twice  # byte-stable after one canonicalization pass
    assert parse_graph(once) == parse_graph(twice)
    # the canonical edge orientation is lexicographic with conjugated phase
    gf = parse_graph(once)
    assert gf.edges[0].u == "a" and gf.edges[0].sigma == pytest.approx(-1j)


def test_to_graph_rejects_disconnected():
    gf = parse_graph(json.dumps({
        "vertices": [{"id": "a"}, {"id": "b"}, {"id": "c"}],
        "edges": [{"u": "a", "v": "b"}],
    }))
    with pytest.raises(GraphStructureError, match="not connected"):
        gf.to_graph()


def test_graphfile_full_precision_round_trip():
    gf = GraphFile(
        vertices=[VertexRecord("a", 1 / 3, -2 / 7, 1.25),
                  VertexRecord("b", 9.0, 0.0, 1.0)],
        edges=[EdgeRecord("a", "b", 2 / 3, complex(0.6, 0.8))],
    )
    back = parse_graph(serialize_graph(gf))
    assert back.vertices[0].w == 1 / 3
    assert back.edges[0].a == 2 / 3


@pytest.mark.parametrize("literal", ["NaN", "Infinity", "-Infinity", "1e400", "1" + "0" * 400],
                         ids=["nan", "inf", "-inf", "float-overflow", "int-overflow"])
@pytest.mark.parametrize("field,path", [
    ("w", "$.vertices[1].w"), ("W", "$.vertices[1].W"), ("q", "$.vertices[1].q"),
    ("a", "$.edges[0].a"), ("re", "$.edges[0].sigma.re"), ("im", "$.edges[0].sigma.im"),
])
def test_parse_rejects_non_finite_numbers_with_path(field, path, literal):
    vertex = {"id": "b"}
    edge = {"u": "a", "v": "b", "sigma": {"re": 1.0, "im": 0.0}}
    owner = vertex if path.startswith("$.vertices") else edge if field == "a" else edge["sigma"]
    owner[field] = "@"
    text = json.dumps({"vertices": [{"id": "a"}, vertex], "edges": [edge]})
    with pytest.raises(SchemaError) as exc:
        parse_graph(text.replace('"@"', literal))
    assert exc.value.path == path
    assert "expected a finite number" in str(exc.value)
