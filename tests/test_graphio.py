import json
import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

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


_IDS = st.one_of(st.text("abcxyz019-", min_size=1, max_size=4), st.integers(-99, 999))
_FLOATS = st.floats(-1e6, 1e6, allow_nan=False)


@st.composite
def _documents(draw):
    """A valid graph document: some fields omitted, ids strings or integers,
    and phases a little off the unit circle, as parse accepts them."""
    ids = draw(st.lists(_IDS, min_size=1, max_size=10, unique_by=str))
    vertices = []
    for x in ids:
        record = {"id": x}
        for key, value in (("w", st.floats(1e-3, 1e3)), ("W", _FLOATS), ("q", st.floats(1, 1e3))):
            if draw(st.booleans()):
                record[key] = draw(value)
        vertices.append(record)
    edges, seen = [], set()
    for i, j in draw(st.lists(st.tuples(st.integers(0, len(ids) - 1),
                                        st.integers(0, len(ids) - 1)), max_size=15)):
        pair = frozenset((str(ids[i]), str(ids[j])))
        if i == j or pair in seen:
            continue
        seen.add(pair)
        edge = {"u": ids[i], "v": ids[j]}
        if draw(st.booleans()):
            edge["a"] = draw(st.floats(1e-3, 1e3))
        if draw(st.booleans()):
            angle = draw(st.floats(-math.pi, math.pi))
            scale = 1.0 + draw(st.floats(-1e-10, 1e-10))
            edge["sigma"] = {"re": scale * math.cos(angle), "im": scale * math.sin(angle)}
        edges.append(edge)
    return {"vertices": vertices, "edges": edges}


@settings(max_examples=200, deadline=None)
@given(doc=_documents())
# one division by the modulus 0.9999999999999999 of this phase is no fixed point
@example(doc={"vertices": [{"id": "a"}, {"id": "b"}],
              "edges": [{"u": "a", "v": "b",
                         "sigma": {"re": 0.07883065488194932, "im": 0.9968880216448259}}]})
def test_parse_serialize_parse_is_a_fixed_point(doc):
    first = parse_graph(json.dumps(doc))
    text = serialize_graph(first)
    again = parse_graph(text)
    assert serialize_graph(again) == text
    assert parse_graph(serialize_graph(again)) == again
    # the canonical form holds the same records, up to orientation and order
    assert sorted(again.vertices, key=lambda r: r.id) == sorted(first.vertices,
                                                                key=lambda r: r.id)
    assert len(again.edges) == len(first.edges)


# (where to break a valid document, what to put there, the path the error names)
_BREAKS = [
    (("vertices", "w"), -1.0, "$.vertices[{i}].w"),
    (("vertices", "q"), 0.5, "$.vertices[{i}].q"),
    (("vertices", "W"), "low", "$.vertices[{i}].W"),
    (("vertices", "id"), None, "$.vertices[{i}].id"),
    (("vertices", "colour"), 1, "$.vertices[{i}]"),
    (("edges", "a"), 0.0, "$.edges[{i}].a"),
    (("edges", "v"), "nowhere", "$.edges[{i}].v"),
    (("edges", "u"), True, "$.edges[{i}].u"),
    (("edges", "sigma"), {"re": 3.0, "im": 4.0}, "$.edges[{i}].sigma"),
    (("edges", "sigma"), {"re": 1.0, "x": 0.0}, "$.edges[{i}].sigma"),
    (("edges", "sigma"), {"re": 1.0, "im": "0"}, "$.edges[{i}].sigma.im"),
]


@settings(max_examples=200, deadline=None)
@given(doc=_documents(), data=st.data())
def test_bad_documents_name_the_element_at_fault(doc, data):
    (part, key), value, path = data.draw(st.sampled_from(
        [b for b in _BREAKS if doc[b[0][0]]]))
    i = data.draw(st.integers(0, len(doc[part]) - 1))
    doc[part][i][key] = value
    with pytest.raises(SchemaError) as info:
        parse_graph(json.dumps(doc))
    assert info.value.path == path.format(i=i)
