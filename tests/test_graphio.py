import json
import math
import re

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import graphio_oracle
from magschro import graphio
from magschro.errors import GraphStructureError, SchemaError
from magschro.graphio import GraphFile, parse_graph, serialize_graph

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
    assert gf.ids == ["1", "2"] and gf.u == ["1"] and gf.v == ["2"]
    assert gf.w[0] == 1.0 and gf.W[0] == 0.0 and gf.q[0] == 1.0
    assert gf.a[0] == 1.0 and gf.sigma[0] == 1.0 + 0.0j


def test_parse_renormalizes_pythagorean_phase():
    gf = parse_graph(json.dumps({
        "vertices": [{"id": "a"}, {"id": "b"}],
        "edges": [{"u": "a", "v": "b", "sigma": {"re": 0.6, "im": 0.8}}],
    }))
    assert abs(abs(gf.sigma[0]) - 1.0) < 1e-15


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


def test_an_edge_from_an_unknown_vertex_names_its_u():
    doc = {"vertices": [{"id": "a"}], "edges": [{"u": "zz", "v": "a"}]}
    with pytest.raises(SchemaError) as exc:
        parse_graph(json.dumps(doc))
    assert exc.value.path == "$.edges[0].u"
    assert str(exc.value) == "$.edges[0].u: unknown vertex 'zz'"


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
    assert gf.u[0] == "a" and gf.sigma[0] == pytest.approx(-1j)


def test_to_graph_rejects_disconnected():
    gf = parse_graph(json.dumps({
        "vertices": [{"id": "a"}, {"id": "b"}, {"id": "c"}],
        "edges": [{"u": "a", "v": "b"}],
    }))
    with pytest.raises(GraphStructureError, match="not connected"):
        gf.to_graph()


def test_graphfile_full_precision_round_trip():
    gf = GraphFile(ids=["a", "b"], w=[1 / 3, 9.0], W=[-2 / 7, 0.0], q=[1.25, 1.0],
                   u=["a"], v=["b"], a=[2 / 3], sigma=[complex(0.6, 0.8)])
    back = parse_graph(serialize_graph(gf))
    assert back.w[0] == 1 / 3
    assert back.a[0] == 2 / 3


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
# integer phase parts, some omitted, as parse accepts them
_INT_PHASES = [{"re": 1, "im": 0}, {"re": 0, "im": -1}, {"im": 1}, {"re": -1}]


def _positive(low):
    """Floats in [low, 1e3], or integers there, which parse coerces."""
    return st.floats(low, 1e3) | st.integers(math.ceil(low), 1000)


@st.composite
def _documents(draw):
    """A valid graph document: some fields omitted, ids strings or integers,
    values floats or integers (some beyond 2**53, which round), and phases a
    little off the unit circle or with integer parts, as parse accepts them."""
    ids = draw(st.lists(_IDS, min_size=1, max_size=10, unique_by=str))
    vertices = []
    for x in ids:
        record = {"id": x}
        for key, value in (("w", _positive(1e-3)), ("W", _FLOATS | st.integers(-2**60, 2**60)),
                           ("q", _positive(1))):
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
            edge["a"] = draw(_positive(1e-3))
        if draw(st.booleans()):
            angle = draw(st.floats(-math.pi, math.pi))
            scale = 1.0 + draw(st.floats(-1e-10, 1e-10))
            edge["sigma"] = {"re": scale * math.cos(angle), "im": scale * math.sin(angle)}
        elif draw(st.booleans()):
            edge["sigma"] = dict(draw(st.sampled_from(_INT_PHASES)))
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
    assert sorted(zip(again.ids, again.w, again.W, again.q)) == sorted(
        zip(first.ids, first.w, first.W, first.q))
    assert len(again.u) == len(first.u)


def _bits(values):
    """Each value as its exact bits, so that 0.0 and -0.0 differ."""
    return [x if isinstance(x, str) else
            (x.real.hex(), x.imag.hex()) if isinstance(x, complex) else x.hex() for x in values]


def _graph_or_fault(build):
    try:
        return build()
    except GraphStructureError as exc:
        return str(exc)


@settings(max_examples=200, deadline=None)
@given(doc=_documents())
@example(doc={"vertices": [{"id": "a"}, {"id": "b"}],
              "edges": [{"u": "a", "v": "b",
                         "sigma": {"re": 0.07883065488194932, "im": 0.9968880216448259}}]})
def test_columns_equal_the_record_walk_bit_for_bit(doc):
    text = json.dumps(doc)
    gf = parse_graph(text)
    vertices, edges = graphio_oracle.parse_graph(text)
    for column, records, field in [(gf.ids, vertices, "id"), (gf.w, vertices, "w"),
                                   (gf.W, vertices, "W"), (gf.q, vertices, "q"),
                                   (gf.u, edges, "u"), (gf.v, edges, "v"), (gf.a, edges, "a"),
                                   (gf.sigma, edges, "sigma")]:
        assert list(map(type, column)) == [type(getattr(r, field)) for r in records]
        assert _bits(column) == _bits(getattr(r, field) for r in records)
    new = _graph_or_fault(gf.to_graph)
    old = _graph_or_fault(lambda: graphio_oracle.oracle_graph(vertices, edges))
    if isinstance(old, str):  # a disconnected document
        assert new == old
        return
    assert new._ids == old._ids
    for name in ("_indptr", "_indices", "_w", "_W", "_q", "_a", "_sigma"):
        mine, theirs = getattr(new, name), getattr(old, name)
        assert mine.dtype == theirs.dtype and mine.tobytes() == theirs.tobytes(), name


def test_a_valid_file_never_enters_the_walk(monkeypatch):
    def refuse(vertices, edges):
        raise AssertionError("the record walk ran on a valid file")

    monkeypatch.setattr(graphio, "_walk", refuse)
    doc = {"vertices": [{"id": 1, "w": 2, "W": -3, "q": 1}, {"id": "b", "w": 0.5}, {"id": 3}],
           "edges": [{"u": 1, "v": "b", "a": 4, "sigma": {"im": 1}},
                     {"u": "3", "v": "b", "sigma": {"re": 0.6, "im": 0.8}}, {"u": 3, "v": 1}]}
    for text in (MINIMAL, json.dumps(doc)):
        gf = parse_graph(text)
        assert parse_graph(serialize_graph(gf)).to_graph().vertices() == gf.to_graph().vertices()
    with pytest.raises(AssertionError, match="record walk ran"):
        parse_graph(json.dumps({"vertices": [{"id": "a", "w": 0}]}))


@pytest.mark.parametrize("text", ["[" * 100000, '{"vertices": [{"id": ' + "7" * 5000 + "}]}"],
                         ids=["deep-nesting", "long-integer"])
def test_hostile_json_is_a_schema_error(text):
    with pytest.raises(SchemaError, match="invalid JSON") as info:
        parse_graph(text)
    assert info.value.path == "$"


@pytest.mark.parametrize("doc, path", [
    ({"vertices": [{"id": "a"}, {"id": "\ud800"}]}, "$.vertices[1].id"),
    ({"vertices": [{"id": 7}, {"id": "x\udfff"}]}, "$.vertices[1].id"),
    ({"vertices": [{"id": "\ud83d"}, {"id": "\ude00"}]}, "$.vertices[0].id"),
    ({"vertices": [{"id": "a"}], "edges": [{"u": "\udc00", "v": "a"}]}, "$.edges[0].u"),
    ({"vertices": [{"id": "a"}], "edges": [{"u": "a", "v": "\ud800"}]}, "$.edges[0].v"),
], ids=["id", "id-after-int", "split-pair", "edge-u", "edge-v"])
def test_lone_surrogate_ids_are_refused_with_their_path(doc, path):
    with pytest.raises(SchemaError, match="vertex id must be valid Unicode") as info:
        parse_graph(json.dumps(doc))
    assert info.value.path == path


def test_an_escaped_surrogate_pair_is_one_valid_character():
    assert parse_graph('{"vertices": [{"id": "\\ud83d\\ude00"}]}').ids == ["\U0001f600"]


def _set(key, value):
    return lambda records, i: records[i].__setitem__(key, value)


def _drop(key):
    return lambda records, i: records[i].pop(key)


def _loop(records, i):
    records[i]["v"] = records[i]["u"]


def _reversed_copy(records, i):
    records.insert(i + 1, {"u": records[i]["v"], "v": records[i]["u"]})


# (the array to break, how to break its record i, the path the error names);
# a string "@..." is written into the text as the bare literal after the "@"
_BREAKS = [
    ("vertices", _set("w", -1.0), "$.vertices[{i}].w"),
    ("vertices", _set("q", 0.5), "$.vertices[{i}].q"),
    ("vertices", _set("W", "low"), "$.vertices[{i}].W"),
    ("vertices", _set("id", None), "$.vertices[{i}].id"),
    ("vertices", _set("colour", 1), "$.vertices[{i}]"),
    ("edges", _set("a", 0.0), "$.edges[{i}].a"),
    ("edges", _set("v", "nowhere"), "$.edges[{i}].v"),
    ("edges", _set("u", True), "$.edges[{i}].u"),
    ("edges", _set("sigma", {"re": 3.0, "im": 4.0}), "$.edges[{i}].sigma"),
    ("edges", _set("sigma", {"re": 1.0, "x": 0.0}), "$.edges[{i}].sigma"),
    ("edges", _set("sigma", {"re": 1.0, "im": "0"}), "$.edges[{i}].sigma.im"),
    ("vertices", _set("w", math.nan), "$.vertices[{i}].w"),
    ("edges", _set("a", "@1e400"), "$.edges[{i}].a"),
    ("vertices", _set("q", "@" + "9" * 400), "$.vertices[{i}].q"),
    ("vertices", _set("W", True), "$.vertices[{i}].W"),
    ("edges", _drop("u"), "$.edges[{i}]"),
    ("edges", _drop("v"), "$.edges[{i}]"),
    ("edges", _loop, "$.edges[{i}]"),
    ("edges", _reversed_copy, "$.edges[{j}]"),
]


@settings(max_examples=300, deadline=None)
@given(doc=_documents(), data=st.data())
def test_bad_documents_name_the_element_at_fault(doc, data):
    part, change, path = data.draw(st.sampled_from([b for b in _BREAKS if doc[b[0]]]))
    i = data.draw(st.integers(0, len(doc[part]) - 1))
    change(doc[part], i)
    text = re.sub(r'"@([^"]*)"', r"\1", json.dumps(doc))
    with pytest.raises(SchemaError) as info:
        parse_graph(text)
    assert info.value.path == path.format(i=i, j=i + 1)
    with pytest.raises(SchemaError) as expected:
        graphio_oracle.parse_graph(text)
    assert str(info.value) == str(expected.value)
