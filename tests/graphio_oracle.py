"""The record-by-record graph-file parser, kept as the oracle for the column checks.

This is :func:`magschro.graphio.parse_graph` as it was before documents were
checked by columns: one walk over the records that validates each field in
file order and builds a :class:`VertexRecord` or :class:`EdgeRecord` per
record.  ``parse_graph`` returns the two record lists; ``oracle_graph``
builds the graph from them as ``GraphFile.to_graph`` did.
"""

import json
import math

from magschro.errors import SchemaError
from magschro.graphio import SIGMA_PARSE_TOL, EdgeRecord, VertexRecord
from magschro.graphs import ExplicitGraph


def oracle_graph(vertices, edges, *, check=True) -> ExplicitGraph:
    vs, es = vertices, edges
    return ExplicitGraph.from_columns(
        [r.id for r in vs], [r.w for r in vs], [r.W for r in vs], [r.q for r in vs],
        [r.u for r in es], [r.v for r in es], [r.a for r in es], [r.sigma for r in es],
        check=check)


def _require(obj, kind, path):
    if not isinstance(obj, kind) or isinstance(obj, bool):
        names = kind[0].__name__ if isinstance(kind, tuple) else kind.__name__
        raise SchemaError(f"expected {names}, got {type(obj).__name__}", path)
    return obj


def _number(obj, path) -> float:
    if isinstance(obj, bool) or not isinstance(obj, (int, float)):
        raise SchemaError(f"expected a number, got {type(obj).__name__}", path)
    try:
        value = float(obj)
    except OverflowError:  # an integer literal beyond the float range
        value = math.inf
    if not math.isfinite(value):
        raise SchemaError(f"expected a finite number, got {value}", path)
    return value


def _identifier(obj, path) -> str:
    if isinstance(obj, str):
        return obj
    if isinstance(obj, int) and not isinstance(obj, bool):
        return str(obj)
    raise SchemaError(f"vertex id must be a string or integer, got {type(obj).__name__}", path)


def parse_graph(text: str):
    """Parse and validate a graph file; errors carry element paths."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SchemaError(f"invalid JSON: {exc}", "$") from None
    _require(doc, dict, "$")
    for key in doc:
        if key not in ("vertices", "edges"):
            raise SchemaError(f"unknown key {key!r}", "$")
    raw_vertices = _require(doc.get("vertices", []), list, "$.vertices")
    raw_edges = _require(doc.get("edges", []), list, "$.edges")
    if not raw_vertices:
        raise SchemaError("at least one vertex is required", "$.vertices")

    vertices = []
    ids = set()
    for i, item in enumerate(raw_vertices):
        path = f"$.vertices[{i}]"
        _require(item, dict, path)
        if "id" not in item:
            raise SchemaError("missing id", path)
        vid = _identifier(item["id"], f"{path}.id")
        if vid in ids:
            raise SchemaError(f"duplicate vertex id {vid!r}", f"{path}.id")
        ids.add(vid)
        for key in item:
            if key not in ("id", "w", "W", "q"):
                raise SchemaError(f"unknown key {key!r}", path)
        w = _number(item.get("w", 1.0), f"{path}.w")
        W = _number(item.get("W", 0.0), f"{path}.W")
        q = _number(item.get("q", 1.0), f"{path}.q")
        if not w > 0:
            raise SchemaError(f"w must be positive, got {w}", f"{path}.w")
        if q < 1:
            raise SchemaError(f"q must be >= 1, got {q}", f"{path}.q")
        vertices.append(VertexRecord(vid, w, W, q))

    edges = []
    seen_pairs = set()
    for i, item in enumerate(raw_edges):
        path = f"$.edges[{i}]"
        _require(item, dict, path)
        for key in ("u", "v"):
            if key not in item:
                raise SchemaError(f"missing {key}", path)
        for key in item:
            if key not in ("u", "v", "a", "sigma"):
                raise SchemaError(f"unknown key {key!r}", path)
        u = _identifier(item["u"], f"{path}.u")
        v = _identifier(item["v"], f"{path}.v")
        if u not in ids:
            raise SchemaError(f"unknown vertex {u!r}", f"{path}.u")
        if v not in ids:
            raise SchemaError(f"unknown vertex {v!r}", f"{path}.v")
        if u == v:
            raise SchemaError(f"loop at vertex {u!r}", path)
        pair = (u, v) if u < v else (v, u)
        if pair in seen_pairs:
            raise SchemaError(f"duplicate edge between {pair[0]!r} and {pair[1]!r}", path)
        seen_pairs.add(pair)
        a = _number(item.get("a", 1.0), f"{path}.a")
        if not a > 0:
            raise SchemaError(f"a must be positive, got {a}", f"{path}.a")
        sigma = 1.0 + 0.0j
        if "sigma" in item:
            sig = _require(item["sigma"], dict, f"{path}.sigma")
            for key in sig:
                if key not in ("re", "im"):
                    raise SchemaError(f"unknown key {key!r}", f"{path}.sigma")
            re = _number(sig.get("re", 0.0), f"{path}.sigma.re")
            im = _number(sig.get("im", 0.0), f"{path}.sigma.im")
            sigma = complex(re, im)
            modulus = abs(sigma)
            if abs(modulus - 1.0) > SIGMA_PARSE_TOL:
                raise SchemaError(f"sigma must have modulus 1, got {modulus}", f"{path}.sigma")
            # divide to a fixed point, which one division may miss, so that a reparse keeps it
            while (unit := sigma / abs(sigma)) != sigma:
                sigma = unit
        edges.append(EdgeRecord(u, v, a, sigma))

    return vertices, edges
