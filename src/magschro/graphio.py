"""JSON graph files: schema validation, parsing, canonical serialization.

A graph file is a JSON object with two arrays::

    {
      "vertices": [{"id": "a", "w": 1.0, "W": 0.0, "q": 1.0}, ...],
      "edges": [{"u": "a", "v": "b", "a": 1.0,
                 "sigma": {"re": 0.6, "im": 0.8}}, ...]
    }

There is one edge record per unoriented edge; ``sigma`` is the phase of the
``u -> v`` orientation and the reverse orientation carries the conjugate.
Vertex ids are strings (integers are accepted and coerced).  Omitted fields
default to ``w = 1``, ``W = 0``, ``q = 1``, ``a = 1`` and ``sigma = 1``.
Phases must be within 1e-9 of unit modulus and are renormalized exactly onto
the unit circle on parse.  Serialization is canonical (sorted vertices and
edges, lexicographically ordered endpoints, all fields written), so
parse -> serialize -> parse is the identity and serialized text is
byte-stable after one canonicalization pass.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

from .errors import SchemaError
from .graphs import ExplicitGraph

SIGMA_PARSE_TOL = 1e-9


@dataclass(frozen=True)
class VertexRecord:
    id: str
    w: float
    W: float
    q: float


@dataclass(frozen=True)
class EdgeRecord:
    u: str
    v: str
    a: float
    sigma: complex


@dataclass
class GraphFile:
    vertices: list
    edges: list

    def to_graph(self, *, check=True) -> ExplicitGraph:
        """The graph of these records, built from their columns; a duplicate
        vertex id or edge record is a :class:`GraphStructureError`."""
        vs, es = self.vertices, self.edges
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


def parse_graph(text: str) -> GraphFile:
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

    return GraphFile(vertices=vertices, edges=edges)


def serialize_graph(gf: GraphFile) -> str:
    """Canonical JSON text for a graph file."""
    vertices = [
        {"id": rec.id, "w": rec.w, "W": rec.W, "q": rec.q}
        for rec in sorted(gf.vertices, key=lambda r: r.id)
    ]
    edges = []
    for rec in gf.edges:
        u, v, sigma = rec.u, rec.v, rec.sigma
        if v < u:
            u, v, sigma = v, u, sigma.conjugate()
        edges.append({"u": u, "v": v, "a": rec.a,
                      "sigma": {"re": sigma.real, "im": sigma.imag}})
    edges.sort(key=lambda e: (e["u"], e["v"]))
    return json.dumps({"vertices": vertices, "edges": edges},
                      indent=2, sort_keys=True) + "\n"


def load_graph(path, *, check=True) -> ExplicitGraph:
    with open(path, "r", encoding="utf-8") as handle:
        text = handle.read()
    return parse_graph(text).to_graph(check=check)
