"""JSON graph files: schema validation, parsing, canonical serialization.

A graph file is a JSON object with two arrays::

    {
      "vertices": [{"id": "a", "w": 1.0, "W": 0.0, "q": 1.0}, ...],
      "edges": [{"u": "a", "v": "b", "a": 1.0,
                 "sigma": {"re": 0.6, "im": 0.8}}, ...]
    }

There is one edge record per unoriented edge; ``sigma`` is the phase of the
``u -> v`` orientation and the reverse orientation carries the conjugate.
Vertex ids are strings without lone surrogates (integers are accepted and
coerced).  Omitted fields default to ``w = 1``, ``W = 0``, ``q = 1``,
``a = 1`` and ``sigma = 1``.
Phases must be within 1e-9 of unit modulus and are renormalized exactly onto
the unit circle on parse.  Serialization is canonical (sorted vertices and
edges, lexicographically ordered endpoints, all fields written), so
parse -> serialize -> parse is the identity and serialized text is
byte-stable after one canonicalization pass.

A document is checked by columns: each field is pulled out of every record
at once, its types checked as a set, its values as numpy masks, and ids,
ends and unordered pairs as sets.  Only when a column check fails does a
walk over the records run, and its one job is to raise the first
:class:`SchemaError` with the path of the element at fault.  A parsed file,
:class:`GraphFile`, holds the eight columns as lists; its ``vertices`` and
``edges`` read them as :class:`VertexRecord` and :class:`EdgeRecord` views.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .errors import InputError, SchemaError
from .graphs import ExplicitGraph

SIGMA_PARSE_TOL = 1e-9

_VERTEX_KEYS = {"id", "w", "W", "q"}
_EDGE_KEYS = {"u", "v", "a", "sigma"}
_UNIT = {"re": 1.0, "im": 0.0}  # an omitted sigma; it renormalizes to 1 + 0j


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
    """A parsed graph file as columns in file order: the vertex ids with w, W
    and q, then each edge record's ends ``u``, ``v`` with a and sigma."""

    ids: list
    w: list
    W: list
    q: list
    u: list
    v: list
    a: list
    sigma: list

    @property
    def vertices(self) -> list:
        return list(map(VertexRecord, self.ids, self.w, self.W, self.q))

    @property
    def edges(self) -> list:
        return list(map(EdgeRecord, self.u, self.v, self.a, self.sigma))

    def to_graph(self) -> ExplicitGraph:
        """The graph of these columns; a duplicate vertex id or edge record is a
        :class:`GraphStructureError`."""
        return ExplicitGraph.from_columns(self.ids, self.w, self.W, self.q,
                                          self.u, self.v, self.a, self.sigma)


class _Refused(Exception):
    """A column check failed; the record walk names the fault."""


def _expect(ok):
    if not ok:
        raise _Refused


def _objects(items, keys):
    """Check that every item is an object whose keys are among ``keys``."""
    _expect(not set(map(type, items)) - {dict} and set().union(*items) <= keys)


def _identifiers(items, key) -> list:
    try:
        col = [item[key] for item in items]
    except KeyError:
        raise _Refused from None
    kinds = set(map(type, col))
    _expect(kinds <= {str, int})
    col = [x if type(x) is str else str(x) for x in col] if int in kinds else col
    try:
        "".join(col).encode("utf-8")
    except UnicodeEncodeError:  # a lone surrogate, which a JSON "\ud800" escape writes
        raise _Refused from None
    return col


def _floats(col, ok=None) -> list:
    """The column as finite floats whose array passes the mask ``ok``."""
    kinds = set(map(type, col))
    _expect(kinds <= {int, float})
    if int in kinds:
        try:
            col = list(map(float, col))
        except OverflowError:  # an integer literal beyond the float range
            raise _Refused from None
    values = np.array(col, dtype=float)
    _expect(np.isfinite(values).all() and (ok is None or ok(values).all()))
    return col


def _unit(sigma: complex) -> complex:
    # divide to a fixed point, which one division may miss, so that a reparse keeps it
    while (unit := sigma / abs(sigma)) != sigma:
        sigma = unit
    return sigma


def _columns(vertices, edges) -> tuple:
    """The eight columns of a valid document; any failed check raises _Refused."""
    _objects(vertices, _VERTEX_KEYS)
    _objects(edges, _EDGE_KEYS)
    ids, u, v = _identifiers(vertices, "id"), _identifiers(edges, "u"), _identifiers(edges, "v")
    known, pairs = set(ids), set(zip(u, v))
    # a loop is its own reverse, so the last check refuses loops as well as reversed pairs
    _expect(len(known) == len(ids) and known.issuperset(u) and known.issuperset(v)
            and len(pairs) == len(u) and pairs.isdisjoint(zip(v, u)))
    sigmas = [item.get("sigma", _UNIT) for item in edges]
    _objects(sigmas, {"re", "im"})
    sigma = list(map(complex, _floats([s.get("re", 0.0) for s in sigmas]),
                     _floats([s.get("im", 0.0) for s in sigmas])))
    modulus = np.array(list(map(abs, sigma)))
    _expect((np.abs(modulus - 1.0) <= SIGMA_PARSE_TOL).all())
    return (ids,
            _floats([item.get("w", 1.0) for item in vertices], lambda x: x > 0),
            _floats([item.get("W", 0.0) for item in vertices]),
            _floats([item.get("q", 1.0) for item in vertices], lambda x: x >= 1),
            u, v,
            _floats([item.get("a", 1.0) for item in edges], lambda x: x > 0),
            list(map(_unit, sigma)))


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
        try:
            obj.encode("utf-8")
        except UnicodeEncodeError:
            raise SchemaError(f"vertex id must be valid Unicode, got {obj!r}", path) from None
        return obj
    if isinstance(obj, int) and not isinstance(obj, bool):
        return str(obj)
    raise SchemaError(f"vertex id must be a string or integer, got {type(obj).__name__}", path)


def _walk(vertices, edges):
    """Raise the first fault of the records, in file order, with its element path."""
    ids = set()
    for i, item in enumerate(vertices):
        path = f"$.vertices[{i}]"
        _require(item, dict, path)
        if "id" not in item:
            raise SchemaError("missing id", path)
        vid = _identifier(item["id"], f"{path}.id")
        if vid in ids:
            raise SchemaError(f"duplicate vertex id {vid!r}", f"{path}.id")
        ids.add(vid)
        for key in item:
            if key not in _VERTEX_KEYS:
                raise SchemaError(f"unknown key {key!r}", path)
        w = _number(item.get("w", 1.0), f"{path}.w")
        _number(item.get("W", 0.0), f"{path}.W")
        q = _number(item.get("q", 1.0), f"{path}.q")
        if not w > 0:
            raise SchemaError(f"w must be positive, got {w}", f"{path}.w")
        if q < 1:
            raise SchemaError(f"q must be >= 1, got {q}", f"{path}.q")

    seen_pairs = set()
    for i, item in enumerate(edges):
        path = f"$.edges[{i}]"
        _require(item, dict, path)
        for key in ("u", "v"):
            if key not in item:
                raise SchemaError(f"missing {key}", path)
        for key in item:
            if key not in _EDGE_KEYS:
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
        if "sigma" in item:
            sig = _require(item["sigma"], dict, f"{path}.sigma")
            for key in sig:
                if key not in ("re", "im"):
                    raise SchemaError(f"unknown key {key!r}", f"{path}.sigma")
            re = _number(sig.get("re", 0.0), f"{path}.sigma.re")
            im = _number(sig.get("im", 0.0), f"{path}.sigma.im")
            modulus = abs(complex(re, im))
            if abs(modulus - 1.0) > SIGMA_PARSE_TOL:
                raise SchemaError(f"sigma must have modulus 1, got {modulus}", f"{path}.sigma")


def parse_graph(text: str) -> GraphFile:
    """Parse and validate a graph file; errors carry element paths."""
    try:
        doc = json.loads(text)
    except (ValueError, RecursionError) as exc:  # bad JSON, Python's int-digit limit, deep nesting
        raise SchemaError(f"invalid JSON: {exc}", "$") from None
    _require(doc, dict, "$")
    for key in doc:
        if key not in ("vertices", "edges"):
            raise SchemaError(f"unknown key {key!r}", "$")
    vertices = _require(doc.get("vertices", []), list, "$.vertices")
    edges = _require(doc.get("edges", []), list, "$.edges")
    if not vertices:
        raise SchemaError("at least one vertex is required", "$.vertices")
    try:
        return GraphFile(*_columns(vertices, edges))
    except _Refused:
        pass
    _walk(vertices, edges)
    raise AssertionError("the column checks refused a graph file the record walk accepts")


def serialize_graph(gf: GraphFile) -> str:
    """Canonical JSON text for a graph file."""
    vertices = sorted(({"id": x, "w": w, "W": W, "q": q}
                       for x, w, W, q in zip(gf.ids, gf.w, gf.W, gf.q)),
                      key=lambda r: r["id"])
    edges = []
    for u, v, a, sigma in zip(gf.u, gf.v, gf.a, gf.sigma):
        if v < u:
            u, v, sigma = v, u, sigma.conjugate()
        edges.append({"u": u, "v": v, "a": a,
                      "sigma": {"re": sigma.real, "im": sigma.imag}})
    edges.sort(key=lambda e: (e["u"], e["v"]))
    return json.dumps({"vertices": vertices, "edges": edges},
                      indent=2, sort_keys=True) + "\n"


def load_graph(path) -> ExplicitGraph:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
    except (OSError, UnicodeDecodeError) as exc:
        reason = exc.strerror if isinstance(exc, OSError) and exc.strerror else exc
        raise InputError(f"cannot read graph file {str(path)!r}: {reason}") from None
    return parse_graph(text).to_graph()
