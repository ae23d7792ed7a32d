"""Built-in graph families, finite and infinite, driven by weight expressions.

A family spec names a shape (``path-nat``, ``path``, ``cycle``, ``star``,
``binary-tree``) and supplies expressions in the vertex index ``n`` for the
vertex weight ``w``, the edge weight ``a``, the potential ``W`` and the
minorant ``q``.  Finite shapes are materialized as explicit graphs; the
half-line ``path-nat`` stays lazy and is only ever explored through finite
windows and searches.

Edge weights are indexed by the smaller endpoint of an edge, so on a path
``a(n)`` is the weight of the edge between ``n`` and ``n + 1``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Optional

import numpy as np

from .errors import ExprEvalError, InputError, UnknownVertexError
from .exprlang import compile_text
from .graphs import EdgeData, ExplicitGraph, OrientedEdge, VertexData, WeightedGraph, Window

#: the records of 1..``_HEAD_SIZE`` that a ray keeps as tuples
_HEAD_SIZE = 1024

#: ids from here on are read from the oracle, since n + 1 must fit in int64
_ID_LIMIT = 2 ** 62


@dataclass(frozen=True)
class FamilySpec:
    family: str
    size: Optional[int] = None
    w: str = "1"
    a: str = "1"
    W: str = "0"
    q: str = "1"


class PathRayGraph(WeightedGraph):
    """Lazy half-line graph on the positive integers with edges n ~ n + 1.

    The records of 1..``_HEAD_SIZE`` are evaluated once, as read-only
    arrays (w, W, q and a(n) for the edge n ~ n + 1) and as tuples, which
    small searches read as fast as a dict.  Records that a search
    (:meth:`_records`) or a closure window (:meth:`_at`) reads are taken
    from those arrays where they lie inside them; any others are evaluated
    and nothing is kept, as ``vertex``, ``neighbors`` and ``edge_data`` do
    past the prefix.  So no attribute changes after construction.  An n
    where an expression raises or a record is invalid has no window over
    it, so its error is raised only when something reads it.
    """

    degree_bound = 2
    is_finite = False
    #: the metric along the unique ray reduces to a one-dimensional series,
    #: which completeness diagnostics can classify exactly
    is_metric_ray = True

    def __init__(self, spec: FamilySpec):
        super().__init__()
        self.spec = spec
        self._w = compile_text(spec.w)
        self._a = compile_text(spec.a)
        self._W = compile_text(spec.W)
        self._q = compile_text(spec.q)
        self._sample_check()
        self._head = ()  # so that _records evaluates the prefix
        self._prefix = self._records(1, _HEAD_SIZE)  # the records of 1..len(_head)
        for values in self._prefix:
            values.flags.writeable = False  # windows share them
        w, W, q, a = (values.tolist() for values in self._prefix)
        self._head = [VertexData(*rec) for rec in zip(w, W, q)]
        self._head_neighbors = [_star(x, a[x - 2] if x > 1 else None, a[x - 1])
                                for x in range(1, len(w) + 1)]

    def _sample_check(self):
        samples = list(range(1, 33)) + [1 << k for k in range(6, 21)]
        for n in samples:  # raise the error of the first failing sample
            _require_bounds(self.spec.family, n, w=self._w(n), q=self._q(n), a=self._a(n))

    def _records(self, lo, hi, top=False):
        """w, W, q and a over lo..hi, cut before the first n where an expression
        raises or a record is invalid, or with ``top`` after the last such n:
        sliced from the prefix where lo..hi lies in it, evaluated past it.
        hi < 2**63 - 1, past which ``np.arange`` makes floats."""
        head = len(self._head)
        if hi <= head:
            return [values[lo - 1:hi] for values in self._prefix]
        if lo <= head:
            rest = self._records(head + 1, hi, top)
            if top and len(rest[0]) < hi - head:
                return rest
            return [np.concatenate(parts) for parts in zip(self._records(lo, head), rest)]
        ns = np.arange(lo, hi + 1)[::-1 if top else 1]  # in the order the cut is looked for
        while True:
            try:
                block = [f(ns) for f in (self._w, self._W, self._q, self._a)]
                break
            except ExprEvalError as exc:  # raised at the first failing n of ns
                ns = ns[:abs(exc.n - int(ns[0]))]
        w, _, q, a = block
        bad = np.flatnonzero(~((w > 0) & (q >= 1) & (a > 0)))
        if len(bad):
            block = [values[:bad[0]] for values in block]
        return [values[::-1] for values in block] if top else block

    def has_vertex(self, x) -> bool:
        return isinstance(x, int) and not isinstance(x, bool) and x >= 1

    def vertex(self, x) -> VertexData:
        if type(x) is int and 0 < x <= len(self._head):
            return self._head[x - 1]
        if not self.has_vertex(x):
            raise UnknownVertexError(x)
        w, q = self._w(x), self._q(x)
        _require_bounds(self.spec.family, x, w=w, q=q)
        return VertexData(w, self._W(x), q)

    def _edge_weight(self, lo: int) -> float:
        if lo <= len(self._head):  # a star's last entry is its edge to lo + 1
            return self._head_neighbors[lo - 1][-1][1].weight
        a = self._a(lo)
        _require_bounds(self.spec.family, lo, a=a)
        return a

    def neighbors(self, x):
        if type(x) is int and 0 < x <= len(self._head):
            return self._head_neighbors[x - 1]
        if not self.has_vertex(x):
            raise UnknownVertexError(x)
        return _star(x, self._edge_weight(x - 1) if x > 1 else None, self._edge_weight(x))

    def edge_data(self, e) -> EdgeData:
        o, t = e
        if not (self.has_vertex(o) and self.has_vertex(t) and abs(o - t) == 1):
            raise InputError(f"no edge {o!r} -> {t!r}")
        return EdgeData(self._edge_weight(min(o, t)), 1.0)

    def closure_window(self, vertices, extra=()):
        """The closure of ``vertices`` with ``extra``: those ids and the ids
        next to ``vertices``, cut from their records (:meth:`_at`) with int64
        rows and float phases as the neighbor oracle's read holds them.  A
        set with an id that is not an int of the ray, or a closure that meets
        an invalid record, is read from the oracle, which raises its errors."""
        inner, more = _ray_ids(vertices), _ray_ids(extra)
        if inner is not None and more is not None:
            ids = np.sort(np.concatenate([inner - 1, inner, inner + 1, more]))
            ids = ids[np.concatenate([ids[:1] > 0, ids[1:] != ids[:-1]])]  # once each, no 0
            records = self._at(ids)
            if records is not None:
                return self._closure(ids, *records)
        return super().closure_window(vertices, extra)

    def _at(self, ns):
        """w, W, q and a at the sorted ids ``ns``: taken from the prefix,
        evaluated past it; None when an expression raises or a record is
        invalid at an n of ``ns``, or the weight a(n - 1) of its edge below."""
        k = int(np.searchsorted(ns, len(self._head), "right"))
        records = [values[ns[:k] - 1] for values in self._prefix]
        if k == len(ns):
            return records
        rest = ns[k:]
        # the oracle reads a(n - 1) with n's neighbors: below each run of rest too
        below = rest[np.diff(rest, prepend=-1) != 1] - 1
        below = below[below > len(self._head)]
        try:
            w, W, q = (f(rest) for f in (self._w, self._W, self._q))
            a = self._a(np.concatenate([below, rest]))
        except ExprEvalError:
            return None
        if not ((w > 0).all() and (q >= 1).all() and (a > 0).all()):
            return None
        return [np.concatenate(parts) for parts in zip(records, (w, W, q, a[len(below):]))]

    @staticmethod
    def _closure(ids, w, W, q, a):
        """The window over the sorted ids with their records: row i lists the
        rows of ids[i] - 1 and ids[i] + 1 where the window holds them."""
        m = len(ids)
        near = np.zeros((m, 2), dtype=bool)  # whether ids[i] - 1, ids[i] + 1 are rows
        near[1:, 0] = near[:-1, 1] = ids[1:] - ids[:-1] == 1
        rows = np.empty((m, 2), dtype=np.int64)  # the rows of ids[i] - 1, ids[i] + 1
        rows[:, 0] = np.arange(-1, m - 1)
        rows[:, 1] = rows[:, 0] + 2
        weights = np.empty((m, 2))  # a(ids[i] - 1), a(ids[i])
        weights[1:, 0], weights[:, 1] = a[:-1], a
        indptr = np.zeros(m + 1, dtype=np.int64)
        indptr[1:] = near.cumsum()[1::2]
        return Window(ids=ids, indptr=indptr, indices=rows[near], w=w, W=W, q=q,
                      a=weights[near], sigma=np.ones(int(indptr[-1])),
                      interior=(near[:, 0] | (ids == 1)) & near[:, 1])


def _ray_ids(xs):
    """``xs`` as an int64 array, or None unless each is an int of 1.._ID_LIMIT - 1."""
    if not set(map(type, xs)) <= {int}:
        return None
    try:
        ns = np.fromiter(xs, np.int64)
    except OverflowError:
        return None
    return ns if np.all((ns >= 1) & (ns < _ID_LIMIT)) else None


def _star(x, below, above):
    """The neighbor list of ray vertex ``x`` from the weights of its two edges."""
    out = [(OrientedEdge(x, x - 1), EdgeData(below, 1.0))] if x > 1 else []
    out.append((OrientedEdge(x, x + 1), EdgeData(above, 1.0)))
    return out


def _require_bounds(family, n, **values):
    """Raise at the first of ``values``, w(n), q(n) or a(n) in the order
    given, that is out of bounds: w and a must be positive, q not below 1."""
    for name, value in values.items():
        if value < 1 if name == "q" else not value > 0:
            rule = "is below 1" if name == "q" else "is not positive"
            raise InputError(f"family {family!r}: {name}({n}) = {value} {rule}")


def _finite_family(spec: FamilySpec) -> ExplicitGraph:
    size = spec.size
    if size is None:
        raise InputError(f"family {spec.family!r} requires a size")
    minimum = {"path": 2, "cycle": 3, "star": 2, "binary-tree": 2}[spec.family]
    if size < minimum:
        raise InputError(f"family {spec.family!r} requires size >= {minimum}")

    w = compile_text(spec.w)
    a = compile_text(spec.a)
    W = compile_text(spec.W)
    q = compile_text(spec.q)

    if spec.family == "path":
        pairs = [(n, n + 1) for n in range(1, size)]
    elif spec.family == "cycle":
        pairs = [(n, n + 1) for n in range(1, size)] + [(1, size)]
    elif spec.family == "star":
        pairs = [(1, leaf) for leaf in range(2, size + 1)]
    else:  # binary-tree, heap-shaped ids
        pairs = [(k, child) for k in range(1, size + 1)
                 for child in (2 * k, 2 * k + 1) if child <= size]

    ns = np.arange(1, size + 1)
    try:
        wv, Wv, qv = w(ns), W(ns), q(ns)
        av = a(np.array([min(u, v) for u, v in pairs]))
        clean = np.all(wv > 0) and np.all(qv >= 1) and np.all(av > 0)
    except ExprEvalError:
        clean = False
    if not clean:  # raise the error of the first failing vertex or edge
        for n in range(1, size + 1):
            _require_bounds(spec.family, n, w=w(n), q=q(n))
            W(n)
        for n in (min(u, v) for u, v in pairs):
            _require_bounds(spec.family, n, a=a(n))
    return ExplicitGraph.from_columns(list(range(1, size + 1)), wv, Wv, qv,
                                      [u for u, _ in pairs], [v for _, v in pairs], av,
                                      np.ones(len(pairs)))


def make_family(spec) -> WeightedGraph:
    """Build a graph from a family spec (or an equivalent mapping)."""
    if isinstance(spec, Mapping):
        spec = FamilySpec(**spec)
    if spec.family == "path-nat":
        return PathRayGraph(spec)
    if spec.family in ("path", "cycle", "star", "binary-tree"):
        return _finite_family(spec)
    raise InputError(f"unknown family {spec.family!r}")


def quadratic_well_ray() -> PathRayGraph:
    """Half-line with unit weights, W(n) = -n^2 and minorant q(n) = n^2.

    The minorant-weighted metric accumulates edge lengths 1/(n + 1), a
    divergent series, so the space is metrically complete even though the
    potential makes the operator unbounded below.  This is the package's
    built-in reference scenario.
    """
    return PathRayGraph(FamilySpec("path-nat", w="1", a="1", W="-(n^2)", q="n^2"))
