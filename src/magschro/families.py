"""Built-in graph families, finite and infinite, driven by weight expressions.

A family spec names a shape (``path-nat``, ``path``, ``cycle``, ``star``,
``binary-tree``) and supplies expressions in the vertex index ``n`` for the
vertex weight ``w``, the edge weight ``a``, the potential ``W`` and the
minorant ``q``.  Finite shapes are materialized as explicit graphs; the
half-line ``path-nat`` stays lazy and is only ever explored through metric
or hop windows.

Edge weights are indexed by the smaller endpoint of an edge, so on a path
``a(n)`` is the weight of the edge between ``n`` and ``n + 1``.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Mapping, Optional

import numpy as np

from .errors import ExprEvalError, GraphStructureError, InputError, UnknownVertexError
from .exprlang import compile_text
from .graphs import EdgeData, ExplicitGraph, OrientedEdge, VertexData, WeightedGraph, Window

#: the records of 1..``_HEAD_SIZE`` that a ray keeps as tuples
_HEAD_SIZE = 1024


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

    Hop windows, and the closure windows of runs of vertices, are sliced
    from one block of arrays over lo..hi (w, W, q and a(n) for the edge
    n ~ n + 1).  A window that overlaps or touches the block extends it,
    evaluating only the new flanks; any other window replaces it.  The records of 1..``_HEAD_SIZE`` are also kept as tuples,
    which small searches read as fast as a dict; past them ``vertex``,
    ``neighbors`` and ``edge_data`` evaluate the expressions and keep
    nothing.  An n where an expression raises or a record is invalid has no
    window over it, so its error is raised only when something reads it.
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
        self._lo = 1  # the block holds the records of _lo.._lo + len - 1
        self._block = self._records(1, _HEAD_SIZE)
        w, W, q, a = (values.tolist() for values in self._block)
        self._head = [VertexData(*rec) for rec in zip(w, W, q)]
        self._head_neighbors = [_star(x, a[x - 2] if x > 1 else None, a[x - 1])
                                for x in range(1, len(w) + 1)]

    def _sample_check(self):
        samples = list(range(1, 33)) + [1 << k for k in range(6, 21)]
        ns = np.array(samples)
        try:
            w, q, a = self._w(ns), self._q(ns), self._a(ns)
            if np.all(w > 0) and np.all(q >= 1) and np.all(a > 0):
                return
        except ExprEvalError:
            pass
        for n in samples:  # raise the error of the first failing sample
            w, q, a = self._w(n), self._q(n), self._a(n)
            if not w > 0:
                raise InputError(f"family {self.spec.family!r}: w({n}) = {w} is not positive")
            if q < 1:
                raise InputError(f"family {self.spec.family!r}: q({n}) = {q} is below 1")
            if not a > 0:
                raise InputError(f"family {self.spec.family!r}: a({n}) = {a} is not positive")

    def _records(self, lo, hi):
        """w, W, q and a over lo..hi, cut before the first n where an
        expression raises or a record is invalid."""
        ns = np.arange(lo, hi + 1)
        while True:
            try:
                block = [f(ns) for f in (self._w, self._W, self._q, self._a)]
                break
            except ExprEvalError as exc:
                ns = ns[:exc.n - lo]
        w, _, q, a = block
        bad = np.flatnonzero(~((w > 0) & (q >= 1) & (a > 0)))
        return [values[:bad[0]] for values in block] if len(bad) else block

    def has_vertex(self, x) -> bool:
        return isinstance(x, int) and not isinstance(x, bool) and x >= 1

    def vertex(self, x) -> VertexData:
        if type(x) is int and 0 < x <= len(self._head):
            return self._head[x - 1]
        if not self.has_vertex(x):
            raise UnknownVertexError(x)
        w, q = self._w(x), self._q(x)
        if not w > 0:
            raise GraphStructureError(f"w({x}) = {w} is not positive")
        if q < 1:
            raise GraphStructureError(f"q({x}) = {q} is below 1")
        return VertexData(w, self._W(x), q)

    def _edge_weight(self, lo: int) -> float:
        if lo <= len(self._head):  # a star's last entry is its edge to lo + 1
            return self._head_neighbors[lo - 1][-1][1].weight
        a = self._a(lo)
        if not a > 0:
            raise GraphStructureError(f"a({lo}) = {a} is not positive")
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

    def hop_window(self, x0, hops):
        """The vertices within ``hops`` of ``x0`` as a :class:`Window` sliced
        from the block, or None when an n in that range is invalid or
        ``x0 + hops`` reaches the largest int64."""
        return self._cut(max(1, x0 - hops), x0 + hops)

    def closure_window(self, vertices, extra=()):
        """The closure of a run lo..hi of vertices, lo - 1..hi + 1, cut from the
        block when ``extra`` lies in it, with int64 rows and float phases as
        the neighbor oracle's read holds them; other sets are read from the
        oracle, which also raises the errors of invalid records."""
        run = set(vertices)
        if run and all(type(x) is int for x in run):
            lo, hi = min(run), max(run)
            span = range(max(1, lo - 1), hi + 2)
            if (lo >= 1 and hi - lo + 1 == len(run)
                    and all(type(x) is int and x in span for x in extra)):
                win = self._cut(span.start, span.stop - 1)
                if win is not None:
                    return replace(win, indptr=win.indptr.astype(np.int64),
                                   indices=win.indices.astype(np.int64),
                                   sigma=np.ones(len(win.a)))
        return super().closure_window(vertices, extra)

    def _cut(self, lo, hi):
        """The window over lo..hi, or None (see :meth:`hop_window`)."""
        if hi >= np.iinfo(np.int64).max:  # np.arange(lo, hi + 1) would turn to floats
            return None
        start, block = self._lo, self._block
        stop = start + len(block[0])  # the block holds start..stop - 1
        if lo > stop or hi < start - 1:  # disjoint: replace the block
            start, stop, block = lo, lo, [np.empty(0)] * 4
        pieces = [block]
        if lo < start:
            pieces.insert(0, self._records(lo, start - 1))
        if hi >= stop:
            pieces.append(self._records(stop, hi))
        if len(pieces) > 1:
            block = [np.concatenate(column) for column in zip(*pieces)]
            if len(block[0]) < max(hi + 1, stop) - min(lo, start):
                return None  # an n in lo..hi is invalid
            self._lo, self._block = min(lo, start), block
        w, W, q, a = (values[lo - self._lo:hi - self._lo + 1] for values in self._block)
        m = hi - lo + 1
        # row i holds i - 1 (if i > 0) and i + 1 (if i < m - 1), so each edge
        # weight a(lo + i) appears twice in a row, as i -> i + 1 then i + 1 -> i
        indptr = np.arange(-1, 2 * m, 2, dtype=np.int32)
        indptr[0], indptr[-1] = 0, 2 * m - 2
        indices = np.empty(2 * m, dtype=np.int32)
        indices[0::2] = np.arange(-1, m - 1, dtype=np.int32)
        indices[1::2] = np.arange(1, m + 1, dtype=np.int32)
        interior = np.ones(m, dtype=bool)
        interior[-1] = False
        interior[0] = lo == 1
        return Window(ids=np.arange(lo, hi + 1), indptr=indptr, indices=indices[1:-1],
                      w=w, W=W, q=q, a=np.repeat(a[:m - 1], 2),
                      sigma=np.broadcast_to(1.0 + 0j, (2 * m - 2,)), interior=interior)


def _star(x, below, above):
    """The neighbor list of ray vertex ``x`` from the weights of its two edges."""
    out = [(OrientedEdge(x, x - 1), EdgeData(below, 1.0))] if x > 1 else []
    out.append((OrientedEdge(x, x + 1), EdgeData(above, 1.0)))
    return out


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
            wn, qn = w(n), q(n)
            if not wn > 0:
                raise InputError(f"family {spec.family!r}: w({n}) = {wn} is not positive")
            if qn < 1:
                raise InputError(f"family {spec.family!r}: q({n}) = {qn} is below 1")
            W(n)
        for (u, v) in pairs:
            an = a(min(u, v))
            if not an > 0:
                raise InputError(f"family {spec.family!r}: a({min(u, v)}) = {an} is not positive")
    vertices = {n: VertexData(*rec)
                for n, rec in enumerate(zip(wv.tolist(), Wv.tolist(), qv.tolist()), start=1)}
    edges = {pair: EdgeData(an, 1.0) for pair, an in zip(pairs, av.tolist())}
    return ExplicitGraph(vertices, edges)


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
