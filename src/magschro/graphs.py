"""Weighted-graph data model.

A graph couples three layers of data:

* each vertex carries a positive weight ``w``, a real potential ``W`` and a
  minorant ``q >= 1`` that bounds the potential from below;
* each unoriented edge is represented by the two oriented edges ``[x, y]``
  and ``[y, x]``; the positive edge weight ``a`` is shared by both
  orientations and the unit-modulus phase conjugates under reversal;
* a canonical orientation picks one representative per unoriented edge so
  that sums over edges have a well-defined index set.  The default rule is
  id order (``[x, y]`` is canonical iff ``x < y``); individual edges can be
  re-oriented with :meth:`WeightedGraph.with_flipped_orientation`, and all
  edge sums in this package are invariant under such re-choices.

Graphs are immutable after construction.  The neighbor oracle is a pure
function of the vertex id, so lazily generated infinite families and
explicit finite graphs share one read-only interface that is safe for
concurrent use.
"""

from __future__ import annotations

import cmath
import copy
import math
from bisect import bisect_left
from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain, compress, repeat
from operator import itemgetter
from typing import Mapping, NamedTuple, Union

import numpy as np

from .errors import GraphStructureError, InputError, UnknownVertexError

VertexId = Union[int, str]

#: absolute tolerance for the unit-modulus and conjugacy checks on phases
PHASE_TOL = 1e-12


class OrientedEdge(NamedTuple):
    origin: VertexId
    terminus: VertexId

    def reverse(self) -> "OrientedEdge":
        return OrientedEdge(self.terminus, self.origin)


class EdgeData(NamedTuple):
    weight: float  # a(e) > 0, shared with the reversed edge
    phase: complex  # sigma(e), |sigma| = 1; the reversed edge carries the conjugate


class VertexData(NamedTuple):
    weight: float  # w(x) > 0
    potential: float  # W(x)
    minorant: float  # q(x) >= 1


def vertex_sort_key(x: VertexId):
    """Total order on vertex ids; integers sort before strings."""
    return (isinstance(x, str), x)


def sorted_ids(ids) -> list:
    """The collection ``ids`` sorted by :func:`vertex_sort_key`, which plain
    comparison gives unless ints and strings mix; then ``ids`` is read twice."""
    try:
        return sorted(ids)
    except TypeError:
        return sorted(ids, key=vertex_sort_key)


_first, _second = itemgetter(0), itemgetter(1)


def as_edge(e) -> OrientedEdge:
    if isinstance(e, OrientedEdge):
        return e
    o, t = e
    return OrientedEdge(o, t)


def normalize_edge(e) -> OrientedEdge:
    """The id-ordered representative of the unoriented edge under ``e``.

    This normalization is independent of any canonical-orientation choice
    made on a particular graph; it is used as a stable storage key.
    """
    e = as_edge(e)
    if vertex_sort_key(e.origin) <= vertex_sort_key(e.terminus):
        return e
    return e.reverse()


def edge_sort_key(e):
    """Total order on normalized edges: by origin, then by terminus."""
    return (vertex_sort_key(e[0]), vertex_sort_key(e[1]))


class Violation(NamedTuple):
    kind: str
    location: object  # vertex id or oriented edge
    measured: float


@dataclass
class ValidationReport:
    window: tuple
    violations: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations

    def add(self, kind, location, measured=0.0):
        self.violations.append(Violation(kind, location, float(measured)))


class WeightedGraph:
    """Read-only interface shared by explicit and lazily generated graphs."""

    #: declared degree bound, or None when unknown
    degree_bound = None
    is_finite = False

    def __init__(self):
        self._flipped = frozenset()

    @property
    def mode(self) -> str:
        return "explicit-finite" if self.is_finite else "lazy-generated"

    # -- abstract surface ---------------------------------------------------

    def has_vertex(self, x) -> bool:
        raise NotImplementedError

    def vertex(self, x) -> VertexData:
        raise NotImplementedError

    def neighbors(self, x):
        """All oriented edges leaving ``x`` with their data, sorted by terminus."""
        raise NotImplementedError

    def vertices(self):
        raise InputError("cannot enumerate the vertices of an infinite graph")

    # -- derived operations -------------------------------------------------

    def edge_data(self, e) -> EdgeData:
        e = as_edge(e)
        for nb, data in self.neighbors(e.origin):
            if nb.terminus == e.terminus:
                return data
        raise InputError(f"no edge {e.origin!r} -> {e.terminus!r}")

    def has_edge(self, e) -> bool:
        e = as_edge(e)
        if not self.has_vertex(e.origin):
            return False
        return any(nb.terminus == e.terminus for nb, _ in self.neighbors(e.origin))

    def degree(self, x) -> int:
        return len(self.neighbors(x))

    def is_canonical(self, e) -> bool:
        e = as_edge(e)
        norm = normalize_edge(e)
        return (e == norm) != (norm in self._flipped)

    def canonical(self, e) -> OrientedEdge:
        """The canonical representative of the unoriented edge under ``e``."""
        e = as_edge(e)
        return e if self.is_canonical(e) else e.reverse()

    def with_flipped_orientation(self, edges) -> "WeightedGraph":
        """A view of this graph with the canonical orientation of ``edges`` reversed.

        Flipping twice restores the original choice.  The underlying data is
        shared; only the orientation rule changes.
        """
        flips = frozenset(normalize_edge(e) for e in edges)
        clone = copy.copy(self)
        clone._flipped = self._flipped ^ flips
        return clone

    def star_edges(self, x):
        """Canonical edges meeting ``x``, sorted by their normalized key."""
        if not self.has_vertex(x):
            raise UnknownVertexError(x)
        stars = [self.canonical(e) for e, _ in self.neighbors(x)]
        return sorted(stars, key=lambda e: edge_sort_key(normalize_edge(e)))

    def edges(self):
        """All normalized edges of a finite graph, sorted: the entries that lead to
        a later vertex, read in vertex order from neighbor lists sorted by terminus."""
        vertices = self.vertices()
        rank = dict(zip(vertices, range(len(vertices))))
        return [e for x, r in rank.items() for e, _ in self.neighbors(x) if rank[e.terminus] > r]

    def whole_window(self):
        """The whole graph as one :class:`Window` for a search to run on, or
        None (an infinite graph has none): searches then stay on the oracle."""
        return None

    def closure_window(self, vertices, extra=()) -> "Window":
        """The one-hop closure of ``vertices``, with the vertices ``extra``, as a
        :class:`Window`, read from the neighbor oracle one list per vertex.

        Every vertex of ``vertices`` is interior to it, which is all that a
        calculus operator on functions supported there, a scan of the
        criteria over them or their truncation needs.  A graph that holds
        arrays cuts the window from them instead, with the same fields: the
        lazy ray from its records, an explicit graph from its CSR arrays.
        """
        lists = {x: self.neighbors(x) for x in vertices}
        found = set(extra).union(lists)
        found.update(map(_second, map(_first, chain.from_iterable(lists.values()))))
        ids = sorted_ids(found)
        records = list(map(self.vertex, ids))
        nbrs = [lists[x] if x in lists else self.neighbors(x) for x in ids]
        degrees = np.fromiter(map(len, nbrs), np.int64, len(ids))
        # every neighbor-list entry in row order, with the row of its terminus or -1
        entries = list(chain.from_iterable(nbrs))
        row = dict(zip(ids, range(len(ids))))
        at = np.fromiter(map(row.get, map(_second, map(_first, entries)), repeat(-1)),
                         np.int64, len(entries))
        keep = at >= 0
        # numpy infers the dtypes of a and sigma from the entries kept alone
        data = list(map(_second, compress(entries, keep.tolist())))
        kept = np.bincount(np.repeat(np.arange(len(ids)), degrees)[keep], minlength=len(ids))
        w, W, q = (np.array(column) for column in zip(*records)) if records else [np.empty(0)] * 3
        return Window(ids=_id_array(ids), indptr=np.concatenate([[0], np.cumsum(kept)]),
                      indices=at[keep], w=w, W=W, q=q, a=np.array(list(map(_first, data))),
                      sigma=np.array(list(map(_second, data))), interior=kept == degrees)


def _id_array(ids) -> np.ndarray:
    """int64 ids when every id is an int that fits; an object array keeps str
    ids as they are, where np.array would turn mixed ids into strings."""
    if all(type(x) is int for x in ids):
        try:
            return np.fromiter(ids, np.int64, len(ids))
        except OverflowError:
            pass
    out = np.empty(len(ids), dtype=object)
    out[:] = ids
    return out


@dataclass(frozen=True)
class Window:
    """A finite vertex set of a graph as arrays, for vectorized passes.

    Vertices are numbered 0..m-1 in id order (:func:`vertex_sort_key`);
    ``ids`` is an int64 array when every id is an int, else an object array
    that holds str and mixed ids as they are.  Row i of the CSR adjacency
    (``indptr``, ``indices``) lists the neighbors of vertex i in the window,
    in id order, and ``a`` and ``sigma`` hold those oriented edges' data.
    A vertex is interior when all of its neighbors lie in the window, and
    ``row_by_id`` maps each id to its row.  The data arrays hold the graph's
    numbers as numpy infers them, over the records read or over an array
    graph's columns: float64 or complex128 for floats, objects for exact
    scalars such as ``Fraction`` and ``ComplexRational``.  The arrays and
    the dict may be the graph's own, the arrays as read-only views.
    """

    ids: np.ndarray
    indptr: np.ndarray
    indices: np.ndarray
    w: np.ndarray
    W: np.ndarray
    q: np.ndarray
    a: np.ndarray  # per CSR entry
    sigma: np.ndarray  # per CSR entry
    interior: np.ndarray  # bool per vertex

    def rows(self) -> np.ndarray:
        """The row (origin vertex) of every CSR entry."""
        return np.repeat(np.arange(len(self.ids), dtype=self.indices.dtype), np.diff(self.indptr))

    def holds(self, vertices) -> np.ndarray:
        """Whether each row's vertex is one of ``vertices``, a set or a dict."""
        return np.fromiter(map(vertices.__contains__, self.ids.tolist()), bool, len(self.ids))

    def row_of(self, x):
        """The row of the id that equals ``x`` as a key of ``row_by_id``, as the
        frontier compares vertices, or None: ``5``, ``np.int64(5)``, ``5.0`` and
        ``Fraction(5)`` find id 5 and ``True`` finds id 1; an unhashable ``x``,
        such as ``np.array(5)`` or ``[1]``, finds none."""
        try:
            return self.row_by_id.get(x)
        except TypeError:  # unhashable, so equal to no id
            return None

    @cached_property
    def row_by_id(self) -> dict:
        """The row of each id, keyed by ``ids.tolist()``; built on first read."""
        return dict(zip(self.ids.tolist(), range(len(self.ids))))


def int_id(x):
    """The int that equals ``x`` as the frontier compares vertices, or None."""
    try:
        n = int(x.real)  # ints, floats, numpy scalars, fractions
    except (AttributeError, TypeError, ValueError, OverflowError):
        return None
    return n if n == x else None


def _finite_edge(data) -> bool:
    return math.isfinite(data.weight) and cmath.isfinite(data.phase)


def validate(g: WeightedGraph, window) -> ValidationReport:
    """Re-check every per-vertex and per-edge invariant over a finite window.

    The report lists each violated invariant with its location and the
    measured value; an unknown vertex in the window is a caller error and
    raises instead.
    """
    window = list(window)
    if not window:
        raise InputError("validation window must be nonempty")
    for x in window:
        if not g.has_vertex(x):
            raise UnknownVertexError(x)
    report = ValidationReport(window=tuple(window))
    for x in sorted_ids(window):
        rec = g.vertex(x)
        bad = [v for v in rec if not math.isfinite(v)]
        if bad:  # NaN fails every comparison, so none is made
            report.add("non-finite-vertex-data", x, bad[0])
        else:
            if not rec.weight > 0:
                report.add("nonpositive-vertex-weight", x, rec.weight)
            if not rec.minorant >= 1:
                report.add("minorant-below-one", x, rec.minorant)
        nbrs = g.neighbors(x)
        if g.degree_bound is not None and len(nbrs) > g.degree_bound:
            report.add("degree-bound-exceeded", x, len(nbrs))
        seen_targets = set()
        for e, data in nbrs:
            if e.terminus == x:
                report.add("loop", e, 1.0)
                continue
            if e.terminus in seen_targets:
                report.add("multi-edge", e, 1.0)
            seen_targets.add(e.terminus)
            if not _finite_edge(data):
                report.add("non-finite-edge-data", e,
                           abs(data.phase) if math.isfinite(data.weight) else data.weight)
                continue
            if not data.weight > 0:
                report.add("nonpositive-edge-weight", e, data.weight)
            mod = abs(data.phase)
            if abs(mod - 1.0) > PHASE_TOL:
                report.add("non-unit-phase", e, mod)
            try:
                back = g.edge_data(e.reverse())
            except InputError:
                report.add("missing-reverse-edge", e, 0.0)
                continue
            if not _finite_edge(back):  # reported at its own origin
                continue
            if back.weight != data.weight:
                report.add("edge-weight-asymmetry", e, abs(back.weight - data.weight))
            if abs(back.phase - data.phase.conjugate()) > PHASE_TOL:
                report.add("phase-conjugacy", e, abs(back.phase - data.phase.conjugate()))
    return report


class ExplicitGraph(WeightedGraph):
    """Finite graph with explicitly stored vertex and edge data, held as arrays.

    ``vertices`` maps each id to ``(w, W, q)``.  ``edges`` maps an oriented
    pair ``(u, v)`` to ``(a, sigma)``, or is an iterable of such items; when
    only one orientation of an edge is given, the reverse is derived (same
    weight, conjugate phase).  Both orientations may be supplied explicitly,
    which permits building broken graphs for :func:`validate` to report on
    when ``check=False``.  :meth:`from_columns` builds the same graph from
    columns.

    The vertices are numbered 0..m-1 in id order (:func:`vertex_sort_key`),
    and these rows hold w, W and q.  The edges form a CSR adjacency
    (``indptr``, ``indices``, with a and sigma per entry) whose rows are
    sorted by column, that is by terminus.  Each column holds the given
    numbers as numpy infers one dtype for it over the whole graph: float64
    or complex128 for floats, objects for exact scalars such as
    ``Fraction``.  The first ``vertex`` read builds every vertex record,
    ``neighbors`` builds the records of a row on its first read and keeps
    them, edge lookups binary-search the row, and windows are sliced from the
    arrays but for the whole graph's, built once, which shares them and the
    id -> row dict.
    """

    is_finite = True

    def __init__(self, vertices: Mapping, edges, *, degree_bound=None, check=True):
        super().__init__()
        w, W, q = [], [], []
        for wx, Wx, qx in vertices.values():
            w.append(wx)
            W.append(Wx)
            q.append(qx)
        origins, termini, a, sigma = [], [], [], []
        for (o, t), (ae, se) in edges.items() if isinstance(edges, Mapping) else edges:
            origins.append(o)
            termini.append(t)
            a.append(ae)
            sigma.append(se)
        self._build(list(vertices), w, W, q, origins, termini, a, sigma, degree_bound, check)

    @classmethod
    def from_columns(cls, ids, w, W, q, origins, termini, a, sigma, *, degree_bound=None,
                     check=True, blocks=None) -> "ExplicitGraph":
        """The graph on the vertices ``ids`` with the oriented edges
        ``origins[k] -> termini[k]``, as the constructor builds it.

        ``ids``, ``origins`` and ``termini`` are sequences of ids; w, W and q
        run along ``ids`` and a and sigma along the edges, as sequences or
        arrays.  ``blocks`` makes the graph a disjoint union: the numbers of
        vertices of its parts, whose ids run one part after another in
        ``ids``.  Each part must then be connected, and no edge may join two.
        """
        g = cls.__new__(cls)
        WeightedGraph.__init__(g)
        g._build(ids, w, W, q, origins, termini, a, sigma, degree_bound, check, blocks)
        return g

    def _build(self, ids, w, W, q, origins, termini, a, sigma, degree_bound, check,
               blocks=None):
        m, k = len(ids), len(origins)
        try:
            order = sorted(range(m), key=ids.__getitem__)
        except TypeError:  # ints and strings mixed
            order = sorted(range(m), key=lambda i: vertex_sort_key(ids[i]))
        self._ids = [ids[i] for i in order]
        self._row = row = dict(zip(self._ids, range(m)))
        if len(row) < m:
            seen = set()
            raise GraphStructureError(
                f"duplicate vertex {next(x for x in ids if x in seen or seen.add(x))!r}")
        # the rows of the ends; ids that are no vertex get codes m, m + 1, ...
        ends = list(map(row.get, chain(origins, termini)))
        unknown = {}
        if None in ends:
            ends = [m + unknown.setdefault(x, len(unknown)) if r is None else r
                    for r, x in zip(ends, chain(origins, termini))]
        ends = np.array(ends, dtype=np.int64)
        src, dst = ends[:k], ends[k:]
        codes = src * (m + len(unknown)) + dst
        given = codes.argsort(kind="stable")
        keys = codes[given]
        repeated = (keys[1:] == keys[:-1]).nonzero()[0]
        if len(repeated):
            i = int(given[repeated + 1].min())
            raise GraphStructureError(f"duplicate oriented edge {(origins[i], termini[i])!r}")
        if unknown:
            i = int(((src >= m) | (dst >= m)).argmax())
            raise GraphStructureError(
                f"edge ({origins[i]!r}, {termini[i]!r}) references an unknown vertex")

        # derive the reverses that are not given, then sort the entries by (row, column)
        reverse = dst * m + src
        derived = (keys.take(keys.searchsorted(reverse), mode="clip") != reverse).nonzero()[0]
        a_given, sigma_given = np.array(a), np.array(sigma)
        entry_keys = np.concatenate([codes, reverse[derived]])
        perm = entry_keys.argsort()
        entry_keys = entry_keys[perm]
        source = np.concatenate([np.arange(k), derived])[perm]  # the given edge of each entry
        self._a, self._sigma = a_given[source], sigma_given[source]
        flipped = (perm >= k).nonzero()[0]
        self._sigma[flipped] = np.conj(self._sigma[flipped])
        rows, self._indices = np.divmod(entry_keys, max(m, 1))
        counts = np.bincount(rows, minlength=m)
        self._indptr = np.zeros(m + 1, dtype=np.int64)
        counts.cumsum(out=self._indptr[1:])
        columns = [np.array(c) for c in (w, W, q)]
        if check:
            back = entry_keys.searchsorted(reverse)  # each given edge's reverse entry
            fault = (_vertex_fault(ids, (w, W, q), columns)
                     or _edge_fault(origins, termini, src == dst, a_given, sigma_given,
                                    self._a[back], self._sigma[back], sigma)
                     or self._connectivity_fault(order, blocks, src, dst))
            if fault:
                raise GraphStructureError(fault)
        order = np.array(order, dtype=np.int64)
        self._w, self._W, self._q = (c[order] for c in columns)
        self._whole = Window(ids=_id_array(self._ids), indptr=self._indptr,
                             indices=self._indices, w=self._w, W=self._W, q=self._q, a=self._a,
                             sigma=self._sigma, interior=np.ones(m, dtype=bool))
        for held in vars(self._whole).values():
            held.flags.writeable = False  # windows share them
        object.__setattr__(self._whole, "row_by_id", row)  # the graph's own id -> row dict
        self._records = []  # vertex records, all built on the first read
        self._lists = [None] * m  # neighbor lists, built on first read
        self.degree_bound = (degree_bound if degree_bound is not None
                             else max(counts.tolist(), default=0))

    def _connectivity_fault(self, order, blocks, src, dst):
        """The connectivity fault, or None.  A lone graph (``blocks`` None) is
        one part, and its fault names the first rows the first given vertex
        does not reach.  A union's parts have ``blocks`` vertices, given one
        after another (``order``: the given place of each row); its fault is
        an edge that joins two parts, or a part that is not connected."""
        from scipy.sparse import csgraph, csr_matrix  # imported here: lazy graphs never pay for it
        m = len(order)
        sizes = [m] if blocks is None else blocks
        part = np.repeat(np.arange(len(sizes)), sizes)[order]
        if (part[src] != part[dst]).any():
            return "an edge joins two parts of the union"
        count, label = csgraph.connected_components(
            csr_matrix((np.ones(len(self._indices)), self._indices, self._indptr), shape=(m, m)),
            directed=False)
        if blocks is None:
            missing = np.flatnonzero(label != label[order.index(0)])[:5].tolist()
            if missing:
                return f"graph is not connected; unreachable: {[self._ids[r] for r in missing]}"
        # with no edge between them, nonempty parts are one component each iff connected
        elif count != len(sizes) or 0 in sizes:
            return "a part of the union is not connected"
        return None

    def has_vertex(self, x) -> bool:
        return x in self._row

    def vertex(self, x) -> VertexData:
        try:
            return self._records[self._row[x]]
        except KeyError:
            raise UnknownVertexError(x) from None
        except IndexError:  # no record built yet
            self._records = list(map(VertexData, self._w.tolist(), self._W.tolist(),
                                     self._q.tolist()))
            return self._records[self._row[x]]

    def neighbors(self, x):
        try:
            r = self._row[x]
        except KeyError:
            raise UnknownVertexError(x) from None
        found = self._lists[r]
        if found is None:
            lo, hi = self._indptr[r:r + 2].tolist()
            ids = self._ids
            found = self._lists[r] = [
                (OrientedEdge(ids[r], ids[c]), EdgeData(a, s))
                for c, a, s in zip(self._indices[lo:hi].tolist(), self._a[lo:hi].tolist(),
                                   self._sigma[lo:hi].tolist())]
        return found

    def vertices(self):
        return list(self._ids)

    def _find(self, r, t):
        """The place of the edge from row ``r`` to ``t`` in the row, or None:
        a binary search of the row's sorted columns."""
        c = self._row.get(t)
        if c is None:
            return None
        lo, hi = self._indptr[r:r + 2].tolist()
        k = bisect_left(self._indices, c, lo, hi)
        return k - lo if k < hi and self._indices[k] == c else None

    def edge_data(self, e) -> EdgeData:
        e = as_edge(e)
        found = self.neighbors(e.origin)
        k = self._find(self._row[e.origin], e.terminus)
        if k is None:
            raise InputError(f"no edge {e.origin!r} -> {e.terminus!r}")
        return found[k][1]

    def has_edge(self, e) -> bool:
        e = as_edge(e)
        r = self._row.get(e.origin)
        return r is not None and self._find(r, e.terminus) is not None

    def edges(self):
        rows = np.repeat(np.arange(len(self._ids)), np.diff(self._indptr))
        later = np.flatnonzero(rows < self._indices)
        ids = self._ids
        return list(map(OrientedEdge, map(ids.__getitem__, rows[later].tolist()),
                        map(ids.__getitem__, self._indices[later].tolist())))

    def whole_window(self):
        """The whole graph as one :class:`Window`, built with the graph; None
        unless w, q and a hold floats, so that searches on exact data stay on
        the neighbor oracle, which computes their lengths exactly."""
        if any(c.dtype.kind != "f" for c in (self._w, self._q, self._a)):
            return None
        return self._whole

    def closure_window(self, vertices, extra=()) -> "Window":
        """The one-hop closure of ``vertices``, with the vertices ``extra``, as a
        :class:`Window` sliced from the arrays, with their dtypes."""
        row = self._row
        try:
            inner = np.fromiter(map(row.__getitem__, vertices), np.int64)
        except KeyError as exc:
            raise UnknownVertexError(exc.args[0]) from None
        more = [row.get(x) for x in extra]
        if None in more:
            raise UnknownVertexError(sorted_ids([x for x, r in zip(extra, more) if r is None])[0])
        entries, _ = self._entries(inner)
        return self._window(np.unique(np.concatenate(
            [inner, self._indices[entries], np.array(more, dtype=np.int64)])))

    def _entries(self, rows):
        """The CSR entries of ``rows``, row after row, and their count per row."""
        starts = self._indptr[rows]
        counts = self._indptr[rows + 1] - starts
        ends = np.cumsum(counts)
        total = int(ends[-1]) if len(ends) else 0
        return np.arange(total) + np.repeat(starts - ends + counts, counts), counts

    def _window(self, rows) -> "Window":
        """The window on the sorted graph ``rows``: their entries to one another."""
        m = len(self._ids)
        if len(rows) == m:
            return self._whole
        where = np.full(m, -1, dtype=np.int64)
        where[rows] = np.arange(len(rows))
        entries, counts = self._entries(rows)
        cols = where[self._indices[entries]]
        keep = cols >= 0
        kept = np.bincount(np.repeat(np.arange(len(rows)), counts)[keep], minlength=len(rows))
        indptr = np.zeros(len(rows) + 1, dtype=np.int64)
        np.cumsum(kept, out=indptr[1:])
        entries = entries[keep]
        ids = self._whole.ids[rows]
        if ids.dtype == object:  # int64 when the window's ids are all ints, as in an oracle read
            ids = _id_array(ids.tolist())
        return Window(ids=ids, indptr=indptr, indices=cols[keep],
                      w=self._w[rows], W=self._W[rows], q=self._q[rows], a=self._a[entries],
                      sigma=self._sigma[entries], interior=kept == counts)


def _given(column, i):
    """Item ``i`` of a column as given; an array's as a Python scalar."""
    return column[i:i + 1].tolist()[0] if isinstance(column, np.ndarray) else column[i]


def _finite(column) -> np.ndarray:
    return np.isfinite(column if column.dtype.kind in "fc" else column.astype(float))


def _first_true(bad):
    """The index of the first True in ``bad``, or None."""
    i = int(bad.argmax()) if len(bad) else 0
    return i if len(bad) and bad[i] else None


def _vertex_fault(ids, given, columns):
    """The first vertex, in the given order, whose w, W and q are not finite,
    whose weight is not positive or whose minorant is below 1, as a message."""
    if not len(ids):
        return "graph has no vertices"
    w, W, q = columns
    finite = _finite(w) & _finite(W) & _finite(q)
    positive = np.asarray(w > 0, dtype=bool)
    minorant = np.asarray(q >= 1, dtype=bool)
    i = _first_true(~(finite & positive & minorant))
    if i is None:
        return None
    rec = tuple(_given(column, i) for column in given)
    if not finite[i]:
        return f"vertex {ids[i]!r}: w, W and q must be finite, got {rec}"
    if not positive[i]:
        return f"vertex {ids[i]!r}: weight must be positive, got {rec[0]}"
    return f"vertex {ids[i]!r}: minorant must be >= 1, got {rec[2]}"


def _edge_fault(origins, termini, loop, a, sigma, back_a, back_sigma, given_sigma):
    """The first given edge with a fault, in the given order, as a message;
    each edge's checks run in the order of the messages below."""
    finite = _finite(a) & np.isfinite(sigma.astype(complex))
    positive = np.asarray(a > 0, dtype=bool)
    with np.errstate(invalid="ignore"):  # inf - inf where a phase is not finite
        modulus = np.asarray(np.abs(np.abs(sigma) - 1.0) > PHASE_TOL, dtype=bool)
        skew = np.asarray(np.abs(back_sigma - np.conj(sigma)) > PHASE_TOL, dtype=bool)
    asymmetric = np.asarray(back_a != a, dtype=bool)
    i = _first_true(loop | ~finite | ~positive | modulus | asymmetric | skew)
    if i is None:
        return None
    o, t = origins[i], termini[i]
    if loop[i]:
        return f"loop at vertex {o!r}"
    if not finite[i]:
        return f"edge ({o!r}, {t!r}): weight and phase must be finite"
    if not positive[i]:
        return f"edge ({o!r}, {t!r}): weight must be positive"
    if modulus[i]:
        return f"edge ({o!r}, {t!r}): phase modulus {abs(_given(given_sigma, i))} != 1"
    if asymmetric[i]:
        return f"edge ({o!r}, {t!r}): weight differs between orientations"
    return f"edge ({o!r}, {t!r}): phases are not conjugate"
