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
from collections import deque
from dataclasses import dataclass, field
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
    """``ids`` sorted by :func:`vertex_sort_key`, which plain comparison gives
    unless ints and strings mix."""
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
        """All normalized edges of a finite graph, sorted."""
        return incident_edges(self, self.vertices())

    def hop_window(self, x0, hops):
        """The vertices within ``hops`` edges of ``x0`` as a :class:`Window`.

        None when the graph cannot cut that window, for instance when one of
        its records is invalid; searches then stay on the neighbor oracle,
        which reads records one at a time and raises their errors.
        """
        return None

    def closure_window(self, vertices, extra=()) -> "Window":
        """The one-hop closure of ``vertices``, with the vertices ``extra``, as a
        :class:`Window`, read from the neighbor oracle one list per vertex.

        Every vertex of ``vertices`` is interior to it, which is all that a
        calculus operator on functions supported there, a scan of the
        criteria over them or their truncation needs.  A graph that holds
        arrays may cut the window from them instead, with the same fields
        and dtypes.
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
        # int64 ids when every id is an int that fits; an object array keeps str ids
        # as they are, where np.array would turn mixed ids into strings
        fits = all(type(x) is int and -2**63 <= x < 2**63 for x in ids)
        id_array = np.empty(len(ids), dtype=np.int64 if fits else object)
        id_array[:] = ids
        return Window(ids=id_array, indptr=np.concatenate([[0], np.cumsum(kept)]),
                      indices=at[keep], w=w, W=W, q=q, a=np.array(list(map(_first, data))),
                      sigma=np.array(list(map(_second, data))), interior=kept == degrees)


@dataclass(frozen=True)
class Window:
    """A finite vertex set of a graph as arrays, for vectorized passes.

    Vertices are numbered 0..m-1 in id order (:func:`vertex_sort_key`);
    ``ids`` is an int64 array when every id is an int, else an object array.
    Row i of the CSR adjacency (``indptr``, ``indices``) lists the neighbors
    of vertex i that lie in the window, in id order, and ``a`` and ``sigma``
    hold the data of those oriented edges.  A vertex is interior when all of
    its neighbors lie in the window.  The data arrays hold the records'
    numbers as numpy infers them: float64 or complex128 for floats, objects
    for exact scalars such as ``Fraction`` and ``ComplexRational``.
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


def incident_edges(g: WeightedGraph, vertices):
    """The normalized edges meeting any of ``vertices``, sorted."""
    keys = set()
    for x in vertices:
        for e, _ in g.neighbors(x):
            keys.add(normalize_edge(e))
    return sorted(keys, key=edge_sort_key)


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
    for x in sorted(window, key=vertex_sort_key):
        rec = g.vertex(x)
        if not rec.weight > 0:
            report.add("nonpositive-vertex-weight", x, rec.weight)
        if rec.minorant < 1:
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
            if back.weight != data.weight:
                report.add("edge-weight-asymmetry", e, abs(back.weight - data.weight))
            if abs(back.phase - data.phase.conjugate()) > PHASE_TOL:
                report.add("phase-conjugacy", e, abs(back.phase - data.phase.conjugate()))
    return report


class ExplicitGraph(WeightedGraph):
    """Finite graph with explicitly stored vertex and edge data.

    ``vertices`` maps each id to ``(w, W, q)``.  ``edges`` maps an oriented
    pair ``(u, v)`` to ``(a, sigma)``; when only one orientation of an edge
    is given, the reverse is derived (same weight, conjugate phase).  Both
    orientations may be supplied explicitly, which permits building broken
    graphs for :func:`validate` to report on when ``check=False``.
    """

    is_finite = True

    def __init__(self, vertices: Mapping, edges, *, degree_bound=None, check=True):
        super().__init__()
        self._vrec = {}
        for x, rec in vertices.items():
            self._vrec[x] = rec if isinstance(rec, VertexData) else VertexData(*rec)
        if isinstance(edges, Mapping):
            edge_items = list(edges.items())
        else:
            edge_items = [(pair, data) for pair, data in edges]

        self._edata = {}
        for pair, data in edge_items:
            e = as_edge(pair)
            data = data if isinstance(data, EdgeData) else EdgeData(*data)
            key = (e.origin, e.terminus)
            if key in self._edata:
                raise GraphStructureError(f"duplicate oriented edge {key!r}")
            self._edata[key] = data
        # derive missing reverse orientations
        for (o, t), data in list(self._edata.items()):
            if (t, o) not in self._edata:
                self._edata[(t, o)] = EdgeData(data.weight, data.phase.conjugate())

        adj = {x: [] for x in self._vrec}
        for (o, t), data in self._edata.items():
            if o not in self._vrec or t not in self._vrec:
                raise GraphStructureError(f"edge ({o!r}, {t!r}) references an unknown vertex")
            adj[o].append((OrientedEdge(o, t), data))
        for x in adj:
            adj[x].sort(key=lambda item: vertex_sort_key(item[0].terminus))
        self._adj = adj

        observed = max((len(v) for v in adj.values()), default=0)
        self.degree_bound = degree_bound if degree_bound is not None else observed

        if check:
            self._check_structure()

    def _check_structure(self):
        if not self._vrec:
            raise GraphStructureError("graph has no vertices")
        for x, rec in self._vrec.items():
            if not all(math.isfinite(v) for v in rec):
                raise GraphStructureError(f"vertex {x!r}: w, W and q must be finite, got {tuple(rec)}")
            if not rec.weight > 0:
                raise GraphStructureError(f"vertex {x!r}: weight must be positive, got {rec.weight}")
            if not rec.minorant >= 1:
                raise GraphStructureError(f"vertex {x!r}: minorant must be >= 1, got {rec.minorant}")
        for (o, t), data in self._edata.items():
            if o == t:
                raise GraphStructureError(f"loop at vertex {o!r}")
            if not (math.isfinite(data.weight) and cmath.isfinite(data.phase)):
                raise GraphStructureError(f"edge ({o!r}, {t!r}): weight and phase must be finite")
            if not data.weight > 0:
                raise GraphStructureError(f"edge ({o!r}, {t!r}): weight must be positive")
            if abs(abs(data.phase) - 1.0) > PHASE_TOL:
                raise GraphStructureError(f"edge ({o!r}, {t!r}): phase modulus {abs(data.phase)} != 1")
            back = self._edata[(t, o)]
            if back.weight != data.weight:
                raise GraphStructureError(f"edge ({o!r}, {t!r}): weight differs between orientations")
            if abs(back.phase - data.phase.conjugate()) > PHASE_TOL:
                raise GraphStructureError(f"edge ({o!r}, {t!r}): phases are not conjugate")
        # connectivity by breadth-first search
        start = next(iter(self._vrec))
        seen = {start}
        queue = deque([start])
        while queue:
            x = queue.popleft()
            for e, _ in self._adj[x]:
                if e.terminus not in seen:
                    seen.add(e.terminus)
                    queue.append(e.terminus)
        if len(seen) != len(self._vrec):
            missing = sorted(set(self._vrec) - seen, key=vertex_sort_key)
            raise GraphStructureError(f"graph is not connected; unreachable: {missing[:5]}")

    def has_vertex(self, x) -> bool:
        return x in self._vrec

    def vertex(self, x) -> VertexData:
        try:
            return self._vrec[x]
        except KeyError:
            raise UnknownVertexError(x) from None

    def neighbors(self, x):
        try:
            return self._adj[x]
        except KeyError:
            raise UnknownVertexError(x) from None

    def edge_data(self, e) -> EdgeData:
        e = as_edge(e)
        try:
            return self._edata[(e.origin, e.terminus)]
        except KeyError:
            raise InputError(f"no edge {e.origin!r} -> {e.terminus!r}") from None

    def vertices(self):
        return sorted(self._vrec, key=vertex_sort_key)
