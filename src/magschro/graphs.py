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

import copy
from collections import deque
from dataclasses import dataclass, field
from typing import Mapping, NamedTuple, Union

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
        flipped = (norm.origin, norm.terminus) in self._flipped
        return (e == norm) != flipped

    def canonical(self, e) -> OrientedEdge:
        """The canonical representative of the unoriented edge under ``e``."""
        e = as_edge(e)
        return e if self.is_canonical(e) else e.reverse()

    def with_flipped_orientation(self, edges) -> "WeightedGraph":
        """A view of this graph with the canonical orientation of ``edges`` reversed.

        Flipping twice restores the original choice.  The underlying data is
        shared; only the orientation rule changes.
        """
        flips = frozenset(tuple(normalize_edge(e)) for e in edges)
        clone = copy.copy(self)
        clone._flipped = self._flipped ^ flips
        return clone

    def star_edges(self, x):
        """Canonical edges meeting ``x``, sorted by their normalized key."""
        if not self.has_vertex(x):
            raise UnknownVertexError(x)
        stars = [self.canonical(e) for e, _ in self.neighbors(x)]
        return sorted(stars, key=lambda e: (vertex_sort_key(normalize_edge(e).origin),
                                            vertex_sort_key(normalize_edge(e).terminus)))

    def edges(self):
        """All normalized edges of a finite graph, sorted."""
        seen = set()
        for x in self.vertices():
            for e, _ in self.neighbors(x):
                seen.add(normalize_edge(e))
        return sorted(seen, key=lambda e: (vertex_sort_key(e.origin), vertex_sort_key(e.terminus)))

    def validate(self, window) -> ValidationReport:
        return validate(self, window)


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
            if not rec.weight > 0:
                raise GraphStructureError(f"vertex {x!r}: weight must be positive, got {rec.weight}")
            if rec.minorant < 1:
                raise GraphStructureError(f"vertex {x!r}: minorant must be >= 1, got {rec.minorant}")
        for (o, t), data in self._edata.items():
            if o == t:
                raise GraphStructureError(f"loop at vertex {o!r}")
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
