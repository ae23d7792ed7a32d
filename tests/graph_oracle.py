"""A dict-backed oracle for the array graph.

:class:`DictGraph` builds an explicit graph the plain way: a dict of vertex
records, neighbor lists appended edge by edge and sorted by terminus, and a
structure check that walks the records in the given order and a
breadth-first search over the lists.  :class:`~magschro.graphs.ExplicitGraph`
holds the same graph as arrays and checks it with array passes, so the two
can be compared fault by fault.
"""

import math
from collections import deque
from typing import Mapping

from magschro.errors import GraphStructureError, UnknownVertexError
from magschro.graphs import (PHASE_TOL, EdgeData, OrientedEdge, VertexData, WeightedGraph,
                             _finite_edge, as_edge, vertex_sort_key)


class DictGraph(WeightedGraph):
    """The dict-backed explicit graph: a vertex-record dict and neighbor lists
    built edge by edge, then checked record by record.

    ``vertices`` and ``edges`` are those of
    :class:`~magschro.graphs.ExplicitGraph`, which must build the same graph
    and refuse the same inputs with the same first message.
    """

    is_finite = True

    def __init__(self, vertices: Mapping, edges, *, degree_bound=None, check=True):
        super().__init__()
        self._vrec = {}
        for x, rec in vertices.items():
            self._vrec[x] = rec if isinstance(rec, VertexData) else VertexData(*rec)
        edata = {}
        for pair, data in edges.items() if isinstance(edges, Mapping) else edges:
            e = as_edge(pair)
            data = data if isinstance(data, EdgeData) else EdgeData(*data)
            key = (e.origin, e.terminus)
            if key in edata:
                raise GraphStructureError(f"duplicate oriented edge {key!r}")
            edata[key] = data
        # derive missing reverse orientations
        for (o, t), data in list(edata.items()):
            if (t, o) not in edata:
                edata[(t, o)] = EdgeData(data.weight, data.phase.conjugate())

        adj = {x: [] for x in self._vrec}
        for (o, t), data in edata.items():
            if o not in self._vrec or t not in self._vrec:
                raise GraphStructureError(f"edge ({o!r}, {t!r}) references an unknown vertex")
            adj[o].append((OrientedEdge(o, t), data))
        for x in adj:
            adj[x].sort(key=lambda item: vertex_sort_key(item[0].terminus))
        self._adj = adj

        observed = max((len(v) for v in adj.values()), default=0)
        self.degree_bound = degree_bound if degree_bound is not None else observed

        if check:
            self._check_structure(edata)

    def _check_structure(self, edata):
        if not self._vrec:
            raise GraphStructureError("graph has no vertices")
        for x, rec in self._vrec.items():
            if not all(math.isfinite(v) for v in rec):
                raise GraphStructureError(f"vertex {x!r}: w, W and q must be finite, got {tuple(rec)}")
            if not rec.weight > 0:
                raise GraphStructureError(f"vertex {x!r}: weight must be positive, got {rec.weight}")
            if not rec.minorant >= 1:
                raise GraphStructureError(f"vertex {x!r}: minorant must be >= 1, got {rec.minorant}")
        for (o, t), data in edata.items():
            if o == t:
                raise GraphStructureError(f"loop at vertex {o!r}")
            if not _finite_edge(data):
                raise GraphStructureError(f"edge ({o!r}, {t!r}): weight and phase must be finite")
            if not data.weight > 0:
                raise GraphStructureError(f"edge ({o!r}, {t!r}): weight must be positive")
            if abs(abs(data.phase) - 1.0) > PHASE_TOL:
                raise GraphStructureError(f"edge ({o!r}, {t!r}): phase modulus {abs(data.phase)} != 1")
            back = edata[(t, o)]
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

    def vertices(self):
        return sorted(self._vrec, key=vertex_sort_key)
