"""Finitely supported functions on vertices and oriented edges.

Both kinds are immutable value types.  Scalar entries are usually complex
floats, but any type with ``+ - * /``, ``conjugate()`` and ``abs()`` works;
see :mod:`magschro.exact` for exact rational scalars.
"""

from __future__ import annotations

import math

from .errors import InputError
from .graphs import OrientedEdge, as_edge, edge_sort_key, normalize_edge, sorted_ids


def _check_finite(value):
    if isinstance(value, complex):
        if not (math.isfinite(value.real) and math.isfinite(value.imag)):
            raise InputError(f"non-finite value {value!r}")
    elif isinstance(value, (int, float)):
        if not math.isfinite(value):
            raise InputError(f"non-finite value {value!r}")
    # exact scalar types are always finite


class VertexFunction:
    """Complex-valued function on vertices, zero off a finite support."""

    __slots__ = ("_values",)

    def __init__(self, values=None):
        vals = {}
        if values:
            for x, v in values.items():
                _check_finite(v)
                if v != 0:
                    vals[x] = v
        self._values = vals

    @classmethod
    def delta(cls, x, value=1.0) -> "VertexFunction":
        return cls({x: value})

    def __call__(self, x):
        return self._values.get(x, 0)

    @property
    def support(self):
        return sorted_ids(self._values)

    def items(self):
        return [(x, self._values[x]) for x in self.support]

    def __len__(self):
        return len(self._values)

    def __bool__(self):
        return bool(self._values)

    def __add__(self, other):
        vals = dict(self._values)
        for x, v in other._values.items():
            vals[x] = vals.get(x, 0) + v
        return VertexFunction(vals)

    def __sub__(self, other):
        vals = dict(self._values)
        for x, v in other._values.items():
            vals[x] = vals.get(x, 0) - v
        return VertexFunction(vals)

    def __neg__(self):
        return VertexFunction({x: -v for x, v in self._values.items()})

    def __mul__(self, scalar):
        return VertexFunction({x: v * scalar for x, v in self._values.items()})

    def __rmul__(self, scalar):
        return VertexFunction({x: scalar * v for x, v in self._values.items()})

    def pointwise(self, other: "VertexFunction") -> "VertexFunction":
        common = self._values.keys() & other._values.keys()
        return VertexFunction({x: self._values[x] * other._values[x] for x in common})

    def conjugated(self) -> "VertexFunction":
        return VertexFunction({x: v.conjugate() for x, v in self._values.items()})

    def sup_norm(self) -> float:
        return max((abs(v) for v in self._values.values()), default=0.0)

    def __repr__(self):
        return f"VertexFunction({dict(self.items())!r})"


class EdgeFunction:
    """Function on oriented edges, stored on id-ordered representatives.

    Querying the reverse of a stored edge applies the rule

        value(reverse(e)) == -phase(e)**twist * value(e)

    with the phase read from the graph.  ``twist=0`` is plain antisymmetry.
    ``twist=1`` (the default) matches how phase-deformed differentials
    transform under edge reversal, which is what makes every edge sum in
    this package independent of the canonical-orientation choice; ``twist=-1``
    is the analogous rule for the conjugate-phase differential.  All three
    coincide when the phase is identically one.
    """

    __slots__ = ("graph", "_values", "twist")

    def __init__(self, graph, values=None, *, twist=1, _normalized=False):
        if twist not in (-1, 0, 1):
            raise InputError(f"twist must be -1, 0 or 1, got {twist!r}")
        self.graph = graph
        self.twist = twist
        vals = {}
        if values:
            for e, v in values.items():
                _check_finite(v)
                if v == 0:
                    continue
                if _normalized:  # the caller's keys are normalized OrientedEdges of graph
                    vals[e] = v
                    continue
                e = as_edge(e)
                key = normalize_edge(e)
                if not graph.has_edge(key):
                    raise InputError(f"no edge {key.origin!r} -> {key.terminus!r}")
                if key != e:
                    # translate the supplied value to the stored representative
                    v = -self._reversal_phase(key).conjugate() * v if twist else -v
                if key in vals:
                    raise InputError(f"conflicting values for edge {key!r}")
                vals[key] = v
        self._values = vals

    def _reversal_phase(self, key: OrientedEdge):
        """phase(key) ** twist for twist 1 or -1; twist 0 never asks."""
        phase = self.graph.edge_data(key).phase
        return phase if self.twist == 1 else phase.conjugate()

    def value(self, e):
        e = as_edge(e)
        key = normalize_edge(e)
        v = self._values.get(key)
        if v is None:
            return 0
        if e == key:
            return v
        if self.twist == 0:
            return -v
        return -self._reversal_phase(key) * v

    __call__ = value

    @property
    def support(self):
        """The id-ordered representatives carrying nonzero values, sorted."""
        return sorted(self._values, key=edge_sort_key)

    def items(self):
        return [(k, self._values[k]) for k in self.support]

    def __len__(self):
        return len(self._values)

    def __bool__(self):
        return bool(self._values)

    def sup_norm(self) -> float:
        return max((abs(v) for v in self._values.values()), default=0.0)

    def __repr__(self):
        return f"EdgeFunction({dict(self.items())!r}, twist={self.twist})"


def support_union(*fs):
    """The union of the supports of vertex functions, in vertex order."""
    return sorted_ids(set().union(*(f._values for f in fs)))


def inner_w(g, f: VertexFunction, h: VertexFunction):
    """Weighted vertex inner product: sum of w(x) f(x) conj(h(x))."""
    total = 0
    for x in support_union(f, h):
        total = total + g.vertex(x).weight * f(x) * h(x).conjugate()
    return total


def norm_w(g, f: VertexFunction) -> float:
    total = 0.0
    for x, v in f.items():
        total += g.vertex(x).weight * abs(v) ** 2
    return math.sqrt(total)


def inner_a(g, F: EdgeFunction, G: EdgeFunction):
    """Weighted edge inner product, summed over canonical representatives."""
    total = 0
    for k in sorted({*F.support, *G.support}, key=edge_sort_key):
        c = g.canonical(k)
        total = total + g.edge_data(c).weight * F.value(c) * G.value(c).conjugate()
    return total


def norm_a(g, F: EdgeFunction) -> float:
    total = 0.0
    for k, v in F.items():
        total += g.edge_data(k).weight * abs(v) ** 2
    return math.sqrt(total)


def edge_average(u: VertexFunction, e):
    """Arithmetic mean of the endpoint values, (u(t) + u(o)) / 2."""
    e = as_edge(e)
    return (u(e.terminus) + u(e.origin)) / 2


def phased_edge_average(g, u: VertexFunction, e):
    """Phase-deformed endpoint mean, (sigma(e) u(t) + u(o)) / 2."""
    e = as_edge(e)
    return (g.edge_data(e).phase * u(e.terminus) + u(e.origin)) / 2
