"""Seeded property suites shared by the CLI and the test battery."""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from .errors import InputError
from .functions import EdgeFunction, VertexFunction
from .graphs import OrientedEdge
from .operators import (
    Patch,
    adjointness_residual,
    composition_residual,
    leibniz_residual,
    product_rule_residual,
    symmetry_residual,
)
from .randomgraphs import random_columns, random_entries, random_values, stacked_graph
from .randomgraphs import random_connected_graph  # noqa: F401 -- perfbench/layertrace.py patches it

IDENTITY_TOL = 1e-10
IDENTITIES = ("leibniz", "product-rule", "adjointness", "composition", "symmetry")
# CSR entries of one stack of graphs: below 16,384, so that no complex128
# array of its patch reaches numpy's 256 KiB temporary-elision size (see operators)
CHUNK_ENTRIES = 16_383


@dataclass
class IdentitySuiteResult:
    graphs: int
    seed: int
    residuals: dict = field(default_factory=dict)  # suite name -> max relative residual
    elapsed: float = 0.0
    draw_s: float = 0.0  # the rest of elapsed: drawing the graphs and their functions
    residual_s: float = 0.0  # stacking the graphs, their patches and the residuals
    chunks: int = 0  # stacks of graphs, one patch each
    vertices: int = 0  # over all graphs
    edges: int = 0

    @property
    def worst(self) -> float:
        return max(self.residuals.values(), default=0.0)

    @property
    def passed(self) -> bool:
        return self.worst <= IDENTITY_TOL


def identity_suite(*, seed=42, graphs=200, max_vertices=40) -> IdentitySuiteResult:
    """Run all five identity residuals on seeded random graphs.

    Each graph gets random complex vertex functions u, v and a random edge
    function Y, drawn after it; the result records the largest relative
    residual seen per identity.  The graphs are evaluated in stacks: the
    disjoint union of consecutive graphs up to ``CHUNK_ENTRIES`` CSR entries,
    with one patch, the one-hop closure of the supports of u and v with the
    ends of the edges of Y, shared by the five residuals.  Each graph is a
    block of it, so the maxima are those of one patch per graph.
    """
    if graphs < 1:
        raise InputError(f"the identity suite needs at least 1 graph, got {graphs}")
    if max_vertices < 4:
        raise InputError(f"random graphs have at least 4 vertices; max_vertices={max_vertices}")
    rng = np.random.default_rng(seed)
    start = time.perf_counter()
    result = IdentitySuiteResult(graphs=graphs, seed=seed,
                                 residuals=dict.fromkeys(IDENTITIES, 0.0))
    drawn, u, v, Y = [], {}, {}, {}
    entries = vertices = 0
    for _ in range(graphs):
        c = random_columns(rng, max_vertices=max_vertices)
        if drawn and entries + 2 * len(c.origins) > CHUNK_ENTRIES:
            _stack_residuals(drawn, u, v, Y, result)
            drawn, u, v, Y = [], {}, {}, {}
            entries = vertices = 0
        ids = range(vertices + 1, vertices + c.n + 1)
        u.update(random_values(rng, ids))
        v.update(random_values(rng, ids))
        k, values = random_entries(rng, len(c.origins))
        Y.update(zip(map(OrientedEdge, (c.origins[k] + vertices).tolist(),
                         (c.termini[k] + vertices).tolist()), values.tolist()))
        drawn.append(c)
        entries += 2 * len(c.origins)
        vertices += c.n
    _stack_residuals(drawn, u, v, Y, result)
    result.elapsed = time.perf_counter() - start
    result.draw_s = result.elapsed - result.residual_s
    return result


def _stack_residuals(drawn, u, v, Y, result):
    """Raise ``result``'s residuals to those of the stacked graphs ``drawn``,
    with the values of the functions on them by stacked id."""
    tick = time.perf_counter()
    g, starts = stacked_graph(drawn)
    u, v = VertexFunction(u), VertexFunction(v)
    Y = EdgeFunction(g, Y, _normalized=True)
    patch = Patch.closure(g, [*u._values, *v._values], Y._values, starts)
    # one call per identity, so that a traced run times each of them
    for name, value in (
            ("leibniz", leibniz_residual(g, u, v, relative=True, patch=patch)),
            ("product-rule", product_rule_residual(g, u, Y, relative=True, patch=patch)),
            ("adjointness", adjointness_residual(g, u, Y, relative=True, patch=patch)),
            ("composition", composition_residual(g, u, relative=True, patch=patch)),
            ("symmetry", symmetry_residual(g, u, v, relative=True, patch=patch))):
        result.residuals[name] = max(result.residuals[name], value)
    result.chunks += 1
    result.vertices += sum(c.n for c in drawn)
    result.edges += sum(len(c.origins) for c in drawn)
    result.residual_s += time.perf_counter() - tick


@dataclass
class SquareAverageResult:
    samples: int
    violations: int
    # most negative value of mean(phi^2) - mean(phi)^2 over the samples whose
    # edge ends differ in phi (inf if none does); the others are degenerate, margin 0
    worst_margin: float
    degenerate: int

    @property
    def passed(self) -> bool:
        return self.violations == 0


def square_average_suite(*, seed=7, samples=10_000) -> SquareAverageResult:
    """mean(phi)^2 <= mean(phi^2) on random real functions and edges."""
    if samples < 1:
        raise InputError(f"the square-average suite needs at least 1 sample, got {samples}")
    lhs, rhs, degenerate = _square_sides(np.random.default_rng(seed), samples)
    margins = (rhs - lhs)[~degenerate]
    return SquareAverageResult(samples=samples, violations=int((lhs > rhs).sum()),
                               worst_margin=float(margins.min()) if len(margins) else math.inf,
                               degenerate=int(degenerate.sum()))


def _square_sides(rng, samples):
    """Per sample, mean(phi)^2 and mean(phi^2) on its edge, and whether phi is
    equal at the edge's ends.  A graph serves 4 samples per edge, drawn after it
    as arrays of their support sizes, keys (k, n) as :func:`random_entries`
    draws them, normal values (k, n), 0 off the support, and edges."""
    drawn, ends = [], []
    done = 0
    while done < samples:
        c = random_columns(rng, max_vertices=12)
        k = min(len(c.origins) * 4, samples - done)
        sizes = rng.integers(1, c.n + 1, size=(k, 1))
        rank = rng.random((k, c.n)).argsort(axis=1, kind="stable").argsort(axis=1)
        phi = np.where(rank < sizes, rng.normal(0.0, 2.0, size=(k, c.n)), 0.0)
        e, rows = rng.integers(0, len(c.origins), size=k), np.arange(k)
        ends.append((phi[rows, c.origins[e] - 1], phi[rows, c.termini[e] - 1]))
        drawn.append(c)
        done += k
    stacked_graph(drawn)  # refuses a graph as building it alone would
    o, t = (np.concatenate(end) for end in zip(*ends))
    # Python's float power (libm pow), as the loop squared the mean; x * x
    # differs from it in the last bit on about 1 value in 1,200
    lhs = np.array([m ** 2 for m in ((t + o) / 2).tolist()])
    return lhs, (t * t + o * o) / 2, o == t
