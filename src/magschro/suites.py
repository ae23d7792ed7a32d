"""Seeded property suites shared by the CLI and the test battery."""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from .errors import InputError
from .functions import edge_average
from .operators import (
    Patch,
    adjointness_residual,
    composition_residual,
    leibniz_residual,
    product_rule_residual,
    symmetry_residual,
)
from .randomgraphs import (
    random_connected_graph,
    random_edge_function,
    random_vertex_function,
)

IDENTITY_TOL = 1e-10


@dataclass
class IdentitySuiteResult:
    graphs: int
    seed: int
    residuals: dict = field(default_factory=dict)  # suite name -> max relative residual
    elapsed: float = 0.0

    @property
    def worst(self) -> float:
        return max(self.residuals.values(), default=0.0)

    @property
    def passed(self) -> bool:
        return self.worst <= IDENTITY_TOL


def identity_suite(*, seed=42, graphs=200, max_vertices=40) -> IdentitySuiteResult:
    """Run all five identity residuals on seeded random graphs.

    Each graph gets random complex vertex functions u, v and a random edge
    function Y; the five residuals share one patch of the graph, the
    one-hop closure of the supports of u and v with the ends of the edges
    of Y.  The result records the largest relative residual seen per
    identity.
    """
    if graphs < 1:
        raise InputError(f"the identity suite needs at least 1 graph, got {graphs}")
    if max_vertices < 4:
        raise InputError(f"random graphs have at least 4 vertices; max_vertices={max_vertices}")
    rng = np.random.default_rng(seed)
    start = time.perf_counter()
    result = IdentitySuiteResult(graphs=graphs, seed=seed)
    worst = dict.fromkeys(("leibniz", "product-rule", "adjointness", "composition",
                           "symmetry"), 0.0)
    for _ in range(graphs):
        g = random_connected_graph(rng, max_vertices=max_vertices)
        u = random_vertex_function(rng, g)
        v = random_vertex_function(rng, g)
        Y = random_edge_function(rng, g)
        patch = Patch.closure(g, [*u._values, *v._values], Y._values)
        # one call per identity, so that a traced run times each of them
        for name, value in (
                ("leibniz", leibniz_residual(g, u, v, relative=True, patch=patch)),
                ("product-rule", product_rule_residual(g, u, Y, relative=True, patch=patch)),
                ("adjointness", adjointness_residual(g, u, Y, relative=True, patch=patch)),
                ("composition", composition_residual(g, u, relative=True, patch=patch)),
                ("symmetry", symmetry_residual(g, u, v, relative=True, patch=patch))):
            worst[name] = max(worst[name], value)
    result.residuals = worst
    result.elapsed = time.perf_counter() - start
    return result


@dataclass
class SquareAverageResult:
    samples: int
    violations: int
    worst_margin: float  # most negative value of mean(phi^2) - mean(phi)^2 seen

    @property
    def passed(self) -> bool:
        return self.violations == 0


def square_average_suite(*, seed=7, samples=10_000) -> SquareAverageResult:
    """mean(phi)^2 <= mean(phi^2) on random real functions and edges."""
    if samples < 1:
        raise InputError(f"the square-average suite needs at least 1 sample, got {samples}")
    rng = np.random.default_rng(seed)
    violations = 0
    worst = float("inf")
    done = 0
    while done < samples:
        g = random_connected_graph(rng, max_vertices=12)
        edges = g.edges()
        for _ in range(min(len(edges) * 4, samples - done)):
            phi = random_vertex_function(rng, g, real=True)
            e = edges[int(rng.integers(0, len(edges)))]
            lhs = edge_average(phi, e) ** 2
            rhs = edge_average(phi.pointwise(phi), e)
            margin = rhs - lhs
            worst = min(worst, margin)
            if lhs > rhs:
                violations += 1
            done += 1
    return SquareAverageResult(samples=done, violations=violations, worst_margin=worst)
