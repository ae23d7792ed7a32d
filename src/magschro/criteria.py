"""Checkable sufficient conditions for essential self-adjointness.

The four conditions are a global degree bound, the minorant bound W >= -q, a
Lipschitz bound on q**-1/2 across edges, and completeness of the weighted
metric.  None of them can be decided computationally on an arbitrary lazily
presented infinite graph, so every check here is windowed and the report is
explicit about its evidentiary scope: "exact" only for finite graphs and for
ray families whose metric reduces to a classifiable series, "windowed"
otherwise.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .errors import UnknownVertexError
from .graphs import OrientedEdge, normalize_edge, vertex_sort_key
from .metric import (CompletenessReport, WITH_Q, _completeness_report, _probe_trail_every,
                     default_budget, shortest_paths)
from .metric import completeness_probe  # noqa: F401 -- unused; perfbench/layertrace.py patches it
from .operators import rayleigh_quotient
from .functions import VertexFunction
from .spectral import assemble_truncation, eigen_extremes

LIPSCHITZ_TOL = 1e-12


def positive_part(x):
    """max(x, 0), preserving the scalar type."""
    return x if x > 0 else type(x)(0)


@dataclass
class MinorantCheck:
    worst_violation: float
    witness: Optional[object]
    passed: bool


def minorant_check(g, window) -> MinorantCheck:
    """Largest positive part of -q(x) - W(x) over the window; passes iff zero."""
    worst = 0.0
    witness = None
    for x in sorted(window, key=vertex_sort_key):
        rec = g.vertex(x)
        gap = positive_part(-rec.minorant - rec.potential)
        if gap > worst:
            worst = gap
            witness = x
    return MinorantCheck(worst_violation=float(worst), witness=witness, passed=worst == 0)


@dataclass
class LipschitzCheck:
    constant: float
    witness: Optional[OrientedEdge]


def lipschitz_best_constant(g, window) -> LipschitzCheck:
    """Smallest constant bounding |q(t)**-0.5 - q(o)**-0.5| across edges.

    The bound is measured against (min(w(t), w(o)) / a(e))**0.5 on every edge
    incident to the window, and the witness is an edge attaining it.
    """
    best = 0.0
    witness = None
    seen = set()
    for x in sorted(window, key=vertex_sort_key):
        for e, data in g.neighbors(x):
            key = tuple(normalize_edge(e))
            if key in seen:
                continue
            seen.add(key)
            ro = g.vertex(key[0])
            rt = g.vertex(key[1])
            gap = abs(rt.minorant ** -0.5 - ro.minorant ** -0.5)
            ratio = gap / (min(ro.weight, rt.weight) / data.weight) ** 0.5
            if ratio > best:
                best = ratio
                witness = OrientedEdge(*key)
    return LipschitzCheck(constant=best, witness=witness)


@dataclass
class DegreeCheck:
    observed: int
    declared: Optional[int]
    passed: bool


def degree_bound_check(g, window) -> DegreeCheck:
    observed = max((g.degree(x) for x in window), default=0)
    declared = g.degree_bound
    return DegreeCheck(observed=observed, declared=declared,
                       passed=declared is None or observed <= declared)


@dataclass
class CriteriaReport:
    degree: DegreeCheck
    minorant: MinorantCheck
    lipschitz: LipschitzCheck
    lipschitz_budget: Optional[float]  # user-supplied admissible constant, if any
    lipschitz_passed: Optional[bool]
    completeness: CompletenessReport
    window_size: int
    scope: str  # "exact" | "windowed"
    overall: str  # "pass" | "fail" | "partial"


def selfadjointness_criteria(g, x0, *, budget=None, lipschitz_budget=None,
                             window=None) -> CriteriaReport:
    """Aggregate all four sufficient conditions over an explored window.

    One search serves both the completeness probe and the window, which
    defaults to the region that search settles.  The overall verdict is
    "pass" when every condition holds and the completeness verdict is
    exact, "fail" when any condition is violated (including an exact
    incompleteness verdict), and "partial" when the conditions hold but
    completeness rests on windowed evidence only.
    """
    if budget is None:
        budget = default_budget()
    if not g.has_vertex(x0):
        raise UnknownVertexError(x0)
    explored = shortest_paths(g, x0, q_mode=WITH_Q, budget=budget,
                              trail_every=_probe_trail_every(budget))
    completeness = _completeness_report(g, x0, budget, explored)
    window = explored.distances if window is None else set(window)
    window = sorted(window, key=vertex_sort_key)

    degree = degree_bound_check(g, window)
    minorant = minorant_check(g, window)
    lipschitz = lipschitz_best_constant(g, window)
    lipschitz_passed = None
    if lipschitz_budget is not None:
        lipschitz_passed = lipschitz.constant <= lipschitz_budget + LIPSCHITZ_TOL

    scope = "exact" if completeness.exact else "windowed"
    failed = (
        not degree.passed
        or not minorant.passed
        or lipschitz_passed is False
        or completeness.verdict == "incomplete (exact)"
    )
    if failed:
        overall = "fail"
    elif completeness.verdict == "complete (exact)":
        overall = "pass"
    else:
        overall = "partial"

    return CriteriaReport(
        degree=degree,
        minorant=minorant,
        lipschitz=lipschitz,
        lipschitz_budget=lipschitz_budget,
        lipschitz_passed=lipschitz_passed,
        completeness=completeness,
        window_size=len(window),
        scope=scope,
        overall=overall,
    )


@dataclass
class SemiboundedRow:
    size: int
    lambda_min: float
    rayleigh_min: float  # smallest delta-function Rayleigh quotient in the window


@dataclass
class SemiboundedProbe:
    rows: list
    nonincreasing: bool
    verdict: str


def semibounded_probe(g, windows, *, seed=0) -> SemiboundedProbe:
    """Track the bottom of the spectrum across nested windows.

    A lower bound k with (Hu, u) >= k (u, u) for all finitely supported u
    must lie below the smallest truncation eigenvalue of every window, so a
    minimum that keeps falling rules out every candidate above it.  A
    falling-but-bounded trend is reported without a verdict.
    """
    rows = []
    for window in windows:
        window = sorted(set(window), key=vertex_sort_key)
        trunc = assemble_truncation(g, window)
        ext = eigen_extremes(trunc, seed=seed)
        ray = min(rayleigh_quotient(g, VertexFunction.delta(x)).real for x in window)
        rows.append(SemiboundedRow(len(window), ext.lambda_min, ray))

    mins = [r.lambda_min for r in rows]
    nonincreasing = all(b <= a + 1e-12 for a, b in zip(mins, mins[1:]))
    if len(mins) >= 2 and all(b < a for a, b in zip(mins, mins[1:])):
        span = mins[0] - mins[-1]
        if span > 0.1 * max(abs(mins[-1]), 1.0):
            verdict = (f"no lower bound above {mins[-1]:.6g} is admissible; "
                       "the minimum is still falling across windows")
        else:
            verdict = "minimum decreasing slowly; trend reported without a verdict"
    elif len(mins) >= 2 and abs(mins[-1] - mins[0]) <= 1e-9 * max(abs(mins[0]), 1.0):
        verdict = f"minimum stable near {mins[-1]:.6g} on the tested windows"
    else:
        verdict = "trend reported without a verdict"
    return SemiboundedProbe(rows=rows, nonincreasing=nonincreasing, verdict=verdict)
