"""Checkable sufficient conditions for essential self-adjointness.

The four conditions are a global degree bound, the minorant bound W >= -q, a
Lipschitz bound on q**-1/2 across edges, and completeness of the weighted
metric.  None of them can be decided computationally on an arbitrary lazily
presented infinite graph, so every check here is windowed and the report is
explicit about its evidentiary scope: "exact" only for finite graphs and for
ray families whose metric reduces to a classifiable series, "windowed"
otherwise.

The first three conditions are checked by one array scan (:func:`_checks`)
of the vertices and edges of a walk over a vertex set: on the ray, the run
of ids a search settled, read as slices of the search's records
(``SearchResult.records``); else the rows of an explicit graph's whole
window that a search ran on (``SearchResult.window``), or of the closure
of a vertex set that :meth:`~magschro.graphs.WeightedGraph.closure_window`
reads.  On float data the Lipschitz ratios are bounded with numpy and
decided with ``math.pow``: only the edges whose bounded ratio can reach the
maximum are computed as the vertex walk computes them, which assumes that
``math.pow(x, ±0.5)`` is within 2**-44 of the true value, relative to it.
"""

from __future__ import annotations

from dataclasses import dataclass
from time import perf_counter
from typing import Optional

import numpy as np

from .errors import InputError, require_nonnegative
from .exprlang import power
from .graphs import OrientedEdge, sorted_ids
from .metric import (CompletenessReport, WITH_Q, _completeness_report, _resolve_budget,
                     shortest_paths)
from .metric import completeness_probe  # noqa: F401 -- unused; perfbench/layertrace.py patches it
from .spectral import spectral_trend

LIPSCHITZ_TOL = 1e-12

_TINY = np.finfo(float).tiny


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
    return _scan(g, *_closure(g, window))[1]


@dataclass
class LipschitzCheck:
    constant: float
    witness: Optional[OrientedEdge]


def lipschitz_best_constant(g, window) -> LipschitzCheck:
    """Smallest constant bounding |q(t)**-0.5 - q(o)**-0.5| across edges.

    The bound is measured against (min(w(t), w(o)) / a(e))**0.5 on every edge
    incident to the window, and the witness is an edge attaining it.
    """
    return _scan(g, *_closure(g, window))[2]


@dataclass
class DegreeCheck:
    observed: int
    declared: Optional[int]
    passed: bool


def degree_bound_check(g, window) -> DegreeCheck:
    return _scan(g, *_closure(g, window))[0]


def _closure(g, window):
    """The closure window of a vertex set, with the mask of its rows."""
    members = set(window)
    win = g.closure_window(sorted_ids(members))
    return win, win.holds(members)


def _explored(g, found):
    """The window of a search with the mask of the vertices it settled: the
    explicit graph's whole window it ran on, else the closure of its
    settled set."""
    if found.window is not None:
        member = np.zeros(len(found.window.ids), dtype=bool)
        member[found.order] = True
        return found.window, member
    return _closure(g, found.distances)


def _scan(g, win, member):
    """Degree, minorant and Lipschitz checks over the ``member`` rows of a window.

    Every member must be interior to the window, so that its CSR row lists
    all of its neighbors.  The maxima and witnesses are those of a walk over
    the members in id order and over each member's neighbors in order, which
    takes each edge where it first meets it: at its smaller end, or at its
    member end when the other lies outside.  The checks are :func:`_checks`
    on the arrays of that walk.
    """
    rows = np.flatnonzero(member)  # row order is id order
    # each edge once, where the walk meets it; CSR order is walk order
    src, dst = win.rows(), win.indices
    taken = np.flatnonzero(member[src] & ((dst > src) | ~member[dst]))
    o = np.minimum(src[taken], dst[taken])
    t = np.maximum(src[taken], dst[taken])
    return _checks(g, int(np.diff(win.indptr)[rows].max(initial=0)),
                   -win.q[rows] - win.W[rows], lambda i: win.ids[rows[i:i + 1]].tolist()[0],
                   win.q[o], win.q[t], np.minimum(win.w[o], win.w[t]) / win.a[taken],
                   lambda i: win.ids[[o[i], t[i]]].tolist())


def _scan_search(g, found):
    """:func:`_scan` over the vertices a search settled.  A ray search's are
    read from its records when they are one run of ids first..last: the
    walk's edges are then (o, o + 1) for o from first - 1 (from first at id
    1) to last, and :func:`_checks` runs on slices.  A stop that cut a tie
    of distances leaves them scattered, and their closure is scanned."""
    records = found.records()
    if records is None:
        return _scan(g, *_explored(g, found))
    rows = found.order
    start, stop = int(rows.min()), int(rows.max()) + 1
    if stop - start != len(rows):
        return _scan(g, *_explored(g, found))
    lo, w, W, q, a = records
    edge = max(start - 1, 1 - lo)  # the row of the first edge's smaller end
    return _checks(g, 2 if lo + stop > 2 else 1, -q[start:stop] - W[start:stop],
                   lambda i: lo + start + i, q[edge:stop], q[edge + 1:stop + 1],
                   np.minimum(w[edge:stop], w[edge + 1:stop + 1]) / a[edge:stop],
                   lambda i: (lo + edge + i, lo + edge + i + 1))


def _checks(g, observed, gaps, vertex, q_o, q_t, base, edge):
    """The three checks from the arrays of a walk: the largest degree
    ``observed``, the gaps -q - W of its vertices in id order (``vertex(i)``
    names the i-th), and per edge in walk order the minorants ``q_o`` and
    ``q_t`` of its ends and ``base`` = min(w) / a (``edge(i)`` names the i-th
    as its two ids).  The float operations are the walk's, and exact data
    run through object arrays.  An edge whose scale (min(w) / a)**0.5
    underflows to 0 raises :class:`InputError`.

    On float64 data the Lipschitz ratios are bounded with numpy and decided
    with ``math.pow``.  ``1 / np.sqrt`` gives each edge an approximate ratio
    gap / scale, with gap = |root_t - root_o|, widened by 2**-40 ((max root +
    gap) / scale + ratio) plus the smallest normal float (for subnormal
    ratios).  The bound is absolute since the roots cancel: the error of gap
    is relative to the larger root.  Only the edges whose widened ratio
    reaches the largest lower bound can hold the maximum, and only their
    ratios are computed as the walk computes them; edges whose ends have
    equal q have ratio 0 and are skipped.  The one assumption is that
    ``math.pow(x, ±0.5)`` lies within 2**-44 of the true value, relative to
    it (a correctly rounded result is within 2**-53): the widening then
    covers each ratio's error about eight times over.
    """
    worst, vertex_witness = 0.0, None
    if len(gaps) and gaps.max() > 0:
        at = int(np.argmax(gaps))
        worst, vertex_witness = gaps[at:at + 1].tolist()[0], vertex(at)

    if q_o.dtype == base.dtype == np.float64:
        _refuse_zero_scale(edge, base == 0)
        # the edges that can hold the largest ratio, in walk order
        live = np.flatnonzero(q_o != q_t)
        root_o, root_t = 1 / np.sqrt(q_o[live]), 1 / np.sqrt(q_t[live])
        scale = np.sqrt(base[live])
        gap = np.abs(root_t - root_o)
        ratio = gap / scale
        slack = 2.0 ** -40 * ((np.maximum(root_o, root_t) + gap) / scale + ratio) + _TINY
        edges = live[ratio + slack >= (ratio - slack).max(initial=-np.inf)]
        scale = power(base[edges], 0.5, len(edges))
    else:
        edges = np.arange(len(base))
        scale = power(base, 0.5, len(edges))
        _refuse_zero_scale(edge, scale == 0)
    roots = [power(ends[edges], -0.5, len(edges)) for ends in (q_o, q_t)]
    ratios = np.abs(roots[1] - roots[0]) / scale
    best, edge_witness = 0.0, None
    if len(ratios) and ratios.max() > 0:
        at = int(np.argmax(ratios))
        best = float(ratios[at])
        edge_witness = OrientedEdge(*edge(int(edges[at])))
    declared = g.degree_bound
    return (DegreeCheck(observed=observed, declared=declared,
                        passed=declared is None or observed <= declared),
            MinorantCheck(worst_violation=float(worst), witness=vertex_witness, passed=worst == 0),
            LipschitzCheck(constant=best, witness=edge_witness))


def _refuse_zero_scale(edge, zero):
    """Raise at the first edge, in walk order, whose Lipschitz scale is 0."""
    if zero.any():
        raise InputError(f"edge {tuple(edge(int(np.argmax(zero))))!r}: the Lipschitz scale "
                         "(min(w) / a)**0.5 underflows to 0")


@dataclass
class SearchSummary:
    """How the search behind a report ran."""

    method: str  # "frontier" or "window", as SearchResult.method
    settled: int
    wall_s: float


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
    search: SearchSummary


def selfadjointness_criteria(g, x0, *, budget=None, lipschitz_budget=None) -> CriteriaReport:
    """Aggregate all four sufficient conditions over an explored window.

    One search serves both the completeness probe and the window, the region
    it settles, which one array scan checks; ``search`` says how it ran.  The
    overall verdict is "pass" when every condition holds and the
    completeness verdict is exact, "fail" when any condition is violated
    (including an exact incompleteness verdict), and "partial" when the
    conditions hold but completeness rests on windowed evidence only.
    """
    budget = _resolve_budget(budget)
    require_nonnegative("the Lipschitz budget", lipschitz_budget)
    start = perf_counter()
    explored = shortest_paths(g, x0, q_mode=WITH_Q, budget=budget)
    search = SearchSummary(explored.method, len(explored.settled_distances()),
                           perf_counter() - start)
    completeness = _completeness_report(g, x0, budget, explored)
    degree, minorant, lipschitz = _scan_search(g, explored)
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
        window_size=search.settled,
        scope=scope,
        overall=overall,
        search=search,
    )


@dataclass
class SemiboundedProbe:
    rows: list  # the EigenExtremes of each window, in order
    nonincreasing: bool
    verdict: str


def semibounded_probe(g, windows) -> SemiboundedProbe:
    """Track the bottom of the spectrum across nested windows.

    A lower bound k with (Hu, u) >= k (u, u) for all finitely supported u
    must lie below the smallest truncation eigenvalue of every window, so a
    minimum that keeps falling rules out every candidate above it.  A
    falling-but-bounded trend is reported without a verdict.  The rows are
    those of :func:`~magschro.spectral.spectral_trend`, each with its
    smallest delta-function Rayleigh quotient (``rayleigh_min``).
    """
    rows = spectral_trend(g, windows)
    mins = [r.lambda_min for r in rows]
    res = [r.residual for r in rows]
    # each lambda_min lies within its residual of an eigenvalue, so only a
    # rise beyond the sum of the two residuals counts
    nonincreasing = all(b - a <= ra + rb for a, b, ra, rb in zip(mins, mins[1:], res, res[1:]))
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
