"""Weighted path metric, metric balls, completeness diagnostics, cut-offs.

The length of an edge combines all three weight layers:

    len(e) = min(w(o), w(t))**0.5 * max(q(o), q(t))**-0.5 / a(e)**0.5

and the distance between two vertices is the infimum of summed edge lengths
over connecting paths.  ``unit-q`` mode substitutes q = 1, which is the
metric the cut-off functions are built from.  Lengths are strictly positive,
so a Dijkstra search over the lazy neighbor oracle settles vertices in
nondecreasing distance order and settled labels are final.

Every search carries an explicit budget (a hard cap on settled vertices) so
that lazily generated infinite graphs are only ever explored on finite
windows, and every result records whether it is complete or truncated.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field
from heapq import heappop, heappush
from typing import Optional

from .errors import BudgetExhaustedError, InputError, UnknownVertexError
from .functions import VertexFunction
from .graphs import OrientedEdge, as_edge, vertex_sort_key

WITH_Q = "with-q"
UNIT_Q = "unit-q"

_BUDGET_ENV = "MAGSCHRO_BUDGET"
_DEFAULT_BUDGET = 250_000


def default_budget() -> int:
    """The default settlement budget; overridable via MAGSCHRO_BUDGET."""
    raw = os.environ.get(_BUDGET_ENV)
    if raw is None:
        return _DEFAULT_BUDGET
    try:
        value = int(raw)
    except ValueError:
        raise InputError(f"{_BUDGET_ENV} must be an integer, got {raw!r}") from None
    if value <= 0:
        raise InputError(f"{_BUDGET_ENV} must be positive, got {value}")
    return value


def _check_q_mode(q_mode):
    if q_mode not in (WITH_Q, UNIT_Q):
        raise InputError(f"q_mode must be {WITH_Q!r} or {UNIT_Q!r}, got {q_mode!r}")


def edge_length(g, e, q_mode=WITH_Q) -> float:
    """The metric length of a single edge; symmetric under reversal."""
    _check_q_mode(q_mode)
    e = as_edge(e)
    ro = g.vertex(e.origin)
    rt = g.vertex(e.terminus)
    a = g.edge_data(e).weight
    wmin = min(ro.weight, rt.weight)
    if q_mode == WITH_Q:
        qmax = max(ro.minorant, rt.minorant)
        return math.sqrt(wmin) / math.sqrt(a * qmax)
    return math.sqrt(wmin) / math.sqrt(a)


class _Frontier:
    """Resumable Dijkstra state over the lazy neighbor oracle."""

    __slots__ = ("g", "q_mode", "settled", "_heap", "_best", "_count")

    def __init__(self, g, x0, q_mode):
        if not g.has_vertex(x0):
            raise UnknownVertexError(x0)
        self.g = g
        self.q_mode = q_mode
        self.settled = {}
        self._heap = [(0.0, 0, x0)]
        self._best = {x0: 0.0}
        self._count = 1

    def peek_distance(self) -> float:
        """Smallest tentative distance still on the frontier (inf if none)."""
        heap = self._heap
        while heap and heap[0][2] in self.settled:
            heappop(heap)
        return heap[0][0] if heap else math.inf

    def settle_next(self):
        """Settle and return the next (vertex, distance), or None if exhausted."""
        heap = self._heap
        settled = self.settled
        g = self.g
        with_q = self.q_mode == WITH_Q
        while heap:
            d, _, x = heappop(heap)
            if x in settled:
                continue
            settled[x] = d
            rx = g.vertex(x)
            sw_x = rx.weight
            q_x = rx.minorant
            best = self._best
            for e, data in g.neighbors(x):
                y = e.terminus
                if y in settled:
                    continue
                ry = g.vertex(y)
                wmin = sw_x if sw_x < ry.weight else ry.weight
                if with_q:
                    qmax = q_x if q_x > ry.minorant else ry.minorant
                    nd = d + math.sqrt(wmin) / math.sqrt(data.weight * qmax)
                else:
                    nd = d + math.sqrt(wmin) / math.sqrt(data.weight)
                if nd < best.get(y, math.inf):
                    best[y] = nd
                    self._count += 1
                    heappush(heap, (nd, self._count, y))
            return x, d
        return None


@dataclass
class SearchResult:
    distances: dict
    complete: bool  # the explored region was exhausted (no open frontier left)
    budget_hit: bool
    settled_radius: float  # all distances strictly below this value are final
    trail: list = field(default_factory=list)  # (settled_count, distance) checkpoints


def shortest_paths(g, x0, *, q_mode=WITH_Q, budget=None, radius=None, target=None,
                   trail_every=None) -> SearchResult:
    """Grow a shortest-path tree from ``x0`` until a stop condition is met.

    Stops when the frontier is exhausted, when every remaining frontier
    vertex is farther than ``radius``, when ``target`` has been settled, or
    when ``budget`` vertices have been settled, whichever comes first.
    """
    _check_q_mode(q_mode)
    if budget is None:
        budget = default_budget()
    frontier = _Frontier(g, x0, q_mode)
    trail = []
    while True:
        if len(frontier.settled) >= budget:
            return SearchResult(frontier.settled, False, True, frontier.peek_distance(), trail)
        if radius is not None and frontier.peek_distance() > radius:
            return SearchResult(frontier.settled, True, False, frontier.peek_distance(), trail)
        step = frontier.settle_next()
        if step is None:
            return SearchResult(frontier.settled, True, False, math.inf, trail)
        x, d = step
        if trail_every and len(frontier.settled) % trail_every == 0:
            trail.append((len(frontier.settled), d))
        if target is not None and x == target:
            return SearchResult(frontier.settled, False, False, frontier.peek_distance(), trail)


def distance(g, x, y, *, q_mode=WITH_Q, budget=None) -> Optional[float]:
    """Shortest-path distance, or None when unresolved within the budget."""
    if not g.has_vertex(x):
        raise UnknownVertexError(x)
    if not g.has_vertex(y):
        raise UnknownVertexError(y)
    if x == y:
        return 0.0
    result = shortest_paths(g, x, q_mode=q_mode, budget=budget, target=y)
    return result.distances.get(y)


@dataclass
class MetricBall:
    center: object
    radius: float
    q_mode: str
    members: dict  # vertex -> distance, all <= radius
    complete: bool  # False when the budget cut the frontier short

    def __contains__(self, x):
        return x in self.members

    def __len__(self):
        return len(self.members)

    def sorted_members(self):
        return sorted(self.members.items(), key=lambda kv: (kv[1], vertex_sort_key(kv[0])))


def ball(g, x0, radius, *, q_mode=WITH_Q, budget=None) -> MetricBall:
    """All vertices within ``radius`` of ``x0``; flagged incomplete on budget cut."""
    if radius < 0:
        raise InputError(f"ball radius must be nonnegative, got {radius}")
    result = shortest_paths(g, x0, q_mode=q_mode, budget=budget, radius=radius)
    members = {x: d for x, d in result.distances.items() if d <= radius}
    return MetricBall(x0, radius, q_mode, members, result.complete)


class AnchorFunction:
    """Distances from a base vertex, computed lazily and cached.

    Calls settle the frontier only as far as each queried vertex requires and
    raise :class:`BudgetExhaustedError` if that exceeds the budget.
    """

    def __init__(self, g, x0, *, q_mode=WITH_Q, budget=None):
        _check_q_mode(q_mode)
        self.x0 = x0
        self.budget = budget if budget is not None else default_budget()
        self._frontier = _Frontier(g, x0, q_mode)
        self._exhausted = False

    def __call__(self, x) -> float:
        settled = self._frontier.settled
        if x in settled:
            return settled[x]
        if not self._frontier.g.has_vertex(x):
            raise UnknownVertexError(x)
        while not self._exhausted:
            if len(settled) >= self.budget:
                raise BudgetExhaustedError(
                    f"distance from {self.x0!r} to {x!r} unresolved within budget {self.budget}")
            step = self._frontier.settle_next()
            if step is None:
                self._exhausted = True
                break
            if step[0] == x:
                return step[1]
        raise InputError(f"vertex {x!r} is not reachable from {self.x0!r}")


# -- series classification for one-dimensional ray families -----------------

@dataclass
class SeriesEvidence:
    exponent: Optional[float]  # stabilized decay exponent of the edge lengths
    harmonic_limit: Optional[float]  # limit of n * len(n) when the exponent is 1
    classification: Optional[str]  # "divergent" | "convergent" | None


def _classify_ray_series(g, q_mode) -> SeriesEvidence:
    """Classify sum of edge lengths along a ray by its power-law decay.

    Edge lengths built from the expression mini-language are asymptotically
    power laws, so a stabilized local exponent at geometrically spaced
    checkpoints decides convergence; the borderline exponent 1 falls back to
    the limit-comparison constant against the harmonic series.
    """
    js = list(range(8, 46))
    try:
        lengths = [edge_length(g, OrientedEdge(1 << j, (1 << j) + 1), q_mode) for j in js]
    except (OverflowError, ValueError, InputError):
        return SeriesEvidence(None, None, None)
    if any(not (L > 0) or not math.isfinite(L) for L in lengths):
        return SeriesEvidence(None, None, None)
    ps = [math.log2(lengths[i] / lengths[i + 1]) for i in range(len(lengths) - 1)]
    tail = ps[-6:]
    if max(tail) - min(tail) > 1e-6:
        return SeriesEvidence(None, None, None)
    p = tail[-1]
    if p > 1 + 1e-6:
        return SeriesEvidence(p, None, "convergent")
    if p < 1 - 1e-6:
        return SeriesEvidence(p, None, "divergent")
    cs = [(1 << j) * L for j, L in zip(js[-6:], lengths[-6:])]
    cmid = sorted(cs)[len(cs) // 2]
    if cmid > 0 and (max(cs) - min(cs)) <= 1e-6 * cmid:
        return SeriesEvidence(p, cmid, "divergent")
    return SeriesEvidence(p, None, None)


@dataclass
class CompletenessReport:
    x0: object
    budget: int
    settled_count: int
    settled_radius: float  # every vertex closer than this has been found
    frontier_open: bool
    ball_sizes: list  # (radius, member count) samples
    radius_trail: list  # (settled count, settled radius) checkpoints
    series: Optional[SeriesEvidence]
    verdict: str

    @property
    def exact(self) -> bool:
        return self.verdict.endswith("(exact)")


def _probe_trail_every(budget) -> int:
    """Trail cadence of the completeness probe: 64 checkpoints over the budget."""
    return max(1, budget // 64)


def completeness_probe(g, x0, budget=None) -> CompletenessReport:
    """Gather evidence for or against completeness of the weighted metric.

    Finite graphs are complete outright.  For ray families the edge-length
    series decides the question exactly (a divergent series means every
    Cauchy sequence stalls at finitely many vertices).  Otherwise the probe
    reports how the settled radius grows as the budget is spent: steady
    growth is evidence of completeness, a stalling radius with an open
    frontier is evidence of incompleteness.
    """
    if budget is None:
        budget = default_budget()
    result = shortest_paths(g, x0, q_mode=WITH_Q, budget=budget,
                            trail_every=_probe_trail_every(budget))
    return _completeness_report(g, x0, budget, result)


def _completeness_report(g, x0, budget, result) -> CompletenessReport:
    """The probe's verdict on a finished with-q search from ``x0``.

    ``result`` must come from :func:`shortest_paths` with ``budget`` and the
    trail cadence :func:`_probe_trail_every`.
    """
    dists = result.distances
    radius = result.settled_radius if result.budget_hit else (
        max(dists.values()) if dists else 0.0)
    samples = []
    if dists and radius > 0 and math.isfinite(radius):
        for frac in (0.25, 0.5, 0.75, 1.0):
            r = radius * frac
            samples.append((r, sum(1 for d in dists.values() if d <= r)))

    series = _classify_ray_series(g, WITH_Q) if getattr(g, "is_metric_ray", False) else None

    if not result.budget_hit:
        verdict = "complete (exact)"  # finite region exhausted: finite metric space
    elif series is not None and series.classification == "divergent":
        verdict = "complete (exact)"
    elif series is not None and series.classification == "convergent":
        verdict = "incomplete (exact)"
    else:
        trail = result.trail
        if len(trail) >= 4:
            half = trail[len(trail) // 2][1]
            full = trail[-1][1]
            growth = (full - half) / full if full > 0 else 0.0
            if growth > 0.02:
                verdict = f"evidence-of-completeness up to R={radius:.6g}"
            elif growth < 0.002:
                verdict = "evidence-of-incompleteness"
            else:
                verdict = "inconclusive"
        else:
            verdict = "inconclusive"

    return CompletenessReport(
        x0=x0,
        budget=budget,
        settled_count=len(dists),
        settled_radius=radius,
        frontier_open=result.budget_hit,
        ball_sizes=samples,
        radius_trail=result.trail,
        series=series,
        verdict=verdict,
    )


# -- cut-off functions -------------------------------------------------------

def _ramp(n, d) -> float:
    """The cut-off profile clamp((2n - d) / n, 0, 1) at distance d."""
    return min(max((2.0 * n - d) / n, 0.0), 1.0)


class CutoffFunction:
    """Piecewise-linear bump: 1 on the n-ball around x0, 0 outside the 2n-ball.

    chi(x) = clamp((2n - d(x0, x)) / n, 0, 1) with distances in the unit-q
    metric.  The support is finite whenever the 2n-ball is; construction
    fails with :class:`BudgetExhaustedError` otherwise.
    """

    def __init__(self, g, x0, n, *, budget=None):
        if not isinstance(n, int) or isinstance(n, bool) or n <= 0:
            raise InputError(f"cut-off index must be a positive integer, got {n!r}")
        self.graph = g
        self.x0 = x0
        self.n = n
        result = shortest_paths(g, x0, q_mode=UNIT_Q, budget=budget, radius=2.0 * n)
        if not result.complete:
            raise BudgetExhaustedError(
                f"the 2n-ball around {x0!r} (n={n}) was not settled within the budget")
        self._distances = {x: d for x, d in result.distances.items() if d <= 2.0 * n}

    def distance_to_base(self, x) -> Optional[float]:
        """The unit-q distance for members of the closed 2n-ball, else None."""
        return self._distances.get(x)

    def value(self, x) -> float:
        d = self._distances.get(x)
        if d is None:
            return 0.0  # outside the settled 2n-ball, where the ramp has hit zero
        return _ramp(self.n, d)

    __call__ = value

    def support(self):
        return sorted((x for x, d in self._distances.items() if d < 2.0 * self.n),
                      key=vertex_sort_key)

    def as_vertex_function(self):
        return VertexFunction({x: self.value(x) for x in self.support()})

    def tapered_profile(self):
        """chi(x) * q(x)**-0.5: the localization weight used in energy bounds."""
        g = self.graph
        return VertexFunction(
            {x: self.value(x) / math.sqrt(g.vertex(x).minorant) for x in self.support()})


@dataclass
class CutoffCheckReport:
    x0: object
    n: int
    support_size: int
    violations: list

    @property
    def ok(self) -> bool:
        return not self.violations


def _pair_distance(g, x, y, q_mode, budget) -> float:
    direct = edge_length(g, OrientedEdge(x, y), q_mode)
    result = shortest_paths(g, x, q_mode=q_mode, budget=budget, target=y,
                            radius=direct * (1 + 1e-9))
    return result.distances.get(y, direct)


def cutoff_property_check(g, x0, n, *, budget=None, slack=1e-12) -> CutoffCheckReport:
    """Verify the defining properties of the cut-off bump around ``x0``.

    Checks the [0, 1] range, the plateau on the n-ball and vanishing outside
    the 2n-ball, pointwise monotone convergence to 1 as n grows, finiteness
    of the support, and the per-edge gradient bound
    |chi(t) - chi(o)| <= d(o, t) / n in the unit-q metric.
    """
    if not isinstance(n, int) or isinstance(n, bool) or n <= 0:
        raise InputError(f"cut-off index must be a positive integer, got {n!r}")
    violations = []
    # settle slightly past 2n so vertices just outside the support are visible
    result = shortest_paths(g, x0, q_mode=UNIT_Q, budget=budget, radius=2.5 * n)
    if not result.complete:
        raise BudgetExhaustedError(
            f"the 2n-ball around {x0!r} (n={n}) was not settled within the budget")
    chi = CutoffFunction(g, x0, n, budget=budget)
    dists = result.distances

    for x, d in dists.items():
        val = chi.value(x) if d <= 2.0 * n else _ramp(n, d)
        if not (0.0 <= val <= 1.0):
            violations.append(("range", x, val))
        if d <= n and val != 1.0:
            violations.append(("plateau", x, val))
        if d >= 2.0 * n and val != 0.0:
            violations.append(("support", x, val))
        for m in (n + 1, 2 * n, 4 * n):
            if _ramp(m, d) < val - slack:
                violations.append(("monotone", x, _ramp(m, d) - val))

    # convergence: once m exceeds every settled distance the bump is flat 1
    m_limit = int(math.ceil(max(dists.values()))) + 1 if dists else 1
    for x, d in dists.items():
        if _ramp(m_limit, d) != 1.0:
            violations.append(("limit", x, _ramp(m_limit, d)))

    support = chi.support()
    seen = set()
    for x in support:
        for e, _ in g.neighbors(x):
            key = tuple(sorted((e.origin, e.terminus), key=vertex_sort_key))
            if key in seen:
                continue
            seen.add(key)
            co = chi.value(e.origin)
            ct = chi.value(e.terminus)
            bound = _pair_distance(g, e.origin, e.terminus, UNIT_Q, budget) / n
            if abs(ct - co) > bound + slack:
                violations.append(("gradient", e, abs(ct - co) - bound))

    return CutoffCheckReport(x0=x0, n=n, support_size=len(support), violations=violations)
