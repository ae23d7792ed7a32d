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

Searches start on the neighbor oracle (``_Frontier``).  One that is still
going after ``WINDOW_MIN`` settled vertices restarts on arrays: on the lazy
ray as running sums of edge lengths on each side of x0, evaluated a block
at a time, and on an explicit graph with float data as its whole graph,
one window built with it, searched by ``scipy.sparse.csgraph.dijkstra``.
Both paths settle in one order: by distance, ties by id
(:func:`~magschro.graphs.vertex_sort_key`), which a stable sort of
distances in id order gives.  The frontier keeps it wherever each edge
length changes the distance it is added to; one below half an ulp of it
lets the frontier settle a tie late.  ``SearchResult.method`` says which
path ran.  A ray search keeps no window: :func:`distance` and :func:`ball`
read ids from the settled rows, and the criteria check scans the settled
run's records (:meth:`SearchResult.records`).  Each growth of a ray search
is decided from ranks on the two sides of x0 (:func:`_settles_ends`), and
its distances are sorted once, when it stops; both stop by one rule
(:func:`_stop`).
"""

from __future__ import annotations

import math
import os
from collections.abc import Hashable
from dataclasses import dataclass
from heapq import heappop, heappush
from typing import Optional

import numpy as np

from .errors import BudgetExhaustedError, InputError, UnknownVertexError
from .functions import VertexFunction
from .graphs import OrientedEdge, as_edge, int_id, normalize_edge, sorted_ids, vertex_sort_key

WITH_Q = "with-q"
UNIT_Q = "unit-q"

_BUDGET_ENV = "MAGSCHRO_BUDGET"
_DEFAULT_BUDGET = 250_000
CUTOFF_SLACK = 1e-12  # of the monotone and gradient comparisons in cutoff_property_check


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


def _resolve_budget(budget) -> int:
    """A caller's settlement budget: None means :func:`default_budget`."""
    if budget is None:
        return default_budget()
    if not isinstance(budget, int) or isinstance(budget, bool) or budget < 1:
        raise InputError(f"budget must be a positive integer, got {budget!r}")
    return budget


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
    """Resumable Dijkstra over the lazy neighbor oracle; ties settle by id."""

    __slots__ = ("g", "q_mode", "settled", "_heap", "_best")

    def __init__(self, g, x0, q_mode):
        if not g.has_vertex(x0):
            raise UnknownVertexError(x0)
        self.g = g
        self.q_mode = q_mode
        self.settled = {}
        self._heap = [(0.0, isinstance(x0, str), x0)]  # (distance, *vertex_sort_key(x))
        self._best = {x0: 0.0}

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
                    heappush(heap, (nd, isinstance(y, str), y))
            return x, d
        return None


class SearchResult:
    """Where a search stopped and what it settled.

    ``distances`` maps each settled vertex to its distance, in settle order
    (by distance, ties by id), and :meth:`settled_distances` gives those
    distances as one array; a caller that wants checkpoints reads them from
    it.  ``method`` names the path that produced it: ``"frontier"``
    (Dijkstra over the neighbor oracle) or ``"window"`` (arrays: an explicit
    graph's whole window or the span of the ray that the search evaluated).
    An array result keeps its settled vertices as rows ``order`` and builds
    ``distances`` only when it is read.  ``window`` is the explicit graph's
    whole window when the search ran on it, else None.  A ray result's rows
    are ids ``lo + order``, and its records are read by :meth:`records`.
    """

    def __init__(self, complete, budget_hit, settled_radius, *, distances=None,
                 window=None, order=None, settled=None, span=None, records=None):
        self.complete = complete  # the explored region was exhausted (no open frontier left)
        self.budget_hit = budget_hit
        self.settled_radius = settled_radius  # the next frontier distance; all below are final
        self.method = "frontier" if order is None else "window"
        self.order = order
        self.window = window  # the explicit graph's whole window it ran on, else None
        self._span = span  # a ray search's ids lo..hi: row i is id lo + i
        self._records = records  # and its blocks of w, W, q, a over lo..hi
        self._distances = distances
        self._settled = settled  # settled distances in settle order

    def records(self):
        """A ray search's first id lo and its records w, W, q and a over
        lo..hi, one array each: row i is id lo + i, and a(n) weights the edge
        n ~ n + 1.  None for other searches."""
        if self._span is None:
            return None
        columns = self._records
        for k, blocks in enumerate(columns):  # one column at a time, freeing its blocks
            if len(blocks) > 1:
                columns[k] = [np.concatenate(blocks)]
        return (self._span[0], *(blocks[0] for blocks in columns))

    @property
    def distances(self) -> dict:
        if self._distances is None:
            ids = self.window.ids[self.order] if self._span is None else self._span[0] + self.order
            self._distances = dict(zip(ids.tolist(), self._settled.tolist()))
        return self._distances

    def settled_distances(self) -> np.ndarray:
        """The settled distances in settle order, which is nondecreasing."""
        if self._settled is None:
            self._settled = np.fromiter(self._distances.values(), float, len(self._distances))
        return self._settled

    def get(self, x) -> Optional[float]:
        """The distance of ``x`` if the search settled it, else None."""
        if self._distances is None:  # no row, None, is equal to no entry of order
            hit = np.flatnonzero(self.order == self._row_of(x))
            return self._settled[hit[0]].item() if len(hit) else None
        try:
            return self._distances.get(x)
        except TypeError:  # unhashable, so equal to no vertex
            return None

    def _row_of(self, x):
        """The row of ``x``: the window's ``row_of(x)``, on a ray run int_id(x) - lo."""
        if self._span is None:
            return self.window.row_of(x)
        lo, hi = self._span
        n = int_id(x) if isinstance(x, Hashable) else None  # unhashable: equal to no vertex
        return n - lo if n is not None and lo <= n <= hi else None


#: settled vertices after which a search restarts on arrays, when the graph
#: holds them: the measured crossover of the two paths (see ROADMAP)
WINDOW_MIN = 256


def shortest_paths(g, x0, *, q_mode=WITH_Q, budget=None, radius=None,
                   target=None) -> SearchResult:
    """Grow a shortest-path tree from ``x0`` until a stop condition is met.

    Stops when the frontier is exhausted, when every remaining frontier
    vertex is farther than ``radius``, when ``target`` has been settled, or
    when ``budget`` vertices have been settled, whichever comes first.  The
    budget is tested before the radius.  The result holds every settled
    distance in settle order, so the search itself keeps no checkpoints.

    Once ``WINDOW_MIN`` vertices have settled, a search that is still going
    restarts on the ray's running sums or an explicit graph's whole window
    when it can, and otherwise goes on here; the result is the same.
    """
    _check_q_mode(q_mode)
    budget = _resolve_budget(budget)
    if radius is not None and radius != radius:
        raise InputError("search radius must not be NaN")
    if not isinstance(target, Hashable):
        target = None  # equal to no vertex, as in SearchResult.get, so never settled
    frontier = _Frontier(g, x0, q_mode)
    settled = frontier.settled
    while True:
        count = len(settled)
        if count >= budget:
            return SearchResult(False, True, frontier.peek_distance(), distances=settled)
        if radius is not None and frontier.peek_distance() > radius:
            return SearchResult(True, False, frontier.peek_distance(), distances=settled)
        if count == WINDOW_MIN:
            ray = getattr(g, "is_metric_ray", False)
            found = (_ray_search if ray else _search_window)(g, x0, q_mode, budget, radius, target)
            if found is not None:
                return found
        step = frontier.settle_next()
        if step is None:
            return SearchResult(True, False, math.inf, distances=settled)
        if target is not None and step[0] == target:
            return SearchResult(False, False, frontier.peek_distance(), distances=settled)


def _lengths(w, q, w_to, q_to, a, with_q):
    """Edge lengths sqrt(min w) / sqrt(a * max q) per entry, as _Frontier
    computes them (q = 1 in unit-q mode); a product that overflows gives 0."""
    with np.errstate(over="ignore"):
        return np.sqrt(np.minimum(w, w_to)) / np.sqrt(a * np.maximum(q, q_to) if with_q else a)


def _stop(below, t, budget, radius):
    """The frontier's stop rule on distances in settle order: ``below(v,
    side)`` counts those below v (up to v with side "right") and ``t`` is
    the target's rank, or None.  Budget, radius and exhaustion stop before a
    settle, the target after it.  Returns how many settle, then ``complete``
    and ``budget_hit``."""
    reach = below(math.inf, "left")
    stop = reach if radius is None else min(reach, below(radius, "right"))
    if t is not None and t < min(budget, stop):  # stop <= reach
        return t + 1, False, False
    return min(budget, stop), budget > stop, budget <= stop


def _settle(dist, row, budget, radius):
    """The frontier loop replayed on the distances of a window's rows, in id
    order, with the target at ``row`` (or None): a stable sort settles by
    distance, ties by id, and :func:`_stop` says where it stops.  Returns
    the settled rows and distances in settle order, then ``complete``,
    ``budget_hit`` and the settled radius."""
    order = np.argsort(dist, kind="stable")
    ds = dist[order]
    t = None if row is None else int(np.flatnonzero(order == row)[0])
    k, *flags = _stop(lambda v, side: int(np.searchsorted(ds, v, side)), t, budget, radius)
    return order[:k], ds[:k], *flags, float(ds[k]) if k < len(ds) else math.inf


def _search_window(g, x0, q_mode, budget, radius, target):
    """:func:`shortest_paths` on the graph's whole window, searched by
    ``scipy.sparse.csgraph.dijkstra``; None when it has none or a length is
    zero or infinite."""
    win = g.whole_window()
    if win is None:
        return None
    rows, cols = win.rows(), win.indices
    lengths = np.empty(len(cols))
    for b in (slice(i, i + (1 << 18)) for i in range(0, len(cols), 1 << 18)):  # bounds temporaries
        r, c = rows[b], cols[b]
        lengths[b] = _lengths(win.w[r], win.q[r], win.w[c], win.q[c], win.a[b], q_mode == WITH_Q)
    if not np.all((lengths > 0) & (lengths < math.inf)):
        return None  # csgraph drops zero lengths, and the frontier divides by zero weights
    from scipy.sparse import csgraph, csr_matrix  # imported here: small searches never pay for it

    dist = csgraph.dijkstra(csr_matrix((lengths, cols, win.indptr), shape=(len(win.ids),) * 2),
                            indices=win.row_of(x0))
    order, ds, *flags = _settle(dist, win.row_of(target), budget, radius)
    return SearchResult(*flags, window=win, order=order, settled=ds)


def _ray_search(g, x0, q_mode, budget, radius, target):
    """:func:`shortest_paths` on the lazy ray ``g`` as two running sums: each
    side of ``x0`` is evaluated ``2 * WINDOW_MIN`` vertices out, then doubles
    while the search settles its end (:func:`_grow`).  An invalid record
    ends a side next to it.  None when the search settles the end of a side
    so ended, a length is zero or infinite, or ids would pass int64; the
    frontier then goes on, and raises a record's error."""
    top = np.iinfo(np.int64).max  # np.arange makes floats past it
    if x0 + 2 * WINDOW_MIN >= top:
        return None
    n = int_id(target)
    columns = [[column] for column in g._records(x0, x0)]  # the blocks of w, W, q, a over lo..hi
    dist = np.zeros(1)  # the distances over lo..hi, in id order
    lo = hi = x0
    cut, grow = [False, False], (x0 > 1, True)  # cut: an invalid record ends the left, right side
    while True:
        for side in (0, 1):
            if not grow[side]:
                continue
            end, step = (hi, 1) if side else (lo, -1)
            far = max(1, x0 + step * max(2 * WINDOW_MIN, 2 * abs(end - x0)))
            grown = None if far >= top or cut[side] else _grow(g, columns, dist, end, far, q_mode)
            if grown is None:
                return None
            added, dist = len(grown) - len(dist), grown
            cut[side] = added < abs(far - end)
            lo, hi = (lo, hi + added) if side else (lo - added, hi)
        row = n - lo if n is not None and lo <= n <= hi else None
        first, last = _settles_ends(dist, x0 - lo, row, budget, radius)
        grow = lo > 1 and first, last
        if not any(grow):
            order, ds, *flags = _settle(dist, row, budget, radius)
            return SearchResult(*flags, order=order, settled=ds, span=(lo, hi), records=columns)


def _settles_ends(dist, mid, row, budget, radius):
    """Whether :func:`_settle` settles the first and the last row of
    ``dist``, distances that do not rise up to row ``mid`` and do not fall
    from it, as on the ray from ``mid`` out: each rank in the stable sort is
    counted on the two sorted sides by ``np.searchsorted``, so nothing is
    sorted."""
    left, right = np.ascontiguousarray(dist[:mid][::-1]), dist[mid:]

    def below(v, side="left"):  # the rows whose distance is below v (up to v: "right")
        return int(np.searchsorted(left, v, side)) + int(np.searchsorted(right, v, side))

    def rank(r):  # the rows of smaller id up to dist[r], then those of larger id below it
        v = dist[r]
        before = int(np.searchsorted(left, v, "right")) - mid + r
        return before if r >= mid else before + below(v)

    k = _stop(below, None if row is None else rank(row), budget, radius)[0]
    return rank(0) < k, rank(len(dist) - 1) < k


def _grow(g, columns, dist, end, far, q_mode):
    """The distances ``dist`` over the records in ``columns`` extended past
    ``end`` up to ``far``, adding the new records' blocks to ``columns``:
    ``np.cumsum`` adds outwards from the distance at ``end``, as the
    frontier adds ``d + len``, so the bits are the frontier's.  Evaluated
    from ``end`` outwards, a side stops short of ``far`` next to an invalid
    record.  None when a length is zero or infinite."""
    step = 1 if far > end else -1
    new = g._records(min(end + step, far), max(end + step, far), top=step < 0)
    tip = [column[-1][-1:] if step > 0 else column[0][:1] for column in columns]
    w, q, a = (np.concatenate([tip[k], new[k]][::step]) for k in (0, 2, 3))
    lengths = _lengths(w[:-1], q[:-1], w[1:], q[1:], a[:-1], q_mode == WITH_Q)
    del w, q, a  # the search's peak memory is this growth's
    if not np.all((lengths > 0) & (lengths < math.inf)):
        return None
    run = lengths[::step]  # from end outwards; the sums from end's distance overwrite it
    run[:1] += dist[-1] if step > 0 else dist[0]
    np.cumsum(run, out=run)
    for column, block in zip(columns, new):
        column.insert(len(column) if step > 0 else 0, block)
    return np.concatenate([dist, lengths] if step > 0 else [lengths, dist])


def distance(g, x, y, *, q_mode=WITH_Q, budget=None) -> Optional[float]:
    """Shortest-path distance, or None when unresolved within the budget."""
    for vertex in (x, y):
        if not g.has_vertex(vertex):
            raise UnknownVertexError(vertex)
    return shortest_paths(g, x, q_mode=q_mode, budget=budget, target=y).get(y)


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
    if not radius >= 0:
        raise InputError(f"ball radius must be nonnegative, got {radius}")
    result = shortest_paths(g, x0, q_mode=q_mode, budget=budget, radius=radius)
    return MetricBall(x0, radius, q_mode, result.distances, result.complete)


class AnchorFunction:
    """Distances from a base vertex, computed lazily and cached.

    Calls settle the frontier only as far as each queried vertex requires and
    raise :class:`BudgetExhaustedError` if that exceeds the budget.
    """

    def __init__(self, g, x0, *, q_mode=WITH_Q, budget=None):
        _check_q_mode(q_mode)
        self.x0 = x0
        self.budget = _resolve_budget(budget)
        self._frontier = _Frontier(g, x0, q_mode)

    def __call__(self, x) -> float:
        settled = self._frontier.settled
        if x in settled:
            return settled[x]
        if not self._frontier.g.has_vertex(x):
            raise UnknownVertexError(x)
        while len(settled) < self.budget:  # once exhausted, settle_next stays None
            step = self._frontier.settle_next()
            if step is None:
                raise InputError(f"vertex {x!r} is not reachable from {self.x0!r}")
            if step[0] == x:
                return step[1]
        raise BudgetExhaustedError(
            f"distance from {self.x0!r} to {x!r} unresolved within budget {self.budget}")


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


def completeness_probe(g, x0, budget=None) -> CompletenessReport:
    """Gather evidence for or against completeness of the weighted metric.

    Finite graphs are complete outright.  For ray families the edge-length
    series decides the question exactly (a divergent series means every
    Cauchy sequence stalls at finitely many vertices).  Otherwise the probe
    reports how the settled radius grows as the budget is spent: steady
    growth is evidence of completeness, a stalling radius with an open
    frontier is evidence of incompleteness.
    """
    budget = _resolve_budget(budget)
    result = shortest_paths(g, x0, q_mode=WITH_Q, budget=budget)
    return _completeness_report(g, x0, budget, result)


def _completeness_report(g, x0, budget, result) -> CompletenessReport:
    """The probe's verdict on a finished with-q search from ``x0`` with ``budget``.

    The radius trail checkpoints the settled distances 64 times over the
    budget.
    """
    dists = result.settled_distances()
    count = len(dists)
    every = max(1, budget // 64)
    trail = [(j, dists[j - 1].item()) for j in range(every, count + 1, every)]
    radius = result.settled_radius if result.budget_hit else (
        dists[-1].item() if count else 0.0)
    samples = []
    if count and radius > 0 and math.isfinite(radius):
        for frac in (0.25, 0.5, 0.75, 1.0):
            r = radius * frac
            samples.append((r, int(np.searchsorted(dists, r, side="right"))))

    series = _classify_ray_series(g, WITH_Q) if getattr(g, "is_metric_ray", False) else None

    if not result.budget_hit:
        verdict = "complete (exact)"  # finite region exhausted: finite metric space
    elif series is not None and series.classification == "divergent":
        verdict = "complete (exact)"
    elif series is not None and series.classification == "convergent":
        verdict = "incomplete (exact)"
    elif len(trail) >= 4:
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
        settled_count=count,
        settled_radius=radius,
        frontier_open=result.budget_hit,
        ball_sizes=samples,
        radius_trail=trail,
        series=series,
        verdict=verdict,
    )


# -- cut-off functions -------------------------------------------------------

def _ramp(n, d) -> float:
    """The cut-off profile clamp((2n - d) / n, 0, 1) at distance d."""
    return min(max((2.0 * n - d) / n, 0.0), 1.0)


def _cutoff_ball(g, x0, n, budget, reach):
    """The unit-q distances from ``x0`` up to ``reach * n`` for the cut-off
    index ``n``, all settled; a search stopped by its radius settles nothing
    past it, so every distance is within it.  A budget that stops the search
    first raises, naming that radius."""
    if not isinstance(n, int) or isinstance(n, bool) or n <= 0:
        raise InputError(f"cut-off index must be a positive integer, got {n!r}")
    result = shortest_paths(g, x0, q_mode=UNIT_Q, budget=budget, radius=reach * n)
    if not result.complete:
        raise BudgetExhaustedError(
            f"the {reach:g}n-ball around {x0!r} (n={n}) was not settled within the budget")
    return result.distances


class CutoffFunction:
    """Piecewise-linear bump: 1 on the n-ball around x0, 0 outside the 2n-ball.

    chi(x) = clamp((2n - d(x0, x)) / n, 0, 1) with distances in the unit-q
    metric.  The support is finite whenever the 2n-ball is; construction
    fails with :class:`BudgetExhaustedError` otherwise.
    """

    def __init__(self, g, x0, n, *, budget=None):
        self._distances = _cutoff_ball(g, x0, n, budget, 2.0)
        self.graph = g
        self.x0 = x0
        self.n = n

    def value(self, x) -> float:
        d = self._distances.get(x)
        if d is None:
            return 0.0  # outside the settled 2n-ball, where the ramp has hit zero
        return _ramp(self.n, d)

    __call__ = value

    def support(self):
        return sorted_ids([x for x, d in self._distances.items() if d < 2.0 * self.n])

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


def cutoff_property_check(g, x0, n, *, budget=None) -> CutoffCheckReport:
    """Verify the defining properties of the cut-off bump around ``x0``.

    Checks the [0, 1] range, the plateau on the n-ball and vanishing outside
    the 2n-ball, pointwise monotone convergence to 1 as n grows, finiteness
    of the support, and the per-edge gradient bound
    |chi(t) - chi(o)| <= d(o, t) / n in the unit-q metric.
    """
    # settle slightly past 2n so vertices just outside the support are visible
    dists = _cutoff_ball(g, x0, n, budget, 2.5)
    violations = []
    # chi from this search: its distances up to 2n are those of the 2n-ball's
    chi = {x: _ramp(n, d) for x, d in dists.items()}

    for x, d in dists.items():
        val = chi[x]
        if not (0.0 <= val <= 1.0):
            violations.append(("range", x, val))
        if d <= n and val != 1.0:
            violations.append(("plateau", x, val))
        if d >= 2.0 * n and val != 0.0:
            violations.append(("support", x, val))
        for m in (n + 1, 2 * n, 4 * n):
            if _ramp(m, d) < val - CUTOFF_SLACK:
                violations.append(("monotone", x, _ramp(m, d) - val))

    # convergence: once m exceeds every settled distance the bump is flat 1
    m_limit = int(math.ceil(max(dists.values()))) + 1 if dists else 1
    for x, d in dists.items():
        if _ramp(m_limit, d) != 1.0:
            violations.append(("limit", x, _ramp(m_limit, d)))

    support = sorted_ids([x for x, d in dists.items() if d < 2.0 * n])
    seen = set()
    for x in support:
        for e, _ in g.neighbors(x):
            key = normalize_edge(e)
            if key in seen:
                continue
            seen.add(key)
            co = chi.get(e.origin, 0.0)
            ct = chi.get(e.terminus, 0.0)
            found = distance(g, e.origin, e.terminus, q_mode=UNIT_Q, budget=budget)
            bound = (edge_length(g, e, UNIT_Q) if found is None else found) / n
            if abs(ct - co) > bound + CUTOFF_SLACK:
                violations.append(("gradient", e, abs(ct - co) - bound))

    return CutoffCheckReport(x0=x0, n=n, support_size=len(support), violations=violations)
