"""Energy bounds and the metric-tapered symmetry defect.

The central quantity is the minorant-weighted gradient energy

    E(u)^2 = sum over canonical edges of min(1/q(o), 1/q(t)) a(e) |du(e)|^2

which, under the self-adjointness conditions, is controlled by the norms of
u and Hu alone.  The tapered symmetry defect weights the pointwise defect
(Hu) conj(v) - u conj(Hv) by a ramp that vanishes beyond metric radius s
from a base vertex; its size is controlled by E(u), E(v) and 1/s, and it
recovers the plain defect (which vanishes for finitely supported inputs) as
s grows.  :func:`tapered_defect_profile` checks it at several radii, sharing
everything but the ramp.

Each check reads one :class:`~magschro.operators.Patch`, the one-hop closure
of the supports (the gradient inequality also reads that of phi), and works
on its arrays: u, v, Hu and Hv by row, the energies by edge, the weights
from the window.  The results are those of the defining loops over Python
scalars, bit for bit: sums run in the loop's order (vertices in id order,
edges in edge order) from the loop's start (0, or 0.0 where the loop starts
there), complex products go through
:func:`~magschro.operators.python_product`, and moduli are Python's
``abs(x) ** 2`` of each scalar.  Exact data go through object arrays, where
an int weight of phi stays an int.  The anchor distance is read only where
the defect is nonzero, in id order, as the loop reads it.

``ComplexRational`` takes no float factor.  The taper ramp (1 - d/s)^+ is a
float, and so is a float weight of phi or a float phase; where one meets a
``ComplexRational`` value, the tapered defect and the gradient inequality
raise :class:`~magschro.errors.InputError` naming the limit.  Fraction data
and the energy bound have no such limit.
"""

from __future__ import annotations

import math
import numbers
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .criteria import lipschitz_best_constant
from .errors import (InputError, MinorantViolationError, overflow_error, require_finite,
                     require_nonnegative)
from .functions import VertexFunction, support_union
from .metric import AnchorFunction, WITH_Q
from .operators import Patch, python_product

SLACK_TOL = 1e-10


def _require_real(phi: VertexFunction):
    for x, v in phi.items():
        if not isinstance(v, numbers.Real):
            raise InputError(f"phi must be real-valued; phi({x!r}) = {v!r}")


@contextmanager
def _float_factors(limit):
    """Raise an InputError naming ``limit`` for the TypeError that a
    ComplexRational raises when it meets a float."""
    try:
        yield
    except TypeError:
        raise InputError(f"{limit}, and ComplexRational values take no float factor") from None


def _require_minorant(win, context):
    """Refuse a window where W >= -q fails, naming the failing vertices in id order."""
    at = np.flatnonzero(win.W < -win.q)
    bad = list(zip(win.ids[at].tolist(), (win.W[at] + win.q[at]).tolist()))
    if bad:
        raise MinorantViolationError(
            f"{context}: W >= -q fails at {len(bad)} vertex(es), first at "
            f"{bad[0][0]!r} by {-bad[0][1]}", violations=bad)


def _degree_bound(g, degree_bound):
    """The given degree bound, else the graph's declared or (finite) observed one."""
    if degree_bound is None:
        degree_bound = g.degree_bound if g.degree_bound is not None else (
            max(g.degree(x) for x in g.vertices()) if g.is_finite else None)
    if degree_bound is None:
        raise InputError("a degree bound is required for graphs without a declared one")
    return degree_bound


def _scalars(values, like=None) -> np.ndarray:
    """The Python scalars ``values`` as an array to multiply ``like`` by: objects,
    as they are, where ``like`` holds objects, since an exact number must meet
    an int as an int and not as the float that numpy makes of it in a mix."""
    return np.array(values, dtype=object if like is not None and like.dtype == object else None)


def _squares(values, like=None) -> np.ndarray:
    """``abs(x) ** 2`` of each value as a Python scalar (``np.abs`` of a complex128
    can differ from Python's ``abs`` in the last bit), as :func:`_scalars`."""
    try:
        return _scalars([abs(x) ** 2 for x in values.tolist()], like)
    except OverflowError:  # abs or the square past the float range
        raise overflow_error() from None


def _sum(P, terms):
    """The sum of a loop that adds the ``terms`` in turn to the int 0, as a
    Python scalar (numpy's zero of their dtype adds as the int 0 does)."""
    return P.sums((terms, np.zeros(len(terms), np.intp))).tolist()[0]


def _float_sum(P, terms):
    """The sum of a loop that adds the ``terms`` in turn to 0.0: each exact
    term turns into a float as it is added, and a complex one makes it complex."""
    return _sum(P, terms if terms.dtype.kind == "c" else terms.astype(np.float64))


def _norm(P, values) -> float:
    """The weighted norm of the function with ``values`` by row of ``P``."""
    at = np.flatnonzero(values != 0)
    w = P.window.w[at]
    return math.sqrt(_float_sum(P, w * _squares(values[at], w)))


def _gradient(P, uu):
    """The numbers of the edges of ``P`` where du is nonzero, and |du|^2 there."""
    du = P.differential(uu)
    at = np.flatnonzero(du != 0)
    du2 = _squares(du[at])
    require_finite(*du2.tolist())
    return at, du2


def _energy(P, uu):
    """The squared minorant-weighted energy of the function with values ``uu``
    by row of ``P``, the edges where du is nonzero and the energy's term on each."""
    at, du2 = _gradient(P, uu)
    q = P.window.q
    terms = 1.0 / np.maximum(q[P.o[at]], q[P.t[at]]) * P.ca[at] * du2
    return float(_sum(P, terms)), at, terms


def _contributions(P, at, terms) -> dict:
    """The energy's term on each edge ``at``, keyed by its ends in id order."""
    ids = P.window.ids
    return dict(zip(zip(ids[P.o[at]].tolist(), ids[P.t[at]].tolist()), terms.tolist()))


def minorant_weighted_energy(g, u: VertexFunction):
    """The squared energy and its per-edge contributions.

    Returns ``(value, contributions)`` where contributions maps each
    normalized edge to min(1/q(o), 1/q(t)) a(e) |du(e)|^2.
    """
    P = Patch.closure(g, u.support)
    energy_sq, at, terms = _energy(P, P.vector(u))
    return energy_sq, _contributions(P, at, terms)


def _weighted_gradient_energy(P, uu, phi: VertexFunction) -> float:
    at, du2 = _gradient(P, uu)
    ids = P.window.ids
    po, pt = (np.array([phi(x) for x in ids[end[at]].tolist()]) for end in (P.o, P.t))
    return math.sqrt(_sum(P, P.ca[at] * du2 * ((po ** 2 + pt ** 2) / 2)))


def weighted_gradient_energy(g, u: VertexFunction, phi: VertexFunction) -> float:
    """sqrt of sum over canonical edges of a(e) |du(e)|^2 mean(phi^2)(e)."""
    _require_real(phi)
    P = Patch.closure(g, u.support)
    return _weighted_gradient_energy(P, P.vector(u), phi)


@dataclass
class GradientEnergyReport:
    energy_sq: float  # left-hand side
    operator_term: float  # |(phi^2 Hu, u)|
    minorant_term: float  # (phi^2 q u, u)
    commutator_term: float  # 2 I (sum a |dphi|^2 |phased-mean(conj u)|^2)^(1/2)
    slack: float
    passed: bool

    @property
    def bound(self) -> float:
        return self.operator_term + self.minorant_term + self.commutator_term


def _at_rows(values, rows, inside, w):
    """``values`` at ``rows`` and 0 where not ``inside``: the int 0 of a missing
    dict value where ``values`` or the weights ``w`` are objects."""
    out = np.zeros(len(rows), np.result_type(values, w))
    out[inside] = values[rows[inside]]
    return out


def gradient_energy_inequality(g, u: VertexFunction, phi: VertexFunction) -> GradientEnergyReport:
    """Check the localization inequality for the phi-weighted gradient energy.

    Requires W >= -q on the support of phi and its one-hop neighborhood,
    since the minorant term absorbs the potential there.  That closure,
    read once, also holds every edge of the commutator term.
    """
    _require_real(phi)
    win = g.closure_window(phi.support)
    _require_minorant(win, "gradient energy inequality")

    P = Patch.closure(g, u.support)
    uu = P.vector(u)
    energy = _weighted_gradient_energy(P, uu, phi)
    energy_sq = energy ** 2

    # phi, u and Hu by row of phi's window; u and Hu are the loop's 0 off u's patch
    ids = win.ids.tolist()
    ph = [phi(x) for x in ids]
    rows = np.array([P.row.get(x, -1) for x in ids], np.int64)
    inside = rows >= 0
    uw, Huw = (_at_rows(f, rows, inside, win.w) for f in (uu, P.schrodinger(uu)))

    phi2 = _scalars([p ** 2 for p in ph], win.w)
    at = np.flatnonzero(phi2 != 0)
    wp = win.w[at] * phi2[at]
    floats = "gradient energy inequality: a weight of phi or a phase is a float"
    with _float_factors(floats):
        op_term = abs(_sum(P, python_product(wp * Huw[at], np.conj(uw[at])))) if len(at) else 0
    wpq = wp * win.q[at]
    minorant_term = _float_sum(P, wpq * _squares(uw[at], wpq))

    # the entries o -> t with o < t, in edge order; dphi vanishes unless an end is in supp phi
    src, dst = win.rows(), win.indices
    at = np.flatnonzero(src < dst)
    o, t = src[at], dst[at]
    ph = _scalars(ph, win.a)
    dphi = ph[t] - ph[o]
    moving = np.flatnonzero(dphi != 0)
    o, t, at = o[moving], t[moving], at[moving]
    with _float_factors(floats):
        phased = (python_product(win.sigma[at], np.conj(uw[t])) + np.conj(uw[o])) / 2
    a = win.a[at] * _squares(dphi[moving], win.a)
    cross = _float_sum(P, a * _squares(phased, a))
    commutator_term = 2.0 * energy * math.sqrt(cross)

    bound = op_term + minorant_term + commutator_term
    slack = bound - energy_sq
    scale = max(energy_sq, bound, 1.0)
    return GradientEnergyReport(
        energy_sq=energy_sq,
        operator_term=op_term,
        minorant_term=minorant_term,
        commutator_term=commutator_term,
        slack=slack,
        passed=slack >= -SLACK_TOL * scale,
    )


@dataclass
class EnergyBreakdown:
    energy_sq: float  # left-hand side
    bound: float  # 2 ((2 C^2 N + 1) |u|^2 + |Hu| |u|)
    lipschitz_constant: float
    degree_bound: int
    contributions: dict  # normalized edge -> per-edge share of the energy
    slack: float
    passed: bool


def energy_bound_check(g, u: VertexFunction, *, lipschitz_constant=None,
                       degree_bound=None) -> EnergyBreakdown:
    """Check the minorant-weighted energy against the operator-norm bound.

    The constants must be globally valid: the degree bound defaults to the
    graph's declared bound and the Lipschitz constant, when omitted, is the
    measured best constant (finite graphs only, where it is global).
    Refuses regions where W >= -q fails, since the bound presumes it, and a
    Lipschitz constant that is NaN, infinite or negative.
    """
    require_nonnegative("the Lipschitz constant", lipschitz_constant)
    P = Patch.closure(g, u.support)
    _require_minorant(P.window, "energy bound")

    degree_bound = _degree_bound(g, degree_bound)
    if lipschitz_constant is None:
        if not g.is_finite:
            raise InputError("a Lipschitz constant is required on infinite graphs")
        lipschitz_constant = lipschitz_best_constant(g, g.vertices()).constant

    uu = P.vector(u)
    energy_sq, at, terms = _energy(P, uu)
    nu, nHu = _norm(P, uu), _norm(P, P.schrodinger(uu))
    bound = 2.0 * ((2.0 * lipschitz_constant ** 2 * degree_bound + 1.0) * nu ** 2 + nHu * nu)
    slack = bound - energy_sq
    scale = max(energy_sq, bound, 1.0)
    return EnergyBreakdown(
        energy_sq=energy_sq,
        bound=bound,
        lipschitz_constant=lipschitz_constant,
        degree_bound=degree_bound,
        contributions=_contributions(P, at, terms),
        slack=slack,
        passed=slack >= -SLACK_TOL * scale,
    )


def _require_radius(s):
    if not s > 0:
        raise InputError(f"taper radius must be positive, got {s}")


def _tapered_defects(g, P, uu, vv, x0, radii, anchor_fn):
    """The tapered defect of the functions with values ``uu`` and ``vv`` by row
    of ``P`` at each radius of ``radii``: the loop's int 0 where no term is left."""
    if anchor_fn is None:
        anchor_fn = AnchorFunction(g, x0, q_mode=WITH_Q)
    Hu, Hv = P.schrodinger(uu), P.schrodinger(vv)
    defect = python_product(Hu, np.conj(vv)) - python_product(uu, np.conj(Hv))
    rows = np.flatnonzero(defect != 0)
    d = np.array([anchor_fn(x) for x in P.window.ids[rows].tolist()])
    defect, w = defect[rows], P.window.w[rows]
    values = []
    for s in radii:
        ramp = 1.0 - d / s
        kept = np.flatnonzero(ramp > 0)
        with _float_factors("tapered defect: the taper ramp 1 - d/s is a float"):
            values.append(_sum(P, ramp[kept] * defect[kept] * w[kept]) if len(kept) else 0)
    return values


def tapered_symmetry_defect(g, u: VertexFunction, v: VertexFunction, x0, s,
                            *, anchor_fn: Optional[AnchorFunction] = None):
    """The ramp-weighted symmetry defect at taper radius s.

    Sums (1 - P(x)/s)^+ ((Hu)(x) conj(v(x)) - u(x) conj((Hv)(x))) w(x) in
    ascending vertex order, with P the metric distance from x0.  The sum is
    finite because u and v are; vertices outside metric radius s contribute
    nothing, and with no term left the sum is the int 0.
    """
    _require_radius(s)
    P = Patch.closure(g, support_union(u, v))
    return _tapered_defects(g, P, P.vector(u), P.vector(v), x0, [s], anchor_fn)[0]


@dataclass
class TaperedDefectReport:
    value: complex
    bound: float  # sqrt(N)/s (|v| E(u) + |u| E(v))
    slack: float
    passed: bool


def tapered_defect_profile(g, u: VertexFunction, v: VertexFunction, x0, radii, *,
                           degree_bound=None, anchor_fn: Optional[AnchorFunction] = None
                           ) -> list:
    """Check the tapered defect against its energy bound at each radius of
    ``radii``, one :class:`TaperedDefectReport` per radius.

    The patch, Hu and Hv, the pointwise defect, the anchor distances, the
    energies and the norms are taken once; only the ramp depends on the radius.
    """
    degree_bound = _degree_bound(g, degree_bound)
    P = Patch.closure(g, support_union(u, v))
    radii = list(radii)
    for s in radii:
        _require_radius(s)
    uu, vv = P.vector(u), P.vector(v)
    values = _tapered_defects(g, P, uu, vv, x0, radii, anchor_fn)
    eu, ev = (math.sqrt(_energy(P, f)[0]) for f in (uu, vv))
    energy_term = _norm(P, vv) * eu + _norm(P, uu) * ev
    reports = []
    for s, value in zip(radii, values):
        bound = math.sqrt(degree_bound) / s * energy_term
        slack = bound - abs(value)
        scale = max(abs(value), bound, 1.0)
        reports.append(TaperedDefectReport(value=value, bound=bound, slack=slack,
                                           passed=slack >= -SLACK_TOL * scale))
    return reports


def tapered_defect_bound(g, u: VertexFunction, v: VertexFunction, x0, s, *, degree_bound=None,
                         anchor_fn: Optional[AnchorFunction] = None) -> TaperedDefectReport:
    """Check the tapered defect against its energy bound at radius s: the
    profile at one radius."""
    return tapered_defect_profile(g, u, v, x0, [s], degree_bound=degree_bound,
                                  anchor_fn=anchor_fn)[0]
