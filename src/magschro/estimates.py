"""Energy bounds and the metric-tapered symmetry defect.

The central quantity is the minorant-weighted gradient energy

    E(u)^2 = sum over canonical edges of min(1/q(o), 1/q(t)) a(e) |du(e)|^2

which, under the self-adjointness conditions, is controlled by the norms of
u and Hu alone.  The tapered symmetry defect weights the pointwise defect
(Hu) conj(v) - u conj(Hv) by a ramp that vanishes beyond metric radius s
from a base vertex; its size is controlled by E(u), E(v) and 1/s, and it
recovers the plain defect (which vanishes for finitely supported inputs) as
s grows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .criteria import lipschitz_best_constant, positive_part
from .errors import InputError, MinorantViolationError, require_finite, require_nonnegative
from .functions import VertexFunction, norm_w, support_union
from .metric import AnchorFunction, WITH_Q
from .operators import Patch, schrodinger_apply

SLACK_TOL = 1e-10


def _require_real(phi: VertexFunction, name="phi"):
    for x, v in phi.items():
        if isinstance(v, complex):
            if v.imag != 0:
                raise InputError(f"{name} must be real-valued; {name}({x!r}) = {v!r}")
        elif not isinstance(v, (int, float)):
            raise InputError(f"{name} must be real-valued; {name}({x!r}) = {v!r}")


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


def _gradient(g, u: VertexFunction, patch):
    """The patch, the numbers of its edges where du is nonzero, and |du|^2 there.

    |du|^2 is taken of the Python scalars, as the differential returns them.
    """
    P = patch or Patch.closure(g, u.support)
    du = P.differential(P.vector(u))
    at = np.flatnonzero(du != 0)
    du2 = [abs(v) ** 2 for v in du[at].tolist()]
    require_finite(*du2)
    return P, at, np.array(du2)


def _sum(P, terms, at):
    """The sum of a loop over the ``terms`` of the edges ``at`` of ``P``, in order."""
    return P.sums((terms, P.edge_block[at])).tolist()[0]


def minorant_weighted_energy(g, u: VertexFunction, *, patch=None):
    """The squared energy and its per-edge contributions.

    Returns ``(value, contributions)`` where contributions maps each
    normalized edge to min(1/q(o), 1/q(t)) a(e) |du(e)|^2.  ``patch``, if
    given, holds the one-hop closure of the support of u (see
    :class:`~magschro.operators.Patch`).
    """
    P, at, du2 = _gradient(g, u, patch)
    q = P.window.q
    terms = 1.0 / np.maximum(q[P.o[at]], q[P.t[at]]) * P.ca[at] * du2
    return (float(_sum(P, terms, at)),
            dict(zip([tuple(P.keys[k]) for k in at.tolist()], terms.tolist())))


def weighted_gradient_energy(g, u: VertexFunction, phi: VertexFunction, *,
                             patch=None) -> float:
    """sqrt of sum over canonical edges of a(e) |du(e)|^2 mean(phi^2)(e).

    ``patch``, if given, holds the one-hop closure of the support of u.
    """
    _require_real(phi)
    P, at, du2 = _gradient(g, u, patch)
    ids = P.window.ids
    po, pt = (np.array([phi(x) for x in ids[end[at]].tolist()]) for end in (P.o, P.t))
    return math.sqrt(_sum(P, P.ca[at] * du2 * ((po ** 2 + pt ** 2) / 2), at))


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


def gradient_energy_inequality(g, u: VertexFunction, phi: VertexFunction) -> GradientEnergyReport:
    """Check the localization inequality for the phi-weighted gradient energy.

    Requires W >= -q on the support of phi and its one-hop neighborhood,
    since the minorant term absorbs the potential there.  That closure,
    read once, also holds every edge of the commutator term.
    """
    _require_real(phi)
    win = g.closure_window(phi.support)
    _require_minorant(win, "gradient energy inequality")

    patch = Patch.closure(g, u.support)
    energy = weighted_gradient_energy(g, u, phi, patch=patch)
    energy_sq = energy ** 2

    Hu = schrodinger_apply(g, u, patch=patch)
    op_term = 0
    minorant_term = 0.0
    for x in support_union(Hu, u, phi):
        rec = g.vertex(x)
        phi2 = phi(x) ** 2
        if phi2 == 0:
            continue
        op_term = op_term + rec.weight * phi2 * Hu(x) * u(x).conjugate()
        minorant_term += rec.weight * phi2 * rec.minorant * abs(u(x)) ** 2
    op_term = abs(op_term)

    # the entries o -> t with o < t, in edge order; dphi vanishes unless an end is in supp phi
    src, dst = win.rows(), win.indices
    at = np.flatnonzero(src < dst)
    cross = 0.0
    for o, t, a, sigma in zip(win.ids[src[at]].tolist(), win.ids[dst[at]].tolist(),
                              win.a[at].tolist(), win.sigma[at].tolist()):
        dphi = phi(t) - phi(o)
        if dphi == 0:
            continue
        phased = (sigma * u(t).conjugate() + u(o).conjugate()) / 2
        cross += a * abs(dphi) ** 2 * abs(phased) ** 2
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
    patch = Patch.closure(g, u.support)
    _require_minorant(patch.window, "energy bound")

    degree_bound = _degree_bound(g, degree_bound)
    if lipschitz_constant is None:
        if not g.is_finite:
            raise InputError("a Lipschitz constant is required on infinite graphs")
        lipschitz_constant = lipschitz_best_constant(g, g.vertices()).constant

    energy_sq, contributions = minorant_weighted_energy(g, u, patch=patch)
    nu = norm_w(g, u)
    nHu = norm_w(g, schrodinger_apply(g, u, patch=patch))
    bound = 2.0 * ((2.0 * lipschitz_constant ** 2 * degree_bound + 1.0) * nu ** 2 + nHu * nu)
    slack = bound - energy_sq
    scale = max(energy_sq, bound, 1.0)
    return EnergyBreakdown(
        energy_sq=energy_sq,
        bound=bound,
        lipschitz_constant=lipschitz_constant,
        degree_bound=degree_bound,
        contributions=contributions,
        slack=slack,
        passed=slack >= -SLACK_TOL * scale,
    )


def tapered_symmetry_defect(g, u: VertexFunction, v: VertexFunction, x0, s,
                            *, budget=None, anchor_fn: Optional[AnchorFunction] = None,
                            patch=None):
    """The ramp-weighted symmetry defect at taper radius s.

    Sums (1 - P(x)/s)^+ ((Hu)(x) conj(v(x)) - u(x) conj((Hv)(x))) w(x) in
    ascending vertex order, with P the metric distance from x0.  The sum is
    finite because u and v are; vertices outside metric radius s contribute
    nothing.  ``patch``, if given, holds the one-hop closure of the
    supports of u and v.
    """
    if not s > 0:
        raise InputError(f"taper radius must be positive, got {s}")
    if anchor_fn is None:
        anchor_fn = AnchorFunction(g, x0, q_mode=WITH_Q, budget=budget)
    Hu = schrodinger_apply(g, u, patch=patch)
    Hv = schrodinger_apply(g, v, patch=patch)
    total = 0
    for x in support_union(Hu, u, Hv, v):
        defect = Hu(x) * v(x).conjugate() - u(x) * Hv(x).conjugate()
        if defect == 0:
            continue
        ramp = positive_part(1.0 - anchor_fn(x) / s)
        if ramp == 0:
            continue
        total = total + ramp * defect * g.vertex(x).weight
    return total


@dataclass
class TaperedDefectReport:
    value: complex
    bound: float  # sqrt(N)/s (|v| E(u) + |u| E(v))
    slack: float
    passed: bool


def tapered_defect_bound(g, u: VertexFunction, v: VertexFunction, x0, s, *,
                         budget=None, degree_bound=None,
                         anchor_fn: Optional[AnchorFunction] = None) -> TaperedDefectReport:
    """Check the tapered defect against its energy bound at radius s."""
    degree_bound = _degree_bound(g, degree_bound)
    patch = Patch.closure(g, support_union(u, v))
    value = tapered_symmetry_defect(g, u, v, x0, s, budget=budget, anchor_fn=anchor_fn,
                                    patch=patch)
    eu = math.sqrt(minorant_weighted_energy(g, u, patch=patch)[0])
    ev = math.sqrt(minorant_weighted_energy(g, v, patch=patch)[0])
    bound = math.sqrt(degree_bound) / s * (norm_w(g, v) * eu + norm_w(g, u) * ev)
    slack = bound - abs(value)
    scale = max(abs(value), bound, 1.0)
    return TaperedDefectReport(
        value=value,
        bound=bound,
        slack=slack,
        passed=slack >= -SLACK_TOL * scale,
    )
