"""Per-vertex oracle for the estimate checks.

The energy bound, the gradient-energy inequality and the tapered defect of
:mod:`magschro.estimates`, written as loops over Python scalars: each vertex
read by ``g.vertex``, u and Hu as dicts, each product and sum taken by
Python in id order, the anchor distance read where the defect is nonzero.
Each energy is the array expression over the edges of one patch, as the
library takes it.  The library's array passes must give the same reports,
bit for bit.
"""

import math

import numpy as np

from magschro.criteria import lipschitz_best_constant, positive_part
from magschro.errors import InputError, require_finite, require_nonnegative
from magschro.estimates import (
    SLACK_TOL,
    EnergyBreakdown,
    GradientEnergyReport,
    TaperedDefectReport,
    _degree_bound,
    _require_minorant,
    _require_real,
)
from magschro.functions import norm_w, support_union
from magschro.metric import WITH_Q, AnchorFunction
from magschro.operators import Patch, schrodinger_apply


def _gradient(g, u, patch):
    P = patch or Patch.closure(g, u.support)
    du = P.differential(P.vector(u))
    at = np.flatnonzero(du != 0)
    du2 = [abs(v) ** 2 for v in du[at].tolist()]
    require_finite(*du2)
    return P, at, np.array(du2)


def _sum(P, terms, at):
    return P.sums((terms, P.edge_block[at])).tolist()[0]


def minorant_weighted_energy(g, u, *, patch=None):
    P, at, du2 = _gradient(g, u, patch)
    q = P.window.q
    terms = 1.0 / np.maximum(q[P.o[at]], q[P.t[at]]) * P.ca[at] * du2
    return (float(_sum(P, terms, at)),
            dict(zip([tuple(P.keys[k]) for k in at.tolist()], terms.tolist())))


def weighted_gradient_energy(g, u, phi, *, patch=None):
    _require_real(phi)
    P, at, du2 = _gradient(g, u, patch)
    ids = P.window.ids
    po, pt = (np.array([phi(x) for x in ids[end[at]].tolist()]) for end in (P.o, P.t))
    return math.sqrt(_sum(P, P.ca[at] * du2 * ((po ** 2 + pt ** 2) / 2), at))


def gradient_energy_inequality(g, u, phi):
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
    return GradientEnergyReport(energy_sq, op_term, minorant_term, commutator_term, slack,
                                slack >= -SLACK_TOL * scale)


def energy_bound_check(g, u, *, lipschitz_constant=None, degree_bound=None):
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
    return EnergyBreakdown(energy_sq, bound, lipschitz_constant, degree_bound, contributions,
                           slack, slack >= -SLACK_TOL * scale)


def tapered_symmetry_defect(g, u, v, x0, s, *, anchor_fn=None, patch=None):
    if not s > 0:
        raise InputError(f"taper radius must be positive, got {s}")
    if anchor_fn is None:
        anchor_fn = AnchorFunction(g, x0, q_mode=WITH_Q)
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


def tapered_defect_bound(g, u, v, x0, s, *, degree_bound=None, anchor_fn=None):
    degree_bound = _degree_bound(g, degree_bound)
    patch = Patch.closure(g, support_union(u, v))
    value = tapered_symmetry_defect(g, u, v, x0, s, anchor_fn=anchor_fn, patch=patch)
    eu = math.sqrt(minorant_weighted_energy(g, u, patch=patch)[0])
    ev = math.sqrt(minorant_weighted_energy(g, v, patch=patch)[0])
    bound = math.sqrt(degree_bound) / s * (norm_w(g, v) * eu + norm_w(g, u) * ev)
    slack = bound - abs(value)
    scale = max(abs(value), bound, 1.0)
    return TaperedDefectReport(value, bound, slack, slack >= -SLACK_TOL * scale)
