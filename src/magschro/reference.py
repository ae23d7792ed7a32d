"""End-to-end pipeline for the built-in reference scenario.

The scenario is the quadratic-well half-line from :func:`families.quadratic_well_ray`:
every self-adjointness condition holds with an exact completeness verdict,
the truncated spectrum falls without bound, and all energy and defect bounds
are exercised on seeded random inputs.  The CLI command
``magschro reproduce paper-example`` runs this pipeline and reports one
pass/fail line per stage.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .criteria import lipschitz_best_constant, selfadjointness_criteria, semibounded_probe
from .errors import InputError
from .estimates import (
    energy_bound_check,
    gradient_energy_inequality,
    tapered_defect_profile,
)
from .families import quadratic_well_ray
from .functions import VertexFunction, support_union
from .metric import WITH_Q, AnchorFunction, CutoffFunction, cutoff_property_check, shortest_paths
from .operators import Patch, schrodinger_apply
from .randomgraphs import random_function
from .spectral import spectral_trend
from .suites import identity_suite, square_average_suite

METRIC_TARGET = 1_000_000
ORACLE_LADDER = 10_000
DEFECT_TOL = 1e-10
MAX_SUPPORT = 12  # support cap of the seeded random test functions


@dataclass
class Step:
    name: str
    ok: bool
    detail: str
    seconds: float = 0.0  # wall time of the stage


def run_reference_scenario(*, seed=42, identity_graphs=60):
    """Run every stage; returns (steps, all_ok), each step with its wall time."""
    if identity_graphs < 1:
        raise InputError(f"the identity stage needs at least 1 graph, got {identity_graphs}")
    steps = []
    clock = time.perf_counter()

    def add(name, ok, detail):
        nonlocal clock
        now = time.perf_counter()
        steps.append(Step(name, ok, detail, now - clock))
        clock = now

    g = quadratic_well_ray()
    rng = np.random.default_rng(seed)

    # conditions for essential self-adjointness, with an exact completeness verdict
    report = selfadjointness_criteria(g, 1, budget=20_000, lipschitz_budget=1.0)
    ok = (report.overall == "pass"
          and report.completeness.verdict == "complete (exact)"
          and report.minorant.passed
          and report.lipschitz_passed is True)
    add(
        "criteria", ok,
        f"overall={report.overall}, completeness={report.completeness.verdict!r}, "
        f"minorant worst violation {report.minorant.worst_violation}, "
        f"degree bound {report.degree.observed} <= {report.degree.declared}")

    # best Lipschitz constant over the first ten thousand edges
    lip = lipschitz_best_constant(g, range(1, ORACLE_LADDER + 1))
    ok = abs(lip.constant - 0.5) <= 1e-12 and tuple(lip.witness) == (1, 2)
    add(
        "lipschitz", ok,
        f"C_best = {lip.constant:.6g} with witness edge {tuple(lip.witness)} "
        f"(admissible budget C = 1)")

    # metric against the harmonic-series oracle
    search = shortest_paths(g, 1, q_mode=WITH_Q, budget=METRIC_TARGET + 100_000,
                            target=METRIC_TARGET)
    dist = search.distances
    harmonic = 1.0
    max_rel = 0.0
    for k in range(2, ORACLE_LADDER + 1):
        harmonic += 1.0 / k
        oracle = harmonic - 1.0
        rel = abs(dist[k] - oracle) / oracle
        max_rel = max(max_rel, rel)
    d_far = dist.get(METRIC_TARGET)
    del dist, search
    ok = (max_rel <= 1e-12 and d_far is not None and 13.39 <= d_far <= 13.40)
    add(
        "metric", ok,
        f"max relative error vs harmonic oracle (K <= {ORACLE_LADDER}) = {max_rel:.3e}; "
        f"d(1,{METRIC_TARGET}) = {d_far:.6f} > 13 and still growing")

    # falling bottom of the truncated spectrum: no lower semibound exists
    rows = spectral_trend(g, [range(1, k + 1) for k in (10, 20, 40)])
    ok = all(row.lambda_min <= 2 - row.size ** 2 for row in rows)
    ok = ok and all(b.lambda_min < a.lambda_min for a, b in zip(rows, rows[1:]))
    ok = ok and all(row.residual <= 1e-8 for row in rows)
    lam40 = rows[-1].lambda_min
    ok = ok and lam40 <= -1598
    probe = semibounded_probe(g, [range(1, k + 1) for k in (10, 20, 40)])
    ok = ok and probe.nonincreasing and "no lower bound" in probe.verdict
    add(
        "spectrum", ok,
        "lambda_min = " + ", ".join(f"{row.lambda_min:.4f} (K={row.size})" for row in rows)
        + f"; lambda_min(K=40) <= -1598: {lam40 <= -1598}; {probe.verdict}")

    # energy bound: the hand case and seeded random functions on a 200-vertex window
    hand = energy_bound_check(g, VertexFunction.delta(1), lipschitz_constant=1.0,
                              degree_bound=2)
    ok = (abs(hand.energy_sq - 0.25) <= 1e-12 and abs(hand.bound - 12.0) <= 1e-12
          and hand.passed)
    window_ids = list(range(1, 201))
    failures = 0
    for _ in range(100):
        u = random_function(rng, window_ids, max_support=MAX_SUPPORT)
        if not energy_bound_check(g, u, lipschitz_constant=1.0, degree_bound=2).passed:
            failures += 1
    ok = ok and failures == 0
    add(
        "energy", ok,
        f"delta_1 case lhs = {hand.energy_sq}, rhs = {hand.bound}; "
        f"{failures} violations over 100 random u on the 200-vertex window")

    # localized gradient-energy inequality with tapered cut-off weights
    failures = 0
    trials = 0
    for n in (1, 2, 4, 8):
        phi = CutoffFunction(g, 1, n).tapered_profile()
        for _ in range(25):
            u = random_function(rng, list(range(1, 51)), max_support=MAX_SUPPORT)
            if not gradient_energy_inequality(g, u, phi).passed:
                failures += 1
            trials += 1
    add(
        "energy-localization", failures == 0,
        f"{failures} violations over {trials} random (u, taper) pairs, n in {{1, 2, 4, 8}}")

    # cut-off properties for n = 1..20
    bad = [n for n in range(1, 21) if not cutoff_property_check(g, 1, n).ok]
    add(
        "cutoffs", not bad,
        "all properties hold for n = 1..20" if not bad else f"failures at n = {bad}")

    # tapered symmetry defect: dyadic bound sweep plus the large-radius limit
    anchor_fn = AnchorFunction(g, 1)
    sweep_failures = 0
    limit_failures = 0
    pairs = 0
    for _ in range(50):
        u = random_function(rng, list(range(1, 41)), max_support=MAX_SUPPORT)
        v = random_function(rng, list(range(1, 41)), max_support=MAX_SUPPORT)
        pairs += 1
        *sweep, far = tapered_defect_profile(g, u, v, 1, (1, 2, 4, 8, 16, 32, 64, 128, 1e12),
                                             degree_bound=2, anchor_fn=anchor_fn)
        sweep_failures += sum(not rep.passed for rep in sweep)
        patch = Patch.closure(g, support_union(u, v))
        Hu = schrodinger_apply(g, u, patch=patch)
        Hv = schrodinger_apply(g, v, patch=patch)
        region = support_union(Hu, u, Hv, v)
        # scale of the terms entering the defect sum, before their cancellation
        scale = sum((abs(Hu(x) * v(x).conjugate()) + abs(u(x) * Hv(x).conjugate()))
                    * g.vertex(x).weight for x in region)
        plain = sum((Hu(x) * v(x).conjugate() - u(x) * Hv(x).conjugate()) * g.vertex(x).weight
                    for x in region)
        if abs(far.value) > DEFECT_TOL * scale or abs(plain) > DEFECT_TOL * scale:
            limit_failures += 1
    ok = sweep_failures == 0 and limit_failures == 0
    add(
        "tapered-defect", ok,
        f"{sweep_failures} bound violations over {pairs} pairs x 8 radii; "
        f"{limit_failures} large-radius limits above {DEFECT_TOL:g} x scale")

    # identity suites on random graphs
    ident = identity_suite(seed=seed, graphs=identity_graphs)
    sq = square_average_suite(seed=seed, samples=10_000)
    ok = ident.passed and sq.passed
    add(
        "identities", ok,
        f"all identity suites pass: worst relative residual {ident.worst:.3e} over "
        f"{ident.graphs} graphs; square-average violations {sq.violations}/{sq.samples}")

    return steps, all(step.ok for step in steps)
