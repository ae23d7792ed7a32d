"""The benchmark's workloads: inputs, one round of operations, oracles.

Each workload is made of parts.  A part generates its inputs from the
workload seed without touching magschro, builds what magschro needs from
them, runs one round of the public calls that its CLI commands make (with
the CLI defaults), and checks every output against an oracle outside the
timed region.  Rounds look magschro's
functions up on the package at call time, so a traced run sees its patches
and an untraced run calls the library unpatched.

The sizes the self-tests shrink are constructor arguments: the defaults are
the sizes the benchmark runs and ``TOY`` holds the self-tests' ones.  Every
other size is a class constant.
"""

from __future__ import annotations

import json
import math
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter

import numpy as np
from scipy.linalg import eigh_tridiagonal

FAILURE_NOTES = 10  # failure messages kept per run


class Tally:
    """Timings, operation counts and failures of one run.

    ``attempted`` counts operations: each public call the workload makes.
    An operation fails when it raises or when its output fails its oracle.
    """

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.samples = defaultdict(list)  # stage -> seconds per sample
        self.notes = []
        self.tracer = None  # set by a traced run while its tracer is installed

    def _start(self, stage):
        self.attempted += 1
        if self.tracer is not None:
            self.tracer.op = f"{stage}#{self.attempted}"

    def fail(self, stage, message):
        self.failed += 1
        if len(self.notes) < FAILURE_NOTES:
            self.notes.append(f"{stage}: {message}")

    def attempt(self, stage, fn, *args, **kwargs):
        """Run one operation; returns its output, or None if it raised."""
        self._start(stage)
        try:
            return fn(*args, **kwargs)
        except Exception as exc:  # a raising operation is a failed operation
            self.fail(stage, f"raised {type(exc).__name__}: {exc}")
            return None

    def timed(self, stage, fn, *args, **kwargs):
        """:meth:`attempt`, also recording the operation's time under ``stage``."""
        start = perf_counter()
        out = self.attempt(stage, fn, *args, **kwargs)
        self.samples[stage].append(perf_counter() - start)
        return out

    @contextmanager
    def stage(self, stage):
        """Record the time of a block of operations under ``stage``."""
        start = perf_counter()
        yield
        self.samples[stage].append(perf_counter() - start)

    def expect(self, stage, ok, message):
        """Count an operation whose output failed its oracle."""
        if not ok:
            self.fail(stage, message)


def _rel_close(value, reference, rtol):
    return value is not None and abs(value - reference) <= rtol * abs(reference)


# -- ray-metric ----------------------------------------------------------------

class RayMetric:
    """``check`` and the 1M-vertex ``distance`` on the quadratic-well ray.

    The ray has no random data, so the seed changes nothing here.
    """


    def __init__(self, *, target=1_000_000, distance_budget=1_100_000, check_budget=None):
        self.target = target
        self.distance_budget = distance_budget
        self.check_budget = check_budget  # None: the default budget, as the CLI uses
        self._harmonic = None

    def generate(self, seed):
        return None

    def build(self, m, inputs):
        # each operation builds its own family, as each CLI call does
        return {"budget": self.check_budget or m.metric.default_budget()}

    def round(self, m, state, tally):
        def check():
            g = m.families.quadratic_well_ray()
            return m.criteria.selfadjointness_criteria(g, 1, budget=self.check_budget)

        def distance():
            g = m.families.quadratic_well_ray()
            return m.metric.distance(g, 1, self.target, budget=self.distance_budget)

        return {"check": tally.timed("check", check),
                "distance": tally.timed("distance", distance)}

    def check(self, m, state, out, tally):
        rep = out["check"]
        if rep is not None:
            tally.expect("check", rep.overall == "pass"
                         and rep.completeness.verdict == "complete (exact)"
                         and rep.window_size == state["budget"],
                         f"overall {rep.overall}, verdict {rep.completeness.verdict!r}, "
                         f"window {rep.window_size} (expected {state['budget']})")
        if self._harmonic is None:
            # edge n ~ n + 1 has length 1/(n + 1) on the quadratic well
            self._harmonic = math.fsum(1.0 / k for k in range(2, self.target + 1))
        d = out["distance"]
        if d is not None:
            tally.expect("distance", _rel_close(d, self._harmonic, 1e-12),
                         f"d(1, {self.target}) = {d!r}, harmonic sum {self._harmonic!r}")


# -- ray-spectrum --------------------------------------------------------------

class RaySpectrum:
    """``spectrum`` on prefix windows of the quadratic well and the free ray.

    Both rays have unit weights, so the truncation on 1..K is the real
    symmetric tridiagonal matrix with diagonal deg(n) + W(n) (deg(1) = 1,
    otherwise 2) and off-diagonal -1, which LAPACK's bisection solves
    independently of magschro.  The seed changes nothing here.
    """

    RAYS = {"well": -1.0, "free": 0.0}  # coefficient c in W(n) = c n^2

    def __init__(self, *, windows=(2000, 2001, 10000)):
        self.windows = tuple(windows)
        self._extremes = {}

    def generate(self, seed):
        return None

    def build(self, m, inputs):
        return {}  # each operation builds its own family, as each CLI call does

    @staticmethod
    def _ray(m, name):
        if name == "well":
            return m.families.quadratic_well_ray()
        return m.families.make_family(m.families.FamilySpec("path-nat"))

    def round(self, m, state, tally):
        out = {}
        for name in self.RAYS:
            def spectrum():
                g = self._ray(m, name)
                return m.spectral.spectral_trend(g, [range(1, k + 1) for k in self.windows],
                                                 seed=0)
            out[name] = tally.timed(f"spectrum_{name}", spectrum)
        return out

    def extremes(self, name, k):
        key = (name, k)
        if key not in self._extremes:
            n = np.arange(1, k + 1, dtype=float)
            diag = 2.0 + self.RAYS[name] * n * n
            diag[0] -= 1.0
            off = -np.ones(k - 1)
            lo = eigh_tridiagonal(diag, off, eigvals_only=True, select="i", select_range=(0, 0))
            hi = eigh_tridiagonal(diag, off, eigvals_only=True, select="i",
                                  select_range=(k - 1, k - 1))
            self._extremes[key] = (float(lo[0]), float(hi[0]))
        return self._extremes[key]

    def check(self, m, state, out, tally):
        contract = m.spectral.RESIDUAL_CONTRACT
        for name, rows in out.items():
            if rows is None:
                continue
            problems = []
            if [row.size for row in rows] != list(self.windows):
                problems.append(f"window sizes {[row.size for row in rows]}")
            for row in rows:
                lo, hi = self.extremes(name, row.size)
                tol = 1e-12 * max(abs(lo), abs(hi))
                if not (abs(row.lambda_min - lo) <= tol and abs(row.lambda_max - hi) <= tol):
                    problems.append(f"K={row.size}: ({row.lambda_min!r}, {row.lambda_max!r}) "
                                    f"vs tridiagonal ({lo!r}, {hi!r})")
                if not row.residual <= contract:
                    problems.append(f"K={row.size}: residual {row.residual:.3e}")
            tally.expect(f"spectrum_{name}", not problems, "; ".join(problems))


# -- magnetic-grid -------------------------------------------------------------

def _grid_id(r, c):
    return f"{r:03d}-{c:03d}"


class MagneticGrid:
    """A seeded square lattice with a Landau-gauge flux, delivered as graph JSON.

    Vertical edges (r, c) ~ (r + 1, c) carry the phase exp(i 2 pi 0.1 c);
    horizontal edges carry phase 1.  Weights w and a are log-uniform, q is
    log-uniform in [1, 4] and W = -q + Exp(1), so W >= -q everywhere.
    """

    FLUX = 0.1
    RADIUS = 1.0
    APPLY_ORACLES = 3  # test functions per window for apply and Rayleigh checks

    def __init__(self, *, side=160, balls=2000, windows=(1000, 8000), ball_oracles=20):
        self.side = side
        self.balls = balls
        self.windows = tuple(windows)
        self.ball_oracles = ball_oracles

    def generate(self, seed):
        rng = np.random.default_rng(seed)
        n = self.side
        w = np.exp(rng.uniform(math.log(0.5), math.log(2.0), (n, n)))
        q = np.exp(rng.uniform(0.0, math.log(4.0), (n, n)))
        W = -q + rng.exponential(1.0, (n, n))
        a_right = np.exp(rng.uniform(math.log(2.0), math.log(8.0), (n, n - 1)))
        a_down = np.exp(rng.uniform(math.log(2.0), math.log(8.0), (n - 1, n)))
        centres = rng.integers(0, n * n, self.balls)
        probes = rng.choice(self.balls, size=min(self.ball_oracles, self.balls), replace=False)
        vertices = [{"id": _grid_id(r, c), "w": float(w[r, c]), "W": float(W[r, c]),
                     "q": float(q[r, c])} for r in range(n) for c in range(n)]
        edges = [{"u": _grid_id(r, c), "v": _grid_id(r, c + 1), "a": float(a_right[r, c])}
                 for r in range(n) for c in range(n - 1)]
        for r in range(n - 1):
            for c in range(n):
                angle = 2.0 * math.pi * self.FLUX * c
                edges.append({"u": _grid_id(r, c), "v": _grid_id(r + 1, c),
                              "a": float(a_down[r, c]),
                              "sigma": {"re": math.cos(angle), "im": math.sin(angle)}})
        # windows: the vertices nearest the centre in lattice distance, ties by id
        mid = n // 2
        order = sorted((abs(r - mid) + abs(c - mid), r, c) for r in range(n) for c in range(n))
        return {
            "text": json.dumps({"vertices": vertices, "edges": edges}),
            "arrays": (w, q, a_right, a_down),
            "centres": [_grid_id(*divmod(int(k), n)) for k in centres],
            "probes": {int(i) for i in probes},
            "windows": [[_grid_id(r, c) for _, r, c in order[:k]] for k in self.windows],
            "corner": _grid_id(0, 0),
        }

    def build(self, m, inputs):
        return {"g": m.graphio.parse_graph(inputs["text"]).to_graph(), **inputs}

    def round(self, m, state, tally):
        g = state["g"]
        report = tally.timed("check", m.criteria.selfadjointness_criteria, g, state["corner"])
        # keep only the probed balls whole, as separate CLI calls would not pile them up
        probes = state["probes"]
        balls = []
        for i, x0 in enumerate(state["centres"]):
            b = tally.timed("ball", m.metric.ball, g, x0, self.RADIUS)
            balls.append(b if b is None or i in probes else (b.complete and x0 in b))
        rows = tally.timed("spectrum", m.spectral.spectral_trend, g, state["windows"])
        return {"check": report, "balls": balls, "spectrum": rows}

    def _length(self, state, u, v):
        """Edge length from the generated arrays, by the formula in the README."""
        w, q, a_right, a_down = state["arrays"]
        (r1, c1), (r2, c2) = sorted((u, v))
        a = a_right[r1, c1] if r1 == r2 else a_down[r1, c1]
        wmin = min(w[r1, c1], w[r2, c2])
        qmax = max(q[r1, c1], q[r2, c2])
        return math.sqrt(wmin) / math.sqrt(a * qmax)

    def _reference_ball(self, state, centre):
        """networkx Dijkstra on the lattice patch that can hold the ball.

        A path of length <= radius has at most radius / min length hops, so
        the patch of that lattice radius around the centre holds every such
        path.
        """
        import networkx as nx

        w, q, a_right, a_down = state["arrays"]
        shortest = math.sqrt(w.min()) / math.sqrt(max(a_right.max(), a_down.max()) * q.max())
        hops = int(self.RADIUS / shortest) + 1
        n = self.side
        r0, c0 = (int(t) for t in centre.split("-"))
        patch = nx.Graph()
        for r in range(max(0, r0 - hops), min(n, r0 + hops + 1)):
            span = hops - abs(r - r0)
            for c in range(max(0, c0 - span), min(n, c0 + span + 1)):
                for r2, c2 in ((r + 1, c), (r, c + 1)):
                    if r2 < n and c2 < n and abs(r2 - r0) + abs(c2 - c0) <= hops:
                        patch.add_edge(_grid_id(r, c), _grid_id(r2, c2),
                                       weight=self._length(state, (r, c), (r2, c2)))
        dist, _ = nx.single_source_dijkstra(patch, centre, cutoff=self.RADIUS, weight="weight")
        return dist

    def check(self, m, state, out, tally):
        report = out["check"]
        size = self.side * self.side
        if report is not None:
            tally.expect("check", report.overall == "pass"
                         and report.completeness.verdict == "complete (exact)"
                         and report.window_size == size,
                         f"overall {report.overall}, verdict "
                         f"{report.completeness.verdict!r}, window {report.window_size}")
        for i, b in enumerate(out["balls"]):
            if b is None:
                continue
            if i not in state["probes"]:
                tally.expect("ball", b, f"ball {i} incomplete or without its centre")
                continue
            ref = self._reference_ball(state, state["centres"][i])
            ok = b.complete and set(ref) == set(b.members) and all(
                abs(b.members[x] - d) <= 1e-12 * max(1.0, d) for x, d in ref.items())
            tally.expect("ball", ok, f"ball {i} around {state['centres'][i]} differs from "
                                     f"networkx ({len(b)} vs {len(ref)} members)")
        rows = out["spectrum"]
        if rows is not None:
            problems = self._spectrum_problems(m, state, rows)
            tally.expect("spectrum", not problems, "; ".join(problems))

    def _spectrum_problems(self, m, state, rows):
        contract = m.spectral.RESIDUAL_CONTRACT
        problems = []
        if [row.size for row in rows] != list(self.windows):
            problems.append(f"window sizes {[row.size for row in rows]}")
        applied = state.setdefault("applied", {})
        for row, window in zip(rows, state["windows"]):
            if not row.residual <= contract:
                problems.append(f"K={row.size}: residual {row.residual:.3e}")
            if row.size not in applied:
                applied[row.size] = self._apply_problems(m, state["g"], window)
            problems.extend(applied[row.size])
            for rq in self._rayleigh(m, state["g"], window):
                slack = 1e-9 * max(abs(row.lambda_min), abs(row.lambda_max))
                if not row.lambda_min - slack <= rq <= row.lambda_max + slack:
                    problems.append(f"K={row.size}: Rayleigh quotient {rq!r} outside "
                                    f"[{row.lambda_min!r}, {row.lambda_max!r}]")
        return problems

    def _test_functions(self, m, window):
        rng = np.random.default_rng(len(window))
        for _ in range(self.APPLY_ORACLES):
            chosen = rng.choice(len(window), size=min(20, len(window)), replace=False)
            yield m.functions.VertexFunction(
                {window[int(i)]: complex(rng.normal(), rng.normal()) for i in chosen})

    def _apply_problems(self, m, g, window):
        """The truncation's matrix-vector product against schrodinger_apply."""
        trunc = m.spectral.assemble_truncation(g, window)
        problems = []
        for u in self._test_functions(m, window):
            got = trunc.apply(trunc.vector_of(u))
            Hu = m.operators.schrodinger_apply(g, u)
            want = np.array([Hu(x) for x in trunc.window], dtype=complex)
            scale = max(1.0, float(np.max(np.abs(want))))
            if not np.max(np.abs(got - want)) <= 1e-12 * scale:
                problems.append(f"K={len(window)}: apply differs from schrodinger_apply")
        return problems

    def _rayleigh(self, m, g, window):
        """Weighted Rayleigh quotients of test functions, from schrodinger_apply."""
        weights = {x: g.vertex(x).weight for x in window}
        for u in self._test_functions(m, window):
            Hu = m.operators.schrodinger_apply(g, u)
            num = sum(weights[x] * (Hu(x) * v.conjugate()).real for x, v in u.items())
            den = sum(weights[x] * abs(v) ** 2 for x, v in u.items())
            yield num / den


# -- calculus ------------------------------------------------------------------

class Calculus:
    """The identity suites, then the energy, tapered-defect and cut-off checks.

    The estimates run on the quadratic well with the admissible Lipschitz
    constant 1 (the best constant is 1/2), as ``magschro estimate`` requires
    on infinite families.
    """

    TAPERS = (1, 2, 4, 8)
    RADII = tuple(float(2 ** k) for k in range(8))  # the CLI's dyadic sweep
    MAX_VERTICES = 40  # largest random graph of the identity suite
    WINDOW = 200  # the energy and defect test functions live on vertices 1..WINDOW

    def __init__(self, *, graphs=1000, samples=10_000, energy_trials=500,
                 gradient_trials=100, defect_pairs=100, cutoffs=60):
        self.graphs = graphs
        self.samples = samples
        self.energy_trials = energy_trials
        self.gradient_trials = gradient_trials
        self.defect_pairs = defect_pairs
        self.cutoffs = cutoffs

    def generate(self, seed):
        rng = np.random.default_rng(seed)

        def draw(limit):
            # as the CLI draws on infinite families: up to 12 points, complex normal values
            size = int(rng.integers(1, min(12, limit) + 1))
            chosen = rng.choice(limit, size=size, replace=False)
            return [(int(i) + 1, complex(rng.normal(0, 2), rng.normal(0, 2))) for i in chosen]

        return {
            "identity_seed": int(rng.integers(2 ** 31)),
            "square_seed": int(rng.integers(2 ** 31)),
            "energy": [draw(self.WINDOW) for _ in range(self.energy_trials)],
            # inside the widest taper's support 1..16, so the cut-off weighs them
            "gradient": [draw(2 * max(self.TAPERS)) for _ in range(self.gradient_trials)],
            "defect": [(draw(self.WINDOW), draw(self.WINDOW)) for _ in range(self.defect_pairs)],
        }

    def build(self, m, inputs):
        vf = m.functions.VertexFunction
        return {
            "identity_seed": inputs["identity_seed"],
            "square_seed": inputs["square_seed"],
            "energy": [vf(dict(u)) for u in inputs["energy"]],
            "gradient": [vf(dict(u)) for u in inputs["gradient"]],
            "defect": [(vf(dict(u)), vf(dict(v))) for u, v in inputs["defect"]],
        }

    def round(self, m, state, tally):
        out = {}
        with tally.stage("identities"):
            out["identity"] = tally.attempt(
                "identity", m.suites.identity_suite, seed=state["identity_seed"],
                graphs=self.graphs, max_vertices=self.MAX_VERTICES)
            out["square"] = tally.attempt("square", m.suites.square_average_suite,
                                          seed=state["square_seed"], samples=self.samples)
        est = m.estimates
        with tally.stage("estimates"):
            g = m.families.quadratic_well_ray()
            out["energy"] = [tally.attempt("energy", est.energy_bound_check, g, u,
                                           lipschitz_constant=1.0)
                             for u in state["energy"]]

            def gradient(u, n):
                phi = m.metric.CutoffFunction(g, 1, n).tapered_profile()
                return est.gradient_energy_inequality(g, u, phi)

            out["gradient"] = [tally.attempt("gradient", gradient, u,
                                             self.TAPERS[i % len(self.TAPERS)])
                               for i, u in enumerate(state["gradient"])]
            anchor = m.metric.AnchorFunction(g, 1)
            out["defect"] = [tally.attempt("defect", est.tapered_defect_bound, g, u, v, 1, s,
                                           anchor_fn=anchor)
                             for u, v in state["defect"] for s in self.RADII]
            out["cutoff"] = [tally.attempt("cutoff", m.metric.cutoff_property_check, g, 1, n)
                             for n in range(1, self.cutoffs + 1)]
        return out

    def check(self, m, state, out, tally):
        ident = out["identity"]
        if ident is not None:
            tol = m.suites.IDENTITY_TOL
            tally.expect("identity", ident.passed and ident.worst <= tol
                         and ident.graphs == self.graphs,
                         f"worst relative residual {ident.worst:.3e} (tolerance {tol:.0e})")
        square = out["square"]
        if square is not None:
            tally.expect("square", square.passed and square.samples == self.samples,
                         f"{square.violations} violations over {square.samples} samples")
        for stage, ok in (("energy", lambda r: r.passed), ("gradient", lambda r: r.passed),
                          ("defect", lambda r: r.passed), ("cutoff", lambda r: r.ok)):
            for i, rep in enumerate(out[stage]):
                if rep is not None:
                    tally.expect(stage, ok(rep), f"trial {i} failed: {rep!r:.200}")


class Composite:
    """A workload whose round runs one round of each of its parts in turn."""

    def __init__(self, name, parts):
        self.name = name
        self.parts = parts

    def generate(self, seed):
        return [part.generate(seed) for part in self.parts]

    def build(self, m, inputs):
        return [part.build(m, i) for part, i in zip(self.parts, inputs)]

    def round(self, m, state, tally):
        return [part.round(m, s, tally) for part, s in zip(self.parts, state)]

    def check(self, m, state, out, tally):
        for part, s, o in zip(self.parts, state, out):
            part.check(m, s, o, tally)


# Two workloads of two parts each: a rays run holds two rounds of about 30 s,
# and the benchmark's time budget leaves room for runs that long for two
# workloads, not four.
WORKLOADS = {
    "rays": (RayMetric, RaySpectrum),
    "grid-calculus": (MagneticGrid, Calculus),
}

# sizes for the self-tests: seconds in total, same code paths
TOY = {
    RayMetric: dict(target=2000, distance_budget=2200, check_budget=3000),
    RaySpectrum: dict(windows=(60, 2001)),
    MagneticGrid: dict(side=12, balls=30, windows=(40, 100), ball_oracles=5),
    Calculus: dict(graphs=10, samples=200, energy_trials=10, gradient_trials=4,
                   defect_pairs=3, cutoffs=4),
}


def make(name, *, toy=False):
    """The workload ``name``, at toy size for the self-tests."""
    return Composite(name, [part(**TOY[part]) if toy else part()
                            for part in WORKLOADS[name]])
