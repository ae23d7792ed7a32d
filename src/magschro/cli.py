"""Command-line interface.

Subcommands:

* ``check``             self-adjointness conditions report for a graph
* ``distance``          shortest weighted-metric distance between two vertices
* ``ball``              metric ball as CSV rows (vertex, distance)
* ``spectrum``          extreme truncation eigenvalues across windows, CSV
* ``verify-identities`` seeded random-graph identity suites
* ``estimate``          energy bound trials and a tapered-defect radius sweep
* ``reproduce``         run the built-in reference scenario end to end

Exit codes: 0 on success, 1 when a requested check fails or a query does not
resolve within its budget (including :class:`BudgetExhaustedError`), 2 on
every other error.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys

import numpy as np

from .criteria import lipschitz_best_constant, selfadjointness_criteria
from .errors import BudgetExhaustedError, InputError, MagschroError
from .estimates import energy_bound_check, tapered_defect_profile
from .families import FamilySpec, make_family
from .graphio import load_graph
from .metric import WITH_Q, UNIT_Q, AnchorFunction, ball, distance
from .randomgraphs import random_function
from .reference import run_reference_scenario
from .spectral import spectral_trend
from .suites import identity_suite, square_average_suite


def _add_graph_source(parser: argparse.ArgumentParser):
    src = parser.add_argument_group("graph source")
    src.add_argument("--family", choices=("path-nat", "path", "cycle", "star", "binary-tree"),
                     help="built-in family (see also --w/--a/--W/--q)")
    src.add_argument("--size", type=int, help="vertex count for finite families")
    src.add_argument("--w", default="1", help="vertex weight expression in n")
    src.add_argument("--a", default="1", help="edge weight expression in n")
    src.add_argument("--W", default="0",
                     help="potential expression in n (write --W=-(n^2) for leading minus)")
    src.add_argument("--q", default="1", help="minorant expression in n (must stay >= 1)")
    src.add_argument("--graph-file", help="JSON graph file (see README for the schema)")


def _graph_from_args(args):
    if args.graph_file and args.family:
        raise InputError("give either --family or --graph-file, not both")
    if args.graph_file:
        return load_graph(args.graph_file)
    if not args.family:
        raise InputError("a graph source is required: --family or --graph-file")
    spec = FamilySpec(args.family, size=args.size, w=args.w, a=args.a, W=args.W, q=args.q)
    return make_family(spec)


def _resolve_vertex(g, raw):
    candidates = [raw]
    try:
        candidates.insert(0, int(raw))
    except (TypeError, ValueError):
        pass
    for candidate in candidates:
        if g.has_vertex(candidate):
            return candidate
    raise InputError(f"unknown vertex {raw!r}")


def _json_default(obj):
    if isinstance(obj, complex):
        return {"re": obj.real, "im": obj.imag}
    raise TypeError(f"not JSON serializable: {type(obj).__name__}")


def _write(path, text):
    """Write ``text`` to the file ``path``, or to stdout where it is None or "-"."""
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)


def _emit_json(path, payload):
    _write(path, json.dumps(payload, indent=2, sort_keys=True, default=_json_default) + "\n")


def _emit_csv(path, header, rows):
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(f"{x:.17g}" if isinstance(x, float) else str(x) for x in row))
    _write(path, "\n".join(lines) + "\n")


def _windows_for(g, sizes):
    if g.is_finite:
        ids = g.vertices()
        for k in sizes:
            if k > len(ids):
                raise InputError(f"window size {k} exceeds the graph's {len(ids)} vertices")
        return [ids[:k] for k in sizes]
    return [range(1, k + 1) for k in sizes]


def _cmd_check(args) -> int:
    g = _graph_from_args(args)
    x0 = _resolve_vertex(g, args.x0)
    report = selfadjointness_criteria(g, x0, budget=args.budget,
                                      lipschitz_budget=args.lipschitz_c)
    print(f"window: {report.window_size} vertices, scope {report.scope}")
    print(f"degree bound: observed {report.degree.observed}, declared "
          f"{report.degree.declared}, pass={report.degree.passed}")
    print(f"minorant W >= -q: worst violation {report.minorant.worst_violation:g}, "
          f"pass={report.minorant.passed}")
    witness = tuple(report.lipschitz.witness) if report.lipschitz.witness else None
    budget_note = ""
    if args.lipschitz_c is not None:
        budget_note = f" (budget C = {args.lipschitz_c:g}, pass={report.lipschitz_passed})"
    print(f"lipschitz: C_best = {report.lipschitz.constant:.12g}, witness {witness}{budget_note}")
    print(f"completeness: {report.completeness.verdict} "
          f"(settled {report.completeness.settled_count} vertices, "
          f"radius {report.completeness.settled_radius:.6g})")
    print(f"overall: {report.overall}")
    if args.json:
        _emit_json(args.json, dataclasses.asdict(report))
    return 0 if report.overall != "fail" else 1


def _cmd_distance(args) -> int:
    g = _graph_from_args(args)
    src = _resolve_vertex(g, args.src)
    dst = _resolve_vertex(g, args.dst)
    value = distance(g, src, dst, q_mode=args.q_mode, budget=args.budget)
    if value is None:
        print("unresolved within budget", file=sys.stderr)
        return 1
    print(f"{value:.17g}")
    return 0


def _cmd_ball(args) -> int:
    g = _graph_from_args(args)
    x0 = _resolve_vertex(g, args.x0)
    result = ball(g, x0, args.radius, q_mode=args.q_mode, budget=args.budget)
    _emit_csv(args.csv, ("vertex", "distance"),
              [(x, d) for x, d in result.sorted_members()])
    if not result.complete:
        print("warning: ball truncated by the budget; members may be missing",
              file=sys.stderr)
        return 1
    return 0


def _cmd_spectrum(args) -> int:
    g = _graph_from_args(args)
    sizes = []
    for tok in filter(None, args.windows.split(",")):
        try:
            sizes.append(int(tok))
        except ValueError:
            raise InputError(f"--windows: {tok!r} is not an integer window size") from None
        if sizes[-1] < 1:
            raise InputError(f"--windows: window size {sizes[-1]} must be at least 1")
    if not sizes:
        raise InputError("--windows must list at least one window size")
    rows = spectral_trend(g, _windows_for(g, sizes), seed=args.seed)
    _emit_csv(args.csv, ("window_size", "lambda_min", "lambda_max", "residual"),
              [tuple(row) for row in rows])
    return 0


def _cmd_verify_identities(args) -> int:
    result = identity_suite(seed=args.seed, graphs=args.graphs,
                            max_vertices=args.max_vertices)
    for name in sorted(result.residuals):
        print(f"{name}: max relative residual {result.residuals[name]:.3e}")
    sq = square_average_suite(seed=args.seed)
    print(f"square-average: {sq.violations} violations over {sq.samples} samples; "
          f"{sq.degenerate} degenerate, worst margin {sq.worst_margin:.3e} over the rest")
    print(f"elapsed {result.elapsed:.2f}s over {result.graphs} graphs (seed {result.seed}): "
          f"draws {result.draw_s:.2f}s, residuals {result.residual_s:.2f}s "
          f"(stacked patches {result.chunks}, vertices {result.vertices}, "
          f"edges {result.edges})")
    ok = result.passed and sq.passed
    print("PASS" if ok else "FAIL")
    return 0 if ok else 1


def _breakdown_payload(b) -> dict:
    return {
        "energy_sq": b.energy_sq,
        "bound": b.bound,
        "lipschitz_constant": b.lipschitz_constant,
        "degree_bound": b.degree_bound,
        "slack": b.slack,
        "passed": b.passed,
        "contributions": {f"{o}->{t}": val for (o, t), val in b.contributions.items()},
    }


def _cmd_estimate(args) -> int:
    if args.trials < 1:
        raise InputError(f"--trials must be at least 1, got {args.trials}")
    if args.window < 1:
        raise InputError(f"--window must be at least 1, got {args.window}")
    g = _graph_from_args(args)
    x0 = _resolve_vertex(g, args.x0)
    rng = np.random.default_rng(args.seed)
    lipschitz = args.lipschitz_c
    if g.is_finite:
        ids, cap = g.vertices(), None
        if lipschitz is None:  # the measured best constant, which each check would rescan
            lipschitz = lipschitz_best_constant(g, ids).constant
    else:
        ids, cap = list(range(x0, x0 + args.window)), 12

    def draw():
        return random_function(rng, ids, max_support=cap)

    energy_failures = 0
    worst_slack = float("inf")
    breakdown = None
    for _ in range(args.trials):
        breakdown = energy_bound_check(g, draw(), lipschitz_constant=lipschitz)
        worst_slack = min(worst_slack, breakdown.slack)
        if not breakdown.passed:
            energy_failures += 1
    print(f"energy bound: {energy_failures} violations over {args.trials} trials "
          f"(smallest slack {worst_slack:.6g})")

    anchor_fn = AnchorFunction(g, x0, budget=args.budget)
    sweep_failures = 0
    pairs = max(1, args.trials // 2)
    radii = [float(2 ** k) for k in range(0, 8)]
    sweep_reports = []
    if not g.is_finite:
        # the defect is nonzero where the ramp is and u sits at one end of an
        # edge, v at the other: draw u where the widest ramp reaches and v on
        # the window's vertices next to u's support (v on u's own vertex alone
        # cancels, as H is real there)
        reach = [x for x in ids if anchor_fn(x) < radii[-1]] or ids
    for _ in range(pairs):
        if g.is_finite:
            u, v = draw(), draw()
        else:
            u = random_function(rng, reach, max_support=cap)
            near = {e.terminus for x in u.support for e, _ in g.neighbors(x)}
            v = random_function(rng, sorted(near & set(ids)) or ids, max_support=cap)
        sweep_reports = list(zip(radii, tapered_defect_profile(g, u, v, x0, radii,
                                                               anchor_fn=anchor_fn)))
        sweep_failures += sum(not rep.passed for _, rep in sweep_reports)
    print(f"tapered defect bound: {sweep_failures} violations over {pairs} pairs "
          f"x {len(radii)} radii")
    ok = energy_failures == 0 and sweep_failures == 0
    print("PASS" if ok else "FAIL")
    if args.json:
        _emit_json(args.json, {
            "energy": {"trials": args.trials, "violations": energy_failures,
                       "worst_slack": worst_slack,
                       "last_breakdown": _breakdown_payload(breakdown) if breakdown else None},
            "tapered_defect": {"pairs": pairs, "radii": radii,
                               "violations": sweep_failures,
                               "last_sweep": [{"radius": s, "value": rep.value,
                                               "bound": rep.bound, "slack": rep.slack,
                                               "passed": rep.passed}
                                              for s, rep in sweep_reports]},
            "passed": ok,
        })
    return 0 if ok else 1


def _cmd_reproduce(args) -> int:
    if args.scenario != "paper-example":
        raise InputError(f"unknown scenario {args.scenario!r}")
    steps, ok = run_reference_scenario(seed=args.seed, identity_graphs=args.graphs)
    for step in steps:
        print(f"[{'PASS' if step.ok else 'FAIL'}] {step.name}: {step.detail} "
              f"({step.seconds:.2f} s)")
    print(f"summary: {'all stages pass' if ok else 'FAILURES PRESENT'}")
    return 0 if ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="magschro",
        description="Discrete magnetic Schrodinger operators on weighted graphs.")
    sub = parser.add_subparsers(dest="command")

    p = sub.add_parser("check", help="self-adjointness conditions report")
    _add_graph_source(p)
    p.add_argument("--x0", default="1", help="base vertex (default 1)")
    p.add_argument("--budget", type=int, default=None, help="settlement budget")
    p.add_argument("--lipschitz-c", type=float, default=None, dest="lipschitz_c",
                   help="admissible Lipschitz constant to check C_best against")
    p.add_argument("--json", help="also write the full report as JSON ('-' for stdout)")
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("distance", help="weighted-metric distance between two vertices")
    _add_graph_source(p)
    p.add_argument("--from", dest="src", required=True, help="source vertex")
    p.add_argument("--to", dest="dst", required=True, help="target vertex")
    p.add_argument("--q-mode", choices=(WITH_Q, UNIT_Q), default=WITH_Q)
    p.add_argument("--budget", type=int, default=None)
    p.set_defaults(func=_cmd_distance)

    p = sub.add_parser("ball", help="metric ball as CSV rows (vertex, distance)")
    _add_graph_source(p)
    p.add_argument("--x0", default="1")
    p.add_argument("--radius", type=float, required=True)
    p.add_argument("--q-mode", choices=(WITH_Q, UNIT_Q), default=WITH_Q)
    p.add_argument("--budget", type=int, default=None)
    p.add_argument("--csv", help="output file (default stdout)")
    p.set_defaults(func=_cmd_ball)

    p = sub.add_parser("spectrum", help="extreme truncation eigenvalues across windows")
    _add_graph_source(p)
    p.add_argument("--windows", required=True,
                   help="comma-separated window sizes, e.g. 10,20,40")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--csv", help="output file (default stdout)")
    p.set_defaults(func=_cmd_spectrum)

    p = sub.add_parser("verify-identities", help="seeded random-graph identity suites")
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--graphs", type=int, default=200)
    p.add_argument("--max-vertices", type=int, default=40)
    p.set_defaults(func=_cmd_verify_identities)

    p = sub.add_parser("estimate", help="energy bound trials and tapered-defect sweep")
    _add_graph_source(p)
    p.add_argument("--x0", default="1")
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--window", type=int, default=200,
                   help="support window size on infinite families, from --x0")
    p.add_argument("--budget", type=int, default=None)
    p.add_argument("--lipschitz-c", type=float, default=None, dest="lipschitz_c",
                   help="Lipschitz constant (required on infinite families)")
    p.add_argument("--json", help="also write trial summaries as JSON ('-' for stdout)")
    p.set_defaults(func=_cmd_estimate)

    p = sub.add_parser("reproduce", help="run a built-in scenario end to end")
    p.add_argument("scenario", choices=("paper-example",))
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--graphs", type=int, default=60,
                   help="random graphs for the identity stage")
    p.set_defaults(func=_cmd_reproduce)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if not getattr(args, "func", None):
        parser.print_help()
        return 2
    try:
        if getattr(args, "seed", 0) < 0:  # numpy seeds are non-negative
            raise InputError(f"--seed must be a non-negative integer, got {args.seed}")
        with np.errstate(all="ignore"):  # a non-finite number ends in a typed error instead
            return args.func(args)
    except MagschroError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1 if isinstance(exc, BudgetExhaustedError) else 2


if __name__ == "__main__":
    sys.exit(main())
