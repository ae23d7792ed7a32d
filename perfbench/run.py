"""Run one magschro benchmark workload and print its result as JSON.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload rays --seed 1 --seconds 30 --trace 0

One process runs a closed loop with a single client: rounds of the
workload's operations run back to back, each on inputs made from ``--seed``,
until ``--seconds`` have passed (at least two rounds).  Set-up and round
times are rescaled to a fixed machine speed (``speed.py``).  Every output
is checked against an oracle outside the timed region.

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` alternates
untraced and traced rounds, reports the per-layer metrics and the tracing
overhead, and writes the spans to ``perfbench/out/``.  The last line of
standard output is the result object; the line before it carries the
environment stamp, the per-stage timings with their sample counts and any
failure messages.

magschro is imported from ``src/`` of the checkout the script lives in; the
script refuses to run without it, and when ``MAGSCHRO_BUDGET`` is set, since
every workload relies on the default search budget.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_REPEATS = 3
MIN_ROUNDS = 2  # a median over one round would be a single sample
# the package does not import all of these itself; the workloads and the tracer use them
SUBMODULES = ("criteria", "estimates", "families", "functions", "graphio", "metric",
              "operators", "spectral", "suites")
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


class BenchmarkError(Exception):
    """The benchmark cannot run here; no result is printed."""


def _nproc() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _cap_blas_threads(nproc):
    """Keep numpy's BLAS threads at or below nproc; must run before numpy loads."""
    for var in THREAD_VARS:
        raw = os.environ.get(var)
        if raw is None or not raw.isdigit() or int(raw) > nproc or int(raw) < 1:
            os.environ[var] = str(nproc)


def _blas_vendor():
    import numpy as np

    try:
        config = np.show_config(mode="dicts")
    except TypeError:  # numpy < 1.26 prints only
        return "unknown"
    blas = config.get("Build Dependencies", {}).get("blas", {})
    return f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip()


def _git_commit():
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def environment(seed, nproc) -> dict:
    import numpy as np
    import scipy

    return {
        "nproc": nproc,
        "blas": _blas_vendor(),
        "blas_threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "git_commit": _git_commit(),
        "seed": seed,
    }


def import_magschro():
    """Import magschro afresh from the checkout's ``src/``."""
    import importlib

    for name in [n for n in sys.modules if n == "magschro" or n.startswith("magschro.")]:
        del sys.modules[name]
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    m = importlib.import_module("magschro")
    for name in SUBMODULES:
        importlib.import_module(f"magschro.{name}")
    if Path(m.__file__).resolve().parent != SRC / "magschro":
        raise BenchmarkError(f"magschro imported from {m.__file__}, not from {SRC}")
    return m


def warm_blas():
    """One small dense eigensolve of each kind the workloads use."""
    import numpy as np

    rng = np.random.default_rng(0)
    a = rng.standard_normal((500, 500))
    np.linalg.eigh(a + a.T)
    b = a + 1j * rng.standard_normal((500, 500))
    np.linalg.eigh(b + b.conj().T)


def setup(workload, seed):
    """Import magschro, generate the workload's inputs and build its graphs.

    BLAS is warmed once per process before the first set-up, so its
    start-up is not counted here.  Returns ``(magschro, inputs, state)``.
    """
    m = import_magschro()
    inputs = workload.generate(seed)
    return m, inputs, workload.build(m, inputs)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def stage_summary(samples) -> dict:
    """Per-stage timings with their sample counts.

    A stage with at least 1000 samples reports its median and 99th
    percentile in milliseconds, so the percentile has ten samples beyond
    it; any other stage reports its median in seconds.
    """
    out = {}
    for stage, values in sorted(samples.items()):
        values = sorted(values)
        if len(values) >= 1000:
            out[f"{stage}_p50_ms"] = {"value": 1e3 * statistics.median(values),
                                      "samples": len(values)}
            out[f"{stage}_p99_ms"] = {"value": 1e3 * values[int(0.99 * len(values))],
                                      "samples": len(values)}
        else:
            out[f"{stage}_s"] = {"value": statistics.median(values), "samples": len(values)}
    return out


def timed_run(workload, seed, seconds):
    """Set up several times, then run rounds until ``seconds`` have passed.

    ``setup_s`` and ``round_s`` are medians of times rescaled to the
    reference speed (see ``speed.py``); the wall times, and the per-stage
    timings, are on the detail line.
    """
    from speed import rescaled
    from workloads import Tally

    setups, setups_wall = [], []
    for _ in range(SETUP_REPEATS):
        m = inputs = state = None  # let the previous set-up go before building the next
        scaled, wall, (m, inputs, state) = rescaled(setup, workload, seed)
        setups.append(scaled)
        setups_wall.append(wall)
    tally = Tally()
    rounds, rounds_wall = [], []
    start = perf_counter()
    while True:
        scaled, wall, out = rescaled(workload.round, m, state, tally)
        rounds.append(scaled)
        rounds_wall.append(wall)
        workload.check(m, state, out, tally)
        out = None
        if len(rounds) >= MIN_ROUNDS and perf_counter() - start >= seconds:
            break
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "round_s": (statistics.median(rounds), "s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }
    detail = {"setup_samples_s": setups, "setup_wall_s": setups_wall,
              "round_samples_s": rounds, "round_wall_s": rounds_wall,
              "stages": stage_summary(tally.samples)}
    return tally, metrics, detail


def traced_part_round(tracer, part, m, inputs, tally):
    """Build the part afresh and run one round of it with ``tracer`` installed.

    Returns ``(seconds, state, output)``.  The tracer is uninstalled before
    returning, so checking the output adds nothing to its figures.
    """
    tally.tracer = tracer
    tracer.install(m)
    try:
        tracer.op = "build"
        state = part.build(m, inputs)
        t0 = perf_counter()
        out = part.round(m, state, tally)
        return perf_counter() - t0, state, out
    finally:
        tracer.uninstall()
        tally.tracer = None


def traced_run(workload, seed, seconds):
    """Per-layer metrics of one traced round, and the tracing overhead.

    Each pass runs every part of the workload untraced and then at once
    traced, so that the rounds compared run close together in time.  Passes
    repeat until ``seconds`` have passed, and the overhead is the median
    over the passes of traced over untraced wall time.  The layer metrics
    and the spans are those of the first pass.
    """
    from layertrace import Tracer
    from workloads import Tally

    m, inputs, state = setup(workload, seed)
    tally = Tally()
    ratios, metrics, detail = [], None, {}
    start = perf_counter()
    while not ratios or perf_counter() - start < seconds:
        tracer = Tracer()
        untraced = traced = 0.0
        for part, part_inputs, part_state in zip(workload.parts, inputs, state):
            t0 = perf_counter()
            out = part.round(m, part_state, tally)
            untraced += perf_counter() - t0
            part.check(m, part_state, out, tally)
            out = None
            elapsed, traced_state, out = traced_part_round(tracer, part, m, part_inputs, tally)
            traced += elapsed
            part.check(m, traced_state, out, tally)
            out = traced_state = None
        ratios.append(traced / untraced)
        if metrics is None:
            metrics = tracer.layer_metrics()
            spans = OUT / f"spans-{workload.name}-seed{seed}.jsonl"
            tracer.write_spans(spans)
            detail = {"untraced_round_s": untraced, "traced_round_s": traced,
                      "spans": len(tracer.spans), "spans_file": str(spans.relative_to(ROOT))}
    metrics["trace.overhead"] = (statistics.median(ratios), "ratio")
    # a median below 1 is no real overhead: the machine's speed moved between the rounds
    detail.update(overhead_samples=ratios, overhead_below_1=statistics.median(ratios) < 1.0)
    return tally, metrics, detail


def result(tally, metrics) -> dict:
    """The result object printed as the last line of standard output."""
    return {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }


def main(argv=None) -> int:
    nproc = _nproc()
    _cap_blas_threads(nproc)
    from workloads import WORKLOADS, make

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if os.environ.get("MAGSCHRO_BUDGET") is not None:
        raise BenchmarkError("MAGSCHRO_BUDGET is set; the workloads need the default budget")
    if not (SRC / "magschro" / "__init__.py").is_file():
        raise BenchmarkError(f"no magschro sources under {SRC}")

    # dependencies load and BLAS starts before set-up is timed: neither is magschro's cost
    import numpy  # noqa: F401
    import scipy.linalg  # noqa: F401
    import scipy.sparse.linalg  # noqa: F401
    warm_blas()

    workload = make(args.workload)
    run = traced_run if args.trace else timed_run
    wall = perf_counter()
    tally, metrics, detail = run(workload, args.seed, args.seconds)
    detail.update({"workload": args.workload, "trace": args.trace,
                   "wall_s": perf_counter() - wall, "environment": environment(args.seed, nproc),
                   "failures": tally.notes})
    print(json.dumps(detail, sort_keys=True))
    print(json.dumps(result(tally, metrics)))
    sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.path.insert(0, str(HERE))
    try:
        sys.exit(main())
    except BenchmarkError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        sys.exit(2)
