"""Self-tests of the benchmark, every workload at toy size.

Run from the root of a checkout with ``python3 -m pytest perfbench -q``.
"""

import json
import os
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
from layertrace import Tracer  # noqa: E402
from speed import rescaled  # noqa: E402
from workloads import (TOY, WORKLOADS, Calculus, MagneticGrid, RayMetric,  # noqa: E402
                       Tally, make)

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def toy(name):
    return make(name, toy=True)


def expected(kind):
    return {m["name"]: m["unit"] for m in SPEC[kind]}


def emitted(tally, metrics):
    line = json.loads(json.dumps(run.result(tally, metrics)))
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    return line


def test_workload_names_match_the_spec():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_every_metric_is_emitted_with_its_unit(name):
    line = emitted(*run.timed_run(toy(name), 1, 0)[:2])
    assert line["correct"] and line["failed"] == 0 and line["attempted"] >= 1
    assert {k: v["unit"] for k, v in line["metrics"].items()} == expected("end_to_end")
    assert all(v["value"] > 0 for v in line["metrics"].values())

    tally, metrics, detail = run.traced_run(toy(name), 1, 0)
    line = emitted(tally, metrics)
    assert line["correct"]
    assert {k: v["unit"] for k, v in line["metrics"].items()} == expected("per_layer")
    assert (HERE.parent / detail["spans_file"]).stat().st_size > 0


def test_traced_run_leaves_magschro_unpatched():
    run.traced_run(toy("grid-calculus"), 1, 0)
    m = sys.modules["magschro"]
    for module, attribute, _, _ in Tracer.SPANS:
        assert getattr(getattr(m, module), attribute).__module__.startswith("magschro")
    assert m.families.compile_text.__module__ == "magschro.exprlang"


def test_checking_a_traced_round_adds_nothing_to_its_figures():
    workload = MagneticGrid(**TOY[MagneticGrid])
    m, inputs, _ = run.setup(workload, 1)
    tracer, tally = Tracer(), Tally()
    _, state, out = run.traced_part_round(tracer, workload, m, inputs, tally)
    before = tracer.layer_metrics()
    assert before["graphs.neighbors_calls"][0] > 0
    workload.check(m, state, out, tally)
    assert tally.failed == 0
    assert tracer.layer_metrics() == before


def test_rescaled_time_leaves_out_its_speed_samples():
    handler = signal.getsignal(signal.SIGALRM)
    scaled, wall, out = rescaled(lambda: time.sleep(1.2) or "done")
    assert out == "done" and signal.getsignal(signal.SIGALRM) is handler
    # two samples of about 20 ms fell inside the sleep, whose deadline stays put
    assert 1.0 < wall < 1.19 and scaled > 0


def _round(part, seed=1):
    workload = part(**TOY[part])
    m, _, state = run.setup(workload, seed)
    return workload, m, state


def test_perturbed_distance_is_counted_as_failed(monkeypatch):
    workload, m, state = _round(RayMetric)
    distance = m.metric.distance
    monkeypatch.setattr(m.metric, "distance", lambda *a, **k: distance(*a, **k) * (1 + 1e-9))
    tally = Tally()
    workload.check(m, state, workload.round(m, state, tally), tally)
    assert (tally.attempted, tally.failed) == (2, 1)
    assert tally.notes[0].startswith("distance:")


def test_missing_ball_member_and_raising_spectrum_are_counted(monkeypatch):
    workload, m, state = _round(MagneticGrid)
    ball = m.metric.ball

    def short_ball(*args, **kwargs):
        b = ball(*args, **kwargs)
        b.members.pop(max(b.members, key=b.members.get))
        return b

    def broken(*args, **kwargs):
        raise m.EigensolveError("injected")

    monkeypatch.setattr(m.metric, "ball", short_ball)
    monkeypatch.setattr(m.spectral, "spectral_trend", broken)
    tally = Tally()
    workload.check(m, state, workload.round(m, state, tally), tally)
    assert tally.attempted == 2 + workload.balls
    # every probed ball misses a member; the spectrum raised
    assert tally.failed == workload.ball_oracles + 1


def test_failed_suite_is_counted(monkeypatch):
    workload, m, state = _round(Calculus)
    monkeypatch.setattr(m.suites, "IDENTITY_TOL", -1.0)
    tally = Tally()
    workload.check(m, state, workload.round(m, state, tally), tally)
    assert tally.failed == 1 and tally.notes[0].startswith("identity:")


def test_seed_changes_inputs_but_not_names():
    grid, calculus = MagneticGrid(**TOY[MagneticGrid]), Calculus(**TOY[Calculus])

    def grid_inputs(seed):
        inputs = grid.generate(seed)
        return inputs["text"], inputs["centres"], inputs["probes"]

    for generate in (grid_inputs, calculus.generate):
        assert generate(1) != generate(2)
        assert generate(3) == generate(3)
    names = [set(run.timed_run(toy("grid-calculus"), seed, 0)[1]) for seed in (1, 2)]
    assert names[0] == names[1] == set(expected("end_to_end"))


def _bench_copy(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "out"))
    return tmp_path


def _run_copy(root, env):
    return subprocess.run([sys.executable, "perfbench/run.py", "--workload", "grid-calculus",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=root, env=env, capture_output=True, text=True, timeout=120)


def test_refuses_to_run_without_sources(tmp_path):
    done = _run_copy(_bench_copy(tmp_path), dict(os.environ))
    assert done.returncode != 0 and done.stdout == ""


def test_refuses_to_run_with_a_budget_override():
    env = dict(os.environ, MAGSCHRO_BUDGET="1000")
    done = _run_copy(HERE.parent, env)
    assert done.returncode != 0 and done.stdout == ""
    assert "MAGSCHRO_BUDGET" in done.stderr
