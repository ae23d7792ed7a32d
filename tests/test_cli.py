import json
import os
import pathlib
import subprocess
import sys

import pytest

from magschro import cli, criteria
from magschro.cli import main
from magschro.criteria import lipschitz_best_constant
from magschro.errors import InputError
from magschro.families import make_family

SRC = str(pathlib.Path(__file__).resolve().parent.parent / "src")


def test_distance_reference_query(capsys):
    code = main(["distance", "--family", "path-nat", "--q", "n^2",
                 "--from", "1", "--to", "4"])
    out = capsys.readouterr().out.strip()
    assert code == 0
    assert float(out) == pytest.approx(13.0 / 12.0, rel=1e-15)


def test_distance_unresolved_budget(capsys):
    code = main(["distance", "--family", "path-nat", "--from", "1", "--to", "99999",
                 "--budget", "10"])
    assert code == 1
    assert "unresolved within budget" in capsys.readouterr().err


def test_check_reference_ray(capsys):
    code = main(["check", "--family", "path-nat", "--W=-(n^2)", "--q", "n^2",
                 "--budget", "3000", "--lipschitz-c", "1.0"])
    out = capsys.readouterr().out
    assert code == 0
    assert "overall: pass" in out
    assert "complete (exact)" in out
    assert "C_best = 0.5" in out


def test_check_json_report(tmp_path, capsys):
    target = tmp_path / "report.json"
    code = main(["check", "--family", "path", "--size", "12", "--json", str(target)])
    capsys.readouterr()
    assert code == 0
    payload = json.loads(target.read_text())
    assert payload["overall"] == "pass"
    assert payload["completeness"]["verdict"] == "complete (exact)"


def test_check_json_reports_the_search(tmp_path, capsys):
    small, large = tmp_path / "small.json", tmp_path / "large.json"
    assert main(["check", "--family", "path", "--size", "12", "--json", str(small)]) == 0
    assert main(["check", "--family", "path", "--size", "600", "--budget", "1000",
                 "--json", str(large)]) == 0
    text = capsys.readouterr().out
    assert "search" not in text  # the text report stays as it was
    search = json.loads(small.read_text())["search"]
    assert sorted(search) == ["method", "settled", "wall_s"]
    assert (search["method"], search["settled"]) == ("frontier", 12)
    search = json.loads(large.read_text())["search"]
    # the frontier restarts on the graph's whole window after 256 settles
    assert (search["method"], search["settled"]) == ("window", 600)
    assert search["wall_s"] > 0


@pytest.mark.parametrize("argv", [
    ["check", "--family", "path-nat", "--budget", "1000"],
    ["estimate", "--family", "path-nat", "--lipschitz-c", "1", "--trials", "4"],
], ids=["check", "estimate"])
def test_json_to_stdout_is_json_alone(argv, tmp_path, capsys):
    """With ``--json -`` stdout carries the JSON alone and the text report
    goes to stderr; a file target keeps the text on stdout."""
    assert main(argv + ["--json", "-"]) == 0
    piped = capsys.readouterr()
    payload = json.loads(piped.out)
    target = tmp_path / "report.json"
    assert main(argv + ["--json", str(target)]) == 0
    filed = capsys.readouterr()
    assert piped.err == filed.out != "" and filed.err == ""
    written = json.loads(target.read_text())
    if argv[0] == "check":  # the search's wall time differs between the runs
        assert payload.pop("search")["wall_s"] > 0 and written.pop("search")["wall_s"] > 0
    assert written == payload


def test_ball_truncated_by_the_budget_prints_its_settled_rows(capsys):
    code = main(["ball", "--family", "path-nat", "--radius", "1e9", "--budget", "50"])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.err == "warning: ball truncated by the budget; members may be missing\n"
    lines = captured.out.splitlines()
    assert lines[0] == "vertex,distance"
    # the 50 settled vertices 1..50 of the unit ray, at distances 0..49
    assert lines[1:] == [f"{k},{k - 1}" for k in range(1, 51)]


def test_ball_csv_output(capsys):
    code = main(["ball", "--family", "path-nat", "--q", "n^2", "--x0", "1",
                 "--radius", "0.6"])
    out = capsys.readouterr().out.splitlines()
    assert code == 0
    assert out[0] == "vertex,distance"
    assert out[1] == "1,0"
    assert out[2] == "2,0.5"
    assert len(out) == 3


def test_spectrum_csv(tmp_path, capsys):
    target = tmp_path / "trend.csv"
    code = main(["spectrum", "--family", "path-nat", "--W=-(n^2)", "--q", "n^2",
                 "--windows", "10,20", "--csv", str(target)])
    capsys.readouterr()
    assert code == 0
    lines = target.read_text().splitlines()
    assert lines[0] == "window_size,lambda_min,lambda_max,residual"
    first = lines[1].split(",")
    assert int(first[0]) == 10
    assert float(first[1]) <= 2 - 100


def test_verify_identities_spec_invocation(capsys):
    code = main(["verify-identities", "--seed", "42", "--graphs", "200"])
    out = capsys.readouterr().out
    assert code == 0
    assert "PASS" in out


def test_estimate_finite_family(capsys):
    code = main(["estimate", "--family", "path", "--size", "25", "--trials", "10",
                 "--seed", "3"])
    out = capsys.readouterr().out
    assert code == 0
    assert "0 violations" in out


def test_expression_errors_exit_2(capsys):
    code = main(["distance", "--family", "path-nat", "--q", "n^", "--from", "1",
                 "--to", "2"])
    assert code == 2
    assert "error:" in capsys.readouterr().err


def test_missing_source_exits_2(capsys):
    code = main(["distance", "--from", "1", "--to", "2"])
    assert code == 2


def test_bad_graph_file_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"vertices": [{"id": "a", "q": 0.25}], "edges": []}))
    code = main(["check", "--graph-file", str(bad)])
    assert code == 2
    assert "$.vertices[0].q" in capsys.readouterr().err


@pytest.mark.parametrize("kind, reason", [("missing", "No such file or directory"),
                                          ("directory", "Is a directory"),
                                          ("not-utf8", "can't decode byte 0xe9")])
def test_unreadable_graph_file_exits_2(tmp_path, capsys, kind, reason):
    path = tmp_path / "g.json"
    if kind == "directory":
        path.mkdir()
    elif kind == "not-utf8":
        path.write_bytes(b'{"vertices": [{"id": "\xe9"}]}')  # Latin-1
    assert main(["check", "--graph-file", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot read graph file {str(path)!r}: ") and reason in err


@pytest.mark.parametrize("text", ["[" * 100000, '{"vertices": [{"id": ' + "7" * 5000 + "}]}"],
                         ids=["deep-nesting", "long-integer"])
def test_hostile_graph_file_exits_2(tmp_path, capsys, text):
    path = tmp_path / "hostile.json"
    path.write_text(text)
    assert main(["check", "--graph-file", str(path)]) == 2
    assert capsys.readouterr().err.startswith("error: $: invalid JSON: ")


def test_lone_surrogate_graph_file_exits_2(tmp_path, capsys):
    # the id parsed and built, and ball then failed to print it
    path = tmp_path / "g.json"
    path.write_text('{"vertices": [{"id": "a"}, {"id": "\\ud800"}],'
                    ' "edges": [{"u": "a", "v": "\\ud800"}]}')
    assert main(["ball", "--graph-file", str(path), "--x0", "a", "--radius", "5"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: $.vertices[1].id: vertex id must be valid Unicode")


def test_graph_file_round_trip_query(tmp_path, capsys):
    doc = {
        "vertices": [{"id": "a", "w": 4.0}, {"id": "b", "w": 9.0}],
        "edges": [{"u": "a", "v": "b", "a": 4.0}],
    }
    path = tmp_path / "g.json"
    path.write_text(json.dumps(doc))
    code = main(["distance", "--graph-file", str(path), "--from", "a", "--to", "b"])
    out = capsys.readouterr().out.strip()
    assert code == 0
    assert float(out) == 1.0


def test_no_subcommand_exits_2(capsys):
    assert main([]) == 2


def test_module_entry_point_subprocess():
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run(
        [sys.executable, "-m", "magschro", "distance", "--family", "path-nat",
         "--q", "n^2", "--from", "1", "--to", "4"],
        capture_output=True, text=True, timeout=120, env=env,
    )
    assert proc.returncode == 0
    assert float(proc.stdout.strip()) == pytest.approx(13.0 / 12.0, rel=1e-15)


def test_estimate_infinite_family_needs_constant(capsys):
    code = main(["estimate", "--family", "path-nat", "--q", "n^2", "--W=-(n^2)",
                 "--trials", "2", "--window", "30"])
    assert code == 2
    assert "Lipschitz" in capsys.readouterr().err


@pytest.mark.parametrize("trials", ["0", "-1"])
def test_estimate_trials_below_one_exits_2(capsys, trials):
    argv = ["estimate", "--family", "path", "--size", "10", "--trials", trials, "--json", "-"]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert "--trials must be at least 1" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("window", ["0", "-3"])
def test_estimate_window_below_one_exits_2(capsys, window):
    argv = ["estimate", "--family", "path-nat", "--q", "n^2", "--W=-(n^2)", "--lipschitz-c", "1",
            "--trials", "2", "--window", window]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert f"--window must be at least 1, got {window}" in captured.err
    assert captured.out == "" and "Traceback" not in captured.err


def test_spectrum_bad_window_token_exits_2(capsys):
    assert main(["spectrum", "--family", "path-nat", "--windows", "10,abc"]) == 2
    captured = capsys.readouterr()
    assert "--windows: 'abc' is not an integer window size" in captured.err
    assert captured.out == "" and "Traceback" not in captured.err


def test_spectrum_windows_of_a_finite_family(capsys):
    assert main(["spectrum", "--family", "path", "--size", "30", "--windows", "10,30"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "window_size,lambda_min,lambda_max,residual"
    assert [line.split(",")[0] for line in lines[1:]] == ["10", "30"]
    assert main(["spectrum", "--family", "path", "--size", "30", "--windows", "10,40"]) == 2
    captured = capsys.readouterr()
    assert "error: window size 40 exceeds the graph's 30 vertices" in captured.err
    assert captured.out == "" and "Traceback" not in captured.err


def test_json_reports_meet_no_type_but_complex(tmp_path, capsys, monkeypatch):
    """``check`` hands JSON a dict of plain values and ``estimate`` plain values
    with complex defects, which are written as {"re", "im"} objects."""
    from magschro import cli

    met = []
    default = cli._json_default
    monkeypatch.setattr(cli, "_json_default", lambda obj: met.append(type(obj)) or default(obj))
    target = tmp_path / "out.json"
    for argv in (["check", "--family", "path-nat", "--W=-(n^2)", "--q", "n^2"],
                 ["check", "--family", "star", "--size", "6"]):
        assert main(argv + ["--json", str(target)]) == 0
    assert met == []
    assert main(["estimate", "--family", "path-nat", "--lipschitz-c", "1", "--trials", "4",
                 "--window", "10", "--json", str(target)]) == 0
    capsys.readouterr()
    sweep = json.loads(target.read_text())["tapered_defect"]["last_sweep"]
    written = [point["value"] for point in sweep if point["value"] != 0]  # 0 is the int 0
    assert len(sweep) == 8 and len(written) == 6 and met == [complex] * 6
    assert all(sorted(value) == ["im", "re"] for value in written)
    with pytest.raises(TypeError, match="not JSON serializable: InputError"):
        default(InputError("x"))


@pytest.mark.parametrize("seed", range(6))
def test_estimate_sweeps_a_nonzero_defect_on_the_ray(tmp_path, capsys, seed):
    # u within the widest ramp and v next to u's support, so that some edge
    # carries u at one end and v at the other inside the ramp
    target = tmp_path / "out.json"
    assert main(["estimate", "--family", "path-nat", "--lipschitz-c", "1", "--seed", str(seed),
                 "--json", str(target)]) == 0
    capsys.readouterr()
    sweep = json.loads(target.read_text())["tapered_defect"]["last_sweep"]
    assert len(sweep) == 8 and isinstance(sweep[-1]["value"], dict)


def test_estimate_draws_its_functions_from_x0(monkeypatch, tmp_path, capsys):
    # on the ray the test functions live on --x0 .. --x0 + --window - 1, so a
    # far start sweeps a nonzero defect there instead of running out of budget
    drawn = []
    draw = cli.random_function
    monkeypatch.setattr(cli, "random_function",
                        lambda rng, ids, **kw: drawn.append(ids) or draw(rng, ids, **kw))
    target = tmp_path / "out.json"
    assert main(["estimate", "--family", "path-nat", "--lipschitz-c", "1", "--x0", "10000000",
                 "--json", str(target)]) == 0
    capsys.readouterr()
    sweep = json.loads(target.read_text())["tapered_defect"]["last_sweep"]
    assert len(sweep) == 8 and isinstance(sweep[-1]["value"], dict)
    assert min(map(min, drawn)) == 10**7 and max(map(max, drawn)) == 10**7 + 199


def test_estimate_scans_a_finite_graph_once_for_its_lipschitz_constant(monkeypatch, tmp_path,
                                                                      capsys):
    scans = []
    scan = criteria._scan
    monkeypatch.setattr(criteria, "_scan", lambda *args: scans.append(1) or scan(*args))
    target = tmp_path / "out.json"
    argv = ["estimate", "--family", "path", "--size", "25", "--q", "1 + n/5", "--trials", "10"]
    assert main(argv + ["--json", str(target)]) == 0
    capsys.readouterr()
    assert len(scans) == 1
    g = make_family({"family": "path", "size": 25, "q": "1 + n/5"})
    constant = json.loads(target.read_text())["energy"]["last_breakdown"]["lipschitz_constant"]
    assert constant == lipschitz_best_constant(g, g.vertices()).constant > 0


def test_spectrum_on_a_limit_circle_ray_exits_2_at_the_restart_cap(capsys):
    argv = ["spectrum", "--family", "path-nat", "--w", "n^-2", "--a", "n^3",
            "--windows", "2000"]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert "Lanczos did not converge within LANCZOS_MAXITER=" in captured.err
    assert captured.out == "" and "Traceback" not in captured.err


def test_spectrum_solves_ray_windows_that_the_dense_path_misses(capsys):
    # windows 199 and 200 miss the contract densely and meet it by bisection
    argv = ["spectrum", "--family", "path-nat", "--a", "n^3", "--windows", "100,199,200,201"]
    assert main(argv) == 0
    captured = capsys.readouterr()
    rows = [line.split(",") for line in captured.out.splitlines()[1:]]
    assert [int(row[0]) for row in rows] == [100, 199, 200, 201]
    assert all(float(row[3]) <= 1e-8 for row in rows) and captured.err == ""


def test_estimate_budget_exhausted_exits_1(capsys):
    code = main(["estimate", "--family", "path-nat", "--q", "n^2", "--W=-(n^2)",
                 "--lipschitz-c", "1", "--trials", "2", "--window", "30", "--budget", "3"])
    assert code == 1
    assert "unresolved within budget 3" in capsys.readouterr().err


def test_identity_suite_seed_reproducible():
    from magschro.suites import identity_suite

    a = identity_suite(seed=5, graphs=8)
    b = identity_suite(seed=5, graphs=8)
    assert a.residuals == b.residuals


@pytest.mark.parametrize("argv", [
    ["check", "--family", "path-nat", "--W=-(n^2)", "--q", "n^2", "--budget", "0"],
    ["check", "--family", "path-nat", "--W=-(n^2)", "--q", "n^2", "--budget", "-3"],
    ["ball", "--family", "path-nat", "--q", "n^2", "--radius", "1", "--budget", "0"],
    ["distance", "--family", "path-nat", "--from", "1", "--to", "5", "--budget", "0"],
    ["distance", "--family", "path-nat", "--from", "3", "--to", "3", "--budget", "0"],
], ids=["check-0", "check-negative", "ball-0", "distance-0", "distance-to-itself-0"])
def test_budget_below_one_exits_2(capsys, argv):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert "budget must be a positive integer" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("argv", [
    ["spectrum", "--family", "path", "--size", "30",
     "--W", "n^150*n^150 - n^150*n^150", "--windows", "30"],
    ["check", "--family", "path", "--size", "30", "--q", "n^150*n^150"],
    ["check", "--family", "path-nat", "--q", "n^150*n^150"],
], ids=["spectrum-nan-potential", "check-inf-minorant", "check-ray-inf-minorant"])
def test_non_finite_expression_exits_2(capsys, argv):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert "non-finite result" in captured.err
    assert captured.out == ""


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("argv, message", [
    (["estimate", "--family", "path", "--size", "5", "--trials", "2", "--w", "1e-300"],
     "non-finite value: the inputs overflow double precision"),
    (["estimate", "--family", "path", "--size", "5", "--trials", "2", "--a", "1e308"],
     "non-finite value: the inputs overflow double precision"),
    (["estimate", "--family", "path-nat", "--lipschitz-c", "1", "--a", "1e308"],
     "non-finite value: the inputs overflow double precision"),
    (["spectrum", "--family", "path", "--size", "300", "--windows", "100", "--W=1e308"],
     "truncation has non-finite entries (n=100)"),
    (["spectrum", "--family", "path-nat", "--w", "1e-320", "--windows", "300"],
     "truncation has non-finite entries (n=300)"),
], ids=["estimate-w", "estimate-a", "estimate-ray-a", "spectrum-hermitian-part",
        "spectrum-ray-w"])
def test_overflowing_inputs_exit_2_with_only_their_typed_error(capsys, argv, message):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", f"error: {message}\n")


@pytest.mark.parametrize("command, options", [("check", ["--x0", "a"]),
                                             ("spectrum", ["--windows", "2"])],
                         ids=["check", "spectrum"])
def test_non_finite_graph_file_exits_2(tmp_path, capsys, command, options):
    path = tmp_path / "g.json"
    path.write_text('{"vertices": [{"id": "a", "q": NaN}, {"id": "b", "w": Infinity}],'
                    ' "edges": [{"u": "a", "v": "b", "a": Infinity}]}')
    assert main([command, "--graph-file", str(path), *options]) == 2
    assert "$.vertices[0].q: expected a finite number" in capsys.readouterr().err


def test_nan_radius_exits_2(capsys):
    code = main(["ball", "--family", "path-nat", "--radius", "nan", "--budget", "3000"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert "ball radius must be nonnegative, got nan" in captured.err


@pytest.mark.parametrize("argv", [
    ["check", "--family", "path", "--size", "5", "--w", "1e-200", "--a", "1e200"],
    ["check", "--family", "path-nat", "--w", "1e-200", "--a", "1e200"],
], ids=["path", "path-nat"])
def test_zero_lipschitz_scale_exits_2(capsys, argv):
    # min(w) / a underflows to 0.0, which leaves the ratio on edge (1, 2) undefined
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert "edge (1, 2): the Lipschitz scale (min(w) / a)**0.5 underflows to 0" in captured.err
    assert captured.out == "" and "Traceback" not in captured.err


@pytest.mark.parametrize("w, message", [
    ("\u00b2", "unexpected character '\u00b2' (at position 0)"),
    ("2\u00b2", "unexpected character '\u00b2' (at position 1)"),
    ("(" * 300 + "n" + ")" * 300, "expression nested too deeply (at position 0)"),
], ids=["superscript", "digit-superscript", "nested-300"])
def test_hostile_expressions_exit_2(capsys, w, message):
    assert main(["check", "--family", "path-nat", "--w", w]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == f"error: {message}\n"


@pytest.mark.parametrize("command", ["check", "estimate"])
@pytest.mark.parametrize("value", ["nan", "inf", "-1"])
def test_hostile_lipschitz_constant_exits_2(capsys, command, value):
    argv = [command, "--family", "path-nat", "--q", "n^2", "--W=-(n^2)", "--budget", "3000",
            "--lipschitz-c", value]
    if command == "estimate":
        argv += ["--trials", "2", "--window", "30"]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "Lipschitz" in captured.err and "must be finite and nonnegative" in captured.err


def test_exponent_literal_in_family_expression(capsys):
    assert main(["check", "--family", "path", "--size", "300", "--W", "1e9*n"]) == 0
    assert "overall: pass" in capsys.readouterr().out
    assert main(["check", "--family", "path", "--size", "300", "--W", "1e+"]) == 2
    assert "exponent without digits in number literal (at position 0)" in capsys.readouterr().err


def test_far_end_inputs(capsys):
    """Errors beyond the explored window stay silent; far ids stay exact."""
    assert main(["check", "--family", "path-nat", "--W=1/(n-3000)", "--budget", "2000"]) == 0
    assert "overall: pass" in capsys.readouterr().out
    assert main(["check", "--family", "path-nat", "--W=1/(n-3000)", "--budget", "10000"]) == 2
    assert capsys.readouterr().err == "error: division by zero in '1/(n-3000)' (at n=3000)\n"
    assert main(["distance", "--family", "path-nat", "--from", "100000000000000000000",
                 "--to", "100000000000000000005"]) == 0
    assert capsys.readouterr().out == "5\n"
    assert main(["check", "--family", "path-nat", "--q", "n^40", "--budget", "5000"]) == 0
    out = capsys.readouterr().out
    assert "window: 5000 vertices, scope windowed" in out and "overall: partial" in out


@pytest.mark.parametrize("argv, message", [
    (["verify-identities", "--graphs", "-3"], "needs at least 1 graph, got -3"),
    (["verify-identities", "--graphs", "0"], "needs at least 1 graph, got 0"),
    (["verify-identities", "--max-vertices", "3"], "max_vertices=3"),
    (["reproduce", "paper-example", "--graphs", "0"], "needs at least 1 graph, got 0"),
    (["verify-identities", "--seed", "-1"], "--seed must be a non-negative integer, got -1"),
    (["estimate", "--family", "path-nat", "--lipschitz-c", "1", "--seed", "-1"],
     "--seed must be a non-negative integer, got -1"),
    (["reproduce", "paper-example", "--seed", "-1"],
     "--seed must be a non-negative integer, got -1"),
    (["spectrum", "--family", "path-nat", "--windows", "10", "--seed", "-2"],
     "--seed must be a non-negative integer, got -2"),
    (["spectrum", "--family", "path", "--size", "10", "--windows=-3,5"],
     "--windows: window size -3 must be at least 1"),
    (["spectrum", "--family", "path-nat", "--windows", "5,0"],
     "--windows: window size 0 must be at least 1"),
], ids=["identities-negative", "identities-0", "max-vertices-3", "reproduce-0",
        "identities-seed-negative", "estimate-seed-negative", "reproduce-seed-negative",
        "spectrum-seed-negative", "spectrum-window-finite", "spectrum-window-infinite"])
def test_suite_sizes_below_minimum_exit_2(capsys, argv, message):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert message in captured.err
    assert captured.out == "" and "Traceback" not in captured.err


def test_square_average_suite_needs_a_sample():
    from magschro.suites import square_average_suite

    with pytest.raises(InputError, match="at least 1 sample, got 0"):
        square_average_suite(samples=0)


def test_reproduce_lines_carry_stage_times(capsys, monkeypatch):
    from magschro import cli
    from magschro.reference import Step

    steps = [Step("criteria", True, "overall=pass", 1.234), Step("metric", False, "d = 13", 0.5)]
    monkeypatch.setattr(cli, "run_reference_scenario", lambda **kw: (steps, False))
    assert main(["reproduce", "paper-example"]) == 1
    assert capsys.readouterr().out.splitlines() == [
        "[PASS] criteria: overall=pass (1.23 s)",
        "[FAIL] metric: d = 13 (0.50 s)",
        "summary: FAILURES PRESENT",
    ]
