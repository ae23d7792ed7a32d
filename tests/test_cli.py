import json
import os
import pathlib
import subprocess
import sys

import pytest

from magschro.cli import main

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
