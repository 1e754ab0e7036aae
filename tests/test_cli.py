import json

import numpy as np
import pytest

from coneglow.cli import main


@pytest.fixture
def ones_spec(tmp_path):
    path = tmp_path / "ones.json"
    path.write_text(json.dumps({"kind": "matrix", "matrix": [[1.0, 1.0], [1.0, 1.0]]}))
    return str(path)


@pytest.fixture
def triangle_c0_spec(tmp_path):
    path = tmp_path / "tri0.json"
    path.write_text(json.dumps({"kind": "triangle", "c": 0.0}))
    return str(path)


def test_detect_confirmed_exit_zero(ones_spec, tmp_path):
    out = tmp_path / "report.json"
    code = main(["detect", "--spec", ones_spec, "--seed", "3",
                 "--out", str(out)])
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["status"] == "confirmed"
    assert doc["config"]["seed"] == 3
    assert doc["config"]["box_radius"] == 100.0


def test_detect_undetermined_exit_two(triangle_c0_spec, tmp_path):
    out = tmp_path / "report.json"
    code = main(["detect", "--spec", triangle_c0_spec, "--max-samples", "1000",
                 "--out", str(out)])
    assert code == 2
    doc = json.loads(out.read_text())
    assert doc["status"] == "undetermined"
    assert doc["samples_used"] == 1000


def test_detect_malformed_json_exit_one(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"kind": "matrix",\n  "matrix": [[1.0, }')
    out = tmp_path / "report.json"
    code = main(["detect", "--spec", str(bad), "--out", str(out)])
    assert code == 1
    assert not out.exists()
    err = capsys.readouterr().err
    assert "bad.json:2:" in err  # line-anchored diagnostic


def test_detect_bad_sigma_exit_one(tmp_path, capsys):
    bad = tmp_path / "sigma.json"
    bad.write_text(json.dumps({
        "kind": "meansum",
        "coordinates": [[{"r": 1, "sigma": [0.7, 0.7], "coeff": 1.0}],
                        [{"r": 1, "sigma": [0.5, 0.5], "coeff": 1.0}]],
    }))
    out = tmp_path / "report.json"
    code = main(["detect", "--spec", str(bad), "--out", str(out)])
    assert code == 1
    assert not out.exists()
    assert "sigma" in capsys.readouterr().err


def test_localize_pipeline(ones_spec, tmp_path, capsys):
    report = tmp_path / "report.json"
    assert main(["detect", "--spec", ones_spec, "--out", str(report)]) == 0
    ball = tmp_path / "ball.json"
    code = main(["localize", "--spec", ones_spec, "--report", str(report),
                 "--out", str(ball)])
    assert code == 0
    doc = json.loads(ball.read_text())
    assert doc["metric"] == "hilbert"
    assert doc["radius"] > 0
    printed = capsys.readouterr().out
    assert "eigenvector" in printed


def test_localize_undetermined_exit_one(triangle_c0_spec, tmp_path, capsys):
    report = tmp_path / "report.json"
    assert main(["detect", "--spec", triangle_c0_spec, "--max-samples", "500",
                 "--out", str(report)]) == 2
    code = main(["localize", "--spec", triangle_c0_spec,
                 "--report", str(report), "--out", str(tmp_path / "b.json")])
    assert code == 1
    assert "nothing to localize" in capsys.readouterr().err


def test_localize_dimension_mismatch(ones_spec, tmp_path, capsys):
    report = tmp_path / "report.json"
    assert main(["detect", "--spec", ones_spec, "--out", str(report)]) == 0
    other = tmp_path / "tri.json"
    other.write_text(json.dumps({"kind": "triangle", "c": 0.25}))
    code = main(["localize", "--spec", str(other), "--report", str(report),
                 "--out", str(tmp_path / "b.json")])
    assert code == 1
    assert "mismatch" in capsys.readouterr().err


def test_affine_sup_detect_and_localize(tmp_path, capsys):
    spec = tmp_path / "affine.json"
    spec.write_text(json.dumps({
        "kind": "affine",
        "matrix": [[0.5, 0.0], [0.0, 0.5]],
        "offset": [1.0, 1.0],
        "norm": "sup",
    }))
    report = tmp_path / "report.json"
    assert main(["detect", "--spec", str(spec), "--out", str(report)]) == 0
    ball = tmp_path / "ball.json"
    assert main(["localize", "--spec", str(spec), "--report", str(report),
                 "--out", str(ball)]) == 0
    doc = json.loads(ball.read_text())
    assert doc["metric"] == "sup"
    # the unique fixed point (2, 2) lies inside the reported ball
    center = np.array(doc["center"])
    assert np.max(np.abs(center - 2.0)) <= doc["radius"] + 1e-9
    assert "fixed point" in capsys.readouterr().out


def test_affine_euclid_polytope(tmp_path):
    spec = tmp_path / "affine.json"
    spec.write_text(json.dumps({
        "kind": "affine",
        "matrix": [[0.0, -0.9], [0.9, 0.0]],
        "offset": [0.0, 0.0],
        "norm": "euclid",
    }))
    report = tmp_path / "report.json"
    assert main(["detect", "--spec", str(spec), "--out", str(report)]) == 0
    out = tmp_path / "poly.json"
    assert main(["localize", "--spec", str(spec), "--report", str(report),
                 "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["bounded"] is True
    assert len(doc["rows"]) >= 3


def test_trials_csv_deterministic(ones_spec, tmp_path):
    out1 = tmp_path / "a.csv"
    out2 = tmp_path / "b.csv"
    args = ["trials", "--spec", ones_spec, "--trials", "12", "--seed", "9"]
    assert main(args + ["--out", str(out1)]) == 0
    assert main(args + ["--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()

    lines = out1.read_text().strip().splitlines()
    assert lines[0].startswith("# config ")
    assert lines[1] == "trial_index,samples_used,confirmed"
    assert len(lines) == 2 + 12 + 1
    assert lines[-1].startswith("-1,")
    config = json.loads(lines[0][len("# config "):])
    assert config["seed"] == 9


def test_trials_expect_diff(ones_spec, tmp_path, capsys):
    out = tmp_path / "t.csv"
    assert main(["trials", "--spec", ones_spec, "--trials", "5",
                 "--out", str(out), "--expect", "1,10,3.0,3"]) == 0
    printed = capsys.readouterr().out
    assert "expected:" in printed
    assert "diff:" in printed


def test_trials_rejects_affine(tmp_path, capsys):
    spec = tmp_path / "affine.json"
    spec.write_text(json.dumps({
        "kind": "affine", "matrix": [[0.5]], "offset": [0.0], "norm": "sup",
    }))
    assert main(["trials", "--spec", str(spec), "--trials", "2",
                 "--out", str(tmp_path / "t.csv")]) == 1
    assert "cone map" in capsys.readouterr().err


def test_missing_spec_file(tmp_path, capsys):
    code = main(["detect", "--spec", str(tmp_path / "missing.json"),
                 "--out", str(tmp_path / "r.json")])
    assert code == 1


def test_inline_spec(tmp_path):
    inline = json.dumps({"kind": "matrix", "matrix": [[1.0, 1.0], [1.0, 1.0]]})
    out = tmp_path / "report.json"
    assert main(["detect", "--spec", inline, "--out", str(out)]) == 0
    assert json.loads(out.read_text())["status"] == "confirmed"


def test_worker_count_does_not_change_trials(ones_spec, tmp_path, monkeypatch):
    serial = tmp_path / "serial.csv"
    parallel = tmp_path / "parallel.csv"
    args = ["trials", "--spec", ones_spec, "--trials", "8", "--seed", "2"]
    monkeypatch.setenv("CONEGLOW_THREADS", "1")
    assert main(args + ["--out", str(serial)]) == 0
    monkeypatch.setenv("CONEGLOW_THREADS", "2")
    assert main(args + ["--out", str(parallel)]) == 0
    assert serial.read_bytes() == parallel.read_bytes()


@pytest.mark.parametrize("count", ["0", "-3"])
def test_trials_nonpositive_count_exit_one(ones_spec, tmp_path, capsys, count):
    out = tmp_path / "t.csv"
    assert main(["trials", "--spec", ones_spec, "--trials", count,
                 "--out", str(out)]) == 1
    assert not out.exists()
    assert capsys.readouterr().err.startswith("error: --trials")


def test_threads_not_integer_exit_one(ones_spec, tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("CONEGLOW_THREADS", "abc")
    assert main(["trials", "--spec", ones_spec, "--trials", "2",
                 "--out", str(tmp_path / "t.csv")]) == 1
    assert "CONEGLOW_THREADS" in capsys.readouterr().err


@pytest.mark.parametrize("spec", [
    {"kind": "matrix", "matrix": [[1, "a"], [1, 1]]},
    {"kind": "affine", "matrix": [[0.5, "a"], [0.0, 0.5]], "offset": [0, 0],
     "norm": "euclid"},
])
def test_non_numeric_spec_entry_exit_one(tmp_path, capsys, spec):
    out = tmp_path / "report.json"
    assert main(["detect", "--spec", json.dumps(spec), "--out", str(out)]) == 1
    assert not out.exists()
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "'a'" in err
    assert err.count("\n") == 1
