import hashlib
import json
import os
import warnings
from pathlib import Path

import numpy as np
import pytest

from coneglow import DomainError, cli, conemaps
from coneglow.cli import main

SPECS = Path(__file__).resolve().parents[1] / "specs"


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


def test_detect_undetermined_exit_two(triangle_c0_spec, tmp_path, capsys):
    # residuals 1e308 wide: their sum overflows unless the hull solve scales them
    huge = ('{"kind": "affine", "matrix": [[1, 0], [0, 1]], "offset": [1e308, 0], '
            '"norm": "euclid"}')
    for spec in (triangle_c0_spec, huge):
        out = tmp_path / "report.json"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["detect", "--spec", spec, "--max-samples", "1000",
                         "--out", str(out)])
        assert code == 2
        doc = json.loads(out.read_text())
        assert doc["status"] == "undetermined"
        assert doc["samples_used"] == 1000
        assert capsys.readouterr().err == ""


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


def test_detect_infinite_coeff_exit_one(tmp_path, capsys):
    bad = tmp_path / "coeff.json"
    bad.write_text(json.dumps({
        "kind": "meansum",
        "coordinates": [[{"r": 1, "sigma": [0.5, 0.5], "coeff": "inf"}],
                        [{"r": 1, "sigma": [0.5, 0.5], "coeff": 1.0}]],
    }))
    out = tmp_path / "report.json"
    code = main(["detect", "--spec", str(bad), "--out", str(out)])
    assert code == 1
    assert not out.exists()
    err = capsys.readouterr().err
    assert "coefficient inf" in err and err.count("\n") == 1


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


def test_localize_unconverged_power_iteration(tmp_path, capsys, monkeypatch):
    # from the ones vector the power iterates of this matrix alternate
    # between (1, 1) and (2, 1); its eigenvector is (sqrt 2, 1)
    spec = json.dumps({"kind": "matrix", "matrix": [[0, 2], [1, 0]]})
    report, ball = tmp_path / "report.json", tmp_path / "ball.json"
    assert main(["detect", "--spec", spec, "--out", str(report)]) == 0
    power_iteration = conemaps.power_iteration
    monkeypatch.setattr(conemaps, "power_iteration",
                        lambda *args: power_iteration(*args, max_iter=50))
    assert main(["localize", "--spec", spec, "--report", str(report),
                 "--out", str(ball)]) == 0
    printed = capsys.readouterr().out
    assert printed == "eigenvector: not converged after 50 power iterations\n"
    doc = json.loads(ball.read_text())
    assert doc["metric"] == "hilbert" and doc["radius"] > 0


def test_localize_one_dimensional_eigenvector(tmp_path, capsys):
    spec = json.dumps({"kind": "matrix", "matrix": [[3.0]]})
    report, ball = tmp_path / "report.json", tmp_path / "ball.json"
    assert main(["detect", "--spec", spec, "--out", str(report)]) == 0
    assert json.loads(report.read_text())["samples_used"] == 0
    assert main(["localize", "--spec", spec, "--report", str(report),
                 "--out", str(ball)]) == 0
    assert json.loads(ball.read_text()) == {"metric": "hilbert", "center": [1.0],
                                            "radius": 0.0}
    assert "eigenvalue: 3.0" in capsys.readouterr().out


def test_localize_schoen_composition_output(tmp_path, capsys):
    # the printed eigenpair and the ball's bytes on the bundled Schoen spec
    spec = str(SPECS / "schoen_composition.json")
    report, ball = tmp_path / "report.json", tmp_path / "ball.json"
    assert main(["detect", "--spec", spec, "--seed", "7", "--out", str(report)]) == 0
    capsys.readouterr()
    assert main(["localize", "--spec", spec, "--report", str(report),
                 "--out", str(ball)]) == 0
    assert capsys.readouterr().out == (
        "eigenvector: [0.4803033070513574, 0.19802326779894064, "
        "1.354384198203245, 1.0]\n"
        "eigenvalue: 40.13685672707706\n")
    assert hashlib.sha256(ball.read_bytes()).hexdigest() == (
        "5b5f25358ec92e934311fa4fb7c0f59e86ef6b5cf006ad81380c6115b72073d3")


# the meansum spec of the CI smoke test: r = inf, 0, -inf and 2 on partial supports
MEANSUM = json.dumps({"kind": "meansum", "coordinates": [
    [{"r": "inf", "sigma": [0.5, 0.5, 0.0], "coeff": 1.0},
     {"r": 0, "sigma": [0.2, 0.3, 0.5], "coeff": 0.5}],
    [{"r": "-inf", "sigma": [0.0, 0.5, 0.5], "coeff": 1.0},
     {"r": 2, "sigma": [0.5, 0.5, 0.0], "coeff": 1.0}],
    [{"r": 0, "sigma": [0.5, 0.0, 0.5], "coeff": 2.0}]]})
_N3_BALL = "d5d4a2b1bb023371a0776f225c15abc5238bbea79301f8407aa1129f9398b51f"


@pytest.mark.parametrize("spec, stdout, ball_sha", [
    (str(SPECS / "ones_matrix.json"), "eigenvector: [1.0, 1.0]\neigenvalue: 2.0\n",
     "7b92363f978716ecf5a100fcb8b9184d3f929c435c2ec97750fdeea611f23937"),
    (str(SPECS / "triangle_c13.json"),
     "eigenvector: [1.0, 1.0, 1.0]\neigenvalue: 1.0\n", _N3_BALL),
    (str(SPECS / "triangle_c16.json"),
     "eigenvector: [1.0, 1.0, 1.0]\neigenvalue: 1.0\n", _N3_BALL),
    (MEANSUM, "eigenvector: [0.8471646047337915, 1.0663838055919945, 1.0]\n"
     "eigenvalue: 1.8408309044926332\n", _N3_BALL),
], ids=["ones_matrix", "triangle_c13", "triangle_c16", "meansum"])
def test_localize_eigenpair_output(tmp_path, capsys, spec, stdout, ball_sha):
    # as test_localize_schoen_composition_output: the converged maps keep
    # their printed digits and ball bytes (the three n = 3 reports at seed 7
    # give one ball)
    report, ball = tmp_path / "report.json", tmp_path / "ball.json"
    assert main(["detect", "--spec", spec, "--seed", "7", "--out", str(report)]) == 0
    capsys.readouterr()
    assert main(["localize", "--spec", spec, "--report", str(report),
                 "--out", str(ball)]) == 0
    assert capsys.readouterr().out == stdout
    assert hashlib.sha256(ball.read_bytes()).hexdigest() == ball_sha


# the n = 8 meansum spec of the CI smoke test: r = 1, 0, 2, -1, -inf, inf on
# full supports; each coordinate adds two means
_WIDE_PAIRS = [(1, 0), (0, 0), (2, -1), (0, "-inf"), ("inf", 0), (1, -1), (0, 1), (2, 0)]
WIDE = json.dumps({"kind": "meansum", "coordinates": [
    [{"r": r, "sigma": [0.125] * 8, "coeff": 1.0} for r in pair] for pair in _WIDE_PAIRS]})


def test_detect_wide_meansum_report_bytes(tmp_path):
    # its 1024-row batches pass the plan's 2048-row step before seed 3
    # confirms; the closed-form r = +-1 means keep the report's bytes
    out = tmp_path / "wide.json"
    assert main(["detect", "--spec", WIDE, "--seed", "3", "--max-samples", "6000",
                 "--out", str(out)]) == 0
    assert json.loads(out.read_text())["samples_used"] == 4215
    assert hashlib.sha256(out.read_bytes()).hexdigest() == (
        "71042bc177c84218045305a6ac8aefe462b4208a1e80999ddb11422e55228196")


def test_detect_undetermined_triangle_report_bytes(tmp_path):
    # the run CI repeats: after the first batch the three pairs are covered
    # and the three singletons never are, so each later batch is tested
    # against those three alone; the witnesses are those of the sorted pass
    out = tmp_path / "tri0.json"
    assert main(["detect", "--spec", str(SPECS / "triangle_c0.json"),
                 "--max-samples", "20000", "--out", str(out)]) == 2
    doc = json.loads(out.read_text())
    assert (doc["samples_used"], doc["subsets_covered"]) == (20000, 3)
    assert hashlib.sha256(out.read_bytes()).hexdigest() == (
        "62efdc57d5aec9cb2648e04bc63ec0f1453715709f008abcaf158587517656f5")


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


def _swap_first_points(doc):
    w = doc["witnesses"]
    w[0]["point"], w[1]["point"] = w[1]["point"], w[0]["point"]


def _set_first_subset(subset):
    def edit(doc):
        doc["witnesses"][0]["subset"] = subset
    return edit


def _drop_last_witness(doc):
    # subsets_covered follows, so the report reaches the coverage check
    doc["witnesses"].pop()
    doc["subsets_covered"] -= 1


@pytest.mark.parametrize("edit, message", [
    (_swap_first_points, "error: witness"),
    (_set_first_subset([9]), "malformed report (subset [9] must list"),
    (_set_first_subset([]), "error: witness"),
    (_set_first_subset([0, 1, 2, 3]), "error: witness"),
    (_drop_last_witness, "error: witnesses cover 13 of 14"),
], ids=["swapped", "subset-9", "subset-empty", "subset-full", "dropped"])
def test_localize_rejects_edited_witnesses(tmp_path, capsys, edit, message):
    spec = str(SPECS / "schoen_composition.json")
    report = tmp_path / "report.json"
    assert main(["detect", "--spec", spec, "--seed", "7",
                 "--out", str(report)]) == 0
    doc = json.loads(report.read_text())
    edit(doc)
    report.write_text(json.dumps(doc))
    out = tmp_path / "ball.json"
    assert main(["localize", "--spec", spec, "--report", str(report),
                 "--out", str(out)]) == 1
    assert not out.exists()
    err = capsys.readouterr().err
    assert message in err and err.startswith("error: ") and err.count("\n") == 1


def test_localize_rejects_edited_sup_witness(tmp_path, capsys):
    spec = str(SPECS / "affine_sup_contraction.json")
    report = tmp_path / "report.json"
    assert main(["detect", "--spec", spec, "--out", str(report)]) == 0
    doc = json.loads(report.read_text())
    _swap_first_points(doc)
    report.write_text(json.dumps(doc))
    assert main(["localize", "--spec", spec, "--report", str(report),
                 "--out", str(tmp_path / "ball.json")]) == 1
    assert "does not realize it" in capsys.readouterr().err


EUCLID_2D = json.dumps({"kind": "affine", "matrix": [[0.0, -0.9], [0.9, 0.0]],
                        "offset": [0.0, 0.0], "norm": "euclid"})
SUP_2D = str(SPECS / "affine_sup_contraction.json")
ONES = str(SPECS / "ones_matrix.json")


def _set_field(*path, value):
    def edit(doc):
        for key in path[:-1]:
            doc = doc[key]
        doc[path[-1]] = value
    return edit


@pytest.mark.parametrize("spec, edit", [
    (EUCLID_2D, lambda doc: [p.append(1.0) for p in doc["probe_points"]]),
    (SUP_2D, _set_field("dimension", value=2.0)),
    (SUP_2D, _set_field("dimension", value=True)),
    (SUP_2D, _set_field("dimension", value=25)),
    (SUP_2D, _set_field("kind", value="fixed_point")),
    (SUP_2D, _set_field("total_subsets", value=2)),
    (SUP_2D, _set_field("witnesses", 0, "subset", value=[0, 0])),
    (SUP_2D, lambda doc: doc["witnesses"][0]["point"].append(1.0)),
    (SUP_2D, _set_field("config", "max_samples", value=2.5)),
    (SUP_2D, _set_field("config", "seed", value=1.5)),
    (SUP_2D, _set_field("config", "box_radius", value=True)),
    (SUP_2D, _set_field("config", "box_radius", value=10 ** 400)),
    (SUP_2D, _set_field("seed", value=12345)),
    (SUP_2D, _set_field("subsets_covered", value=1)),
    (SUP_2D, _set_field("samples_used", value=-5)),
    (SUP_2D, _set_field("samples_used", value=100001)),
    (SUP_2D, _set_field("samples_used", value=3.0)),
    (SUP_2D, _set_field("probe_points", value=[[0.0, 0.0]])),
    (EUCLID_2D, lambda doc: doc.pop("probe_points")),
    (EUCLID_2D, lambda doc: doc["probe_points"].pop()),
    (EUCLID_2D, lambda doc: doc["witnesses"].append({"subset": [0], "point": [0.0, 0.0]})),
    (ONES, lambda doc: doc["witnesses"][0].update(
        point=[str(x) for x in doc["witnesses"][0]["point"]])),
    (SUP_2D, _set_field("witnesses", 0, "point", 1, value=True)),
    (SUP_2D, _set_field("witnesses", 0, "point", 0, value=None)),
    (SUP_2D, _set_field("witnesses", 0, "point", value=[10 ** 20, "1"])),
    (EUCLID_2D, _set_field("probe_points", 0, 1, value="0.5")),
    (EUCLID_2D, _set_field("probe_points", 1, 0, value=False)),
    (SUP_2D, lambda doc: doc["witnesses"].append(dict(doc["witnesses"][0]))),
    (EUCLID_2D, lambda doc: doc.update(subsets_covered=1, witnesses=[
        {"subset": [0], "point": [0.0, 0.0]}])),
], ids=["probe-length", "dimension-float", "dimension-bool", "dimension-cap",
        "kind", "total", "subset-repeat", "point-length", "budget-float",
        "seed-float", "box-radius-bool", "box-radius-huge", "seed-mismatch",
        "covered-mismatch", "samples-negative", "samples-over-budget", "samples-float",
        "probe-on-sup", "probe-missing", "probe-count", "witness-on-smooth",
        "point-strings", "point-bool", "point-null", "point-string-beside-huge-int",
        "probe-string", "probe-bool", "witness-repeat", "witness-count"])
def test_localize_rejects_malformed_report(tmp_path, capsys, spec, edit):
    report = tmp_path / "report.json"
    assert main(["detect", "--spec", spec, "--out", str(report)]) == 0
    doc = json.loads(report.read_text())
    edit(doc)
    report.write_text(json.dumps(doc))
    out = tmp_path / "out.json"
    assert main(["localize", "--spec", spec, "--report", str(report),
                 "--out", str(out)]) == 1
    assert not out.exists()
    err = capsys.readouterr().err
    assert "malformed report" in err and err.count("\n") == 1


def test_localize_rejects_truncated_smooth_report(tmp_path, capsys):
    # a confirmed smooth report cut down to its first probe point: one
    # residual cannot surround 0, so the hull check refuses it
    report = tmp_path / "report.json"
    assert main(["detect", "--spec", EUCLID_2D, "--out", str(report)]) == 0
    doc = json.loads(report.read_text())
    doc["probe_points"], doc["samples_used"] = doc["probe_points"][:1], 1
    report.write_text(json.dumps(doc))
    out = tmp_path / "poly.json"
    assert main(["localize", "--spec", EUCLID_2D, "--report", str(report),
                 "--out", str(out)]) == 1
    assert not out.exists()
    err = capsys.readouterr().err
    assert err.startswith("error: 0 is not interior") and err.count("\n") == 1


def test_localize_rejects_polytope_missing_fixed_point(tmp_path, capsys):
    # f(w) = 2w is not nonexpansive: its residuals w surround 0, yet every
    # row <v, -w> <= -|w|^2 cuts off its fixed point 0
    spec = json.dumps({"kind": "affine", "matrix": [[2.0, 0.0], [0.0, 2.0]],
                       "offset": [0.0, 0.0], "norm": "euclid"})
    report = tmp_path / "report.json"
    assert main(["detect", "--spec", spec, "--out", str(report)]) == 0
    out = tmp_path / "poly.json"
    assert main(["localize", "--spec", spec, "--report", str(report),
                 "--out", str(out)]) == 1
    assert not out.exists()
    assert capsys.readouterr().err.startswith("error: containment violated")


def _projection(offset):
    # the orthogonal projection onto the diagonal plus an offset: nonexpansive,
    # with a line of fixed points when the offset lies on the anti-diagonal
    # and none otherwise; I - A is singular either way
    return json.dumps({"kind": "affine", "matrix": [[0.5, 0.5], [0.5, 0.5]],
                       "offset": offset, "norm": "euclid"})


def _smooth_report(path, probe_points, box_radius=100.0):
    config = {"box_radius": box_radius, "max_samples": 100000, "seed": 0, "gap_tol": 1e-09}
    path.write_text(json.dumps({
        "kind": "fixed_point_smooth", "status": "confirmed", "dimension": 2,
        "samples_used": len(probe_points), "subsets_covered": 0, "total_subsets": 0,
        "seed": 0, "config": config, "witnesses": [], "probe_points": probe_points}))


DELTA_SPEC = _projection([1, -0.99999999])


def test_projection_off_its_range_is_not_confirmed(tmp_path, capsys):
    # its residuals lie on a line 5e-9 from 0.  Three of them nearly span
    # the plane, but their least singular value is below |w|, so neither a
    # run nor a report of the three probe points below confirms
    report = tmp_path / "report.json"
    assert main(["detect", "--spec", DELTA_SPEC, "--out", str(report)]) == 2
    _smooth_report(report, [[27.39233746429086, -46.04265724722594],
                            [-91.80529521276107, -96.69447289429418],
                            [62.65404784005449, 82.55111545554433]])
    out = tmp_path / "poly.json"
    assert main(["localize", "--spec", DELTA_SPEC, "--report", str(report),
                 "--out", str(out)]) == 1
    assert not out.exists()
    err = capsys.readouterr().err
    assert err == "error: 0 is not interior to the hull of the probe residuals\n"


def test_localize_singular_affine_map_exit_one(tmp_path, capsys):
    # residuals of size 5e7, collinear up to rounding: LAPACK puts their least
    # singular value at 2.2e-10, above the hull test's absolute tolerance, but
    # the test scales each column past 1 to its own size, so this report of
    # a map with a whole line of fixed points fails verify
    report = tmp_path / "report.json"
    _smooth_report(report, [[27392337.464290857, -46042657.24722594],
                            [-91805295.21276106, -96694472.89429419],
                            [62654047.84005448, 82551115.45554435]], box_radius=1e8)
    out = tmp_path / "poly.json"
    assert main(["localize", "--spec", _projection([1, -1]), "--report", str(report),
                 "--out", str(out)]) == 1
    assert not out.exists()
    err = capsys.readouterr().err
    assert err == "error: 0 is not interior to the hull of the probe residuals\n"


def test_detect_singular_affine_map_at_a_large_box_is_not_confirmed(tmp_path):
    # the same projection spends its whole budget instead of confirming
    # after 3 samples
    report = tmp_path / "report.json"
    assert main(["detect", "--spec", _projection([1, -1]), "--box-radius", "1e8",
                 "--max-samples", "20000", "--out", str(report)]) == 2
    assert json.loads(report.read_text())["samples_used"] == 20000


def test_localize_singular_i_minus_a_exit_one(tmp_path, capsys, monkeypatch):
    # a report that holds, for a map whose fixed point cannot be solved for
    report = tmp_path / "report.json"
    assert main(["detect", "--spec", EUCLID_2D, "--out", str(report)]) == 0

    def singular(*args):
        raise np.linalg.LinAlgError("Singular matrix")

    monkeypatch.setattr(np.linalg, "solve", singular)
    out = tmp_path / "poly.json"
    assert main(["localize", "--spec", EUCLID_2D, "--report", str(report),
                 "--out", str(out)]) == 1
    assert not out.exists()
    err = capsys.readouterr().err
    assert err.startswith("error: I - A is singular") and err.count("\n") == 1


def test_localize_accepts_c16_report_with_c13_spec(tmp_path):
    # the witnesses of a c = 1/6 triangle report also realize their subsets
    # under c = 1/3, so the report is a valid certificate for that map too
    report = tmp_path / "report.json"
    assert main(["detect", "--spec", str(SPECS / "triangle_c16.json"),
                 "--out", str(report)]) == 0
    assert main(["localize", "--spec", str(SPECS / "triangle_c13.json"),
                 "--report", str(report), "--out", str(tmp_path / "b.json")]) == 0


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


def test_euclid_beyond_the_mask_cap_detects_and_localizes(tmp_path):
    # the 24 cap guards the 2**n masks of the sup and eigenvector kinds;
    # a smooth report has none, so a 25-d contraction localizes
    n = 25
    spec = json.dumps({"kind": "affine", "matrix": (0.5 * np.eye(n)).tolist(),
                       "offset": [1.0] * n, "norm": "euclid"})
    report, poly = tmp_path / "report.json", tmp_path / "poly.json"
    assert main(["detect", "--spec", spec, "--out", str(report)]) == 0
    assert main(["localize", "--spec", spec, "--report", str(report),
                 "--out", str(poly)]) == 0
    assert json.loads(poly.read_text())["bounded"] is True


@pytest.mark.parametrize("spec, flags, message", [
    ('{"kind": "matrix", "matrix": [[0, 1], [1e-300, 0]]}', [],
     "map values must be positive and finite"),
    (str(SPECS / "ones_matrix.json"), ["--gap-tol", "1e308"],
     "gap tolerance must be in [0, 1)"),
    ('{"kind": "affine", "matrix": [[-1, 0], [0, -1]], "offset": [0, 0], "norm": "sup"}',
     ["--box-radius", "1e308"],
     "box radius 1e+308 is too large: the box width 2R overflows"),
], ids=["underflow", "gap-tol", "box-radius"])
def test_refused_without_a_numpy_warning(tmp_path, capsys, spec, flags, message):
    out = tmp_path / "report.json"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["detect", "--spec", spec, *flags, "--out", str(out)]) == 1
    assert not out.exists()
    assert capsys.readouterr().err == f"error: {message}\n"


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


def test_trials_malformed_expect_runs_nothing(ones_spec, tmp_path, capsys):
    out = tmp_path / "t.csv"
    assert main(["trials", "--spec", ones_spec, "--trials", "3",
                 "--out", str(out), "--expect", "1,2,3"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: --expect wants 'min,max,mean,median'\n"
    assert not out.exists()


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


@pytest.mark.parametrize("count", ["0", "-3"])
def test_trials_nonpositive_count_exit_one(ones_spec, tmp_path, capsys, count):
    out = tmp_path / "t.csv"
    assert main(["trials", "--spec", ones_spec, "--trials", count,
                 "--out", str(out)]) == 1
    assert not out.exists()
    assert capsys.readouterr().err.startswith("error: --trials")


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


AFFINE = {"kind": "affine", "matrix": [[0.5, 0.0], [0.0, 0.5]], "offset": [0.0, 0.0],
          "norm": "sup"}
MEAN = {"r": 1, "sigma": [0.5, 0.5], "coeff": 1.0}


def _meansum(**term):
    return {"kind": "meansum", "coordinates": [[dict(MEAN, **term)], [MEAN]]}


@pytest.mark.parametrize("spec, shown", [
    ({"kind": "matrix", "matrix": [["1", "1"], ["1", "1"]]}, "matrix: expected a number, not '1'"),
    ({"kind": "matrix", "matrix": [[1, 1], [1, True]]}, "matrix: expected a number, not True"),
    (dict(AFFINE, offset=[1, True]), "affine offset: expected a number, not True"),
    (dict(AFFINE, matrix=[[0.5, None], [0.0, 0.5]]), "affine matrix: expected a number, not None"),
    (dict(AFFINE, offset=[10 ** 20, "1"]), "affine offset: expected a number, not '1'"),
    ({"kind": "triangle", "c": "0.2"}, "c: expected a number, not '0.2'"),
    ({"kind": "schoen", "coefficients": [[1, 1, 0, 0]] * 3 + [[1, 1, 0, False]]},
     "coefficients: expected a number, not False"),
    (_meansum(sigma=["0.5", 0.5]), "sigma: expected a number, not '0.5'"),
    (_meansum(r=True), "r: expected a number, not True"),
    (_meansum(coeff=None), "coeff: expected a number, not None"),
    (_meansum(coeff="2"), "unrecognized mean coefficient '2'"),
    ({"kind": "scale", "alpha": "2", "child": {"kind": "matrix", "matrix": [[1]]}},
     "alpha: expected a number, not '2'"),
], ids=["matrix-strings", "matrix-bool", "offset-bool", "affine-null",
        "offset-string-beside-huge-int", "triangle-string", "schoen-bool",
        "sigma-string", "exponent-bool", "coeff-null", "coeff-string", "alpha-string"])
def test_spec_numbers_must_be_json_numbers(tmp_path, capsys, spec, shown):
    # a float cast would read these as numbers; each is one error line
    out = tmp_path / "report.json"
    assert main(["detect", "--spec", json.dumps(spec), "--out", str(out)]) == 1
    assert not out.exists()
    assert capsys.readouterr().err == f"error: <inline>: {shown}\n"


def test_inline_spec_error_names_inline(tmp_path, capsys):
    inline = json.dumps({
        "kind": "meansum",
        "coordinates": [[{"r": 1, "sigma": [0.5, 0.5], "coeff": "inf"}],
                        [{"r": 1, "sigma": [0.5, 0.5], "coeff": 1.0}]],
    })
    assert main(["detect", "--spec", inline,
                 "--out", str(tmp_path / "report.json")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: <inline>: mean coefficient inf")
    assert '"kind"' not in err and err.count("\n") == 1


NESTED = ('{"kind": "scale", "alpha": 1.0, "child": ' * 1000
          + '{"kind": "matrix", "matrix": [[1.0]]}' + "}" * 1000)
# json.loads refuses an integer of more than 4300 digits with a ValueError
HUGE_INT = '{"kind": "matrix", "matrix": [[' + "1" * 5000 + "]]}"


@pytest.mark.parametrize("text, inline, message", [
    (b"\xff", False, "not UTF-8 text"),
    (NESTED.encode(), False, "JSON nested too deeply"),
    (NESTED, True, "JSON nested too deeply"),
    (HUGE_INT.encode(), False, "Exceeds the limit"),
    (HUGE_INT, True, "Exceeds the limit"),
], ids=["not-utf8", "nested-file", "nested-inline", "huge-int-file", "huge-int-inline"])
@pytest.mark.parametrize("command", ["detect", "localize"])
def test_unreadable_json_exit_one(tmp_path, capsys, command, text, inline, message):
    if inline:
        arg = text
    else:
        arg = str(tmp_path / "bad.json")
        Path(arg).write_bytes(text)
    if command == "detect":
        argv = ["detect", "--spec", arg]
    else:
        argv = ["localize", "--spec", str(SPECS / "ones_matrix.json"), "--report", arg]
    out = tmp_path / "out.json"
    assert main(argv + ["--out", str(out)]) == 1
    assert not out.exists()
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err and err.count("\n") == 1


@pytest.mark.parametrize("field, spec", [
    ("matrix", '{"kind": "affine", "matrix": [[NaN]], "offset": [0], "norm": "sup"}'),
    ("offset", '{"kind": "affine", "matrix": [[0.5, 0], [0, 0.5]], '
               '"offset": [0, -Infinity], "norm": "euclid"}'),
], ids=["matrix", "offset"])
def test_affine_non_finite_entry_exit_one(tmp_path, capsys, field, spec):
    out = tmp_path / "report.json"
    assert main(["detect", "--spec", spec, "--out", str(out)]) == 1
    assert not out.exists()
    assert capsys.readouterr().err == f"error: <inline>: affine {field} entries must be finite\n"


def _affine(**fields):
    doc = {"kind": "affine", "matrix": [[0.5, 0.0], [0.0, 0.5]], "offset": [0.0, 0.0],
           "norm": "sup", **fields}
    return json.dumps({k: v for k, v in doc.items() if v is not None})


@pytest.mark.parametrize("spec, report_spec, message", [
    (_affine(norm=None), None, "affine spec is missing field 'norm'"),
    (_affine(matrix=[[0.5, 0.0], [0.5]]), None, "affine matrix must be real and share one length"),
    (_affine(matrix=[[0.5, 0.0]], offset=[0.0]), None, "affine matrix must be square"),
    (_affine(offset=[0.0]), None, "affine offset length must match the matrix"),
    (_affine(norm="l1"), None, "affine norm must be 'sup' or 'euclid'"),
    (EUCLID_2D, SUP_2D, "this spec needs a fixed_point_smooth report, not fixed_point_sup"),
], ids=["missing-field", "ragged", "not-square", "offset-length", "norm-tag", "report-kind"])
def test_affine_spec_refusals(tmp_path, capsys, spec, report_spec, message):
    out = tmp_path / "out.json"
    if report_spec is None:
        assert main(["detect", "--spec", spec, "--out", str(out)]) == 1
    else:
        report = tmp_path / "report.json"
        assert main(["detect", "--spec", report_spec, "--out", str(report)]) == 0
        capsys.readouterr()
        assert main(["localize", "--spec", spec, "--report", str(report),
                     "--out", str(out)]) == 1
    assert not out.exists()
    err = capsys.readouterr().err
    assert message in err and err.startswith("error: ") and err.count("\n") == 1


# --out is overwritten in place: each case first fills it with more bytes
# than any report, so a missing cut to length shows as trailing bytes.
STALE = b"x" * 100_000
SCHOEN = str(SPECS / "schoen_composition.json")


def _detect(out):
    return main(["detect", "--spec", SCHOEN, "--seed", "5", "--out", str(out)])


def _localize(report, out):
    return main(["localize", "--spec", SCHOEN, "--report", str(report),
                 "--out", str(out)])


@pytest.mark.parametrize("command", ["detect", "localize"])
def test_out_overwritten_in_place(tmp_path, command):
    report, fresh, stale = (tmp_path / name for name in ("r.json", "fresh", "stale"))
    stale.write_bytes(STALE)
    inode = stale.stat().st_ino
    if command == "detect":
        assert _detect(fresh) == 0 and _detect(stale) == 0
    else:
        assert _detect(report) == 0
        assert _localize(report, fresh) == 0 and _localize(report, stale) == 0
    assert stale.read_bytes() == fresh.read_bytes()
    assert stale.stat().st_ino == inode


def test_out_symlink_stays_symlink(tmp_path):
    target, link, fresh = tmp_path / "target", tmp_path / "link", tmp_path / "fresh"
    target.write_bytes(STALE)
    link.symlink_to(target)
    assert _detect(link) == 0 and _detect(fresh) == 0
    assert link.is_symlink()
    assert target.read_bytes() == fresh.read_bytes()


def test_out_dev_null(tmp_path):
    assert _detect(os.devnull) == 0
    assert _detect(tmp_path / "report.json") == 0
    assert _localize(tmp_path / "report.json", os.devnull) == 0


def test_stdout_without_out(tmp_path, capsysbinary):
    # detect prints the bytes --out writes; localize prints the eigenpair
    # lines, then the ball that --out writes
    report, ball = tmp_path / "report.json", tmp_path / "ball.json"
    assert main(["detect", "--spec", SCHOEN, "--seed", "5"]) == 0
    printed = capsysbinary.readouterr().out
    assert _detect(report) == 0
    assert printed == report.read_bytes()
    assert main(["localize", "--spec", SCHOEN, "--report", str(report)]) == 0
    printed = capsysbinary.readouterr().out
    assert _localize(report, ball) == 0
    eigenpair = capsysbinary.readouterr().out
    assert eigenpair.startswith(b"eigenvector: [") and eigenpair.count(b"\n") == 2
    assert printed == eigenpair + ball.read_bytes()


def test_out_directory_exit_one(tmp_path, capsys):
    assert _detect(tmp_path) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err


def test_errors_leave_existing_out_untouched(tmp_path):
    out = tmp_path / "out.json"
    out.write_bytes(STALE)
    bad = json.dumps({"kind": "matrix", "matrix": [[1.0, -1.0], [1.0, 1.0]]})
    assert main(["detect", "--spec", bad, "--out", str(out)]) == 1
    assert out.read_bytes() == STALE

    report = tmp_path / "report.json"
    assert _detect(report) == 0
    doc = json.loads(report.read_text())
    _swap_first_points(doc)
    report.write_text(json.dumps(doc))
    assert _localize(report, out) == 1
    assert out.read_bytes() == STALE


def test_trials_shorter_overwrite(ones_spec, tmp_path):
    out, fresh = tmp_path / "t.csv", tmp_path / "fresh.csv"
    args = ["trials", "--spec", ones_spec, "--seed", "4"]
    assert main(args + ["--trials", "20", "--out", str(out)]) == 0
    assert main(args + ["--trials", "3", "--out", str(out)]) == 0
    assert main(args + ["--trials", "3", "--out", str(fresh)]) == 0
    assert out.read_bytes() == fresh.read_bytes()


def test_repeated_main_matches_fresh_processes(tmp_path, capsys):
    # the parser is built once per process: neither a second call nor a
    # rejected command line in between may change what a command writes
    import subprocess
    import sys

    def argvs(d):
        return [["detect", "--spec", SCHOEN, "--seed", "5", "--out", str(d / "report.json")],
                ["localize", "--spec", SCHOEN, "--report", str(d / "report.json"),
                 "--out", str(d / "ball.json")]]

    fresh = tmp_path / "fresh"
    fresh.mkdir()
    env = dict(os.environ, PYTHONPATH=str(SPECS.parent / "src"))
    fresh_stdout = [subprocess.run([sys.executable, "-m", "coneglow.cli", *argv],
                                   env=env, capture_output=True, check=True).stdout
                    for argv in argvs(fresh)]
    for name in ("first", "second"):
        d = tmp_path / name
        d.mkdir()
        for argv, want in zip(argvs(d), fresh_stdout):
            with pytest.raises(SystemExit):
                main([argv[0], "--no-such-flag"])
            capsys.readouterr()
            assert main(argv) == 0
            assert capsys.readouterr().out.encode() == want
        for file in ("report.json", "ball.json"):
            assert (d / file).read_bytes() == (fresh / file).read_bytes()


def _raise(error):
    def load_map_file(path):
        raise error
    return load_map_file


@pytest.mark.parametrize("error", [
    DomainError("refused input"), OverflowError("map evaluation overflowed"),
    OSError("disk full"),
], ids=["domain", "overflow", "os"])
def test_main_prints_one_error_line(monkeypatch, capsys, error):
    monkeypatch.setattr(cli, "_load_map_file", _raise(error))
    assert main(["detect", "--spec", "spec.json"]) == 1
    captured = capsys.readouterr()
    assert captured.err == f"error: {error}\n" and captured.out == ""


@pytest.mark.parametrize("error", [
    RuntimeError("a bug"), ValueError("a bug"), KeyError("a bug"),
], ids=["runtime", "value", "key"])
def test_main_lets_a_bug_propagate(monkeypatch, capsys, error):
    # only refusals and failed arithmetic or I/O become an error line
    monkeypatch.setattr(cli, "_load_map_file", _raise(error))
    with pytest.raises(type(error), match="a bug"):
        main(["detect", "--spec", "spec.json"])
    assert capsys.readouterr().err == ""
