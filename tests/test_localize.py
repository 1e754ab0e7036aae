import json
import re
import warnings
from fractions import Fraction

import numpy as np
import pytest

from coneglow import (
    BoundingBall,
    DetectionConfig,
    DomainError,
    MatrixMap,
    NormId,
    circumcenter,
    detect_eigenvector,
    halfspace_polytope,
    hilbert_metric,
    localize_eigenvectors,
    localize_fixed_points,
    norm,
    power_iteration,
)
from oracles import extreme_points, schoen_composition


class TestCircumcenter:
    def test_sup_midpoint(self):
        center, r0 = circumcenter([[0.0, 0.0], [2.0, 0.0]], NormId.SUP)
        assert np.array_equal(center, [1.0, 0.0])
        assert r0 == 1.0

    def test_single_point(self):
        center, r0 = circumcenter([[1.0, -2.0]], NormId.SUP)
        assert np.array_equal(center, [1.0, -2.0])
        assert r0 == 0.0

    def test_variation_segment(self):
        center, r0 = circumcenter([[0.0, 0.0, 0.0], [2.0, 0.0, 0.0]],
                                  NormId.VARIATION)
        assert r0 == pytest.approx(1.0, abs=1e-8)
        assert norm(center - np.array([0.0, 0.0, 0.0]), NormId.VARIATION) \
            == pytest.approx(1.0, abs=1e-8)

    def test_variation_center_is_optimal(self):
        rng = np.random.default_rng(30)
        for _ in range(10):
            m, n = int(rng.integers(2, 8)), int(rng.integers(3, 6))
            pts = rng.uniform(-5, 5, (m, n))
            pts[:, -1] = 0.0
            center, r0 = circumcenter(list(pts), NormId.VARIATION)
            assert max(norm(center - p, NormId.VARIATION) for p in pts) \
                == pytest.approx(r0, abs=1e-8)
            # no sampled perturbation does better
            for _ in range(100):
                step = rng.normal(size=n)
                step[-1] = 0.0
                step *= (r0 / 100.0) / max(np.max(np.abs(step)), 1e-12)
                moved = center + step
                worst = max(norm(moved - p, NormId.VARIATION) for p in pts)
                assert worst >= r0 - 1e-8

    def test_variation_radius_matches_full_lp(self):
        # the closed form against the m*n(n-1)-row program it replaces:
        # minimize R over y in V0 with (y_j - w_ij) - (y_k - w_ik) <= R
        from scipy.optimize import linprog

        rng = np.random.default_rng(35)
        for n in range(2, 8):
            for trial in range(8):
                m = int(rng.integers(1, 15))
                if trial % 2:
                    pts = rng.integers(-2, 3, (m, n)).astype(float)  # ties
                else:
                    pts = rng.uniform(-5, 5, (m, n))
                pts[m // 2:] = pts[0]  # duplicate points
                pts[:, -1] = 0.0
                _, r0 = circumcenter(list(pts), NormId.VARIATION)
                rows, rhs = [], []
                for j in range(n):
                    for k in range(n):
                        if j != k:
                            row = np.zeros(n + 1)
                            row[j], row[k], row[n] = 1.0, -1.0, -1.0
                            rows += [row] * m
                            rhs += list(pts[:, j] - pts[:, k])
                bounds = [(None, None)] * (n - 1) + [(0.0, 0.0), (0.0, None)]
                res = linprog(np.eye(n + 1)[n], A_ub=np.array(rows),
                              b_ub=np.array(rhs), bounds=bounds,
                              method="highs")
                assert res.status == 0
                assert r0 == pytest.approx(res.fun, rel=1e-9, abs=1e-12)

    def test_sup_center_is_optimal(self):
        rng = np.random.default_rng(31)
        pts = rng.uniform(-3, 3, (6, 4))
        center, r0 = circumcenter(list(pts), NormId.SUP)
        for _ in range(100):
            step = rng.normal(size=4)
            step *= (r0 / 100.0) / np.max(np.abs(step))
            worst = max(norm(center + step - p, NormId.SUP) for p in pts)
            assert worst >= r0 - 1e-8

    def test_requires_points(self):
        with pytest.raises(DomainError):
            circumcenter([], NormId.SUP)
        with pytest.raises(DomainError):
            circumcenter([[1.0, 2.0]], NormId.EUCLID)

    def test_variation_requires_v0(self):
        with pytest.raises(DomainError):
            circumcenter([[1.0, 2.0, 3.0]], NormId.VARIATION)


class TestNormConstants:
    # the localization factor, read off the ball: 3 * R0 for the sup norm,
    # (2n-1) * R0 for the variation norm and so for eigenvectors
    def test_table(self):
        rng = np.random.default_rng(36)
        for n in range(1, 6):
            pts = rng.uniform(-4, 4, (5, n))
            _, r0 = circumcenter(pts, NormId.SUP)
            assert localize_fixed_points(pts, NormId.SUP).radius == 3 * r0
        for n in range(2, 11):
            X = rng.uniform(0.5, 4, (6, n))
            logs = np.log(X / X[:, -1:])
            center, r0 = circumcenter(logs, NormId.VARIATION)
            ball = localize_eigenvectors(X, n)
            assert ball.radius == (2 * n - 1) * r0
            assert np.array_equal(ball.center, np.exp(center))

    def test_variation_n4(self):
        # witnesses 1 and e**2 * e_0 on the slice: R0 = 1, so radius 7
        ball = localize_eigenvectors([[1.0, 1.0, 1.0, 1.0],
                                      [np.exp(2.0), 1.0, 1.0, 1.0]], 4)
        assert ball.metric == "hilbert"
        assert ball.radius == pytest.approx(7.0, rel=1e-15)
        witnesses = [[0.0, 0.0, 0.0, 0.0], [2.0, 0.0, 0.0, 0.0]]
        assert localize_fixed_points(witnesses, NormId.VARIATION).radius \
            == pytest.approx(7.0, rel=1e-15)

    def test_euclid_unsupported(self):
        with pytest.raises(DomainError):
            localize_fixed_points([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0]], NormId.EUCLID)


class TestVariationExtremeDistances:
    def test_alpha_bound(self):
        rng = np.random.default_rng(32)
        for n in range(3, 9):
            pts = extreme_points(NormId.VARIATION, n)
            bound = 1.0 - 1.0 / (n - 1)
            for _ in range(300):
                w = rng.normal(size=n)
                w = w - w[-1]
                w = w / norm(w, NormId.VARIATION)
                dmin = min(norm(w - v, NormId.VARIATION) for v in pts)
                assert dmin <= bound + 1e-12

    def test_beta_midpoint_on_sphere(self):
        rng = np.random.default_rng(33)
        for n in (3, 5):
            pts = extreme_points(NormId.VARIATION, n)
            accepted = 0
            while accepted < 200:
                w = rng.normal(size=n)
                w = w - w[-1]
                w = w / norm(w, NormId.VARIATION)
                v = pts[rng.integers(len(pts))]
                if norm(v - w, NormId.VARIATION) < 1.0 - 1e-9:
                    accepted += 1
                    mid = 0.5 * v + 0.5 * w
                    assert norm(mid, NormId.VARIATION) >= 1.0 - 1e-12


class TestLocalizeFixedPoints:
    def test_sup_contraction_ball_contains_zero(self):
        from coneglow import detect_fixed_point_sup
        report = detect_fixed_point_sup(lambda X: 0.5 * X, 3,
                                        DetectionConfig(seed=0))
        assert report.confirmed
        witnesses = [report.witnesses[m] for m in sorted(report.witnesses)]
        ball = localize_fixed_points(witnesses, NormId.SUP)
        assert norm(ball.center, NormId.SUP) <= ball.radius

    def test_degenerate_witnesses_rejected(self):
        with pytest.raises(DomainError):
            localize_fixed_points([[1.0, 1.0]], NormId.SUP)
        with pytest.raises(DomainError):
            localize_fixed_points([[1.0, 1.0], [1.0, 1.0]], NormId.SUP)


class TestLocalizeEigenvectors:
    def test_ones_matrix_ball_contains_direction(self):
        spec = MatrixMap([[1, 1], [1, 1]])
        report = detect_eigenvector(spec, DetectionConfig(seed=0))
        witnesses = [report.witnesses[m] for m in sorted(report.witnesses)]
        ball = localize_eigenvectors(witnesses, 2)
        assert ball.metric == "hilbert"
        assert hilbert_metric([1.0, 1.0], ball.center) <= ball.radius

    def test_schoen_ball_contains_eigenvector(self):
        spec = schoen_composition()
        report = detect_eigenvector(spec, DetectionConfig(seed=4))
        witnesses = [report.witnesses[m] for m in sorted(report.witnesses)]
        ball = localize_eigenvectors(witnesses, 4)
        eig = power_iteration(spec, np.ones(4))
        assert hilbert_metric(eig.vector, ball.center) <= ball.radius

    def test_degenerate_rejected(self):
        with pytest.raises(DomainError):
            localize_eigenvectors([[2.0, 2.0], [4.0, 4.0]], 2)


class TestHalfspacePolytope:
    def test_zero_map_unit_box(self):
        probes = [np.array([1.0, 0.0]), np.array([-1.0, 0.0]),
                  np.array([0.0, 1.0]), np.array([0.0, -1.0])]
        polytope, bounded = halfspace_polytope(np.zeros_like, probes)
        assert bounded
        assert polytope.contains([0.0, 0.0])
        assert polytope.contains([0.9, 0.9])
        assert not polytope.contains([1.5, 0.0])

    def test_contraction_rows(self):
        probes = [np.array([1.0, 0.0]), np.array([-1.0, 0.0]),
                  np.array([0.0, 1.0]), np.array([0.0, -1.0])]
        polytope, bounded = halfspace_polytope(lambda W: 0.5 * W, probes)
        assert bounded
        assert polytope.contains(np.zeros(2))
        for (normal, offset), w in zip(polytope.rows, probes):
            assert np.allclose(normal, 0.5 * w)
            assert offset == pytest.approx(float(w @ (0.5 * w)))

    def test_translation_unbounded(self):
        b = np.array([1.0, 0.0])
        probes = [np.array([1.0, 2.0]), np.array([-3.0, 0.5]),
                  np.array([0.0, -1.0])]
        polytope, bounded = halfspace_polytope(lambda W: W + b, probes)
        assert not bounded
        for normal, _ in polytope.rows:
            assert np.allclose(normal, -b)

    def test_empty_polytope_not_flagged_bounded(self):
        # rows x <= 1 and x >= 2 in the plane: the polytope is empty, but
        # the normals (1, 0) and (-1, 0) do not positively span
        probes = [np.array([1.0, 0.0]), np.array([2.0, 0.0])]
        polytope, bounded = halfspace_polytope(
            lambda W: np.column_stack([3.0 * W[:, 0] - 3.0, W[:, 1]]), probes)
        assert [tuple(normal) for normal, _ in polytope.rows] == [(1.0, 0.0), (-1.0, 0.0)]
        assert [offset for _, offset in polytope.rows] == [1.0, -2.0]
        assert bounded is False

    def test_zero_residual_probe_skipped(self):
        probes = [np.zeros(2), np.array([1.0, 1.0])]
        with pytest.warns(UserWarning):
            polytope, _ = halfspace_polytope(lambda W: 0.5 * W, probes)
        assert len(polytope.rows) == 1

    def test_contains_known_fixed_point(self):
        # contractive rotation: Euclidean-nonexpansive with one fixed point
        rng = np.random.default_rng(34)
        for _ in range(10):
            angle = rng.uniform(0, 2 * np.pi)
            Q = 0.8 * np.array([[np.cos(angle), -np.sin(angle)],
                                [np.sin(angle), np.cos(angle)]])
            b = rng.uniform(-2, 2, 2)
            fixed = np.linalg.solve(np.eye(2) - Q, b)
            # enough probes that the residual normals positively span the
            # plane with overwhelming probability, making the polytope compact
            probes = [rng.uniform(-10, 10, 2) for _ in range(40)]
            polytope, bounded = halfspace_polytope(lambda W: W @ Q.T + b, probes)
            assert polytope.contains(fixed)
            assert bounded

    def test_normals_are_negated_residuals(self):
        # the rows are built on the residuals DetectionReport.verify checks
        rng = np.random.default_rng(5)
        A = 0.3 * rng.normal(size=(3, 3))
        b = rng.normal(size=3)
        P = rng.uniform(-100, 100, (30, 3))

        def f(W):
            return W @ A.T + b

        polytope, _ = halfspace_polytope(f, P)
        normals = np.array([normal for normal, _ in polytope.rows])
        assert np.array_equal(normals, P - f(P))
        assert np.array_equal(normals, -(f(P) - P))

    def test_shape_changing_map_rejected(self):
        probes = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0]])
        with pytest.raises(DomainError, match="batch shape"):
            halfspace_polytope(lambda W: W[:, :1], probes)
        with pytest.raises(DomainError, match="batch shape"):
            halfspace_polytope(lambda W: W[0], probes)

    def test_overflowing_residual_names_the_residual(self):
        # f(W) = -W is finite, but f(W) - W = -2W overflows
        probes = [[1e308, 1.0], [-1e308, 2.0]]
        with pytest.raises(DomainError, match=r"^residuals f\(x\) - x must be finite; they overflow$"):
            halfspace_polytope(lambda W: -W, probes)
        with pytest.raises(DomainError, match="^map values must be finite$"):
            halfspace_polytope(lambda W: np.full_like(W, np.inf), probes)


def _probes_all_fixed():
    # the identity leaves every probe's residual 0, so no probe gives a row
    with pytest.warns(UserWarning, match="^skipping 2 probe"):
        halfspace_polytope(lambda W: W, [[1.0, 2.0], [-3.0, 0.5]])


@pytest.mark.parametrize("build, message", [
    (lambda: BoundingBall(center=np.zeros(2), radius=-1.0, metric="sup"),
     "radius must be finite and nonnegative"),
    (lambda: BoundingBall(center=np.zeros(2), radius=10 ** 400, metric="sup"),
     "radius must be finite and nonnegative"),
    (lambda: BoundingBall(center=np.zeros(2), radius="1", metric="sup"),
     "radius: expected a number, not '1'"),
    (lambda: BoundingBall(center=np.zeros(2), radius=True, metric="sup"),
     "radius: expected a number, not True"),
    (lambda: BoundingBall(center=np.zeros(2), radius=None, metric="sup"),
     "radius: expected a number, not None"),
    (lambda: BoundingBall(center=np.zeros(2), radius=Fraction(1, 2), metric="sup"),
     "radius: expected a number, not Fraction(1, 2)"),
    (lambda: BoundingBall(center=[True, 1.0], radius=1.0, metric="sup"),
     "vectors: expected a number, not True"),
    (lambda: BoundingBall(center=[0.0], radius=[1.0], metric="sup"),
     "radius: expected a number, not [1.0]"),
    (lambda: BoundingBall(center=[0.0], radius=np.ones(1), metric="sup"),
     "radius: expected a number, not array([1.])"),
    (lambda: BoundingBall(center=np.zeros(2), radius=1.0, metric="l1"),
     "metric must be one of sup, euclid, variation, hilbert, not 'l1'"),
    (lambda: BoundingBall(center=np.zeros(2), radius=1.0, metric=NormId.SUP),
     "metric must be one of sup, euclid, variation, hilbert, not <NormId.SUP: 'sup'>"),
    (lambda: BoundingBall(center=[0.0, np.inf], radius=1.0, metric="sup"),
     "vector entries must be finite"),
    (lambda: localize_eigenvectors(np.ones((3, 3)), 2), "witness dimension mismatch"),
    (_probes_all_fixed, "no usable probes (all residuals vanished)"),
], ids=["ball-negative-radius", "ball-huge-int-radius", "ball-string-radius",
        "ball-bool-radius", "ball-none-radius", "ball-fraction-radius", "ball-bool-center",
        "ball-list-radius", "ball-array-radius",
        "ball-l1-metric", "ball-enum-metric", "ball-infinite-center",
        "eigen-witness-dimension", "polytope-no-probes"])
def test_refusals(build, message):
    with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
        build()


@pytest.mark.parametrize("region, inside", [
    (BoundingBall(center=np.zeros(3), radius=1.0, metric="sup"), [0.5, 0.5, 0.5]),
    (BoundingBall(center=np.zeros(3), radius=1.0, metric="variation"), [0.5, 0.5, 0.0]),
    (BoundingBall(center=np.ones(3), radius=1.0, metric="hilbert"), [0.5, 0.5, 0.5]),
    (halfspace_polytope(lambda W: 0.0 * W, np.vstack([np.eye(3), -np.eye(3)]))[0],
     [0.5, 0.5, 0.5]),
], ids=["sup", "variation", "hilbert", "polytope"])
@pytest.mark.parametrize("point", [[0.5], [0.5, 0.5], [0.5, 0.5, 0.5, 0.5]],
                         ids=["1", "2", "4"])
def test_contains_refuses_another_dimension(region, inside, point):
    # NumPy would broadcast a 1-vector against the center and answer
    assert region.contains(inside)
    message = f"region has dimension 3, got a point of dimension {len(point)}"
    with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
        region.contains(point)


def test_ball_coerces_a_list_center():
    # a list center serializes like the array it becomes
    ball = BoundingBall(center=[0.5, 1, -2.0], radius=1.5, metric="sup")
    twin = BoundingBall(center=np.array([0.5, 1.0, -2.0]), radius=1.5, metric="sup")
    assert ball.to_json_dict() == twin.to_json_dict()
    assert ball.to_json_dict()["center"] == [0.5, 1.0, -2.0]
    assert ball.contains([0.0, 0.0, -1.0]) and not ball.contains([0.0, 0.0, 0.0])


@pytest.mark.parametrize("radius", [2, np.int64(2), np.float64(2.0), 2.0, np.float32(2.0)])
def test_ball_radius_is_stored_as_a_float(radius):
    # every radius require_numbers passes serializes as a JSON float; the
    # range check compares a float, so a float32 meets the float limit
    # without an overflow warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        ball = BoundingBall(center=[0.0, 1.0], radius=radius, metric="euclid")
    assert type(ball.radius) is float
    assert json.loads(json.dumps(ball.to_json_dict()))["radius"] == 2.0


def test_l1_localization_unsupported():
    # l1 is not a norm of the library, so no l1 ball can be asked for
    with pytest.raises(ValueError):
        NormId("l1")
