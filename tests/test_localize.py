import numpy as np
import pytest

from coneglow import (
    DetectionConfig,
    DomainError,
    MatrixMap,
    NormId,
    circumcenter,
    demo_schoen_composition,
    detect_eigenvector,
    halfspace_polytope,
    hilbert_metric,
    localize_eigenvectors,
    localize_fixed_points,
    norm,
    norm_constants,
    power_iteration,
)
from coneglow.spaces import extreme_points


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
    def test_table(self):
        assert norm_constants(NormId.SUP, 4).factor == 3.0
        assert norm_constants(NormId.L1, 2).factor == 3.0
        assert norm_constants(NormId.L1, 5).factor == 6.0
        for n in range(3, 11):
            assert norm_constants(NormId.VARIATION, n).factor == 2 * n - 1

    def test_variation_n4(self):
        consts = norm_constants(NormId.VARIATION, 4)
        assert consts.alpha == pytest.approx(2.0 / 3.0)
        assert consts.beta == 1.0
        assert consts.factor == 7.0

    def test_euclid_unsupported(self):
        with pytest.raises(DomainError):
            norm_constants(NormId.EUCLID, 3)


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
                                        DetectionConfig(seed=0), vectorized=True)
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
        spec = demo_schoen_composition()
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
        polytope, bounded = halfspace_polytope(lambda w: np.zeros(2), probes)
        assert bounded
        assert polytope.contains([0.0, 0.0])
        assert polytope.contains([0.9, 0.9])
        assert not polytope.contains([1.5, 0.0])

    def test_contraction_rows(self):
        probes = [np.array([1.0, 0.0]), np.array([-1.0, 0.0]),
                  np.array([0.0, 1.0]), np.array([0.0, -1.0])]
        polytope, bounded = halfspace_polytope(lambda w: 0.5 * w, probes)
        assert bounded
        assert polytope.contains(np.zeros(2))
        for (normal, offset), w in zip(polytope.rows, probes):
            assert np.allclose(normal, 0.5 * w)
            assert offset == pytest.approx(float(w @ (0.5 * w)))

    def test_translation_unbounded(self):
        b = np.array([1.0, 0.0])
        probes = [np.array([1.0, 2.0]), np.array([-3.0, 0.5]),
                  np.array([0.0, -1.0])]
        polytope, bounded = halfspace_polytope(lambda w: w + b, probes)
        assert not bounded
        for normal, _ in polytope.rows:
            assert np.allclose(normal, -b)

    def test_empty_polytope_counts_as_bounded(self):
        # rows x <= 1 and x >= 2 in the plane: the normals (1, 0) and
        # (-1, 0) do not positively span, yet nothing is left to bound
        probes = [np.array([1.0, 0.0]), np.array([2.0, 0.0])]
        polytope, bounded = halfspace_polytope(
            lambda w: np.array([3.0 * w[0] - 3.0, w[1]]), probes)
        assert [tuple(normal) for normal, _ in polytope.rows] == [(1.0, 0.0), (-1.0, 0.0)]
        assert [offset for _, offset in polytope.rows] == [1.0, -2.0]
        assert bounded

    def test_zero_residual_probe_skipped(self):
        probes = [np.zeros(2), np.array([1.0, 1.0])]
        with pytest.warns(UserWarning):
            polytope, _ = halfspace_polytope(lambda w: 0.5 * w, probes)
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
            polytope, bounded = halfspace_polytope(lambda w: Q @ w + b, probes)
            assert polytope.contains(fixed)
            assert bounded


def test_l1_localization_unsupported():
    # the l1 factor is tabulated, but no l1 circumcenter routine exists
    assert norm_constants(NormId.L1, 3).factor == 4.0
    with pytest.raises(DomainError):
        localize_fixed_points([[0.0, 0.0], [1.0, 0.0]], NormId.L1)
