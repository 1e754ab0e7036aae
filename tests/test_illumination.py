import time

import numpy as np
import pytest

from coneglow import (
    DomainError,
    NormId,
    ball_cover_criterion,
    extreme_illumination,
    extreme_points,
    illuminates_point,
    interior_hull_certificate,
    sup_criterion,
)
from coneglow.illumination import gaussian_rank


class TestIlluminatesPoint:
    def test_sup_examples(self):
        assert illuminates_point([1, 1], [-1, -1], NormId.SUP)
        assert not illuminates_point([1, 1], [-1, 0], NormId.SUP)

    def test_variation_example(self):
        assert illuminates_point([1, 0, 0], [-1, 1, 0], NormId.VARIATION)

    def test_euclid_analytic(self):
        assert illuminates_point([1.0, 0.0], [-1.0, 0.5], NormId.EUCLID)
        assert not illuminates_point([1.0, 0.0], [0.0, 1.0], NormId.EUCLID)

    def test_requires_unit_sphere(self):
        with pytest.raises(DomainError):
            illuminates_point([2.0, 0.0], [-1.0, 0.0], NormId.SUP)

    def test_requires_nonzero_direction(self):
        with pytest.raises(DomainError):
            illuminates_point([1.0, 0.0], [0.0, 0.0], NormId.SUP)

    def test_positive_scaling_invariance(self):
        rng = np.random.default_rng(4)
        for norm_id in (NormId.SUP, NormId.L1, NormId.EUCLID):
            for _ in range(200):
                z = rng.normal(size=3)
                from coneglow import norm
                z = z / norm(z, norm_id)
                v = rng.normal(size=3)
                alpha = float(np.exp(rng.uniform(-6, 6)))
                assert illuminates_point(z, v, norm_id) == \
                    illuminates_point(z, alpha * v, norm_id)


class TestSupCriterion:
    def test_zero_map_residuals_cover(self):
        # residuals -z^J at every extreme point realize all patterns
        residuals = [-z for z in extreme_points(NormId.SUP, 3)]
        verdict = sup_criterion(residuals)
        assert verdict.covered
        assert len(verdict.assignments) == 8

    def test_positive_first_coordinate_uncovered(self):
        verdict = sup_criterion([[1.0, 0.5], [1.0, -0.5], [2.0, 1.0]])
        assert not verdict.covered
        # the missing pattern requires a negative first coordinate
        assert verdict.uncovered_witness[0] == 1.0

    def test_four_quadrants_cover_n2(self):
        verdict = sup_criterion([[-1, -1], [1, 1], [-1, 1], [1, -1]])
        assert verdict.covered

    def test_assignments_revalidate(self):
        rng = np.random.default_rng(5)
        residuals = [rng.uniform(-2, 2, 3) + np.sign(rng.normal(size=3)) * 0.1
                     for _ in range(40)]
        verdict = sup_criterion(residuals)
        for mask, idx in verdict.assignments.items():
            r = residuals[idx]
            for j in range(3):
                if (mask >> j) & 1:
                    assert r[j] < 0
                else:
                    assert r[j] > 0

    def test_agrees_with_extreme_illumination(self):
        rng = np.random.default_rng(6)
        for _ in range(150):
            m = int(rng.integers(1, 10))
            n = int(rng.integers(2, 4))
            res = rng.uniform(-2, 2, (m, n))
            res[np.abs(res) < 0.05] += 0.1
            direct = sup_criterion(list(res)).covered
            generic = extreme_illumination(list(res), NormId.SUP).covered
            assert direct == generic


class TestExtremeIllumination:
    def test_single_residual_never_covers(self):
        for norm_id in (NormId.SUP, NormId.L1, NormId.VARIATION):
            n = 3
            verdict = extreme_illumination([np.array([-1.0, 0.5, 0.0])], norm_id)
            assert not verdict.covered
            assert verdict.uncovered_witness is not None

    def test_monotone_in_residuals(self):
        rng = np.random.default_rng(7)
        residuals = [-z * (1 + rng.random()) for z in extreme_points(NormId.SUP, 2)]
        base = extreme_illumination(residuals, NormId.SUP)
        assert base.covered
        extended = extreme_illumination(
            residuals + [rng.normal(size=2) for _ in range(3)], NormId.SUP)
        assert extended.covered

    def test_variation_cover(self):
        pts = extreme_points(NormId.VARIATION, 3)
        residuals = [-z for z in pts]
        verdict = extreme_illumination(residuals, NormId.VARIATION)
        assert verdict.covered

    def test_euclid_rejected(self):
        with pytest.raises(DomainError):
            extreme_illumination([np.ones(2)], NormId.EUCLID)


def _assert_separates(vectors, cert):
    # a nonzero phi with V phi >= 0, to the slack the smooth detector uses
    V = np.asarray(vectors, dtype=float)
    phi = cert.separator
    assert phi is not None and np.any(phi != 0.0)
    scale = np.maximum(1.0, np.max(np.abs(V), axis=1))
    assert np.all(V @ phi >= -1e-12 * scale)


class TestInteriorHullCertificate:
    def test_symmetric_instance(self):
        cert = interior_hull_certificate([(1, 0), (-1, 1), (-1, -1)])
        assert cert.inside
        assert cert.epsilon == pytest.approx(0.25, abs=1e-12)
        assert cert.separator is None

    def test_separated_instance(self):
        vecs = [(1, 0), (2, 0), (3, 1)]
        cert = interior_hull_certificate(vecs)
        assert not cert.inside
        assert cert.epsilon < 0
        _assert_separates(vecs, cert)

    def test_rank_deficient_instance(self):
        vecs = [(1, 0), (-1, 0)]
        cert = interior_hull_certificate(vecs)
        assert not cert.inside
        assert cert.epsilon > 0  # in the relative interior, but not interior
        _assert_separates(vecs, cert)

    @pytest.mark.parametrize("vecs", [
        [(1.0, 0.0)],
        [(1, 0, 0), (0, 1, 0)],
        [(1, 1), (2, 1), (3, 1), (-4, 1)],  # a line missing 0
    ])
    def test_off_affine_hull_instance(self, vecs):
        cert = interior_hull_certificate(vecs)
        assert not cert.inside
        assert cert.epsilon == -np.inf
        _assert_separates(vecs, cert)

    @pytest.mark.parametrize("noise", [0.0, 1e-9, 1e-6])
    def test_many_residuals_near_one_plane(self, noise):
        # 8148 residuals spread across a plane 40 from 0, as a
        # no-fixed-point map produces them; the program must settle fast
        rng = np.random.default_rng(12)
        u = rng.normal(size=3)
        u /= np.linalg.norm(u)
        spread = rng.uniform(-100.0, 100.0, size=(8148, 3))
        spread -= np.outer(spread @ u, u)
        V = -40.0 * u + spread + rng.normal(scale=noise, size=spread.shape)
        start = time.perf_counter()
        cert = interior_hull_certificate(V)
        assert time.perf_counter() - start < 30.0
        assert not cert.inside
        _assert_separates(V, cert)

    def test_empty_rejected(self):
        with pytest.raises(DomainError):
            interior_hull_certificate([])

    def test_grid_oracle_agreement_2d(self):
        angles = np.arange(3600) * (2 * np.pi / 3600)
        grid = np.stack([np.cos(angles), np.sin(angles)], axis=1)
        rng = np.random.default_rng(8)
        checked = 0
        for _ in range(300):
            m = int(rng.integers(3, 8))
            vecs = rng.normal(size=(m, 2))
            if rng.random() < 0.4:
                vecs = vecs + rng.normal(size=2) * 1.5
            margin = float(np.min(np.max(grid @ vecs.T, axis=1)))
            if abs(margin) <= 1e-6:
                continue
            checked += 1
            cert = interior_hull_certificate(list(vecs))
            assert cert.inside == (margin > 0)
            if not cert.inside:
                _assert_separates(vecs, cert)
        assert checked > 250

    def test_illumination_implies_interior(self):
        # covering witnesses with healthy margins must certify 0 in the hull;
        # variation residuals live in V0, so the certificate runs in V0's
        # own coordinates (last coordinate dropped)
        rng = np.random.default_rng(9)
        for norm_id, n in ((NormId.SUP, 2), (NormId.SUP, 3), (NormId.VARIATION, 3)):
            pts = extreme_points(norm_id, n)
            for _ in range(30):
                residuals = [-z * rng.uniform(0.5, 2.0) for z in pts]
                verdict = extreme_illumination(residuals, norm_id)
                assert verdict.covered
                if norm_id is NormId.VARIATION:
                    cert = interior_hull_certificate([r[:-1] for r in residuals])
                else:
                    cert = interior_hull_certificate(residuals)
                assert cert.inside
                assert cert.epsilon > 1e-3


class TestBallCover:
    def test_cover_by_extreme_points_themselves(self):
        pts = extreme_points(NormId.SUP, 2)
        assert ball_cover_criterion(list(pts), NormId.SUP)

    def test_single_vector_fails(self):
        assert not ball_cover_criterion([[1.0, 1.0]], NormId.SUP)

    def test_variation_cover(self):
        pts = extreme_points(NormId.VARIATION, 3)
        assert ball_cover_criterion(list(pts), NormId.VARIATION)

    def test_euclid_unsupported(self):
        with pytest.raises(DomainError):
            ball_cover_criterion([[1.0, 0.0]], NormId.EUCLID)

    def test_cover_implies_negated_set_illuminates(self):
        rng = np.random.default_rng(11)
        for norm_id, n in ((NormId.SUP, 2), (NormId.SUP, 3), (NormId.L1, 3)):
            pts = extreme_points(norm_id, n)
            for _ in range(20):
                vecs = [z + rng.uniform(-0.2, 0.2, n) for z in pts]
                if ball_cover_criterion(vecs, norm_id):
                    verdict = extreme_illumination([-v for v in vecs], norm_id)
                    assert verdict.covered


def test_gaussian_rank():
    assert gaussian_rank(np.eye(3)) == 3
    assert gaussian_rank([[1, 2], [2, 4]]) == 1
    assert gaussian_rank([[1e-12, 0], [0, 1e-12]]) == 0
    rng = np.random.default_rng(10)
    for _ in range(50):
        m, n = rng.integers(1, 6, size=2)
        M = rng.normal(size=(int(m), int(n)))
        assert gaussian_rank(M) == np.linalg.matrix_rank(M)
