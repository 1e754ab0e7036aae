import time
import warnings

import numpy as np
import pytest

from coneglow import (
    ComposeMap,
    DomainError,
    MatrixMap,
    NormId,
    TriangleMap,
    interior_hull_certificate,
    norm,
    sup_masks,
    variation_masks,
)
from coneglow.illumination import _variation_first_rows, separates
from oracles import (
    extreme_points, hull_lp_certificate, illuminates_point, schoen_composition,
    variation_masks_reference,
)
from test_conemaps import mixed_meansum

GAP_TOL = 1e-9


def _covered(masks, valid):
    # every mask some row realizes strictly
    return set(masks[valid].tolist())


def _variation_point(J, n):
    # canonical V0 representative of the extreme point 1_J
    bits = (J >> np.arange(n)) & 1
    return (bits - bits[-1]).astype(float)


def _oracle_cover(residuals, norm_id, n):
    # masks J whose extreme point some residual illuminates, by probing
    if norm_id is NormId.SUP:
        points = dict(enumerate(extreme_points(NormId.SUP, n)))
    else:
        points = {J: _variation_point(J, n) for J in range(1, 2 ** n - 1)}
        residuals = residuals - residuals[:, -1:]
    return {J for J, z in points.items()
            if any(np.any(r) and illuminates_point(z, r, norm_id) for r in residuals)}


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
        for norm_id in (NormId.SUP, NormId.EUCLID):
            for _ in range(200):
                z = rng.normal(size=3)
                z = z / norm(z, norm_id)
                v = rng.normal(size=3)
                alpha = float(np.exp(rng.uniform(-6, 6)))
                assert illuminates_point(z, v, norm_id) == \
                    illuminates_point(z, alpha * v, norm_id)


class TestSupCriterion:
    """The sign-pattern criterion, as ``sup_masks`` decides it."""

    def test_zero_map_residuals_cover(self):
        # residuals -z^J at every extreme point realize all patterns
        masks, valid = sup_masks(-extreme_points(NormId.SUP, 3), GAP_TOL)
        assert valid.all()
        assert _covered(masks, valid) == set(range(8))

    def test_positive_first_coordinate_uncovered(self):
        res = np.array([[1.0, 0.5], [1.0, -0.5], [2.0, 1.0]])
        covered = _covered(*sup_masks(res, GAP_TOL))
        # the missing patterns need a negative first coordinate
        assert covered == {0, 2}

    def test_four_quadrants_cover_n2(self):
        res = np.array([[-1, -1], [1, 1], [-1, 1], [1, -1]], dtype=float)
        assert _covered(*sup_masks(res, GAP_TOL)) == {0, 1, 2, 3}

    def test_assignments_revalidate(self):
        rng = np.random.default_rng(5)
        res = rng.uniform(-2, 2, (40, 3))
        res[7, 1] = 0.0
        masks, valid = sup_masks(res, GAP_TOL)
        assert valid[:, 0].tolist() == np.all(res != 0.0, axis=1).tolist()
        for r, mask in zip(res, masks[:, 0]):
            assert [(mask >> j) & 1 for j in range(3)] == (r < 0).tolist()

    def test_agrees_with_extreme_illumination(self):
        rng = np.random.default_rng(6)
        for _ in range(150):
            m = int(rng.integers(1, 10))
            n = int(rng.integers(2, 4))
            res = rng.uniform(-2, 2, (m, n))
            res[np.abs(res) < 0.05] += 0.1
            assert _covered(*sup_masks(res, GAP_TOL)) == \
                _oracle_cover(res, NormId.SUP, n)


class TestExtremeIllumination:
    """Covering every extreme point, as the mask code of each norm decides it."""

    def test_single_residual_never_covers(self):
        r = np.array([[-1.0, 0.5, 0.25]])
        assert len(_covered(*sup_masks(r, GAP_TOL))) == 1  # of 8
        assert len(_covered(*variation_masks(r, GAP_TOL))) == 2  # of 6

    def test_monotone_in_residuals(self):
        rng = np.random.default_rng(7)
        pts = extreme_points(NormId.SUP, 2)
        residuals = -pts * (1 + rng.random((len(pts), 1)))
        assert _covered(*sup_masks(residuals, GAP_TOL)) == {0, 1, 2, 3}
        extended = np.vstack([residuals, rng.normal(size=(3, 2))])
        assert _covered(*sup_masks(extended, GAP_TOL)) == {0, 1, 2, 3}

    def test_variation_cover(self):
        residuals = -extreme_points(NormId.VARIATION, 3)
        assert _covered(*variation_masks(residuals, GAP_TOL)) == set(range(1, 7))


def _clear_rows(rng, m, n, norm_id):
    # continuous rows clear of ties (for sup, of zero coordinates), plus
    # small-integer rows with exact ties and zeros
    cont = rng.uniform(-2, 2, (4 * m, n))
    if norm_id is NormId.SUP:
        clear = np.all(np.abs(cont) > 1e-3, axis=1)
    else:
        clear = np.all(np.diff(np.sort(cont, axis=1), axis=1) > 1e-3, axis=1)
    return np.vstack([cont[clear][:m], rng.integers(-3, 4, (m, n)).astype(float)])


class TestMaskOracle:
    """Each mask code against ``illuminates_point`` over the extreme points."""

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_sup_masks_match_oracle(self, n):
        rng = np.random.default_rng(100 + n)
        res = _clear_rows(rng, 30, n, NormId.SUP)
        masks, valid = sup_masks(res, GAP_TOL)
        for k, r in enumerate(res):
            assert _covered(masks[k:k + 1], valid[k:k + 1]) == \
                _oracle_cover(r[None, :], NormId.SUP, n)

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_variation_masks_match_oracle(self, n):
        rng = np.random.default_rng(200 + n)
        points = {tuple(_variation_point(J, n)) for J in range(1, 2 ** n - 1)}
        assert points == {tuple(z) for z in extreme_points(NormId.VARIATION, n)}
        res = _clear_rows(rng, 30, n, NormId.VARIATION)
        masks, valid = variation_masks(res, GAP_TOL)
        for k, r in enumerate(res):
            assert _covered(masks[k:k + 1], valid[k:k + 1]) == \
                _oracle_cover(r[None, :], NormId.VARIATION, n)


def _layouts(R):
    # the same rows C-ordered, F-ordered and as a strided view
    wide = np.zeros((2 * R.shape[0], 3 * R.shape[1]))
    wide[::2, 1::3] = R
    return {"C": np.ascontiguousarray(R), "F": np.asfortranarray(R),
            "strided": wide[::2, 1::3]}


def _ratio_rows(rng, m, n):
    # log-ratios spread over fourteen decades, half the rows replaced by
    # small integers full of ties, and a tenth of the entries by +-0.0
    R = rng.normal(size=(m, n)) * 10.0 ** rng.integers(-12, 3, (m, 1))
    ties = rng.random(m) < 0.5
    R[ties] = rng.integers(-2, 3, (int(ties.sum()), n))
    zeros = rng.random((m, n)) < 0.1
    R[zeros] = np.where(rng.random(int(zeros.sum())) < 0.5, -0.0, 0.0)
    return R


def _tie_sort_rows(rng, m, n):
    # From n = 5 on, variation_masks re-sorts stably the rows with a gap that
    # is not > 0: every row of "ties" (constant, +-0.0 mixed) and of "nan"
    # (NaN in two places among distinct values), and no row of "inf"
    # (distinct values from -inf to +inf).
    distinct = rng.permuted(np.tile(np.arange(n, dtype=float), (m, 1)), axis=1)
    ties = np.repeat(rng.integers(-1, 2, (m, 1)).astype(float), n, axis=1)
    ties[(ties == 0.0) & (rng.random((m, n)) < 0.5)] = -0.0
    nan = distinct.copy()
    nan[(distinct == 0.0) | (distinct == n // 2)] = np.nan
    inf = np.where(distinct == 0.0, -np.inf, np.where(distinct == n - 1, np.inf, distinct))
    return {"ties": ties, "nan": nan, "inf": inf}


class TestMaskCap:
    """Mask codes are int64 bit sets; beyond n = 24 they are refused, and so
    is what is not a real (m, n) array."""

    @pytest.mark.parametrize("masks_of", [sup_masks, variation_masks])
    @pytest.mark.parametrize("n", [25, 64, 65, 70])
    def test_beyond_the_cap_is_refused(self, masks_of, n):
        R = np.ones((3, n))
        R[:, -1] = -1.0  # only the last coordinate negative, and smallest
        with pytest.raises(DomainError, match="^mask codes are capped at n <= 24$"):
            masks_of(R, GAP_TOL)

    @pytest.mark.parametrize("masks_of", [sup_masks, variation_masks])
    @pytest.mark.parametrize("values", [
        1.0, np.ones(3), np.ones((2, 2, 2)), np.ones((3, 0)), [[1.0, 2.0], [3.0]],
        [["1", "2"]],
    ], ids=["scalar", "1-d", "3-d", "no-columns", "ragged", "strings"])
    def test_only_real_matrices(self, masks_of, values):
        with pytest.raises(DomainError):
            masks_of(values, GAP_TOL)

    @pytest.mark.parametrize("masks_of", [sup_masks, variation_masks])
    def test_nan_and_empty_rows_are_taken(self, masks_of):
        masks, valid = masks_of(np.full((2, 3), np.nan), GAP_TOL)
        assert masks.shape == valid.shape and not valid.any()
        assert [a.shape[0] for a in masks_of(np.ones((0, 3)), GAP_TOL)] == [0, 0]

    def test_at_the_cap(self):
        R = np.ones((3, 24))
        R[:, -1] = -1.0
        assert sup_masks(R, GAP_TOL)[0].tolist() == [[1 << 23]] * 3
        assert variation_masks(R, GAP_TOL)[0][:, 0].tolist() == [1 << 23] * 3


class TestVariationMasksReference:
    """The rank-major mask code against the row-major one it replaced."""

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, 8, 12, 24])
    @pytest.mark.parametrize("m", [1, 2, 33, 4096])
    def test_bit_identical(self, m, n):
        rng = np.random.default_rng(500 + n)
        inputs = {"mixed": _ratio_rows(rng, m, n), **_tie_sort_rows(rng, m, n)}
        for label, R in inputs.items():
            # 0 * inf in the threshold of a row holding +-inf is invalid
            with np.errstate(invalid="ignore" if label == "inf" else "warn"):
                for name, A in _layouts(R).items():
                    for gap_tol in (0.0, GAP_TOL):
                        got = variation_masks(A, gap_tol)
                        want = variation_masks_reference(A, gap_tol)
                        for g, w in zip(got, want):
                            assert (g.shape, g.dtype) == (w.shape, w.dtype), (label, name)
                            assert np.array_equal(g, w), (label, name, gap_tol)


def _threshold_rows(rng, m, n, gap_tol):
    # rows of +-0.0 on a random subset J and, off it, one entry at the
    # threshold gap_tol * max(1, spread), one ulp below it or one above, and
    # the rest at a power-of-two spread
    R = np.where(rng.random((m, n)) < 0.5, -0.0, 0.0)
    for row in R:
        perm = rng.permutation(n)
        k = int(rng.integers(1, n))
        spread = 2.0 ** int(rng.integers(-3, 5))
        threshold = gap_tol * max(1.0, spread)
        row[perm[k:]] = spread
        row[perm[k]] = np.nextafter(threshold, threshold + rng.choice([-1.0, 0.0, 1.0]))
    return R


def _first_rows_reference(R, subsets, gap_tol):
    # the first row whose valid masks in the row-major reference include J
    masks, valid = variation_masks_reference(R, gap_tol)
    hits = (valid[:, :, None] & (masks[:, :, None] == subsets)).any(axis=1)
    return np.where(hits.any(axis=0), hits.argmax(axis=0), -1)


class TestVariationFirstRows:
    """The tail test of the eigenvector detector, subset by subset, against
    the first valid row of the sorted pass."""

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 7, 8])
    def test_matches_the_sorted_pass(self, n):
        rng = np.random.default_rng(700 + n)
        subsets = np.arange(1, 2 ** n - 1)
        for gap_tol in (0.0, GAP_TOL, 0.25):
            R = np.vstack([_ratio_rows(rng, 300, n), _threshold_rows(rng, 300, n, gap_tol),
                           rng.integers(-2, 3, (100, n))])
            R = R[rng.permutation(len(R))]
            want = _first_rows_reference(R, subsets, gap_tol)
            assert (want >= 0).sum() > len(subsets) // 2
            for name, A in _layouts(R).items():
                got = _variation_first_rows(A, subsets, gap_tol)
                assert np.array_equal(got, want), (name, gap_tol)

    def test_threshold_rows_sit_on_both_sides(self):
        # one ulp decides: the rows above count, the rows at or below do not
        rng = np.random.default_rng(7)
        R = _threshold_rows(rng, 400, 4, 0.25)
        _, valid = variation_masks_reference(R, 0.25)
        lit = valid[np.arange(len(R)), 3 - (R > 0.0).sum(axis=1)]
        side = np.sign(np.where(R > 0.0, R, np.inf).min(axis=1)
                       - 0.25 * np.maximum(1.0, R.max(axis=1)))
        assert set(side.tolist()) == {-1.0, 0.0, 1.0}
        assert np.array_equal(lit, side > 0.0)

    def test_at_the_cap(self):
        rng = np.random.default_rng(24)
        R = np.vstack([_ratio_rows(rng, 200, 24), rng.integers(-1, 2, (50, 24))])
        masks, valid = variation_masks_reference(R, GAP_TOL)
        subsets = np.unique(np.concatenate([masks[valid][:3], rng.integers(1, 2 ** 24 - 1, 3)]))
        want = _first_rows_reference(R, subsets, GAP_TOL)
        assert np.array_equal(_variation_first_rows(R, subsets, GAP_TOL), want)
        assert (want >= 0).sum() >= 3

    def test_no_rows(self):
        assert _variation_first_rows(np.ones((0, 3)), np.array([1, 6]), GAP_TOL).tolist() == [-1, -1]


class TestLayout:
    """Work along rows may run on column- or rank-major arrays; results
    must not depend on the input's memory layout."""

    @pytest.mark.parametrize("n", [2, 3, 8])
    def test_mask_codes(self, n):
        rng = np.random.default_rng(300 + n)
        scale = 10.0 ** rng.integers(-12, 3, (200, 1))
        R = np.vstack([scale * rng.normal(size=(200, n)),
                       rng.integers(-2, 3, (50, n)).astype(float)])
        layouts = _layouts(R)
        assert layouts["F"].flags.f_contiguous and not layouts["strided"].flags.c_contiguous
        for masks_of in (sup_masks, variation_masks):
            want_masks, want_valid = masks_of(layouts["C"], GAP_TOL)
            assert want_valid.any() and not want_valid.all()
            for name, A in layouts.items():
                masks, valid = masks_of(A, GAP_TOL)
                assert np.array_equal(masks, want_masks), (masks_of.__name__, name)
                assert np.array_equal(valid, want_valid), (masks_of.__name__, name)

    @pytest.mark.parametrize("n", [1, 3, 8])
    def test_separates(self, n):
        rng = np.random.default_rng(400 + n)
        phi = rng.normal(size=n)
        R = rng.normal(size=(300, n)) * np.logspace(-3, 3, 300)[:, None]
        R -= np.outer(R @ phi, phi) / (phi @ phi)  # onto <v, phi> = 0
        # then off it, inside and beyond the slack 1e-12 * max(1, |v|_inf)
        slack = 1e-12 * np.maximum(1.0, np.abs(R).max(axis=1))
        R += np.outer(np.where(np.arange(300) % 2, -0.5, -2.0) * slack, phi) / (phi @ phi)
        layouts = _layouts(R)
        want = separates(layouts["C"], phi)
        assert want.any() and not want.all()
        for name, A in layouts.items():
            assert np.array_equal(separates(A, phi), want), name

    @pytest.mark.parametrize("make", [
        lambda: MatrixMap(np.random.default_rng(13).uniform(0.05, 2.0, (4, 4))),
        mixed_meansum,
        schoen_composition,
        lambda: TriangleMap(1 / 6),
        lambda: ComposeMap((TriangleMap(0.1), MatrixMap(np.ones((3, 3)) + np.eye(3)))),
    ], ids=["matrix", "meansum", "schoen", "triangle", "compose"])
    def test_eval_batch(self, make):
        spec = make()
        rng = np.random.default_rng(450 + spec.dim)
        X = np.exp(rng.uniform(-40.0, 40.0, (300, spec.dim)))
        X[::7, 1] = X[::7, 0]  # ties for the triangle's maximal coordinate
        layouts = _layouts(X)
        want = spec._eval_batch(layouts["C"])
        for name, A in layouts.items():
            assert np.array_equal(spec._eval_batch(A), want), name


def _assert_separates(vectors):
    # the certificate finds a nonzero phi with V phi >= 0, to the slack the
    # smooth detector uses, wherever 0 is not interior to the hull
    V = np.asarray(vectors, dtype=float)
    phi = interior_hull_certificate(V).separator
    assert phi is not None and np.any(phi != 0.0)
    scale = np.maximum(1.0, np.max(np.abs(V), axis=1))
    assert np.all(V @ phi >= -1e-12 * scale)


class TestInteriorHullCertificate:
    def test_symmetric_instance(self):
        # stretched to 1e308, the rows' sum overflows unless the solve
        # scales them first
        for vecs in ([(1, 0), (-1, 1), (-1, -1)], [(1e308, 0), (-1e308, 1), (-1e308, -1)]):
            cert = interior_hull_certificate(vecs)
            assert cert.inside
            assert cert.epsilon == pytest.approx(0.25, abs=1e-12)
            assert cert.separator is None

    def test_separated_instance(self):
        vecs = [(1, 0), (2, 0), (3, 1)]
        cert = interior_hull_certificate(vecs)
        assert not cert.inside
        assert cert.epsilon < 0
        _assert_separates(vecs)
        # certificates compare by identity, not by an ambiguous array ==
        assert cert == cert and cert != interior_hull_certificate(vecs)

    def test_rank_deficient_instance(self):
        vecs = [(1, 0), (-1, 0)]
        cert = interior_hull_certificate(vecs)
        assert not cert.inside
        assert cert.epsilon > 0  # in the relative interior, but not interior
        # the rows have a positive dependence, so no NNLS separator exists;
        # the certificate answers with a null-space vector
        assert np.array_equal(np.abs(cert.separator), [0.0, 1.0])

    @pytest.mark.parametrize("vecs", [
        [(1.0, 0.0)],
        [(1, 0, 0), (0, 1, 0)],
        [(1, 1), (2, 1), (3, 1), (-4, 1)],  # a line missing 0
        [(1e308, 0.0)] * 3,  # a sum past the float range
    ])
    def test_off_affine_hull_instance(self, vecs):
        cert = interior_hull_certificate(vecs)
        assert not cert.inside
        assert cert.epsilon == -np.inf
        _assert_separates(vecs)

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
        _assert_separates(V)

    def test_empty_rejected(self):
        with pytest.raises(DomainError):
            interior_hull_certificate([])

    def test_one_nnls_solve_per_call(self, monkeypatch):
        from coneglow import illumination

        calls = []
        solve = illumination.nnls
        monkeypatch.setattr(illumination, "nnls",
                            lambda A, b: calls.append(A.shape) or solve(A, b))
        for vecs in ([(1, 0), (2, 0), (3, 1)], [(1, 0), (-1, 0)], [(1, 0), (-1, 1), (-1, -1)]):
            calls.clear()
            interior_hull_certificate(vecs)
            assert calls == [(2, len(vecs))]
        assert not hasattr(illumination, "linprog")

    def test_one_rank_test_per_call(self, monkeypatch):
        # rows in the plane z = 0 with a positive dependence: NNLS finds
        # it, the least singular value (0) refuses the interior, and the
        # same SVD picks the null-space separator e_3
        calls = []
        svd = np.linalg.svd
        monkeypatch.setattr(np.linalg, "svd",
                            lambda *args, **kwargs: calls.append(1) or svd(*args, **kwargs))
        cert = interior_hull_certificate([(1, 0, 0), (0, 1, 0), (-1, -1, 0)])
        assert len(calls) == 1
        assert not cert.inside
        assert cert.epsilon == pytest.approx(1 / 3, abs=1e-12)
        assert np.array_equal(np.abs(cert.separator), [0.0, 0.0, 1.0])
        for vecs in ([(1, 0), (-1, 1), (-1, -1)], [(1, 0), (-1, 0)], [(1, 0), (2, 0), (3, 1)]):
            calls.clear()
            interior_hull_certificate(vecs)
            assert len(calls) <= 1

    def test_collinear_residuals_are_not_inside(self):
        # residuals of the projection onto the diagonal offset by (1, -1),
        # sampled in a box of radius 1e9: collinear up to rounding.  Their
        # least singular value, 8.2e-8, passes the rank tolerance, but |w|
        # is 8.4e-8
        V = [(-367174972.557584, 367174972.557584),
             (-24445887.40766549, 24445887.40766561),
             (99485339.07744932, -99485339.07744932)]
        assert not interior_hull_certificate(V).inside

    def test_rows_on_a_hyperplane_near_zero(self):
        # rows on <a, v> = delta * max|v|: a separates them from 0 by a
        # relative margin of 1e-12 to 1e-6, below the solve's tolerance
        # for the small ones, so NNLS reports a positive dependence; the
        # least singular value refuses the interior, and a separator is found
        rng = np.random.default_rng(31)
        for _ in range(300):
            n = int(rng.integers(2, 6))
            a = rng.normal(size=n)
            a /= np.linalg.norm(a)
            P = rng.normal(size=(int(rng.integers(n + 1, 4 * n + 1)), n))
            P -= np.outer(P @ a, a)
            P *= 10.0 ** rng.uniform(-3.0, 3.0)
            V = P + 10.0 ** rng.uniform(-12.0, -6.0) * np.max(np.abs(P)) * a
            cert = interior_hull_certificate(V)
            assert not cert.inside
            _assert_unit_separator(V, cert.separator)

    def test_subnormal_rows(self):
        # 0 is interior to this triangle, but its least singular value is far
        # below the tolerance; the solve scaled the rows by 2**1073, and
        # scaling the comparison back must not overflow
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            cert = interior_hull_certificate([(5e-324, 0.0), (-5e-324, 5e-324),
                                              (-5e-324, -5e-324)])
        assert not cert.inside and cert.epsilon == pytest.approx(0.25)

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
            assert cert.inside == (margin > 0) == hull_lp_certificate(vecs)[0]
            if not cert.inside:
                _assert_separates(vecs)
        assert checked > 250

    def test_agrees_with_the_lp(self):
        # one NNLS dependence gives the LP's verdict, and its epsilon never
        # exceeds the LP's optimum: plain, symmetric and rank-deficient sets,
        # rows scaled by 10^-3..10^3
        rng = np.random.default_rng(21)
        inside = 0
        for trial in range(2000):
            n = int(rng.integers(1, 7))
            m = int(rng.integers(1, 3 * n + 4))
            V = rng.normal(size=(m, n)) + rng.normal(size=n) * rng.uniform(0.0, 1.5)
            if trial % 3 == 1:
                V = np.vstack([V, -V])
            elif trial % 3 == 2 and n > 1:
                V = V @ rng.normal(size=(n, n - 1)) @ rng.normal(size=(n - 1, n))
            V *= 10.0 ** rng.uniform(-3.0, 3.0, size=(len(V), 1))
            cert = interior_hull_certificate(V)
            lp_inside, lp_epsilon = hull_lp_certificate(V)
            assert cert.inside == lp_inside
            assert not cert.epsilon > lp_epsilon * (1.0 + 1e-9)
            inside += cert.inside
        assert 300 < inside < 1700

    def test_illumination_implies_interior(self):
        # covering witnesses with healthy margins must certify 0 in the hull;
        # variation residuals live in V0, so the certificate runs in V0's
        # own coordinates (last coordinate dropped)
        rng = np.random.default_rng(9)
        for norm_id, n in ((NormId.SUP, 2), (NormId.SUP, 3), (NormId.VARIATION, 3)):
            pts = extreme_points(norm_id, n)
            for _ in range(30):
                residuals = -pts * rng.uniform(0.5, 2.0, (len(pts), 1))
                if norm_id is NormId.VARIATION:
                    covered = _covered(*variation_masks(residuals, GAP_TOL))
                    assert covered == set(range(1, 2 ** n - 1))
                    cert = interior_hull_certificate(residuals[:, :-1])
                else:
                    assert _covered(*sup_masks(residuals, GAP_TOL)) == set(range(2 ** n))
                    cert = interior_hull_certificate(residuals)
                assert cert.inside
                assert cert.epsilon > 1e-3


def _assert_unit_separator(V, phi):
    assert phi is not None
    assert np.linalg.norm(phi) == pytest.approx(1.0, abs=1e-12)
    assert separates(np.asarray(V, dtype=float), phi).all()


class TestGordanSeparator:
    @pytest.mark.parametrize("n", range(1, 7))
    def test_shifted_cloud(self, n):
        rng = np.random.default_rng(300 + n)
        for _ in range(20):
            u = rng.normal(size=n)
            u /= np.linalg.norm(u)
            m = int(rng.integers(1, 4 * n + 4))
            V = rng.normal(size=(m, n)) + 5.0 * u
            V = V[V @ u > 0.1]  # u separates what is kept
            assert len(V)
            _assert_unit_separator(V, interior_hull_certificate(V).separator)

    @pytest.mark.parametrize("n", range(1, 7))
    @pytest.mark.parametrize("distance", [2.0, 40.0, 1000.0])
    def test_residuals_on_a_plane_off_zero(self, n, distance):
        # as a map without fixed points produces them: exactly on a plane
        rng = np.random.default_rng(400 + n)
        u = rng.normal(size=n)
        u /= np.linalg.norm(u)
        spread = rng.uniform(-100.0, 100.0, size=(50 * n, n))
        spread -= np.outer(spread @ u, u)
        V = -distance * u + spread
        _assert_unit_separator(V, interior_hull_certificate(V).separator)

    def test_none_when_zero_is_interior(self):
        assert interior_hull_certificate([(1, 0), (-1, 1), (-1, -1)]).separator is None
        for n in range(1, 7):
            eye = np.eye(n)
            assert interior_hull_certificate(np.vstack([eye, -eye])).separator is None

    def test_never_contradicts_the_lp(self):
        rng = np.random.default_rng(17)
        inside = found = 0
        for _ in range(500):
            n = int(rng.integers(1, 6))
            m = int(rng.integers(1, 3 * n + 4))
            V = rng.normal(size=(m, n)) + rng.normal(size=n) * rng.uniform(0.0, 1.5)
            phi = interior_hull_certificate(V).separator
            if hull_lp_certificate(V)[0]:
                inside += 1
                assert phi is None
            elif phi is not None:
                found += 1
                _assert_unit_separator(V, phi)
        assert inside > 50 and found > 50

    def test_nonfinite_rejected(self):
        with pytest.raises(DomainError, match="finite vectors"):
            interior_hull_certificate([(1.0, np.inf), (0.0, 1.0)])
