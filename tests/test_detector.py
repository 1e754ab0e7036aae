import json
import re
import sys
import time
import warnings
from decimal import Decimal
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from coneglow import detector
from coneglow import (
    DetectionConfig,
    DetectionReport,
    DetectionStatus,
    DomainError,
    MatrixMap,
    MeanSumMap,
    MeanTerm,
    NormId,
    SchoenMap,
    TriangleMap,
    build_adversarial_euclid,
    detect_eigenvector,
    detect_fixed_point_smooth,
    detect_fixed_point_sup,
    eval_map,
    interior_hull_certificate,
    map_spec_from_dict,
    power_iteration,
    variation_masks,
)
from oracles import cover_reference, illuminates_point, schoen_composition
from test_conemaps import mixed_meansum

QUARTER_TURN = np.array([[0.0, -1.0], [1.0, 0.0]])
ROTOREFLECTION = np.array([[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, -1.0]])
CORNER = np.array([90.0, 90.0])


def corner_contraction(X):
    # residuals 0.5 * (CORNER - x) point up and right except near the corner
    # of the box, so cached separators hold for a while and then break
    return 0.5 * (X - CORNER) + CORNER


def use_small_batches(monkeypatch):
    # batches of 5, 17, 251, 7, 7, ... rows, which the smooth detector
    # rounds down to whole n+1 blocks
    monkeypatch.setattr(detector, "_BATCH_PLAN", (5, 17, 251))
    monkeypatch.setattr(detector, "_BATCH_MAX", 7)


class TestConfig:
    def test_defaults(self):
        config = DetectionConfig()
        assert config.box_radius == 100.0
        assert config.max_samples == 10 ** 5
        assert config.gap_tol == 1e-9

    def test_validation(self):
        with pytest.raises(DomainError):
            DetectionConfig(box_radius=0.0)
        with pytest.raises(DomainError):
            DetectionConfig(seed=-1)
        with pytest.raises(DomainError):
            DetectionConfig(max_samples=0)

    @pytest.mark.parametrize("field, value", [
        ("max_samples", 2.5), ("seed", 1.5), ("max_samples", True), ("seed", False),
        ("box_radius", True), ("gap_tol", False),
    ])
    def test_rejects_non_integer_budget_and_seed(self, field, value):
        with pytest.raises(DomainError):
            DetectionConfig(**{field: value})

    @pytest.mark.parametrize("field, what", [("box_radius", "box radius"),
                                             ("gap_tol", "gap tolerance")])
    @pytest.mark.parametrize("value, shown", [
        ("1", "'1'"), (None, "None"), (True, "True"), (Fraction(1, 2), "Fraction(1, 2)"),
        (Decimal(2), "Decimal('2')"), ([1.0], "[1.0]"), ((0.5,), "(0.5,)"),
        (np.full(1, 0.5), "array([0.5])"),
    ], ids=["string", "none", "bool", "fraction", "decimal", "list", "tuple", "array"])
    def test_real_fields_take_what_require_numbers_passes(self, field, what, value, shown):
        # one DomainError naming the field, not a TypeError from the range
        # checks, nor a Fraction that the sampler cannot multiply
        message = f"{what}: expected a number, not {shown}"
        with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
            DetectionConfig(**{field: value})

    def test_float32_fields_compare_without_overflow(self):
        # compared as a float32, the float limit would overflow with a
        # RuntimeWarning; the config keeps the values as Python floats
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            config = DetectionConfig(box_radius=np.float32(2), gap_tol=np.float32(0.5))
        assert (config.box_radius, config.gap_tol) == (2.0, 0.5)
        assert type(config.box_radius) is type(config.gap_tol) is float

    @pytest.mark.parametrize("detect", [detect_fixed_point_sup, detect_fixed_point_smooth])
    @pytest.mark.parametrize("n, fields, python", [
        (2, {"box_radius": np.float32(2)}, {"box_radius": 2.0}),
        (2, {"box_radius": np.int64(2)}, {"box_radius": 2}),
        (2, {"seed": np.int64(3)}, {"seed": 3}),
        (2, {"max_samples": np.int64(40)}, {"max_samples": 40}),
        (np.int64(2), {}, {}),
    ], ids=["float32-radius", "int64-radius", "int64-seed", "int64-budget", "int64-dimension"])
    def test_numpy_scalars_write_the_bytes_of_python_numbers(self, detect, n, fields, python):
        def report(n, fields):
            config = DetectionConfig(**{"max_samples": 40, **fields})
            return detect(lambda X: 0.5 * X + 1.0, n, config).to_json_bytes()

        assert report(n, fields) == report(2, python)

    @pytest.mark.parametrize("radius", [1e308, 9e307, np.finfo(float).max, 10 ** 400])
    def test_box_radius_whose_width_overflows(self, radius):
        # uniform sampling over [-R, R] needs 2R as a float
        with pytest.raises(DomainError, match=r"^box radius .* too large: the box width 2R overflows$"):
            DetectionConfig(box_radius=radius)
        assert DetectionConfig(box_radius=np.finfo(float).max / 2).box_radius > 8e307

    @pytest.mark.parametrize("gap_tol", [1.0, 1e308, np.inf, np.nan, -1e-9])
    def test_gap_tolerance_that_can_never_certify(self, gap_tol):
        # a sorted gap never exceeds the spread, nor min |r_j| the max
        with pytest.raises(DomainError, match=r"^gap tolerance must be in \[0, 1\)$"):
            DetectionConfig(gap_tol=gap_tol)


def ratio_subsets(spec, x):
    # the masks variation_masks cuts from the log-ratios of f at x, as the
    # eigenvector detector and DetectionReport.verify cut them
    rho = np.log(eval_map(spec, x)) - np.log(x)
    masks, valid = variation_masks(rho[None, :], 1e-9)
    return set(masks[valid].tolist())


class TestRatioSubsets:
    def test_ones_matrix_example(self):
        assert ratio_subsets(MatrixMap([[1, 1], [1, 1]]), [2.0, 1.0]) == {0b01}

    def test_eigenvector_gives_nothing(self):
        assert ratio_subsets(MatrixMap([[1, 1], [1, 1]]), [1.0, 1.0]) == set()

    def test_three_distinct_ratios(self):
        # diag(1, 2, 3): ratios are (1, 2, 3), cuts after 1 and 2
        spec = MatrixMap(np.diag([1.0, 2.0, 3.0]))
        assert ratio_subsets(spec, [1.0, 1.0, 1.0]) == {0b001, 0b011}

    def test_at_most_n_minus_one(self):
        rng = np.random.default_rng(20)
        spec = schoen_composition()
        for _ in range(100):
            x = np.append(np.exp(rng.uniform(-50, 50, 3)), 1.0)
            masks = ratio_subsets(spec, x)
            assert len(masks) <= 3

    def test_brute_force_equivalence(self):
        rng = np.random.default_rng(21)
        specs = [schoen_composition(), TriangleMap(1 / 6),
                 MatrixMap(rng.uniform(0.05, 2.0, (6, 6)))]
        for spec in specs:
            n = spec.dim
            for _ in range(120):
                x = np.append(np.exp(rng.uniform(-80, 80, n - 1)), 1.0)
                got = ratio_subsets(spec, x)
                fx = eval_map(spec, x)
                rho = np.log(fx) - np.log(x)
                thr = 1e-9 * max(1.0, float(rho.max() - rho.min()))
                want = set()
                for mask in range(1, 2 ** n - 1):
                    inside = [rho[i] for i in range(n) if (mask >> i) & 1]
                    outside = [rho[i] for i in range(n) if not (mask >> i) & 1]
                    if min(outside) - max(inside) > thr:
                        want.add(mask)
                assert got == want


def _mask_batches(masks, valid, sizes, n):
    """``(offset, points, masks, valid)`` batches of the given sizes; row i
    of the points is the sample index i in every coordinate."""
    masks, valid = np.asarray(masks), np.asarray(valid, dtype=bool)
    offset = 0
    for size in sizes:
        rows = slice(offset, offset + size)
        points = np.repeat(np.arange(offset, offset + size, dtype=float)[:, None], n, axis=1)
        yield offset, points, masks[rows], valid[rows]
        offset += size


class TestCover:
    CONFIG = DetectionConfig(max_samples=10 ** 4)

    def _check(self, kind, n, masks, valid, sizes):
        # each batch's residuals are its points, whose entries are the sample
        # indices; the kind's mask code returns the given rows by slice, and
        # the tail never starts
        masks, valid = np.asarray(masks), np.asarray(valid, dtype=bool)
        total, _, cone = detector._KINDS[kind]

        def cut(R, gap_tol):
            rows = slice(int(R[0, 0]), int(R[-1, 0]) + 1)
            return masks[rows], valid[rows]

        batches = ((offset, points, points)
                   for offset, points, *_ in _mask_batches(masks, valid, sizes, n))
        with pytest.MonkeyPatch.context() as patch:
            patch.setitem(detector._KINDS, kind, (total, cut, cone))
            patch.setattr(detector, "_tail_subsets", lambda n: 0)
            got = detector._cover(kind, n, self.CONFIG, batches)
        want = cover_reference(kind, n, self.CONFIG, _mask_batches(masks, valid, sizes, n))
        assert (got.status, got.samples_used) == (want.status, want.samples_used)
        assert sorted(got.witnesses) == sorted(want.witnesses)
        for mask, point in want.witnesses.items():
            assert np.array_equal(got.witnesses[mask], point)
        return got

    @pytest.mark.parametrize("n", [3, 8])
    def test_variation_masks_output(self, n):
        # the transposed views variation_masks returns, tied integer rows
        # first, cover as the row-by-row loop covers them
        rng = np.random.default_rng(600 + n)
        rho = np.vstack([rng.integers(-2, 3, (300, n)), rng.normal(size=(600, n))])
        masks, valid = variation_masks(rho, 1e-9)
        assert not masks.flags.c_contiguous
        report = self._check("eigenvector", n, masks, valid, [100, 300, 500])
        assert report.subsets_covered > 2 ** (n - 1)

    def test_mask_realized_by_several_rows(self):
        # sup patterns of n = 2: mask 1 in rows 0, 1, 3 of one batch, first row wins
        masks = [[1], [1], [2], [1], [0], [3]]
        report = self._check("fixed_point_sup", 2, masks, np.ones((6, 1)), [6])
        assert report.witnesses[1][0] == 0.0
        assert (report.confirmed, report.samples_used) == (True, 6)

    def test_two_masks_first_realized_by_one_row(self):
        # eigenvector subsets of n = 3; row 1 brings masks 2 and 6 at once
        masks = [[1, 3], [2, 6], [4, 5], [3, 5]]
        valid = [[True, False], [True, True], [True, True], [True, True]]
        report = self._check("eigenvector", 3, masks, valid, [2, 2])
        assert report.witnesses[2][0] == report.witnesses[6][0] == 1.0
        assert report.witnesses[3][0] == 3.0  # invalid in row 0
        assert (report.confirmed, report.samples_used) == (True, 4)

    def test_completion_mid_batch(self):
        masks = [[0], [1], [0], [2], [3], [3], [1], [2]]
        report = self._check("fixed_point_sup", 2, masks, np.ones((8, 1)), [3, 5])
        assert (report.confirmed, report.samples_used) == (True, 5)

    def test_uncovered_spends_every_batch(self):
        masks = [[0], [1], [1], [0], [2]]
        report = self._check("fixed_point_sup", 2, masks, np.ones((5, 1)), [2, 3])
        assert (report.confirmed, report.samples_used) == (False, 5)

    @pytest.mark.parametrize("masks, sizes, used, covered", [
        ([[0], [1], [1], [0], [0], [2], [3]], [2, 3, 2], 7, 4),
        ([[0], [1], [1], [0], [1], [0]], [2, 2, 2], 6, 2),
    ], ids=["then-confirmed", "undetermined"])
    def test_batches_without_a_fresh_row(self, masks, sizes, used, covered):
        # a batch that brings no new mask still counts its rows as used
        report = self._check("fixed_point_sup", 2, masks, np.ones((len(masks), 1)), sizes)
        assert (report.samples_used, report.subsets_covered) == (used, covered)

    @pytest.mark.parametrize("kind,n,lo,width", [
        ("eigenvector", 3, 1, 2), ("eigenvector", 5, 1, 4), ("fixed_point_sup", 3, 0, 1),
        ("fixed_point_sup", 6, 0, 1),
    ])
    def test_random_batches_match_reference(self, kind, n, lo, width):
        rng = np.random.default_rng(n)
        total = detector._KINDS[kind][0](n)
        for _ in range(50):
            sizes = rng.integers(1, 40, size=rng.integers(1, 8))
            rows = int(sizes.sum())
            masks = rng.integers(lo, lo + total, size=(rows, width))
            valid = rng.random((rows, width)) < rng.uniform(0.2, 1.0)
            self._check(kind, n, masks, valid, sizes)


SPECS = Path(__file__).resolve().parents[1] / "specs"


def panel_meansum(seed):
    # an n = 8 map drawn like the eigen_detect benchmark panel: per coordinate
    # one exponent from (0, 1, 2, inf) and one from (-inf, -1, 0, 1), with
    # near-uniform weights and coefficients
    rng = np.random.default_rng(seed)
    return MeanSumMap(tuple(
        tuple(MeanTerm(choices[rng.integers(4)], rng.dirichlet(np.full(8, 20.0)),
                       rng.uniform(0.8, 1.25))
              for choices in ((0.0, 1.0, 2.0, np.inf), (-np.inf, -1.0, 0.0, 1.0)))
        for _ in range(8)))


class TestDarkTail:
    """Once few subsets are uncovered, the eigenvector detector tests each
    batch against those subsets alone; where that starts never changes a
    report."""

    def test_tail_bound_does_not_change_reports(self, monkeypatch):
        rng = np.random.default_rng(34)
        specs = [map_spec_from_dict(json.loads(path.read_text()))
                 for path in sorted(SPECS.glob("*.json")) if "affine" not in path.name]
        specs += [panel_meansum(seed) for seed in (1, 2, 3)]
        specs += [MatrixMap(rng.uniform(0.05, 1.0, (n, n))) for n in range(2, 7)]
        tested = []
        first_rows = detector._variation_first_rows
        monkeypatch.setattr(detector, "_variation_first_rows",
                            lambda *args: tested.append(1) or first_rows(*args))

        def reports():
            tested.clear()
            return [detect_eigenvector(spec, DetectionConfig(seed=seed, max_samples=30000))
                    .to_json_bytes() for spec in specs for seed in (0, 3, 11)], len(tested)

        default, calls = reports()
        assert calls > 0
        confirmed = [json.loads(doc)["status"] == "confirmed" for doc in default]
        assert 0 < sum(confirmed) < len(confirmed)
        monkeypatch.setattr(detector, "_tail_subsets", lambda n: 0)
        assert reports() == (default, 0)
        monkeypatch.setattr(detector, "_tail_subsets", lambda n: 1 << n)
        tail_only, calls = reports()
        assert tail_only == default and calls > 0

    def test_uncovered_subsets_are_listed_once(self, monkeypatch):
        # triangle_c0's three singletons are never covered: the first batch
        # sorts, and every later batch tests those three alone
        seen, sorts = [], []
        first_rows = detector._variation_first_rows
        monkeypatch.setattr(detector, "_variation_first_rows", lambda R, subsets, tol: (
            seen.append(subsets.tolist()) or first_rows(R, subsets, tol)))
        total, masks_of, cone = detector._KINDS["eigenvector"]
        monkeypatch.setitem(detector._KINDS, "eigenvector", (
            total, lambda R, tol: sorts.append(len(R)) or masks_of(R, tol), cone))
        report = detect_eigenvector(TriangleMap(0.0), DetectionConfig(seed=2, max_samples=20000))
        assert (report.samples_used, report.subsets_covered) == (20000, 3)
        assert sorts == [32]
        assert seen == [[1, 2, 4]] * 7

    @pytest.mark.parametrize("seed", range(3))
    def test_sup_patterns_never_enter_the_tail(self, monkeypatch, seed):
        # seed 0 starts its second batch with 1 of 8 patterns uncovered, under
        # _tail_subsets(3), and still cuts it by its sign codes
        def tail(*args):
            raise AssertionError("the sup detector tested a tail")

        monkeypatch.setattr(detector, "_variation_first_rows", tail)
        case = ("sup", "half_plus_one_n3", seed)
        report = _pinned_run(*case)
        assert (report.samples_used, report.subsets_covered) == PINNED[case]


class TestDetectEigenvector:
    def test_ones_matrix_quick(self):
        report = detect_eigenvector(MatrixMap([[1, 1], [1, 1]]),
                                    DetectionConfig(seed=0))
        assert report.confirmed
        assert report.samples_used <= 10
        assert report.total_subsets == 2

    def test_witnesses_revalidate(self):
        config = DetectionConfig(seed=5)
        spec = schoen_composition()
        report = detect_eigenvector(spec, config)
        assert report.confirmed
        assert len(report.witnesses) == report.total_subsets == 14
        for mask, point in report.witnesses.items():
            # the witness's log-ratios, moved into V0, illuminate the
            # variation ball's extreme point 1_J
            rho = np.log(eval_map(spec, point)) - np.log(point)
            bits = (mask >> np.arange(4)) & 1
            z = (bits - bits[-1]).astype(float)
            assert illuminates_point(z, rho - rho[-1], NormId.VARIATION)

    def test_triangle_c0_undetermined(self):
        report = detect_eigenvector(TriangleMap(0.0),
                                    DetectionConfig(seed=1, max_samples=2000))
        assert report.status is DetectionStatus.UNDETERMINED
        assert report.samples_used == 2000
        assert report.subsets_covered == 3  # pairs appear, singletons never

    def test_upper_triangular_never_confirms(self):
        report = detect_eigenvector(MatrixMap([[1, 1], [0, 1]]),
                                    DetectionConfig(seed=2, max_samples=5000))
        assert not report.confirmed
        assert report.subsets_covered == 1

    def test_determinism_bytes(self):
        spec = schoen_composition()
        a = detect_eigenvector(spec, DetectionConfig(seed=11))
        b = detect_eigenvector(spec, DetectionConfig(seed=11))
        assert a.to_json_bytes() == b.to_json_bytes()

    def test_batch_plan_does_not_change_results(self, monkeypatch):
        # all three detectors, confirming and not, under the default and a
        # small batch plan
        b = np.array([0.5, 1.0])

        def runs():
            cfg = DetectionConfig(seed=11, max_samples=700)
            yield detect_eigenvector(schoen_composition(), cfg)
            yield detect_eigenvector(TriangleMap(0.0), cfg)
            yield detect_fixed_point_sup(lambda X: 0.5 * X + 1.0, 3, cfg)
            yield detect_fixed_point_sup(lambda X: X + b, 2, cfg)
            for f in (lambda X: X @ QUARTER_TURN.T, lambda X: X + b,
                      corner_contraction):
                for seed in range(3):
                    yield detect_fixed_point_smooth(
                        f, 2, DetectionConfig(seed=seed, max_samples=700))

        default = [r.to_json_bytes() for r in runs()]
        use_small_batches(monkeypatch)
        small = [r.to_json_bytes() for r in runs()]
        assert small == default
        assert b'"status": "confirmed"' in default[-1]
        assert b'"status": "undetermined"' in default[-4]

    @pytest.mark.parametrize("cone", [False, True])
    def test_batches_stay_within_the_coordinate_cap(self, cone):
        for n in range(1, 25):
            config = DetectionConfig(max_samples=3 * 4096 + 5)
            sizes = [X.size for _, X, _ in detector._draws(config, n, cone, 1)]
            assert max(sizes) <= 2 ** 14
            assert sum(sizes) == n * config.max_samples
            if n <= 4:  # the plan's rows, uncapped
                assert max(sizes) == n * 4096

    @pytest.mark.parametrize("cone", [False, True])
    @pytest.mark.parametrize("n, width", [(3, 3), (3, 48), (8, 16), (8, 33), (24, 100),
                                          (2, 2 ** 14), (2, 2 ** 14 + 1), (4, 10 ** 6)])
    def test_batches_stay_within_the_width_cap(self, cone, n, width):
        # a map wider than n caps a batch's rows at 2**14 // width, and
        # past 2**14 each batch is one block, of 1 row or of n+1
        for block in (1, n + 1):
            config = DetectionConfig(max_samples=2 * 4096 + 5 if width < 2 ** 14 else 40)
            rows = [len(X) for _, X, _ in detector._draws(config, n, cone, block, width)]
            assert sum(rows) == config.max_samples
            assert all(m > 0 and m % block == 0 for m in rows[:-1])
            assert all(m * width <= max(2 ** 14, block * width) for m in rows)
            size = min(4096, 2 ** 14 // width)
            assert max(rows) == max(size - size % block, block)

    def test_schoen_kernel_arrays_stay_within_the_coordinate_cap(self, monkeypatch):
        # every array the Schoen kernel builds, its (term, coordinate) array
        # of 16 floats a row included, holds at most 2**14 floats; a gap
        # tolerance near 1 leaves every mask invalid, so the run spends its
        # budget through full-size batches
        sizes, rows = [], []

        class Watched(np.ndarray):
            __array_priority__ = 1.0  # concatenate keeps the subclass

            def __array_finalize__(self, obj):
                sizes.append(self.size)

        kernel = SchoenMap._eval_batch

        def watched(self, X):
            rows.append(len(X))
            return kernel(self, X.view(Watched)).view(np.ndarray)

        monkeypatch.setattr(SchoenMap, "_eval_batch", watched)
        spec = schoen_composition()
        report = detect_eigenvector(spec, DetectionConfig(max_samples=5000, gap_tol=0.999))
        assert report.samples_used == 5000 and not report.confirmed
        assert spec.width == 16 and max(rows) == 2 ** 14 // 16
        assert max(sizes) == 2 ** 14 == detector._BATCH_COORDS

    @pytest.mark.parametrize("small_batches", [False, True])
    def test_batches_hold_whole_blocks(self, monkeypatch, small_batches):
        # every batch but the budget's last holds whole n+1 blocks, and at
        # least one block, also past the coordinate cap (n > 127)
        if small_batches:
            use_small_batches(monkeypatch)
        for n in (1, 2, 4, 7, 30, 127, 128, 130, 200):
            block = n + 1
            config = DetectionConfig(max_samples=5 * block + 2)
            rows = [len(X) for _, X, _ in detector._draws(config, n, False, block)]
            assert sum(rows) == config.max_samples
            assert all(m > 0 and m % block == 0 for m in rows[:-1])
            assert all(m * n <= max(2 ** 14, block * n) for m in rows)
            if n > 127:
                assert rows == [block] * 5 + [2]

    @pytest.mark.parametrize("small_batches", [False, True])
    @pytest.mark.parametrize("cone, R", [
        *((True, R) for R in (100.0, 0.3, 123.456, 1e-5, 700.0)),
        (False, sys.float_info.max / 2),
    ])
    def test_draws_are_one_uniform_call(self, monkeypatch, small_batches, cone, R):
        # the batches' in-place -R + 2R * u is bit for bit what one
        # uniform(-R, R) call draws; on the cone beside a zero column
        if small_batches:
            use_small_batches(monkeypatch)
        for n, budget in ((1, 300), (3, 2500)):
            config = DetectionConfig(box_radius=R, max_samples=budget, seed=budget)
            batches = list(detector._draws(config, n, cone, 1))
            assert len(batches) >= 3
            assert [offset for offset, _, _ in batches] == np.cumsum(
                [0] + [len(X) for _, X, _ in batches[:-1]]).tolist()
            X, Y = (np.concatenate(part) for part in zip(*(b[1:] for b in batches)))
            want = np.random.default_rng(budget).uniform(
                -R, R, (budget, n - 1 if cone else n))
            if cone:
                want = np.column_stack([want, np.zeros(budget)])
                assert np.array_equal(X, np.exp(Y))
            else:
                assert all(X is Y for _, X, Y in batches)
            assert np.array_equal(Y.view(np.uint64), want.view(np.uint64))

    def test_coordinate_cap_does_not_change_long_runs(self, monkeypatch):
        # past 4096 samples, where the cap cuts n = 8 and n = 6 batches,
        # and n = 8 meansum batches by the term count: 2n terms to 1024
        # rows, 4n terms to 512
        def meansum(coeffs):
            # one term per coefficient in each coordinate, exponents in turn
            rng = np.random.default_rng(8)
            return MeanSumMap(tuple(
                tuple(MeanTerm(r, rng.dirichlet(np.full(8, 20.0)), c)
                      for r, c in zip((r1, r2) * 2, coeffs))
                for r1, r2 in zip([0, 1, 2, np.inf] * 2, [-np.inf, -1, 0, 1] * 2)))

        narrow, wide = meansum((1.0, 0.9)), meansum((1.0, 0.9, 0.5, 0.4))
        assert (narrow.width, wide.width) == (16, 32)
        shift = np.array([0.5, -1.0, 2.0, -3.0, 4.0, -5.0])
        rows = {}
        monkeypatch.setattr(detector, "eval_map", lambda spec, X: (
            rows.setdefault(spec.width, []).append(len(X)) or eval_map(spec, X)))

        def runs():
            rows.clear()
            cfg = DetectionConfig(seed=5, max_samples=12000)
            yield detect_eigenvector(narrow, cfg)
            yield detect_eigenvector(wide, cfg)
            yield detect_fixed_point_sup(lambda X: X + shift, 6, cfg)

        capped = [r.to_json_bytes() for r in runs()]
        assert rows[16][:4] == [32, 256, 1024, 1024]
        assert rows[32][:4] == [32, 256, 512, 512]
        assert all(m * width <= 2 ** 14 for width, ms in rows.items() for m in ms)
        monkeypatch.setattr(detector, "_BATCH_COORDS", 2 ** 40)  # the old plan
        assert [r.to_json_bytes() for r in runs()] == capped
        assert rows[16][:4] == rows[32][:4] == [32, 256, 2048, 4096]
        used = [json.loads(doc)["samples_used"] for doc in capped]
        assert min(used) > 4096

    def test_report_roundtrip(self):
        report = detect_eigenvector(MatrixMap([[1, 1], [1, 1]]),
                                    DetectionConfig(seed=3))
        clone = DetectionReport.from_json_dict(report.to_json_dict())
        assert clone.to_json_bytes() == report.to_json_bytes()

    def test_soundness_on_confirmed(self):
        rng = np.random.default_rng(22)
        for spec in (schoen_composition(), TriangleMap(1 / 6),
                     MatrixMap(rng.uniform(0.1, 2.0, (4, 4)))):
            report = detect_eigenvector(spec, DetectionConfig(seed=7))
            assert report.confirmed
            for trial in range(5):
                x0 = np.exp(rng.uniform(-2, 2, spec.dim))
                res = power_iteration(spec, x0)
                assert res.converged
                fx = eval_map(spec, res.vector)
                err = np.max(np.abs(fx - res.eigenvalue * res.vector))
                assert err <= 1e-8 * np.max(np.abs(res.vector))

    def test_box_radius_guard(self):
        with pytest.raises(DomainError):
            detect_eigenvector(MatrixMap([[1, 1], [1, 1]]),
                               DetectionConfig(box_radius=800.0))

    def test_underflowing_map_value_is_one_domain_error(self):
        # f(x)_2 = 1e-300 * x_1 is 0 for most samples: log would give -inf
        # with a numpy warning, and the row would drop out unseen
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match="^map values must be positive and finite$"):
                detect_eigenvector(MatrixMap([[0, 1], [1e-300, 0]]), DetectionConfig(seed=0))

    def test_dimension_one_is_vacuous(self):
        # one-dimensional homogeneous maps fix every ray: zero subsets to
        # cover, confirmed without sampling
        report = detect_eigenvector(MatrixMap([[3.0]]), DetectionConfig(seed=0))
        assert report.confirmed
        assert report.samples_used == 0
        assert report.total_subsets == 0


class TestDetectFixedPointSup:
    def test_zero_map_confirms(self):
        report = detect_fixed_point_sup(lambda X: 0.0 * X, 3,
                                        DetectionConfig(seed=0))
        assert report.confirmed
        assert report.total_subsets == 8

    def test_translation_never_confirms(self):
        b = np.array([1.0, -0.5])
        report = detect_fixed_point_sup(lambda X: X + b, 2,
                                        DetectionConfig(seed=1, max_samples=3000))
        assert not report.confirmed
        assert report.subsets_covered == 1

    def test_affine_contraction_confirms(self):
        b = np.array([1.0, 2.0])
        report = detect_fixed_point_sup(lambda X: 0.5 * X + b, 2,
                                        DetectionConfig(seed=2))
        assert report.confirmed
        # witnesses realize their own sign patterns
        for mask, w in report.witnesses.items():
            r = 0.5 * w + b - w
            for j in range(2):
                assert (r[j] < 0) == bool((mask >> j) & 1)


def _detect_in_dimension(kind, n):
    config = DetectionConfig(seed=0, max_samples=10)
    if kind == "eigenvector":
        # the dimension is checked before the map is evaluated
        return detect_eigenvector(SimpleNamespace(dim=n), config)
    detect = detect_fixed_point_sup if kind == "sup" else detect_fixed_point_smooth
    return detect(lambda X: 0.5 * X, n, config)


class TestDetectorArguments:
    @pytest.mark.parametrize("kind", ["eigenvector", "sup", "smooth"])
    @pytest.mark.parametrize("n", [0, -1, 2.0, True])
    def test_dimension_must_be_a_positive_integer(self, kind, n):
        with pytest.raises(DomainError, match="^dimension must be at least 1$"):
            _detect_in_dimension(kind, n)

    @pytest.mark.parametrize("kind", ["eigenvector", "sup"])
    def test_mask_kinds_are_capped(self, kind):
        with pytest.raises(DomainError, match="capped at n <= 24"):
            _detect_in_dimension(kind, 25)

    @pytest.mark.parametrize("detect", [detect_fixed_point_sup, detect_fixed_point_smooth])
    def test_per_point_maps_are_refused(self, detect):
        with pytest.raises(DomainError, match="vectorized=False"):
            detect(lambda x: 0.5 * x, 2, DetectionConfig(seed=0), vectorized=False)


def naive_smooth_report(f, n, config):
    """The smooth detector's report, re-running the hull certificate at
    every n+1 boundary on one uniform draw of the whole budget."""
    W = np.random.default_rng(config.seed).uniform(
        -config.box_radius, config.box_radius, size=(config.max_samples, n))
    residuals = f(W) - W
    status, used = DetectionStatus.UNDETERMINED, config.max_samples
    for b in range(n + 1, config.max_samples + 1, n + 1):
        if interior_hull_certificate(residuals[:b]).inside:
            status, used = DetectionStatus.CONFIRMED, b
            break
    return DetectionReport(kind="fixed_point_smooth", status=status, dimension=n,
                           samples_used=used, config=config, probe_points=W[:used])


class TestDetectFixedPointSmooth:
    def test_contraction_confirms(self):
        report = detect_fixed_point_smooth(lambda X: 0.9 * X, 2,
                                           DetectionConfig(seed=0))
        assert report.confirmed
        assert report.probe_points is not None
        assert len(report.probe_points) == report.samples_used

    def test_rotation_confirms(self):
        Q = np.array([[0.0, -1.0], [1.0, 0.0]])
        report = detect_fixed_point_smooth(lambda X: X @ Q.T, 2,
                                           DetectionConfig(seed=1))
        assert report.confirmed

    def test_translation_undetermined(self):
        b = np.array([0.5, 1.0])
        report = detect_fixed_point_smooth(lambda X: X + b, 2,
                                           DetectionConfig(seed=2, max_samples=3000))
        assert not report.confirmed
        assert report.samples_used == 3000

    def test_large_budget_is_not_preallocated(self):
        import tracemalloc

        tracemalloc.start()
        try:
            report = detect_fixed_point_smooth(
                lambda X: 0.5 * X, 2, DetectionConfig(seed=0, max_samples=10 ** 7))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert report.confirmed
        assert peak < 50 * 2 ** 20

    def test_matches_naive_per_boundary_certificate(self, monkeypatch):
        # the cached-separator fast path must agree with re-running the hull
        # certificate at every n+1 boundary, for confirming and
        # non-confirming maps alike, under the default and a small batch plan
        b = np.array([0.4, -0.2])
        Q = np.array([[0.0, -1.0], [1.0, 0.0]])
        maps = [
            lambda X: X + b,                      # never confirms
            lambda X: 0.9 * X,                    # confirms immediately
            lambda X: X @ Q.T,                    # confirms immediately
            lambda X: np.sin(X) + 0.3 * X,        # direction-rich residuals
            lambda X: np.abs(X) * 0.1 + 1.0,      # residuals flip with w
            corner_contraction,                   # separators break late
        ]
        expected = {}
        for f in maps:
            for seed in range(4):
                config = DetectionConfig(seed=seed, max_samples=120)
                expected[f, seed] = naive_smooth_report(f, 2, config).to_json_bytes()
                report = detect_fixed_point_smooth(f, 2, config)
                assert report.to_json_bytes() == expected[f, seed]
        use_small_batches(monkeypatch)
        for (f, seed), want in expected.items():
            config = DetectionConfig(seed=seed, max_samples=120)
            report = detect_fixed_point_smooth(f, 2, config)
            assert report.to_json_bytes() == want

    @pytest.mark.parametrize("small_batches", [False, True])
    def test_break_in_a_block_that_straddles_batches(self, monkeypatch, small_batches):
        # residuals (w_0, |w_1|) never surround 0; at seed 47 the cached
        # separator breaks in the block of rows 21-23 and in that of rows
        # 30-32, which straddle the edge of the small plan's second batch
        # (row 22) and of the default plan's first (row 32).  The detector
        # rounds its batches down to whole n+1 blocks, so no block straddles
        if small_batches:
            use_small_batches(monkeypatch)
        config = DetectionConfig(seed=47, max_samples=300)
        solve = detector.interior_hull_certificate
        calls, batches = [], []
        monkeypatch.setattr(detector, "interior_hull_certificate",
                            lambda V: calls.append(len(V)) or solve(V))

        def f(X):
            batches.append(len(X))
            return X + np.column_stack([X[:, 0], np.abs(X[:, 1])])

        report = detect_fixed_point_smooth(f, 2, config)
        assert batches == ([3, 15, 249, 6, 6, 6, 6, 6, 3] if small_batches
                           else [30, 255, 15])
        assert calls == [3, 24, 33, 39, 195]
        want = naive_smooth_report(f, 2, config)
        assert (report.status, report.samples_used) == (DetectionStatus.UNDETERMINED, 300)
        assert np.array_equal(report.probe_points, want.probe_points)
        assert report.to_json_bytes() == want.to_json_bytes()

    def test_one_block_past_the_coordinate_cap(self):
        # at n = 130 one block of 131 rows holds more than 2**14
        # coordinates: each batch is that one block, until the budget's end
        # cuts the last.  The contraction confirms at the second boundary.
        config = DetectionConfig(seed=3, max_samples=300)
        shift = np.full(130, 0.5)
        for g, status, rows in ((lambda X: 0.9 * X, DetectionStatus.CONFIRMED, [131, 131]),
                                (lambda X: X + shift, DetectionStatus.UNDETERMINED,
                                 [131, 131, 38])):
            batches = []
            f = lambda X: batches.append(len(X)) or g(X)
            report = detect_fixed_point_smooth(f, 130, config)
            assert (report.status, batches) == (status, rows)
            assert report.to_json_bytes() == naive_smooth_report(g, 130, config).to_json_bytes()

    @pytest.mark.parametrize("small_batches", [False, True])
    def test_separator_breaks_after_first_solve(self, monkeypatch,
                                                small_batches):
        if small_batches:
            use_small_batches(monkeypatch)
        solve = detector.interior_hull_certificate
        calls = []
        monkeypatch.setattr(detector, "interior_hull_certificate",
                            lambda V: calls.append(len(V)) or solve(V))
        report = detect_fixed_point_smooth(
            corner_contraction, 2, DetectionConfig(seed=1, max_samples=600))
        assert report.confirmed and report.samples_used == 270
        # the hull is solved only at the boundaries whose block broke the
        # cached separator (the other 87 boundaries up to 270 were
        # skipped), and the last of these solves confirms
        assert calls == [3, 201, 270]

    def test_infinite_residual_is_a_domain_error(self):
        # the inf never reaches the hull certificate's NNLS solve: the detector
        # raises one error naming the map's values, not numpy's
        def blows_up(X):
            out = 0.9 * X
            out[2:] = np.inf
            return out

        with pytest.raises(DomainError, match="^map values must be finite$"):
            detect_fixed_point_smooth(blows_up, 2, DetectionConfig(seed=0))

    def test_iteration_limit_leaves_the_run_undetermined(self, monkeypatch):
        # an unsettled solve neither confirms nor separates, so every
        # boundary is solved again, and no path confirms without a solve
        from coneglow import illumination

        def stuck(A, b):
            raise RuntimeError("Maximum number of iterations reached.")

        monkeypatch.setattr(illumination, "nnls", stuck)
        cert = illumination.interior_hull_certificate([(1.0, 0.0), (2.0, 1.0)])
        assert (cert.inside, cert.separator) == (False, None)
        assert np.isnan(cert.epsilon)
        report = detect_fixed_point_smooth(corner_contraction, 2,
                                           DetectionConfig(seed=1, max_samples=600))
        assert (report.confirmed, report.samples_used) == (False, 600)

    def test_rank_deficient_residuals_need_no_lp(self, monkeypatch):
        # a rotation about the z-axis leaves residuals without a z-component:
        # the first NNLS solve finds no separator, the certificate answers
        # with the null vector e_3 instead, and it holds for every later block
        from coneglow import illumination

        calls = []
        solve = illumination.nnls
        monkeypatch.setattr(illumination, "nnls",
                            lambda *args: calls.append("nnls") or solve(*args))
        Z = np.array([[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
        report = detect_fixed_point_smooth(lambda X: X @ Z.T, 3,
                                           DetectionConfig(seed=0, max_samples=3000))
        assert (report.confirmed, report.samples_used) == (False, 3000)
        assert calls == ["nnls"]

    def test_projections_without_a_fixed_point_never_confirm(self, monkeypatch):
        # an orthogonal projection A is nonexpansive; with b off the range of
        # I - A by 1e-10 to 1e-6 it has no fixed point, and its residuals lie
        # on an affine subspace that close to 0.  No run may confirm, and the
        # separators found hold for all but a few n+1 blocks
        solve = detector.interior_hull_certificate
        calls = []
        monkeypatch.setattr(detector, "interior_hull_certificate",
                            lambda V: calls.append(len(V)) or solve(V))
        rng = np.random.default_rng(2024)
        solves = []
        for n in (2, 3, 4):
            for seed in range(24):
                Q = np.linalg.qr(rng.normal(size=(n, n)))[0][:, :rng.integers(1, n)]
                A = Q @ Q.T
                b = rng.uniform(-1.0, 1.0, n)
                b += 10.0 ** rng.uniform(-10.0, -6.0) * Q[:, 0] - Q @ (Q.T @ b)
                calls.clear()
                report = detect_fixed_point_smooth(
                    lambda X: X @ A.T + b, n, DetectionConfig(seed=seed, max_samples=2000))
                assert (report.confirmed, report.samples_used) == (False, 2000)
                solves.append(len(calls))
        assert max(solves) <= 5

    def test_far_projection_keeps_its_separator(self, monkeypatch):
        # the projection onto the diagonal, offset 1e-12 off the range of
        # I - A, in a box of radius 1e8: f(x) - x cancels about 1e-8 of
        # rounding, so a late residual misses the cached separator by 5e-9.
        # The slack counts the box radius, so that separator holds for the
        # whole default budget; with a slack of the residual's size alone,
        # every later block re-solved the hull over all residuals so far
        solve = detector.interior_hull_certificate
        calls = []
        monkeypatch.setattr(detector, "interior_hull_certificate",
                            lambda V: calls.append(len(V)) or solve(V))
        A = np.full((2, 2), 0.5)
        b = np.array([1.0, -0.999999999999])
        start = time.perf_counter()
        report = detect_fixed_point_smooth(lambda X: X @ A.T + b, 2,
                                           DetectionConfig(box_radius=1e8))
        assert time.perf_counter() - start < 5.0
        assert (report.confirmed, report.samples_used) == (False, 10 ** 5)
        assert len(calls) <= 2


def _partial_meansum6():
    # two means per coordinate on two-column supports, one of each exponent class
    exponents = (np.inf, -np.inf, 0.0, 1.0, -1.0, 3.0)
    rows = []
    for i in range(6):
        near, far = np.zeros(6), np.zeros(6)
        near[[i, (i + 1) % 6]] = 0.5
        far[[i, (i + 3) % 6]] = [0.25, 0.75]
        rows.append((MeanTerm(exponents[i], near, 1.0 + 0.1 * i),
                     MeanTerm(exponents[(i + 2) % 6], far, 0.5)))
    return MeanSumMap(tuple(rows))


def _circulant12():
    # a positive 12x12 circulant, entries 1..12
    k = np.arange(12)
    return MatrixMap(1.0 + (k[None, :] - k[:, None]) % 12)


_EIGEN_SPECS = {
    "schoen": schoen_composition,
    "triangle_0": lambda: TriangleMap(0.0),
    "triangle_1_6": lambda: TriangleMap(1 / 6),
    "triangle_1_3": lambda: TriangleMap(1 / 3),
    "meansum_mixed": mixed_meansum,
    "meansum_partial6": _partial_meansum6,
    "circulant12": _circulant12,
}


def _pinned_run(kind, name, seed):
    if kind == "eigenvector":
        # the meansum maps need up to about 8000 samples to confirm; the
        # unbounded triangle c = 0 spends a 3000-sample budget
        budget = 3000 if name == "triangle_0" else 10_000
        config = DetectionConfig(seed=seed, max_samples=budget)
        return detect_eigenvector(_EIGEN_SPECS[name](), config)
    config = DetectionConfig(seed=seed, max_samples=3000)
    if kind == "sup":
        return detect_fixed_point_sup(lambda X: 0.5 * X + 1.0, 3, config)
    f, n = {
        "quarter_turn": (lambda X: X @ QUARTER_TURN.T, 2),
        "rotoreflection": (lambda X: X @ ROTOREFLECTION.T, 3),
        "sin_n2": (lambda X: np.sin(X) + 0.3 * X, 2),
        "sin_n3": (lambda X: np.sin(X) + 0.3 * X, 3),
        "corner": (corner_contraction, 2),
        "translation": (lambda X: X + np.array([0.5, 1.0]), 2),
    }[name]
    return detect_fixed_point_smooth(f, n, config)


# (samples_used, subsets_covered) of seeded runs, recorded before the three
# detectors shared one sampling loop (the meansum rows: before meansum
# terms were evaluated in groups; the triangle c = 0 and c = 1/3 and the
# circulant rows: before the rank-major mask code); integers, so a last-ulp
# difference between NumPy builds cannot move them
PINNED = {
    ("eigenvector", "schoen", 0): (19, 14),
    ("eigenvector", "schoen", 1): (10, 14),
    ("eigenvector", "schoen", 2): (15, 14),
    ("eigenvector", "schoen", 3): (24, 14),
    ("eigenvector", "schoen", 4): (22, 14),
    ("eigenvector", "triangle_0", 0): (3000, 3),
    ("eigenvector", "triangle_0", 1): (3000, 3),
    ("eigenvector", "triangle_0", 2): (3000, 3),
    ("eigenvector", "triangle_1_6", 0): (10, 6),
    ("eigenvector", "triangle_1_6", 1): (4, 6),
    ("eigenvector", "triangle_1_6", 2): (3, 6),
    ("eigenvector", "triangle_1_3", 0): (10, 6),
    ("eigenvector", "triangle_1_3", 1): (4, 6),
    ("eigenvector", "triangle_1_3", 2): (3, 6),
    ("eigenvector", "meansum_mixed", 0): (5379, 14),
    ("eigenvector", "meansum_mixed", 1): (8078, 14),
    ("eigenvector", "meansum_mixed", 2): (1143, 14),
    ("eigenvector", "meansum_partial6", 0): (5875, 62),
    ("eigenvector", "meansum_partial6", 1): (3132, 62),
    ("eigenvector", "meansum_partial6", 2): (7860, 62),
    ("eigenvector", "circulant12", 0): (10000, 4093),
    ("eigenvector", "circulant12", 1): (9850, 4094),
    ("eigenvector", "circulant12", 2): (9798, 4094),
    ("sup", "half_plus_one_n3", 0): (41, 8),
    ("sup", "half_plus_one_n3", 1): (9, 8),
    ("sup", "half_plus_one_n3", 2): (15, 8),
    ("smooth", "quarter_turn", 0): (3, 0),
    ("smooth", "quarter_turn", 1): (6, 0),
    ("smooth", "quarter_turn", 2): (3, 0),
    ("smooth", "rotoreflection", 0): (8, 0),
    ("smooth", "rotoreflection", 1): (8, 0),
    ("smooth", "rotoreflection", 2): (12, 0),
    ("smooth", "sin_n2", 0): (3, 0),
    ("smooth", "sin_n2", 1): (6, 0),
    ("smooth", "sin_n2", 2): (3, 0),
    ("smooth", "sin_n3", 0): (8, 0),
    ("smooth", "sin_n3", 1): (8, 0),
    ("smooth", "sin_n3", 2): (12, 0),
    ("smooth", "corner", 0): (15, 0),
    ("smooth", "corner", 1): (270, 0),
    ("smooth", "corner", 2): (114, 0),
    ("smooth", "translation", 0): (3000, 0),
}


# the pinned runs that end with their budget spent
_UNDETERMINED = {("smooth", "translation", 0), ("eigenvector", "circulant12", 0),
                 *(("eigenvector", "triangle_0", seed) for seed in range(3))}


@pytest.mark.parametrize("case", sorted(PINNED), ids=lambda c: "-".join(map(str, c)))
def test_pinned_results(case):
    report = _pinned_run(*case)
    assert (report.samples_used, report.subsets_covered) == PINNED[case]
    assert report.confirmed == (case not in _UNDETERMINED)


def _translation(X):
    return X + np.array([1.0, -0.5, 2.0])[: X.shape[1]]


def _contraction(X):
    return 0.5 * X + 1.0


class TestVerify:
    # a confirmed report verifies against its own map, returning the
    # checked points, and is refused against a map it does not certify
    def test_sup(self):
        report = detect_fixed_point_sup(_contraction, 3, DetectionConfig(seed=0))
        points = report.verify(_contraction)
        assert np.array_equal(points, [report.witnesses[m] for m in sorted(report.witnesses)])
        with pytest.raises(DomainError, match="does not realize"):
            report.verify(_translation)

    def test_eigenvector(self):
        report = detect_eigenvector(TriangleMap(1 / 6), DetectionConfig(seed=0))
        points = report.verify(lambda X: eval_map(TriangleMap(1 / 6), X))
        assert points.shape == (6, 3)
        with pytest.raises(DomainError, match="does not realize"):
            report.verify(lambda X: eval_map(TriangleMap(0.0), X))

    def test_smooth(self):
        report = detect_fixed_point_smooth(_contraction, 2, DetectionConfig(seed=0))
        assert report.verify(_contraction) is report.probe_points
        with pytest.raises(DomainError, match="not interior"):
            report.verify(_translation)

    def test_round_trip_and_undetermined(self):
        report = detect_fixed_point_sup(_contraction, 2, DetectionConfig(seed=1))
        clone = DetectionReport.from_json_dict(report.to_json_dict())
        assert np.array_equal(clone.verify(_contraction), report.verify(_contraction))
        undetermined = detect_fixed_point_sup(
            _translation, 2, DetectionConfig(seed=1, max_samples=100))
        with pytest.raises(DomainError, match="not confirmed"):
            undetermined.verify(_translation)

    def test_map_must_keep_the_batch_shape(self):
        report = detect_fixed_point_sup(_contraction, 2, DetectionConfig(seed=0))
        with pytest.raises(DomainError, match="batch shape"):
            report.verify(lambda W: W[:, :1])

    @pytest.mark.parametrize("value", [0.0, -1.0, np.inf, np.nan])
    def test_cone_map_value_must_be_positive_and_finite(self, value):
        report = detect_eigenvector(TriangleMap(1 / 6), DetectionConfig(seed=0))

        def spoiled(X):
            out = eval_map(TriangleMap(1 / 6), X)
            out[-1, 0] = value
            return out

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match="^map values must be positive and finite$"):
                report.verify(spoiled)

    def test_smooth_report_beyond_the_mask_cap_round_trips(self):
        f = lambda X: 0.5 * X + 1.0  # noqa: E731
        report = detect_fixed_point_smooth(f, 25, DetectionConfig(seed=0))
        assert report.confirmed
        clone = DetectionReport.from_json_dict(json.loads(report.to_json_bytes()))
        assert clone.to_json_bytes() == report.to_json_bytes()
        assert clone.verify(f) is clone.probe_points

    @pytest.mark.parametrize("kind", ["fixed_point_sup", "eigenvector"])
    def test_mask_report_beyond_the_cap_is_refused(self, kind):
        doc = detect_fixed_point_sup(_contraction, 2, DetectionConfig(seed=0)).to_json_dict()
        doc.update(kind=kind, dimension=25)
        with pytest.raises(DomainError, match="capped at n <= 24"):
            DetectionReport.from_json_dict(doc)


def _handmade(kind, n, witnesses=(), probe=None, samples=3):
    return DetectionReport(
        kind=kind, status=DetectionStatus.CONFIRMED, dimension=n, samples_used=samples,
        config=DetectionConfig(seed=0), witnesses={mask: np.asarray(point)
                                                   for mask, point in witnesses},
        probe_points=None if probe is None else np.asarray(probe))


def _writer_cases():
    tiny = 5e-324
    return {
        "schoen": lambda: detect_eigenvector(schoen_composition(), DetectionConfig(seed=7)),
        "n1-no-witnesses": lambda: detect_eigenvector(MatrixMap([[3.0]]), DetectionConfig()),
        "eigen-undetermined": lambda: detect_eigenvector(
            TriangleMap(0.0), DetectionConfig(max_samples=2000)),
        "sup-empty-subset": lambda: detect_fixed_point_sup(_contraction, 3, DetectionConfig()),
        "sup-undetermined": lambda: detect_fixed_point_sup(
            _translation, 2, DetectionConfig(max_samples=100)),
        "smooth": lambda: detect_fixed_point_smooth(_contraction, 2, DetectionConfig(seed=4)),
        "smooth-n1": lambda: detect_fixed_point_smooth(_contraction, 1, DetectionConfig()),
        "smooth-undetermined": lambda: detect_fixed_point_smooth(
            _translation, 2, DetectionConfig(max_samples=100)),
        "numpy-config": lambda: detect_fixed_point_sup(_contraction, np.int64(2), DetectionConfig(
            box_radius=np.float32(2), gap_tol=np.float64(1e-9), max_samples=np.int64(40),
            seed=np.int64(3))),
        "signed-zero-subnormal": lambda: _handmade(
            "fixed_point_sup", 2, [(0, [-0.0, tiny]), (3, [2.2250738585072014e-308 / 3, -0.0])]),
        "smooth-signed-zero-subnormal": lambda: _handmade(
            "fixed_point_smooth", 2, probe=[[-0.0, tiny], [1e-310, -1.5e300], [0.0, -tiny]]),
        "non-finite": lambda: _handmade("fixed_point_sup", 2, [(1, [np.nan, np.inf])]),
        "non-finite-probe": lambda: _handmade("fixed_point_smooth", 1,
                                              probe=[[1.0], [-np.inf]], samples=2),
        "int-points": lambda: _handmade("fixed_point_sup", 2, [(2, np.array([1, -2]))]),
    }


class TestReportBytes:
    # the report writer lays out witnesses and probe rows itself, and gives
    # the bytes of json.dumps(..., indent=2) for every kind and edge case
    @pytest.mark.parametrize("case", list(_writer_cases()))
    def test_writer_matches_json_dumps(self, case):
        report = _writer_cases()[case]()
        assert report.to_json_bytes() == (json.dumps(report.to_json_dict(), indent=2)
                                          + "\n").encode()
        if case == "sup-empty-subset":
            assert b'"subset": []' in report.to_json_bytes()
        if case == "n1-no-witnesses":
            assert b'"witnesses": []' in report.to_json_bytes()

    @staticmethod
    def _schoen_doc():
        return json.loads(detect_eigenvector(schoen_composition(),
                                             DetectionConfig(seed=7)).to_json_bytes())

    @pytest.mark.parametrize("point", [[[1.0, 2.0], [3.0]], [1.0, [2.0, 3.0], 1.0, 1.0]],
                             ids=["ragged", "ragged-inner"])
    def test_reader_names_a_ragged_point(self, point):
        # the message of the point on its own, not of all the points together
        with pytest.raises(ValueError) as numpy_error:
            np.asarray(point, dtype=float)
        doc = self._schoen_doc()
        doc["witnesses"][2]["point"] = point
        message = f"witness point must be real and share one length ({numpy_error.value})"
        with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
            DetectionReport.from_json_dict(doc)

    @pytest.mark.parametrize("edits, message", [
        ({1: {"point": [[1.0, 2.0, 3.0, 4.0]]}}, "witness points must have shape (4,)"),
        ({3: {"point": [1.0, 2.0, 3.0]}}, "witness points must have shape (4,)"),
        ({5: {"point": ["1.0", 2.0, 3.0, 4.0]}}, "witness point: expected a number, not '1.0'"),
        ({5: {"point": "abcd"}}, "witness point: expected a number, not 'abcd'"),
        ({1: {"point": [1.0]}, 2: {"subset": [9]}}, "witness points must have shape (4,)"),
        ({2: {"subset": [9]}, 3: {"point": [1.0]}}, "subset [9] must list distinct indices in 0..3"),
        ({k: {"point": [1.0, 2.0, 3.0]} for k in range(14)}, "witness points must have shape (4,)"),
        ({k: {"point": [[1.0, 2.0, 3.0, 4.0]]} for k in range(14)},
         "witness points must have shape (4,)"),
    ], ids=["nested", "short", "string-entry", "string-point", "point-first", "subset-first",
            "all-short", "all-nested"])
    def test_reader_refusals_name_the_first_fault(self, edits, message):
        doc = self._schoen_doc()
        for k, fields in edits.items():
            doc["witnesses"][k].update(fields)
        with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
            DetectionReport.from_json_dict(doc)

    def test_reader_reads_the_points_written(self):
        for case in ("schoen", "sup-empty-subset", "numpy-config", "signed-zero-subnormal"):
            report = _writer_cases()[case]()
            clone = DetectionReport.from_json_dict(json.loads(report.to_json_bytes()))
            assert clone.to_json_bytes() == report.to_json_bytes()
            assert all(clone.witnesses[m].tobytes() == report.witnesses[m].tobytes()
                       for m in report.witnesses)


class TestAdversarial:
    def test_construction_example(self):
        adv = build_adversarial_euclid([[1.0, 0.0]], c=1.0)
        assert np.allclose(adv.phi, [-1.0, 0.0])
        assert np.allclose(adv.z, [-1.0, 0.0])
        assert np.allclose(adv(np.array([-1.0, 0.0])), [0.0, 0.0])

    def test_iterates_run_away(self):
        adv = build_adversarial_euclid([[1.0, 0.0]], c=1.0)
        x = np.zeros(2)
        for k in range(1, 11):
            x = adv(x)
            assert np.allclose(x, -k * adv.c * adv.z, atol=1e-12)

    def test_nonexpansive(self):
        rng = np.random.default_rng(23)
        adv = build_adversarial_euclid(rng.normal(size=(2, 3)), c=0.7)
        for _ in range(300):
            x, y = rng.normal(size=(2, 3)) * 10
            lhs = float(np.linalg.norm(adv(x) - adv(y)))
            assert lhs <= float(np.linalg.norm(x - y)) + 1e-12

    def test_residuals_at_base_points(self):
        rng = np.random.default_rng(24)
        V = rng.normal(size=(3, 4))
        adv = build_adversarial_euclid(V, c=2.0)
        for v, w in zip(V, adv.base_points):
            assert np.allclose(adv(w) - w, v, atol=1e-9)

    def test_never_confirmed(self):
        adv = build_adversarial_euclid([[1.0, 0.0]], c=1.0)
        for seed in range(3):
            report = detect_fixed_point_smooth(
                adv, 2, DetectionConfig(seed=seed, max_samples=20000))
            assert not report.confirmed

    def test_too_many_directions(self):
        with pytest.raises(DomainError):
            build_adversarial_euclid([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]], c=1.0)

    def test_inconsistent_base_points(self):
        # with w1 = -w2 the system <phi, w> = c > 0 has no solution
        with pytest.raises(DomainError):
            build_adversarial_euclid([[1.0, 0.0, 0.0], [-1.0, 0.0, 0.0]], c=1.0)

    @pytest.mark.parametrize("c", [0, -1.0, np.inf, np.nan, 10 ** 400, -(10 ** 400)])
    def test_bad_level(self, c):
        # an int past the float range is refused, not an OverflowError
        with pytest.raises(DomainError, match="the level c must be positive and finite"):
            build_adversarial_euclid([[1.0, 0.0]], c)

    @pytest.mark.parametrize("c, shown", [([1.0], "[1.0]"), (np.ones(1), "array([1.])")])
    def test_level_is_one_number(self, c, shown):
        with pytest.raises(DomainError, match=f"^{re.escape(f'level c: expected a number, not {shown}')}$"):
            build_adversarial_euclid([[1.0, 0.0]], c)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert build_adversarial_euclid([[1.0, 0.0]], np.float32(0.5)).c == 0.5

    def test_int_level_in_float_range(self):
        assert build_adversarial_euclid([[1.0, 0.0]], 10 ** 30).c == 1e30

    def test_identities(self):
        # what the builder establishes, and the map now trusts:
        # <phi, w_i> = c, <phi, z> = 1 and |phi||z| = 1
        rng = np.random.default_rng(25)
        for n in range(1, 7):
            for m in range(1, n + 1):
                for _ in range(10):
                    V = rng.normal(size=(m, n)) * 10.0 ** rng.uniform(-3, 3)
                    c = float(rng.uniform(0.1, 5.0))
                    _assert_fixture(build_adversarial_euclid(V, c), c)

    def test_pinned_instance(self):
        # phi, z and f as recorded before the map became a private record
        adv = build_adversarial_euclid([[1.0, 2.0, -0.5], [0.25, -1.0, 3.0]], c=0.75)
        np.testing.assert_allclose(
            adv.phi, [-0.2739371534195934, -0.321626617375231, -0.33438077634011093],
            rtol=1e-12)
        np.testing.assert_allclose(
            adv.z, [-0.9436485195797518, -1.1079274116523399, -1.151862464183381],
            rtol=1e-12)
        assert adv.c == 0.75
        assert np.array_equal(adv.base_points, [[-1.0, -2.0, 0.5], [-0.25, 1.0, -3.0]])
        P = np.array([[1.0, -2.0, 0.5], [3.0, 0.0, -1.0]])
        fP = [[0.5170007785645814, 0.6070049626871601, 0.6310758491385475],
              [1.167699632962412, 1.3709833747331959, 1.4253499568346848]]
        assert adv(P).shape == (2, 3)
        np.testing.assert_allclose(adv(P), fP, rtol=1e-12)
        assert adv(P[1]).shape == (3,)
        np.testing.assert_allclose(adv(P[1]), fP[1], rtol=1e-12)

    def test_single_direction(self):
        one = build_adversarial_euclid([3.0, 4.0], c=1.0)
        assert one.base_points.shape == (1, 2)
        assert np.array_equal(one.phi, build_adversarial_euclid([[3.0, 4.0]], c=1.0).phi)
        _assert_fixture(one, 1.0)

    @pytest.mark.parametrize("directions", [
        [[np.inf, 0.0]], [[np.nan, 1.0]], [[1.0, 2.0], [3.0]], [["a", "b"]], [], [[]],
        *(np.random.default_rng(26).normal(size=(2, 3)) * scale
          for scale in (1e300, 1e160, 1e150, 1e-150, 1e-160, 1e-300)),
    ], ids=["inf", "nan", "ragged", "non-numeric", "empty", "empty-row",
            "1e300", "1e160", "1e150", "1e-150", "1e-160", "1e-300"])
    def test_bad_directions(self, directions, capfd):
        # one DomainError or a valid map, and nothing on stderr: no LAPACK
        # complaint about non-finite input, no NumPy warning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            try:
                adv = build_adversarial_euclid(directions, c=1.0)
            except DomainError:
                pass
            else:
                _assert_fixture(adv, 1.0)
        assert capfd.readouterr().err == ""


def _assert_fixture(adv, c):
    gap = np.max(np.abs(adv.base_points @ adv.phi - c))
    assert gap <= 1e-9 * max(1.0, c)
    assert abs(adv.phi @ adv.z - 1.0) <= 1e-9
    assert abs(np.linalg.norm(adv.phi) * np.linalg.norm(adv.z) - 1.0) <= 1e-9
