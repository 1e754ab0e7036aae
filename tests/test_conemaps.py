import json
import math
import re
from fractions import Fraction

import numpy as np
import pytest

from coneglow import (
    ComposeMap,
    DomainError,
    MapSpec,
    MatrixMap,
    MeanSumMap,
    MeanTerm,
    ScaleMap,
    SchoenMap,
    SumMap,
    TriangleMap,
    eval_map,
    exp_coords,
    hilbert_metric,
    log_coords,
    map_spec_from_dict,
    power_iteration,
)
from oracles import (
    SPECS, is_order_preserving_homogeneous_probe, linear_oracle, normalized_map,
    power_iteration_reference, schoen_composition, schoen_reference, triangle_reference,
)


def mixed_meansum():
    return MeanSumMap((
        (MeanTerm(-1.0, [0.5, 0.5, 0.0, 0.0], 1.0),
         MeanTerm(2.0, [0.25, 0.25, 0.25, 0.25], 0.5)),
        (MeanTerm(0.0, [0.4, 0.3, 0.2, 0.1], 2.0),),
        (MeanTerm(math.inf, [0.5, 0.0, 0.5, 0.0], 1.0),),
        (MeanTerm(-math.inf, [0.0, 0.5, 0.0, 0.5], 1.5),),
    ))


def _builtin_specs():
    rng = np.random.default_rng(12)
    meansum = mixed_meansum()
    matrix = MatrixMap(rng.uniform(0.05, 2.0, (4, 4)))
    return [
        matrix,
        meansum,
        schoen_composition(),
        SumMap((meansum, matrix)),
        ScaleMap(2.5, meansum),
        ComposeMap((meansum, matrix)),
    ]


class TestEval:
    def test_harmonic_pair_values(self):
        spec = SchoenMap(np.array([
            [1.0, 1.0, 0.0, 0.0],
            [1.0, 1.0, 0.0, 0.0],
            [1.0, 1.0, 0.0, 0.0],
            [1.0, 1.0, 0.0, 0.0],
        ]))
        # rows 1-2 add theta(x1, x2), rows 3-4 add theta(x3, x4)
        out = eval_map(spec, [1.0, 1.0, 2.0, 2.0])
        assert out[0] == pytest.approx(1.0 + 0.5)   # theta(1,1) = 1/2
        assert out[2] == pytest.approx(2.0 + 1.0)   # theta(2,2) = 1


    def test_triangle_at_barycenter(self):
        for c in (0.0, 1 / 6, 1 / 3):
            assert np.allclose(eval_map(TriangleMap(c), [1, 1, 1]), [1, 1, 1])

    def test_matrix_example(self):
        assert np.array_equal(eval_map(MatrixMap([[1, 1], [1, 1]]), [2, 1]), [3, 3])

    def test_triangle_fixed_direction(self):
        c = 1 / 6
        x = np.array([1 - 2 * c, c, c])
        assert np.allclose(eval_map(TriangleMap(c), x), x, atol=1e-15)

    def test_triangle_tie_branches_agree(self):
        # at ties of the maximal coordinate every applicable branch gives
        # the same value; check against the branch formulas directly
        def mu(x, i, c):
            others = [x[j] for j in range(3) if j != i]
            return max(max(others), c * sum(x))

        def branch(x, i, c):
            out = [mu(x, i, c)] * 3
            out[i] = x[i]
            return out

        for c in (0.0, 0.2, 1 / 3):
            spec = TriangleMap(c)
            for x in ([2.0, 2.0, 1.0], [3.0, 3.0, 3.0], [1.0, 2.0, 2.0]):
                got = eval_map(spec, x)
                maxima = [i for i in range(3) if x[i] == max(x)]
                for i in maxima:
                    assert np.allclose(got, branch(x, i, c), atol=0)

    def test_batch_matches_single(self):
        rng = np.random.default_rng(13)
        for spec in _builtin_specs():
            X = np.exp(rng.uniform(-3, 3, (20, spec.dim)))
            batch = eval_map(spec, X)
            for i in range(20):
                assert np.allclose(batch[i], eval_map(spec, X[i]), rtol=1e-14)

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            eval_map(MatrixMap([[1.0]]), [-1.0])
        with pytest.raises(DomainError):
            eval_map(MatrixMap([[1.0, 1.0], [1.0, 1.0]]), [1.0, 2.0, 3.0])

    def test_overflow_reported(self):
        spec = MatrixMap([[1e300, 1e300], [1e300, 1e300]])
        with pytest.raises(OverflowError):
            eval_map(spec, [1e10, 1e10])

    def test_schoen_survives_huge_entry_ranges(self):
        # harmonic couplings are computed through reciprocals, so inputs
        # spanning e**(+-300) stay inside the floating range
        spec = schoen_composition()
        x = np.exp(np.array([300.0, -300.0, 150.0, 0.0]))
        out = eval_map(spec, x)
        assert np.all(np.isfinite(out))
        assert np.all(out > 0)

    @pytest.mark.parametrize("m", [1, 32, 4096])
    def test_schoen_matches_per_pair_reference(self, m):
        # the gathered kernel gives the per-pair form bit for bit
        rng = np.random.default_rng(45)
        factors = [child.coefficients for child in schoen_composition().children]
        for _ in range(6):
            C = rng.uniform(0.5, 13.0, (4, 4))
            C[:, 1:] *= rng.random((4, 3)) < 0.6  # some couplings are zero
            C[np.arange(4), 1 + rng.integers(3, size=4)] += 1.0
            factors.append(C)
        for C in factors:
            X = np.exp(rng.uniform(-690.0, 690.0, (m, 4)))
            assert np.array_equal(SchoenMap(C)._eval_batch(X), schoen_reference(C, X))

    @pytest.mark.parametrize("c", [0.0, 1 / 6, 1 / 3, 0.1])
    @pytest.mark.parametrize("m", [1, 32, 4096])
    def test_triangle_matches_argmax_reference(self, c, m):
        # bit for bit at ties for the maximum, and with c * sum x rounded as
        # np.sum rounds it
        rng = np.random.default_rng(46)
        wide = np.exp(rng.uniform(-690.0, 690.0, (m, 3)))
        close = 1.0 + rng.uniform(0.0, 1e-3, (m, 3))  # c * sum x decides mu
        ties = rng.integers(1, 4, (m, 3)).astype(float)  # two- and three-way
        for X in (wide, close, ties, ties * np.exp(rng.uniform(-690.0, 690.0, (m, 1)))):
            assert np.array_equal(TriangleMap(c)._eval_batch(X), triangle_reference(c, X))

    def test_mean_sum_survives_huge_entry_ranges(self):
        import math as _math
        rows = (
            (MeanTerm(-2.0, [0.5, 0.5, 0.0], 1.0),),
            (MeanTerm(3.0, [0.2, 0.3, 0.5], 1.0),),
            (MeanTerm(0.0, [1 / 3, 1 / 3, 1 / 3], 2.0),),
        )
        spec = MeanSumMap(rows)
        x = np.exp(np.array([250.0, -250.0, 10.0]))
        out = eval_map(spec, x)
        assert np.all(np.isfinite(out))
        assert np.all(out > 0)


def _point_cases():
    """``(spec, points)`` per map kind, with the edge cases of each kernel."""
    rng = np.random.default_rng(47)
    n = 5

    def term(r):  # a random support, often partial
        sigma = np.zeros(n)
        support = rng.choice(n, size=int(rng.integers(1, n + 1)), replace=False)
        sigma[support] = rng.dirichlet(np.ones(support.size))
        return MeanTerm(r, sigma / sigma.sum(), float(rng.uniform(0.5, 2.0)))

    exponents = (0.0, 1.0, -1.0, 2.0, math.inf, -math.inf)
    meansum = MeanSumMap(tuple(tuple(term(r) for r in exponents) for _ in range(n)))
    matrix = MatrixMap(rng.uniform(0.0, 2.0, (n, n)) * (rng.random((n, n)) < 0.6) + np.eye(n))
    wide = np.exp(rng.uniform(-5.0, 5.0, (40, n)))
    schoen = schoen_composition()
    C = rng.uniform(0.5, 13.0, (4, 4))
    C[:, 1:] *= rng.random((4, 3)) < 0.6  # some couplings are zero
    C[np.arange(4), 1 + rng.integers(3, size=4)] += 1.0
    near_700 = np.exp(np.vstack([rng.uniform(-700.0, 700.0, (40, 4)),
                                 np.array([[700.0, -700.0, 700.0, -700.0],
                                           [-700.0, 700.0, 700.0, -700.0]])]))
    ties = np.vstack([rng.integers(1, 4, (30, 3)).astype(float), np.ones((1, 3))])
    return {
        "matrix": [(matrix, wide)],
        "meansum": [(meansum, wide), (meansum, np.exp(rng.uniform(-300.0, 300.0, (40, n))))],
        "schoen": [(SchoenMap(C), near_700)]
        + [(child, near_700) for child in schoen.children],
        "triangle": [(TriangleMap(c), X) for c in (0.0, 1 / 6, 0.25, 1 / 3)
                     for X in (ties, ties * np.exp(rng.uniform(-690.0, 690.0, (31, 1))))],
        "compose": [(schoen, wide[:, :4]), (ComposeMap((meansum, matrix)), wide)],
        "sum": [(SumMap((meansum, matrix)), wide)],
        "scale": [(ScaleMap(2.5, schoen.children[0]), wide[:, :4])],
    }


class TestPointKernels:
    """A kernel takes a point as it is and gives the one-row batch's bits."""

    @pytest.mark.parametrize("kind", list(_point_cases()))
    def test_point_matches_one_row_batch(self, kind):
        for spec, X in _point_cases()[kind]:
            for x in X:
                point = spec._eval_batch(x)
                assert point.shape == x.shape
                assert np.array_equal(point, spec._eval_batch(x[None, :])[0])
                got = eval_map(spec, x)
                assert got.shape == x.shape
                assert np.array_equal(got, eval_map(spec, x[None, :])[0])


def _reference_mean_sum(rows, X):
    """Each ``(r, sigma, coeff)`` term on its own, as a shifted log-sum-exp."""
    out = np.zeros_like(X)
    for i, row in enumerate(rows):
        for r, sigma, coeff in row:
            supp = np.asarray(sigma) > 0.0
            sub, w = X[:, supp], np.asarray(sigma)[supp]
            if r == math.inf:
                val = sub.max(axis=1)
            elif r == -math.inf:
                val = sub.min(axis=1)
            elif r == 0.0:
                val = np.exp(np.log(sub) @ w)
            else:
                z = r * np.log(sub) + np.log(w)
                top = z.max(axis=1)
                val = np.exp((top + np.log(np.exp(z - top[:, None]).sum(axis=1))) / r)
            out[:, i] += coeff * val
    return out


class TestGroupedMeanSum:
    def test_matches_per_term_reference(self):
        rng = np.random.default_rng(31)
        n = 6
        exponents = (math.inf, -math.inf, 0.0, 1.0, -1.0, 0.5, -3.0, 2.0)
        shared = (2.0, [0.0, 0.3, 0.0, 0.7, 0.0, 0.0])
        rows = []
        for i in range(n):
            row = []
            for _ in range(2):
                supp = rng.choice(n, size=int(rng.integers(1, n + 1)), replace=False)
                sigma = np.zeros(n)
                sigma[supp] = rng.dirichlet(np.ones(supp.size))
                sigma /= sigma.sum()
                row.append((exponents[int(rng.integers(len(exponents)))], sigma,
                            float(rng.uniform(0.5, 2.0))))
            if i % 2 == 0:  # one (r, support) group spread over three coordinates
                row.append((shared[0], shared[1], 0.5 + i))
            rows.append(row)
        # r = 5 on a support that leaves out column 0, the largest of every row
        rows[5].append((5.0, [0.0, 0.0, 0.5, 0.0, 0.25, 0.25], 1.0))
        spec = MeanSumMap(tuple(tuple(MeanTerm(*t) for t in row) for row in rows))
        logs = rng.uniform(-250.0, 150.0, (300, n))
        logs[:, 0] = 250.0
        X = np.exp(logs)
        got = eval_map(spec, X)
        want = _reference_mean_sum(rows, X)
        assert np.max(np.abs(np.log(got) - np.log(want))) <= 1e-12

    def test_tiny_exponent_is_geometric_mean(self):
        # a power mean tends to the weighted geometric mean as r -> 0
        x = np.array([2.0, 8.0, 1.0])
        geometric = 2.0 ** 0.5 * 8.0 ** 0.25
        for r in (1e-13, -1e-13, 1e-17, -1e-17, 1e-300, -1e-300, 5e-324, -5e-324):
            spec = MeanSumMap(((MeanTerm(r, [0.5, 0.25, 0.25], 1.0),),) * 3)
            assert np.all(np.abs(eval_map(spec, x) / geometric - 1.0) <= 1e-12)

    def test_tiny_weight_on_extreme_column(self):
        # after the shift the other column's term is negligible beside 1,
        # so the mean rests on the extreme column's weight alone
        for r, logs in ((1.0, [40.0, 0.0]), (5.0, [40.0, 0.0]),
                        (-1.0, [-40.0, 0.0]), (2.0, [700.0, -700.0])):
            for sigma in ([1e-17, 1.0], [1e-12, 1.0 - 1e-12]):
                rows = [[(r, sigma, 1.0)]] * 2
                spec = MeanSumMap(tuple(tuple(MeanTerm(*t) for t in row) for row in rows))
                X = np.exp(np.array([logs]))
                got = eval_map(spec, X)
                want = _reference_mean_sum(rows, X)
                assert np.max(np.abs(np.log(got) - np.log(want))) <= 1e-12


    def test_unit_exponents_match_exact_sums(self):
        # r = 1 is sum w x and r = -1 is 1 / sum(w / x), within 1e-15 of the
        # exact rational values at entries e**+-700 apart, a subnormal entry
        # and one near the float limit.  Column 0 weighs 1e-3, so a harmonic
        # mean over the subnormal entry is still a normal number
        rng = np.random.default_rng(32)
        n = 6
        rows = []
        for i in range(n):
            sigma = np.concatenate(([1e-3], (1.0 - 1e-3) * rng.dirichlet(np.ones(n - 1))))
            rows.append((1.0 if i % 2 else -1.0, sigma / sigma.sum()))
        spec = MeanSumMap(tuple((MeanTerm(r, sigma, 1.0),) for r, sigma in rows))
        X = np.exp(rng.uniform(-700.0, 700.0, (100, n)))
        X[0, 0] = 1e-310
        X[1, 3] = 1.7e308
        got = eval_map(spec, X)
        assert np.all(np.isfinite(got)) and np.all(got > 0.0)
        for x, values in zip(X, got):
            x = [Fraction(v) for v in x]
            for (r, sigma), value in zip(rows, values):
                terms = [Fraction(w) * v if r == 1.0 else Fraction(w) / v
                         for w, v in zip(sigma, x)]
                exact = sum(terms) if r == 1.0 else 1 / sum(terms)
                assert abs(Fraction(value) / exact - 1) <= 1e-15


def _schoen_ones_but(i, j, value):
    C = np.ones((4, 4))
    C[i, j] = value
    return C


class TestConstructorValidation:
    def test_matrix_zero_row(self):
        with pytest.raises(DomainError):
            MatrixMap([[1.0, 0.0], [0.0, 0.0]])

    def test_matrix_negative_entry(self):
        with pytest.raises(DomainError):
            MatrixMap([[1.0, -0.1], [0.0, 1.0]])

    def test_schoen_needs_positive_diagonal(self):
        C = np.ones((4, 4))
        C[1, 0] = 0.0
        with pytest.raises(DomainError):
            SchoenMap(C)

    def test_schoen_needs_some_coupling(self):
        C = np.ones((4, 4))
        C[2, 1:] = 0.0
        with pytest.raises(DomainError):
            SchoenMap(C)

    def test_triangle_range(self):
        with pytest.raises(DomainError):
            TriangleMap(0.34)
        with pytest.raises(DomainError):
            TriangleMap(-0.01)

    def test_mean_term_sigma(self):
        with pytest.raises(DomainError):
            MeanTerm(1.0, [0.5, 0.6], 1.0)
        with pytest.raises(DomainError):
            MeanTerm(1.0, [0.5, 0.5], -1.0)

    def test_mean_term_coeff_finite(self):
        for coeff in (math.inf, math.nan):
            with pytest.raises(DomainError, match="coefficient"):
                MeanTerm(1.0, [0.5, 0.5], coeff)

    def test_compose_dim_mismatch(self):
        with pytest.raises(DomainError):
            ComposeMap((MatrixMap(np.ones((2, 2))), MatrixMap(np.ones((3, 3)))))

    def test_scale_positive(self):
        with pytest.raises(DomainError):
            ScaleMap(0.0, MatrixMap(np.ones((2, 2))))

    @pytest.mark.parametrize("build, message", [
        (lambda: MeanTerm(1.0, [], 1.0), "sigma must be a nonempty weight vector"),
        (lambda: MeanTerm(1.0, [1.5, -0.5], 1.0), "sigma weights must be finite and nonnegative"),
        (lambda: MeanTerm(1.0, [math.inf, 0.5], 1.0),
         "sigma weights must be finite and nonnegative"),
        (lambda: MeanTerm(math.nan, [0.5, 0.5], 1.0), "mean exponent must not be NaN"),
        (lambda: MatrixMap([[1.0, 1.0]]), "matrix must be square and nonempty"),
        (lambda: MeanSumMap(()), "at least one coordinate is required"),
        (lambda: MeanSumMap(((),)), "each coordinate needs at least one term"),
        (lambda: MeanSumMap(((1.0,),)), "coordinate terms must be MeanTerm"),
        (lambda: MeanSumMap(((MeanTerm(1.0, [0.5, 0.5], 1.0),),)),
         "sigma length must equal the dimension"),
        (lambda: SchoenMap(np.ones((3, 4))), "coefficients must be a finite 4x4 array"),
        (lambda: SchoenMap(_schoen_ones_but(2, 3, math.nan)),
         "coefficients must be a finite 4x4 array"),
        (lambda: SchoenMap(_schoen_ones_but(1, 2, -0.5)),
         "coupling coefficients must be nonnegative"),
        (lambda: ComposeMap(()), "compose needs at least one child"),
        (lambda: SumMap(()), "sum needs at least one child"),
        (lambda: SumMap((MatrixMap(np.ones((2, 2))), MatrixMap(np.ones((3, 3))))),
         "summed maps must share one dimension"),
        (lambda: ComposeMap((MatrixMap(np.ones((2, 2))), "matrix")),
         "compose children must be MapSpec nodes"),
        (lambda: SumMap((lambda X: X,)), "sum children must be MapSpec nodes"),
        (lambda: ScaleMap(2.0, "matrix"), "scale child must be a MapSpec node"),
        (lambda: ComposeMap(5), "compose children must be a sequence of MapSpec nodes"),
        (lambda: SumMap(5), "sum children must be a sequence of MapSpec nodes"),
        (lambda: ComposeMap(MatrixMap(np.ones((2, 2)))),
         "compose children must be a sequence of MapSpec nodes"),
        (lambda: MeanSumMap(5), "meansum terms must be a sequence of coordinates"),
        (lambda: MeanSumMap(((MeanTerm(1.0, [0.5, 0.5], 1.0),), 5)),
         "each coordinate must be a sequence of MeanTerm"),
        (lambda: eval_map(MatrixMap(np.ones((2, 2))), np.ones((1, 1, 2))),
         "expected a vector or a batch of vectors"),
        (lambda: map_spec_from_dict([{"kind": "matrix", "matrix": [[1.0]]}]),
         "map spec nodes must be objects with a 'kind' tag"),
        (lambda: map_spec_from_dict({"kind": "scale", "child": {"kind": "triangle", "c": 0}}),
         "map spec node 'scale' is missing field 'alpha'"),
        # a bool, a string or None where a number belongs is refused, not cast
        (lambda: MeanTerm("abc", [0.5, 0.5], 1.0), "r: expected a number, not 'abc'"),
        (lambda: MeanTerm(True, [0.5, 0.5], 1.0), "r: expected a number, not True"),
        (lambda: MeanTerm(np.True_, [0.5, 0.5], 1.0), "r: expected a number, not np.True_"),
        (lambda: MeanTerm(1.0, [0.5, 0.5], None), "coeff: expected a number, not None"),
        (lambda: MeanTerm(1.0, [0.5, 0.5], True), "coeff: expected a number, not True"),
        (lambda: MeanTerm(1.0, "ab", 1.0), "sigma: expected a number, not 'ab'"),
        (lambda: MeanTerm(1.0, [0.0, True], 1.0), "sigma: expected a number, not True"),
        (lambda: TriangleMap("abc"), "c: expected a number, not 'abc'"),
        (lambda: TriangleMap(False), "c: expected a number, not False"),
        (lambda: ScaleMap("x", MatrixMap(np.ones((2, 2)))), "alpha: expected a number, not 'x'"),
        (lambda: MatrixMap("ab"), "matrix: expected a number, not 'ab'"),
        (lambda: MatrixMap([[1.0, None], [1.0, 1.0]]), "matrix: expected a number, not None"),
        (lambda: SchoenMap("abcd"), "coefficients: expected a number, not 'abcd'"),
        # a scalar field takes one number: no list or array, no int past floats
        (lambda: TriangleMap([0.2]), "c: expected a number, not [0.2]"),
        (lambda: MeanTerm(10 ** 400, [1.0], 1.0), "r: an int of 1329 bits is past the float range"),
        (lambda: MeanTerm(1.0, [1.0], -(10 ** 400)),
         "coeff: an int of 1329 bits is past the float range"),
        (lambda: MeanTerm(1.0, [1.0], np.ones(1)), "coeff: expected a number, not array([1.])"),
        (lambda: ScaleMap((2.0,), MatrixMap(np.ones((2, 2)))), "alpha: expected a number, not (2.0,)"),
    ], ids=["sigma-empty", "sigma-negative", "sigma-inf", "r-nan", "matrix-not-square",
            "meansum-empty", "meansum-empty-row", "meansum-not-term", "meansum-sigma-length",
            "schoen-shape", "schoen-nan", "schoen-negative-coupling", "compose-empty",
            "sum-empty", "sum-dims", "compose-not-node", "sum-not-node", "scale-not-node",
            "compose-int", "sum-int", "compose-one-node", "meansum-int", "meansum-int-row",
            "eval-3d", "json-not-object", "json-missing-field", "r-string", "r-bool",
            "r-numpy-bool", "coeff-none", "coeff-bool", "sigma-string",
            "sigma-bools", "triangle-string", "triangle-bool", "scale-string",
            "matrix-string", "matrix-none", "schoen-string", "triangle-list", "r-huge-int",
            "coeff-huge-int", "coeff-array", "scale-tuple"])
    def test_refusals(self, build, message):
        with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
            build()

    def test_numeric_scalars_are_accepted(self):
        # NumPy scalars and 0-d numeric arrays are numbers, as in sigma
        term = MeanTerm(np.array(-1.0), [0.5, 0.5], np.int64(2))
        assert (term.r, term.coeff) == (-1.0, 2.0)
        assert TriangleMap(np.array(0.25)).c == 0.25
        assert ScaleMap(np.float32(0.5), MatrixMap(np.ones((2, 2)))).alpha == 0.5


class TestWidth:
    def test_every_node_kind(self):
        # the widest per-row array a kernel builds: dim by default, the
        # term count of a meansum map, the widest child of a combinator
        matrix = MatrixMap(np.ones((4, 4)))
        term = MeanTerm(1.0, [0.25] * 4, 1.0)
        wide = MeanSumMap(((term,) * 3,) * 4)
        cases = [
            (matrix, 4), (SchoenMap(np.ones((4, 4))), 4), (TriangleMap(0.1), 3),
            (MatrixMap([[2.0]]), 1), (mixed_meansum(), 5), (wide, 12),
            (ComposeMap((matrix, wide, mixed_meansum())), 12), (ComposeMap((matrix,)), 4),
            (SumMap((mixed_meansum(), matrix)), 5), (ScaleMap(2.0, wide), 12),
            (ScaleMap(2.0, SumMap((ScaleMap(0.5, matrix), wide))), 12),
        ]
        for spec, width in cases:
            assert spec.width == width >= spec.dim

    def test_read_only(self):
        with pytest.raises(AttributeError):
            mixed_meansum().width = 4


class TestNormalizedAndConjugate:
    def test_conjugate_variation_nonexpansive(self):
        # the normalized map conjugated into V0 by the log isometry
        from coneglow import NormId, norm

        def conjugate(spec, y):
            return log_coords(normalized_map(spec, exp_coords(y)))

        rng = np.random.default_rng(27)
        for spec in _builtin_specs():
            n = spec.dim
            for _ in range(60):
                y1 = rng.uniform(-4, 4, n)
                y2 = rng.uniform(-4, 4, n)
                y1[-1] = y2[-1] = 0.0
                lhs = norm(conjugate(spec, y1) - conjugate(spec, y2),
                           NormId.VARIATION)
                assert lhs <= norm(y1 - y2, NormId.VARIATION) + 1e-9


class TestProperties:
    def test_homogeneity(self):
        rng = np.random.default_rng(15)
        for spec in _builtin_specs():
            for _ in range(50):
                x = np.exp(rng.uniform(-2, 2, spec.dim))
                alpha = float(np.exp(rng.uniform(math.log(1e-3), math.log(1e3))))
                fx = eval_map(spec, x)
                fax = eval_map(spec, alpha * x)
                assert np.max(np.abs(fax - alpha * fx)) <= \
                    1e-12 * alpha * float(np.max(np.abs(fx)))

    def test_hilbert_nonexpansive(self):
        rng = np.random.default_rng(16)
        for spec in _builtin_specs() + [TriangleMap(0.0), TriangleMap(0.25)]:
            n = spec.dim
            X = np.hstack([np.exp(rng.uniform(-5, 5, (200, n - 1))), np.ones((200, 1))])
            Y = np.hstack([np.exp(rng.uniform(-5, 5, (200, n - 1))), np.ones((200, 1))])
            GX = normalized_map(spec, X)
            GY = normalized_map(spec, Y)
            for i in range(200):
                assert hilbert_metric(GX[i], GY[i]) <= \
                    hilbert_metric(X[i], Y[i]) + 1e-9

    def test_triangle_fixed_segments(self):
        # each segment from the barycenter toward a corner stays fixed
        for c in (1 / 6, 1 / 4):
            spec = TriangleMap(c)
            bary = np.ones(3) / 3.0
            for i in range(3):
                end = np.full(3, c)
                end[i] = 1.0 - 2.0 * c
                for t in np.linspace(0.0, 1.0, 10):
                    p = (1 - t) * bary + t * end
                    assert np.max(np.abs(eval_map(spec, p) - p)) <= 1e-12

    def test_probe_accepts_builtins(self):
        for spec in _builtin_specs():
            assert is_order_preserving_homogeneous_probe(spec, trials=24, seed=2)

    def test_probe_rejects_broken_spec(self):
        spec = MatrixMap(np.ones((2, 2)))
        object.__setattr__(spec, "matrix", np.array([[1.0, -0.5], [0.3, 1.0]]))
        assert not is_order_preserving_homogeneous_probe(spec, trials=64, seed=3)

    def test_probe_accepts_scaled(self):
        rng = np.random.default_rng(18)
        for _ in range(5):
            spec = ScaleMap(float(rng.uniform(0.1, 10)), MatrixMap(np.ones((3, 3))))
            assert is_order_preserving_homogeneous_probe(spec, trials=16, seed=4)


class TestPowerIteration:
    def test_ones_matrix(self):
        res = power_iteration(MatrixMap([[1, 1], [1, 1]]), [2.0, 1.0])
        assert res.converged
        assert res.iterations <= 2
        assert np.array_equal(res.vector, [1.0, 1.0])
        assert res.eigenvalue == pytest.approx(2.0, abs=1e-12)

    def test_schoen_composition_converges(self):
        res = power_iteration(schoen_composition(), np.ones(4))
        assert res.converged
        fx = eval_map(schoen_composition(), res.vector)
        assert np.max(np.abs(fx - res.eigenvalue * res.vector)) <= \
            1e-8 * np.max(np.abs(res.vector))
        assert res.cw_range[0] <= res.eigenvalue <= res.cw_range[1]

    def test_printed_value_is_first_factor_eigenvector(self):
        # the reference eigenvector used by the acceptance gate is
        # reproduced, to all printed digits, by the first factor alone
        first = schoen_composition().children[0]
        res = power_iteration(first, np.ones(4))
        printed = np.array([0.24138896, 0.10237913, 0.56235034, 1.0])
        assert res.converged
        assert np.max(np.abs(res.vector - printed)) <= 1e-6

    def test_triangle_c13_barycenter(self):
        res = power_iteration(TriangleMap(1 / 3), [0.7, 1.1, 1.0])
        assert res.converged
        assert np.allclose(res.vector, [1.0, 1.0, 1.0], atol=1e-10)

    def test_budget_exhaustion_is_honest(self):
        # the c=0 triangle map still converges pointwise, so use a rotationish
        # matrix with two basic classes where iteration cannot settle
        spec = MatrixMap([[0.0, 1.0], [1.0, 0.0]])
        res = power_iteration(spec, [2.0, 1.0], max_iter=50)
        assert not res.converged
        assert res.iterations == 50


def _assert_same_as_reference(spec, x0, **kwargs):
    got = power_iteration(spec, x0, **kwargs)
    want = power_iteration_reference(spec, x0, **kwargs)
    assert np.array_equal(got.vector, want.vector)
    assert got.eigenvalue == want.eigenvalue
    assert got.iterations == want.iterations
    assert got.converged == want.converged
    assert got.cw_range == want.cw_range


class TestPowerIterationMatchesReference:
    """The point-kernel loop gives the checked batch loop's results bit for bit."""

    @pytest.mark.parametrize("name", ["ones_matrix", "schoen_composition",
                                      "triangle_c0", "triangle_c13", "triangle_c16"])
    def test_bundled_specs(self, name):
        with open(SPECS / f"{name}.json", encoding="utf-8") as fh:
            spec = map_spec_from_dict(json.load(fh))
        rng = np.random.default_rng(43)
        _assert_same_as_reference(spec, np.ones(spec.dim))
        _assert_same_as_reference(spec, np.exp(rng.uniform(-2, 2, spec.dim)))

    def test_meansum_panel(self):
        # n = 8 maps drawn like the eigen_detect benchmark panel
        rng = np.random.default_rng(44)
        n = 8
        for _ in range(20):
            spec = MeanSumMap(tuple(
                tuple(MeanTerm(choices[rng.integers(len(choices))],
                               rng.dirichlet(np.full(n, 20.0)),
                               float(rng.uniform(0.8, 1.25)))
                      for choices in ((0.0, 1.0, 2.0, math.inf),
                                      (-math.inf, -1.0, 0.0, 1.0)))
                for _ in range(n)))
            _assert_same_as_reference(spec, np.exp(rng.uniform(-3, 3, n)))

    def test_period_two_budget(self):
        _assert_same_as_reference(MatrixMap([[0, 2], [1, 0]]), np.ones(2),
                                  max_iter=50)

    @pytest.mark.parametrize("matrix, x0, error, message", [
        ([[1e300, 0], [0, 1]], [1.0, 1.0], OverflowError,
         "map evaluation overflowed"),
        ([[1e-300, 0], [0, 1]], [1.0, 1.0], DomainError,
         "cone points must have strictly positive entries"),
        # the second iterate is (inf, 1) once divided by its last entry
        ([[1, 0], [0, 1e-300]], [1.0, 1.0], DomainError,
         "vector entries must be finite"),
        ([[1, 1], [1, 1]], [[1.0, 1.0]], DomainError,
         "expected a nonempty 1-d real vector"),
        ([[1, 1], [1, 1]], [1.0, 1.0, 1.0], DomainError,
         "start point dimension mismatch"),
        ([[1, 1], [1, 1]], [0.0, 1.0], DomainError,
         "cone points must have strictly positive entries"),
        ([[1, 1], [1, 1]], [math.nan, 1.0], DomainError,
         "vector entries must be finite"),
        # rescaled onto the slice the start point is (inf, 1)
        ([[1, 1], [1, 1]], [1e300, 1e-300], DomainError,
         "cone points must be finite"),
    ])
    def test_errors(self, matrix, x0, error, message):
        # the same exception after the same number of map evaluations
        raised = []
        for run in (power_iteration, power_iteration_reference):
            spec = MatrixMap(matrix)
            calls = []
            evaluate = spec._eval_batch
            object.__setattr__(spec, "_eval_batch",
                               lambda X: calls.append(X) or evaluate(X))
            with np.errstate(all="ignore"), pytest.raises(error, match=message) as info:
                run(spec, x0)
            raised.append((str(info.value), len(calls)))
        assert raised[0] == raised[1]


class TestLinearOracle:
    def test_examples(self):
        assert linear_oracle([[1, 1], [1, 1]]) == (True, True)
        assert linear_oracle([[1, 1], [0, 1]]) == (False, False)
        assert linear_oracle(np.eye(2)) == (True, False)

    def test_nilpotent(self):
        assert linear_oracle([[0.0, 1.0], [0.0, 0.0]]).exists is False

    def test_zero_matrix(self):
        assert linear_oracle([[0.0]]) == (True, True)

    def test_negative_rejected(self):
        with pytest.raises(DomainError):
            linear_oracle([[1.0, -1.0], [0.0, 1.0]])

    def test_block_diagonal_equal_radii(self):
        A = np.zeros((4, 4))
        A[:2, :2] = [[0, 1], [1, 0]]
        A[2:, 2:] = [[1, 0.5], [0.5, 1]]
        # radii 1 and 1.5: only the second block is basic; both are final
        assert linear_oracle(A) == (False, False)
        B = np.zeros((4, 4))
        B[:2, :2] = [[0, 1.5], [1.5, 0]]
        B[2:, 2:] = [[1, 0.5], [0.5, 1]]
        # both blocks have radius 1.5: two basic final classes
        assert linear_oracle(B) == (True, False)

    def test_agrees_with_positive_matrices(self):
        rng = np.random.default_rng(19)
        for _ in range(25):
            A = rng.uniform(0.1, 3.0, (4, 4))
            assert linear_oracle(A) == (True, True)


class TestJsonSchema:
    def test_roundtrip_all_kinds(self):
        # each node kind parsed from a literal dict evaluates like the
        # spec built in Python
        matrix = [[1.0, 2.0], [0.5, 1.0]]
        meansum = {"kind": "meansum", "coordinates": [
            [{"r": -1.0, "sigma": [0.5, 0.5], "coeff": 1.0},
             {"r": "inf", "sigma": [1.0, 0.0], "coeff": 0.5}],
            [{"r": 0.0, "sigma": [0.25, 0.75], "coeff": 2.0},
             {"r": "-inf", "sigma": [0.5, 0.5], "coeff": 1.5}],
        ]}
        built = MeanSumMap((
            (MeanTerm(-1.0, [0.5, 0.5], 1.0), MeanTerm(math.inf, [1.0, 0.0], 0.5)),
            (MeanTerm(0.0, [0.25, 0.75], 2.0), MeanTerm(-math.inf, [0.5, 0.5], 1.5)),
        ))
        coefficients = np.arange(1.0, 17.0).reshape(4, 4)
        cases = [
            ({"kind": "matrix", "matrix": matrix}, MatrixMap(matrix)),
            (meansum, built),
            ({"kind": "schoen", "coefficients": coefficients.tolist()},
             SchoenMap(coefficients)),
            ({"kind": "triangle", "c": 0.2}, TriangleMap(0.2)),
            ({"kind": "compose", "children": [meansum, {"kind": "matrix", "matrix": matrix}]},
             ComposeMap((built, MatrixMap(matrix)))),
            ({"kind": "sum", "children": [meansum, {"kind": "matrix", "matrix": matrix}]},
             SumMap((built, MatrixMap(matrix)))),
            ({"kind": "scale", "alpha": 2.5, "child": meansum}, ScaleMap(2.5, built)),
        ]
        rng = np.random.default_rng(45)
        for doc, spec in cases:
            parsed = map_spec_from_dict(doc)
            assert type(parsed) is type(spec)
            X = np.exp(rng.uniform(-1, 1, (5, spec.dim)))
            assert np.array_equal(eval_map(parsed, X), eval_map(spec, X))

    def test_sigma_sum_gate(self):
        doc = {
            "kind": "meansum",
            "coordinates": [[{"r": 1, "sigma": [0.6, 0.6], "coeff": 1.0}],
                            [{"r": 1, "sigma": [0.5, 0.5], "coeff": 1.0}]],
        }
        with pytest.raises(DomainError):
            map_spec_from_dict(doc)

    def test_sigma_normalized_within_gate(self):
        sigma = [0.5 + 2e-10, 0.5]
        doc = {
            "kind": "meansum",
            "coordinates": [[{"r": 1, "sigma": sigma, "coeff": 1.0}],
                            [{"r": 1, "sigma": [0.5, 0.5], "coeff": 1.0}]],
        }
        spec = map_spec_from_dict(doc)
        assert abs(float(np.sum(spec.terms[0][0].sigma)) - 1.0) <= 1e-15

    def test_infinite_exponents(self):
        doc = {
            "kind": "meansum",
            "coordinates": [[{"r": "inf", "sigma": [1.0, 0.0], "coeff": 1.0}],
                            [{"r": "-inf", "sigma": [0.0, 1.0], "coeff": 1.0}]],
        }
        spec = map_spec_from_dict(doc)
        assert spec.terms[0][0].r == math.inf
        assert spec.terms[1][0].r == -math.inf

    def test_unknown_kind_rejected(self):
        with pytest.raises(DomainError):
            map_spec_from_dict({"kind": "mystery"})


def test_compose_applies_right_to_left():
    double = MatrixMap([[2.0]])
    add_via_scale = ScaleMap(3.0, MatrixMap([[1.0]]))
    spec = ComposeMap((double, add_via_scale))  # double after tripling
    assert eval_map(spec, [1.0])[0] == pytest.approx(6.0)
    assert isinstance(spec, MapSpec)
