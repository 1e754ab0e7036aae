import math
import re
import warnings
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest

from coneglow import (
    DomainError,
    MatrixMap,
    NormId,
    eval_map,
    exp_coords,
    hilbert_metric,
    log_coords,
    norm,
    circumcenter,
    interior_hull_certificate,
    power_iteration,
    to_slice,
)
from coneglow.spaces import require_numbers
from oracles import extreme_points


def test_norm_examples():
    assert norm([1, -1], NormId.SUP) == 1.0
    assert norm([3, 0, 0], NormId.VARIATION) == 3.0
    assert norm([3, 4], NormId.EUCLID) == 5.0


def test_norm_zero_iff_zero():
    assert norm([0.0, 0.0], NormId.SUP) == 0.0
    assert norm([0.0, 0.0, 0.0], NormId.VARIATION) == 0.0
    assert norm([1e-300, 0.0], NormId.SUP) > 0.0


def test_euclid_norm_scale_safe():
    # squaring the entries would give 0.0 and inf (with an overflow warning)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert norm([1e-300, 0.0], NormId.EUCLID) == 1e-300
        assert norm([1e200, 1e200], NormId.EUCLID) == pytest.approx(math.sqrt(2) * 1e200)


def test_variation_rejects_off_hyperplane():
    with pytest.raises(DomainError):
        norm([1.0, 2.0, 0.5], NormId.VARIATION)


def test_vector_validation():
    with pytest.raises(DomainError):
        norm([1.0, float("nan")], NormId.SUP)
    with pytest.raises(DomainError):
        norm([1.0, float("inf")], NormId.EUCLID)
    with pytest.raises(DomainError):
        norm([], NormId.SUP)
    # a norm's value string is not a NormId
    with pytest.raises(DomainError, match="^unknown norm id 'sup'$"):
        norm([1.0, 2.0], "sup")


def test_hilbert_examples():
    assert hilbert_metric([2, 1, 0.5], [2, 1, 0.5]) == 0.0
    assert hilbert_metric([2, 1], [1, 1]) == pytest.approx(math.log(2), abs=1e-15)
    assert hilbert_metric([4, 1, 1], [1, 1, 1]) == pytest.approx(math.log(4), abs=1e-15)


def test_hilbert_domain_errors():
    with pytest.raises(DomainError):
        hilbert_metric([1.0, 0.0], [1.0, 1.0])
    with pytest.raises(DomainError):
        hilbert_metric([1.0, -1.0], [1.0, 1.0])
    with pytest.raises(DomainError):
        hilbert_metric([1.0, 2.0], [1.0, 2.0, 3.0])


def test_hilbert_symmetry_and_triangle():
    rng = np.random.default_rng(0)
    for _ in range(300):
        x, y, z = np.exp(rng.uniform(-30, 30, (3, 5)))
        dxy = hilbert_metric(x, y)
        assert dxy == hilbert_metric(y, x)
        assert dxy <= hilbert_metric(x, z) + hilbert_metric(z, y) + 1e-12


def test_hilbert_scale_invariance():
    rng = np.random.default_rng(1)
    for _ in range(500):
        x, y = np.exp(rng.uniform(-10, 10, (2, 4)))
        a, b = np.exp(rng.uniform(-5, 5, 2))
        d0 = hilbert_metric(x, y)
        d1 = hilbert_metric(a * x, b * y)
        assert abs(d1 - d0) <= 1e-12 * max(1.0, d0)


def test_log_exp_examples():
    assert np.array_equal(log_coords([1.0, 1.0, 1.0]), np.zeros(3))
    assert np.allclose(log_coords([math.e ** 2, 1.0]), [2.0, 0.0], atol=1e-12)
    big = exp_coords([100.0, -100.0, 0.0])
    assert big[0] == pytest.approx(math.exp(100), rel=1e-15)
    assert big[1] == pytest.approx(math.exp(-100), rel=1e-15)
    assert big[2] == 1.0


def test_log_exp_roundtrip():
    rng = np.random.default_rng(2)
    for _ in range(200):
        y = rng.uniform(-200, 200, 6)
        y[-1] = 0.0
        x = exp_coords(y)
        assert np.allclose(log_coords(x), y, rtol=1e-12, atol=1e-12)
        assert np.array_equal(exp_coords(np.zeros(3)), np.ones(3))


def test_log_exp_domain_and_overflow():
    with pytest.raises(DomainError):
        log_coords([2.0, 2.0])
    with pytest.raises(DomainError):
        exp_coords([1.0, 1.0])
    with pytest.raises(OverflowError):
        exp_coords([1000.0, 0.0])


@pytest.mark.parametrize("x, message", [
    ([1e300, 1e-300], "cone points must be finite"),
    ([1e-300, 1e300], "cone points must have strictly positive entries"),
])
def test_to_slice_refuses_entries_beyond_float_range(x, message):
    # rescaled by the last entry, one entry leaves the float range: no
    # point off the open cone and no numpy overflow warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError, match=f"^{message}$"):
            to_slice(x)
    assert np.array_equal(to_slice([1e300, 1e150]), [1e150, 1.0])


@pytest.mark.parametrize("check", [
    lambda P: circumcenter(P, NormId.SUP), interior_hull_certificate,
], ids=["circumcenter", "interior_hull_certificate"])
@pytest.mark.parametrize("points, message", [
    ([[1.0, 2.0], [3.0]], "^vectors must be real and share one length"),
    ([], "^expected a nonempty list of finite vectors of one length$"),
    ([[]], "^expected a nonempty list of finite vectors of one length$"),
    ([1.0, 2.0], "^expected a nonempty list of finite vectors of one length$"),
    ([[1.0, math.nan]], "^expected a nonempty list of finite vectors of one length$"),
], ids=["ragged", "empty", "empty-row", "one-dimensional", "nan"])
def test_point_arrays_have_one_checker(check, points, message):
    with pytest.raises(DomainError, match=message):
        check(points)


@pytest.mark.parametrize("check", [
    lambda v: norm(v, NormId.SUP), lambda v: hilbert_metric(v, v), to_slice,
    lambda v: power_iteration(MatrixMap(np.ones((2, 2))), v),
    lambda v: eval_map(MatrixMap(np.ones((2, 2))), v),
    lambda v: circumcenter(v, NormId.SUP), interior_hull_certificate,
], ids=["norm", "hilbert_metric", "to_slice", "power_iteration", "eval_map",
        "circumcenter", "interior_hull_certificate"])
@pytest.mark.parametrize("value", [
    [[1, 2], [3]], np.array([1 + 2j, 1.0]), np.array([[1 + 0j, 1.0]]), [1 + 2j, 1.0],
    [np.complex128(1 + 2j), 1.0], {}, {"a": 1.0}, [{}, 1.0], [10 ** 400, 1.0],
    ["1", "2"], np.array([b"1", b"2"]), [10 ** 20, "1"], [True, 2.0], [None, 1.0],
    [Fraction(1, 2), 1.0], [Decimal(2), 1.0],
], ids=["ragged", "complex-array", "complex-2d", "complex-list", "complex-scalar",
        "dict", "dict-entries", "dict-entry", "huge-int", "strings", "bytes",
        "string-beside-huge-int", "bool", "none", "fraction", "decimal"])
def test_input_checks_refuse_what_is_not_a_real_array(check, value):
    # one DomainError, never a ComplexWarning and the real parts, nor
    # NumPy's ValueError or a TypeError
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError):
            check(value)


@pytest.mark.parametrize("value", [
    1, -2.5, 10 ** 400, [], [[1, 2.0], [3, 4]], [np.float64(1.0), np.int64(2)],
    np.array([[1.0, 2.0]]), [np.array([1, 2]), 3],
])
def test_require_numbers_passes_numbers_through(value):
    assert require_numbers(value, "entry") is value


@pytest.mark.parametrize("value, shown", [
    ("1", "'1'"), ([1, True], "True"), ([[1.0], [None]], "None"), ([1, {}], "{}"),
    ([np.bool_(False)], "np.False_"), (np.array([True]), "array([ True])"),
])
def test_require_numbers_names_what_is_not_a_number(value, shown):
    # the JSON strings, bools and nulls a float cast would read as numbers
    with pytest.raises(DomainError, match=f"^entry: expected a number, not {re.escape(shown)}$"):
        require_numbers(value, "entry")


def test_isometry_between_slice_and_v0():
    rng = np.random.default_rng(3)
    for _ in range(500):
        x = to_slice(np.exp(rng.uniform(-50, 50, 4)))
        y = to_slice(np.exp(rng.uniform(-50, 50, 4)))
        lhs = norm(log_coords(x) - log_coords(y), NormId.VARIATION)
        rhs = hilbert_metric(x, y)
        assert abs(lhs - rhs) <= 1e-12 * max(1.0, rhs)


def test_extreme_points_sup_square():
    pts = extreme_points(NormId.SUP, 2)
    got = {tuple(p) for p in pts}
    assert got == {(1, 1), (1, -1), (-1, 1), (-1, -1)}


def test_extreme_points_variation_n3():
    pts = extreme_points(NormId.VARIATION, 3)
    got = {tuple(p) for p in pts}
    want = {(1, 0, 0), (1, 1, 0), (0, 1, 0), (-1, 0, 0), (-1, -1, 0), (0, -1, 0)}
    assert got == want


@pytest.mark.parametrize("norm_id,count", [
    (NormId.SUP, lambda n: 2 ** n),
    (NormId.VARIATION, lambda n: 2 ** n - 2),
])
@pytest.mark.parametrize("n", [2, 3, 4, 6])
def test_extreme_point_counts_and_norms(norm_id, count, n):
    pts = extreme_points(norm_id, n)
    assert len(pts) == count(n)
    for p in pts:
        assert norm(p, norm_id) == 1.0


def test_extreme_points_guards():
    with pytest.raises(DomainError):
        extreme_points(NormId.EUCLID, 2)
    with pytest.raises(DomainError):
        extreme_points(NormId.SUP, 25)
