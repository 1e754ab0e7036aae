"""Norms and Hilbert's projective metric.

The three supported norms are the supremum and Euclidean norms on R^n,
and the variation norm ``max_i x_i - min_j x_j`` on the hyperplane
V0 = {x : x_n = 0}.  Points of V0 are kept in ambient R^n with
an exactly-zero last coordinate rather than in the quotient R^n / R·e.

The coordinatewise log is an isometry from the normalized cone slice
``Sigma0 = {x > 0 : x_n = 1}`` with Hilbert's metric onto (V0, var);
``log_coords`` / ``exp_coords`` realize the two directions.
Input checks live here, with one checker for numbers: ``require_numbers``
passes ints, floats and NumPy integer or float scalars and arrays, in
nested lists, and refuses a bool, a string, None, a complex, a Fraction
or a Decimal before a float cast could read it as a number.  Every other
check asks it: ``as_real`` is that walk plus a float cast, ``as_vector``
takes one point, ``as_points`` an ``(m, n)`` array of them,
``_require_number`` one scalar field, and ``require_cone`` checks
open-cone entries.
"""

from __future__ import annotations

import enum

import numpy as np

from .errors import DomainError


class NormId(enum.Enum):
    SUP = "sup"
    EUCLID = "euclid"
    VARIATION = "variation"


def as_real(value, what: str = "vectors") -> np.ndarray:
    """``value`` as a float array of any shape, once ``require_numbers``
    passes it; ragged rows and ints past the float range are refused."""
    require_numbers(value, what)
    try:
        return np.asarray(value, dtype=float)
    except (ValueError, OverflowError) as exc:
        raise DomainError(f"{what} must be real and share one length ({exc})") from exc


_JSON_NUMBERS = frozenset((int, float))


def require_numbers(value, what: str):
    """Return ``value`` if it is a number or nested lists of numbers.

    Anything else, a string, a bool, None, a complex, a Fraction, a Decimal
    or a NumPy array of another kind, raises DomainError naming ``what``.
    """
    pending = [value]
    while pending:
        item = pending.pop()
        if isinstance(item, (list, tuple)):
            if not _JSON_NUMBERS.issuperset(map(type, item)):  # else a row of numbers
                pending.extend(item)
        elif isinstance(item, np.ndarray) and item.dtype.kind in "iuf":
            continue
        elif isinstance(item, bool) or not isinstance(
                item, (int, float, np.integer, np.floating)):
            raise DomainError(f"{what}: expected a number, not {item!r}")
    return value


def _require_number(value, what: str):
    """``value`` as a Python int or float, once ``require_numbers`` passes
    it and it is one number: a list or an array with axes raises the same
    DomainError.  An int stays an int, so one past the float range meets
    the caller's range check at its size, and a NumPy integer becomes one;
    anything else is cast to a float, so a float32 compares with the float
    limits without overflow.
    """
    require_numbers(value, what)
    if isinstance(value, (list, tuple)) or getattr(value, "ndim", 0):
        raise DomainError(f"{what}: expected a number, not {value!r}")
    return int(value) if isinstance(value, (int, np.integer)) else float(value)


def as_vector(v) -> np.ndarray:
    """Coerce to a finite 1-d float array, rejecting NaN/inf entries."""
    arr = as_real(v)
    if arr.ndim != 1 or arr.size == 0:
        raise DomainError("expected a nonempty 1-d real vector")
    if not np.all(np.isfinite(arr)):
        raise DomainError("vector entries must be finite")
    return arr


def as_points(points) -> np.ndarray:
    """Coerce to a nonempty ``(m, n)`` float array of finite entries."""
    P = as_real(points)
    if P.ndim != 2 or P.size == 0 or not np.isfinite(P).all():
        raise DomainError("expected a nonempty list of finite vectors of one length")
    return P


def require_cone(arr: np.ndarray) -> np.ndarray:
    """Return ``arr`` if every entry is finite and strictly positive.

    One min/max pair decides (NaN fails both); the message is looked up
    only when it fails."""
    if arr.min(initial=np.inf) > 0.0 and arr.max(initial=-np.inf) < np.inf:
        return arr
    if not np.all(np.isfinite(arr)):
        raise DomainError("cone points must be finite")
    if np.any(arr <= 0.0):
        raise DomainError("cone points must have strictly positive entries")
    return arr


def as_cone_point(x) -> np.ndarray:
    """Coerce to a strictly positive finite vector (open-cone point)."""
    return require_cone(as_vector(x))


def _require_last_zero(v: np.ndarray) -> None:
    if v[-1] != 0.0:
        raise DomainError(
            "variation-norm vectors live in V0 and must have last entry "
            "exactly 0; subtract v[-1] from every entry first"
        )


def norm(v, norm_id: NormId) -> float:
    """Norm of ``v`` under the named norm.

    The variation norm requires ``v[-1] == 0`` (a V0 point) and equals
    ``max(v) - min(v)``.
    """
    arr = as_vector(v)
    if norm_id is NormId.SUP:
        return float(np.max(np.abs(arr)))
    if norm_id is NormId.EUCLID:
        return float(np.hypot.reduce(arr))  # no squares to under- or overflow
    if norm_id is NormId.VARIATION:
        _require_last_zero(arr)
        return float(np.max(arr) - np.min(arr))
    raise DomainError(f"unknown norm id {norm_id!r}")


def hilbert_metric(x, y) -> float:
    """Hilbert's projective metric between strictly positive vectors.

    Computed as the spread of coordinatewise log-ratios, which stays
    finite even when entries span e**(+-700).
    """
    xa = as_cone_point(x)
    ya = as_cone_point(y)
    if xa.shape != ya.shape:
        raise DomainError("points must have equal length")
    ratios = np.log(xa) - np.log(ya)
    return float(np.max(ratios) - np.min(ratios))


def to_slice(x) -> np.ndarray:
    """Scale a cone point onto the slice Sigma0 (last entry exactly 1).

    Raises DomainError when an entry over- or underflows the rescaling,
    which can happen once the entries span more than the float range.
    """
    arr = as_cone_point(x)
    with np.errstate(over="ignore"):
        return require_cone(arr / arr[-1])


def log_coords(x) -> np.ndarray:
    """Coordinatewise log of a Sigma0 point; lands in V0.

    Requires ``x[-1] == 1`` exactly; use :func:`to_slice` to normalize.
    """
    arr = as_cone_point(x)
    if arr[-1] != 1.0:
        raise DomainError("point must lie on Sigma0 (last entry exactly 1); "
                          "normalize with to_slice first")
    out = np.log(arr)
    out[-1] = 0.0
    return out


def exp_coords(y) -> np.ndarray:
    """Coordinatewise exp of a V0 point; lands on Sigma0."""
    arr = as_vector(y)
    if arr[-1] != 0.0:
        raise DomainError("point must lie in V0 (last entry exactly 0)")
    with np.errstate(over="ignore"):
        out = np.exp(arr)
    if not np.all(np.isfinite(out)):
        raise OverflowError("exp_coords overflowed the floating range; "
                            "entries must stay below ~709")
    out[-1] = 1.0
    return out

