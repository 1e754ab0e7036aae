"""Norms, unit-ball extreme points, and Hilbert's projective metric.

The four supported norms are the supremum and l1 norms on R^n, the
Euclidean norm, and the variation norm ``max_i x_i - min_j x_j`` on the
hyperplane V0 = {x : x_n = 0}.  Points of V0 are kept in ambient R^n with
an exactly-zero last coordinate rather than in the quotient R^n / R·e.

The coordinatewise log is an isometry from the normalized cone slice
``Sigma0 = {x > 0 : x_n = 1}`` with Hilbert's metric onto (V0, var);
``log_coords`` / ``exp_coords`` realize the two directions.
"""

from __future__ import annotations

import enum

import numpy as np

from .errors import BudgetError, DomainError

# Extreme-point enumeration is exponential in n; refuse beyond this.
ENUMERATION_DIM_CAP = 24


class NormId(enum.Enum):
    SUP = "sup"
    L1 = "l1"
    EUCLID = "euclid"
    VARIATION = "variation"


def as_vector(v) -> np.ndarray:
    """Coerce to a finite 1-d float array, rejecting NaN/inf entries."""
    arr = np.asarray(v, dtype=float)
    if arr.ndim != 1 or arr.size == 0:
        raise DomainError("expected a nonempty 1-d real vector")
    if not np.all(np.isfinite(arr)):
        raise DomainError("vector entries must be finite")
    return arr


def as_cone_point(x) -> np.ndarray:
    """Coerce to a strictly positive finite vector (open-cone point)."""
    arr = as_vector(x)
    if np.any(arr <= 0.0):
        raise DomainError("cone points must have strictly positive entries")
    return arr


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
    if norm_id is NormId.L1:
        return float(np.sum(np.abs(arr)))
    if norm_id is NormId.EUCLID:
        return float(np.linalg.norm(arr))
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
    """Scale a cone point onto the slice Sigma0 (last entry exactly 1)."""
    arr = as_cone_point(x)
    return arr / arr[-1]


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


def extreme_points(norm_id: NormId, n: int) -> np.ndarray:
    """Extreme points of the unit ball, one per row.

    SUP: the 2**n sign vectors, ordered so that row ``J`` has +1 exactly
    on the bits of ``J``.  L1: +e_i then -e_i (2n rows).  VARIATION: for
    each nonempty I within the first n-1 coordinates, the 0/1 indicator
    of I and its negation, last entry 0 (2**n - 2 rows); here ``n`` is
    the ambient dimension and the ball lives in V0.
    """
    if n < 1:
        raise DomainError("dimension must be at least 1")
    if norm_id is NormId.EUCLID:
        raise DomainError("the Euclidean ball has no finite extreme-point set")
    if n > ENUMERATION_DIM_CAP:
        raise BudgetError(
            f"extreme-point enumeration is capped at n <= {ENUMERATION_DIM_CAP}"
        )
    if norm_id is NormId.SUP:
        masks = np.arange(2 ** n, dtype=np.int64)
        bits = (masks[:, None] >> np.arange(n)) & 1
        return (2.0 * bits - 1.0).astype(float)
    if norm_id is NormId.L1:
        eye = np.eye(n)
        return np.vstack([eye, -eye])
    if norm_id is NormId.VARIATION:
        masks = np.arange(1, 2 ** (n - 1), dtype=np.int64)
        indicators = np.zeros((masks.size, n))
        if masks.size:
            bits = (masks[:, None] >> np.arange(n - 1)) & 1
            indicators[:, : n - 1] = bits
        return np.vstack([indicators, -indicators])
    raise DomainError(f"unknown norm id {norm_id!r}")
