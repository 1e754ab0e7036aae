"""Circumcenters of witness sets and explicit bounding balls.

Once a detection run has confirmed a nonempty bounded fixed-point set,
the witness points localize it: the set lies inside a ball around their
circumcenter whose radius is a norm-dependent multiple of the
circumradius, 3 for the sup norm and 2n-1 for the variation norm.  The
variation ball transports through the log isometry to a Hilbert-metric
ball around eigenvector witnesses.  A half-space polytope takes its
normals from ``detector._residuals``, the function ``verify`` checks with.
"""

from __future__ import annotations

import sys
import warnings
from dataclasses import dataclass

import numpy as np

from .detector import _residuals
from .errors import DomainError
from .illumination import interior_hull_certificate
from .spaces import (NormId, _require_number, as_points, as_vector, exp_coords,
                     hilbert_metric, norm, require_cone)

HILBERT_METRIC = "hilbert"
_METRICS = (*(norm_id.value for norm_id in NormId), HILBERT_METRIC)
# Slack of the containment tests, for rounding in the distances and rows.
_CONTAIN_TOL = 1e-9


def _point_of_dim(v, n: int) -> np.ndarray:
    """``v`` as a finite vector, refused unless it has ``n`` entries."""
    va = as_vector(v)
    if va.size != n:
        raise DomainError(f"region has dimension {n}, got a point of dimension {va.size}")
    return va


@dataclass(frozen=True)
class BoundingBall:
    """A closed ball ``{x : d(x, center) <= radius}`` in the named metric.

    ``center`` is coerced to a finite float vector, ``metric`` is a NormId
    value string or ``"hilbert"``, and ``radius`` one number that
    ``_require_number`` passes, finite and nonnegative, stored as a float.
    """

    center: np.ndarray
    radius: float
    metric: str

    def __post_init__(self):
        object.__setattr__(self, "center", as_vector(self.center))
        if self.metric not in _METRICS:
            raise DomainError(f"metric must be one of {', '.join(_METRICS)}, not {self.metric!r}")
        radius = _require_number(self.radius, "radius")
        if not 0.0 <= radius <= sys.float_info.max:  # NaN fails
            raise DomainError("radius must be finite and nonnegative")
        object.__setattr__(self, "radius", float(radius))  # in range: no int overflows

    def contains(self, v) -> bool:
        va = _point_of_dim(v, np.size(self.center))
        if self.metric == HILBERT_METRIC:
            distance = hilbert_metric(va, self.center)
        else:
            distance = norm(va - self.center, NormId(self.metric))
        return distance <= self.radius + _CONTAIN_TOL

    def to_json_dict(self) -> dict:
        return {
            "metric": self.metric,
            "center": self.center.tolist(),
            "radius": self.radius,
        }


def _factor(norm_id: NormId, n: int) -> int:
    """The localization factor: the fixed-point set lies within
    ``factor * R0`` of the witnesses' circumcenter.

    With ``alpha`` bounding the distance from any unit-sphere point to
    the nearest extreme point, and ``beta`` the least distance at which
    the midpoint with an extreme point dips inside the ball, the factor
    is ``(2 + beta - alpha)/(beta - alpha)``, finite when ``beta > alpha``.
    Sup: alpha = 1, beta = 2, so 3.  Variation (ambient dimension n, ball
    in V0): alpha = 1 - 1/(n-1), beta = 1, so 2n-1.  ``circumcenter``
    refuses every other norm.
    """
    return 3 if norm_id is NormId.SUP else 2 * n - 1


def circumcenter(points, norm_id: NormId) -> tuple[np.ndarray, float]:
    """A circumcenter and the circumradius of a finite point set.

    Sup norm: closed form (coordinatewise midpoint of the bounding box).
    Variation norm: Karp's minimum cycle mean, O(n**3), no solver.  The
    returned radius is the realized max distance from the returned
    center, so the pair is self-consistent; it matches the true
    circumradius to rounding.
    """
    P = as_points(points)
    if norm_id is NormId.SUP:
        center = 0.5 * (np.max(P, axis=0) + np.min(P, axis=0))
        radius = np.max(np.abs(center - P))
    elif norm_id is NormId.VARIATION:
        if np.any(P[:, -1] != 0.0):
            raise DomainError("variation circumcenters need points in V0")
        center = _variation_center(P)
        offsets = center - P
        radius = np.max(np.max(offsets, axis=1) - np.min(offsets, axis=1))
    else:
        raise DomainError("circumcenter supports the sup and variation norms")
    return center, float(radius)


def _variation_center(P: np.ndarray) -> np.ndarray:
    """Minimize R over centers y in V0 with var(y - w_i) <= R for all i.

    That is the difference system ``y_j - y_k <= R + D[j, k]``, with
    ``D[j, k] = min_i (w_ij - w_ik)``, feasible iff no cycle of R + D is
    negative: the least R is minus the minimum cycle mean of D (Karp's
    formula), and Bellman-Ford potentials under R + D are a center.
    """
    n = P.shape[1]
    D = np.min(P[:, :, None] - P[:, None, :], axis=0)
    # F[k, j]: least weight of a k-edge walk ending at j.
    F = np.zeros((n + 1, n))
    for k in range(1, n + 1):
        F[k] = np.min(F[k - 1] + D, axis=1)
    mean = np.min(np.max((F[n] - F[:n]) / np.arange(n, 0, -1)[:, None], axis=0))
    y = np.zeros(n)
    for _ in range(n - 1):
        y = np.minimum(y, np.min(y + D - mean, axis=1))
    return y - y[-1]


def localize_fixed_points(witnesses, norm_id: NormId) -> BoundingBall:
    """Bounding ball for the fixed-point set from illumination witnesses.

    The caller must hold a verified report whose witness residuals
    illuminate the unit ball (``DetectionReport.verify``).  A witness
    set with zero circumradius cannot illuminate anything (the
    illumination number is at least n+1), so it is rejected as
    inconsistent input.
    """
    center, r0 = circumcenter(witnesses, norm_id)
    if r0 == 0.0:
        raise DomainError(
            "degenerate witness set: zero circumradius cannot illuminate"
        )
    return BoundingBall(center=center, radius=_factor(norm_id, center.size) * r0,
                        metric=norm_id.value)


def localize_eigenvectors(witnesses, n: int) -> BoundingBall:
    """Hilbert-metric bounding ball for the eigenvector set.

    Witness cone points are normalized onto the slice and carried to V0
    by the log isometry, where ``localize_fixed_points`` bounds them in
    the variation norm; the ball is carried back: radius (2n-1) * R0
    around the exponentiated center.  For n = 1 the slice is the one
    point [1], which is the whole eigenvector set up to scale.
    """
    if n == 1:
        return BoundingBall(center=np.ones(1), radius=0.0, metric=HILBERT_METRIC)
    X = require_cone(as_points(witnesses))
    if X.shape[1] != n:
        raise DomainError("witness dimension mismatch")
    ball = localize_fixed_points(np.log(X / X[:, -1:]), NormId.VARIATION)
    return BoundingBall(center=exp_coords(ball.center), radius=ball.radius,
                        metric=HILBERT_METRIC)


@dataclass(frozen=True)
class HalfspacePolytope:
    """Intersection of half-spaces ``<v, normal> <= offset``."""

    rows: tuple[tuple[np.ndarray, float], ...]

    def contains(self, v) -> bool:
        va = as_vector(v) if not self.rows else _point_of_dim(v, np.size(self.rows[0][0]))
        return all(float(normal @ va) <= offset + _CONTAIN_TOL
                   for normal, offset in self.rows)

    def to_json_dict(self) -> dict:
        return {
            "rows": [
                {"normal": normal.tolist(), "offset": offset}
                for normal, offset in self.rows
            ]
        }


def halfspace_polytope(f, probes) -> tuple[HalfspacePolytope, bool]:
    """Half-space localization for a Euclidean-nonexpansive map.

    ``f`` is the map on an ``(m, n)`` batch, as for
    ``DetectionReport.verify``.  Every fixed point satisfies
    ``<v, w - f(w)> <= <w, w - f(w)>`` for every probe w, so the rows cut
    out a polytope containing the fixed-point set; probes with a zero
    residual give no row.  ``bounded`` says the normals positively span,
    which one ``interior_hull_certificate`` decides: then the polytope is
    bounded.  After ``verify`` on a smooth report it is always true.
    """
    P = as_points(probes)
    # w - f(w), as 0 - r rather than -r so that an exact zero stays +0.0
    normals = 0.0 - _residuals(f, P, False)
    usable = (np.linalg.norm(normals, axis=1)
              > 1e-12 * (1.0 + np.linalg.norm(P, axis=1)))
    if not usable.all():
        warnings.warn(f"skipping {np.count_nonzero(~usable)} probe(s) with zero residual",
                      stacklevel=2)
    if not usable.any():
        raise DomainError("no usable probes (all residuals vanished)")
    P, normals = P[usable], normals[usable]
    offsets = np.einsum("ij,ij->i", P, normals)
    return (HalfspacePolytope(tuple(zip(normals, offsets.tolist()))),
            interior_hull_certificate(normals).inside)
