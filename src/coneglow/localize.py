"""Circumcenters of witness sets and explicit bounding balls.

Once a detection run has confirmed a nonempty bounded fixed-point set,
the witness points localize it: the set lies inside a ball around their
circumcenter whose radius is a norm-dependent multiple of the
circumradius.  The multiples used here are 3 for the sup norm, n+1 for
l1, and 2n-1 for the variation norm; the last transports through the
log isometry to Hilbert-metric balls around eigenvector witnesses.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
from scipy.optimize import linprog

from .errors import DomainError
from .illumination import interior_hull_certificate
from .spaces import NormId, as_cone_point, as_vector, exp_coords, log_coords, norm, to_slice

HILBERT_METRIC = "hilbert"


@dataclass(frozen=True)
class BoundingBall:
    """A closed ball ``{x : d(x, center) <= radius}`` in the named metric.

    ``metric`` is a NormId value string or ``"hilbert"``.
    """

    center: np.ndarray
    radius: float
    metric: str

    def __post_init__(self):
        if not (np.isfinite(self.radius) and self.radius >= 0.0):
            raise DomainError("radius must be finite and nonnegative")

    def to_json_dict(self) -> dict:
        return {
            "metric": self.metric,
            "center": self.center.tolist(),
            "radius": self.radius,
        }


@dataclass(frozen=True)
class NormConstants:
    """Extreme-point geometry constants and the localization factor.

    ``alpha`` bounds the distance from any sphere point to the nearest
    extreme point; ``beta`` is the least distance at which the midpoint
    with an extreme point dips inside the ball.  The bounding-ball radius
    is ``factor * R0`` with ``factor = (2 + beta - alpha)/(beta - alpha)``,
    which needs ``beta > alpha``; the factor is stored explicitly so the
    tabulated norms carry it exactly (3, n+1, 2n-1).
    """

    alpha: float
    beta: float
    factor: float

    def __post_init__(self):
        if not self.beta > self.alpha:
            raise DomainError("beta must exceed alpha for a finite factor")
        formula = (2.0 + self.beta - self.alpha) / (self.beta - self.alpha)
        if abs(self.factor - formula) > 1e-9 * formula:
            raise DomainError("factor must equal (2 + beta - alpha)/(beta - alpha)")


def norm_constants(norm_id: NormId, n: int) -> NormConstants:
    """Tabulated (alpha, beta) for the polyhedral norms in dimension n.

    Sup gives factor 3; l1 gives n+1; variation (ambient dimension n,
    ball in V0) gives 2n-1.
    """
    if n < 2:
        raise DomainError("constants need dimension at least 2")
    if norm_id is NormId.SUP:
        return NormConstants(alpha=1.0, beta=2.0, factor=3.0)
    if norm_id is NormId.L1:
        return NormConstants(alpha=2.0 - 2.0 / n, beta=2.0, factor=float(n + 1))
    if norm_id is NormId.VARIATION:
        return NormConstants(alpha=1.0 - 1.0 / (n - 1), beta=1.0,
                             factor=float(2 * n - 1))
    raise DomainError("constants are tabulated for sup, l1 and variation only")


def circumcenter(points, norm_id: NormId) -> tuple[np.ndarray, float]:
    """A circumcenter and the circumradius of a finite point set.

    Sup norm: closed form (coordinatewise midpoint of the bounding box).
    Variation norm: Karp's minimum cycle mean, O(n**3), no solver.  The
    returned radius is the realized max distance from the returned
    center, so the pair is self-consistent; it matches the true
    circumradius to rounding.
    """
    pts = [as_vector(p) for p in points]
    if not pts:
        raise DomainError("at least one point is required")
    n = pts[0].size
    for p in pts:
        if p.size != n:
            raise DomainError("points must share one length")
    P = np.array(pts)

    if norm_id is NormId.SUP:
        hi = np.max(P, axis=0)
        lo = np.min(P, axis=0)
        center = 0.5 * (hi + lo)
    elif norm_id is NormId.VARIATION:
        if np.any(P[:, -1] != 0.0):
            raise DomainError("variation circumcenters need points in V0")
        center = _variation_center(P)
    else:
        raise DomainError("circumcenter supports the sup and variation norms")
    radius = max(norm(center - p, norm_id) for p in P)
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

    The caller must hold a confirmed detection report whose witness
    residuals illuminate the unit ball.  A witness set with zero
    circumradius cannot illuminate anything (the illumination number is
    at least n+1), so it is rejected as inconsistent input.
    """
    pts = [as_vector(w) for w in witnesses]
    if not pts:
        raise DomainError("at least one witness is required")
    n = pts[0].size
    consts = norm_constants(norm_id, n)
    center, r0 = circumcenter(pts, norm_id)
    if r0 == 0.0:
        raise DomainError(
            "degenerate witness set: zero circumradius cannot illuminate"
        )
    return BoundingBall(center=center, radius=consts.factor * r0,
                        metric=norm_id.value)


def localize_eigenvectors(witnesses, n: int) -> BoundingBall:
    """Hilbert-metric bounding ball for the eigenvector set.

    Witness cone points are normalized onto the slice, carried to V0 by
    the log isometry, circumscribed under the variation norm, and the
    ball is carried back: radius (2n-1) * R0 around the exponentiated
    center.
    """
    pts = [to_slice(as_cone_point(w)) for w in witnesses]
    if not pts:
        raise DomainError("at least one witness is required")
    for p in pts:
        if p.size != n:
            raise DomainError("witness dimension mismatch")
    logs = [log_coords(p) for p in pts]
    center_v0, r0 = circumcenter(logs, NormId.VARIATION)
    if r0 == 0.0:
        raise DomainError(
            "degenerate witness set: zero circumradius cannot illuminate"
        )
    factor = norm_constants(NormId.VARIATION, n).factor
    return BoundingBall(center=exp_coords(center_v0), radius=factor * r0,
                        metric=HILBERT_METRIC)


@dataclass(frozen=True)
class HalfspacePolytope:
    """Intersection of half-spaces ``<v, normal> <= offset``."""

    rows: tuple[tuple[np.ndarray, float], ...]

    def contains(self, v, tol: float = 1e-9) -> bool:
        va = as_vector(v)
        return all(float(normal @ va) <= offset + tol
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

    Every fixed point satisfies ``<v, w - f(w)> <= <w, w - f(w)>`` for
    every probe w, so the rows cut out a polytope containing the
    fixed-point set.  A nonempty polytope is bounded iff its normals
    positively span, which one ``interior_hull_certificate`` decides; if
    they do not, one feasibility LP runs, as an empty one counts bounded.
    """
    rows = []
    n = None
    for w in probes:
        wa = as_vector(w)
        n = wa.size if n is None else n
        if wa.size != n:
            raise DomainError("probes must share one length")
        normal = wa - np.asarray(f(wa), dtype=float)
        if float(np.linalg.norm(normal)) <= 1e-12 * (1.0 + float(np.linalg.norm(wa))):
            warnings.warn("skipping probe with zero residual", stacklevel=2)
            continue
        rows.append((normal, float(wa @ normal)))
    if not rows:
        raise DomainError("no usable probes (all residuals vanished)")

    normals, offsets = map(np.array, zip(*rows))
    bounded = interior_hull_certificate(normals).inside
    if not bounded:  # status 2: empty, so vacuously bounded
        bounded = linprog(np.zeros(n), A_ub=normals, b_ub=offsets,
                          bounds=(None, None), method="highs").status == 2
    return HalfspacePolytope(tuple(rows)), bounded
