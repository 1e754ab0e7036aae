"""Illumination predicates and certificate criteria for unit balls.

A boundary point ``z`` of the unit ball is illuminated by a direction
``v`` when ``z + lam*v`` is interior for some small ``lam > 0``.  A set
of directions that illuminates every extreme point illuminates the whole
ball, so for the polyhedral norms the criteria below reduce to finite
checks over the enumerated extreme points.  All strict inequalities are
tested with conservative slack: a near-degenerate instance reports
"not covered" rather than certifying falsely.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import linprog

from .errors import BudgetError, DomainError
from .spaces import (
    ENUMERATION_DIM_CAP,
    NormId,
    POLYHEDRAL_NORMS,
    as_vector,
    extreme_points,
    norm,
)

STRICT_TOL = 1e-12
LP_TOL = 1e-9
RANK_TOL = 1e-10
_PROBE_STEPS = 2.0 ** -np.arange(41)  # dyadic probe 1, 1/2, ..., 2**-40


@dataclass
class IlluminationVerdict:
    """Outcome of an extreme-point illumination check.

    ``assignments`` maps the index of each extreme point (its position in
    the canonical enumeration) to the index of a direction that
    illuminates it.  ``covered`` is true iff no witness is left over.
    """

    covered: bool
    uncovered_witness: np.ndarray | None = None
    assignments: dict[int, int] = field(default_factory=dict)


def illuminates_point(z, v, norm_id: NormId) -> bool:
    """Whether direction ``v`` illuminates the unit-sphere point ``z``.

    ``t -> norm(z + t v)`` is convex and equals 1 at t = 0, so probing the
    dyadic steps 2**-k, k <= 40, decides the predicate up to tolerance.
    For the Euclidean ball the answer is analytic: ``<z, v> < 0``.
    """
    za = as_vector(z)
    va = as_vector(v)
    if za.shape != va.shape:
        raise DomainError("point and direction must have equal length")
    if abs(norm(za, norm_id) - 1.0) > STRICT_TOL:
        raise DomainError("point must lie on the unit sphere")
    vnorm = float(np.linalg.norm(va))
    if vnorm == 0.0:
        raise DomainError("direction must be nonzero")
    if norm_id is NormId.EUCLID:
        return float(za @ va) < -STRICT_TOL * vnorm
    if norm_id is NormId.VARIATION and va[-1] != 0.0:
        raise DomainError("variation-norm directions must lie in V0")
    probes = za[None, :] + _PROBE_STEPS[:, None] * va[None, :]
    if norm_id is NormId.SUP:
        vals = np.max(np.abs(probes), axis=1)
    elif norm_id is NormId.L1:
        vals = np.sum(np.abs(probes), axis=1)
    else:
        vals = np.max(probes, axis=1) - np.min(probes, axis=1)
    return bool(np.any(vals < 1.0 - STRICT_TOL))


def sup_criterion(residuals) -> IlluminationVerdict:
    """Sign-pattern criterion for the sup-norm ball.

    Each extreme point is a sign vector ``z`` with +1 exactly on a subset
    J; it is illuminated by a residual that is strictly negative on J and
    strictly positive off J.  ``covered`` is true iff all 2**n sign
    patterns are realized strictly; the verdict's assignment key for
    pattern J is the integer bitmask of J.
    """
    res = [as_vector(r) for r in residuals]
    if not res:
        raise DomainError("at least one residual is required")
    n = res[0].size
    for r in res:
        if r.size != n:
            raise DomainError("residuals must share one length")
    if n > ENUMERATION_DIM_CAP:
        raise BudgetError(f"sign patterns are capped at n <= {ENUMERATION_DIM_CAP}")
    assignments: dict[int, int] = {}
    for i, r in enumerate(res):
        slack = STRICT_TOL * max(1.0, float(np.max(np.abs(r))))
        if np.min(np.abs(r)) <= slack:
            continue  # some coordinate is not strictly signed
        mask = int(np.sum((1 << np.arange(n))[r < 0.0]))
        assignments.setdefault(mask, i)
    total = 2 ** n
    if len(assignments) == total:
        return IlluminationVerdict(True, None, assignments)
    missing = next(m for m in range(total) if m not in assignments)
    bits = (missing >> np.arange(n)) & 1
    witness = 2.0 * bits - 1.0
    return IlluminationVerdict(False, witness, assignments)


def extreme_illumination(residuals, norm_id: NormId) -> IlluminationVerdict:
    """Check that every extreme point of the unit ball is illuminated.

    Covering every extreme point suffices to illuminate the whole ball,
    which certifies a nonempty bounded fixed-point set for the map whose
    residuals these are.  Assignment values are residual indices; the
    first illuminating residual wins.
    """
    if norm_id not in POLYHEDRAL_NORMS:
        raise DomainError("extreme-point illumination needs a polyhedral norm")
    res = [as_vector(r) for r in residuals]
    if not res:
        raise DomainError("at least one residual is required")
    n = res[0].size
    points = extreme_points(norm_id, n)
    assignments: dict[int, int] = {}
    for idx, z in enumerate(points):
        hit = None
        for i, r in enumerate(res):
            if illuminates_point(z, r, norm_id):
                hit = i
                break
        if hit is None:
            return IlluminationVerdict(False, z, assignments)
        assignments[idx] = hit
    return IlluminationVerdict(True, None, assignments)


@dataclass(frozen=True)
class HullCertificate:
    """``separator``: a nonzero phi passing ``separates``, or None."""

    inside: bool
    epsilon: float
    separator: np.ndarray | None = field(default=None, compare=False)


def gaussian_rank(matrix, tol: float = RANK_TOL) -> int:
    """Rank by row reduction with partial pivoting at pivot tolerance ``tol``."""
    M = np.array(matrix, dtype=float)
    if M.ndim != 2:
        raise DomainError("rank expects a matrix")
    rows, cols = M.shape
    rank = 0
    for c in range(cols):
        if rank == rows:
            break
        pivot = rank + int(np.argmax(np.abs(M[rank:, c])))
        if abs(M[pivot, c]) <= tol:
            continue
        M[[rank, pivot]] = M[[pivot, rank]]
        M[rank] /= M[rank, c]
        others = [i for i in range(rows) if i != rank]
        M[others] -= np.outer(M[others, c], M[rank])
        rank += 1
    return rank


def separates(V: np.ndarray, phi: np.ndarray) -> np.ndarray:
    """Per row of ``V``, whether ``<v_i, phi> >= -1e-12 * max(1, |v_i|_inf)``."""
    scale = np.maximum(1.0, np.max(np.abs(V), axis=1))
    return ~(V @ phi < -1e-12 * scale)


def interior_hull_certificate(vectors) -> HullCertificate:
    """LP certificate that 0 lies in the interior of conv{v_1..v_m}.

    Maximizes ``eps`` subject to ``lambda_i >= eps``, ``sum lambda_i v_i = 0``
    and ``sum lambda_i = 1``; the optimum is positive exactly when 0 is in
    the relative interior, and a full-rank check upgrades relative
    interior to interior.  With ``lambda_i = eps + mu_i``, ``mu_i >= 0``
    as bounds, HiGHS solves n+1 equality rows.  ``epsilon`` is -inf when
    the program is infeasible (0 outside the affine hull), nan when HiGHS
    cannot settle it.  If 0 is not interior, the Gordan separator is
    minus the duals of the balance rows, a solution of ``V phi = 1``, or
    a null-space vector, whichever passes ``separates`` first.
    """
    try:
        V = np.asarray(vectors, dtype=float)
    except ValueError as exc:
        raise DomainError(f"vectors must be real and share one length ({exc})") from exc
    if V.ndim != 2 or V.size == 0 or not np.all(np.isfinite(V)):
        raise DomainError("expected a nonempty list of finite vectors of one length")
    m, n = V.shape

    # Columns mu_1..mu_m, then eps, whose coefficients are the row sums.
    A = np.vstack([V.T, np.ones(m)])
    res = linprog(np.append(np.zeros(m), -1.0),
                  A_eq=np.column_stack([A, A.sum(axis=1)]),
                  b_eq=np.append(np.zeros(n), 1.0),
                  bounds=[(0.0, None)] * m + [(None, None)], method="highs")
    full_rank = gaussian_rank(V) == n
    if res.status == 0:
        eps = float(res.x[m])
        if eps > LP_TOL and full_rank:
            return HullCertificate(True, eps)
        phi = -res.eqlin.marginals[:n]
    else:
        # Never unbounded (eps <= 1/m).  Residuals exactly on a plane off 0
        # give inconsistent rows HiGHS may leave unsettled, not infeasible.
        eps = -np.inf if res.status == 2 else np.nan
        phi = np.linalg.lstsq(V, np.ones(m), rcond=None)[0]
    found = np.any(phi) and separates(V, phi).all()
    if not full_rank and not found:
        phi = np.linalg.svd(V, full_matrices=m < n)[2][-1]  # a unit vector
        found = separates(V, phi).all()
    return HullCertificate(False, eps, phi if found else None)


def ball_cover_criterion(vectors, norm_id: NormId) -> bool:
    """Whether unit balls around the given vectors cover the unit sphere.

    True iff every extreme point ``z`` has some ``v_i`` with
    ``norm(z - v_i) < 1``; then each ``-v_i`` illuminates the points it
    covers, so the negated set illuminates the ball.
    """
    if norm_id not in POLYHEDRAL_NORMS:
        raise DomainError("ball-cover criterion needs a polyhedral norm")
    vecs = [as_vector(v) for v in vectors]
    if not vecs:
        raise DomainError("at least one vector is required")
    n = vecs[0].size
    points = extreme_points(norm_id, n)
    for z in points:
        if not any(norm(z - v, norm_id) < 1.0 - STRICT_TOL for v in vecs):
            return False
    return True
