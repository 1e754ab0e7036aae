"""Illumination of unit balls: one mask code per norm, and a hull certificate.

A boundary point ``z`` of the unit ball is illuminated by a direction
``v`` when ``z + lam*v`` is interior for some small ``lam > 0``.  A set
of directions that illuminates every extreme point illuminates the whole
ball.  For the two polyhedral norms the detectors use, one vectorized
function per norm decides, for every residual at once, which extreme
points it illuminates:

* ``variation_masks``: the variation ball's extreme point ``1_J`` (up to
  constants) is illuminated by ``r`` iff ``r`` is strictly smaller on J
  than off it;
* ``sup_masks``: the sign vector with +1 exactly on J is illuminated by
  ``r`` iff ``r < 0`` on J and ``r > 0`` off it.

Strict inequalities carry slack ``gap_tol * max(1, scale)``, so a
near-degenerate instance reports "not covered" rather than certifying
falsely.  For the Euclidean ball, ``interior_hull_certificate`` decides
whether 0 is interior to the residuals' convex hull, and
``gordan_separator`` proves that it is not, by one NNLS solve or a null vector.

Row reductions over the short last axis (max and min of |r| per row in
``sup_masks`` and ``separates``) run on a column-major copy: NumPy
reduces a C-ordered (m, n) array along its last axis one row at a time,
but a Fortran-ordered one element-wise across whole columns, about ten
times faster at n = 3.  ``variation_masks`` keeps its input's layout,
as its ``argsort`` and ``cumsum`` along rows are slower on a
column-major copy.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.optimize import linprog, nnls

from .spaces import as_points

LP_TOL = 1e-9
RANK_TOL = 1e-10


def variation_masks(rho: np.ndarray, gap_tol: float):
    """Subset bitmasks realized by each row of log-ratios ``log f(x) - log x``.

    Mask J is realized when the row illuminates the variation ball's
    extreme point ``1_J``.  A subset satisfies the strict ratio inequality exactly when it holds
    the k smallest ratios with a gap above the k-th sorted value, so all
    candidates fall out of one sort.  Returns ``(masks, valid)`` of shape
    (rows, n-1): column k-1 is the mask of the k smallest ratios, valid
    where the gap beats ``gap_tol * max(1, spread)``.
    """
    order = np.argsort(rho, axis=1, kind="stable")
    srt = np.take_along_axis(rho, order, axis=1)
    gaps = np.diff(srt, axis=1)
    spread = srt[:, -1] - srt[:, 0]
    threshold = gap_tol * np.maximum(1.0, spread)
    valid = gaps > threshold[:, None]
    bits = np.int64(1) << order.astype(np.int64)
    masks = np.cumsum(bits, axis=1)[:, :-1]
    return masks, valid


def sup_masks(residuals: np.ndarray, gap_tol: float):
    """``(masks, valid)`` of shape (rows, 1): bit j set where residual
    coordinate j is negative, valid where every |r_j| > gap_tol * max(1, |r|_inf).
    """
    mag = np.asfortranarray(np.abs(residuals))
    slack = gap_tol * np.maximum(1.0, np.max(mag, axis=1))
    strict = np.min(mag, axis=1) > slack
    powers = np.int64(1) << np.arange(residuals.shape[1], dtype=np.int64)
    return ((residuals < 0.0) @ powers)[:, None], strict[:, None]


@dataclass(frozen=True)
class HullCertificate:
    inside: bool
    epsilon: float


def separates(V: np.ndarray, phi: np.ndarray) -> np.ndarray:
    """Per row of ``V``, whether ``<v_i, phi> >= -1e-12 * max(1, |v_i|_inf)``."""
    scale = np.maximum(1.0, np.max(np.asfortranarray(np.abs(V)), axis=1))
    return ~(V @ phi < -1e-12 * scale)


def gordan_separator(vectors) -> np.ndarray | None:
    """A unit phi with ``<v_i, phi> >= 0`` for every row, or None.

    Gordan's alternative: either some strictly positive combination of
    the rows is 0, or such a phi exists.  One nonnegative least-squares
    solve (Lawson-Hanson) decides which: ``w = sum (1 + mu_i) v_i`` with
    ``mu >= 0`` of least norm satisfies ``V w >= 0`` by the KKT
    conditions, and ``w = 0`` exactly when the rows have a strictly
    positive dependence.  phi is ``w / |w|``, returned only if it passes
    ``separates``; unit length matters, because the slack there is
    absolute in phi and a near-zero ``w`` would pass it unscaled.  Where
    that fails but the rows do not span the space, 0 is still not
    interior, and phi is a unit null-space vector if that one passes.
    """
    V = as_points(vectors)
    m, n = V.shape
    s = V.sum(axis=0)
    try:
        w = V.T @ nnls(V.T, -s)[0] + s
    except RuntimeError:  # iteration limit: no separator from NNLS
        w = np.zeros(n)
    size = np.linalg.norm(w)
    if size > 0.0 and separates(V, phi := w / size).all():
        return phi
    if np.linalg.matrix_rank(V, tol=RANK_TOL) < n:
        null = np.linalg.svd(V, full_matrices=m < n)[2][-1]  # a unit vector
        if separates(V, null).all():
            return null
    return None


def interior_hull_certificate(vectors) -> HullCertificate:
    """LP certificate that 0 lies in the interior of conv{v_1..v_m}.

    Maximizes ``eps`` subject to ``lambda_i >= eps``, ``sum lambda_i v_i = 0``
    and ``sum lambda_i = 1``; the optimum is positive exactly when 0 is in
    the relative interior, and a full-rank check upgrades relative
    interior to interior.  With ``lambda_i = eps + mu_i``, ``mu_i >= 0``
    as bounds, HiGHS solves n+1 equality rows.  ``epsilon`` is -inf when
    the program is infeasible (0 outside the affine hull), nan when HiGHS
    cannot settle it.
    """
    V = as_points(vectors)
    m, n = V.shape

    # Columns mu_1..mu_m, then eps, whose coefficients are the row sums.
    A = np.vstack([V.T, np.ones(m)])
    res = linprog(np.append(np.zeros(m), -1.0),
                  A_eq=np.column_stack([A, A.sum(axis=1)]),
                  b_eq=np.append(np.zeros(n), 1.0),
                  bounds=[(0.0, None)] * m + [(None, None)], method="highs")
    full_rank = np.linalg.matrix_rank(V, tol=RANK_TOL) == n
    # Never unbounded (eps <= 1/m).  Residuals exactly on a plane off 0
    # give inconsistent rows HiGHS may leave unsettled, not infeasible.
    eps = (float(res.x[m]) if res.status == 0 else
           -np.inf if res.status == 2 else np.nan)
    return HullCertificate(bool(eps > LP_TOL and full_rank), eps)
