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

Both return masks as int64 bit sets, and refuse n above
``ENUMERATION_DIM_CAP`` and anything but a real (m, n) array.

Strict inequalities carry slack ``gap_tol * max(1, scale)``, so a
near-degenerate instance reports "not covered" rather than certifying
falsely.  For the Euclidean ball, ``interior_hull_certificate`` decides
with one NNLS solve whether 0 is interior to the residuals' convex hull,
and returns the other side of the alternative, a separating direction,
when it is not.

Work along the short row axis runs on column- or rank-major arrays:
NumPy steps along the last axis of a C-ordered (m, n) array one short
row at a time, but combines whole contiguous columns element-wise, about
ten times faster at n = 3.  So ``sup_masks`` and ``separates`` reduce a
column-major copy, and ``variation_masks`` sorts each row once, then
works on (n, m) arrays whose row k holds every sample's k-th smallest
ratio.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.optimize import nnls

from .errors import DomainError
from .spaces import as_points, as_real

LP_TOL = 1e-9
# Detection enumerates 2**n masks; refuse beyond this.
ENUMERATION_DIM_CAP = 24
RANK_TOL = 1e-10


def _mask_rows(values) -> np.ndarray:
    """``values`` as a real (m, n) array with 1 <= n <= ``ENUMERATION_DIM_CAP``."""
    arr = as_real(values)
    if arr.ndim != 2 or arr.shape[1] == 0:
        raise DomainError(f"mask codes take an (m, n) array, n >= 1, not shape {arr.shape}")
    if arr.shape[1] > ENUMERATION_DIM_CAP:
        raise DomainError(f"mask codes are capped at n <= {ENUMERATION_DIM_CAP}")
    return arr


def variation_masks(rho: np.ndarray, gap_tol: float):
    """Subset bitmasks realized by each row of log-ratios ``log f(x) - log x``.

    Mask J is realized when the row illuminates the variation ball's
    extreme point ``1_J``.  A subset satisfies the strict ratio inequality
    exactly when it holds the k smallest ratios with a gap above the k-th
    sorted value, so all candidates fall out of one sort per row, with
    ties in index order.  Returns ``(masks, valid)`` of shape (rows, n-1):
    column k-1 is the mask of the k smallest ratios, valid where the gap
    beats ``gap_tol * max(1, spread)``.

    The sort follows n.  Up to n = 4 one stable sort is as fast as any.
    From n = 5 on NumPy's default sort runs instead: on fresh rows the
    stable sort loses most of its time to branch mispredicts, about 131
    against 62 us per 2048 x 8 batch on an AVX-512 CPU.  It may order
    equal ratios either way, so each row with a gap that is not > 0
    (ties, +-0.0, NaN, inf - inf) is sorted again stably.  ``valid`` does
    not depend on the order of equal ratios, so the results are those of
    one stable sort on every input; a map whose ratios tie on most rows
    pays both sorts on those rows.

    After the sort the work is rank-major: row k of ``order`` holds every
    sample's k-th smallest index, the sorted ratios come from one flat
    gather, and the masks accumulate row by row; the results are
    transposed views.
    """
    rho = np.ascontiguousarray(_mask_rows(rho))
    m, n = rho.shape
    stable = n <= 4
    order = np.argsort(rho, axis=1, kind="stable" if stable else None)
    order = np.ascontiguousarray(order.T)
    srt = np.take(rho, order + np.arange(0, m * n, n))
    gaps = srt[1:] - srt[:-1]
    if not stable:  # a row without a positive gap everywhere may hold ties
        ties = ~np.all(gaps > 0.0, axis=0)
        if ties.any():
            order[:, ties] = np.argsort(rho[ties], axis=1, kind="stable").T
    threshold = gap_tol * np.maximum(1.0, srt[-1] - srt[0])
    valid = gaps > threshold
    masks = np.int64(1) << order[:-1]
    for k in range(1, n - 1):
        masks[k] += masks[k - 1]
    return masks.T, valid.T


def _variation_first_rows(rho: np.ndarray, subsets: np.ndarray, gap_tol: float) -> np.ndarray:
    """Per proper nonempty subset J (a bitmask), the first row of ``rho``
    whose valid ``variation_masks`` include J, or -1 if none does.

    Row i realizes J when ``min over J^c - max over J > gap_tol * max(1,
    max - min)``.  When J holds the row's |J| smallest ratios, these are
    its |J|-th and (|J|+1)-th sorted values, so the same floats the sorted
    pass subtracts and compares; otherwise the difference is at most 0 and
    never valid.  So ties, +-0.0 and gaps at the threshold come out as in
    ``variation_masks``.  Each subset costs n passes over the columns of a
    column-major copy, cheaper than the sort for a few subsets.
    """
    C = np.asfortranarray(_mask_rows(rho)).T
    n, m = C.shape
    first = np.full(len(subsets), -1)
    if not m:
        return first
    threshold = gap_tol * np.maximum(1.0, C.max(axis=0) - C.min(axis=0))
    for k, J in enumerate(np.asarray(subsets).tolist()):
        gap = _extreme(np.minimum, C, [j for j in range(n) if not J >> j & 1])
        gap -= _extreme(np.maximum, C, [j for j in range(n) if J >> j & 1])
        hit = gap > threshold
        row = int(hit.argmax())
        if hit[row]:
            first[k] = row
    return first


def _extreme(ufunc, C: np.ndarray, rows: list) -> np.ndarray:
    """``ufunc.reduce(C[rows])`` in a new array, without a gather for one or two rows."""
    if len(rows) > 2:
        return ufunc.reduce(C[rows])
    return ufunc(C[rows[0]], C[rows[-1]])


def sup_masks(residuals: np.ndarray, gap_tol: float):
    """``(masks, valid)`` of shape (rows, 1): bit j set where residual
    coordinate j is negative, valid where every |r_j| > gap_tol * max(1, |r|_inf).
    """
    cols = np.asfortranarray(_mask_rows(residuals))
    mag = np.abs(cols)
    slack = gap_tol * np.maximum(1.0, np.max(mag, axis=1))
    strict = np.min(mag, axis=1) > slack
    neg = (cols < 0.0).T.astype(np.int64)
    codes = neg[-1]
    for bit in neg[-2::-1]:  # Horner's rule, coordinate n-1 first
        codes <<= 1
        codes += bit
    return codes[:, None], strict[:, None]


@dataclass(frozen=True, eq=False)  # by identity: == on the array separator is ambiguous
class HullCertificate:
    """Both sides of the alternative for the rows v_i.

    ``inside``: 0 is interior to conv{v_i}.  ``epsilon``: ``1 / sum
    lambda_i`` for the dependence ``sum lambda_i v_i = 0``, ``lambda_i >=
    1``, the solve found, a lower bound on the least weight of a convex
    combination giving 0 (1/4 on the symmetric triangle); -inf without
    one, nan when NNLS hit its iteration limit.  ``separator``: None when
    inside, else a unit phi passing ``separates``, or None if none was found.
    """

    inside: bool
    epsilon: float
    separator: np.ndarray | None


def separates(V: np.ndarray, phi: np.ndarray) -> np.ndarray:
    """Per row of ``V``, whether ``<v_i, phi> >= -1e-12 * max(1, |v_i|_inf)``."""
    scale = np.maximum(1.0, np.max(np.asfortranarray(np.abs(V)), axis=1))
    return ~(V @ phi < -1e-12 * scale)


def interior_hull_certificate(vectors) -> HullCertificate:
    """Whether 0 lies in the interior of conv{v_1..v_m}, by one NNLS solve.

    Stiemke's alternative: either a strictly positive combination of the
    rows is 0, or some phi has ``<v_i, phi> >= 0``, not all 0.  NNLS
    (Lawson-Hanson) finds ``w = sum (1 + mu_i) v_i`` with ``mu >= 0`` of
    least norm; by the KKT conditions ``V w >= 0``.  The rank test runs on
    ``W = V D^-1``, ``D = diag(2**k_j)`` with ``k_j = max(0, exponent of
    column j's largest |entry|)``, the same rows in other coordinates: a
    column past 1 is judged relative to its own size, a smaller one keeps
    the absolute floor.  0 is interior when ``|D^-1 w| + RANK_TOL <
    sigma_min(W)`` (0 for m < n): for a unit u and small s > 0 the
    least-norm gamma with ``W^T gamma = s u - D^-1 w`` then has
    ``|gamma|_inf < 1 <= 1 + mu_i``, so u is a nonnegative combination of
    the rows.  Otherwise the separator is the first unit vector passing
    ``separates`` (its slack is absolute in phi) of ``w``, and of
    +-``vt[-1]`` (a null vector of rows that do not span) and ``W^+ 1``
    (the normal of rows on a hyperplane off 0), times sigma_min so that no
    term overflows, each taken back to V's coordinates by ``D^-1``.

    The solve sees the rows scaled exactly by a power of two below 1, so
    row sums cannot overflow.  The one SVD sees W; it is skipped when ``w``
    separates rows without a positive dependence.
    """
    V = as_points(vectors)
    m, n = V.shape
    mag = np.abs(V)
    shift = np.frexp(mag.max())[1]
    U = np.ldexp(V, -shift)
    s = U.sum(axis=0)
    try:
        mu = nnls(U.T, -s)[0]
    except RuntimeError:  # iteration limit: neither side is settled
        return HullCertificate(False, np.nan, None)
    w = U.T @ mu + s
    weight = (1.0 + mu) @ np.max(np.abs(U), axis=1)
    eps = float(1.0 / (m + mu.sum())) if np.max(np.abs(w)) <= 1e-9 * weight else -np.inf
    size = np.linalg.norm(w)
    if eps <= LP_TOL and size > 0.0 and separates(V, phi := w / size).all():
        return HullCertificate(False, eps, phi)
    k = np.frexp(mag.max(axis=0, initial=0.5))[1]  # each at least 0
    left, sigma, vt = np.linalg.svd(np.ldexp(V, -k), full_matrices=m < n)
    gap = sigma[-1] - RANK_TOL if m >= n else 0.0
    # D^-1 w: once eps > LP_TOL, |entries| < m + sum mu < 1e9, so none overflows
    if eps > LP_TOL and gap > 0.0 and np.linalg.norm(np.ldexp(w, shift - k)) < gap:
        return HullCertificate(True, eps, None)
    lsq = vt[:m].T @ (left.sum(axis=0) * (sigma[-1] / sigma)) if sigma[-1] > 0.0 else vt[-1]
    back = np.ldexp(1.0, k.min() - k)  # D^-1 times 2**min(k): W's columns to V's
    for phi in (w, vt[-1] * back, -vt[-1] * back, lsq * back):
        phi = phi / (np.linalg.norm(phi) or 1.0)
        if phi.any() and separates(V, phi).all():
            return HullCertificate(False, eps, phi)
    return HullCertificate(False, eps, None)
