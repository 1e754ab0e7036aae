"""Reference oracles the tests check the library against.

None of these is on the detect -> verify -> localize path: each decides a
property the slow, direct way, so the vectorized code can be compared
with it.

* ``illuminates_point`` probes one unit-sphere point and one direction;
  the mask code of ``coneglow.illumination`` must agree with it.
* ``extreme_points`` enumerates the extreme points of the sup and
  variation unit balls.
* ``linear_oracle`` decides existence and uniqueness of positive
  eigenvectors of a nonnegative matrix from its class structure.
* ``is_order_preserving_homogeneous_probe`` samples order preservation
  and degree-1 homogeneity of a cone map.
* ``cover_reference`` records the first witness of each mask row by row,
  the loop ``coneglow.detector._cover`` replaces with array steps.
* ``normalized_map`` is the self-map of the slice Sigma0, and
  ``power_iteration_reference`` iterates it on one-row batches with every
  iterate checked, the loop ``coneglow.conemaps.power_iteration`` runs on
  the point kernel.
* ``schoen_reference`` evaluates the Schoen map one harmonic pair at a
  time, the form ``coneglow.SchoenMap`` gathers into one pass.
* ``triangle_reference`` evaluates the triangle map row by row through
  ``argmax``, the form ``coneglow.TriangleMap`` replaces with column
  comparisons.
* ``variation_masks_reference`` cuts the variation masks along each row
  of a row-major sort, the form ``coneglow.variation_masks`` runs rank
  by rank.
* ``schoen_composition`` loads the bundled Schoen composition spec.
* ``hull_lp_certificate`` decides 0 in the interior of a convex hull by
  a HiGHS linear program, the solver ``interior_hull_certificate``'s one
  NNLS solve replaces.
"""

from __future__ import annotations

import json
import math
from pathlib import Path
from typing import NamedTuple

import numpy as np
from scipy.optimize import linprog
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components

from coneglow import (
    DomainError, EigenResult, MapSpec, NormId, eval_map,
    hilbert_metric, map_spec_from_dict, norm, to_slice,
)
from coneglow.detector import (
    _KINDS, ENUMERATION_DIM_CAP, DetectionReport, DetectionStatus,
)
from coneglow.illumination import LP_TOL, RANK_TOL
from coneglow.spaces import as_cone_point, as_points, as_vector

SPECS = Path(__file__).resolve().parents[1] / "specs"

STRICT_TOL = 1e-12
_PROBE_STEPS = 2.0 ** -np.arange(41)  # dyadic probe 1, 1/2, ..., 2**-40


class NonterminationError(RuntimeError):
    """An iterative procedure hit its iteration cap without resolving."""


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
    else:
        vals = np.max(probes, axis=1) - np.min(probes, axis=1)
    return bool(np.any(vals < 1.0 - STRICT_TOL))


def extreme_points(norm_id: NormId, n: int) -> np.ndarray:
    """Extreme points of the unit ball, one per row.

    SUP: the 2**n sign vectors, ordered so that row ``J`` has +1 exactly
    on the bits of ``J``.  VARIATION: for each nonempty I within the
    first n-1 coordinates, the 0/1 indicator of I and its negation, last
    entry 0 (2**n - 2 rows); here ``n`` is the ambient dimension and the
    ball lives in V0.
    """
    if n < 1:
        raise DomainError("dimension must be at least 1")
    if norm_id is NormId.EUCLID:
        raise DomainError("the Euclidean ball has no finite extreme-point set")
    if n > ENUMERATION_DIM_CAP:
        raise DomainError(
            f"extreme-point enumeration is capped at n <= {ENUMERATION_DIM_CAP}"
        )
    if norm_id is NormId.SUP:
        masks = np.arange(2 ** n, dtype=np.int64)
        bits = (masks[:, None] >> np.arange(n)) & 1
        return (2.0 * bits - 1.0).astype(float)
    if norm_id is NormId.VARIATION:
        masks = np.arange(1, 2 ** (n - 1), dtype=np.int64)
        indicators = np.zeros((masks.size, n))
        if masks.size:
            bits = (masks[:, None] >> np.arange(n - 1)) & 1
            indicators[:, : n - 1] = bits
        return np.vstack([indicators, -indicators])
    raise DomainError(f"unknown norm id {norm_id!r}")


class LinearOracleResult(NamedTuple):
    exists: bool
    unique: bool


def linear_oracle(A) -> LinearOracleResult:
    """Exact existence/uniqueness test for positive eigenvectors of a
    nonnegative matrix.

    Decomposes the adjacency digraph into communicating classes, computes
    each class's spectral radius, and applies the classical
    characterization: a positive eigenvector exists iff the final classes
    (no outgoing access) are exactly the basic classes (radius equal to
    the overall spectral radius), and it is unique up to scaling iff
    there is exactly one basic final class.
    """
    M = np.asarray(A, dtype=float)
    if M.ndim != 2 or M.shape[0] != M.shape[1] or M.shape[0] == 0:
        raise DomainError("matrix must be square and nonempty")
    if np.any(M < 0.0) or not np.all(np.isfinite(M)):
        raise DomainError("matrix entries must be finite and nonnegative")
    n = M.shape[0]
    ncomp, labels = connected_components(
        csr_matrix(M > 0.0), directed=True, connection="strong"
    )
    radii = np.empty(ncomp)
    for comp in range(ncomp):
        idx = np.nonzero(labels == comp)[0]
        radii[comp] = _class_spectral_radius(M[np.ix_(idx, idx)])
    rho = float(np.max(radii))
    basic = {c for c in range(ncomp) if abs(radii[c] - rho) <= 1e-8 * rho}
    final = set(range(ncomp))
    for i in range(n):
        for j in range(n):
            if M[i, j] > 0.0 and labels[i] != labels[j]:
                final.discard(labels[i])
    exists = final == basic
    unique = exists and len(basic) == 1
    return LinearOracleResult(exists, unique)


def _class_spectral_radius(sub: np.ndarray, tol: float = 1e-10,
                           max_iter: int = 10 ** 5) -> float:
    """Spectral radius of an irreducible block via shifted power iteration.

    Adding the identity makes the block primitive, so the coordinate
    ratios bracket the shifted radius and contract onto it.
    """
    k = sub.shape[0]
    if k == 1:
        return float(sub[0, 0])
    B = sub + np.eye(k)
    v = np.ones(k)
    for _ in range(max_iter):
        w = B @ v
        ratios = w / v
        lo, hi = float(np.min(ratios)), float(np.max(ratios))
        v = w / np.sum(w)
        if hi - lo <= tol * max(1.0, hi):
            return 0.5 * (lo + hi) - 1.0
    raise NonterminationError("class spectral radius did not converge")


def is_order_preserving_homogeneous_probe(spec: MapSpec, trials: int = 64,
                                          seed: int = 0) -> bool:
    """Randomized check of order preservation and degree-1 homogeneity.

    Samples comparable pairs x <= y and positive scalings; returns False
    on any violation beyond 1e-9 relative.  A passing probe is evidence,
    not proof.
    """
    if trials < 1:
        raise DomainError("at least one trial is required")
    rng = np.random.default_rng(seed)
    n = spec.dim
    rel = 1e-9
    for _ in range(trials):
        x = np.exp(rng.uniform(-3.0, 3.0, size=n))
        y = x + rng.uniform(0.0, 2.0, size=n)
        fx = eval_map(spec, x)
        fy = eval_map(spec, y)
        scale = np.maximum(1.0, np.abs(fx))
        if np.any(fy < fx - rel * scale):
            return False
        alpha = float(np.exp(rng.uniform(math.log(1e-3), math.log(1e3))))
        fax = eval_map(spec, alpha * x)
        if np.max(np.abs(fax - alpha * fx)) > rel * alpha * float(np.max(np.abs(fx))):
            return False
    return True


def cover_reference(kind: str, n: int, config, batches) -> DetectionReport:
    """Record the first witness of each mask until all are covered.

    ``batches`` yields ``(offset, points, masks, valid)``, one row per
    sample, in the shape ``variation_masks`` returns; it is not consumed
    when the kind's total is 0.  Walks each batch row by row and, within a
    row, mask by mask.
    """
    total = _KINDS[kind][0](n)
    covered = np.zeros(1 << n, dtype=bool)
    witnesses: dict[int, np.ndarray] = {}
    used = 0
    for offset, points, masks, valid in batches if total else ():
        used = offset + len(points)
        fresh = valid & ~covered[masks]
        for row in np.nonzero(fresh.any(axis=1))[0]:
            for mask in masks[row, fresh[row]]:
                if not covered[mask]:
                    covered[mask] = True
                    witnesses[int(mask)] = points[row].copy()
            if len(witnesses) == total:
                used = offset + int(row) + 1
                break
        if len(witnesses) == total:
            break
    status = (DetectionStatus.CONFIRMED if len(witnesses) == total
              else DetectionStatus.UNDETERMINED)
    return DetectionReport(kind=kind, status=status, dimension=n, samples_used=used,
                           config=config, witnesses=witnesses)


def normalized_map(spec: MapSpec, x) -> np.ndarray:
    """The self-map of Sigma0: evaluate and rescale to last entry 1."""
    X = np.asarray(x, dtype=float)
    single = X.ndim == 1
    X = np.atleast_2d(X)  # evaluated as a batch, the form power_iteration skips
    if np.any(X[:, -1] != 1.0):
        raise DomainError("normalized map expects points on Sigma0")
    Y = eval_map(spec, X)
    Y = Y / Y[:, -1][:, None]
    return Y[0] if single else Y


def power_iteration_reference(spec: MapSpec, x0, tol: float = 1e-12,
                              max_iter: int = 10 ** 5) -> EigenResult:
    """Iterate ``normalized_map`` until the Hilbert-metric step is < tol,
    validating each iterate through ``eval_map`` and ``hilbert_metric``."""
    if not tol > 0.0:
        raise DomainError("tolerance must be positive")
    x = to_slice(as_cone_point(x0))
    if x.size != spec.dim:
        raise DomainError("start point dimension mismatch")
    step = math.inf
    iterations = 0
    while iterations < max_iter:
        nxt = normalized_map(spec, x)
        step = hilbert_metric(nxt, x)
        x = nxt
        iterations += 1
        if step < tol:
            break
    fx = eval_map(spec, x)
    ratios = fx / x
    return EigenResult(
        vector=x,
        eigenvalue=float(fx[-1]),
        iterations=iterations,
        converged=step < tol,
        cw_range=(float(np.min(ratios)), float(np.max(ratios))),
    )


def _harmonic_pair(s, t):
    # theta(s, t) = (1/s + 1/t)**-1, written to survive entries near e**700
    return 1.0 / (1.0 / s + 1.0 / t)


def schoen_reference(C, X) -> np.ndarray:
    """The Schoen map with coefficient rows ``C`` on the ``(m, 4)`` batch ``X``."""
    t12 = _harmonic_pair(X[:, 0], X[:, 1])
    t34 = _harmonic_pair(X[:, 2], X[:, 3])
    t14 = _harmonic_pair(X[:, 0], X[:, 3])
    t23 = _harmonic_pair(X[:, 1], X[:, 2])
    pair = np.stack([t12, t12, t34, t34], axis=1)
    return (X * C[:, 0] + pair * C[:, 1]
            + t14[:, None] * C[:, 2] + t23[:, None] * C[:, 3])


def triangle_reference(c, X) -> np.ndarray:
    """The triangle map with parameter ``c`` on the ``(m, 3)`` batch ``X``."""
    cs = c * np.sum(X, axis=1)
    mu = np.stack(
        [
            np.maximum(np.maximum(X[:, 1], X[:, 2]), cs),
            np.maximum(np.maximum(X[:, 0], X[:, 2]), cs),
            np.maximum(np.maximum(X[:, 0], X[:, 1]), cs),
        ],
        axis=1,
    )
    branch = np.argmax(X, axis=1)
    rows = np.arange(X.shape[0])
    out = mu[rows, branch][:, None].repeat(3, axis=1)
    out[rows, branch] = X[rows, branch]
    return out


def variation_masks_reference(rho, gap_tol):
    """``(masks, valid)`` of the k smallest log-ratios of each row, as
    ``coneglow.variation_masks`` returns them."""
    order = np.argsort(rho, axis=1, kind="stable")
    srt = np.take_along_axis(rho, order, axis=1)
    gaps = np.diff(srt, axis=1)
    spread = srt[:, -1] - srt[:, 0]
    threshold = gap_tol * np.maximum(1.0, spread)
    valid = gaps > threshold[:, None]
    bits = np.int64(1) << order.astype(np.int64)
    masks = np.cumsum(bits, axis=1)[:, :-1]
    return masks, valid


def schoen_composition() -> MapSpec:
    """The bundled composition of two Schoen maps, ``specs/schoen_composition.json``."""
    with open(SPECS / "schoen_composition.json", encoding="utf-8") as fh:
        return map_spec_from_dict(json.load(fh))


def hull_lp_certificate(vectors) -> tuple[bool, float]:
    """``(inside, epsilon)``: LP certificate that 0 lies in the interior of conv{v_1..v_m}.

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
    return bool(eps > LP_TOL and full_rank), eps
