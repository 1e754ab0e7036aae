"""Independent checks of coneglow outputs.

Nothing in this module imports coneglow.  Each check either recomputes
what it needs from the workload inputs with its own formulas (and with
SciPy's HiGHS solver where a linear program is needed), or tests a
property that the method guarantees for every correct output.  A failed
check raises ``CheckFailed`` with a one-line reason.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.optimize import linprog


class CheckFailed(Exception):
    """An output of the program is wrong."""


def require(condition, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


# ---------------------------------------------------------------------------
# Map evaluators written from the definitions


def schoen_composition(spec_doc: dict):
    """Evaluator of a ``compose`` of ``schoen`` nodes from the spec JSON.

    Each factor is ``f_i(x) = a_i x_i + b_i t(pair_i) + c_i t(x1, x4)
    + d_i t(x2, x3)`` with the harmonic pair ``t(s, u) = s u / (s + u)``;
    pairs are (x1, x2) for rows 1-2 and (x3, x4) for rows 3-4.  The last
    child applies first.
    """
    require(spec_doc.get("kind") == "compose", "spec is not a composition")
    factors = []
    for child in spec_doc["children"]:
        require(child.get("kind") == "schoen", "composition factor is not schoen")
        C = np.array(child["coefficients"], dtype=float)
        require(C.shape == (4, 4), "schoen coefficients must be 4x4")
        factors.append(C)

    def pair(s, u):
        return s * u / (s + u)

    def apply(C, X):
        t12 = pair(X[:, 0], X[:, 1])
        t34 = pair(X[:, 2], X[:, 3])
        t14 = pair(X[:, 0], X[:, 3])
        t23 = pair(X[:, 1], X[:, 2])
        out = np.empty_like(X)
        for i, own_pair in enumerate((t12, t12, t34, t34)):
            a, b, c, d = C[i]
            out[:, i] = a * X[:, i] + b * own_pair + c * t14 + d * t23
        return out

    def f(X):
        Y = np.atleast_2d(np.asarray(X, dtype=float))
        for C in reversed(factors):
            Y = apply(C, Y)
        return Y

    return f


def power_mean_map(coordinates):
    """Evaluator of a map whose coordinates are sums of weighted means.

    ``coordinates[i]`` is a list of ``(r, sigma, coeff)``; the mean is
    ``(sum sigma_j x_j**r)**(1/r)``, the weighted geometric mean at r = 0,
    and max/min over the support of sigma at r = +-inf.
    """

    def mean(r, sigma, X):
        support = sigma > 0.0
        sub = X[:, support]
        w = sigma[support]
        if r == math.inf:
            return sub.max(axis=1)
        if r == -math.inf:
            return sub.min(axis=1)
        if r == 0.0:
            return np.exp(np.log(sub) @ w)
        return (sub ** r @ w) ** (1.0 / r)

    def f(X):
        X = np.atleast_2d(np.asarray(X, dtype=float))
        out = np.zeros_like(X)
        for i, terms in enumerate(coordinates):
            for r, sigma, coeff in terms:
                out[:, i] += coeff * mean(r, sigma, X)
        return out

    return f


# ---------------------------------------------------------------------------
# Eigenvector certificates


def check_ratio_witnesses(f, witnesses: dict, n: int) -> None:
    """Every nonempty proper subset J has a witness x whose ratios
    ``f(x)_j / x_j`` on J all sit strictly below those off J."""
    expected = set(range(1, (1 << n) - 1))
    require(set(witnesses) == expected,
            f"{len(set(witnesses) & expected)} of {len(expected)} subsets covered")
    masks = np.array(sorted(witnesses), dtype=np.int64)
    X = np.array([witnesses[int(m)] for m in masks], dtype=float)
    require(X.shape == (masks.size, n) and np.all(X > 0.0),
            "witnesses must be positive vectors of the right length")
    rho = np.log(f(X)) - np.log(X)
    inside = ((masks[:, None] >> np.arange(n)) & 1).astype(bool)
    highest_in = np.where(inside, rho, -np.inf).max(axis=1)
    lowest_out = np.where(inside, np.inf, rho).min(axis=1)
    bad = np.nonzero(~(highest_in < lowest_out))[0]
    require(bad.size == 0,
            f"witness for subset mask {int(masks[bad[0]]) if bad.size else 0} "
            "does not realize it")


def variation_circumradius(points: np.ndarray) -> float:
    """Least R with ``var(y - p_i) <= R`` for all i over centers y, by HiGHS.

    ``points`` has one log-coordinate vector per row, last entry 0.  The
    program has variables (y_1..y_{n-1}, R), with y_n = 0, and one row
    ``(y_j - p_ij) - (y_k - p_ik) <= R`` per point and ordered pair j != k.
    """
    m, n = points.shape
    pairs = [(j, k) for j in range(n) for k in range(n) if j != k]
    A = np.zeros((m * len(pairs), n))
    b = np.empty(m * len(pairs))
    row = 0
    for i in range(m):
        for j, k in pairs:
            if j < n - 1:
                A[row, j] += 1.0
            if k < n - 1:
                A[row, k] -= 1.0
            A[row, -1] = -1.0
            b[row] = points[i, j] - points[i, k]
            row += 1
    cost = np.zeros(n)
    cost[-1] = 1.0
    bounds = [(None, None)] * (n - 1) + [(0.0, None)]
    res = linprog(cost, A_ub=A, b_ub=b, bounds=bounds, method="highs")
    require(res.status == 0, f"circumradius program failed: {res.message}")
    return float(res.fun)


def slice_logs(points) -> np.ndarray:
    """Log coordinates of cone points normalized to last entry 1."""
    P = np.log(np.asarray(points, dtype=float))
    return P - P[:, -1:]


def hilbert_distance(x, y) -> float:
    r = np.log(np.asarray(x, dtype=float)) - np.log(np.asarray(y, dtype=float))
    return float(r.max() - r.min())


def normalized_eigenvector(f, n: int, tol: float = 1e-14,
                           max_iter: int = 100_000) -> np.ndarray:
    """Iterate ``x -> f(x) / f(x)_n`` from the all-ones vector until the
    Hilbert-metric step falls below ``tol``."""
    x = np.ones(n)
    for _ in range(max_iter):
        nxt = f(x[None, :])[0]
        nxt = nxt / nxt[-1]
        step = hilbert_distance(nxt, x)
        x = nxt
        if step < tol:
            return x
    raise CheckFailed("reference power iteration did not converge")


# ---------------------------------------------------------------------------
# Euclidean certificates


def hull_interior_epsilon(V: np.ndarray) -> float:
    """Largest eps with ``sum l_i v_i = 0``, ``sum l_i = 1``, ``l_i >= eps``.

    Positive exactly when 0 is in the relative interior of conv{v_i}.
    Variables are (l_1..l_m, eps); HiGHS minimizes -eps.
    """
    m, n = V.shape
    A_eq = np.zeros((n + 1, m + 1))
    A_eq[:n, :m] = V.T
    A_eq[n, :m] = 1.0
    b_eq = np.zeros(n + 1)
    b_eq[n] = 1.0
    A_ub = np.hstack([-np.eye(m), np.ones((m, 1))])  # eps - l_i <= 0
    cost = np.zeros(m + 1)
    cost[-1] = -1.0
    res = linprog(cost, A_ub=A_ub, b_ub=np.zeros(m), A_eq=A_eq, b_eq=b_eq,
                  bounds=[(None, None)] * (m + 1), method="highs")
    if res.status == 2:  # infeasible: 0 is outside the affine hull
        return -math.inf
    require(res.status == 0, f"hull program failed: {res.message}")
    return -float(res.fun)


def check_hull_interior(V: np.ndarray) -> None:
    eps = hull_interior_epsilon(V)
    require(eps > 1e-9, f"0 is not interior to the residual hull (eps={eps:.3g})")
    require(np.linalg.matrix_rank(V) == V.shape[1],
            "residuals do not span the space")


def check_in_polytope(rows, x: np.ndarray) -> None:
    """``<normal, x> <= offset`` for every half-space, to rounding."""
    for normal, offset in rows:
        normal = np.asarray(normal, dtype=float)
        slack = 1e-9 * (1.0 + abs(offset) + float(np.abs(normal) @ np.abs(x)))
        require(float(normal @ x) <= offset + slack,
                "fixed point lies outside the localizing polytope")
