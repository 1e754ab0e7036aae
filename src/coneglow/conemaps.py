"""Order-preserving homogeneous maps on the open positive cone.

Map descriptions are immutable trees built from weighted power means,
Schoen's four-species interaction map, the three-branch triangle map, a
nonnegative matrix, and closure operations (compose, sum, positive
scale).  Every node's kernel ``_eval_batch`` takes a cone point ``(n,)``
or an ``(m, n)`` batch of them and returns an array of the same shape.
A point needs no ``(1, n)`` wrap and gives the bits of the one-row batch.

The weighted mean with exponent ``r`` is ``(sum_i sigma_i x_i**r)**(1/r)``
for finite nonzero r, the weighted geometric mean at r = 0, and the
max/min over the support of sigma at r = +-inf.  All of these are
order-preserving and homogeneous of degree one, which is what every
result used here requires.  ``MeanSumMap`` gathers each support's
columns once per batch and evaluates the arithmetic (r = 1) and harmonic
(r = -1) means in closed form, without logarithms; every other finite
r != 0 goes through a log-sum-exp shifted by the support's extreme log.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import DomainError
from .spaces import _require_number, as_real, require_cone, to_slice

SIGMA_TOL = 1e-12
JSON_SIGMA_TOL = 1e-9
# power_iteration stops once a Hilbert-metric step falls below this.
POWER_TOL = 1e-12
# Below this |r| a power mean equals the geometric mean far within
# rounding, while r * log(x) would sink into subnormal numbers.
_GEOMETRIC_R = 1e-200


def _scalar(value, what: str) -> float:
    """One number that ``_require_number`` passes, as a float; an int past
    the float range raises DomainError naming ``what``."""
    try:
        return float(_require_number(value, what))
    except OverflowError:
        raise DomainError(f"{what}: an int of {value.bit_length()} bits is past the float range"
                          ) from None


def _as_tuple(items, message: str) -> tuple:
    """``tuple(items)``; DomainError with ``message`` if it is not iterable."""
    try:
        return tuple(items)
    except TypeError:
        raise DomainError(message) from None


@dataclass(frozen=True, eq=False)
class MeanTerm:
    """One ``coeff * M_{r,sigma}`` term of a coordinate function."""

    r: float
    sigma: np.ndarray
    coeff: float

    def __post_init__(self):
        object.__setattr__(self, "r", _scalar(self.r, "r"))
        sigma = as_real(self.sigma, "sigma")
        if sigma.ndim != 1 or sigma.size == 0:
            raise DomainError("sigma must be a nonempty weight vector")
        if not (sigma.min() >= 0.0 and sigma.max() < math.inf):  # NaN fails both
            raise DomainError("sigma weights must be finite and nonnegative")
        if abs(float(sigma.sum()) - 1.0) > SIGMA_TOL:
            raise DomainError("sigma weights must sum to 1")
        object.__setattr__(self, "sigma", sigma)
        object.__setattr__(self, "coeff", _scalar(self.coeff, "coeff"))
        if not (self.coeff > 0.0 and math.isfinite(self.coeff)):
            raise DomainError(
                f"mean coefficient {self.coeff} must be positive and finite")
        if math.isnan(self.r):
            raise DomainError("mean exponent must not be NaN")


class MapSpec:
    """Base class for map-description tree nodes.

    ``width`` is the column count of the widest per-row array the node's
    kernel builds, at least ``dim``; the samplers size batches by it.
    """

    dim: int

    @property
    def width(self) -> int:
        return self.dim

    def _eval_batch(self, X: np.ndarray) -> np.ndarray:
        """Map a cone point ``(n,)`` or an ``(m, n)`` batch, keeping the shape."""
        raise NotImplementedError


@dataclass(frozen=True, eq=False)
class MatrixMap(MapSpec):
    matrix: np.ndarray

    def __post_init__(self):
        A = as_real(self.matrix, "matrix")
        if A.ndim != 2 or A.shape[0] != A.shape[1] or A.shape[0] == 0:
            raise DomainError("matrix must be square and nonempty")
        if np.any(A < 0.0) or not np.all(np.isfinite(A)):
            raise DomainError("matrix entries must be finite and nonnegative")
        if np.any(np.all(A == 0.0, axis=1)):
            raise DomainError("matrix must have no zero row")
        object.__setattr__(self, "matrix", A)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def _eval_batch(self, X):
        return X @ self.matrix.T


class _MeanGroup(NamedTuple):
    """Mean terms that share one exponent and one support.

    ``weights`` holds one column of support weights per term; the terms'
    values fill columns ``start:stop`` of the batch's term matrix.
    """

    r: float
    weights: np.ndarray
    start: int
    stop: int


@dataclass(frozen=True, eq=False)
class MeanSumMap(MapSpec):
    """Coordinate functions that are positive sums of weighted means.

    Terms are grouped once by support and, within a support, by exponent.
    A batch gathers each support's columns once, and their logs once when
    a group needs them; then it makes one pass per group and one product
    that places each term's ``coeff`` in its coordinate.  The arithmetic
    mean (r = 1) is ``sum w x`` and the harmonic mean (r = -1) is
    ``lo / sum(w lo / x)`` with ``lo`` the support's least entry, so no
    partial sum overflows; every other finite r != 0 goes through a
    log-sum-exp shifted by the support's extreme log.
    """

    terms: tuple[tuple[MeanTerm, ...], ...]

    def __post_init__(self):
        rows = _as_tuple(self.terms, "meansum terms must be a sequence of coordinates")
        terms = tuple(_as_tuple(row, "each coordinate must be a sequence of MeanTerm")
                      for row in rows)
        if not terms:
            raise DomainError("at least one coordinate is required")
        n = len(terms)
        members: dict[tuple, list[tuple[int, MeanTerm]]] = {}
        for i, row in enumerate(terms):
            if not row:
                raise DomainError("each coordinate needs at least one term")
            for term in row:
                if not isinstance(term, MeanTerm):
                    raise DomainError("coordinate terms must be MeanTerm")
                if term.sigma.size != n:
                    raise DomainError("sigma length must equal the dimension")
                r = 0.0 if abs(term.r) < _GEOMETRIC_R else term.r
                key = ((term.sigma > 0.0).tobytes(), r)  # the support's mask
                members.setdefault(key, []).append((i, term))
        object.__setattr__(self, "terms", terms)
        placement = np.zeros((sum(map(len, terms)), n))
        supports: dict[bytes, tuple[np.ndarray, list[_MeanGroup]]] = {}
        stop = 0
        for (mask, r), group in members.items():
            if mask not in supports:
                supports[mask] = (np.flatnonzero(np.frombuffer(mask, dtype=bool)), [])
            cols, groups = supports[mask]
            start, stop = stop, stop + len(group)
            for k, (i, term) in enumerate(group, start):
                placement[k, i] = term.coeff
            # one C-contiguous column of support weights per term
            weights = np.array([term.sigma[cols] for _, term in group]).T.copy()
            groups.append(_MeanGroup(r, weights, start, stop))
        object.__setattr__(self, "_supports", tuple(
            (cols, tuple(groups)) for cols, groups in supports.values()))
        object.__setattr__(self, "_placement", placement)

    @property
    def dim(self) -> int:
        return len(self.terms)

    @property
    def width(self) -> int:
        """The term count: the kernel's term matrix has one column per term."""
        return len(self._placement)

    def _eval_batch(self, X):
        V = np.empty(X.shape[:-1] + self._placement.shape[:1])
        for cols, groups in self._supports:
            # keep the copy X[..., cols]: column-major, it vectorizes max/min
            Xs = X[..., cols]
            Ls = None
            for g in groups:
                out = V[..., g.start:g.stop]
                if g.r == 1.0:
                    # the weights sum to 1, so no partial sum passes max x
                    # by more than rounding
                    np.matmul(Xs, g.weights, out=out)
                elif g.r == -1.0:
                    # every lo / x is at most 1, even for a subnormal lo
                    lo = Xs.min(axis=-1, keepdims=True)
                    out[...] = lo / ((lo / Xs) @ g.weights)
                elif g.r == math.inf:
                    out[...] = Xs.max(axis=-1, keepdims=True)
                elif g.r == -math.inf:
                    out[...] = Xs.min(axis=-1, keepdims=True)
                else:
                    if Ls is None:
                        Ls = np.log(Xs)
                    if g.r == 0.0:
                        np.exp(Ls @ g.weights, out=out)
                        continue
                    # shift by the support's extreme log: every exponent is
                    # <= 0 and the extreme column adds its whole weight, so
                    # s = sum w exp(z) is accurate relative to itself
                    ext = (Ls.max if g.r > 0.0 else Ls.min)(axis=-1, keepdims=True)
                    z = Ls - ext
                    z *= g.r
                    log_s = np.log(np.exp(z) @ g.weights)
                    # near s = 1 (small |r| or spread) log(s) loses the
                    # digits that log1p(sum w expm1(z)) keeps
                    near = log_s > -0.5
                    if near.any():
                        np.log1p(np.expm1(z) @ g.weights, out=log_s, where=near)
                    log_s /= g.r
                    log_s += ext
                    np.exp(log_s, out=out)
        return V @ self._placement


# the pairs (s, t) of the couplings theta(x1, x2), theta(x3, x4),
# theta(x1, x4) and theta(x2, x3)
_S = np.array([0, 2, 0, 1])
_T = np.array([1, 3, 3, 2])
# rows of (x1..x4, the four couplings) that terms a, b, c and d take, one
# column per coordinate
_TERMS = np.array([[0, 1, 2, 3], [4, 4, 5, 5], [6, 6, 6, 6], [7, 7, 7, 7]])


@dataclass(frozen=True, eq=False)
class SchoenMap(MapSpec):
    """Four-species interaction map with harmonic pair couplings.

    ``coefficients`` has rows ``(a_i, b_i, c_i, d_i)``.  Coordinates 1-2
    couple through theta(x1, x2) and coordinates 3-4 through
    theta(x3, x4); all four share theta(x1, x4) and theta(x2, x3):

        f_i(x) = a_i x_i + b_i theta(pair_i) + c_i theta(x1, x4)
                 + d_i theta(x2, x3)

    The kernel works coordinate-major, so every pass runs along the batch
    (a point is its own single row).  All four couplings come from one
    reciprocal pass over the coordinates, theta(s, t) = (1/s + 1/t)**-1,
    a form that survives entries near e**700.  One concatenate puts them
    below x, one gather lays out the terms as (term, coordinate[, row]),
    one in-place product applies the coefficients, and ``np.add.reduce``
    over the term axis adds the a, b, c and d terms in the order written
    above.  That term array is the widest the kernel builds: 16 floats a
    row, the map's ``width``.
    """

    coefficients: np.ndarray

    def __post_init__(self):
        C = as_real(self.coefficients, "coefficients")
        if C.shape != (4, 4) or not np.isfinite(C).all():
            raise DomainError("coefficients must be a finite 4x4 array")
        if (C[:, 0] <= 0.0).any():
            raise DomainError("diagonal coefficients a_i must be positive")
        couplings = C[:, 1:]
        if (couplings < 0.0).any():
            raise DomainError("coupling coefficients must be nonnegative")
        if not couplings.any(axis=1).all():
            raise DomainError("each row needs a positive coupling coefficient")
        object.__setattr__(self, "coefficients", C)
        # coefficient of term j in coordinate i at [j, i], for a point and,
        # with a row axis, for a batch
        terms = np.ascontiguousarray(C.T)
        object.__setattr__(self, "_terms", (terms, terms[:, :, None]))

    @property
    def dim(self) -> int:
        return 4

    @property
    def width(self) -> int:
        """The (term, coordinate) array holds 16 floats a row."""
        return 16

    def _eval_batch(self, X):
        XT = X.T
        R = 1.0 / XT
        V = np.concatenate((XT, 1.0 / (R[_S] + R[_T])))
        G = V[_TERMS]
        G *= self._terms[X.ndim - 1]
        return np.add.reduce(G, axis=0).T


@dataclass(frozen=True, eq=False)
class TriangleMap(MapSpec):
    """Three-branch map on the positive octant with parameter c in [0, 1/3].

    The branch is selected by the maximal coordinate; at ties all
    applicable branches agree, so taking the first maximal index is safe.
    Its normalized fixed-point set is a union of three segments meeting
    at the barycenter, collapsing to the barycenter at c = 1/3 and
    becoming unbounded at c = 0.

    The kernel works coordinate by coordinate: branch i keeps x_i and sets
    the other two coordinates to mu = max(second largest x_j, c * sum x),
    and comparisons of whole columns (of scalars, for a point) pick the
    first maximal index.
    """

    c: float

    def __post_init__(self):
        object.__setattr__(self, "c", _scalar(self.c, "c"))
        if not (0.0 <= self.c <= 1.0 / 3.0):
            raise DomainError("triangle parameter must lie in [0, 1/3]")

    @property
    def dim(self) -> int:
        return 3

    def _eval_batch(self, X):
        x0, x1, x2 = np.asfortranarray(X).T
        first = (x0 >= x1) & (x0 >= x2)
        second = ~first & (x1 >= x2)
        # mu: the larger of the median entry and c * ((x0 + x1) + x2), the
        # sum in the order np.sum(X, axis=1) adds a row
        mu = np.maximum(np.maximum(np.minimum(x0, x1), np.minimum(np.maximum(x0, x1), x2)),
                        self.c * (x0 + x1 + x2))
        out = np.empty((3,) + np.shape(x0))
        out[0] = np.where(first, x0, mu)
        out[1] = np.where(second, x1, mu)
        out[2] = np.where(first | second, mu, x2)
        return out.T


@dataclass(frozen=True, eq=False)
class _Combinator(MapSpec):
    """A node over a nonempty tuple of equal-dimension child nodes.

    Each subclass names its operation in ``_words``, the verb and the
    participle of its refusals.
    """

    children: tuple[MapSpec, ...]

    def __post_init__(self):
        verb, participle = self._words
        children = _as_tuple(self.children, f"{verb} children must be a sequence of MapSpec nodes")
        if not children:
            raise DomainError(f"{verb} needs at least one child")
        if not all(isinstance(child, MapSpec) for child in children):
            raise DomainError(f"{verb} children must be MapSpec nodes")
        if len({child.dim for child in children}) != 1:
            raise DomainError(f"{participle} maps must share one dimension")
        object.__setattr__(self, "children", children)

    @property
    def dim(self) -> int:
        return self.children[0].dim

    @property
    def width(self) -> int:
        return max(child.width for child in self.children)


class ComposeMap(_Combinator):
    """Composition of equal-dimension maps; the last child applies first."""

    _words = ("compose", "composed")

    def _eval_batch(self, X):
        for child in reversed(self.children):
            X = child._eval_batch(X)
        return X


class SumMap(_Combinator):
    """Sum of equal-dimension maps, added in the order of the children."""

    _words = ("sum", "summed")

    def _eval_batch(self, X):
        acc = self.children[0]._eval_batch(X)
        for child in self.children[1:]:
            acc = acc + child._eval_batch(X)
        return acc


@dataclass(frozen=True, eq=False)
class ScaleMap(MapSpec):
    alpha: float
    child: MapSpec

    def __post_init__(self):
        object.__setattr__(self, "alpha", _scalar(self.alpha, "alpha"))
        if not (self.alpha > 0.0 and math.isfinite(self.alpha)):
            raise DomainError("scale factor must be positive and finite")
        if not isinstance(self.child, MapSpec):
            raise DomainError("scale child must be a MapSpec node")

    @property
    def dim(self) -> int:
        return self.child.dim

    @property
    def width(self) -> int:
        return self.child.width

    def _eval_batch(self, X):
        return self.alpha * self.child._eval_batch(X)


_OVERFLOW = ("map evaluation overflowed the floating range; reduce the "
             "sampling box radius or rescale the input")


def eval_map(spec: MapSpec, x) -> np.ndarray:
    """Evaluate ``spec`` at a cone point or an ``(m, n)`` batch of them."""
    X = as_real(x)
    if X.ndim not in (1, 2) or X.shape[-1] == 0:
        raise DomainError("expected a vector or a batch of vectors")
    require_cone(X)
    if X.shape[-1] != spec.dim:
        raise DomainError(f"map expects dimension {spec.dim}, got {X.shape[-1]}")
    with np.errstate(over="ignore", invalid="ignore"):
        Y = spec._eval_batch(X)
    if not (Y.min(initial=np.inf) > -np.inf and Y.max(initial=-np.inf) < np.inf):  # NaN fails
        raise OverflowError(_OVERFLOW)
    return Y


@dataclass(frozen=True)
class EigenResult:
    """Power-iteration outcome on the normalized slice.

    ``eigenvalue`` is read off the normalization coordinate at the final
    iterate; ``cw_range`` is the min/max coordinate ratio there
    (diagnostic bracket of the eigenvalue).
    """

    vector: np.ndarray
    eigenvalue: float
    iterations: int
    converged: bool
    cw_range: tuple[float, float]


def power_iteration(spec: MapSpec, x0, max_iter: int = 10 ** 5) -> EigenResult:
    """Iterate the normalized map until a Hilbert-metric step is < ``POWER_TOL``.

    The iterate is a point, which the kernels take as it is.  Each step
    takes one log, since this step's log(next) is the next step's log(x),
    and one finiteness test of the step: any non-finite log ratio makes
    max - min non-finite, and finite ratios mean the image is finite and
    the next iterate a finite cone point.  Only when that test fails do
    the exact checks run, in order, to raise the error that names the
    fault.

    Exhausting the budget is reported honestly via ``converged=False``,
    not raised: an unbounded or empty eigenspace makes the iteration
    wander forever.
    """
    x = to_slice(x0)
    if x.size != spec.dim:
        raise DomainError("start point dimension mismatch")
    step = math.inf
    iterations = 0
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        lx = np.log(x)
        while iterations < max_iter:
            fx = spec._eval_batch(x)
            nxt = fx / fx[-1]
            lnxt = np.log(nxt)
            ratios = lnxt - lx
            ratios.sort()  # max - min; a NaN sorts last
            step = float(ratios[-1] - ratios[0])
            if not math.isfinite(step):
                if not np.all(np.isfinite(fx)):
                    raise OverflowError(_OVERFLOW)
                if not np.all(np.isfinite(nxt)):
                    raise DomainError("vector entries must be finite")
                require_cone(nxt)
            x, lx = nxt, lnxt
            iterations += 1
            if step < POWER_TOL:
                break
    fx = eval_map(spec, x)
    ratios = fx / x
    return EigenResult(
        vector=x,
        eigenvalue=float(fx[-1]),
        iterations=iterations,
        converged=step < POWER_TOL,
        cw_range=(float(np.min(ratios)), float(np.max(ratios))),
    )


# ---------------------------------------------------------------------------
# JSON wire format


def _extended(obj: dict, name: str, what: str):
    """Field ``name`` of a mean term as given, or "inf", "+inf", "-inf" as a float."""
    value = obj[name]
    if isinstance(value, str):
        text = value.strip().lower()
        if text in ("inf", "+inf"):
            return math.inf
        if text == "-inf":
            return -math.inf
        raise DomainError(f"unrecognized {what} {value!r}")
    return value


def _mean_term_from_dict(obj: dict) -> MeanTerm:
    r = _extended(obj, "r", "mean exponent")
    sigma = as_real(obj["sigma"], "sigma")
    total = float(np.sum(sigma))
    if abs(total - 1.0) > JSON_SIGMA_TOL:
        raise DomainError("sigma weights must sum to 1 within 1e-9")
    return MeanTerm(r=r, sigma=sigma / total, coeff=_extended(obj, "coeff", "mean coefficient"))


def map_spec_from_dict(obj) -> MapSpec:
    if not isinstance(obj, dict) or "kind" not in obj:
        raise DomainError("map spec nodes must be objects with a 'kind' tag")
    kind = obj["kind"]
    try:
        if kind == "matrix":
            return MatrixMap(obj["matrix"])
        if kind == "schoen":
            return SchoenMap(obj["coefficients"])
        if kind == "triangle":
            return TriangleMap(obj["c"])
        if kind == "meansum":
            rows = tuple(
                tuple(_mean_term_from_dict(t) for t in row)
                for row in obj["coordinates"]
            )
            return MeanSumMap(rows)
        if kind in ("compose", "sum"):
            node = ComposeMap if kind == "compose" else SumMap
            return node(tuple(map_spec_from_dict(c) for c in obj["children"]))
        if kind == "scale":
            return ScaleMap(obj["alpha"], map_spec_from_dict(obj["child"]))
    except KeyError as exc:
        raise DomainError(f"map spec node {kind!r} is missing field {exc}") from exc
    raise DomainError(f"unrecognized map kind {kind!r}")
