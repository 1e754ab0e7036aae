"""Randomized certification of nonempty bounded fixed-point/eigenvector sets.

Three detectors share one sampling skeleton:

* ``detect_eigenvector`` draws cone points ``Exp(y)`` with ``y`` uniform
  in a box inside V0 and records, per sample, every nonempty proper
  subset J whose coordinate ratios ``f(x)_j / x_j`` sit strictly below
  the rest.  Full coverage of the 2**n - 2 subsets certifies a nonempty
  eigenspace that is bounded in Hilbert's metric.
* ``detect_fixed_point_sup`` records strict sign patterns of
  ``f(w) - w`` for box samples; all 2**n patterns certify a sup-norm
  nonexpansive map.
* ``detect_fixed_point_smooth`` accumulates residuals and certifies once
  0 enters the interior of their convex hull (Euclidean norm).

Runs are deterministic given the config: samples come from a PCG64
stream seeded by ``config.seed``, consumed in sample order, so the
internal batch size never changes results.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .errors import BudgetError, ConstructionError, DomainError
from .conemaps import MapSpec, eval_map
from .illumination import interior_hull_certificate, separates
from .spaces import ENUMERATION_DIM_CAP, as_cone_point, as_vector

_SEED_MOD = 2 ** 64
# Box radii beyond this overflow exp() during cone sampling.
_MAX_LOG_BOX = 700.0
_BATCH_PLAN = (32, 64, 128, 256, 512, 1024, 2048)
_BATCH_MAX = 4096


@dataclass(frozen=True)
class SubsetMask:
    """A nonempty proper subset of {0, .., n-1} as a bitmask."""

    bits: int
    n: int

    def __post_init__(self):
        if not (1 <= self.n <= ENUMERATION_DIM_CAP):
            raise DomainError(f"dimension must be in 1..{ENUMERATION_DIM_CAP}")
        if not (0 < self.bits < (1 << self.n) - 1):
            raise DomainError("mask must denote a nonempty proper subset")

    def indices(self) -> tuple[int, ...]:
        return tuple(i for i in range(self.n) if (self.bits >> i) & 1)


@dataclass(frozen=True)
class DetectionConfig:
    box_radius: float = 100.0
    max_samples: int = 10 ** 5
    seed: int = 0
    gap_tol: float = 1e-9

    def __post_init__(self):
        if not (math.isfinite(self.box_radius) and self.box_radius > 0.0):
            raise DomainError("box radius must be positive and finite")
        if self.max_samples < 1:
            raise DomainError("sample budget must be at least 1")
        if not (0 <= self.seed < _SEED_MOD):
            raise DomainError("seed must be an unsigned 64-bit integer")
        if not (math.isfinite(self.gap_tol) and self.gap_tol >= 0.0):
            raise DomainError("gap tolerance must be nonnegative")

    def to_json_dict(self) -> dict:
        return {
            "box_radius": self.box_radius,
            "max_samples": self.max_samples,
            "seed": self.seed,
            "gap_tol": self.gap_tol,
        }


class DetectionStatus(Enum):
    CONFIRMED = "confirmed"
    UNDETERMINED = "undetermined"


@dataclass
class DetectionReport:
    """Outcome of a detection run; immutable by convention once returned.

    ``witnesses`` maps a subset/pattern bitmask to the first sample that
    realized it.  Smooth (Euclidean) runs have no masks; they store the
    accumulated probe points instead.
    """

    kind: str
    status: DetectionStatus
    dimension: int
    samples_used: int
    subsets_covered: int
    total_subsets: int
    seed: int
    config: DetectionConfig
    witnesses: dict[int, np.ndarray] = field(default_factory=dict)
    probe_points: np.ndarray | None = None

    @property
    def confirmed(self) -> bool:
        return self.status is DetectionStatus.CONFIRMED

    def to_json_dict(self) -> dict:
        doc = {
            "kind": self.kind,
            "status": self.status.value,
            "dimension": self.dimension,
            "samples_used": self.samples_used,
            "subsets_covered": self.subsets_covered,
            "total_subsets": self.total_subsets,
            "seed": self.seed,
            "config": self.config.to_json_dict(),
            "witnesses": [
                {
                    "subset": [i for i in range(self.dimension)
                               if (mask >> i) & 1],
                    "point": self.witnesses[mask].tolist(),
                }
                for mask in sorted(self.witnesses)
            ],
        }
        if self.probe_points is not None:
            doc["probe_points"] = [row.tolist() for row in self.probe_points]
        return doc

    def to_json_bytes(self) -> bytes:
        return (json.dumps(self.to_json_dict(), indent=2) + "\n").encode()

    @staticmethod
    def from_json_dict(doc: dict) -> "DetectionReport":
        config = DetectionConfig(**doc["config"])
        witnesses = {}
        for entry in doc["witnesses"]:
            mask = sum(1 << i for i in entry["subset"])
            witnesses[mask] = np.asarray(entry["point"], dtype=float)
        probe = doc.get("probe_points")
        return DetectionReport(
            kind=doc["kind"],
            status=DetectionStatus(doc["status"]),
            dimension=doc["dimension"],
            samples_used=doc["samples_used"],
            subsets_covered=doc["subsets_covered"],
            total_subsets=doc["total_subsets"],
            seed=doc["seed"],
            config=config,
            witnesses=witnesses,
            probe_points=None if probe is None else np.asarray(probe, dtype=float),
        )


def _cut_masks(rho: np.ndarray, gap_tol: float):
    """Subset bitmasks realized by each row of log-ratios.

    A subset satisfies the strict ratio inequality exactly when it holds
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


def ratio_subsets(spec: MapSpec, x, gap_tol: float = 1e-9) -> list[SubsetMask]:
    """Subsets whose coordinate ratios of ``f(x)/x`` sit strictly lowest.

    At most n-1 subsets can qualify for a single point.  The gap is
    measured in log space, relative to ``max(1, spread)``.
    """
    xa = as_cone_point(x)
    fx = eval_map(spec, xa)
    rho = (np.log(fx) - np.log(xa))[None, :]
    masks, valid = _cut_masks(rho, gap_tol)
    n = xa.size
    return [SubsetMask(int(m), n) for m, v in zip(masks[0], valid[0]) if v]


def _batch_plan(limit: int, plan):
    sizes = list(plan) if plan is not None else None
    remaining = limit
    i = 0
    while remaining > 0:
        if sizes is not None:
            size = sizes[min(i, len(sizes) - 1)]
        else:
            size = _BATCH_PLAN[i] if i < len(_BATCH_PLAN) else _BATCH_MAX
        i += 1
        size = min(size, remaining)
        remaining -= size
        yield size


def detect_eigenvector(spec: MapSpec, config: DetectionConfig,
                       _batches=None) -> DetectionReport:
    """Randomized eigenvector certification on the positive cone.

    Draws slice points, accumulates realized ratio subsets, and stops at
    full coverage (Confirmed) or at the sample budget (Undetermined; not
    evidence of absence).  Deterministic given the config seed.
    """
    n = spec.dim
    if n > ENUMERATION_DIM_CAP:
        raise BudgetError(f"detection is capped at n <= {ENUMERATION_DIM_CAP}")
    if config.box_radius > _MAX_LOG_BOX:
        raise DomainError(
            f"box radius above {_MAX_LOG_BOX} overflows exp(); reduce it"
        )
    total = (1 << n) - 2
    rng = np.random.default_rng(config.seed)
    covered = np.zeros(1 << n, dtype=bool)
    witnesses: dict[int, np.ndarray] = {}
    count = 0
    used = 0

    def finish(status, samples):
        return DetectionReport(
            kind="eigenvector", status=status, dimension=n,
            samples_used=samples, subsets_covered=count,
            total_subsets=total, seed=config.seed, config=config,
            witnesses=witnesses,
        )

    if total == 0:
        return finish(DetectionStatus.CONFIRMED, 0)

    R = config.box_radius
    for size in _batch_plan(config.max_samples, _batches):
        Y = rng.uniform(-R, R, size=(size, n - 1))
        X = np.empty((size, n))
        np.exp(Y, out=X[:, : n - 1])
        X[:, -1] = 1.0
        FX = eval_map(spec, X)
        rho = np.log(FX)
        rho[:, : n - 1] -= Y
        masks, valid = _cut_masks(rho, config.gap_tol)
        fresh = valid & ~covered[masks]
        for row in np.nonzero(fresh.any(axis=1))[0]:
            for k in np.nonzero(valid[row])[0]:
                mask = int(masks[row, k])
                if not covered[mask]:
                    covered[mask] = True
                    witnesses[mask] = X[row].copy()
                    count += 1
            if count == total:
                return finish(DetectionStatus.CONFIRMED, used + int(row) + 1)
        used += size
    return finish(DetectionStatus.UNDETERMINED, used)


def _batch_apply(f, X, vectorized):
    if vectorized:
        out = np.asarray(f(X), dtype=float)
        if out.shape != X.shape:
            raise DomainError("vectorized map must preserve the batch shape")
        return out
    return np.stack([np.asarray(f(x), dtype=float) for x in X])


def detect_fixed_point_sup(f, n: int, config: DetectionConfig,
                           vectorized: bool = False,
                           _batches=None) -> DetectionReport:
    """Sign-pattern certification for a sup-norm nonexpansive map.

    The caller asserts nonexpansiveness; pass ``vectorized=True`` when
    ``f`` accepts an ``(m, n)`` batch.  Patterns only count when every
    residual coordinate clears the strictness slack.
    """
    if n < 1 or n > ENUMERATION_DIM_CAP:
        raise BudgetError(f"detection is capped at n <= {ENUMERATION_DIM_CAP}")
    total = 1 << n
    rng = np.random.default_rng(config.seed)
    covered = np.zeros(total, dtype=bool)
    witnesses: dict[int, np.ndarray] = {}
    count = 0
    used = 0
    powers = np.int64(1) << np.arange(n, dtype=np.int64)
    R = config.box_radius

    for size in _batch_plan(config.max_samples, _batches):
        W = rng.uniform(-R, R, size=(size, n))
        residuals = _batch_apply(f, W, vectorized) - W
        slack = config.gap_tol * np.maximum(
            1.0, np.max(np.abs(residuals), axis=1)
        )
        strict = np.min(np.abs(residuals), axis=1) > slack
        masks = (residuals < 0.0) @ powers
        fresh = strict & ~covered[masks]
        for row in np.nonzero(fresh)[0]:
            mask = int(masks[row])
            if not covered[mask]:
                covered[mask] = True
                witnesses[mask] = W[row].copy()
                count += 1
                if count == total:
                    return DetectionReport(
                        kind="fixed_point_sup",
                        status=DetectionStatus.CONFIRMED, dimension=n,
                        samples_used=used + int(row) + 1,
                        subsets_covered=count, total_subsets=total,
                        seed=config.seed, config=config, witnesses=witnesses,
                    )
        used += size
    return DetectionReport(
        kind="fixed_point_sup", status=DetectionStatus.UNDETERMINED,
        dimension=n, samples_used=used, subsets_covered=count,
        total_subsets=total, seed=config.seed, config=config,
        witnesses=witnesses,
    )


def detect_fixed_point_smooth(f, n: int, config: DetectionConfig,
                              vectorized: bool = False) -> DetectionReport:
    """Convex-hull certification for a Euclidean-nonexpansive map.

    After every n+1 new samples the accumulated residuals are tested for
    0 in the interior of their convex hull.  Between tests a cached
    separating functional skips re-solves: while every residual stays on
    its nonnegative side the verdict cannot have flipped.
    """
    if n < 1:
        raise DomainError("dimension must be at least 1")
    rng = np.random.default_rng(config.seed)
    R = config.box_radius
    stride = n + 1
    chunk = max(stride, (1024 // stride) * stride)

    # Buffers double on demand, so an early confirmation stays small.
    points = np.empty((chunk, n))
    residuals = np.empty((chunk, n))
    phi: np.ndarray | None = None
    used = 0
    next_boundary = stride

    while used < config.max_samples:
        size = min(chunk, config.max_samples - used)
        W = rng.uniform(-R, R, size=(size, n))
        res = _batch_apply(f, W, vectorized) - W
        if used + size > len(points):
            extra = np.empty((min(config.max_samples, 2 * used) - used, n))
            points = np.vstack([points[:used], extra])
            residuals = np.vstack([residuals[:used], extra])
        points[used:used + size] = W
        residuals[used:used + size] = res
        used += size
        while next_boundary <= used:
            b = next_boundary
            if phi is None or not separates(residuals[b - stride:b], phi):
                cert = interior_hull_certificate(residuals[:b])
                if cert.inside:
                    return DetectionReport(
                        kind="fixed_point_smooth",
                        status=DetectionStatus.CONFIRMED, dimension=n,
                        samples_used=b, subsets_covered=0, total_subsets=0,
                        seed=config.seed, config=config,
                        probe_points=points[:b].copy(),
                    )
                phi = cert.separator
            next_boundary += stride
    return DetectionReport(
        kind="fixed_point_smooth", status=DetectionStatus.UNDETERMINED,
        dimension=n, samples_used=used, subsets_covered=0, total_subsets=0,
        seed=config.seed, config=config, probe_points=points[:used].copy(),
    )


@dataclass(frozen=True, eq=False)
class AdversarialMapSpec:
    """A Euclidean-nonexpansive map with empty fixed-point set.

    ``f(x) = <phi, x> z - c z`` sends every base point to 0, so the
    supplied directions appear as residuals there, yet iterates from the
    origin march off along ``-z`` forever.  Useful as a negative-control
    fixture: no sound detector may ever confirm it.
    """

    phi: np.ndarray
    z: np.ndarray
    c: float
    base_points: np.ndarray

    def __post_init__(self):
        phi = as_vector(self.phi)
        z = as_vector(self.z)
        W = np.atleast_2d(np.asarray(self.base_points, dtype=float))
        object.__setattr__(self, "phi", phi)
        object.__setattr__(self, "z", z)
        object.__setattr__(self, "c", float(self.c))
        object.__setattr__(self, "base_points", W)
        if np.max(np.abs(W @ phi - self.c)) > 1e-9 * max(1.0, abs(self.c)):
            raise ConstructionError("base points must satisfy <phi, w> = c")
        if abs(float(phi @ z) - 1.0) > 1e-9:
            raise ConstructionError("normalization <phi, z> = 1 violated")
        tightness = float(np.linalg.norm(phi) * np.linalg.norm(z))
        if abs(tightness - 1.0) > 1e-9:
            raise ConstructionError("Euclidean tightness |phi||z| = 1 violated")

    def __call__(self, x):
        X = np.asarray(x, dtype=float)
        if X.ndim == 1:
            return (float(X @ self.phi) - self.c) * self.z
        return (X @ self.phi - self.c)[:, None] * self.z[None, :]


def build_adversarial_euclid(directions, c: float) -> AdversarialMapSpec:
    """Build the no-fixed-point map realizing the given residual directions.

    Takes m < n+1 directions ``v_i`` and a level ``c > 0``; the base
    points are ``w_i = -v_i`` and ``phi`` is the minimum-norm solution of
    ``<phi, w_i> = c``, rescaled into ``z = phi / |phi|^2`` so the map is
    exactly Euclidean-nonexpansive with ``f(w_i) = 0``.
    """
    V = np.atleast_2d(np.asarray(directions, dtype=float))
    if V.ndim != 2 or V.shape[0] == 0:
        raise DomainError("at least one direction is required")
    m, n = V.shape
    if m >= n + 1:
        raise DomainError("the construction needs m < n+1 directions")
    if not (c > 0.0 and math.isfinite(c)):
        raise DomainError("the level c must be positive and finite")
    W = -V
    phi, *_ = np.linalg.lstsq(W, np.full(m, c), rcond=None)
    if np.max(np.abs(W @ phi - c)) > 1e-9 * max(1.0, c):
        raise ConstructionError(
            "base points admit no functional at level c; perturb them"
        )
    norm_sq = float(phi @ phi)
    if norm_sq <= 0.0:
        raise ConstructionError("degenerate functional; perturb the directions")
    z = phi / norm_sq
    return AdversarialMapSpec(phi=phi, z=z, c=c, base_points=W)
