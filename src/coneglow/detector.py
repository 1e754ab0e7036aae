"""Randomized certification of nonempty bounded fixed-point/eigenvector sets.

Every detector runs one test: sample points, take the map's residuals in
the right coordinates, and ask whether they illuminate the unit ball.
``_draws`` yields batches of points X and their coordinates Y, and
``_residuals`` is ``log f(X) - Y`` on the cone (``X = Exp(Y)``, Y in a
box inside V0) and ``f(X) - Y`` with ``X = Y`` otherwise, and is the
one check of a map's values.  Then:

* ``detect_eigenvector`` cuts each residual into the subsets J whose
  ratios ``f(x)_j / x_j`` sit strictly below the rest
  (``illumination.variation_masks``), ``detect_fixed_point_sup`` into
  its strict sign pattern (``illumination.sup_masks``).  One loop,
  ``_cover``, holds the coverage: it cuts each batch, keeps the first
  witness of each mask, and certifies once all are covered.  Random
  detection is a coupon collector, so most rows arrive when few subsets
  are left: once at most n eigenvector subsets are, ``_cover`` lists
  them from its ``covered`` flags and tests each batch against them
  alone (``illumination._variation_first_rows``) instead of sorting
  every row.  That test compares the floats the sort compares, so the
  witnesses are the same.
* ``detect_fixed_point_smooth`` certifies once 0 enters the interior of
  the residuals' convex hull (Euclidean norm).

``DetectionReport.verify`` re-derives a report's certificate from the
map through the same ``_residuals``, without trusting the search.
Detectors and reports share one dimension rule, ``_check_dimension``.
"""

from __future__ import annotations

import itertools
import json
import math
import sys
from dataclasses import asdict, dataclass, field
from enum import Enum

import numpy as np

from .errors import DomainError
from .conemaps import MapSpec, eval_map
from .illumination import (
    ENUMERATION_DIM_CAP, _variation_first_rows, interior_hull_certificate, separates, sup_masks,
    variation_masks,
)
from .spaces import _require_number, as_points, as_real

_SEED_MOD = 2 ** 64
# Box radii beyond this overflow exp() during cone sampling.
_MAX_LOG_BOX = 700.0
# Each batch pays a fixed cost in NumPy calls, so sizes ramp up 8x at a
# time; the first batch covers a typical confirmation.
_BATCH_PLAN = (32, 256, 2048)
_BATCH_MAX = 4096
# Floats in any one array a batch builds: rows are capped at this over the
# widest per-row array, the (m, n) samples or the map's own (``MapSpec.width``,
# e.g. a meansum map's (m, terms) term matrix), so no such array holds more
# than 128 KiB, and exactly that at widths 4, 8 and 16.  With its chunk
# header that is just past glibc's default mmap threshold, which glibc
# raises as soon as a mapped block is freed, so batch arrays come from the
# heap, not from fresh mappings that page-fault in again.  A batch of one
# smooth-detector block of n+1 rows passes the cap above n = 127.
_BATCH_COORDS = 2 ** 14
# Per report kind: the masks a confirmed report covers in dimension n, the
# mask code that re-derives them (None: the hull of the probe residuals),
# and whether its residuals are taken in the cone's log coordinates.
_KINDS = {
    "eigenvector": (lambda n: (1 << n) - 2, variation_masks, True),
    "fixed_point_sup": (lambda n: 1 << n, sup_masks, False),
    "fixed_point_smooth": (lambda n: 0, None, False),
}


def _is_int(value) -> bool:
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def _is_positive(value) -> bool:
    """``value > 0`` and not inf or NaN; an int past the float range, which
    overflows ``math.isfinite``, is compared as an int."""
    return (isinstance(value, int) or math.isfinite(value)) and value > 0.0


@dataclass(frozen=True)
class DetectionConfig:
    box_radius: float = 100.0
    max_samples: int = 10 ** 5
    seed: int = 0
    gap_tol: float = 1e-9

    def __post_init__(self):
        radius = _require_number(self.box_radius, "box radius")
        gap_tol = _require_number(self.gap_tol, "gap tolerance")
        if not _is_positive(radius):
            raise DomainError("box radius must be positive and finite")
        if radius > sys.float_info.max / 2:  # uniform() needs 2R
            shown = (repr(float(radius)) if radius <= sys.float_info.max
                     else f"of {radius.bit_length()} bits")
            raise DomainError(f"box radius {shown} is too large: the box width 2R overflows")
        if not (_is_int(self.max_samples) and _is_int(self.seed)):
            raise DomainError("sample budget and seed must be integers")
        if self.max_samples < 1:
            raise DomainError("sample budget must be at least 1")
        if not (0 <= self.seed < _SEED_MOD):
            raise DomainError("seed must be an unsigned 64-bit integer")
        # A gap of at least 1 times the scale is never met: no mask could count.
        if not 0.0 <= gap_tol < 1.0:
            raise DomainError("gap tolerance must be in [0, 1)")
        # Python numbers, so the report's JSON takes NumPy scalars too
        for name, value in (("box_radius", radius), ("gap_tol", gap_tol),
                            ("max_samples", int(self.max_samples)), ("seed", int(self.seed))):
            object.__setattr__(self, name, value)

    def to_json_dict(self) -> dict:
        return asdict(self)


class DetectionStatus(Enum):
    CONFIRMED = "confirmed"
    UNDETERMINED = "undetermined"


@dataclass
class DetectionReport:
    """Outcome of a detection run; immutable by convention once returned.

    ``witnesses`` maps a subset/pattern bitmask to the first sample that
    realized it.  Smooth (Euclidean) runs have no masks; they store the
    accumulated probe points instead.  ``seed``, ``subsets_covered`` and
    ``total_subsets`` follow from the config, the witnesses and the kind.
    """

    kind: str
    status: DetectionStatus
    dimension: int
    samples_used: int
    config: DetectionConfig
    witnesses: dict[int, np.ndarray] = field(default_factory=dict)
    probe_points: np.ndarray | None = None

    @property
    def confirmed(self) -> bool:
        return self.status is DetectionStatus.CONFIRMED

    @property
    def seed(self) -> int:
        return self.config.seed

    @property
    def subsets_covered(self) -> int:
        return len(self.witnesses)

    @property
    def total_subsets(self) -> int:
        return _KINDS[self.kind][0](self.dimension)

    def verify(self, f) -> np.ndarray:
        """Re-derive the certificate from the map; return the checked points.

        ``f`` is the map on an ``(m, n)`` batch (for an eigenvector report,
        the cone map, e.g. ``lambda X: eval_map(spec, X)``).  Witnesses, in
        mask order, must each realize their own mask under the detectors'
        mask code at half the report's gap (the JSON round trip can move a
        ratio by one ulp), and together cover all ``total_subsets``; the probe
        residuals of a smooth report must pass ``interior_hull_certificate``,
        the one NNLS solve that confirmed the run.
        Raises DomainError otherwise, and when the report is not confirmed.
        """
        if not self.confirmed:
            raise DomainError("nothing to localize: the report is not confirmed")
        _, masks_of, cone = _KINDS[self.kind]
        claimed = sorted(self.witnesses)
        points = (self.probe_points if masks_of is None else
                  np.reshape([self.witnesses[m] for m in claimed],
                             (len(claimed), self.dimension)))
        R = _residuals(f, points, cone)
        if masks_of is None:
            if not interior_hull_certificate(R).inside:
                raise DomainError("0 is not interior to the hull of the probe residuals")
            return points
        masks, valid = masks_of(R, self.config.gap_tol / 2)
        realized = (valid & (masks == np.array(claimed)[:, None])).any(axis=1)
        if not realized.all():
            bad = claimed[int(np.argmin(realized))]
            subset = [i for i in range(bad.bit_length()) if (bad >> i) & 1]
            raise DomainError(f"witness for subset {subset} does not realize it")
        if len(claimed) != self.total_subsets:
            raise DomainError(f"witnesses cover {len(claimed)} of {self.total_subsets} subsets")
        return points

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
        """``json.dumps(self.to_json_dict(), indent=2)`` and a newline, as
        UTF-8.  The header still goes through ``json.dumps``; the witness
        entries, and the probe rows, are filled into one format string
        each, numbers by ``%r``: ``float.__repr__`` and ``int.__repr__``,
        which is how ``json`` writes finite values.  A report whose points
        are not lists of ``dimension`` finite floats goes through
        ``json.dumps`` whole."""
        doc = self.to_json_dict()
        n, witnesses = self.dimension, doc["witnesses"]
        points = [entry["point"] for entry in witnesses]
        probe = doc.get("probe_points", [])
        if not (n >= 1 and _finite_float_rows(points, n) and _finite_float_rows(probe, n)):
            return (json.dumps(doc, indent=2) + "\n").encode()
        header = {name: value for name, value in doc.items()
                  if name not in ("witnesses", "probe_points")}
        witness = '{\n      "subset": %s,\n      "point": ' + _float_list(n, 8) + "\n    }"
        parts = [json.dumps(header, indent=2)[:-2], ',\n  "witnesses": ',
                 _json_entries(witness, len(points), itertools.chain.from_iterable(
                     (_int_list(entry["subset"]), *point)
                     for entry, point in zip(witnesses, points)))]
        if "probe_points" in doc:
            parts += [',\n  "probe_points": ', _json_entries(
                _float_list(n, 6), len(probe), itertools.chain.from_iterable(probe))]
        parts.append("\n}\n")
        return "".join(parts).encode()

    @staticmethod
    def from_json_dict(doc: dict) -> "DetectionReport":
        """Rebuild a report; a field whose type, range, shape or count does
        not fit the report's kind, dimension and config, a subset listed
        twice, or a derived field that disagrees with its source, raises
        DomainError."""
        kind, n = doc["kind"], doc["dimension"]
        if kind not in _KINDS:
            raise DomainError(f"unknown report kind {kind!r}")
        _check_dimension(kind, n)
        total = _KINDS[kind][0](n)
        config = DetectionConfig(**doc["config"])
        used = doc["samples_used"]
        if not (_is_int(used) and 0 <= used <= config.max_samples):
            raise DomainError(f"samples_used must be an integer in 0..{config.max_samples}")
        entries = doc["witnesses"]
        try:  # all points at once; after a fault, reading entry by entry names the first
            points = as_real([entry["point"] for entry in entries], "witness point")
            if points.shape != (len(entries), n):
                points = None
        except (KeyError, TypeError, DomainError):
            points = None
        witnesses = {}
        for k, entry in enumerate(entries):
            subset = entry["subset"]
            if not (all(_is_int(i) and 0 <= i < n for i in subset)
                    and len(set(subset)) == len(subset)):
                raise DomainError(f"subset {subset} must list distinct indices in 0..{n - 1}")
            if points is None:
                point = as_real(entry["point"], "witness point")
                if point.shape != (n,):
                    raise DomainError(f"witness points must have shape ({n},)")
            else:
                point = points[k]
            witnesses[sum(1 << i for i in subset)] = point
        if len(witnesses) < len(entries):
            raise DomainError("each subset may have only one witness")
        for name, value in (("total_subsets", total), ("subsets_covered", len(witnesses)),
                            ("seed", config.seed)):
            if not (_is_int(doc[name]) and doc[name] == value):
                raise DomainError(f"{name} must be {value}")
        if len(witnesses) > total:
            raise DomainError(f"a {kind} report of dimension {n} has at most {total} witnesses")
        probe = doc.get("probe_points")
        if (probe is None) != (_KINDS[kind][1] is not None):
            raise DomainError("probe points come with smooth reports, and only with them")
        if probe is not None:
            probe = as_real(probe, "probe point")
            if probe.shape != (used, n):
                raise DomainError(f"probe points must have shape ({used}, {n}), "
                                  "one row per sample used")
        return DetectionReport(
            kind=kind,
            status=DetectionStatus(doc["status"]),
            dimension=n,
            samples_used=used,
            config=config,
            witnesses=witnesses,
            probe_points=probe,
        )


# Pieces of a report as ``json.dumps(..., indent=2)`` lays it out; the
# witnesses and probe points are lists in the top-level object.
def _finite_float_rows(rows: list, n: int) -> bool:
    """Every row is a list of n finite floats."""
    if not ({list}.issuperset(map(type, rows)) and {n}.issuperset(map(len, rows))):
        return False
    numbers = list(itertools.chain.from_iterable(rows))
    return {float}.issuperset(map(type, numbers)) and all(map(math.isfinite, numbers))


def _float_list(n: int, indent: int) -> str:
    """A format for a list of n floats whose entries sit ``indent`` spaces in."""
    pad = "\n" + " " * indent
    return "[" + pad + ("," + pad).join(["%r"] * n) + pad[:-2] + "]"


def _int_list(items: list) -> str:
    """A witness subset: its ints sit 8 spaces in."""
    return ("[\n        " + ",\n        ".join(map(int.__repr__, items)) + "\n      ]"
            if items else "[]")


def _json_entries(entry: str, count: int, args) -> str:
    """``count`` entries of the format ``entry``, filled from ``args``."""
    if not count:
        return "[]"
    return ("[\n    " + ",\n    ".join([entry] * count) + "\n  ]") % tuple(args)


def _check_dimension(kind: str, n) -> None:
    """n is an integer >= 1, and at most the cap for the kinds that enumerate masks."""
    if not (_is_int(n) and n >= 1):
        raise DomainError("dimension must be at least 1")
    if _KINDS[kind][1] is not None and n > ENUMERATION_DIM_CAP:
        raise DomainError(f"detection is capped at n <= {ENUMERATION_DIM_CAP}")


def _check_arguments(kind: str, n, config: DetectionConfig, vectorized) -> int:
    """Return the checked dimension n as a Python int."""
    if not vectorized:
        raise DomainError("maps must take an (m, n) batch; vectorized=False is not supported")
    _check_dimension(kind, n)
    if _KINDS[kind][2] and config.box_radius > _MAX_LOG_BOX:
        raise DomainError(f"box radius above {_MAX_LOG_BOX} overflows exp(); reduce it")
    return int(n)


def _residuals(f, X, cone: bool, Y=None) -> np.ndarray:
    """``log f(X) - Y`` on the cone, ``f(X) - Y`` otherwise; Y holds X's
    coordinates (``log X`` on the cone).  Detectors pass their drawn Y, as
    ``log(exp(y))`` can differ from y by an ulp and change witnesses.  f
    must keep X's shape, and every residual must be finite, which on the
    cone also refuses map values that are zero or negative.  Off the cone,
    finite map values whose residual overflows get their own message."""
    with np.errstate(all="ignore"):
        FX = np.asarray(f(X), dtype=float)
        if FX.shape != X.shape:
            raise DomainError("the map must preserve the batch shape")
        if Y is None:  # after f, which refuses points outside its domain
            Y = np.log(X) if cone else X
        R = (np.log(FX) if cone else FX) - Y
    if not (R.min(initial=np.inf) > -np.inf and R.max(initial=-np.inf) < np.inf):  # NaN fails
        if cone:
            raise DomainError("map values must be positive and finite")
        if not np.all(np.isfinite(FX)):
            raise DomainError("map values must be finite")
        raise DomainError("residuals f(x) - x must be finite; they overflow")
    return R


def _draws(config: DetectionConfig, n: int, cone: bool, block: int,
           width: int | None = None):
    """Yield ``(offset, X, Y)``: sample points X and their coordinates Y.

    Y is uniform in the box; on the cone its last column is 0, so the
    slice point ``X = exp(Y)`` ends in exactly 1.  Batches ramp through
    ``_BATCH_PLAN`` (32, 256, 2048 rows), then stay at ``_BATCH_MAX``
    rows, within ``_BATCH_COORDS // width`` rows.  ``width`` (n if None)
    is the column count of the widest per-row array the map builds, so
    no array of a batch holds more than 2**14 floats, 128 KiB: 2048 rows
    at width 8, 1024 for a meansum map of 16 terms, and n <= 4 keeps the
    plan when the map is no wider.  Sizes round down to whole blocks of
    ``block`` rows (n+1 for the smooth detector, 1 for the mask
    detectors) but hold at least one, which passes the cap only if the
    block does; only the budget's end cuts a block.  The unit draws are
    scaled in place to ``-R + 2R * u``, bit for bit what
    ``rng.uniform(-R, R)`` computes; on the cone one copy puts them
    beside the zero column, faster than writing the scaled draws through
    a strided view.  PCG64 is consumed in sample order, so batch sizes
    never change which samples are drawn.
    """
    rng = np.random.default_rng(config.seed)
    R = config.box_radius
    sizes = itertools.chain(_BATCH_PLAN, itertools.repeat(_BATCH_MAX))
    cap = _BATCH_COORDS // (n if width is None else width)
    offset = 0
    while offset < config.max_samples:
        size = min(next(sizes), cap)
        size = min(max(size - size % block, block), config.max_samples - offset)
        Y = rng.random((size, n - 1 if cone else n))
        Y *= 2.0 * R
        Y -= R
        if cone:
            Y, drawn = np.empty((size, n)), Y
            Y[:, :-1] = drawn
            Y[:, -1] = 0.0
        yield offset, np.exp(Y) if cone else Y, Y
        offset += size


def _tail_subsets(n: int) -> int:
    """How few uncovered subsets the eigenvector detector tests one by one.

    On a 2-vCPU VM a 1024 x 8 batch sorts in about 116 us, while the tail
    test takes about 23 us plus 14 us per subset, so the sort wins from
    about n subsets on; the ``eigen_detect`` panel's mask work per item was
    flat between n/2 and 3n.  At n = 3 a 32-row batch sorts faster than
    it tests all 6 subsets, so the tail waits for n.
    """
    return n


def _cover(kind: str, n: int, config: DetectionConfig, batches) -> DetectionReport:
    """Record the first witness of each mask until all are covered.

    ``batches`` yields ``(offset, points, residuals)``, one row per
    sample; it is not consumed when the kind's total is 0.  Each batch is
    cut by the kind's mask code: boolean indexing runs in row-major order,
    so ``np.unique``'s first index of a fresh mask is its first row.  Once
    at most ``_tail_subsets(n)`` eigenvector subsets are uncovered, they
    are listed once from ``covered``, and each batch is tested against
    them alone by ``_variation_first_rows``, which gives the first row of
    each directly; the list then only shrinks, by the subsets it covers.
    """
    total_of, masks_of, _ = _KINDS[kind]
    total = total_of(n)
    covered = np.zeros(1 << n, dtype=bool)
    witnesses: dict[int, np.ndarray] = {}
    dark = None
    used = 0
    for offset, points, R in batches if total else ():
        used = offset + len(points)
        if dark is None and kind == "eigenvector" and total - len(witnesses) <= _tail_subsets(n):
            dark = np.flatnonzero(~covered[1:-1]) + 1
        if dark is None:
            masks, valid = masks_of(R, config.gap_tol)
            fresh = valid & ~covered[masks]
            found = masks[fresh]
            if not found.size:
                continue
            new, first = np.unique(found, return_index=True)
            rows = np.nonzero(fresh)[0][first]
        else:
            first = _variation_first_rows(R, dark, config.gap_tol)
            lit = first >= 0
            new, rows, dark = dark[lit], first[lit], dark[~lit]
        covered[new] = True
        witnesses.update(zip(new.tolist(), points[rows]))
        if len(witnesses) == total:
            used = offset + int(rows.max()) + 1
            break
    status = (DetectionStatus.CONFIRMED if len(witnesses) == total
              else DetectionStatus.UNDETERMINED)
    return DetectionReport(kind=kind, status=status, dimension=n, samples_used=used,
                           config=config, witnesses=witnesses)


def _detect_masks(kind: str, f, n: int, width: int, config: DetectionConfig) -> DetectionReport:
    """``_cover`` the residuals of ``_draws``' batches; the caller has run
    ``_check_arguments``."""
    cone = _KINDS[kind][2]
    return _cover(kind, n, config, ((offset, X, _residuals(f, X, cone, Y))
                                    for offset, X, Y in _draws(config, n, cone, 1, width)))


def detect_eigenvector(spec: MapSpec, config: DetectionConfig) -> DetectionReport:
    """Randomized eigenvector certification on the positive cone.

    Draws slice points, accumulates realized ratio subsets, and stops at
    full coverage (Confirmed) or at the sample budget (Undetermined; not
    evidence of absence).  Deterministic given the config seed.  Batches
    are sized by ``spec.width``, read once the dimension has been checked.
    """
    n = _check_arguments("eigenvector", spec.dim, config, True)
    return _detect_masks("eigenvector", lambda X: eval_map(spec, X), n, spec.width, config)


def detect_fixed_point_sup(f, n: int, config: DetectionConfig,
                           vectorized: bool = True) -> DetectionReport:
    """Sign-pattern certification for a sup-norm nonexpansive map.

    The caller asserts nonexpansiveness; ``f`` takes an ``(m, n)`` batch
    (``vectorized=False`` is refused).  Patterns only count when every
    residual coordinate clears the strictness slack.
    """
    n = _check_arguments("fixed_point_sup", n, config, vectorized)
    return _detect_masks("fixed_point_sup", f, n, n, config)


def detect_fixed_point_smooth(f, n: int, config: DetectionConfig,
                              vectorized: bool = True) -> DetectionReport:
    """Convex-hull certification for a Euclidean-nonexpansive map.

    ``f`` takes an ``(m, n)`` batch (``vectorized=False`` is refused).
    After every n+1 new samples the accumulated residuals are tested for
    0 in the interior of their convex hull.  A cached separating
    functional skips the tests while every residual stays on its
    nonnegative side, up to the rounding of f(x) - x at the box's scale:
    ``separates`` with the box radius as its reach.  At the first n+1
    block that breaks it, one ``interior_hull_certificate`` solve either
    confirms or returns the next separator.

    ``_draws`` cuts batches on n+1 boundaries, so each batch starts where
    the last verdict ended.  The batches stay in lists as drawn: the
    residuals are joined only when a solve needs them all, and the points
    once, for the report's probe points.
    """
    n = _check_arguments("fixed_point_smooth", n, config, vectorized)
    stride = n + 1
    points: list[np.ndarray] = []
    residuals: list[np.ndarray] = []
    phi: np.ndarray | None = None
    status = DetectionStatus.UNDETERMINED
    for offset, W, _ in _draws(config, n, False, stride):
        R = _residuals(f, W, False)
        points.append(W)
        residuals.append(R)
        used = offset + len(W)
        b, last = offset, used - used % stride
        while b < last:
            if phi is None:
                b += stride
            else:
                broken = ~separates(R[b - offset:last - offset], phi, config.box_radius)
                if not broken.any():
                    break
                b += (int(np.argmax(broken)) // stride + 1) * stride
            if len(residuals) > 1:
                residuals[:] = [np.concatenate(residuals)]
            cert = interior_hull_certificate(residuals[0][:b])
            if cert.inside:
                status, used = DetectionStatus.CONFIRMED, b
                break
            phi = cert.separator
        if status is DetectionStatus.CONFIRMED:
            break
    points[-1] = points[-1][:used - offset]
    return DetectionReport(
        kind="fixed_point_smooth", status=status, dimension=n,
        samples_used=used, config=config, probe_points=np.concatenate(points),
    )


@dataclass(frozen=True, eq=False)
class _AdversarialMap:
    """``f(x) = (<phi, x> - c) z``: Euclidean-nonexpansive, with no fixed point.

    f sends each base point to 0, so the directions appear as residuals there,
    yet iterates from 0 run off along ``-z``: no sound detector may confirm it.
    """

    phi: np.ndarray
    z: np.ndarray
    c: float
    base_points: np.ndarray

    def __call__(self, x):  # a point, or each row of an (m, n) batch
        return np.multiply.outer(np.asarray(x, dtype=float) @ self.phi - self.c, self.z)


def build_adversarial_euclid(directions, c: float) -> _AdversarialMap:
    """The negative-control map whose residuals at its base points are ``directions``.

    Takes m < n+1 directions ``v_i`` (one 1-d direction, or an ``(m, n)`` array)
    and a level ``c > 0``.  The base points are ``w_i = -v_i``, ``phi`` is the
    least-norm solution of ``<phi, w_i> = c``, and ``z = phi / |phi|^2``.
    """
    V = as_points(np.atleast_2d(as_real(directions)))  # one 1-d direction is one row
    m, n = V.shape
    if m >= n + 1:
        raise DomainError("the construction needs m < n+1 directions")
    c = _require_number(c, "level c")
    if not (_is_positive(c) and c <= sys.float_info.max):
        raise DomainError("the level c must be positive and finite")
    c = float(c)
    W = -V
    with np.errstate(all="ignore"):
        phi, *_ = np.linalg.lstsq(W, np.full(m, c), rcond=None)
        gap = np.max(np.abs(W @ phi - c))
        norm_sq = float(phi @ phi)
    if not gap <= 1e-9 * max(1.0, c):
        raise DomainError("base points admit no functional at level c; perturb them")
    # below the normal range |phi|^2 loses the bits z = phi / |phi|^2 needs
    if not sys.float_info.min <= norm_sq < math.inf:
        raise DomainError("the functional's norm leaves the float range; rescale the directions")
    return _AdversarialMap(phi=phi, z=phi / norm_sq, c=c, base_points=W)
