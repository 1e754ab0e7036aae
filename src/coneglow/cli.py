"""Command-line front end.

Subcommands:

* ``detect``   run a seeded detection on a map-spec file and write the
               report (exit 0 confirmed, 2 undetermined, 1 error).
* ``localize`` turn a confirmed report into a bounding ball (or, for
               Euclidean affine maps, a half-space polytope).
* ``trials``   run repeated seeded detections and emit per-trial sample
               counts as CSV with a summary row.

Map-spec files are JSON.  Cone maps use the tagged-tree schema of
``coneglow.conemaps``; the only non-cone format is an affine map
``{"kind": "affine", "matrix": .., "offset": .., "norm": "sup"|"euclid"}``
detected in its declared norm.  Every output embeds the full config
(seed, box radius, gap tolerance, budget) needed to re-run identically.

Refused input raises the library's ``DomainError``; it, an ``OverflowError``
from map arithmetic and an ``OSError`` each end in one ``error:`` line, exit 1.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import os
import stat
import statistics
import sys

import numpy as np

from . import conemaps, detector, localize
from .errors import DomainError
from .spaces import NormId, as_real


def _label(path: str) -> str:
    """Names a --spec or --report argument in errors; inline JSON reads <inline>."""
    return "<inline>" if path.lstrip().startswith("{") else path


def _load_json(path: str):
    label = _label(path)
    try:
        if label == "<inline>":
            return json.loads(path)
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise DomainError(f"{path}: {exc.strerror or exc}") from exc
    except json.JSONDecodeError as exc:
        raise DomainError(f"{label}:{exc.lineno}:{exc.colno}: {exc.msg}") from exc
    except UnicodeDecodeError as exc:
        raise DomainError(f"{label}: not UTF-8 text ({exc.reason})") from exc
    except RecursionError as exc:
        raise DomainError(f"{label}: JSON nested too deeply") from exc
    except ValueError as exc:  # an integer past Python's digit limit
        raise DomainError(f"{label}: {str(exc).split(';')[0]}") from exc


def _load_map_file(path: str):
    """Returns (report kind, batch map, dimension, payload); the payload
    is the MapSpec of a cone map, or (A, b) of an affine map."""
    doc = _load_json(path)
    label = _label(path)
    if isinstance(doc, dict) and doc.get("kind") == "affine":
        try:
            A, b = (as_real(doc[name], f"affine {name}") for name in ("matrix", "offset"))
            norm_tag = doc["norm"]
        except KeyError as exc:
            raise DomainError(f"{label}: affine spec is missing field {exc}") from exc
        except DomainError as exc:
            raise DomainError(f"{label}: {exc}") from exc
        if A.ndim != 2 or A.shape[0] != A.shape[1]:
            raise DomainError(f"{label}: affine matrix must be square")
        if b.shape != (A.shape[0],):
            raise DomainError(f"{label}: affine offset length must match the matrix")
        for name, entries in (("matrix", A), ("offset", b)):
            if not np.all(np.isfinite(entries)):
                raise DomainError(f"{label}: affine {name} entries must be finite")
        if norm_tag not in ("sup", "euclid"):
            raise DomainError(f"{label}: affine norm must be 'sup' or 'euclid'")
        kind = "fixed_point_sup" if norm_tag == "sup" else "fixed_point_smooth"
        return kind, (lambda X: X @ A.T + b), len(b), (A, b)
    try:
        spec = conemaps.map_spec_from_dict(doc)
    except (TypeError, ValueError) as exc:  # DomainError included
        raise DomainError(f"{label}: {exc}") from exc
    return "eigenvector", (lambda X: conemaps.eval_map(spec, X)), spec.dim, spec


def _config_from_args(args) -> detector.DetectionConfig:
    return detector.DetectionConfig(
        box_radius=args.box_radius,
        max_samples=args.max_samples,
        seed=args.seed,
        gap_tol=args.gap_tol,
    )


def _write_bytes(path: str | None, payload: bytes) -> None:
    if path is None:
        sys.stdout.write(payload.decode())
        return
    # Overwrite in place and cut to length afterwards.  Opening with "wb"
    # truncates to zero first, and ext4 (auto_da_alloc) then forces the new
    # data to disk on close; /dev/null and FIFOs cannot be cut.
    fd = os.open(path, os.O_WRONLY | os.O_CREAT, 0o666)
    with os.fdopen(fd, "wb") as fh:
        fh.write(payload)
        if stat.S_ISREG(os.fstat(fd).st_mode):
            fh.truncate()


def cmd_detect(args) -> int:
    kind, f, n, payload = _load_map_file(args.spec)
    config = _config_from_args(args)
    if kind == "eigenvector":
        report = detector.detect_eigenvector(payload, config)
    else:
        detect = (detector.detect_fixed_point_sup if kind == "fixed_point_sup"
                  else detector.detect_fixed_point_smooth)
        report = detect(f, n, config)
    _write_bytes(args.out, report.to_json_bytes())
    return 0 if report.confirmed else 2


def cmd_localize(args) -> int:
    kind, f, n, payload = _load_map_file(args.spec)
    doc = _load_json(args.report)
    try:
        report = detector.DetectionReport.from_json_dict(doc)
    except (KeyError, TypeError, ValueError) as exc:  # DomainError included
        raise DomainError(f"{_label(args.report)}: malformed report ({exc})") from exc
    if report.dimension != n:
        raise DomainError("report/spec dimension mismatch")
    if report.kind != kind:
        raise DomainError(f"this spec needs a {kind} report, not {report.kind}")
    points = report.verify(f)

    if kind == "eigenvector":
        region = localize.localize_eigenvectors(points, n)
        eig = conemaps.power_iteration(payload, np.ones(n))
        if eig.converged:
            print(f"eigenvector: {eig.vector.tolist()}")
            print(f"eigenvalue: {eig.eigenvalue}")
            known, name = eig.vector, "eigenvector"
        else:  # no reference point to check the ball against
            print(f"eigenvector: not converged after {eig.iterations} power iterations")
            known = None
        out = region.to_json_dict()
    else:
        A, b = payload
        try:
            known, name = np.linalg.solve(np.eye(n) - A, b), "fixed point"
        except np.linalg.LinAlgError as exc:  # no unique fixed point to check against
            raise DomainError("I - A is singular, so the affine map has no bounded, "
                              "nonempty fixed-point set; the report cannot hold") from exc
        if kind == "fixed_point_sup":
            region = localize.localize_fixed_points(points, NormId.SUP)
            print(f"fixed point: {known.tolist()}")
            out = region.to_json_dict()
        else:
            region, bounded = localize.halfspace_polytope(f, points)
            out = dict(region.to_json_dict(), bounded=bounded)
    if known is not None and not region.contains(known):
        raise DomainError(f"containment violated: the {name} {known.tolist()} "
                          f"lies outside the localized set")
    _write_bytes(args.out, (json.dumps(out, indent=2) + "\n").encode())
    return 0


def cmd_trials(args) -> int:
    if args.trials < 1:
        raise DomainError("--trials must be at least 1")
    if args.expect:
        try:
            ref_min, ref_max, ref_mean, ref_median = map(float, args.expect.split(","))
        except ValueError as exc:
            raise DomainError("--expect wants 'min,max,mean,median'") from exc
    kind, _, _, spec = _load_map_file(args.spec)
    if kind != "eigenvector":
        raise DomainError("trials require a cone map spec")
    base = _config_from_args(args)
    results = []
    for t in range(args.trials):
        config = dataclasses.replace(base, seed=(base.seed + t) % detector._SEED_MOD)
        report = detector.detect_eigenvector(spec, config)
        results.append((report.samples_used, int(report.confirmed)))

    counts = [samples for samples, _ in results]
    lines = ["# config " + json.dumps(dict(base.to_json_dict(), trials=args.trials))]
    lines.append("trial_index,samples_used,confirmed")
    for t, (samples, confirmed) in enumerate(results):
        lines.append(f"{t},{samples},{confirmed}")
    summary = (min(counts), max(counts), statistics.fmean(counts),
               statistics.median(counts))
    lines.append(f"-1,{summary[0]},{summary[1]},{summary[2]!r},{summary[3]!r}")
    _write_bytes(args.out, ("\n".join(lines) + "\n").encode())

    print(f"trials: {args.trials}  min: {summary[0]}  max: {summary[1]}  "
          f"mean: {summary[2]}  median: {summary[3]}")
    if args.expect:
        print(f"expected: min: {ref_min}  max: {ref_max}  "
              f"mean: {ref_mean}  median: {ref_median}")
        print(f"diff: mean {summary[2] - ref_mean:+.3f}  "
              f"median {float(summary[3]) - ref_median:+.3f}")
    return 0 if all(confirmed for _, confirmed in results) else 2


def _add_config_flags(parser: argparse.ArgumentParser) -> None:
    default = detector.DetectionConfig()
    parser.add_argument("--seed", type=int, default=default.seed,
                        help="unsigned 64-bit RNG seed (default %(default)s)")
    parser.add_argument("--box-radius", type=float, default=default.box_radius,
                        help="sampling box radius (default %(default)s)")
    parser.add_argument("--max-samples", type=int, default=default.max_samples,
                        help="sample budget per run (default %(default)s)")
    parser.add_argument("--gap-tol", type=float, default=default.gap_tol,
                        help="relative strictness gap, in [0, 1) (default %(default)s)")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The one parser of this process; parsing does not change it."""
    parser = argparse.ArgumentParser(
        prog="coneglow",
        description="Certify and localize fixed points of nonexpansive maps "
                    "and positive eigenvectors of cone maps.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_detect = sub.add_parser("detect", help="run a seeded detection")
    p_detect.add_argument("--spec", required=True, help="map-spec JSON path")
    _add_config_flags(p_detect)
    p_detect.add_argument("--out", help="report output path (default stdout)")
    p_detect.set_defaults(func=cmd_detect)

    p_loc = sub.add_parser("localize", help="bound the set from a report")
    p_loc.add_argument("--spec", required=True, help="map-spec JSON path")
    p_loc.add_argument("--report", required=True, help="confirmed report path")
    p_loc.add_argument("--out", help="output path (default stdout)")
    p_loc.set_defaults(func=cmd_localize)

    p_tr = sub.add_parser("trials", help="repeated seeded detections, CSV out")
    p_tr.add_argument("--spec", required=True, help="cone map-spec JSON path")
    p_tr.add_argument("--trials", type=int, default=500)
    _add_config_flags(p_tr)
    p_tr.add_argument("--out", help="CSV output path (default stdout)")
    p_tr.add_argument("--expect",
                      help="reference 'min,max,mean,median' to diff against")
    p_tr.set_defaults(func=cmd_trials)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (DomainError, OverflowError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
