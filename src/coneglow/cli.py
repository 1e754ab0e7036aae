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
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
from concurrent.futures import ProcessPoolExecutor

import numpy as np

from . import conemaps, detector, localize
from .errors import BudgetError, ConstructionError, DomainError, NonterminationError
from .spaces import NormId, hilbert_metric

_SEED_MOD = 2 ** 64


class CliError(Exception):
    """Fatal CLI error; its message goes to stderr and the exit code is 1."""


def _load_json(path: str):
    if path.lstrip().startswith("{"):  # inline spec instead of a path
        try:
            return json.loads(path)
        except json.JSONDecodeError as exc:
            raise CliError(f"<inline>:{exc.lineno}:{exc.colno}: {exc.msg}") from exc
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise CliError(f"{path}: {exc.strerror or exc}") from exc
    except json.JSONDecodeError as exc:
        raise CliError(f"{path}:{exc.lineno}:{exc.colno}: {exc.msg}") from exc


def _load_map_file(path: str):
    """Returns ('cone', MapSpec) or ('affine', (A, b, NormId))."""
    doc = _load_json(path)
    if isinstance(doc, dict) and doc.get("kind") == "affine":
        try:
            A = np.asarray(doc["matrix"], dtype=float)
            b = np.asarray(doc["offset"], dtype=float)
            norm_tag = doc["norm"]
        except KeyError as exc:
            raise CliError(f"{path}: affine spec is missing field {exc}") from exc
        except (TypeError, ValueError) as exc:
            raise CliError(f"{path}: affine spec has a non-numeric entry ({exc})") from exc
        if A.ndim != 2 or A.shape[0] != A.shape[1]:
            raise CliError(f"{path}: affine matrix must be square")
        if b.shape != (A.shape[0],):
            raise CliError(f"{path}: affine offset length must match the matrix")
        if norm_tag not in ("sup", "euclid"):
            raise CliError(f"{path}: affine norm must be 'sup' or 'euclid'")
        return "affine", (A, b, NormId(norm_tag))
    try:
        return "cone", conemaps.map_spec_from_dict(doc)
    except (TypeError, ValueError) as exc:  # DomainError, or a non-numeric entry
        raise CliError(f"{path}: {exc}") from exc


def _config_from_args(args, seed=None) -> detector.DetectionConfig:
    try:
        return detector.DetectionConfig(
            box_radius=args.box_radius,
            max_samples=args.max_samples,
            seed=args.seed if seed is None else seed,
            gap_tol=args.gap_tol,
        )
    except DomainError as exc:
        raise CliError(str(exc)) from exc


def _affine_callable(A: np.ndarray, b: np.ndarray):
    def f(X):
        return X @ A.T + b
    return f


def _write_bytes(path: str | None, payload: bytes) -> None:
    if path is None:
        sys.stdout.write(payload.decode())
    else:
        with open(path, "wb") as fh:
            fh.write(payload)


def cmd_detect(args) -> int:
    kind, payload = _load_map_file(args.spec)
    config = _config_from_args(args)
    if kind == "cone":
        report = detector.detect_eigenvector(payload, config)
    else:
        A, b, norm_id = payload
        f = _affine_callable(A, b)
        if norm_id is NormId.SUP:
            report = detector.detect_fixed_point_sup(
                f, A.shape[0], config, vectorized=True
            )
        else:
            report = detector.detect_fixed_point_smooth(
                f, A.shape[0], config, vectorized=True
            )
    _write_bytes(args.out, report.to_json_bytes())
    return 0 if report.confirmed else 2


def cmd_localize(args) -> int:
    kind, payload = _load_map_file(args.spec)
    doc = _load_json(args.report)
    try:
        report = detector.DetectionReport.from_json_dict(doc)
    except (KeyError, TypeError, ValueError) as exc:
        raise CliError(f"{args.report}: malformed report ({exc})") from exc
    if not report.confirmed:
        raise CliError("nothing to localize: the report is not confirmed")

    if kind == "cone":
        spec = payload
        if report.dimension != spec.dim:
            raise CliError("report/spec dimension mismatch")
        if report.kind != "eigenvector":
            raise CliError("cone specs need an eigenvector report")
        witnesses = [report.witnesses[m] for m in sorted(report.witnesses)]
        ball = localize.localize_eigenvectors(witnesses, spec.dim)
        eig = conemaps.power_iteration(spec, np.ones(spec.dim))
        print(f"eigenvector: {eig.vector.tolist()}")
        print(f"eigenvalue: {eig.eigenvalue}")
        distance = hilbert_metric(eig.vector, ball.center)
        if distance > ball.radius + 1e-9:
            raise CliError(
                f"containment violated: eigenvector at Hilbert distance "
                f"{distance} exceeds radius {ball.radius}"
            )
        payload_bytes = (json.dumps(ball.to_json_dict(), indent=2) + "\n").encode()
        _write_bytes(args.out, payload_bytes)
        return 0

    A, b, norm_id = payload
    if report.dimension != A.shape[0]:
        raise CliError("report/spec dimension mismatch")
    if norm_id is NormId.SUP:
        if report.kind != "fixed_point_sup":
            raise CliError("sup-norm affine specs need a sup detection report")
        witnesses = [report.witnesses[m] for m in sorted(report.witnesses)]
        ball = localize.localize_fixed_points(witnesses, NormId.SUP)
        fixed = np.linalg.solve(np.eye(A.shape[0]) - A, b)
        print(f"fixed point: {fixed.tolist()}")
        distance = float(np.max(np.abs(fixed - ball.center)))
        if distance > ball.radius + 1e-9:
            raise CliError(
                f"containment violated: fixed point at sup distance "
                f"{distance} exceeds radius {ball.radius}"
            )
        payload_bytes = (json.dumps(ball.to_json_dict(), indent=2) + "\n").encode()
        _write_bytes(args.out, payload_bytes)
        return 0

    if report.kind != "fixed_point_smooth" or report.probe_points is None:
        raise CliError("euclid affine specs need a smooth detection report")
    f = _affine_callable(A, b)
    polytope, bounded = localize.halfspace_polytope(
        lambda w: f(w[None, :])[0], report.probe_points
    )
    doc = polytope.to_json_dict()
    doc["bounded"] = bounded
    _write_bytes(args.out, (json.dumps(doc, indent=2) + "\n").encode())
    return 0


def _run_trial(packed):
    spec_dict, box_radius, max_samples, gap_tol, seed = packed
    spec = conemaps.map_spec_from_dict(spec_dict)
    config = detector.DetectionConfig(
        box_radius=box_radius, max_samples=max_samples,
        seed=seed, gap_tol=gap_tol,
    )
    report = detector.detect_eigenvector(spec, config)
    return report.samples_used, int(report.confirmed)


def cmd_trials(args) -> int:
    if args.trials < 1:
        raise CliError("--trials must be at least 1")
    kind, spec = _load_map_file(args.spec)
    if kind != "cone":
        raise CliError("trials require a cone map spec")
    base = _config_from_args(args)
    spec_dict = conemaps.map_spec_to_dict(spec)
    jobs = [
        (spec_dict, base.box_radius, base.max_samples, base.gap_tol,
         (base.seed + t) % _SEED_MOD)
        for t in range(args.trials)
    ]

    raw = os.environ.get("CONEGLOW_THREADS", "1")
    if not (raw.strip().isdigit() and int(raw) >= 1):
        raise CliError(f"CONEGLOW_THREADS must be a positive integer, not {raw!r}")
    workers = min(int(raw), os.cpu_count() or 1, args.trials)
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_run_trial, jobs, chunksize=8))
    else:
        results = [_run_trial(job) for job in jobs]

    counts = [samples for samples, _ in results]
    lines = ["# config " + json.dumps(
        {"box_radius": base.box_radius, "max_samples": base.max_samples,
         "seed": base.seed, "gap_tol": base.gap_tol, "trials": args.trials}
    )]
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
        try:
            ref = [float(part) for part in args.expect.split(",")]
            ref_min, ref_max, ref_mean, ref_median = ref
        except ValueError as exc:
            raise CliError("--expect wants 'min,max,mean,median'") from exc
        print(f"expected: min: {ref_min}  max: {ref_max}  "
              f"mean: {ref_mean}  median: {ref_median}")
        print(f"diff: mean {summary[2] - ref_mean:+.3f}  "
              f"median {float(summary[3]) - ref_median:+.3f}")
    return 0 if all(confirmed for _, confirmed in results) else 2


def _add_config_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--seed", type=int, default=0,
                        help="unsigned 64-bit RNG seed (default 0)")
    parser.add_argument("--box-radius", type=float, default=100.0,
                        help="sampling box radius (default 100)")
    parser.add_argument("--max-samples", type=int, default=100000,
                        help="sample budget per run (default 100000)")
    parser.add_argument("--gap-tol", type=float, default=1e-9,
                        help="relative strictness gap (default 1e-9)")


def build_parser() -> argparse.ArgumentParser:
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
    p_detect.add_argument("--format", choices=["json"], default="json")
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
    p_tr.add_argument("--format", choices=["csv"], default="csv")
    p_tr.add_argument("--expect",
                      help="reference 'min,max,mean,median' to diff against")
    p_tr.set_defaults(func=cmd_trials)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (CliError, DomainError, BudgetError, NonterminationError,
            ConstructionError, OverflowError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
