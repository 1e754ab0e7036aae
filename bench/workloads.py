"""The four benchmark workloads.

Each workload draws a list of alike items from its seed, runs one item
as the timed operation (``run``), and checks the item's outputs apart
from coneglow (``collect`` then ``verify``, untimed).  Calls into
coneglow go through module attributes (``detector.detect_eigenvector``)
so that the tracer can see them.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
from pathlib import Path

import numpy as np

from coneglow import cli, conemaps, detector, localize

import oracle
from oracle import require


class OperationFailed(Exception):
    """The program refused an operation that should have succeeded."""


def _rng(tag: int, seed: int) -> np.random.Generator:
    return np.random.default_rng([tag, seed])


def _seeds(rng, count):
    return [int(s) for s in rng.integers(0, 2 ** 63, size=count)]


class EigenLocalize:
    """The user's CLI pipeline on the bundled Schoen composition: one
    ``detect`` and one ``localize`` per item, each in-process through
    ``cli.main`` with report files in a scratch directory."""

    name = "eigen_localize"

    def __init__(self, root: Path, seed: int, count: int, scratch: Path):
        self.spec = root / "specs" / "schoen_composition.json"
        self.f = oracle.schoen_composition(json.loads(self.spec.read_text()))
        self.n = 4
        self.eigenvector = oracle.normalized_eigenvector(self.f, self.n)
        self.report = scratch / "report.json"
        self.ball = scratch / "ball.json"
        seeds = _seeds(_rng(1, seed), count + 1)
        self.warmup, self.items = seeds[0], seeds[1:]

    def run(self, seed):
        with contextlib.redirect_stdout(io.StringIO()):
            detect = cli.main(["detect", "--spec", str(self.spec),
                               "--seed", str(seed), "--out", str(self.report)])
            if detect != 0:
                raise OperationFailed(f"detect exited {detect}")
            loc = cli.main(["localize", "--spec", str(self.spec),
                            "--report", str(self.report), "--out", str(self.ball)])
            if loc != 0:
                raise OperationFailed(f"localize exited {loc}")

    def collect(self, seed, raw):
        return {"report": json.loads(self.report.read_text()),
                "ball": json.loads(self.ball.read_text())}

    def verify(self, seed, out):
        report, ball = out["report"], out["ball"]
        require(report["status"] == "confirmed", "report is not confirmed")
        require(report["seed"] == seed, "report names another seed")
        witnesses = {sum(1 << i for i in w["subset"]): np.array(w["point"])
                     for w in report["witnesses"]}
        oracle.check_ratio_witnesses(self.f, witnesses, self.n)
        require(ball["metric"] == "hilbert", "ball is not a Hilbert-metric ball")
        r0 = oracle.variation_circumradius(oracle.slice_logs(list(witnesses.values())))
        expected = (2 * self.n - 1) * r0
        require(abs(ball["radius"] - expected) <= 1e-7 * expected,
                f"radius {ball['radius']!r} is not (2n-1) R0 = {expected!r}")
        distance = oracle.hilbert_distance(self.eigenvector, ball["center"])
        require(distance <= ball["radius"] * (1.0 + 1e-9),
                f"eigenvector lies {distance:.6g} from the center, "
                f"outside radius {ball['radius']:.6g}")


class EigenDetect:
    """One ``detect_eigenvector`` per item on an n = 8 ``meansum`` map:
    each coordinate adds a full-support mean with r in {0, 1, 2, inf} to
    one with r in {-inf, -1, 0, 1}.  The r >= 0 mean keeps the eigenvector
    set nonempty and bounded, so every item confirms.

    Item k uses map k mod panel_size of a fixed panel and a detection seed
    drawn from the workload seed.  Mean samples to confirm differ by up to
    3x between maps, so a panel drawn afresh for each seed would move
    throughput between seeds by the luck of the draw.
    """

    name = "eigen_detect"
    n = 8
    first_r = (0.0, 1.0, 2.0, math.inf)
    second_r = (-math.inf, -1.0, 0.0, 1.0)
    # Near-uniform weights and coefficients keep the rarest subsets from
    # being orders of magnitude rarer on some maps than on others.
    concentration = 20.0
    coeff_range = (0.8, 1.25)
    panel_size = 64
    panel_seed = 20160706

    def __init__(self, root: Path, seed: int, count: int, scratch: Path):
        panel_rng = _rng(2, self.panel_seed)
        panel = [self._draw_map(panel_rng) for _ in range(self.panel_size)]
        seeds = _seeds(_rng(2, seed), count + 1)
        drawn = [(panel[k % self.panel_size], s) for k, s in enumerate(seeds)]
        self.warmup, self.items = drawn[-1], drawn[:-1]

    def _draw_map(self, rng):
        coordinates = []
        for _ in range(self.n):
            terms = []
            for choices in (self.first_r, self.second_r):
                sigma = rng.dirichlet(np.full(self.n, self.concentration))
                terms.append((choices[rng.integers(len(choices))],
                              sigma / sigma.sum(),
                              float(rng.uniform(*self.coeff_range))))
            coordinates.append(terms)
        return coordinates

    def run(self, item):
        coordinates, seed = item
        spec = conemaps.MeanSumMap(tuple(
            tuple(conemaps.MeanTerm(r=r, sigma=sigma, coeff=coeff)
                  for r, sigma, coeff in terms)
            for terms in coordinates))
        return detector.detect_eigenvector(spec, detector.DetectionConfig(seed=seed))

    def collect(self, item, report):
        return report

    def verify(self, item, report):
        coordinates, seed = item
        require(report.confirmed, "detection did not confirm")
        require(report.samples_used <= report.config.max_samples,
                "samples used exceed the budget")
        oracle.check_ratio_witnesses(oracle.power_mean_map(coordinates),
                                     report.witnesses, self.n)


class EuclidLocalize:
    """One n = 4 affine contraction per item (spectral norm below 1):
    ``detect_fixed_point_smooth`` and then ``halfspace_polytope`` on the
    probes of the confirmed report."""

    name = "euclid_localize"
    n = 4

    def __init__(self, root: Path, seed: int, count: int, scratch: Path):
        rng = _rng(3, seed)
        drawn = [self._draw(rng) for _ in range(count + 1)]
        self.warmup, self.items = drawn[0], drawn[1:]

    def _draw(self, rng):
        M = rng.normal(size=(self.n, self.n))
        A = M * (rng.uniform(0.3, 0.9) / np.linalg.norm(M, 2))
        fixed = rng.uniform(-10.0, 10.0, self.n)
        return A, fixed - A @ fixed, int(rng.integers(0, 2 ** 63))

    def run(self, item):
        A, b, seed = item

        def f(X):
            return X @ A.T + b

        report = detector.detect_fixed_point_smooth(
            f, self.n, detector.DetectionConfig(seed=seed), vectorized=True)
        if not report.confirmed:
            raise OperationFailed("smooth detection did not confirm")
        polytope, bounded = localize.halfspace_polytope(f, report.probe_points)
        return report, polytope, bounded

    def collect(self, item, raw):
        report, polytope, bounded = raw
        return {"report": report, "rows": polytope.rows, "bounded": bounded}

    def verify(self, item, out):
        A, b, seed = item
        require(out["report"].confirmed, "detection did not confirm")
        require(out["bounded"], "polytope is not flagged bounded")
        fixed = np.linalg.solve(np.eye(self.n) - A, b)
        oracle.check_in_polytope(out["rows"], fixed)
        P = out["report"].probe_points
        oracle.check_hull_interior(P @ A.T + b - P)


class NegativeControls:
    """One battery per item at one shared sample budget, all on maps
    without a bounded nonempty fixed-point or eigenvector set: a
    translation for ``detect_fixed_point_sup`` (n = 3), a
    ``build_adversarial_euclid`` map for ``detect_fixed_point_smooth``
    (n = 3) and the bundled ``triangle_c0`` for ``detect_eigenvector``.
    Every run must spend the whole budget and stay undetermined."""

    name = "negative_controls"
    n = 3
    budget = 10_000
    plane_distance = 1000.0

    def __init__(self, root: Path, seed: int, count: int, scratch: Path):
        spec = json.loads((root / "specs" / "triangle_c0.json").read_text())
        self.triangle = conemaps.map_spec_from_dict(spec)
        rng = _rng(4, seed)
        drawn = [self._draw(rng) for _ in range(count + 1)]
        self.warmup, self.items = drawn[0], drawn[1:]

    def _draw(self, rng):
        shift = rng.uniform(0.5, 5.0, self.n) * rng.choice((-1.0, 1.0), self.n)
        # The base points -v_i span a plane at distance plane_distance from
        # 0 with unit normal u, so every residual is -plane_distance * u
        # plus a vector of length at most 100 * sqrt(3) in that plane:
        # within about 10 degrees of -u.  The separator cached from the
        # first residuals then holds for all later ones.  Nearer planes let
        # a late residual break it, and the detector re-solves the hull
        # program over every residual so far (see FOUND in CHANGES.md).
        normal = rng.normal(size=self.n)
        normal /= np.linalg.norm(normal)
        tangent = rng.normal(scale=30.0, size=(self.n, self.n))
        tangent -= np.outer(tangent @ normal, normal)
        directions = -(self.plane_distance * normal + tangent)
        level = float(rng.uniform(0.5, 2.0))
        return shift, directions, level, int(rng.integers(0, 2 ** 63))

    def run(self, item):
        shift, directions, level, seed = item
        config = detector.DetectionConfig(seed=seed, max_samples=self.budget)
        sup = detector.detect_fixed_point_sup(
            lambda X: X + shift, self.n, config, vectorized=True)
        adversary = detector.build_adversarial_euclid(directions, level)
        smooth = detector.detect_fixed_point_smooth(
            adversary, self.n, config, vectorized=True)
        eigen = detector.detect_eigenvector(self.triangle, config)
        return {"sup": sup, "smooth": smooth, "eigen": eigen, "adversary": adversary}

    def collect(self, item, raw):
        return raw

    def verify(self, item, out):
        shift, directions, level, seed = item
        for key in ("sup", "smooth", "eigen"):
            report = out[key]
            require(not report.confirmed, f"{key} detector confirmed a negative control")
            require(report.samples_used == self.budget,
                    f"{key} detector used {report.samples_used} of {self.budget} samples")
        adversary = out["adversary"]
        P = out["smooth"].probe_points
        inner = (adversary(P) - P) @ adversary.phi
        scale = level + np.abs(P) @ np.abs(adversary.phi)
        require(np.all(np.abs(inner + level) <= 1e-9 * scale),
                "adversarial map misses <phi, f(w) - w> = -c on the probes")


WORKLOADS = {cls.name: cls for cls in
             (EigenLocalize, EigenDetect, EuclidLocalize, NegativeControls)}

