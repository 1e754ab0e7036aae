"""Quick self-test of the benchmark.

    python3 bench/selftest.py

Runs every workload on two items through the same set-up, run and check
code as ``bench/run.py``, then shows that each check rejects a corrupted
output: two witnesses swapped, a radius shrunk, a status flipped, and a
few more.  Exits 0 when every clean output passes and every corrupted
one is rejected.
"""

from __future__ import annotations

import copy
import dataclasses
import sys
import tempfile
from pathlib import Path

import run
from oracle import CheckFailed
from workloads import WORKLOADS

from coneglow import detector


def flipped(report):
    status = (detector.DetectionStatus.UNDETERMINED if report.confirmed
              else detector.DetectionStatus.CONFIRMED)
    return dataclasses.replace(report, status=status)


def swapped_witnesses(report):
    """Witnesses of the singletons {0} and {1} exchanged; no point can
    realize both."""
    witnesses = dict(report.witnesses)
    witnesses[1], witnesses[2] = witnesses[2], witnesses[1]
    return dataclasses.replace(report, witnesses=witnesses)


def eigen_localize_corruptions(out):
    def swap(doc):
        doc["report"]["witnesses"][0]["point"], doc["report"]["witnesses"][1]["point"] = (
            doc["report"]["witnesses"][1]["point"], doc["report"]["witnesses"][0]["point"])

    def shrink(doc):
        doc["ball"]["radius"] *= 0.999

    def flip(doc):
        doc["report"]["status"] = "undetermined"

    for label, corrupt in (("witnesses swapped", swap), ("radius shrunk", shrink),
                           ("status flipped", flip)):
        doc = copy.deepcopy(out)
        corrupt(doc)
        yield label, doc


def eigen_detect_corruptions(report):
    yield "witnesses swapped", swapped_witnesses(report)
    yield "status flipped", flipped(report)
    witnesses = dict(report.witnesses)
    witnesses.pop(max(witnesses))
    yield "subset missing", dataclasses.replace(report, witnesses=witnesses)


def euclid_corruptions(out):
    yield "bounded flag flipped", dict(out, bounded=False)
    yield "status flipped", dict(out, report=flipped(out["report"]))
    rows = tuple((normal, offset - 1e3 * (1.0 + abs(offset))) for normal, offset in out["rows"])
    yield "polytope shifted", dict(out, rows=rows)
    report = out["report"]
    probes = report.probe_points.copy()
    probes[:, 0] = abs(probes[:, 0]) + 1e3  # every probe far on one side
    yield "probes moved", dict(out, report=dataclasses.replace(report, probe_points=probes))


def negative_corruptions(out):
    yield "status flipped", dict(out, smooth=flipped(out["smooth"]))
    short = dataclasses.replace(out["eigen"], samples_used=out["eigen"].samples_used - 1)
    yield "budget not spent", dict(out, eigen=short)
    adversary = out["adversary"]
    yield "adversary level changed", dict(
        out, adversary=dataclasses.replace(adversary, c=2.0 * adversary.c,
                                           base_points=adversary.base_points * 2.0))


CORRUPTIONS = {
    "eigen_localize": eigen_localize_corruptions,
    "eigen_detect": eigen_detect_corruptions,
    "euclid_localize": euclid_corruptions,
    "negative_controls": negative_corruptions,
}


def main() -> int:
    problems = 0
    run.OUT_DIR.mkdir(exist_ok=True)
    for name in WORKLOADS:
        with tempfile.TemporaryDirectory(dir=run.OUT_DIR) as scratch:
            workload, wrong = run.set_up(name, 0, 1.0, Path(scratch))
            phase = run.run_items(workload, count=2)
            clean = not (wrong or phase.failed or phase.wrong)
            print(f"{'PASS' if clean else 'FAIL'} {name}: 2 items run and checked")
            problems += not clean
            item = workload.items[0]
            out = workload.collect(item, workload.run(item))
            for label, corrupted in CORRUPTIONS[name](out):
                try:
                    workload.verify(item, corrupted)
                    caught = None
                except CheckFailed as exc:
                    caught = exc
                print(f"{'PASS' if caught else 'FAIL'} {name}: {label} "
                      f"{'rejected (' + str(caught) + ')' if caught else 'accepted'}")
                problems += caught is None
    print("self-test", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
