"""coneglow benchmark: one workload, single-threaded, in one process.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; coneglow is imported from its ``src/``.
The workload's items are drawn from ``--seed``.  Items run one after
another until ``--seconds`` of wall time have passed; every output is
checked apart from coneglow.  The last line of standard output is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``:
the end-to-end metrics with ``--trace 0``, the per-layer metrics of a
traced run with ``--trace 1``.  Details and spans go to ``bench/out/``.

Timings are reported on a reference core.  The effective speed of a
shared machine can drift by tens of percent between states that last
from seconds to minutes, so after every item a fixed probe of Python and
NumPy calls is timed, and each item's wall time is scaled by
``PROBE_REFERENCE_S`` over the geometric mean of the probe times just
before and just after it.  The raw wall times stay in the result file.
"""

from __future__ import annotations

import os

# Pin BLAS to one thread before NumPy loads.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import math
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"
SETUP_REPEATS = 5
# Probe time, best of three, that defines the reference core.
PROBE_REFERENCE_S = 6e-4
# Items drawn per second of run; a run that outpaces it reuses items.
ITEMS_PER_SECOND = 50
P90_MIN_ITEMS = 100

sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import coneglow  # noqa: E402

if Path(coneglow.__file__).resolve().parent != (ROOT / "src" / "coneglow").resolve():
    sys.exit(f"coneglow was imported from {coneglow.__file__}, not from {ROOT / 'src'}")

import tracing  # noqa: E402
from oracle import CheckFailed  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


_PROBE_ARRAY = np.arange(64.0)


def probe() -> float:
    """Seconds for a fixed mix of pure-Python and small-NumPy work, best
    of three.

    Item wall times of all four workloads grow with this probe's time as
    the machine's speed drifts, so item times scaled by it move far less
    than raw ones (see bench/README.md).
    """
    best = float("inf")
    for _ in range(3):
        t0 = time.perf_counter()
        total, table = 0, {}
        for i in range(4000):
            total += i * i
            table[i & 63] = total
        a = _PROBE_ARRAY
        for _ in range(125):
            a = np.sqrt(a * a + 1.0)
        best = min(best, time.perf_counter() - t0)
    return best


@dataclass
class Phase:
    """Outcome of running a stretch of items."""

    seconds: list[float] = field(default_factory=list)
    probes: list[float] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    wrong: list[str] = field(default_factory=list)

    def scaled(self) -> list[float]:
        """Item times on the reference core: each wall time times the
        reference probe time over the geometric mean of the probes taken
        just before and just after the item."""
        before = self.probes[:1] + self.probes[:-1]
        return [seconds * PROBE_REFERENCE_S / math.sqrt(b * a)
                for seconds, b, a in zip(self.seconds, before, self.probes)]

    @property
    def items_per_s(self) -> float:
        return len(self.seconds) / sum(self.scaled())


def run_items(workload, *, seconds=None, count=None, tracer=None) -> Phase:
    """Run items in order, for ``seconds`` of wall time or ``count`` items.

    Only ``workload.run`` is timed; checking happens between items.
    """
    phase = Phase()
    start = time.perf_counter()
    k = 0
    while (k < count) if count is not None else (time.perf_counter() - start < seconds):
        item = workload.items[k % len(workload.items)]
        phase.attempted += 1
        if tracer is not None:
            tracer.item = k
        t0 = time.perf_counter()
        try:
            raw = workload.run(item)
        except Exception:  # noqa: BLE001 - any refusal counts as a failed item
            phase.failed += 1
            print(f"item {k} failed:", file=sys.stderr)
            traceback.print_exc()
            k += 1
            continue
        phase.seconds.append(time.perf_counter() - t0)
        if tracer is not None:
            tracer.item = -1
        phase.probes.append(probe())
        try:
            workload.verify(item, workload.collect(item, raw))
        except CheckFailed as exc:
            phase.wrong.append(f"item {k}: {exc}")
            print(f"item {k} is wrong: {exc}", file=sys.stderr)
        k += 1
    return phase


def set_up(name: str, seed: int, seconds: float, scratch: Path):
    """Draw the inputs and run one untimed warm-up item.

    Returns the workload and the warm-up's check failures, so that a
    wrong warm-up output shows as ``correct: false``.
    """
    count = max(P90_MIN_ITEMS, int(seconds * ITEMS_PER_SECOND))
    workload = WORKLOADS[name](ROOT, seed, count, scratch)
    raw = workload.run(workload.warmup)
    try:
        workload.verify(workload.warmup, workload.collect(workload.warmup, raw))
    except CheckFailed as exc:
        print(f"warm-up item is wrong: {exc}", file=sys.stderr)
        return workload, [f"warm-up: {exc}"]
    return workload, []


def median_setup_seconds(args) -> tuple[float, list[float]]:
    """Time for a fresh interpreter to import, draw the inputs and warm up,
    on the reference core; median of ``SETUP_REPEATS`` runs."""
    command = [sys.executable, str(Path(__file__).resolve()),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--setup-only"]
    times = []
    for _ in range(SETUP_REPEATS):
        before = probe()
        t0 = time.perf_counter()
        subprocess.run(command, cwd=ROOT, check=True, stdout=subprocess.DEVNULL)
        wall = time.perf_counter() - t0
        times.append(wall * PROBE_REFERENCE_S / math.sqrt(before * probe()))
    return statistics.median(times), times


def end_to_end(workload, args):
    phase = run_items(workload, seconds=args.seconds)
    times_ms = [1e3 * s for s in phase.scaled()]
    metrics = {
        "items_per_s": (phase.items_per_s, "1/s"),
        "item_p50_ms": (statistics.median(times_ms), "ms"),
    }
    if len(times_ms) >= P90_MIN_ITEMS:
        metrics["item_p90_ms"] = (float(np.percentile(times_ms, 90)), "ms")
    metrics["peak_rss_mb"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB")
    setup_s, setup_runs = median_setup_seconds(args)
    metrics["setup_s"] = (setup_s, "s")
    details = {"item_ms": times_ms, "setup_runs_s": setup_runs,
               "wall_item_ms": [1e3 * s for s in phase.seconds],
               "probe_ms": [1e3 * s for s in phase.probes]}
    return phase, metrics, details


def traced(workload, args):
    """Half the run untraced, then the same items again under the tracer;
    the ratio of the two throughputs is the tracing overhead."""
    plain = run_items(workload, seconds=args.seconds / 2.0)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        phase = run_items(workload, count=plain.attempted, tracer=tracer)
    finally:
        tracer.uninstall()
    summary = tracer.summary()
    scale = PROBE_REFERENCE_S / statistics.median(phase.probes)
    metrics = tracing.layer_metrics(summary, len(phase.seconds), scale)
    metrics["trace.overhead_pct"] = (
        100.0 * (plain.items_per_s / phase.items_per_s - 1.0), "%")
    spans_path = OUT_DIR / f"{args.workload}-seed{args.seed}.spans.jsonl"
    tracer.write(spans_path)
    item_s = sum(phase.seconds)
    shares = {layer: own / item_s for layer, own in summary["layer_self_s"].items()}
    details = {"summary": summary, "layer_self_share": shares,
               "untraced_items_per_s": plain.items_per_s,
               "traced_items_per_s": phase.items_per_s,
               "spans": str(spans_path.relative_to(ROOT))}
    combined = Phase(attempted=plain.attempted + phase.attempted,
                     failed=plain.failed + phase.failed,
                     wrong=plain.wrong + phase.wrong)
    return combined, metrics, details


def machine() -> dict:
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": np.__version__, "scipy": scipy.__version__,
            "platform": platform.platform()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="draw inputs and warm up, then exit (times setup_s)")
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    OUT_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT_DIR) as scratch:
        workload, wrong = set_up(args.workload, args.seed, args.seconds, Path(scratch))
        if args.setup_only:
            return 0
        measure = traced if args.trace else end_to_end
        phase, metrics, details = measure(workload, args)
    phase.wrong[:0] = wrong

    result = {
        "correct": not phase.wrong,
        "attempted": phase.attempted,
        "failed": phase.failed,
        "metrics": {name: {"value": float(value), "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    record = dict(result, workload=args.workload, seed=args.seed,
                  seconds=args.seconds, trace=args.trace, wrong=phase.wrong,
                  machine=machine(), details=details)
    out = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
