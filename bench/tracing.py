"""Spans around the calls into each coneglow layer, recorded from outside.

The tracer replaces a layer's public function with a timing wrapper under
the name that the calling module binds, so ``localize.solve_lp`` is
``solve_lp`` as seen by ``localize``.  A call made through any other
binding is not seen; a name that no longer exists records zero calls.
Spans stay in memory until ``write`` dumps them as JSON lines.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from dataclasses import dataclass

from coneglow import cli, conemaps, detector, illumination, localize


def _lp_rows(args, result):
    program = args[0] if args else None
    return (len(getattr(program, "eq_rows", ()))
            + len(getattr(program, "ineq_rows", ())))


def _batch_rows(args, result):
    shape = getattr(result, "shape", ())
    return shape[0] if len(shape) == 2 else 1


def _iterations(args, result):
    return getattr(result, "iterations", 0)


def _certified_samples(args, result):
    # Samples of a confirmed run; an undetermined run certifies nothing.
    return result.samples_used if getattr(result, "confirmed", False) else 0


# (layer, module that binds the name, name, work counter or None)
TARGETS = (
    ("cli", cli, "main", None),
    ("detector", detector, "detect_eigenvector", _certified_samples),
    ("detector", detector, "detect_fixed_point_sup", _certified_samples),
    ("detector", detector, "detect_fixed_point_smooth", _certified_samples),
    ("detector", detector, "build_adversarial_euclid", None),
    ("conemaps", detector, "eval_map", _batch_rows),
    ("conemaps", conemaps, "power_iteration", _iterations),
    ("illumination", detector, "interior_hull_certificate", None),
    ("lp", detector, "solve_lp", _lp_rows),
    ("lp", illumination, "solve_lp", _lp_rows),
    ("lp", localize, "solve_lp", _lp_rows),
    ("localize", localize, "circumcenter", None),
    ("localize", localize, "localize_eigenvectors", None),
    ("localize", localize, "halfspace_polytope", None),
)

LAYERS = ("cli", "detector", "conemaps", "illumination", "lp", "localize")
DETECTORS = ("detector.detect_eigenvector", "detector.detect_fixed_point_sup",
             "detector.detect_fixed_point_smooth")


@dataclass
class Span:
    name: str
    layer: str
    start: float
    end: float
    parent: int
    item: int
    work: int

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.item = -1
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def install(self) -> None:
        for layer, module, attr, counter in TARGETS:
            original = getattr(module, attr, None)
            if original is None:
                continue
            name = f"{module.__name__.rsplit('.', 1)[-1]}.{attr}"
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(name, layer, original, counter))

    def uninstall(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def _wrap(self, name, layer, fn, counter):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            index = len(spans)
            parent = stack[-1] if stack else -1
            spans.append(None)
            stack.append(index)
            result = None
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = time.perf_counter()
                stack.pop()
                work = counter(args, result) if counter and result is not None else 0
                spans[index] = Span(name, layer, start, end, parent, self.item, work)

        return traced

    def self_seconds(self) -> list[float]:
        """Each span's duration minus the time its direct children cover."""
        own = [span.seconds for span in self.spans]
        for span in self.spans:
            if span.parent >= 0:
                own[span.parent] -= span.seconds
        return own

    def summary(self) -> dict:
        """Totals per layer (self time) and per wrapped name (inclusive)."""
        layers = {layer: 0.0 for layer in LAYERS}
        names = defaultdict(lambda: {"calls": 0, "seconds": 0.0, "work": 0})
        for span, own in zip(self.spans, self.self_seconds()):
            layers[span.layer] += own
            entry = names[span.name]
            entry["calls"] += 1
            entry["seconds"] += span.seconds
            entry["work"] += span.work
        certified = sum(1 for span in self.spans
                        if span.name in DETECTORS and span.work > 0)
        return {"layer_self_s": layers, "names": dict(names),
                "certified_runs": certified}

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps([span.name, span.start, span.end,
                                     span.parent, span.item]) + "\n")


def layer_metrics(summary: dict, items: int, scale: float) -> dict:
    """Per-layer metrics as ``name -> (value, unit)``, per traced item
    unless the unit says otherwise.  Times of named calls are inclusive;
    ``*.self_ms`` subtracts the wrapped calls made from inside.  ``scale``
    converts wall seconds to seconds on the reference core."""
    names = summary["names"]

    def total(key, *wanted):
        value = sum(names.get(name, {}).get(key, 0) for name in wanted)
        return value * scale if key == "seconds" else value

    lp = ("detector.solve_lp", "illumination.solve_lp", "localize.solve_lp")
    lp_calls = total("calls", *lp)
    eval_s = total("seconds", "detector.eval_map")
    eval_rows = total("work", "detector.eval_map")
    certs = summary["certified_runs"]
    ms = 1e3 / items
    return {
        "lp.solve_ms": (total("seconds", *lp) * ms, "ms/item"),
        "lp.calls": (lp_calls / items, "calls/item"),
        "lp.rows_per_call": (total("work", *lp) / lp_calls if lp_calls else 0.0,
                             "rows"),
        "localize.circumcenter_ms": (
            total("seconds", "localize.circumcenter") * ms, "ms/item"),
        "localize.polytope_ms": (
            total("seconds", "localize.halfspace_polytope") * ms, "ms/item"),
        "conemaps.eval_map_ms": (eval_s * ms, "ms/item"),
        "conemaps.eval_rows": (eval_rows / items, "rows/item"),
        "conemaps.rows_per_s": (eval_rows / eval_s if eval_s else 0.0, "1/s"),
        "conemaps.power_iteration_ms": (
            total("seconds", "conemaps.power_iteration") * ms, "ms/item"),
        "conemaps.power_iterations": (
            total("work", "conemaps.power_iteration") / items, "count/item"),
        "detector.self_ms": (
            summary["layer_self_s"]["detector"] * scale * ms, "ms/item"),
        "detector.samples_per_cert": (
            total("work", *DETECTORS) / certs if certs else 0.0, "count"),
        "illumination.hull_ms": (
            total("seconds", "detector.interior_hull_certificate") * ms, "ms/item"),
        "illumination.hull_calls": (
            total("calls", "detector.interior_hull_certificate") / items,
            "calls/item"),
        "cli.self_ms": (summary["layer_self_s"]["cli"] * scale * ms, "ms/item"),
    }
