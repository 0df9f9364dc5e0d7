"""Per-layer tracing of klein336 from outside the package.

``Tracer.install`` wraps the listed public functions and methods: every
module namespace and class attribute that binds the function object gets the
wrapper, so a name imported with ``from .orbits import singularity_report``
is traced as well.  Functions with a ``.self_s`` metric record spans (name,
start, end, parent) in memory; functions with only a ``.calls`` metric are
counted without a span, so their time stays in the caller's self time.  A
function that no longer exists is skipped and its metrics are left out.
The metric names are those of ``per_layer`` in ``BENCHMARK.json``.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import Counter
from typing import Callable

# metric prefix -> (module, attribute path); spans give calls and self time
SPANNED = {
    "group.GroupTable": ("group", "GroupTable.__init__"),
    "linalg.mat3_to_int6": ("linalg", "mat3_to_int6"),
    "group.all_subgroups_of_h": ("group", "GroupTable.all_subgroups_of_h"),
    "group.conjugacy_classes": ("group", "GroupTable.conjugacy_classes"),
    "group.normalizer": ("group", "GroupTable.normalizer"),
    "group.recognize": ("group", "GroupTable.recognize"),
    "linalg.smith_normal_form": ("linalg", "smith_normal_form"),
    "linalg.hnf_rows": ("linalg", "hnf_rows"),
    "linalg.qnum_nullspace": ("linalg", "qnum_nullspace"),
    "torus.enumerate_fixed_points": ("torus", "enumerate_fixed_points"),
    "torus.fixed_locus_structure": ("torus", "fixed_locus_structure"),
    "orbits.stabilizer_indices": ("orbits", "stabilizer_indices"),
    "orbits.orbit_points": ("orbits", "orbit_points"),
    "orbits.singularity_weights": ("orbits", "singularity_weights"),
    "orbits.generic_curve_stabilizer": ("orbits", "generic_curve_stabilizer"),
    "orbits.curve_setwise_stabilizer": ("orbits", "curve_setwise_stabilizer"),
    "orbits.classify_locus": ("orbits", "classify_locus"),
    "orbits.singularity_report": ("orbits", "singularity_report"),
    "quartic.act": ("quartic", "act"),
    "report.run_verify": ("report", "run_verify"),
}

# metric prefix -> (module, attribute path, suffix); counted, no span
COUNTED = {
    "linalg.Mat3.mul": ("linalg", "Mat3.__mul__", "calls"),
    "qfield.QNum.mul": ("qfield", "QNum.__mul__", "calls"),
    "qfield.QNum.add": ("qfield", "QNum.__add__", "calls"),
    "qfield.QNum.inv": ("qfield", "QNum.inv", "calls"),
    "group.subgroup_closure": ("group", "GroupTable.subgroup_closure", "calls"),
    "linalg.int_det": ("linalg", "int_det", "calls"),
    "torus.kappa_translates": ("torus", "kappa_translates", "calls"),
    "torus.TorusPoint": ("torus", "TorusPoint.__init__", "created"),
}

IMPORT_SPAN = "cli.import"

class Tracer:
    """Spans and counts of one process, kept in memory until ``dump``."""

    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.counts: Counter[str] = Counter()
        self.present: set[str] = set()  # metric prefixes whose target exists
        self.on = True
        self._stack = [-1]

    def record(self, name: str, start: float, end: float) -> None:
        self.spans.append([name, start, end, self._stack[-1]])
        self.present.add(name)

    def _span(self, name: str, fn: Callable) -> Callable:
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.on:
                return fn(*args, **kwargs)
            idx = len(spans)
            span = [name, clock(), 0.0, stack[-1]]
            spans.append(span)
            stack.append(idx)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                span[2] = clock()

        return wrapper

    def _count(self, key: str, fn: Callable) -> Callable:
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self.on:
                counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    def install(self) -> None:
        """Wrap every listed target that exists in the imported package."""
        modules = [m for n, m in sorted(sys.modules.items()) if n.split(".")[0] == "klein336"]
        targets = [(p, m, a, None) for p, (m, a) in SPANNED.items()]
        targets += [(p, m, a, s) for p, (m, a, s) in COUNTED.items()]
        for prefix, modname, path, suffix in targets:
            try:
                owner = importlib.import_module(f"klein336.{modname}")
                *outer, attr = path.split(".")
                for part in outer:
                    owner = getattr(owner, part)
                original = owner.__dict__[attr]
            except (ImportError, AttributeError, KeyError):
                continue
            if suffix is None:
                wrapper = self._span(prefix, original)
            else:
                wrapper = self._count(f"{prefix}.{suffix}", original)
            self.present.add(prefix)
            namespaces = [owner] if outer else modules
            for ns in namespaces:
                for key, value in list(vars(ns).items()):
                    if value is original:
                        setattr(ns, key, wrapper)

    def dump(self) -> dict:
        return {"spans": self.spans, "counts": dict(self.counts), "present": sorted(self.present)}


def summarize(dumps: list[dict], names: list[str]) -> dict[str, float]:
    """The named per-layer metrics, summed over the dumps of one or more processes."""
    calls: Counter[str] = Counter()
    self_s: Counter[str] = Counter()
    present: set[str] = set()
    counts: Counter[str] = Counter()
    for d in dumps:
        spans = d["spans"]
        present.update(d["present"])
        counts.update(d["counts"])
        child_time = [0.0] * len(spans)
        for name, start, end, parent in spans:
            if parent >= 0:
                child_time[parent] += end - start
        for (name, start, end, _), inner in zip(spans, child_time):
            calls[name] += 1
            self_s[name] += end - start - inner
    out: dict[str, float] = {}
    for metric in names:
        prefix, suffix = metric.rsplit(".", 1)
        if prefix not in present:
            continue
        if suffix == "self_s":
            out[metric] = self_s[prefix]
        elif prefix in SPANNED:
            out[metric] = calls[prefix]
        else:
            out[metric] = counts[metric]
    return out


def traced_import(tracer: Tracer) -> None:
    """Import the CLI, which imports every layer, as the ``cli.import`` span."""
    start = time.perf_counter()
    importlib.import_module("klein336.cli")
    tracer.record(IMPORT_SPAN, start, time.perf_counter())
