"""The layers that the benchmark's tracer wraps still exist in the package.

``perfbench/tracing.py`` skips a target that was moved or renamed, and its
per-layer metrics then drop out of a traced run without an error.  These
tests read that file and ``BENCHMARK.json``; they change neither.
"""

import importlib
import importlib.util
import json
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", ROOT / "perfbench" / "tracing.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_target_resolves():
    tracing = _tracing()
    targets = list(tracing.SPANNED.values()) + [(m, a) for m, a, _ in tracing.COUNTED.values()]
    assert len(targets) == len(tracing.SPANNED) + len(tracing.COUNTED)
    for modname, path in targets:
        # as Tracer.install resolves it: attributes, then the owner's own namespace
        owner = importlib.import_module(f"klein336.{modname}")
        *outer, attr = path.split(".")
        for part in outer:
            owner = getattr(owner, part)
        assert callable(vars(owner).get(attr)), f"klein336.{modname}.{path} is gone"


def test_every_per_layer_metric_has_a_target():
    tracing = _tracing()
    per_layer = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    counted = {f"{prefix}.{suffix}" for prefix, (_, _, suffix) in tracing.COUNTED.items()}
    spanned = set(tracing.SPANNED) | {tracing.IMPORT_SPAN}
    for metric in (m["name"] for m in per_layer):
        prefix, suffix = metric.rsplit(".", 1)
        if metric in counted or metric == "traced.latency_p50_ms":  # run.py's own timing
            continue
        assert prefix in spanned and suffix in ("self_s", "calls"), metric
