"""Benchmark of klein336: one run of one workload.

    python3 perfbench/run.py --workload verify --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the package is imported from
``src/``.  Workloads:

* ``verify``: repeated cold ``klein336 verify --json --tsv`` processes;
* ``point-queries``: one warm library process answering a seeded stream of
  stabilizer, label, germ-type and orbit queries.

Operations run one at a time, in whole rounds, until ``--seconds`` of wall
time have passed since the first began.  Every answer is checked outside the
timed region.  The last line of stdout is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end metrics
with ``--trace 0``; with ``--trace 1``, one round runs with the layers wrapped
by ``tracing.py`` and the per-layer metrics of ``BENCHMARK.json`` are reported
instead.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import cold
import points
import tracing

ROOT = Path.cwd()
SRC = ROOT / "src"
BENCHMARK = ROOT / "BENCHMARK.json"
OUT = Path(__file__).resolve().parent / "out"
SETUP_RUNS = 5
RUN_LIMIT_S = 170.0  # every run, set-up included, ends within this


def setup_seconds(env: dict, timeout, work: Path) -> float:
    """Median time from interpreter start to ``import klein336`` plus the group table."""
    # a first import warms the file cache and, unless PYTHONDONTWRITEBYTECODE is
    # set, writes the bytecode, as a user's first invocation would
    warm = [sys.executable, "-c", "import klein336"]
    subprocess.run(warm, env=env, check=True, timeout=timeout())
    samples = []
    for k in range(SETUP_RUNS):
        seconds, code, _, _ = cold.run_cli([], work, f"setup{k}", env, timeout(), False)
        if code != 0:
            raise RuntimeError(f"the set-up process exited with {code}")
        samples.append(seconds)
    return statistics.median(samples)


def end_to_end(seconds: list[float], failed: list[bool], setup: float, rss_kib: int) -> dict:
    # failed operations count in `failed` and not in the latencies; a run in
    # which fewer than two succeed is incorrect and reports all of them
    lat_ms = [1e3 * s for s, f in zip(seconds, failed) if not f]
    if len(lat_ms) < 2:
        lat_ms = [1e3 * s for s in seconds]
    p99 = statistics.quantiles(lat_ms, n=100, method="inclusive")[98]
    metrics = {
        "latency_p50_ms": (statistics.median(lat_ms), "ms"),
        "latency_p99_ms": (p99, "ms"),
        "throughput_per_s": ((len(seconds) - sum(failed)) / sum(seconds), "1/s"),
        "setup_s": (setup, "s"),
        "peak_rss_mb": (rss_kib / 1024, "MB"),
    }
    return {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}


def per_layer(dumps: list[dict], seconds: list[float]) -> dict:
    units = {m["name"]: m["unit"] for m in json.loads(BENCHMARK.read_text())["per_layer"]}
    summary = tracing.summarize(dumps, list(units))
    metrics = {k: {"value": v, "unit": units[k]} for k, v in summary.items()}
    p50 = 1e3 * statistics.median(seconds)
    metrics["traced.latency_p50_ms"] = {"value": p50, "unit": "ms"}
    return metrics


def run_verify(args, env, timeout, work: Path):
    state: dict = {}
    results = []
    end = time.monotonic() + args.seconds
    # untraced runs take at least two operations, so that every quantile is defined
    while not results or (not args.trace and (len(results) < 2 or time.monotonic() < end)):
        results.append(cold.verify_round(work, env, timeout, bool(args.trace), state))
    seconds = [r[0] for r in results]
    errors = [e for r in results for e in r[1]]
    failed = [bool(r[1]) for r in results]
    dumps = [r[2]["trace"] for r in results] if args.trace else None
    return errors, failed, seconds, dumps


def run_points(args):
    sys.path.insert(0, str(SRC))
    tracer = tracing.Tracer() if args.trace else None
    if tracer:
        tracing.traced_import(tracer)
        tracer.install()
    import klein336

    table = klein336.get_group()
    if tracer:
        tracer.on = False
    bench = points.PointQueries(table, args.seed)
    seconds, failed, errors = [], [], []
    end = time.monotonic() + args.seconds
    while not seconds or (not args.trace and time.monotonic() < end):
        batch = bench.make_round()
        if tracer:
            tracer.on = True
        bench.run_round(batch)
        if tracer:
            tracer.on = False
        for q in batch:
            problems = bench.problems(q)
            seconds.append(q.seconds)
            failed.append(bool(problems))
            if q.kind != "overflow":
                errors += [f"{q.point}: {p}" for p in problems]
    return errors, failed, seconds, [tracer.dump()] if tracer else None


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("verify", "point-queries"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "klein336" / "__init__.py").is_file():
        print(f"error: no klein336 sources under {SRC}", file=sys.stderr)
        return 2

    deadline = time.monotonic() + RUN_LIMIT_S

    def timeout() -> float:
        left = deadline - time.monotonic()
        if left <= 0:
            raise TimeoutError("the run exceeded its time limit")
        return left

    env = dict(os.environ, PYTHONPATH=str(SRC))
    in_process = args.workload == "point-queries"
    OUT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="work-", dir=OUT))
    try:
        setup = None if args.trace else setup_seconds(env, timeout, work)
        if in_process:
            errors, failed, seconds, dumps = run_points(args)
        else:
            errors, failed, seconds, dumps = run_verify(args, env, timeout, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    if args.trace:
        trace_file = OUT / f"trace-{args.workload}-seed{args.seed}.json"
        trace_file.write_text(json.dumps(dumps))
        metrics = per_layer(dumps, seconds)
    else:
        # the work runs in this process for point-queries, in verify children otherwise
        who = resource.RUSAGE_SELF if in_process else resource.RUSAGE_CHILDREN
        metrics = end_to_end(seconds, failed, setup, resource.getrusage(who).ru_maxrss)
    for e in errors[:20]:
        print(f"check failed: {e}", file=sys.stderr)
    result = {
        "correct": not errors,
        "attempted": len(failed),
        "failed": sum(failed),
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
