"""Cold ``klein336 verify`` processes: the ``verify`` workload and ``setup_s``.

Each operation is one cold process that this file launches as a script:

    PYTHONPATH=src python3 perfbench/cold.py timed|traced RECORD.json [klein336 arguments]

It runs the CLI with the given arguments, or, with none, only
``import klein336`` and ``klein336.get_group()`` (the set-up).  ``timed``
scales its time to the reference host speed with a ``calibrate.Sampler``
running in the process itself; ``traced`` wraps the layers (``tracing.py``).
The record holds those timings or spans, and the J/G curve strata that
``verify`` computed.  The parent checks the output against the paper's
values, outside the timed region.
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
import time
from pathlib import Path

import calibrate
import tracing

SCRIPT = Path(__file__).resolve()


def run_cli(args, work: Path, tag: str, env: dict, timeout: float, trace: bool):
    """One cold process; returns (seconds, exit code, stdout, record)."""
    record_file = work / f"{tag}.record.json"
    argv = [sys.executable, str(SCRIPT), "traced" if trace else "timed", str(record_file), *args]
    stdout, stderr = work / f"{tag}.out", work / f"{tag}.err"
    with open(stdout, "wb") as out, open(stderr, "wb") as err:
        start = time.monotonic()
        code = subprocess.run(argv, stdout=out, stderr=err, env=env, timeout=timeout).returncode
        seconds = time.monotonic() - start
    if code != 0:
        sys.stderr.write(stderr.read_text()[-2000:])
    record = json.loads(record_file.read_text()) if record_file.exists() else {}
    if "scaled_s" in record:
        # interpreter start-up, before the sampler starts, at the run's mean speed
        lead = record["t0"] - start
        seconds = record["scaled_s"] * (1 + lead / record["raw_s"])
    return seconds, code, stdout.read_text(), record


# --- verify --------------------------------------------------------------------

AC_NAMES = [f"AC{i:02d}" for i in range(1, 15)]


def check_verify(stdout: str, report: list[dict], tsv: str, curves_g: list) -> list[str]:
    """The acceptance suite passes and states the paper's headline values."""
    errors = []
    by_ac = {o["name"][:4]: o for o in report if o["name"][:4] in AC_NAMES}
    if sorted(by_ac) != AC_NAMES or any(o["status"] != "pass" for o in by_ac.values()):
        errors.append("AC01-AC14 do not all pass")
    statuses = [o["status"] for o in report if o["name"][:4] not in AC_NAMES]
    if statuses != ["paper-discrepancy"] * 3:
        errors.append(f"expected three paper-discrepancy outcomes, got {statuses}")
    ac01 = by_ac.get("AC01", {}).get("actual", "")
    if "|G|=336, |H|=168, refl=21, antirefl=21" not in ac01:
        errors.append(f"AC01 does not show the group orders and reflection counts: {ac01}")
    if "classes=15, subgroups=179" not in by_ac.get("AC10", {}).get("actual", ""):
        errors.append("AC10 does not show 179 subgroups in 15 classes")
    ac11 = by_ac.get("AC11", {}).get("actual", "")
    m = re.fullmatch(
        r"G: isolated=\[(.*)\], singular curves=\[.*\], dissident=\[(.*)\]; "
        r"H: isolated=\[(.*)\]",
        ac11,
    )
    if not m or m.groups() != ("'1/7(1,2,4)'", "'1/4(1,2,3)'", "'1/7(1,2,4)', '1/7(1,2,4)'"):
        errors.append(f"AC11 does not show the paper's singular points: {ac11}")
    if curves_g != [["1/2(0,1,1)", ["1/4(1,2,3)"]]]:
        errors.append(f"J/G should have one 1/2(0,1,1) curve with one dissident point: {curves_g}")
    rows = [line.split("\t")[:2] for line in tsv.splitlines()[1:]]
    if rows != [[o["name"], o["status"]] for o in report]:
        errors.append("the TSV and JSON reports list different outcomes")
    if not stdout.rstrip().endswith("passed, 0 failed, 3 paper discrepancies"):
        errors.append("verify summary line does not report 0 failed")
    return errors


def verify_round(work, env, timeout, trace, state):
    """One cold ``verify --json --tsv``; the reports must repeat byte for byte."""
    jpath, tpath = work / "verify.json", work / "verify.tsv"
    args = ["verify", "--json", str(jpath), "--tsv", str(tpath)]
    seconds, code, stdout, record = run_cli(args, work, "verify", env, timeout(), trace)
    if code != 0:
        return seconds, [f"verify exited with {code}"], record
    raw = (jpath.read_bytes(), tpath.read_bytes())
    errors = check_verify(stdout, json.loads(raw[0]), raw[1].decode(), record.get("curves_g"))
    if state.setdefault("first", raw) != raw:
        errors.append("verify reports differ between repetitions")
    return seconds, errors, record


# --- the cold process ----------------------------------------------------------


def keep_curves_g(record: dict) -> None:
    """Record the singular J/G curves of every G singularity report that verify makes."""
    from klein336 import report

    make = report.singularity_report

    def singularity_report(table, quotient="G", seed=0):
        rep = make(table, quotient, seed)
        if quotient == "G":
            record["curves_g"] = [
                [c["image_status"], [d["image_status"] for d in c["dissident_points"]]]
                for c in rep.curves
                if c["image_status"] != "smooth"
            ]
        return rep

    report.singularity_report = singularity_report


def child(mode: str, out: str, args: list[str]) -> int:
    record: dict = {}
    tracer = sampler = None
    if mode == "traced":
        tracer = tracing.Tracer()
        tracing.traced_import(tracer)
        tracer.install()
    else:
        sampler = calibrate.Sampler()
        sampler.start()
    try:
        import klein336

        if not args:
            klein336.get_group()
            return 0
        from klein336 import cli

        keep_curves_g(record)
        return cli.main(args)
    finally:
        record.update(sampler.stop() if sampler else {"trace": tracer.dump()})
        Path(out).write_text(json.dumps(record))


if __name__ == "__main__":
    if len(sys.argv) < 3 or sys.argv[1] not in ("timed", "traced"):
        print("usage: cold.py timed|traced RECORD.json [klein336 arguments]", file=sys.stderr)
        sys.exit(2)
    sys.exit(child(sys.argv[1], sys.argv[2], sys.argv[3:]))
