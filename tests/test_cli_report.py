import contextlib
import dataclasses
import io
import json
import os
import random
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import klein336
import oracles
from klein336 import report, torus
from klein336.cli import main
from klein336.group import R1, GroupConstructionError, GroupTable, UnrecognizedSubgroupError, get_group
from klein336.linalg import IDENTITY3, Mat3, NonIntegralError, mat3_to_int6
from klein336.orbits import ConsistencyError
from klein336.qfield import QNum
from klein336.report import VerifyOutcome, emit_report, has_failures, run_verify


def test_group_build(capsys):
    assert main(["group", "build"]) == 0
    out = capsys.readouterr().out
    assert "order 336" in out and "21 reflections" in out


def test_group_build_json_export(tmp_path, capsys):
    path = tmp_path / "elements.json"
    assert main(["group", "build", "--json", str(path)]) == 0
    table = json.loads(path.read_text())
    assert len(table) == 336
    assert list(table[0].keys()) == ["id", "word", "order", "det", "mat", "int6"]


def test_group_classes(capsys):
    assert main(["group", "classes", "--in", "H"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0].split("\t") == [
        "nr", "element_order", "det", "size", "representative", "word",
    ]
    assert len(lines) == 7  # header + 6 classes
    sizes = sorted(int(line.split("\t")[3]) for line in lines[1:])
    assert sizes == [1, 21, 24, 24, 42, 56]


def test_group_subgroups(capsys):
    assert main(["group", "subgroups"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 16  # header + 15 classes
    first = lines[1].split("\t")
    assert first[1] == "L2(7)" and first[2] == "168" and first[3] == "1"


def test_fixed_element_elliptic(capsys):
    assert main(["fixed", "--element", "g7"]) == 0
    out = capsys.readouterr().out
    assert "elliptic" in out and "fixed points: 7" in out


def test_fixed_element_parabolic(capsys):
    assert main(["fixed", "--element", "rho2"]) == 0
    out = capsys.readouterr().out
    assert "parabolic" in out and "components: 4" in out


def test_fixed_matrix(capsys):
    m = json.dumps(["1", "0", "0", "0", "1", "0", "0", "0", "-1"])
    assert main(["fixed", "--matrix", m]) == 0
    out = capsys.readouterr().out
    assert "parabolic" in out and "mirror" in out


def test_fixed_matrix_rejects_non_group(capsys):
    m = json.dumps(["1", "1", "0", "0", "1", "0", "0", "0", "1"])
    assert main(["fixed", "--matrix", m]) == 2
    assert "not an element" in capsys.readouterr().err


@pytest.mark.parametrize(
    "entries, cause",
    [
        (["1/3", 0, 0, 0, 1, 0, 0, 0, 1], NonIntegralError),
        ([1, 10**30, 0, 0, 1, 0, 0, 0, 1], OverflowError),
    ],
    ids=["off-the-lattice", "beyond-int64"],
)
def test_fixed_matrix_off_the_lattice_or_beyond_int64(capsys, entries, cause):
    # the matrix's integer key cannot be formed, for the given cause
    with pytest.raises(cause):
        np.array(mat3_to_int6(Mat3.from_strings(entries)), np.int64)
    assert main(["fixed", "--matrix", json.dumps(entries)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: matrix is not an element of the reflection group\n"


def test_fixed_identity_rejected(capsys):
    assert main(["fixed", "--element", "0"]) == 2


def test_bad_element_name(capsys):
    assert main(["fixed", "--element", "nope"]) == 2


@pytest.mark.parametrize("name", ["\u00b2", "1\u00b2", "\u0663", "\uff13", "336", "-1", "+5"])
def test_non_ascii_or_out_of_range_element_id_is_a_usage_error(name, capsys):
    # superscript two, Arabic-Indic three and fullwidth three pass str.isdigit
    assert main(["fixed", "--element", name]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: unknown element") and captured.err.count("\n") == 1


def test_stabilizer_named_point(capsys):
    assert main(["stabilizer", "--point", "eta_1", "--in", "H"]) == 0
    out = capsys.readouterr().out
    assert "order 7" in out and "C7" in out


def test_stabilizer_literal_point(capsys):
    assert main(["stabilizer", "--point", "[1/2,0,0,0,0,0]", "--in", "G"]) == 0
    out = capsys.readouterr().out
    assert "stabilizer order" in out
    # orbit-stabilizer consistency for the same point
    order = int(out.split("stabilizer order ")[1].split(",")[0])
    assert main(["orbit", "--point", "[1/2,0,0,0,0,0]", "--in", "G"]) == 0
    orbit_out = capsys.readouterr().out
    size = int(orbit_out.split(": ")[1].split(" ")[0])
    assert order * size == 336


def test_bad_point_literal(capsys):
    assert main(["stabilizer", "--point", "[1/2,0,0]"]) == 2
    assert main(["stabilizer", "--point", "zeta_9"]) == 2


@pytest.mark.parametrize(
    "argv, message",
    [
        (["stabilizer", "--point", "[1,2,3,4,5,6"],
         "bad point literal: torus point literal must be bracketed: '[1,2,3,4,5,6'"),
        (["fixed", "--matrix", '["",0,0,0,1,0,0,0,1]'], "bad matrix literal: empty QNum literal"),
    ],
    ids=["unclosed-point", "empty-matrix-entry"],
)
def test_unclosed_point_and_empty_entry_are_named(argv, message, capsys):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


def test_orbit_eta_in_h(capsys):
    assert main(["orbit", "--point", "eta_1", "--in", "H"]) == 0
    out = capsys.readouterr().out
    assert "24 points" in out


GENERIC_20011 = "[3/20011,1000/20011,4567/20011,12345/20011,777/20011,19000/20011]"


def test_orbit_json_builds_each_point_once(tmp_path, monkeypatch, capsys):
    # the free G-orbit: 336 points, and one more for the parsed point itself
    built = []
    init = torus.TorusPoint.__init__

    def counted(self, *args, **kwargs):
        built.append(1)
        init(self, *args, **kwargs)

    monkeypatch.setattr(torus.TorusPoint, "__init__", counted)
    path = tmp_path / "orbit.json"
    assert main(["orbit", "--point", GENERIC_20011, "--json", str(path)]) == 0
    assert json.loads(path.read_text())["size"] == 336
    assert len(built) <= 336 + 1
    assert "336 points" in capsys.readouterr().out


@pytest.mark.parametrize(
    "argv",
    [
        ["stabilizer", "--point", "beta_0011"],  # fits the buffer: fails at the last flush
        ["orbit", "--point", GENERIC_20011],  # 336 rows: fails inside a print
    ],
    ids=["flush", "print"],
)
def test_closed_stdout_exits_141_without_traceback(argv):
    src = str(Path(klein336.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "klein336.cli", *argv],
            stdout=write_end, stderr=subprocess.PIPE, env=env, timeout=60,
        )
    finally:
        os.close(write_end)
    assert (proc.returncode, proc.stderr) == (141, b"")


def test_classify_beta(capsys):
    assert main(["classify", "--locus", "beta"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 16  # header + 15 points
    assert lines[0].startswith("locus\tquotient\t")


def test_classify_t7_json(tmp_path, capsys):
    path = tmp_path / "t7.json"
    assert main(["classify", "--locus", "T7", "--in", "H", "--json", str(path)]) == 0
    records = json.loads(path.read_text())
    assert [r["orbit_size"] for r in records] == [24, 24]
    assert all(r["image_status"] == "1/7(1,2,4)" for r in records)


def test_singularities_g(tmp_path, capsys):
    path = tmp_path / "sing.json"
    assert main(["singularities", "--quotient", "G", "--json", str(path)]) == 0
    out = capsys.readouterr().out
    assert "1/7(1,2,4)" in out and "1/4(1,2,3)" in out and "1/2(0,1,1)" in out
    rep = json.loads(path.read_text())
    assert rep["quotient"] == "G"
    assert len(rep["isolated"]) == 1


def test_singularities_h(capsys):
    assert main(["singularities", "--quotient", "H"]) == 0
    out = capsys.readouterr().out
    assert out.count("1/7(1,2,4)") >= 2


def test_verify_cli(tmp_path, capsys, verify_outcomes):
    jpath = tmp_path / "verify.json"
    tpath = tmp_path / "verify.tsv"
    rc = main(["verify", "--json", str(jpath), "--tsv", str(tpath)])
    out = capsys.readouterr().out
    assert rc == 0
    assert "0 failed" in out
    payload = json.loads(jpath.read_text())
    assert payload == [o.to_dict() for o in verify_outcomes]
    names = [entry["name"] for entry in payload]
    for i in range(1, 15):
        assert sum(1 for n in names if n.startswith(f"AC{i:02d}-")) == 1
    tsv = tpath.read_text().splitlines()
    assert tsv[0] == "name\tstatus\texpected\tactual\tpaper_ref"
    assert len(tsv) == len(payload) + 1
    assert '"' not in tsv[1]


def test_verify_deterministic(group, verify_outcomes):
    again = run_verify(group, seed=0)
    assert emit_report(again, "json") == emit_report(verify_outcomes, "json")
    assert emit_report(again, "tsv") == emit_report(verify_outcomes, "tsv")


def test_verify_contains_discrepancies(verify_outcomes):
    disc = [o.name for o in verify_outcomes if o.status == "paper-discrepancy"]
    assert "paper-discrepancy-order4-class-size" in disc
    assert "paper-discrepancy-beta-D8p-column" in disc
    assert "paper-discrepancy-T2-S3-orbit" in disc
    assert not has_failures(verify_outcomes)


def test_emit_report_edge_cases():
    assert emit_report([], "json") == b"[]\n"
    single = [VerifyOutcome("demo", "pass", "1", "1", "nowhere")]
    payload = json.loads(emit_report(single, "json"))
    assert payload == [
        {"name": "demo", "status": "pass", "expected": "1", "actual": "1",
         "paper_ref": "nowhere"}
    ]
    assert list(payload[0].keys()) == ["name", "status", "expected", "actual", "paper_ref"]
    with pytest.raises(ValueError):
        emit_report(single, "xml")


def test_verify_exit_code_on_failure(monkeypatch, capsys):
    import klein336.cli as cli_mod

    fake = [VerifyOutcome("AC00-fake", "fail", "a", "b", "nowhere")]
    monkeypatch.setattr(cli_mod, "run_verify", lambda table, seed: fake)
    assert main(["verify"]) == 1
    out = capsys.readouterr().out
    assert "1 failed" in out


def test_ac14_field_draws_equal_the_fraction_stream(group, monkeypatch):
    drawn = []
    draw = report._random_qnum
    monkeypatch.setattr(report, "_random_qnum", lambda rng: drawn.append(draw(rng)) or drawn[-1])
    monkeypatch.delattr(os, "fork")  # the whole of AC14 in this process
    ac14 = run_verify(group, 0)[-1]
    assert "field axioms(1000): True" in ac14.actual
    # the same seed-0 stream drawn as Fraction pairs, after AC14's earlier draws:
    # covariance over the 95 registry points, then the 1000 random matrices
    rng = random.Random(0)
    for _ in range(100):
        rng.randrange(95), rng.randrange(group.size)
    for _ in range(1000):
        m, n = rng.randint(1, 5), rng.randint(1, 5)
        [rng.randint(-10, 10) for _ in range(m * n)]
    want = [
        QNum(
            Fraction(rng.randint(-50, 50), rng.randint(1, 10)),
            Fraction(rng.randint(-50, 50), rng.randint(1, 10)),
        )
        for _ in range(3 * 1000)
    ]
    assert [(q.a, q.b, q.d) for q in drawn] == [(q.a, q.b, q.d) for q in want]


def test_ac14_matrix_draws_equal_the_randint_stream(group, monkeypatch):
    drawn = []
    snf = report.smith_normal_form
    monkeypatch.setattr(report, "smith_normal_form", lambda a: drawn.append(a) or snf(a))
    monkeypatch.delattr(os, "fork")  # the whole of AC14 in this process
    ac14 = run_verify(group, 0)[-1]
    assert "normal forms(1000): True" in ac14.actual
    assert drawn == oracles.ac14_matrix_draws(group.size)


@pytest.mark.parametrize("seed", [0, 7])
def test_ac14_draws_equal_the_oracle_streams(group, seed):
    registry, pairs, matrices, rng = report._ac14_draws(group, seed)
    assert len(registry) == 95
    oracle = random.Random(seed)
    assert pairs == [(registry[oracle.randint(0, 94)], oracle.randint(0, group.size - 1)) for _ in range(100)]
    assert matrices == oracles.ac14_matrix_draws(group.size, seed)
    # the returned stream is positioned at the field draws
    drawn = [report._random_qnum(rng) for _ in range(3000)]
    assert [(q.x, q.y) for q in drawn] == [(f.x, f.y) for f in oracles.ac14_field_draws(group.size, seed)]


def test_verify_draws_the_field_stream_in_the_parent(group, monkeypatch):
    # with os.fork present the parent draws AC14's stream once, before the fork,
    # and continues it into the field triples: the same stream as in process, per seed
    assert hasattr(os, "fork")
    draw = report._random_qnum
    for seed in (0, 7):
        drawn = []
        monkeypatch.setattr(report, "_random_qnum", lambda rng: drawn.append(draw(rng)) or drawn[-1])
        ac14 = run_verify(group, seed)[-1]
        assert "normal forms(1000): True" in ac14.actual and "field axioms(1000): True" in ac14.actual
        want = oracles.ac14_field_draws(group.size, seed)
        assert len(drawn) == 3000
        assert [(q.x, q.y) for q in drawn] == [(f.x, f.y) for f in want]


def test_verify_builds_ac14s_registry_once_in_the_parent_before_the_fork(group, monkeypatch, tmp_path):
    # a log file, since a call in the child leaves nothing in the parent's memory
    parent, log, fork = os.getpid(), tmp_path / "events", os.fork
    registry = report._ac14_registry

    def logged(event):
        with open(log, "a") as f:
            f.write(event + "\n")

    def logged_registry(table):
        logged(f"registry in {'the parent' if os.getpid() == parent else 'a child'}")
        return registry(table)

    def logged_fork():
        pid = fork()
        if pid:
            logged("fork")
        return pid

    monkeypatch.setattr(report, "_ac14_registry", logged_registry)
    monkeypatch.setattr(os, "fork", logged_fork)
    assert not has_failures(run_verify(group, 0))
    assert log.read_text().splitlines() == ["registry in the parent", "fork"]


@pytest.mark.parametrize("seed", [0, 7])
def test_the_child_checks_exactly_the_oracle_matrices(group, monkeypatch, seed):
    # asserted in the child: a failed assertion there is raised again here
    parent, normal_forms = os.getpid(), report._ac14_normal_forms

    def checked(matrices):
        assert os.getpid() != parent
        assert matrices == oracles.ac14_matrix_draws(group.size, seed)
        return normal_forms(matrices)

    monkeypatch.setattr(report, "_ac14_normal_forms", checked)
    ac14 = run_verify(group, seed)[-1]
    assert ac14.status == "pass" and "normal forms(1000): True" in ac14.actual


INTERNAL_ERRORS = [
    ConsistencyError("strata disagree"),
    GroupConstructionError("closure has 335 elements"),
    UnrecognizedSubgroupError({"order": 5}),
]


def _no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize("error", INTERNAL_ERRORS, ids=lambda e: type(e).__name__)
@pytest.mark.parametrize(
    "target, argv, in_child",
    [
        pytest.param("cli.singularity_report", ["singularities", "--quotient", "G"], False, id="singularity_report-argv0"),
        # the CLI reads the stabilizer's elements and flags from the table itself
        pytest.param("cli.stabilizer_indices", ["stabilizer", "--point", "beta_0011"], False, id="stabilizer-argv1"),
        # raised in the forked child that checks AC14's SNF/HNF contracts, and
        # raised again in the parent
        pytest.param("report._ac14_normal_forms", ["verify"], True, id="ac14-in-the-child"),
    ],
)
def test_internal_error_exit_code(monkeypatch, capsys, error, target, argv, in_child):
    parent = os.getpid()

    def fail(*args, **kwargs):
        assert (os.getpid() != parent) == in_child
        raise error

    monkeypatch.setattr(f"klein336.{target}", fail)
    assert main(argv) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"internal error: {type(error).__name__}: {error}\n"
    assert "Traceback" not in captured.err
    _no_child_left()


def test_a_cold_stabilizer_computes_exponents_in_its_stabilizer_only(monkeypatch, capsys):
    # a fresh table, as in a cold process: the germ of beta_0011's C4 reads
    # the exponents of one generator, and no other element's; that of
    # beta_1010's D8' reads those of the four elements outside its reflection part
    table, calls = GroupTable(), []
    exponents = table.exponents
    monkeypatch.setattr(table, "exponents", lambda g: calls.append(g) or exponents(g))
    monkeypatch.setattr("klein336.cli.get_group", lambda: table)
    assert main(["stabilizer", "--point", "beta_0011"]) == 0
    assert "image status: 1/4(1,2,3)\nelements: 0 21 323 329\n" in capsys.readouterr().out
    assert len(calls) == 1 and set(calls) <= {0, 21, 323, 329}
    calls.clear()
    assert main(["stabilizer", "--point", "beta_1010"]) == 0
    out = capsys.readouterr().out
    assert "label D8'\n" in out and "image status: 1/2(0,1,1)\nelements: 0 1 14 21 310 323 329 332\n" in out
    assert len(calls) == 4 and set(calls) <= {0, 1, 14, 21, 310, 323, 329, 332}


def test_a_child_that_ends_without_a_result_is_an_internal_error(monkeypatch, capsys):
    def exit_5(matrices):
        os._exit(5)

    monkeypatch.setattr(report, "_ac14_normal_forms", exit_5)
    assert main(["verify"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "internal error: ConsistencyError: the forked child computing exit_5 "
        "ended without a result, exit status 5\n"
    )
    _no_child_left()


def _raise_once_the_child_sleeps(monkeypatch, tmp_path, message):
    """Make AC14's child sleep for 600 s; the returned function raises ``message`` once it sleeps."""
    parent, started = os.getpid(), tmp_path / "child-started"

    def sleep(matrices):
        assert os.getpid() != parent
        started.touch()
        time.sleep(600)

    def fail(*args):
        deadline = time.monotonic() + 30
        while not started.exists() and time.monotonic() < deadline:
            time.sleep(0.01)
        assert started.exists(), "no forked child ran AC14's SNF/HNF contracts"
        raise ConsistencyError(message)

    monkeypatch.setattr(report, "_ac14_normal_forms", sleep)
    return fail


def test_a_check_that_raises_in_the_parent_kills_and_reaps_the_child(monkeypatch, capsys, tmp_path):
    # a child that would outlive the test unless the parent kills it
    monkeypatch.setattr(report, "_ac10", _raise_once_the_child_sleeps(monkeypatch, tmp_path, "AC10 broke"))
    start = time.monotonic()
    assert main(["verify"]) == 3
    assert time.monotonic() - start < 60
    assert capsys.readouterr().err == "internal error: ConsistencyError: AC10 broke\n"
    _no_child_left()


def test_the_parents_share_of_ac14_that_raises_kills_and_reaps_the_child(monkeypatch, capsys, tmp_path):
    # the field axioms run in the parent, after AC01-AC13, while the child checks the matrices
    fail = _raise_once_the_child_sleeps(monkeypatch, tmp_path, "field draw broke")
    monkeypatch.setattr(report, "_random_qnum", fail)
    start = time.monotonic()
    assert main(["verify"]) == 3
    assert time.monotonic() - start < 60
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "internal error: ConsistencyError: field draw broke\n"
    _no_child_left()


def test_verify_writes_its_stdout_once(monkeypatch, capfd, verify_outcomes):
    # text still in a block-buffered stdout when the child is forked is written
    # once: the child leaves by os._exit and flushes nothing it inherited
    stdout = io.TextIOWrapper(open(os.dup(1), "wb"), write_through=False)
    monkeypatch.setattr(sys, "stdout", stdout)
    print("header")
    assert main(["verify"]) == 0
    stdout.close()
    lines = [f"{o.status.upper():18s} {o.name}" for o in verify_outcomes]
    summary = "14 passed, 0 failed, 3 paper discrepancies"
    assert capfd.readouterr().out == "\n".join(["header", *lines, summary]) + "\n"
    _no_child_left()


def test_verify_bytes_are_the_same_with_and_without_fork(group, monkeypatch):
    forked = run_verify(group, seed=0)
    monkeypatch.delattr(os, "fork")
    in_process = run_verify(group, seed=0)
    for fmt in ("json", "tsv"):
        assert emit_report(in_process, fmt) == emit_report(forked, fmt)


def _threads() -> int:
    """This process's thread count, from the Threads line of /proc/self/status."""
    line = next(x for x in Path("/proc/self/status").read_text().splitlines() if x.startswith("Threads:"))
    return int(line.split()[1])


@pytest.mark.skipif(not Path("/proc/self/status").exists(), reason="reads /proc/self/status (Linux)")
def test_verify_forks_while_single_threaded(group, monkeypatch):
    # CPython 3.12 and later warn when a process that runs other threads forks;
    # numpy's BLAS pool must be stopped, as OpenBLAS's fork handler stops it
    fork, counts = os.fork, []

    def counted_fork():
        pid = fork()
        if pid:
            counts.append(_threads())
        return pid

    monkeypatch.setattr(os, "fork", counted_fork)
    run_verify(group, seed=0)
    assert counts == [1]


def _fresh_klein336_modules(code: str) -> set[str]:
    """The klein336 modules that ``code`` leaves loaded in a fresh interpreter."""
    src = str(Path(klein336.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    probe = code + "\nimport sys\nprint(' '.join(m for m in sys.modules if m.split('.')[0] == 'klein336'))"
    out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True, timeout=60)
    return set(out.stdout.split())


def test_package_root_loads_only_the_group_layer():
    """``import klein336`` and ``get_group()`` load the group layer and nothing else.

    The CLI, by contrast, imports every layer when it is imported, ``report``
    included: the benchmark's tracer wraps only the klein336 modules that
    ``import klein336.cli`` has loaded, so a layer imported later inside a
    command would run untraced and its metrics would read 0.
    """
    assert _fresh_klein336_modules("import klein336; klein336.get_group()") == {
        "klein336", "klein336.group", "klein336.linalg", "klein336.qfield",
    }
    assert "klein336.report" in _fresh_klein336_modules("import klein336.cli")


# each guard of torus.py, driven through the CLI by one monkeypatched input
@pytest.mark.parametrize(
    "argv, owner, name, patch, message",
    [
        pytest.param(
            ["fixed", "--element", "r2"], torus, "hnf_rows",
            lambda real: lambda rows: real(rows)[:-1],  # drops a row of the g - I stack
            "odd real codimension 1", id="odd-codimension",
        ),
        pytest.param(
            ["classify", "--locus", "T7"], torus, "fixed_point_count",
            lambda real: lambda table, gi: real(table, gi) + 1,
            "fixes 7 points, but |det(g - I)| = 8", id="fixed-point-count",
        ),
        pytest.param(
            ["stabilizer", "--point", "kappa_3"], torus, "fixed_locus_structure",
            lambda real: lambda table, gi: dataclasses.replace(
                real(table, gi), translates=real(table, gi).translates[:3]
            ),
            "fixes 3 curves, not 4", id="four-components",
        ),
        pytest.param(
            ["stabilizer", "--point", "kappa_3"], torus, "generic_curve_stabilizer",
            lambda real: lambda *args: frozenset(),  # no curve is fixed by a reflection
            "found 3", id="one-off-mirror-class",
        ),
        pytest.param(
            ["stabilizer", "--point", "kappa_3"], torus.FixedLocus, "in_v1_plus_lattice",
            lambda real: lambda locus, p: False,
            "k1 + k2 does not land", id="k3-class",
        ),
    ],
)
def test_torus_guards_exit_3(monkeypatch, capsys, argv, owner, name, patch, message):
    monkeypatch.setattr(get_group(), "derived", {})  # no locus cached before the patch
    monkeypatch.setattr(owner, name, patch(getattr(owner, name)))
    assert main(argv) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    [line] = captured.err.splitlines()
    assert line.startswith("internal error: ConsistencyError: ") and message in line


# each guard of the group build, driven through the CLI by one monkeypatched input
@pytest.mark.parametrize(
    "name, patch, message",
    [
        pytest.param("R1", lambda real: IDENTITY3, "every generator must have determinant -1", id="det+1"),
        pytest.param(
            "R3", lambda real: Mat3([[1, 2, 0], [0, 1, 0], [0, 0, -1]]),  # a shear: infinite order
            "generator closure exceeds 336 elements", id="infinite",
        ),
        pytest.param("R3", lambda real: R1, "generator closure has 8 elements, expected 336", id="r3-is-r1"),
        pytest.param(
            # a + b*w reads (a + t) + (b - 2t)*w with t = a - 3b: no involution has trace +-1
            "_W6", lambda real: real * 8,
            "found 0 reflections / 0 antireflections", id="trace-counts",
        ),
        pytest.param(
            # one unit entry more: the identity's 3 tr(int6) + tr(_W6 int6) is 1 mod 7
            "_W6", lambda real: real + np.diag([1, 0, 0, 0, 0, 0]),
            "trace of element 0 is not in Z[w]", id="trace-in-Zw",
        ),
        pytest.param(
            "R3", lambda real: R1 * real * R1,  # another reflection: G again, other named elements
            "named element h3 has order 4, expected 3", id="named-orders",
        ),
    ],
)
def test_group_build_guards_exit_3(monkeypatch, capsys, name, patch, message):
    import klein336.cli as cli_mod
    from klein336 import group

    monkeypatch.setattr(group, name, patch(getattr(group, name)))
    monkeypatch.setattr(cli_mod, "get_group", group.GroupTable)  # a fresh build, not the shared table
    assert main(["group", "build"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"internal error: GroupConstructionError: {message}\n"


def test_orbit_stabilizer_guard_exit_3(monkeypatch, capsys):
    import klein336.cli as cli_mod
    from klein336 import group, orbits

    real = orbits.stabilizer_indices

    def short(table, p, quotient="G"):  # one element too few in every nontrivial stabilizer
        s = real(table, p, quotient)
        return s - {max(s)} if len(s) > 1 else s

    monkeypatch.setattr(orbits, "stabilizer_indices", short)
    monkeypatch.setattr(cli_mod, "get_group", group.GroupTable)  # a fresh build, not the shared table
    assert main(["classify", "--locus", "T7"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    [line] = captured.err.splitlines()
    assert line.startswith("internal error: ConsistencyError: orbit-stabilizer mismatch at [")


def test_singularity_report_guard_exit_3(monkeypatch, capsys):
    from klein336 import orbits

    monkeypatch.setattr(orbits, "on_singular_curve", lambda table, p: False)
    assert main(["singularities"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    [line] = captured.err.splitlines()
    assert line.startswith("internal error: ConsistencyError: singular orbit at [")
    assert line.endswith("] does not lie on the singular curve")


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as exc:
        main(["classify", "--locus", "T9"])
    assert exc.value.code == 2


def test_fixed_matrix_with_field_entries(capsys):
    from klein336.group import R3

    m = json.dumps(R3.to_strings())
    assert main(["fixed", "--matrix", m]) == 0
    out = capsys.readouterr().out
    assert "parabolic" in out and "mirror" in out


@pytest.mark.parametrize("name", ["beta_99", "xi_64", "eta_9", "omega_22"])
def test_out_of_range_registry_name_is_a_usage_error(name, capsys):
    for command in ("stabilizer", "orbit"):
        assert main([command, "--point", name]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
        assert "Traceback" not in captured.err


@pytest.mark.parametrize(
    "name, message",
    [
        ("omega_1", "omega index must be two bits, got '1'"),
        ("kappa_7", "kappa index must be in 0..3"),
        ("nosuch", "unknown point name 'nosuch'"),
    ],
)
def test_bad_registry_name_message_is_unquoted(name, message, capsys):
    assert main(["stabilizer", "--point", name]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


@pytest.mark.parametrize(
    "argv, message",
    [
        (["stabilizer", "--point", "[1/0,0,0,0,0,0]"], "bad point literal: a denominator is zero"),
        (["orbit", "--point", "[0,0,0,0,0,-3/0]"], "bad point literal: a denominator is zero"),
        (["fixed", "--matrix", '["1/0",0,0,0,1,0,0,0,1]'], "bad matrix literal: a denominator is zero"),
    ],
)
def test_zero_denominator_is_named(argv, message, capsys):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


@pytest.mark.parametrize(
    "argv, message",
    [
        (["stabilizer", "--point", "[1e-5000,0,0,0,0,0]"], "bad point literal: exponent notation is not accepted: '1e-5000'"),
        (["orbit", "--point", "[3e-4400,0,0,0,0,0]"], "bad point literal: exponent notation is not accepted: '3e-4400'"),
        # Fraction alone would take seconds to expand this one, and longer past it
        (["stabilizer", "--point", "[1e-10000000,0,0,0,0,0]"],
         "bad point literal: exponent notation is not accepted: '1e-10000000'"),
        (["fixed", "--matrix", '["1e5000",0,0,0,1,0,0,0,1]'],
         "bad matrix literal: exponent notation is not accepted: '1e5000'"),
        # six coprime 3001-digit denominators: an order of 18006 digits, whose orbit
        # coordinates would exceed the integer-to-string limit of 4300 digits
        (["orbit", "--point", "[" + ",".join(f"1/{10**3000 + k}" for k in (1, 3, 7, 9, 13, 19)) + "]"],
         f"bad point literal: the point's order has more than {sys.get_int_max_str_digits()} digits"),
        # json.loads recurses once per bracket, past the recursion limit
        (["fixed", "--matrix", "[" * 5000 + "]" * 5000], "bad matrix literal: nested too deeply"),
    ],
    ids=[
        "stabilizer-1e-5000",
        "orbit-3e-4400",
        "stabilizer-1e-10000000",
        "fixed-1e5000",
        "orbit-18006-digits",
        "fixed-nested-5000-deep",
    ],
)
def test_huge_literals_are_usage_errors(argv, message, capsys):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


NINES = "9" * 4300


@pytest.mark.parametrize(
    "argv, message",
    [
        # int() of an id of more than 4300 digits raises ValueError
        (["fixed", "--element", "7" * 5000], "unknown element '" + "7" * 5000 + "'; use a named element"),
        # X/7 + X/7*w, X of 4300 nines, is off the lattice, and its value has
        # too many digits for the message of the error that says so
        (["fixed", "--matrix", json.dumps([f"{NINES}/7+{NINES}/7*w", 0, 0, 0, 1, 0, 0, 0, 1])],
         "matrix is not an element of the reflection group"),
        # a registry index of 5000 digits is out of its family's range
        (["stabilizer", "--point", "beta_" + "9" * 5000], "beta index must be in 0..15"),
        (["stabilizer", "--point", "xi_" + "9" * 5000], "half-period index must be in 0..63"),
        (["orbit", "--point", "eta_" + "9" * 5000], "eta index must be in 0..6"),
        (["stabilizer", "--point", "kappa_" + "9" * 5000], "kappa index must be in 0..3"),
    ],
    ids=[
        "element-5000-digits",
        "matrix-entry-4300-digits",
        "beta-5000-digits",
        "xi-5000-digits",
        "eta-5000-digits",
        "kappa-5000-digits",
    ],
)
def test_oversized_integers_are_usage_errors(argv, message, capsys):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: {message}") and captured.err.count("\n") == 1


def test_point_literal_beyond_int64(capsys):
    point = "[1/100000000000000000000,3/100000000000000000000,0,0,0,7/100000000000000000000]"
    assert main(["stabilizer", "--point", point]) == 0
    assert "stabilizer order 1" in capsys.readouterr().out


@pytest.mark.parametrize(
    "entries",
    [
        [1, 0, 0, 0, 1, 0, 0, 0, -1],
        [[1, 0, 0], [0, 1, 0], [0, 0, -1]],
        ["1", 0, 0, 0, 1, 0, 0, 0, "-1"],
    ],
)
def test_fixed_matrix_with_integer_entries(entries, capsys):
    assert main(["fixed", "--matrix", json.dumps(["1", "0", "0", "0", "1", "0", "0", "0", "-1"])]) == 0
    want = capsys.readouterr().out
    assert main(["fixed", "--matrix", json.dumps(entries)]) == 0
    assert capsys.readouterr().out == want


@pytest.mark.parametrize(
    "literal",
    [
        "[1.0,0,0,0,1,0,0,0,1]",
        "[null,0,0,0,1,0,0,0,1]",
        "[[1],0,0,0,1,0,0,0,1]",
        "[true,0,0,0,1,0,0,0,1]",
        '"100010001"',
        '["1/0","0","0","0","1","0","0","0","1"]',
        '["1+","0","0","0","1","0","0","0","-1+"]',
    ],
)
def test_bad_matrix_entries_are_a_usage_error(literal, capsys):
    assert main(["fixed", "--matrix", literal]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: bad matrix literal") and captured.err.count("\n") == 1


@pytest.mark.parametrize(
    "argv",
    [
        ["stabilizer", "--point", "beta_0011", "--json"],
        ["orbit", "--point", "eta_1", "--json"],
        ["group", "classes", "--json"],
    ],
)
def test_unwritable_output_path_is_a_usage_error(argv, tmp_path, capsys):
    for target in (tmp_path / "missing" / "out.json", tmp_path):
        assert main(argv + [str(target)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot write {target}: ") and err.count("\n") == 1


# fragments that the point, matrix and element parsers read
_NUMBER = st.integers(-30, 30).map(str)
_FRACTION = _NUMBER | st.builds("{}/{}".format, _NUMBER, _NUMBER)
_TEXT = st.text(alphabet="0123456789/+-*we. _[],", max_size=6) | st.text(max_size=4)
_ENTRY = _FRACTION | st.builds("{}{}*w".format, _FRACTION, st.sampled_from(["+", "-", ""])) | _TEXT
_REGISTRY = st.builds(
    "{}{}{}".format,
    st.sampled_from(["xi", "beta", "omega", "eta", "kappa", "zeta"]),
    st.sampled_from(["", "_"]),
    st.sampled_from(["0011", "01", "10", "22"]) | st.integers(0, 99).map(str),
)
_POINTS = _REGISTRY | st.one_of(
    st.lists(_FRACTION, min_size=6, max_size=6), st.lists(_FRACTION | _TEXT, max_size=8)
).map(lambda parts: "[" + ",".join(parts) + "]")
_JSON_ENTRY = _ENTRY | st.integers(-3, 3) | st.floats() | st.none() | st.booleans()
_MATRICES = st.one_of(
    st.lists(_JSON_ENTRY, min_size=8, max_size=10),
    st.lists(st.lists(_JSON_ENTRY, min_size=3, max_size=3), min_size=3, max_size=3),
    st.recursive(_JSON_ENTRY, lambda inner: st.lists(inner, max_size=3), max_leaves=6),
).map(json.dumps)
_POINT_ARGVS = st.builds(
    lambda cmd, point, group: [cmd, f"--point={point}", "--in", group],
    st.sampled_from(["stabilizer", "orbit"]),
    _POINTS,
    st.sampled_from(["G", "H"]),
)
# the point commands twice: Hypothesis draws the matrix branch most often
_ARGVS = st.sampled_from([
    _POINT_ARGVS,
    _POINT_ARGVS,
    _MATRICES.map(lambda m: ["fixed", f"--matrix={m}"]),
    (st.integers(-5, 400).map(str) | st.sampled_from(["r1", "g7", "rho1", "c"]) | _TEXT).map(
        lambda e: ["fixed", f"--element={e}"]
    ),
]).flatmap(lambda argvs: argvs)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(_ARGVS)
@example(["fixed", "--matrix=" + "[" * 5000 + "]" * 5000])
def test_cli_on_generated_literals_exits_0_or_2_without_traceback(argv):
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(argv)  # an exception here is the traceback a shell would see
    assert code in (0, 2), (argv, err.getvalue())
    if code == 2:
        assert err.getvalue().startswith("error: ") and err.getvalue().count("\n") == 1
    else:
        assert err.getvalue() == ""
