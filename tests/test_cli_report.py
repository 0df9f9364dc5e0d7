import json

import pytest

from klein336.cli import main
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


def test_orbit_eta_in_h(capsys):
    assert main(["orbit", "--point", "eta_1", "--in", "H"]) == 0
    out = capsys.readouterr().out
    assert "24 points" in out


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
