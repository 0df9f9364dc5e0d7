"""Golden-file pins: the machine outputs are frozen byte-for-byte.

Regenerate with:
    klein336 verify --json tests/golden/verify.json --tsv tests/golden/verify.tsv
    klein336 singularities --quotient G --json tests/golden/singularities_G.json
    klein336 singularities --quotient H --json tests/golden/singularities_H.json
    klein336 classify --locus beta --json tests/golden/classify_beta_G.json
    klein336 group build --json tests/golden/group_build.json
    klein336 group subgroups --json tests/golden/group_subgroups.json > tests/golden/group_subgroups.tsv
    klein336 group classes --in G > tests/golden/group_classes_G.tsv
    klein336 group classes --in H > tests/golden/group_classes_H.tsv
    for n in r1 r2 r3 rho1 rho2 rho3 g7 h3 h4 h4p c c3 m1; do
        klein336 fixed --element $n --json tests/golden/fixed_$n.json > tests/golden/fixed_$n.txt
    done
"""

import json
from pathlib import Path

import pytest

from klein336.cli import main

GOLDEN = Path(__file__).parent / "golden"


@pytest.mark.parametrize(
    "argv, filename",
    [
        (["singularities", "--quotient", "G", "--json"], "singularities_G.json"),
        (["singularities", "--quotient", "H", "--json"], "singularities_H.json"),
        (["classify", "--locus", "beta", "--json"], "classify_beta_G.json"),
        (["group", "build", "--json"], "group_build.json"),
    ],
)
def test_json_outputs_match_golden(tmp_path, capsys, argv, filename):
    out = tmp_path / filename
    assert main(argv + [str(out)]) == 0
    capsys.readouterr()
    assert out.read_bytes() == (GOLDEN / filename).read_bytes()


def test_group_build_summary(capsys):
    assert main(["group", "build"]) == 0
    assert capsys.readouterr().out == (
        "group of order 336; unimodular subgroup of order 168; 21 reflections, "
        "21 antireflections; presentation holds: True\n"
    )


def test_group_subgroups_match_golden(tmp_path, capsys):
    out = tmp_path / "group_subgroups.json"
    assert main(["group", "subgroups", "--json", str(out)]) == 0
    assert capsys.readouterr().out == (GOLDEN / "group_subgroups.tsv").read_text()
    assert out.read_bytes() == (GOLDEN / "group_subgroups.json").read_bytes()


@pytest.mark.parametrize("quotient", ["G", "H"])
def test_group_classes_match_golden(capsys, quotient):
    assert main(["group", "classes", "--in", quotient]) == 0
    expected = (GOLDEN / f"group_classes_{quotient}.tsv").read_text()
    assert capsys.readouterr().out == expected


def test_verify_outputs_match_golden(tmp_path, capsys, verify_outcomes):
    from klein336.report import emit_report

    assert emit_report(verify_outcomes, "json") == (GOLDEN / "verify.json").read_bytes()
    assert emit_report(verify_outcomes, "tsv") == (GOLDEN / "verify.tsv").read_bytes()


FIXED_ELEMENTS = ["r1", "r2", "r3", "rho1", "rho2", "rho3", "g7", "h3", "h4", "h4p", "c", "c3", "m1"]


@pytest.mark.parametrize("name", FIXED_ELEMENTS)
def test_fixed_outputs_match_golden(tmp_path, capsys, name):
    out = tmp_path / f"fixed_{name}.json"
    assert main(["fixed", "--element", name, "--json", str(out)]) == 0
    assert capsys.readouterr().out == (GOLDEN / f"fixed_{name}.txt").read_text()
    assert out.read_bytes() == (GOLDEN / f"fixed_{name}.json").read_bytes()


def test_golden_verify_schema():
    payload = json.loads((GOLDEN / "verify.json").read_text())
    assert len(payload) == 17  # 14 criteria + 3 documented discrepancies
    for entry in payload:
        assert list(entry.keys()) == ["name", "status", "expected", "actual", "paper_ref"]
        assert entry["status"] in ("pass", "paper-discrepancy")
