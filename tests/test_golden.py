"""Golden-file pins: the machine outputs are frozen byte-for-byte.

Regenerate with:
    klein336 verify --json tests/golden/verify.json --tsv tests/golden/verify.tsv
    klein336 singularities --quotient G --json tests/golden/singularities_G.json
    klein336 singularities --quotient H --json tests/golden/singularities_H.json
    for q in G H; do
        klein336 singularities --quotient $q > tests/golden/singularities_$q.txt
        for l in T2 T6 T7 T4p beta omega; do
            klein336 classify --locus $l --in $q --json tests/golden/classify_${l}_$q.json > tests/golden/classify_${l}_$q.txt
        done
    done
    klein336 group build --json tests/golden/group_build.json
    klein336 group subgroups --json tests/golden/group_subgroups.json > tests/golden/group_subgroups.tsv
    for q in G H; do
        klein336 group classes --in $q --json tests/golden/group_classes_$q.json > tests/golden/group_classes_$q.tsv
    done
    for n in r1 r2 r3 rho1 rho2 rho3 g7 h3 h4 h4p c c3 m1; do
        klein336 fixed --element $n --json tests/golden/fixed_$n.json > tests/golden/fixed_$n.txt
    done
    klein336 orbit --point eta_1 --in H --json tests/golden/orbit_eta_1_H.json > tests/golden/orbit_eta_1_H.txt
    klein336 orbit --point beta_0011 --json tests/golden/orbit_beta_0011.json > tests/golden/orbit_beta_0011.txt
    for d in 1009 20011 2097169 1000000000039 100000000000000000000; do
        p="[1/$d,5/$d,77/$d,0,3/$d,-1/$d]"
        klein336 orbit --point "$p" --json tests/golden/orbit_den$d.json > tests/golden/orbit_den$d.txt
    done
    klein336 stabilizer --point beta_0011 --json tests/golden/stabilizer_beta_0011.json > tests/golden/stabilizer_beta_0011.txt
    klein336 stabilizer --point kappa_3 --in H --json tests/golden/stabilizer_kappa_3_H.json > tests/golden/stabilizer_kappa_3_H.txt
    klein336 stabilizer --point eta_1 --in H --json tests/golden/stabilizer_eta_1_H.json > tests/golden/stabilizer_eta_1_H.txt
    for n in beta_1000 xi_0; do
        klein336 stabilizer --point $n --json tests/golden/stabilizer_$n.json > tests/golden/stabilizer_$n.txt
    done
    klein336 stabilizer --point "[1/1009,5/1009,77/1009,0,3/1009,-1/1009]" --json tests/golden/stabilizer_den1009.json > tests/golden/stabilizer_den1009.txt
    p="[3/20011,1000/20011,4567/20011,12345/20011,777/20011,19000/20011]"
    klein336 orbit --point "$p" --json tests/golden/orbit_den20011_generic.json > tests/golden/orbit_den20011_generic.txt
    klein336 orbit --point "$p" --in H --json tests/golden/orbit_den20011_generic_H.json > tests/golden/orbit_den20011_generic_H.txt
    klein336 stabilizer --point "$p" --json tests/golden/stabilizer_den20011_generic.json > tests/golden/stabilizer_den20011_generic.txt
    d=709490156681136599
    klein336 stabilizer --point "[0,-1/$d,-1/$d,-1/$d,0,0]" --json tests/golden/stabilizer_den$d.json > tests/golden/stabilizer_den$d.txt
    p="[2/20011,5/20011,77/20011,89/20011,-79/20011,170/20011]"
    klein336 orbit --point "$p" --json tests/golden/orbit_den20011_mirror.json > tests/golden/orbit_den20011_mirror.txt
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


CLASSIFY_LOCI = ["T2", "T6", "T7", "T4p", "beta", "omega"]


@pytest.mark.parametrize("quotient", ["G", "H"])
@pytest.mark.parametrize("locus", CLASSIFY_LOCI)
def test_classify_outputs_match_golden(tmp_path, capsys, locus, quotient):
    name = f"classify_{locus}_{quotient}"
    out = tmp_path / f"{name}.json"
    assert main(["classify", "--locus", locus, "--in", quotient, "--json", str(out)]) == 0
    assert capsys.readouterr().out == (GOLDEN / f"{name}.txt").read_text()
    assert out.read_bytes() == (GOLDEN / f"{name}.json").read_bytes()


@pytest.mark.parametrize("quotient", ["G", "H"])
def test_singularities_stdout_matches_golden(capsys, quotient):
    assert main(["singularities", "--quotient", quotient]) == 0
    assert capsys.readouterr().out == (GOLDEN / f"singularities_{quotient}.txt").read_text()


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
def test_group_classes_match_golden(tmp_path, capsys, quotient):
    out = tmp_path / f"group_classes_{quotient}.json"
    assert main(["group", "classes", "--in", quotient, "--json", str(out)]) == 0
    expected = (GOLDEN / f"group_classes_{quotient}.tsv").read_text()
    assert capsys.readouterr().out == expected
    assert out.read_bytes() == (GOLDEN / f"group_classes_{quotient}.json").read_bytes()


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


# one orbit literal per sort-key width: den^6, den^3, den^2 and den itself
# below 2^63, then Python integers
ORBIT_DENOMINATORS = [1009, 20011, 2097169, 10**12 + 39, 10**20]
GENERIC_20011 = "[3/20011,1000/20011,4567/20011,12345/20011,777/20011,19000/20011]"
MIRROR_20011 = "[2/20011,5/20011,77/20011,89/20011,-79/20011,170/20011]"
# a denominator at the top of the int64 path, 13 den < 2^63, with numerators
# 0 and den - 1
BOUNDARY_INT64 = "[0,-1/709490156681136599,-1/709490156681136599,-1/709490156681136599,0,0]"


@pytest.mark.parametrize(
    "argv, name",
    [
        (["orbit", "--point", "eta_1", "--in", "H"], "orbit_eta_1_H"),
        (["orbit", "--point", "beta_0011"], "orbit_beta_0011"),
        (["stabilizer", "--point", "beta_0011"], "stabilizer_beta_0011"),
    ]
    + [
        (["orbit", "--point", f"[1/{d},5/{d},77/{d},0,3/{d},-1/{d}]"], f"orbit_den{d}")
        for d in ORBIT_DENOMINATORS
    ]
    + [
        # S3 with a non-cyclic germ, the 1/7 point, ±D8 with -1 and 5
        # reflections, all of G, and a trivial stabilizer
        (["stabilizer", "--point", "kappa_3", "--in", "H"], "stabilizer_kappa_3_H"),
        (["stabilizer", "--point", "eta_1", "--in", "H"], "stabilizer_eta_1_H"),
        (["stabilizer", "--point", "beta_1000"], "stabilizer_beta_1000"),
        (["stabilizer", "--point", "xi_0"], "stabilizer_xi_0"),
        (["stabilizer", "--point", "[1/1009,5/1009,77/1009,0,3/1009,-1/1009]"], "stabilizer_den1009"),
    ]
    + [
        # den 20011 packs three coordinates a key: a trivial stabilizer, whose
        # 336 first keys are distinct, in G and H; and a point on the r2
        # mirror, whose 336 images repeat each of 168 rows twice
        (["orbit", "--point", GENERIC_20011], "orbit_den20011_generic"),
        (["orbit", "--point", GENERIC_20011, "--in", "H"], "orbit_den20011_generic_H"),
        (["orbit", "--point", MIRROR_20011], "orbit_den20011_mirror"),
        # trivial stabilizers: a generic point, and one at the int64 boundary
        (["stabilizer", "--point", GENERIC_20011], "stabilizer_den20011_generic"),
        (["stabilizer", "--point", BOUNDARY_INT64], "stabilizer_den709490156681136599"),
    ],
)
def test_point_outputs_match_golden(tmp_path, capsys, argv, name):
    out = tmp_path / f"{name}.json"
    assert main(argv + ["--json", str(out)]) == 0
    assert capsys.readouterr().out == (GOLDEN / f"{name}.txt").read_text()
    assert out.read_bytes() == (GOLDEN / f"{name}.json").read_bytes()


def test_golden_verify_schema():
    payload = json.loads((GOLDEN / "verify.json").read_text())
    assert len(payload) == 17  # 14 criteria + 3 documented discrepancies
    for entry in payload:
        assert list(entry.keys()) == ["name", "status", "expected", "actual", "paper_ref"]
        assert entry["status"] in ("pass", "paper-discrepancy")
