"""Acceptance suite: every criterion runs exactly once and prints its verdict.

The underlying checks are exact (no tolerances beyond the documented float
eigenvalue snapping, which is itself cross-validated against exact traces
and determinants).  Criteria whose printed source values are provably
inconsistent with the computed structure (the order-4 class size, the two
smoothness claims) are asserted at their computed values, and the suite
must flag each conflict with a dedicated paper-discrepancy outcome.
"""

import pytest

from klein336.report import emit_report, has_failures, run_verify

CRITERIA = {
    "AC01-group-construction": "group order, index-2 subgroup, reflections, roots, presentation",
    "AC02-order-spectrum": "element orders and the order-14 product",
    "AC03-conjugacy-classes": "class data of both groups",
    "AC04-elliptic-determinants": "shifted determinants and fixed point counts",
    "AC05-fixed-point-registries": "enumerated fixed sets equal the named registries",
    "AC06-parabolic-structure": "component counts and eigenspace dimensions",
    "AC07-seventh-torsion-locus": "orbits, doubling, normalizer, stabilizer",
    "AC08-beta-table": "stabilizer labels, image counts, germ statuses",
    "AC09-half-period-orbits": "orbit sizes, labels, germ statuses",
    "AC10-subgroup-lattice": "15 classes, 179 subgroups, inclusion profiles",
    "AC11-singularity-report": "full stratification of both quotients",
    "AC12-generic-curve-stabilizers": "exact generic stabilizers along special curves",
    "AC13-quartic-invariance": "exact invariance of the quartic form",
    "AC14-property-suites": "randomized algebraic contracts",
}


@pytest.fixture(scope="module")
def outcomes_by_name(verify_outcomes):
    return {o.name: o for o in verify_outcomes}


@pytest.mark.parametrize("name", sorted(CRITERIA))
def test_acceptance_criterion(name, outcomes_by_name):
    outcome = outcomes_by_name[name]
    verdict = "PASS" if outcome.status == "pass" else "FAIL"
    print(f"{verdict}: {name} — {CRITERIA[name]}")
    assert outcome.status == "pass", (
        f"{name}: expected {outcome.expected}; actual {outcome.actual}"
    )


def test_every_criterion_present_exactly_once(verify_outcomes):
    names = [o.name for o in verify_outcomes]
    for name in CRITERIA:
        assert names.count(name) == 1


def test_documented_discrepancies_are_flagged(outcomes_by_name):
    for name in (
        "paper-discrepancy-order4-class-size",
        "paper-discrepancy-beta-D8p-column",
        "paper-discrepancy-T2-S3-orbit",
    ):
        outcome = outcomes_by_name[name]
        print(f"DISCREPANCY: {name}")
        assert outcome.status == "paper-discrepancy"
        assert outcome.expected and outcome.actual


def test_no_failures_overall(verify_outcomes):
    assert not has_failures(verify_outcomes)


def test_suite_is_deterministic(group, verify_outcomes):
    assert emit_report(run_verify(group, seed=0), "json") == emit_report(
        verify_outcomes, "json"
    )
