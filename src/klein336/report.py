"""The verification suite: every acceptance check, with JSON/TSV emitters.

Each check produces a VerifyOutcome with a pass/fail status and printable
expected/actual values.  Checks whose computed value provably contradicts a
printed table in the source get a dedicated outcome with status
"paper-discrepancy" carrying both values; the computed value is asserted by
the corresponding main check.  Output is deterministic byte-for-byte:
randomized checks take a fixed seed.  AC14, the seeded property suite, draws
its stream once, in the calling process.  Where ``os.fork`` exists, a forked
child checks the SNF/HNF contracts on the matrices it inherits while AC01-AC13
and AC14's other parts run in the calling process; elsewhere the contracts run
in process after them.  Both paths give the same outcomes and the same bytes.
"""

from __future__ import annotations

import functools
import json
import os
import pickle
import random
import signal
from collections import Counter
from dataclasses import asdict, dataclass, fields
from fractions import Fraction

from .group import GroupTable, roots
from .linalg import (
    IDENTITY3,
    hnf_contains,
    hnf_rows,
    int_det,
    int_mat_mul,
    smith_normal_form,
)
from .orbits import (
    beta_table_summary,
    classify_locus,
    doubling_check,
    locus_points,
    on_singular_curve,
    orbit_points,
    singularity_report,
    singularity_weights,
    special_curves,
    stabilizer_indices,
)
from .qfield import ONE, QNum, hermitian
from .quartic import verify_quartic_invariance
from .torus import (
    ConsistencyError,
    TorusPoint,
    ZERO_POINT,
    apply_element,
    beta_point,
    enumerate_fixed_points,
    eta_point,
    fixed_locus_structure,
    fixed_point_count,
    half_periods,
    omega_point,
    xi_point,
)


@dataclass
class VerifyOutcome:
    name: str
    status: str  # "pass" | "fail" | "paper-discrepancy"
    expected: str
    actual: str
    paper_ref: str

    def to_dict(self) -> dict:
        return asdict(self)


def _outcome(name, ok, expected, actual, ref) -> VerifyOutcome:
    return VerifyOutcome(name, "pass" if ok else "fail", str(expected), str(actual), ref)


def _ac1(table: GroupTable) -> list[VerifyOutcome]:
    rts = roots()
    squares_ok = all(hermitian(e, e) == QNum(2) for e in rts)
    presentation = table.verify_presentation()
    actual = (
        f"|G|={table.size}, |H|={len(table.h_indices)}, "
        f"refl={len(table.reflections)}, antirefl={len(table.antireflections)}, "
        f"roots={len(rts)}, squares2={squares_ok}, presentation={presentation}"
    )
    ok = (
        table.size == 336
        and len(table.h_indices) == 168
        and len(table.reflections) == 21
        and len(table.antireflections) == 21
        and len(rts) == 42
        and squares_ok
        and presentation
    )
    expected = "|G|=336, |H|=168, refl=21, antirefl=21, roots=42, squares2=True, presentation=True"
    return [_outcome("AC01-group-construction", ok, expected, actual, "generator and root data")]


def _ac2(table: GroupTable) -> list[VerifyOutcome]:
    spectrum = sorted(set(e.order for e in table.elements))
    cox = table.product([table.named["r1"], table.named["r2"], table.named["r3"]])
    seventh = table.power(cox, 7) == table.minus_one
    ok = spectrum == [1, 2, 3, 4, 6, 7, 14] and seventh
    return [
        _outcome(
            "AC02-order-spectrum",
            ok,
            "orders {1,2,3,4,6,7,14}; (r1 r2 r3)^7 = -1",
            f"orders {set(spectrum)}; seventh power is -1: {seventh}",
            "element orders and the order-14 product",
        )
    ]


def _ac3(table: GroupTable) -> list[VerifyOutcome]:
    h_classes = table.conjugacy_classes("H")
    h_data = sorted((c.element_order, len(c.members)) for c in h_classes)
    expected_h = [(1, 1), (2, 21), (3, 56), (4, 42), (7, 24), (7, 24)]
    g_classes = table.conjugacy_classes("G")
    members = {c.members for c in g_classes}
    paired = all(
        tuple(sorted(table.multiply(table.minus_one, x) for x in c.members)) in members
        for c in g_classes
    )
    ok = h_data == expected_h and len(g_classes) == 12 and paired
    out = [
        _outcome(
            "AC03-conjugacy-classes",
            ok,
            f"H: {expected_h}; G: 12 classes in +- pairs",
            f"H: {h_data}; G: {len(g_classes)} classes, paired={paired}",
            "conjugacy class table of the unimodular subgroup",
        )
    ]
    size4 = next(len(c.members) for c in h_classes if c.element_order == 4)
    out.append(
        VerifyOutcome(
            "paper-discrepancy-order4-class-size",
            "paper-discrepancy",
            "printed table gives 24 for the order-4 class",
            f"computed size {size4}: forced by 42 determinant-1 elements of order 4 "
            "and by the class sizes summing to 168",
            "printed class table vs the element count stated alongside it",
        )
    )
    return out


def _ac4(table: GroupTable) -> list[VerifyOutcome]:
    n = table.named
    minus_g7 = table.multiply(n["m1"], n["g7"])
    cases = [
        ("m1", n["m1"], QNum(-8), 64),
        ("h4p", n["h4p"], QNum(-4), 16),
        ("c", n["c"], QNum(-2), 4),
        ("g7", n["g7"], QNum(-1, 2), 7),
        ("-g7", minus_g7, QNum(-1), 1),
    ]
    results = []
    ok = True
    for name, idx, want_det, want_count in cases:
        det3 = (table.elements[idx].mat - IDENTITY3).det()
        count = fixed_point_count(table, idx)
        ok = ok and det3 == want_det and count == want_count
        results.append(f"{name}: det={det3}, fixed={count}")
    expected = "dets -8, -4, -2, i*sqrt(7) = -1+2w, -1; counts 64, 16, 4, 7, 1"
    return [
        _outcome("AC04-elliptic-determinants", ok, expected, "; ".join(results),
                 "shifted determinants of elliptic representatives")
    ]


def _ac5(table: GroupTable) -> list[VerifyOutcome]:
    n = table.named
    checks = {
        "half-periods": (
            sorted(enumerate_fixed_points(table, n["m1"])),
            sorted(half_periods()),
        ),
        "beta": (
            sorted(enumerate_fixed_points(table, n["h4p"])),
            sorted(beta_point(i) for i in range(16)),
        ),
        "omega": (
            sorted(enumerate_fixed_points(table, n["c"])),
            sorted(omega_point(i, j) for i in (0, 1) for j in (0, 1)),
        ),
        "eta": (
            sorted(enumerate_fixed_points(table, n["g7"])),
            sorted(eta_point(i) for i in range(7)),
        ),
    }
    eta_formula = all(
        eta_point(i)
        == TorusPoint([Fraction(i * b, 7) for b in (-1, -1, 1, 1, 1, -1)])
        for i in range(7)
    )
    ok = all(got == want for got, want in checks.values()) and eta_formula
    actual = ", ".join(
        f"{k}: {'match' if got == want else 'MISMATCH'}" for k, (got, want) in checks.items()
    )
    return [
        _outcome(
            "AC05-fixed-point-registries",
            ok,
            "enumerated fixed point sets equal the named registries",
            actual + f"; eta formula holds: {eta_formula}",
            "explicit fixed-point representatives",
        )
    ]


def _ac6(table: GroupTable) -> list[VerifyOutcome]:
    curves = special_curves(table)
    # r2, c3 and h4 carry the mirror and the two axes; rho2 carries no special curve
    expectations = {
        "r2": (curves["mirror"].locus, 1, 2),
        "rho2": (fixed_locus_structure(table, table.named["rho2"]), 4, 1),
        "c3": (curves["c3_axis"].locus, 1, 1),
        "h4": (curves["h4_axis"].locus, 1, 1),
    }
    parts = []
    ok = True
    for name, (locus, want, want_dim) in expectations.items():
        ok = ok and locus.component_count == want and locus.dim == want_dim
        parts.append(f"{name}: components={locus.component_count}, dimV1={locus.dim}")
    return [
        _outcome(
            "AC06-parabolic-structure",
            ok,
            "components 1 (r2), 4 (rho2), 1 (c3), 1 (h4); mirror dim 2, axes dim 1",
            "; ".join(parts),
            "fixed-locus components of parabolic elements",
        )
    ]


def _ac7(table: GroupTable) -> list[VerifyOutcome]:
    t7 = locus_points(table, "T7")
    rec_g = classify_locus(table, "T7", "G")
    rec_h = classify_locus(table, "T7", "H")
    dbl = doubling_check(table)
    nh = table.normalizer(table.subgroup_closure([table.named["g7"]])) & table.h_set
    stab_eta = stabilizer_indices(table, eta_point(1), "H")
    ok = (
        len(t7) == 48
        and len(rec_g) == 1
        and rec_g[0].orbit_size == 48
        and [r.orbit_size for r in rec_h] == [24, 24]
        and dbl["ok"]
        and len(nh) == 21
        and len(stab_eta) == 7
    )
    actual = (
        f"|T7|={len(t7)}, G-orbits={[r.orbit_size for r in rec_g]}, "
        f"H-orbits={[r.orbit_size for r in rec_h]}, doubling={dbl['ok']}, "
        f"|N_H|={len(nh)}, |H-stab(eta1)|={len(stab_eta)}"
    )
    return [
        _outcome(
            "AC07-seventh-torsion-locus",
            ok,
            "|T7|=48; one G-orbit; two H-orbits of 24; doubling holds; normalizer 21; stabilizer 7",
            actual,
            "order-7 fixed locus and its orbits",
        )
    ]


def _ac8(table: GroupTable) -> list[VerifyOutcome]:
    summary = beta_table_summary(table)
    labels = {k: sorted(v["points"]) for k, v in summary.items()}
    expected_labels = {
        "±S4": ["beta_0100", "beta_1100"],
        "S4'": ["beta_0001", "beta_0010", "beta_0110", "beta_1101"],
        "±D8": ["beta_1000"],
        "D8'": ["beta_0101", "beta_1001", "beta_1010", "beta_1110"],
        "C4": ["beta_0011", "beta_0111", "beta_1011", "beta_1111"],
    }
    image_counts = {k: v["image_count"] for k, v in summary.items()}
    expected_counts = {"±S4": 2, "S4'": 2, "±D8": 1, "D8'": 2, "C4": 1}
    statuses = {k: v["image_status"] for k, v in summary.items()}
    ok = (
        labels == expected_labels
        and image_counts == expected_counts
        and statuses["C4"] == "1/4(1,2,3)"
        and statuses["±S4"] == "smooth"
        and statuses["S4'"] == "smooth"
        and statuses["±D8"] == "smooth"
        and statuses["D8'"] == "1/2(0,1,1)"
    )
    out = [
        _outcome(
            "AC08-beta-table",
            ok,
            f"labels {sorted(expected_counts)} with image counts {expected_counts}; "
            "C4 column 1/4(1,2,3); D8' column 1/2(0,1,1) on the singular curve; rest smooth",
            f"image counts {dict(sorted(image_counts.items()))}; statuses {dict(sorted(statuses.items()))}",
            "beta stabilizer table",
        )
    ]
    d8p_on_curve = all(
        on_singular_curve(table, beta_point(name.split("_")[1])) for name in expected_labels["D8'"]
    )
    out.append(
        VerifyOutcome(
            "paper-discrepancy-beta-D8p-column",
            "paper-discrepancy",
            "printed table marks the D8' column smooth (stabilizers generated by reflections)",
            "computed: the two reflections in each D8' stabilizer commute and close to a "
            "Klein four-group, so the stabilizer is not reflection-generated; the exact "
            "residual-invariant computation gives germ 1/2(0,1,1), and the points lie on "
            f"the singular curve (verified: {d8p_on_curve}), matching its generic transversal type",
            "beta table smoothness row vs exact closure and invariant computation",
        )
    )
    return out


def _ac9(table: GroupTable) -> list[VerifyOutcome]:
    records = classify_locus(table, "T2", "G")
    data = sorted((r.orbit_size, r.label, r.image_status) for r in records)
    expected = [
        (7, "±S4", "smooth"),
        (7, "±S4", "smooth"),
        (21, "±D8", "smooth"),
        (28, "±S3", "1/2(0,1,1)"),
    ]
    s3_rec = next(r for r in records if r.label == "±S3")
    on_curve = on_singular_curve(table, s3_rec.representative)
    ok = data == expected and sum(r.orbit_size for r in records) == 63 and on_curve
    out = [
        _outcome(
            "AC09-half-period-orbits",
            ok,
            "orbits 7+7+21+28 with labels ±S4, ±S4, ±D8, ±S3; the ±S3 orbit lies on "
            "the singular curve with its generic type 1/2(0,1,1); the rest smooth",
            f"{data}; ±S3 orbit on singular curve: {on_curve}",
            "half-period orbit decomposition",
        )
    ]
    out.append(
        VerifyOutcome(
            "paper-discrepancy-T2-S3-orbit",
            "paper-discrepancy",
            "printed claim: all four half-period orbit images are smooth",
            "computed: the ±S3 stabilizer's three reflections close to a group of order 6, "
            "not 12, so it is not reflection-generated; its germ is 1/2(0,1,1) and the "
            "orbit lies on the singular curve as an ordinary point (the pair-products of "
            "its reflections only generate rotations, unlike the ±S4/±D8 cases where a "
            "Klein relation reaches -1)",
            "half-period smoothness claim vs exact closure computation",
        )
    )
    return out


def _ac10(table: GroupTable) -> list[VerifyOutcome]:
    classes = table.all_subgroups_of_h()
    pairs = sorted(((c.order, c.length) for c in classes), reverse=True)
    expected_pairs = [
        (168, 1), (24, 7), (24, 7), (21, 8), (12, 7), (12, 7), (8, 21),
        (7, 8), (6, 28), (4, 21), (4, 7), (4, 7), (3, 28), (2, 21), (1, 1),
    ]
    by_number = {c.number: c for c in classes}

    def key(c):
        return (c.structure, c.order, c.length)

    seen_max: Counter = Counter()
    seen_min: Counter = Counter()
    for c in classes:
        for nr, count in c.maximal:
            seen_max[(key(c), key(by_number[nr]))] += count
        for nr, count in c.minimal_over:
            seen_min[(key(c), key(by_number[nr]))] += count
    expect_max: Counter = Counter()
    expect_min: Counter = Counter()
    for k, (maxp, minp) in _EXPECTED_LATTICE.items():
        dup = 2 if k[0] in ("2^2:S3", "A4", "2^2") else 1
        for sub_k, count in maxp.items():
            expect_max[(k, sub_k)] += count * dup
        for over_k, count in minp.items():
            expect_min[(k, over_k)] += count * dup
    ok = (
        len(classes) == 15
        and sum(c.length for c in classes) == 179
        and pairs == expected_pairs
        and seen_max == expect_max
        and seen_min == expect_min
    )
    return [
        _outcome(
            "AC10-subgroup-lattice",
            ok,
            "15 classes, 179 subgroups, printed (order, length) pairs and inclusion profiles",
            f"classes={len(classes)}, subgroups={sum(c.length for c in classes)}, "
            f"pairs match: {pairs == expected_pairs}, inclusions match: "
            f"{seen_max == expect_max and seen_min == expect_min}",
            "subgroup lattice table",
        )
    ]


_EXPECTED_LATTICE = {
    ("L2(7)", 168, 1): ({("2^2:S3", 24, 7): 14, ("7:3", 21, 8): 8}, {}),
    ("2^2:S3", 24, 7): (
        {("A4", 12, 7): 1, ("D8", 8, 21): 3, ("S3", 6, 28): 4},
        {("L2(7)", 168, 1): 1},
    ),
    ("7:3", 21, 8): ({("7", 7, 8): 1, ("3", 3, 28): 7}, {("L2(7)", 168, 1): 1}),
    ("A4", 12, 7): ({("2^2", 4, 7): 1, ("3", 3, 28): 4}, {("2^2:S3", 24, 7): 1}),
    ("D8", 8, 21): (
        {("2^2", 4, 7): 2, ("4", 4, 21): 1},
        {("2^2:S3", 24, 7): 2},
    ),
    ("7", 7, 8): ({("1", 1, 1): 1}, {("7:3", 21, 8): 1}),
    ("S3", 6, 28): ({("3", 3, 28): 1, ("2", 2, 21): 3}, {("2^2:S3", 24, 7): 2}),
    ("2^2", 4, 7): ({("2", 2, 21): 3}, {("A4", 12, 7): 1, ("D8", 8, 21): 3}),
    ("4", 4, 21): ({("2", 2, 21): 1}, {("D8", 8, 21): 1}),
    ("3", 3, 28): (
        {("1", 1, 1): 1},
        {("7:3", 21, 8): 2, ("A4", 12, 7): 2, ("S3", 6, 28): 1},
    ),
    ("2", 2, 21): (
        {("1", 1, 1): 1},
        {("S3", 6, 28): 4, ("2^2", 4, 7): 2, ("4", 4, 21): 1},
    ),
    ("1", 1, 1): ({}, {("7", 7, 8): 8, ("3", 3, 28): 28, ("2", 2, 21): 21}),
}


def _ac11(table: GroupTable) -> list[VerifyOutcome]:
    rep_g = singularity_report(table, "G")
    by_name = {c["name"]: c for c in rep_g.curves}
    singular_curves = [c["name"] for c in rep_g.curves if c["image_status"] != "smooth"]
    diss = by_name["kappa_3"]["dissident_points"]
    ok_g = (
        len(rep_g.isolated) == 1
        and rep_g.isolated[0]["image_status"] == "1/7(1,2,4)"
        and singular_curves == ["kappa_3"]
        and by_name["kappa_3"]["image_status"] == "1/2(0,1,1)"
        and len(diss) == 1
        and diss[0]["image_status"] == "1/4(1,2,3)"
    )
    rep_h = singularity_report(table, "H")
    ok_h = len(rep_h.isolated) == 2 and all(
        r["image_status"] == "1/7(1,2,4)" for r in rep_h.isolated
    )
    ok = ok_g and ok_h
    actual = (
        f"G: isolated={[r['image_status'] for r in rep_g.isolated]}, "
        f"singular curves={singular_curves}, dissident={[d['image_status'] for d in diss]}; "
        f"H: isolated={[r['image_status'] for r in rep_h.isolated]}"
    )
    return [
        _outcome(
            "AC11-singularity-report",
            ok,
            "G: one isolated 1/7(1,2,4), one curve 1/2(0,1,1), one dissident 1/4(1,2,3) on it; "
            "H: two isolated 1/7(1,2,4)",
            actual,
            "main classification of the quotient singularities",
        )
    ]


def _ac12(table: GroupTable) -> list[VerifyOutcome]:
    curves = special_curves(table)
    stabs = [curves[f"kappa_{i}"].generic for i in (1, 2, 3)]
    labels = [table.recognize(s) for s in stabs]
    two_refl = all(
        len(s & table.reflection_set) == 2 and singularity_weights(table, s).status == "smooth"
        for s in stabs[:2]
    )
    inter = stabs[2] == stabs[0] & stabs[1]
    label3, label4 = (table.recognize(curves[c].generic) for c in ("c3_axis", "h4_axis"))
    ok = (
        labels == ["2^2", "2^2", "C2-antirefl"]
        and two_refl
        and inter
        and label3 == "S3'"
        and label4 == "D8'"
    )
    actual = (
        f"kappa labels {labels}, two-reflection generation: {two_refl}, "
        f"kappa_3 = intersection: {inter}, diagonal axis: {label3}, "
        f"order-4 axis: {label4}"
    )
    return [
        _outcome(
            "AC12-generic-curve-stabilizers",
            ok,
            "kappa_1, kappa_2 -> 2^2 from two reflections; kappa_3 -> C2-antirefl = intersection; "
            "diagonal axis -> S3'; order-4 axis -> D8'",
            actual,
            "generic stabilizers along the special curves",
        )
    ]


def _ac13(table: GroupTable) -> list[VerifyOutcome]:
    ok = verify_quartic_invariance(table)
    gens_only = verify_quartic_invariance(table, generators_only=True)
    return [
        _outcome(
            "AC13-quartic-invariance",
            ok and gens_only,
            "the quartic form is fixed by all 336 elements (exact coefficients)",
            f"all elements: {ok}; generators alone: {gens_only}",
            "invariance of the plane quartic",
        )
    ]


def _random_qnum(rng: random.Random) -> QNum:
    """x + y*w with x = a/b, y = c/d, drawn in the order a, b, c, d.

    ``rng.randrange(lo, hi + 1)`` is the documented meaning of ``randint(lo, hi)``.
    """
    draw = rng.randrange
    a, b, c, d = draw(-50, 51), draw(1, 11), draw(-50, 51), draw(1, 11)
    return QNum.from_ints(a * d, c * b, b * d)


def _ac14_registry(table: GroupTable) -> list[TorusPoint]:
    """AC14's 95 points: the fixed-point registries, zero and the kappa translates."""
    return (
        [xi_point(k) for k in range(64)]
        + [beta_point(i) for i in range(16)]
        + [eta_point(i) for i in range(7)]
        + [omega_point(i, j) for i in (0, 1) for j in (0, 1)]
        + [ZERO_POINT]
        + [special_curves(table)[f"kappa_{i}"].translate for i in (1, 2, 3)]
    )


def _ac14_draws(table: GroupTable, seed: int):
    """AC14's registry and its draws from ``random.Random(seed)``, in stream order.

    Returns ``(registry, pairs, matrices, rng)``: the 100 covariance pairs (a
    registry point and an element id), the 1000 matrices (m x n with m, n in
    [1, 5] and entries in [-10, 10]; ``rng.randrange(lo, hi + 1)`` is
    ``randint(lo, hi)``), and the stream, positioned at the field draws.
    """
    registry = _ac14_registry(table)
    rng = random.Random(seed)
    draw = rng.randrange
    pairs = [(registry[draw(len(registry))], draw(table.size)) for _ in range(100)]
    matrices = []
    for _ in range(1000):
        m, n = draw(1, 6), draw(1, 6)
        matrices.append([[draw(-10, 11) for _ in range(n)] for _ in range(m)])
    return registry, pairs, matrices, rng


def _ac14_normal_forms(matrices: list[list[list[int]]]) -> bool:
    """The SNF/HNF contracts on AC14's 1000 matrices."""
    ok = True
    for a in matrices:
        u, d, v = smith_normal_form(a)
        uav = int_mat_mul(int_mat_mul(u, a), v)
        diag = [d[i][i] for i in range(min(len(a), len(a[0])))]
        chain = all(
            (x and y % x == 0) or (not x and not y) for x, y in zip(diag, diag[1:])
        )
        ok = (
            ok
            and uav == d
            and abs(int_det(u)) == 1
            and abs(int_det(v)) == 1
            and chain
            and all(x >= 0 for x in diag)
        )
        h = hnf_rows(a)
        ok = ok and all(hnf_contains(h, row) for row in a)
    return ok


def _ac14(table: GroupTable, registry, pairs, rng, normal_forms) -> list[VerifyOutcome]:
    """AC14, the seeded property suite, on the registry, pairs and stream of ``_ac14_draws``.

    The field axioms continue ``rng``.  ``normal_forms()`` gives the verdict of
    ``_ac14_normal_forms`` on the matrices; it is read last.
    """
    orbit_stab = all(
        len(stabilizer_indices(table, p, q)) * len(orbit_points(table, p, q)) == n
        for p in registry
        for q, n in (("G", 336), ("H", 168))
    )
    covariant = True
    for p, gidx in pairs:
        moved = apply_element(table.elements[gidx].int6, p)
        expected = frozenset(
            table.conjugate(gidx, s) for s in stabilizer_indices(table, p, "G")
        )
        covariant = covariant and stabilizer_indices(table, moved, "G") == expected
    axioms = True
    for _ in range(1000):
        a, b, c = (_random_qnum(rng) for _ in range(3))
        ab = a * b
        axioms = axioms and ab * c == a * (b * c) and a * (b + c) == ab + a * c
        if a:
            axioms = axioms and a * a.inv() == ONE
        axioms = axioms and ab.conj() == a.conj() * b.conj()
        axioms = axioms and ab.norm() == a.norm() * b.norm()
    checked = normal_forms()
    ok = orbit_stab and covariant and checked and axioms
    actual = (
        f"orbit-stabilizer: {orbit_stab}; covariance(100): {covariant}; "
        f"normal forms(1000): {checked}; field axioms(1000): {axioms}"
    )
    return [
        _outcome(
            "AC14-property-suites",
            ok,
            "orbit-stabilizer, covariance, SNF/HNF contracts, field axioms all hold",
            actual,
            "randomized algebraic contracts",
        )
    ]


class _Forked:
    """``fn(*args)`` computed in a forked child while the ``with`` block runs.

    ``result()`` returns the child's value, or raises the exception that the
    child raised, rebuilt with its type, arguments and attributes.  The child
    sends one pickle through a pipe and leaves by ``os._exit``, so it runs no
    atexit handler and flushes no stdout buffer it inherited.  Leaving the
    block reaps the child, and kills it first if its result was not read.
    Where ``os.fork`` does not exist, ``result()`` calls ``fn`` in process.
    """

    def __init__(self, fn, *args):
        self.call = functools.partial(fn, *args)
        self.pid = self.pipe = None

    def __enter__(self):
        if not hasattr(os, "fork"):
            return self
        read_end, write_end = os.pipe()
        self.pid = os.fork()
        if self.pid == 0:  # the child
            status = 1
            try:
                os.close(read_end)
                try:
                    payload = (None, self.call())
                except BaseException as exc:
                    payload = (type(exc), (exc.args, vars(exc)))
                data = pickle.dumps(payload)
                with open(write_end, "wb") as pipe:
                    pipe.write(data)
                status = 0
            finally:
                os._exit(status)
        os.close(write_end)
        self.pipe = open(read_end, "rb")
        return self

    def result(self):
        if self.pipe is None:
            return self.call()
        data = self.pipe.read()
        _, status = os.waitpid(self.pid, 0)
        self.pid = None
        code = os.waitstatus_to_exitcode(status)
        if code or not data:
            raise ConsistencyError(
                f"the forked child computing {self.call.func.__name__} ended without "
                f"a result, exit status {code}"
            )
        error, value = pickle.loads(data)
        if error is None:
            return value
        args, attributes = value
        exc = error.__new__(error, *args)
        exc.__dict__.update(attributes)
        raise exc

    def __exit__(self, *exc_info):
        if self.pid is not None:  # an exception left the block before result()
            os.kill(self.pid, signal.SIGKILL)
            os.waitpid(self.pid, 0)
        if self.pipe is not None:
            self.pipe.close()


def run_verify(table: GroupTable, seed: int = 0) -> list[VerifyOutcome]:
    """Run the complete acceptance suite and return its outcomes in order.

    AC14's draws are made here once, before the fork.  Its SNF/HNF contracts
    depend on no other check, so where ``os.fork`` exists a forked child
    checks the matrices it inherits, on a second core, while AC01-AC13 and
    the rest of AC14 run here.  Their verdict is read back last, into AC14's
    one outcome.  The child is reaped before this returns or raises, and an
    exception it raised is raised here with the same type and message.
    """
    outcomes: list[VerifyOutcome] = []
    registry, pairs, matrices, rng = _ac14_draws(table, seed)
    with _Forked(_ac14_normal_forms, matrices) as child:
        outcomes += _ac1(table)
        outcomes += _ac2(table)
        outcomes += _ac3(table)
        outcomes += _ac4(table)
        outcomes += _ac5(table)
        outcomes += _ac6(table)
        outcomes += _ac7(table)
        outcomes += _ac8(table)
        outcomes += _ac9(table)
        outcomes += _ac10(table)
        outcomes += _ac11(table)
        outcomes += _ac12(table)
        outcomes += _ac13(table)
        outcomes += _ac14(table, registry, pairs, rng, child.result)
    return outcomes


def emit_report(outcomes: list[VerifyOutcome], fmt: str = "json") -> bytes:
    """Deterministic serialized report: stable ordering, no timestamps."""
    if fmt == "json":
        payload = [o.to_dict() for o in outcomes]
        return (json.dumps(payload, indent=2, ensure_ascii=True) + "\n").encode()
    if fmt == "tsv":
        lines = ["\t".join(f.name for f in fields(VerifyOutcome))]
        for o in outcomes:
            clean = [v.replace("\t", " ").replace("\n", " ") for v in asdict(o).values()]
            lines.append("\t".join(clean))
        return ("\n".join(lines) + "\n").encode()
    raise ValueError(f"unknown report format {fmt!r}")


def has_failures(outcomes: list[VerifyOutcome]) -> bool:
    return any(o.status == "fail" for o in outcomes)
