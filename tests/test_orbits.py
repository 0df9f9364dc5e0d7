import random
from collections import Counter
from fractions import Fraction as F

import numpy as np
import pytest

from oracles import (
    complement_fixed_locus,
    exact_orbit,
    exact_stabilizer,
    field_singularity_weights,
    goursat_subgroups_of_g,
    projector_setwise_stabilizer,
    sampled_curve_stabilizer,
)
from klein336.group import R1, R2, R3, GroupTable
from klein336.orbits import (
    ConsistencyError,
    _inverse_char_poly,
    beta_table_summary,
    classify_locus,
    curve_setwise_stabilizer,
    curve_strata,
    doubling_check,
    generic_curve_stabilizer,
    locus_points,
    orbit_points,
    point_on_off_mirror_curve,
    reflection_generated,
    singularity_report,
    singularity_weights,
    stabilizer_indices,
)
from klein336.qfield import QNum
from klein336.quartic import verify_quartic_invariance
from klein336.torus import (
    EllipticElementError,
    IdentityElementError,
    TorusPoint,
    ZERO_POINT,
    apply_element,
    beta_point,
    eta_point,
    fixed_locus_structure,
    kappa_translates,
    omega_point,
    registry_point,
    xi_point,
)


def test_stabilizer_examples(group):
    assert len(stabilizer_indices(group, ZERO_POINT, "G")) == 336
    assert len(stabilizer_indices(group, ZERO_POINT, "H")) == 168
    s_eta = stabilizer_indices(group, eta_point(1), "H")
    assert len(s_eta) == 7 and group.recognize(s_eta) == "C7"
    s_beta = stabilizer_indices(group, beta_point("1000"), "G")
    assert len(s_beta) == 16 and group.recognize(s_beta) == "±D8"


def test_stabilizer_matches_exact_application(group):
    rng = random.Random(30)
    pts = [eta_point(2), beta_point("0110"), xi_point(13), omega_point(1, 1)]
    for p in pts:
        stab = stabilizer_indices(group, p, "G")
        for _ in range(30):
            i = rng.randrange(group.size)
            fixes = apply_element(group.elements[i].int6, p) == p
            assert fixes == (i in stab)


def test_orbit_sizes(group):
    assert len(orbit_points(group, omega_point(0, 1), "G")) == 7
    assert len(orbit_points(group, omega_point(1, 1), "G")) == 7
    assert len(orbit_points(group, omega_point(1, 0), "G")) == 28
    assert len(orbit_points(group, eta_point(1), "G")) == 48
    assert len(orbit_points(group, eta_point(1), "H")) == 24


def test_orbit_stabilizer_identity_on_registry(group):
    points = (
        [xi_point(k) for k in range(64)]
        + [beta_point(i) for i in range(16)]
        + [eta_point(i) for i in range(7)]
        + [omega_point(i, j) for i in (0, 1) for j in (0, 1)]
        + list(kappa_translates(group))
    )
    for quotient, order in (("G", 336), ("H", 168)):
        for p in points:
            stab = stabilizer_indices(group, p, quotient)
            orb = orbit_points(group, p, quotient)
            assert len(stab) * len(orb) == order


def test_stabilizer_conjugation_covariance(group):
    rng = random.Random(31)
    points = [eta_point(1), beta_point("0011"), omega_point(1, 0), xi_point(9)]
    for _ in range(100):
        p = points[rng.randrange(len(points))]
        gidx = rng.randrange(group.size)
        moved = apply_element(group.elements[gidx].int6, p)
        stab = stabilizer_indices(group, p, "G")
        expected = frozenset(group.conjugate(gidx, s) for s in stab)
        assert stabilizer_indices(group, moved, "G") == expected


def test_reflection_generated_examples(group):
    n = group.named
    assert reflection_generated(group, group.subgroup_closure([n["r1"]]))
    assert not reflection_generated(
        group, stabilizer_indices(group, beta_point("0011"), "G")
    )
    assert reflection_generated(group, stabilizer_indices(group, omega_point(0, 1), "G"))
    # trivial stabilizer counts as reflection generated (free orbit, smooth image)
    assert reflection_generated(group, frozenset([group.identity]))


def test_singularity_weights(group):
    s_eta = stabilizer_indices(group, eta_point(1), "G")
    w = singularity_weights(group, s_eta)
    assert (w.order, w.weights) == (7, (1, 2, 4))
    s_q = stabilizer_indices(group, beta_point("0011"), "G")
    w = singularity_weights(group, s_q)
    assert (w.order, w.weights) == (4, (1, 2, 3))
    rho1 = group.named["rho1"]
    w = singularity_weights(group, group.subgroup_closure([rho1]))
    assert (w.order, w.weights) == (2, (0, 1, 1))
    # weight normalization: eigenvalue product equals the exact determinant
    gen = next(iter(i for i in s_q if group.elements[i].order == 4))
    assert group.elements[gen].det == -1  # product of i, -i, -1


def test_staged_weights_for_non_reflection_generated_stabilizers(group):
    # the 28-point half-period orbit: +-S3, reduces through its S3' part
    s = stabilizer_indices(group, omega_point(1, 0), "G")
    assert group.recognize(s) == "±S3"
    assert not reflection_generated(group, s)
    w = singularity_weights(group, s)
    assert (w.status, w.order, w.weights) == ("cyclic", 2, (0, 1, 1))
    # the beta D8' stabilizer: two commuting reflections, residual involution
    s = stabilizer_indices(group, beta_point("1010"), "G")
    assert group.recognize(s) == "D8'"
    assert not reflection_generated(group, s)
    w = singularity_weights(group, s)
    assert (w.status, w.order, w.weights) == ("cyclic", 2, (0, 1, 1))


def test_germ_rule_matches_field_oracle_on_all_subgroups_of_g(group):
    # the coset series against degree parity and the residual involution
    subgroups = goursat_subgroups_of_g(group)
    assert len(set(subgroups)) == 547
    index2_shapes = set()
    for s in subgroups:
        assert singularity_weights(group, s) == field_singularity_weights(group, s)
        if reflection_generated(group, s) or any(group.elements[i].order == len(s) for i in s):
            continue
        if 2 * len(group.reflection_subgroup_closure(s)) == len(s):
            index2_shapes.add(group.recognize(s))
    assert index2_shapes == {"C2xC2'", "±S3", "D8'"}


def test_inverse_char_poly_inverts_det_one_minus_tg(group):
    # e2 as the sum of principal 2x2 minors in field arithmetic; the order-7
    # elements have non-real traces, so conj(tr) and tr are told apart
    n = 9
    assert any(el.mat.trace().b for el in group.elements)
    for el in group.elements:
        m = el.mat.rows
        e2 = sum(
            (m[i][i] * m[j][j] - m[i][j] * m[j][i] for i, j in ((0, 1), (0, 2), (1, 2))),
            QNum(0),
        )
        tr = el.mat.trace()
        poly = [QNum(1), -tr, e2, QNum(-el.det)]
        series = [QNum(a, b) for a, b in _inverse_char_poly((tr.a, tr.b), el.det, n)]
        for k in range(n + 1):
            product = sum((poly[j] * series[k - j] for j in range(min(k, 3) + 1)), QNum(0))
            assert product == int(k == 0)


def test_index2_germs_use_no_floating_point(group, monkeypatch):
    # eigenvalue snapping is the one place floats appear; staged germs are exact
    def no_floats(*args):
        raise AssertionError("numpy.linalg.eigvals called")

    monkeypatch.setattr(np.linalg, "eigvals", no_floats)
    staged = {
        "±S3": stabilizer_indices(group, omega_point(1, 0), "G"),
        "D8'": stabilizer_indices(group, beta_point("1010"), "G"),
        "C2xC2'": group.subgroup_closure([group.named["r1"], group.minus_one]),
    }
    for label, s in staged.items():
        assert group.recognize(s) == label
        assert singularity_weights(group, s).image_status() == "1/2(0,1,1)"
    with pytest.raises(AssertionError, match="eigvals"):
        singularity_weights(group, group.subgroup_closure([group.named["rho1"]]))


def test_t2_classification(group):
    records = classify_locus(group, "T2", "G")
    data = sorted((r.orbit_size, r.label, r.image_status) for r in records)
    assert data == [
        (7, "±S4", "smooth"),
        (7, "±S4", "smooth"),
        (21, "±D8", "smooth"),
        (28, "±S3", "1/2(0,1,1)"),
    ]
    assert sum(r.orbit_size for r in records) == 63


def test_t2_brute_force_oracle(group):
    # independent recomputation: partition all 63 nonzero half-periods by
    # exhaustively applying all 336 elements
    points = [xi_point(k) for k in range(1, 64)]
    seen = set()
    sizes = []
    for p in points:
        if p in seen:
            continue
        orbit = {apply_element(el.int6, p) for el in group.elements}
        assert orbit <= set(points)
        seen |= orbit
        sizes.append(len(orbit))
    assert sorted(sizes) == [7, 7, 21, 28]
    records = classify_locus(group, "T2", "G")
    assert sorted(r.orbit_size for r in records) == sorted(sizes)


def test_t6_classification(group):
    records = classify_locus(group, "T6", "G")
    assert sorted((r.orbit_size, r.label) for r in records) == [
        (7, "±S4"),
        (7, "±S4"),
        (28, "±S3"),
    ]
    assert len(locus_points(group, "T6")) == 42


def test_t7_classification(group):
    assert len(locus_points(group, "T7")) == 48
    rec_g = classify_locus(group, "T7", "G")
    assert len(rec_g) == 1 and rec_g[0].orbit_size == 48
    assert rec_g[0].label == "C7" and rec_g[0].image_status == "1/7(1,2,4)"
    rec_h = classify_locus(group, "T7", "H")
    assert [r.orbit_size for r in rec_h] == [24, 24]
    assert all(r.image_status == "1/7(1,2,4)" for r in rec_h)


def test_t4p_locus(group):
    pts = locus_points(group, "T4p")
    assert len(pts) == 231
    records = classify_locus(group, "T4p", "G")
    assert sorted(r.orbit_size for r in records) == [7, 7, 14, 14, 21, 42, 42, 84]


def test_beta_table(group):
    summary = beta_table_summary(group)
    assert set(summary) == {"±S4", "S4'", "±D8", "D8'", "C4"}
    assert sorted(summary["±S4"]["points"]) == ["beta_0100", "beta_1100"]
    assert sorted(summary["S4'"]["points"]) == [
        "beta_0001",
        "beta_0010",
        "beta_0110",
        "beta_1101",
    ]
    assert summary["±D8"]["points"] == ["beta_1000"]
    assert sorted(summary["D8'"]["points"]) == [
        "beta_0101",
        "beta_1001",
        "beta_1010",
        "beta_1110",
    ]
    assert sorted(summary["C4"]["points"]) == [
        "beta_0011",
        "beta_0111",
        "beta_1011",
        "beta_1111",
    ]
    assert {k: v["image_count"] for k, v in summary.items()} == {
        "±S4": 2,
        "S4'": 2,
        "±D8": 1,
        "D8'": 2,
        "C4": 1,
    }
    assert summary["C4"]["image_status"] == "1/4(1,2,3)"
    assert summary["±S4"]["image_status"] == "smooth"
    assert summary["S4'"]["image_status"] == "smooth"
    assert summary["±D8"]["image_status"] == "smooth"


def test_h_stabilizers_of_beta_points(group):
    expected = {
        "beta_0100": "S4",
        "beta_0001": "A4",
        "beta_1000": "D8",
        "beta_1010": "2^2",
        "beta_0011": "C2-antirefl",
    }
    for name, label in expected.items():
        p = registry_point(group, name)
        assert group.recognize(stabilizer_indices(group, p, "H")) == label


def test_doubling(group):
    res = doubling_check(group)
    assert res["ok"]
    assert res["h3_doubles_eta1"]
    assert res["eta_orbit_partition"]
    assert res["minus_one_swaps_orbits"]
    # eta_2 = 2*eta_1 and eta_4 = 4*eta_1 as torus points
    assert eta_point(2) == 2 * eta_point(1)
    assert eta_point(4) == 4 * eta_point(1)


def test_normalizer_of_order7_subgroup(group):
    g7 = group.named["g7"]
    nh = group.normalizer(group.subgroup_closure([g7]), "H")
    assert len(nh) == 21 and group.recognize(nh) == "7:3"


def test_generic_curve_stabilizers_seed0(group):
    rho1 = group.named["rho1"]
    axis = fixed_locus_structure(group, rho1)
    ks = kappa_translates(group)
    stabs = [generic_curve_stabilizer(group, ks[i], axis.lambda1_rows, "G") for i in (1, 2, 3)]
    assert [group.recognize(s) for s in stabs] == ["2^2", "2^2", "C2-antirefl"]
    # the kappa_1 and kappa_2 groups are generated by two reflections each
    for s in stabs[:2]:
        refl = s & group.reflection_set
        assert len(refl) == 2
        assert group.subgroup_closure(sorted(refl)) == s
    # kappa_3 stabilizer is their intersection
    assert stabs[2] == stabs[0] & stabs[1]
    assert stabs[2] == group.subgroup_closure([rho1])
    # the seed-0 prime-denominator samples find the same groups
    for i, s in zip((1, 2, 3), stabs):
        assert sampled_curve_stabilizer(group, ks[i], axis.lambda1_rows, "G", seed=0) == s


def test_generic_axis_stabilizers(group):
    c3 = group.named["c3"]
    locus = fixed_locus_structure(group, c3)
    s = generic_curve_stabilizer(group, ZERO_POINT, locus.lambda1_rows, "G")
    assert group.recognize(s) == "S3'"
    h4 = group.named["h4"]
    locus4 = fixed_locus_structure(group, h4)
    s4 = generic_curve_stabilizer(group, ZERO_POINT, locus4.lambda1_rows, "G")
    assert group.recognize(s4) == "D8'"
    assert reflection_generated(group, s) and reflection_generated(group, s4)


def test_generic_sampling_is_seed_stable(group):
    rho1 = group.named["rho1"]
    axis = fixed_locus_structure(group, rho1)
    k3 = kappa_translates(group)[3]
    a = sampled_curve_stabilizer(group, k3, axis.lambda1_rows, "G", seed=0)
    b = sampled_curve_stabilizer(group, k3, axis.lambda1_rows, "G", seed=0)
    c = sampled_curve_stabilizer(group, k3, axis.lambda1_rows, "G", seed=7)
    assert a == b == c  # the generic stabilizer does not depend on the sample
    assert a == generic_curve_stabilizer(group, k3, axis.lambda1_rows, "G")


def test_curve_invariance_groups(group):
    rho1 = group.named["rho1"]
    locus = fixed_locus_structure(group, rho1)
    ks = kappa_translates(group)
    for t in ks[1:]:
        inv = curve_setwise_stabilizer(group, locus, t, "H")
        assert len(inv) == 8 and group.recognize(inv) == "D8"


def _six_curves(group):
    """(carrier, translate) of the mirror, the three kappa curves and the two axes."""
    ks = kappa_translates(group)
    return [("r2", ZERO_POINT)] + [("rho1", k) for k in ks[1:]] + [
        ("c3", ZERO_POINT),
        ("h4", ZERO_POINT),
    ]


@pytest.mark.parametrize("quotient", ["G", "H"])
def test_exact_curve_stabilizers_match_field_oracles(group, quotient):
    for carrier, t in _six_curves(group):
        gi = group.named[carrier]
        locus = fixed_locus_structure(group, gi)
        generic = generic_curve_stabilizer(group, t, locus.lambda1_rows, quotient)
        assert (gi in generic) == (gi in group.subset_indices(quotient))
        for seed in (0, 7):
            assert sampled_curve_stabilizer(group, t, locus.lambda1_rows, quotient, seed) == generic
        v1_basis = complement_fixed_locus(group, gi).v1_basis
        assert curve_setwise_stabilizer(group, locus, t, quotient) == projector_setwise_stabilizer(
            group, v1_basis, t, quotient
        )


def _count_field_arithmetic(monkeypatch) -> dict[str, int]:
    """Counters of QNum arithmetic, by method name, for the rest of the test."""
    counts: dict[str, int] = {}
    for name in ("__mul__", "__rmul__", "__add__", "__radd__", "__sub__", "__rsub__",
                 "__neg__", "__truediv__", "inv"):
        fn = getattr(QNum, name)

        def counted(*args, _fn=fn, _name=name):
            counts[_name] = counts.get(_name, 0) + 1
            return _fn(*args)

        monkeypatch.setattr(QNum, name, counted)
    return counts


def test_no_field_arithmetic_in_fixed_loci_and_curve_stabilizers(group, monkeypatch):
    # fixed loci and curve stabilizers run on the integer lattice alone
    counts = _count_field_arithmetic(monkeypatch)
    curves = _six_curves(group)  # kappa_translates, under the counters
    parabolic = 0
    for el in group.elements:
        try:
            fixed_locus_structure(group, el.index)
        except (EllipticElementError, IdentityElementError):
            continue
        parabolic += 1
    assert parabolic == 140
    for carrier, t in curves:
        locus = fixed_locus_structure(group, group.named[carrier])
        for quotient in ("G", "H"):
            generic_curve_stabilizer(group, t, locus.lambda1_rows, quotient)
            curve_setwise_stabilizer(group, locus, t, quotient)
    assert counts == {}
    # the counters do see field arithmetic where it happens
    QNum(1) * QNum(0, 1) + QNum(2)
    assert counts == {"__mul__": 1, "__add__": 1}


def test_no_field_arithmetic_in_group_build_and_quartic(group, monkeypatch):
    # the build and the quartic run on integers; the only field arithmetic
    # is the determinant check of the three generators
    counts = _count_field_arithmetic(monkeypatch)
    for m in (R1, R2, R3):
        m.det()
    generator_dets = dict(counts)
    assert generator_dets["__mul__"] == 27
    counts.clear()
    GroupTable()
    assert counts == generator_dets
    counts.clear()
    assert verify_quartic_invariance(group)
    assert counts == {}


def test_singular_points_lie_on_off_mirror_curves(group):
    for p in (omega_point(1, 0), beta_point("1010"), beta_point("0101"),
              beta_point("0011")):
        assert point_on_off_mirror_curve(group, p)
    # a smooth special point does not
    assert not point_on_off_mirror_curve(group, omega_point(0, 1))


def test_singularity_report_g(group):
    rep = singularity_report(group, "G")
    assert rep.quotient == "G"
    assert len(rep.isolated) == 1
    iso = rep.isolated[0]
    assert iso["image_status"] == "1/7(1,2,4)" and iso["orbit_size"] == 48
    by_name = {c["name"]: c for c in rep.curves}
    assert by_name["kappa_3"]["image_status"] == "1/2(0,1,1)"
    assert by_name["kappa_3"]["label"] == "C2-antirefl"
    assert [c["name"] for c in rep.curves if c["image_status"] != "smooth"] == ["kappa_3"]
    diss = by_name["kappa_3"]["dissident_points"]
    assert len(diss) == 1 and diss[0]["image_status"] == "1/4(1,2,3)"
    ordinary = by_name["kappa_3"]["ordinary_singular_points"]
    assert sorted(r["orbit_size"] for r in ordinary) == [28, 42, 42]
    assert all(r["image_status"] == "1/2(0,1,1)" for r in ordinary)
    assert by_name["mirror"]["image_status"] == "smooth"
    assert by_name["c3_axis"]["label"] == "S3'"
    assert by_name["h4_axis"]["label"] == "D8'"
    for name in ("kappa_1", "kappa_2", "kappa_3"):
        assert by_name[name]["invariance_label_h"] == "D8"


def test_singularity_report_h(group):
    rep = singularity_report(group, "H")
    assert rep.quotient == "H"
    assert len(rep.isolated) == 2
    assert all(r["image_status"] == "1/7(1,2,4)" for r in rep.isolated)
    assert all(r["orbit_size"] == 24 for r in rep.isolated)
    by_name = {c["name"]: c for c in rep.curves}
    assert by_name["kappa_3"]["image_status"] == "1/2(0,1,1)"
    assert by_name["c3_axis"]["image_status"] == "1/3(0,1,2)"
    assert by_name["h4_axis"]["image_status"] == "1/4(0,1,3)"
    assert by_name["mirror"]["image_status"] == "smooth"


def test_locus_cross_relations(group):
    # the big-stabilizer beta orbits coincide with the big-stabilizer omega orbits
    ob = set(orbit_points(group, beta_point("0100"), "G")) | set(
        orbit_points(group, beta_point("1100"), "G")
    )
    ow = set(orbit_points(group, omega_point(0, 1), "G")) | set(
        orbit_points(group, omega_point(1, 1), "G")
    )
    assert ob == ow
    t2 = set(locus_points(group, "T2"))
    t6 = set(locus_points(group, "T6"))
    assert t6 <= t2
    o21 = set(orbit_points(group, beta_point("1000"), "G"))
    o28 = set(orbit_points(group, omega_point(1, 0), "G"))
    assert t2 == ow | o21 | o28


def test_non_reflection_generated_stabilizers_have_cyclic_germs(group):
    # every special orbit of the full group whose stabilizer is not generated
    # by reflections has a germ of cyclic quotient type: directly for cyclic
    # stabilizers, after reducing by the reflection part for ±S3 and D8'
    points = (
        [xi_point(k) for k in range(1, 64)]
        + [beta_point(i) for i in range(1, 16)]
        + [eta_point(i) for i in range(1, 7)]
        + [omega_point(i, j) for i, j in ((0, 1), (1, 0), (1, 1))]
    )
    seen_noncyclic_shapes = set()
    for p in points:
        s = stabilizer_indices(group, p, "G")
        if reflection_generated(group, s):
            continue
        info = singularity_weights(group, s)
        assert info.status == "cyclic"
        if not any(group.elements[i].order == len(s) for i in s):
            seen_noncyclic_shapes.add(group.recognize(s))
    # the two staged (non-cyclic stabilizer, cyclic germ) shapes really occur
    assert {"±S3", "D8'"} <= seen_noncyclic_shapes


def test_zero_point_statuses(group):
    s_g = stabilizer_indices(group, ZERO_POINT, "G")
    assert reflection_generated(group, s_g)
    assert singularity_weights(group, s_g).status == "smooth"
    s_h = stabilizer_indices(group, ZERO_POINT, "H")
    assert not reflection_generated(group, s_h)
    assert singularity_weights(group, s_h).status == "non-cyclic"


# --- denominators beyond the int64 range ------------------------------------------

BIG_PRIME = 4611686018427387847  # a prime below 2^62


def _check_against_exact_oracle(group, p, orbit_too):
    int6s = [el.int6 for el in group.elements]
    want = exact_stabilizer(int6s, p.coords)
    assert stabilizer_indices(group, p, "G") == want
    assert stabilizer_indices(group, p, "H") == want & frozenset(group.h_indices)
    if orbit_too:
        orbit = orbit_points(group, p, "G")
        assert {q.coords for q in orbit} == exact_orbit(int6s, p.coords)
        assert len(orbit) * len(want) == 336 and orbit == sorted(orbit)
    return want


@pytest.mark.parametrize("carrier", ["r2", "rho1", "h4"])
def test_large_prime_denominator_on_fixed_curves(group, carrier):
    # int64 products wrap for this denominator; the stabilizers must stay exact
    rows = fixed_locus_structure(group, group.named[carrier]).lambda1_rows
    rng = random.Random(carrier)
    for k in range(20):
        coeffs = [F(rng.randrange(1, BIG_PRIME), BIG_PRIME) for _ in rows]
        p = TorusPoint([sum(c * r[i] for c, r in zip(coeffs, rows)) for i in range(6)])
        want = _check_against_exact_oracle(group, p, orbit_too=k < 2)
        assert group.named[carrier] in want


def test_denominator_above_2_to_63(group):
    den = 10**20
    p = TorusPoint([F(1, den), F(3, den), 0, 0, 0, F(7, den)])
    assert len(_check_against_exact_oracle(group, p, orbit_too=True)) == 1
    rows = fixed_locus_structure(group, group.named["r2"]).lambda1_rows
    on_mirror = TorusPoint([sum(F(k, den) * r[i] for k, r in zip((3, 11), rows)) for i in range(6)])
    assert group.named["r2"] in _check_against_exact_oracle(group, on_mirror, orbit_too=True)


def test_int64_threshold(group):
    # the int64 path serves exactly while (6 * max|int6| + 1) * den < 2^63
    limit = 2**63 // (6 * group.int6_max_abs + 1)
    rows = fixed_locus_structure(group, group.named["rho1"]).lambda1_rows
    for den in (limit - 1, limit, limit + 1, 2 * limit + 1):
        p = TorusPoint([sum(F(k, den) * r[i] for k, r in zip((den - 1, den // 3), rows)) for i in range(6)])
        _check_against_exact_oracle(group, p, orbit_too=True)
