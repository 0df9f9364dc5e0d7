import copy
import pickle
import random
from collections import Counter
from fractions import Fraction as F

import numpy as np
import pytest

from oracles import (
    beta_cvec,
    complement_fixed_locus,
    from_eps_coords,
    goursat_subgroups_of_g,
    kernel_K,
    lattice_index,
    omega_cvec,
    to_eps_coords,
)
from klein336.linalg import IDENTITY3, int_det
from klein336.orbits import stabilizer_indices
from klein336.qfield import QNum, vec3
from klein336.torus import (
    EllipticElementError,
    IdentityElementError,
    ParabolicElementError,
    TorusPoint,
    ZERO_POINT,
    apply_element,
    beta_point,
    enumerate_fixed_points,
    eta_point,
    fixed_locus,
    fixed_locus_structure,
    fixed_point_count,
    half_periods,
    kappa_translates,
    omega_point,
    registry_point,
)


@pytest.fixture(scope="module")
def parabolic_loci(group):
    """(element, integer locus, complement-torus oracle locus) for every parabolic element."""
    out = []
    for el in group.elements:
        if el.index == group.identity:
            continue
        shifted = [[el.int6[i][j] - int(i == j) for j in range(6)] for i in range(6)]
        if int_det(shifted) == 0:
            out.append(
                (el.index, fixed_locus_structure(group, el.index),
                 complement_fixed_locus(group, el.index))
            )
    return out


def test_torus_point_canonicalization():
    p = TorusPoint([F(3, 2), F(-1, 4), 2, F(5, 3), F(-7, 3), 0])
    assert p.coords == (F(1, 2), F(3, 4), 0, F(2, 3), F(2, 3), 0)
    assert str(p) == "[1/2,3/4,0,2/3,2/3,0]"
    assert TorusPoint.parse(str(p)) == p
    assert p.den == 12
    assert (p - p).is_zero()
    assert (-1 * p + p).is_zero()


@pytest.mark.parametrize(
    "text",
    ["[1/7,2/7,0,0,0,5/7]", "[1/100000000000000000000,3/100000000000000000000,0,0,0,7/100000000000000000000]"],
    ids=["int64", "python-int"],
)
def test_torus_points_pickle_and_copy(text):
    # an int64-path point, whose int64 vector is built and not carried over,
    # and a point over 10^20
    p = TorusPoint.parse(text)
    if p.den < 2**63:
        assert p.int64_nums.tolist() == list(p.nums)
    for q in (pickle.loads(pickle.dumps(p)), copy.copy(p)):
        assert type(q) is TorusPoint and (q.nums, q.den) == (p.nums, p.den)
        assert q == p and hash(q) == hash(p) and str(q) == text


@pytest.mark.parametrize("other", [1, None, "[0,0,0,0,0,0]"])
def test_torus_points_do_not_order_against_other_types(other):
    with pytest.raises(TypeError):
        ZERO_POINT < other
    with pytest.raises(TypeError):
        ZERO_POINT > other


def test_fixed_point_counts(group):
    n = group.named
    assert fixed_point_count(group, n["m1"]) == 64
    assert fixed_point_count(group, n["h4p"]) == 16
    assert fixed_point_count(group, n["c"]) == 4
    assert fixed_point_count(group, n["g7"]) == 7
    minus_g7 = group.multiply(n["m1"], n["g7"])
    assert group.elements[minus_g7].order == 14
    assert fixed_point_count(group, minus_g7) == 1
    with pytest.raises(ParabolicElementError):
        fixed_point_count(group, n["r2"])


def test_shifted_determinants_exact(group):
    from klein336.linalg import IDENTITY3

    n = group.named
    cases = {
        "m1": QNum(-8),
        "h4p": QNum(-4),
        "c": QNum(-2),
        "g7": QNum(-1, 2),  # i*sqrt(7)
    }
    for name, expected in cases.items():
        el = group.elements[n[name]]
        assert (el.mat - IDENTITY3).det() == expected
    minus_g7 = group.multiply(n["m1"], n["g7"])
    el = group.elements[minus_g7]
    assert (el.mat - IDENTITY3).det() == QNum(-1)


def test_enumerated_fixed_points_match_registries(group):
    n = group.named
    assert sorted(enumerate_fixed_points(group, n["m1"])) == sorted(half_periods())
    assert sorted(enumerate_fixed_points(group, n["g7"])) == sorted(
        eta_point(i) for i in range(7)
    )
    assert sorted(enumerate_fixed_points(group, n["h4p"])) == sorted(
        beta_point(i) for i in range(16)
    )
    assert sorted(enumerate_fixed_points(group, n["c"])) == sorted(
        omega_point(i, j) for i in (0, 1) for j in (0, 1)
    )


def test_fixed_points_satisfy_defining_congruence(group):
    n = group.named
    for name in ("g7", "h4p", "c"):
        el = group.elements[n[name]]
        for p in enumerate_fixed_points(group, n[name]):
            moved = apply_element(el.int6, p)
            assert moved == p


def test_fixed_points_are_conjugation_covariant(group):
    rng = random.Random(21)
    n = group.named
    for name in ("g7", "c", "h4p"):
        base = sorted(enumerate_fixed_points(group, n[name]))
        for _ in range(5):
            g = rng.randrange(group.size)
            conj = group.conjugate(g, n[name])
            expected = sorted(
                apply_element(group.elements[g].int6, p) for p in base
            )
            assert sorted(enumerate_fixed_points(group, conj)) == expected


def test_eta_points_are_multiples(group):
    e1 = eta_point(1)
    for i in range(7):
        assert eta_point(i) == i * e1
    assert eta_point(0).is_zero()


def test_omega_points(group):
    assert omega_point(0, 0).is_zero()
    hp = set(half_periods())
    for i, j in ((1, 0), (0, 1), (1, 1)):
        assert omega_point(i, j) in hp


def test_beta_half_period_flags(group):
    # exactly beta_1000, beta_0100, beta_1100 are 2-torsion (fixed by -1)
    plus = {idx for idx in range(16) if beta_point(idx).den <= 2}
    names = {"1000", "0100", "1100", "0000"}
    assert {format(i, "04b") for i in plus} == names


def test_parabolic_structure(group):
    n = group.named
    expectations = {
        "r2": (2, 4, 4, 1),
        "rho2": (1, 2, 16, 4),
        "c3": (1, 2, 9, 1),
        "h4": (1, 2, 4, 1),
    }
    for name, (dim, rank, restricted, comps) in expectations.items():
        locus = fixed_locus_structure(group, n[name])
        assert locus.dim == dim
        assert len(locus.lambda1_rows) == rank
        assert len(locus.transverse_rows) == 6 - rank
        assert locus.component_count == comps
        oracle = complement_fixed_locus(group, n[name])
        assert oracle.restricted_fixed_count == restricted
        assert oracle.lattice_sum_index > 0
    with pytest.raises(EllipticElementError):
        fixed_locus_structure(group, n["g7"])
    with pytest.raises(IdentityElementError):
        fixed_locus_structure(group, group.identity)


def test_every_parabolic_element_has_consistent_locus(group, parabolic_loci):
    for gi, locus, oracle in parabolic_loci:
        if gi in group.reflection_set:
            assert locus.dim == 2
        else:
            assert locus.dim == 1
        assert oracle.restricted_fixed_count % locus.component_count == 0
        assert oracle.lattice_sum_index > 0
    assert len(parabolic_loci) == 21 + 21 + 56 + 42  # reflections, antireflections, order 3, order 4 det 1


def test_integer_loci_match_complement_oracle(group, parabolic_loci):
    rng = random.Random(22)
    for gi, locus, oracle in parabolic_loci:
        assert locus.translates == oracle.translates
        assert locus.component_count == oracle.component_count
        assert locus.lambda1_rows == oracle.lambda1_rows
        assert locus.dim == len(oracle.v1_basis)
        proj = oracle.projector
        diffs = [t - u for t in locus.translates for u in locus.translates]
        # torsion points on random components, and points off the locus
        for _ in range(6):
            den = rng.choice((2, 3, 4, 5, 7, 12))
            on_curve = [
                sum(F(rng.randrange(den), den) * row[i] for row in locus.lambda1_rows)
                for i in range(6)
            ]
            t = rng.choice(locus.translates)
            diffs.append(t + TorusPoint(on_curve))
            diffs.append(TorusPoint([F(rng.randrange(den), den) for _ in range(6)]))
        for p in diffs:
            assert locus.in_v1_plus_lattice(p) == proj.in_v1_plus_lattice(p.coords)
        assert sum(locus.in_v1_plus_lattice(p) for p in diffs) >= len(locus.translates)


def test_rho2_translates_match_published_representatives(group):
    n = group.named
    locus = fixed_locus_structure(group, n["rho2"])
    half = F(1, 2)
    listed = [
        vec3(0, 0, 0),
        vec3(1, 0, 0),
        vec3(QNum(0, half), QNum(0, half), 0),
        vec3(QNum(1, half), QNum(0, half), 0),
    ]
    listed_pts = [TorusPoint(to_eps_coords(v)) for v in listed]
    matches = []
    for t in locus.translates:
        hits = [i for i, r in enumerate(listed_pts) if locus.in_v1_plus_lattice(t - r)]
        assert len(hits) == 1
        matches.append(hits[0])
    assert sorted(matches) == [0, 1, 2, 3]


def test_projected_lattice_rank_for_antireflection(group):
    from klein336.linalg import hnf_contains

    n = group.named
    locus = fixed_locus_structure(group, n["rho2"])
    # four transverse rows: integer, vanishing on the axis lattice
    assert len(locus.transverse_rows) == 4
    for row in locus.transverse_rows:
        for lam in locus.lambda1_rows:
            assert sum(a * b for a, b in zip(row, lam)) == 0
    proj = complement_fixed_locus(group, n["rho2"]).projector
    assert len(proj.lattice) == 4  # rank-4 projection of the rank-6 lattice
    # the axis lattice projects to zero, so membership against the projected
    # lattice is well-defined on classes modulo the axis
    for eps_row in locus.lambda1_rows:
        img = proj.project_eps(from_eps_coords(eps_row))
        assert all(x == 0 for x in img)
    # every lattice vector's projection lies in the projected lattice
    for j in range(6):
        unit = [int(i == j) for i in range(6)]
        img = proj.project_eps(from_eps_coords(unit))
        scaled = [x * proj.den for x in img]
        assert all(x.denominator == 1 for x in scaled)
        assert hnf_contains(proj.lattice, [int(x) for x in scaled])


def test_kappa_registry(group):
    ks = kappa_translates(group)
    assert ks[0] == ZERO_POINT
    assert ks[3] == ks[1] + ks[2]
    assert all(k.den == 2 for k in ks[1:])
    rho1 = group.named["rho1"]
    locus = fixed_locus_structure(group, rho1)
    proj = complement_fixed_locus(group, rho1).projector
    matched = set()
    for k in ks:
        hits = [i for i, t in enumerate(locus.translates) if locus.in_v1_plus_lattice(k - t)]
        assert len(hits) == 1
        assert [proj.in_v1_plus_lattice((k - t).coords) for t in locus.translates] == [
            i == hits[0] for i in range(4)
        ]
        matched.add(hits[0])
    assert matched == {0, 1, 2, 3}
    with pytest.raises(ValueError):
        kappa_translates(group, group.named["r1"])


def test_registry_point_names(group):
    assert registry_point(group, "xi_0").is_zero()
    assert registry_point(group, "xi_63") == TorusPoint([F(1, 2)] * 6)
    assert registry_point(group, "beta_0011") == beta_point("0011")
    assert registry_point(group, "beta_3") == beta_point("0011")
    assert registry_point(group, "omega_10") == omega_point(1, 0)
    assert registry_point(group, "eta_4") == eta_point(4)
    assert registry_point(group, "kappa_3") == kappa_translates(group)[3]
    # leading zeros do not count toward an index's length
    assert registry_point(group, "eta_" + "0" * 5000 + "4") == eta_point(4)
    with pytest.raises(KeyError):
        registry_point(group, "zeta_1")


def test_beta_and_omega_points_are_their_field_vectors():
    # the eps rows of beta_point and omega_point against their vectors in C^3
    for i in range(16):
        assert beta_point(i) == TorusPoint(to_eps_coords(beta_cvec(i)))
    for i in (0, 1):
        for j in (0, 1):
            assert omega_point(i, j) == TorusPoint(to_eps_coords(omega_cvec(i, j)))


def test_subgroup_fixed_points_of_s3_are_the_omega_set(group):
    n = group.named
    s3 = group.subgroup_closure([n["rho1"], n["c3"]])
    assert group.recognize(s3) == "S3"
    locus = fixed_locus(group, s3)
    assert locus.dim == 0 and locus.translates == sorted(omega_point(i, j) for i in (0, 1) for j in (0, 1))


def test_subgroup_fixed_points_of_klein_four(group):
    from klein336.linalg import Mat3

    rho_a = group.index_of_mat(Mat3([[-1, 0, 0], [0, 1, 0], [0, 0, -1]]))
    rho_b = group.index_of_mat(Mat3([[-1, 0, 0], [0, -1, 0], [0, 0, 1]]))
    k4 = group.subgroup_closure([rho_a, rho_b])
    assert group.recognize(k4) == "2^2"
    locus = fixed_locus(group, k4)
    pts = locus.translates
    assert locus.dim == 0 and len(pts) == 16
    # the fixed group is Z/4 x (Z/2)^2: one zero, seven 2-torsion, eight 4-torsion
    assert sorted(p.den for p in pts) == [1] + [2] * 7 + [4] * 8
    # every such point is fixed by an elliptic order-4 element
    for p in pts:
        stab = stabilizer_indices(group, p, "G")
        assert any(
            group.elements[i].order == 4 and group.elements[i].det == -1
            for i in stab
        )


def test_subgroup_fixed_points_rejects_positive_dimensional(group):
    # a group fixing a surface has a locus of dimension 2, and the identity none
    assert fixed_locus(group, group.subgroup_closure([group.named["r2"]])).dim == 2
    with pytest.raises(IdentityElementError):
        fixed_locus(group, [group.identity])


def test_fixed_locus_uniform_entry(group):
    n = group.named
    ell = fixed_locus(group, n["g7"])
    assert ell.kind == "elliptic" and len(ell.translates) == 7
    par = fixed_locus(group, n["r2"])
    assert par.kind == "parabolic" and par.component_count == 1


def test_joint_loci_of_every_subgroup_of_g(group):
    # the one fixed-locus path on all 547 subgroups of G, against the field
    # kernel of the stacked (g - I), the lattice index and the stabilizers
    rng = random.Random(24)
    subgroups = goursat_subgroups_of_g(group)
    assert len(subgroups) == 547
    dims = Counter()
    loci = []
    for s in subgroups:
        if s == {group.identity}:
            with pytest.raises(IdentityElementError):
                fixed_locus(group, s)
            continue
        locus = fixed_locus(group, s)
        loci.append(locus)
        field_rows = [row for g in s for row in (group.elements[g].mat - IDENTITY3).rows]
        assert locus.dim == len(kernel_K(field_rows))
        assert len(locus.lambda1_rows) == 2 * locus.dim
        assert len(locus.transverse_rows) == 6 - 2 * locus.dim
        assert locus.translates == sorted(set(locus.translates))
        dims[locus.dim] += 1
        if locus.dim == 0:
            # every point found is fixed by S, and no other point is: the
            # fixed group of S has order [Z^6 : row lattice of the (g - I)],
            # and an elliptic element of S fixes a superset
            shifted = {
                g: [[group.elements[g].int6[i][j] - int(i == j) for j in range(6)] for i in range(6)]
                for g in sorted(s)
            }
            int_rows = [row for rows in shifted.values() for row in rows]
            assert len(locus.translates) == lattice_index(int_rows)
            assert all(s <= stabilizer_indices(group, p, "G") for p in locus.translates)
            elliptic = next((g for g, rows in shifted.items() if int_det(rows)), None)
            if elliptic is not None:
                candidates = enumerate_fixed_points(group, elliptic)
                assert locus.translates == [
                    p for p in candidates if s <= stabilizer_indices(group, p, "G")
                ]
            continue
        # seeded points t + Lambda_1 / q on every component are fixed by S
        for t in locus.translates:
            for q in (5, 13):
                coeffs = [F(rng.randrange(1, q), q) for _ in locus.lambda1_rows]
                step = [sum(c * row[i] for c, row in zip(coeffs, locus.lambda1_rows)) for i in range(6)]
                p = t + TorusPoint(step)
                assert s <= stabilizer_indices(group, p, "G")
    # finite sets, curves, and the 21 mirrors of C2-refl
    assert dims == {0: 364, 1: 161, 2: 21}
    # torus.generic_curve_stabilizer multiplies G's matrices by Lambda_1 rows in
    # int64: on every fixed locus of G, of a subgroup or of one element, the
    # entries stay far below 2^63
    loci += [fixed_locus(group, g) for g in range(1, group.size)]
    assert len(loci) == 881
    assert group.int6_max_abs == 2
    assert max(abs(x) for locus in loci for row in locus.lambda1_rows for x in row) == 6


def _lefschetz_terms(group) -> list[int]:
    """det(I - g) on Z^6 for every g, by id."""
    return [
        int_det([[int(i == j) - x for j, x in enumerate(row)] for i, row in enumerate(el.int6)])
        for el in group.elements
    ]


def test_lefschetz_numbers_of_the_quotients(group):
    # e(J/K) = (1/|K|) sum over g in K of det(I - g) on Z^6 (Lefschetz 1926);
    # det(I - g) = |det_C(I - g)|^2 is 0 for parabolic g and |Fix g| for elliptic g
    dets = _lefschetz_terms(group)
    for g, det in enumerate(dets):
        assert det == (group.elements[g].mat - IDENTITY3).det().norm()
        # elliptic: 1 is not an eigenvalue, read off the table's exponents
        if 0 not in group.exponents(g):
            assert det == fixed_point_count(group, g)
        else:
            assert det == 0
    assert F(sum(dets), group.size) == 4  # e(J/G)
    assert F(sum(dets[g] for g in group.h_set), len(group.h_set)) == 2  # e(J/H)
    lefschetz = [F(sum(dets[g] for g in k), len(k)) for k in goursat_subgroups_of_g(group)]
    assert len(lefschetz) == 547 and all(e.denominator == 1 for e in lefschetz)
    assert Counter(lefschetz) == {0: 274, 2: 9, 4: 93, 6: 57, 8: 43, 12: 49, 16: 21, 32: 1}


def _zw_mul(x: tuple[int, int], y: tuple[int, int]) -> tuple[int, int]:
    """(a + b*w)(c + d*w) in Z[w], with w^2 = w - 2."""
    (a, b), (c, d) = x, y
    return a * c - 2 * b * d, a * d + b * c + b * d


def test_invariant_hodge_numbers_of_the_quotients(group):
    # H^{p,q}(J/K) = H^{p,q}(J)^K (Grothendieck 1957), and H^{p,q}(J) is
    # conj(Lambda^p V*) (x) Lambda^q V*, so h^{p,q}(J/K) = (1/|K|) sum over g in K
    # of conj(e_p(g)) e_q(g) with e_0 = 1, e_1 = tr g, e_2 = (tr^2 g - tr g^2)/2
    # and e_3 = det g, exactly in Z[w], where conj(a + b*w) = (a + b) - b*w
    els = group.elements
    chars = []
    for g, el in enumerate(els):
        square, trace2 = _zw_mul(el.trace, el.trace), els[group.multiply(g, g)].trace
        e2 = tuple(F(x - y, 2) for x, y in zip(square, trace2))
        # g is unitary of determinant det: e_2 = det conj(tr), which oracles.inverse_char_poly uses
        assert e2 == (el.det * sum(el.trace), -el.det * el.trace[1])
        e = [(1, 0), el.trace, (int(e2[0]), int(e2[1])), (el.det, 0)]
        chars.append([[_zw_mul((a + b, -b), f) for f in e] for a, b in e])
    chars = np.array(chars, dtype=np.int64)  # (336, p, q, 2): conj(e_p) e_q as a + b*w

    def hodge(k: frozenset[int]) -> np.ndarray:
        total = chars[sorted(k)].sum(axis=0)
        assert not total[..., 1].any() and not (total[..., 0] % len(k)).any()
        return total[..., 0] // len(k)

    sign = (-1) ** np.add.outer(np.arange(4), np.arange(4))
    dets = _lefschetz_terms(group)
    for k in goursat_subgroups_of_g(group):
        assert (sign * hodge(k)).sum() == F(sum(dets[g] for g in k), len(k))
    assert hodge(group.g_set).tolist() == np.eye(4, dtype=int).tolist()  # X = J/G
    y = np.eye(4, dtype=int)
    y[3, 0] = y[0, 3] = 1
    assert hodge(group.h_set).tolist() == y.tolist()  # Y = J/H: h^{3,0} = h^{0,3} = 1


def test_eps_roundtrip_on_registry_points(group):
    pts = [beta_point(i) for i in range(16)] + [eta_point(i) for i in range(7)]
    for p in pts:
        v = from_eps_coords(list(p.coords))
        assert tuple(to_eps_coords(v)) == p.coords


def test_torus_guards(group):
    r2 = group.named["r2"]
    cases = [
        (lambda: TorusPoint([0] * 5), ValueError, "torus points have 6 eps coordinates"),
        (lambda: setattr(ZERO_POINT, "den", 2), AttributeError, "TorusPoint is immutable"),
        (lambda: beta_point("0x11"), ValueError, "beta index must be 4 bits, got '0x11'"),
        (lambda: enumerate_fixed_points(group, r2), ParabolicElementError, f"element {r2} is parabolic"),
    ]
    for make, error, message in cases:
        with pytest.raises(error) as err:
            make()
        assert str(err.value) == message
