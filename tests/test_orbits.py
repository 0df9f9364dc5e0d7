import dataclasses
import math
import random
import re
import types
from collections import Counter
from fractions import Fraction as F

import numpy as np
import pytest

from oracles import (
    AntireflectionCurves,
    complement_fixed_locus,
    exact_orbit,
    exact_stabilizer,
    field_singularity_weights,
    fixes_curve,
    full_stack_orbit,
    goursat_subgroups_of_g,
    group_ids,
    looped_curve_stabilizer,
    projector_setwise_stabilizer,
    reflection_generated,
    sampled_curve_stabilizer,
    swept_locus_points,
)
from klein336 import orbits
from klein336.group import _FILTER_COVECTOR, _W6, R1, R2, R3, GroupTable
from klein336.linalg import IDENTITY3, mat3_to_int6, smith_normal_form
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
    on_singular_curve,
    orbit_points,
    singularity_report,
    singularity_weights,
    special_curves,
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


def _filter_rows(group):
    """l (g - I) for every g in G, from the covector and the element matrices."""
    cov = np.array(_FILTER_COVECTOR, dtype=object)
    return [(cov @ (np.array(el.int6, dtype=object) - np.eye(6, dtype=int))).tolist() for el in group.elements]


@pytest.mark.parametrize("den", [1009, 10**20 + 39], ids=["int64", "python-int"])
def test_stabilizer_rechecks_filter_survivors(group, den):
    # a point on which g7 (in H) passes the filter, l (g7 - I) n = 0 mod den,
    # yet which g7 moves: the six-row test runs and rejects it, in G and in H
    row = _filter_rows(group)[group.named["g7"]]
    rng = random.Random(den)
    nums = [rng.randrange(den) for _ in range(6)]
    j = next(i for i, a in enumerate(row) if a)
    nums[j] = 0
    nums[j] = -sum(a * n for a, n in zip(row, nums)) * pow(row[j], -1, den) % den
    p = TorusPoint([F(n, den) for n in nums])
    assert p.nums == tuple(nums) and p.den == den
    assert (p.den * 13 < 2**63) == (den == 1009)
    want = exact_stabilizer([el.int6 for el in group.elements], p.coords)
    assert group.named["g7"] not in want
    for quotient in ("G", "H"):
        acting = group.acting(quotient)
        ids = acting.ids.tolist()
        assert ids == list(group_ids(group, quotient))
        survivors = {
            ids[i]
            for i, col in enumerate(acting.filter_columns.T.tolist())
            if sum(a * n for a, n in zip(col, nums)) % den == 0
        }
        stab = stabilizer_indices(group, p, quotient)
        assert group.named["g7"] in survivors
        assert stab == want & frozenset(ids)
        assert stab < survivors


def test_filter_rows_vanish_only_at_the_identity(group):
    rows = _filter_rows(group)
    for quotient in ("G", "H"):
        acting = group.acting(quotient)
        cols = acting.filter_columns
        assert cols.shape == (6, len(acting.ids)) and cols.flags.c_contiguous
        assert cols.T.tolist() == [rows[i] for i in acting.ids.tolist()]
        assert (~cols.any(axis=0)).nonzero()[0].tolist() == [0]


def test_filter_signed_bound_keeps_the_int64_guard(group):
    # |l (g - I) n| < bound * den for numerators in [0, den): within 13 den
    rows = _filter_rows(group)
    bound = max(max(sum(a for a in r if a > 0), -sum(a for a in r if a < 0)) for r in rows)
    assert bound == 10 <= 6 * group.int6_max_abs + 1 == 13
    # the absolute sums exceed 13, so only the signed bound keeps the guard
    assert max(sum(map(abs, r)) for r in rows) == 16


def test_generic_point_keeps_only_the_identity_after_the_filter(group):
    nums, den = [3, 1000, 4567, 12345, 777, 19000], 20011
    for quotient in ("G", "H"):
        cols = group.acting(quotient).filter_columns
        assert ((np.array(nums) @ cols) % den == 0).nonzero()[0].tolist() == [0]
        assert stabilizer_indices(group, TorusPoint([F(n, den) for n in nums]), quotient) == {0}


def test_a_lone_identity_is_the_shared_trivial_set(group):
    # a generic point's stabilizer, on int64 and on Python-integer numerators,
    # is the one set G and H share; a point of the r2 mirror, on which r2 also
    # survives the filter, gets a set of its own
    trivial = group.acting("G").trivial
    assert trivial is group.acting("H").trivial and trivial == {group.identity}
    generic = TorusPoint([F(n, 20011) for n in (3, 1000, 4567, 12345, 777, 19000)])
    rng = random.Random(5)
    huge = TorusPoint([F(rng.randrange(10**20 + 39), 10**20 + 39) for _ in range(6)])
    for p in (generic, huge):
        for quotient in ("G", "H"):
            assert stabilizer_indices(group, p, quotient) is trivial
    mirror = TorusPoint([F(n, 20011) for n in (2, 5, 77, 89, -79, 170)])
    stab = stabilizer_indices(group, mirror, "G")
    assert stab == {group.identity, group.named["r2"]} and stab is not trivial
    assert stabilizer_indices(group, mirror, "H") is trivial


@pytest.mark.parametrize("den", [20011, 10**20 + 39], ids=["int64", "python-int"])
def test_recheck_reduces_each_entry_before_the_row_sum(group, den):
    # a point that g7 moves, though both l (g7 - I) n and the sum of the six
    # entries of (g7 - I) n are 0 mod den: only the residues of the entries,
    # summed, reject g7; their raw sum, reduced, would keep it
    g7 = group.named["g7"]
    m = (np.array(group.elements[g7].int6, dtype=object) - np.eye(6, dtype=int)).tolist()
    a = _filter_rows(group)[g7]
    b = [sum(row[j] for row in m) for j in range(6)]
    rng = random.Random(den)
    nums = [rng.randrange(den) for _ in range(6)]
    j, k = next((j, k) for j in range(6) for k in range(j + 1, 6) if math.gcd(a[j] * b[k] - a[k] * b[j], den) == 1)
    nums[j] = nums[k] = 0
    ra, rb = -sum(x * n for x, n in zip(a, nums)), -sum(x * n for x, n in zip(b, nums))
    inv = pow(a[j] * b[k] - a[k] * b[j], -1, den)
    nums[j] = (ra * b[k] - rb * a[k]) * inv % den
    nums[k] = (a[j] * rb - b[j] * ra) * inv % den
    p = TorusPoint([F(n, den) for n in nums])
    assert p.nums == tuple(nums) and p.den == den
    moved = [sum(x * n for x, n in zip(row, nums)) for row in m]
    assert sum(x * n for x, n in zip(a, nums)) % den == 0 and sum(moved) % den == 0
    assert any(x % den for x in moved)
    want = exact_stabilizer([el.int6 for el in group.elements], p.coords)
    assert g7 not in want
    for quotient in ("G", "H"):
        assert stabilizer_indices(group, p, quotient) == want & group.acting(quotient).members


def test_int64_numerators_are_one_read_only_vector_per_point(group, monkeypatch):
    reads = []
    read = TorusPoint.int64_nums.fget
    monkeypatch.setattr(TorusPoint, "int64_nums", property(lambda q: reads.append(q) or read(q)))
    p = TorusPoint([F(n, 20011) for n in (3, 1000, 4567, 12345, 777, 19000)])
    vector = p.int64_nums
    assert vector.dtype == np.int64 and vector.tolist() == list(p.nums)
    assert not vector.flags.writeable
    with pytest.raises(ValueError):
        vector[0] = 1
    for quotient in ("G", "H"):
        stabilizer_indices(group, p, quotient)
        orbit_points(group, p, quotient)
    assert p.int64_nums is vector and reads == [p] * 6
    # numerators beyond the int64 path never build it
    reads.clear()
    huge = TorusPoint([F(n, 10**20) for n in (1, 3, 0, 0, 0, 7)])
    for quotient in ("G", "H"):
        stabilizer_indices(group, huge, quotient)
        orbit_points(group, huge, quotient)
    assert reads == []


@pytest.mark.parametrize(
    "den", [2, 1448, 1449, 20011, 2097152, 2097153, 3037000499, 3037000500, 10**12 + 39, 2**63 // 13 - 1]
)
def test_key_width_is_the_widest_int64_holds(den):
    assert orbits._key_width(den) == next((c for c in (6, 3, 2) if den**c <= 2**63), 1)


def test_filter_at_the_int64_boundary(group):
    # a denominator at the top of the int64 path, and numerators 0 and den - 1
    # that give the element reaching the signed bound its largest filter
    # product, 10 (den - 1)
    den = 2**63 // 13 - 1
    rows = _filter_rows(group)
    signed = [max(sum(a for a in r if a > 0), -sum(a for a in r if a < 0)) for r in rows]
    g = signed.index(10)
    sign = 1 if sum(a for a in rows[g] if a > 0) == 10 else -1
    nums = [den - 1 if sign * a > 0 else 0 for a in rows[g]]
    assert abs(sum(a * n for a, n in zip(rows[g], nums))) == 10 * (den - 1)
    p = TorusPoint([F(n, den) for n in nums])
    assert p.den == den and (6 * group.int6_max_abs + 1) * (den + 1) < 2**63
    want = exact_stabilizer([el.int6 for el in group.elements], p.coords)
    assert stabilizer_indices(group, p, "G") == want
    assert stabilizer_indices(group, p, "H") == want & group.h_set


def test_orbit_builds_no_point_until_read(group, monkeypatch):
    p = TorusPoint([F(1, 20011), F(5, 20011), F(77, 20011), 0, F(3, 20011), F(19999, 20011)])
    doubled = 2 * p
    built = []
    init = TorusPoint.__init__

    def counting_init(self, *args, **kwargs):
        built.append(1)
        init(self, *args, **kwargs)

    monkeypatch.setattr(TorusPoint, "__init__", counting_init)
    orbit = orbit_points(group, p, "G")
    assert len(orbit) == 336 and p in orbit and doubled not in orbit
    assert not built
    assert orbit[0] < orbit[1] and len(built) == 2
    assert len(list(orbit)) == 336 and len(built) == 2 + 336


@pytest.mark.parametrize(
    "call",
    [
        lambda g: stabilizer_indices(g, eta_point(1), "K"),
        lambda g: orbit_points(g, eta_point(1), "K"),
        lambda g: g.acting("K"),
    ],
    ids=["stabilizer_indices", "orbit_points", "acting"],
)
def test_unknown_group_selector(group, call):
    with pytest.raises(ValueError, match=r"^unknown group selector 'K'; use 'G' or 'H'$"):
        call(group)


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


@pytest.mark.parametrize("quotient, counts", [("G", [5, 11, 40, 95, 241]), ("H", [5, 11, 42, 111, 317])])
def test_burnside_counts_the_orbits_on_torsion_subgroups(group, quotient, counts):
    # K has (1/|K|) sum_g |Fix_g J[n]| orbits on J[n] = (Z/n)^6, and |Fix_g J[n]|
    # is prod_i gcd(d_i, n) over the Smith diagonal d of g - I (d_i = 0 past the
    # rank); orbit_points, enumerating J[n], must find exactly these orbits
    acting = group.acting(quotient)
    snfs = map(smith_normal_form, acting.minus_identity.tolist())
    diagonals = [[d[i][i] for i in range(6)] for _, d, _ in snfs]
    order = len(diagonals)
    for n, want in zip(range(2, 7), counts):
        fixed = sum(math.prod(math.gcd(d, n) for d in diagonal) for diagonal in diagonals)
        assert fixed == want * order
        places = np.array([n**k for k in range(5, -1, -1)])
        seen = np.zeros(n**6, dtype=bool)
        sizes = []
        for code in range(n**6):
            if seen[code]:
                continue
            p = TorusPoint([F(code // n**k % n, n) for k in range(5, -1, -1)])
            orbit = orbit_points(group, p, quotient)
            codes = orbit.rows * (n // orbit.den) @ places
            assert code in codes and not seen[codes].any()
            seen[codes] = True
            assert len(orbit) * len(stabilizer_indices(group, p, quotient)) == order
            sizes.append(len(orbit))
        assert seen.all() and sum(sizes) == n**6 and len(sizes) == want


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


def test_germs_of_the_subgroups_of_h_are_gorenstein(group):
    # H lies in SL(3, C), so a cyclic germ 1/r(a, b, c) of a subgroup has
    # a + b + c = 0 mod r (Watanabe); and H holds no reflection, so only the
    # trivial subgroup gives a smooth germ
    subgroups = [s for c in group.all_subgroups_of_h() for s in c.members]
    assert len(subgroups) == 179
    germs = [singularity_weights(group, s) for s in subgroups]
    cyclic = [g for g in germs if g.status == "cyclic"]
    assert all(sum(g.weights) % g.order == 0 for g in cyclic)
    smooth = [s for s, g in zip(subgroups, germs) if g.status == "smooth"]
    assert smooth == [frozenset([group.identity])]
    assert Counter(g.status for g in germs) == {"cyclic": 78, "non-cyclic": 100, "smooth": 1}


def test_ito_reid_ages_from_the_table(group):
    # the age of g with eigenvalues exp(2 pi i e_j), 0 <= e_j < 1, is the sum
    # of the e_j (Ito and Reid 1996), read exactly off the table's exponents
    age = {g: F(sum(group.exponents(g)), el.order) for g, el in enumerate(group.elements)}
    # exp(2 pi i age) is the determinant
    assert all(age[g] % 1 == (0 if el.det == 1 else F(1, 2)) for g, el in enumerate(group.elements))
    h_classes = sorted((c.element_order, {age[g] for g in c.members}) for c in group.conjugacy_classes("H"))
    assert h_classes == [(1, {0}), (2, {1}), (3, {1}), (4, {1}), (7, {1}), (7, {2})]
    # C^3/H168: four junior classes (age 1) and one senior class (age 2); with
    # the identity, six classes, the Euler number of its crepant resolution
    # (Markushevich 1997)
    assert Counter(a for _, (a,) in h_classes) == {0: 1, 1: 4, 2: 1}
    # in G a reflection has age 1/2, as a reflection must, and -1 has age 3/2
    assert {age[g] for g in group.reflections} == {F(1, 2)}
    assert age[group.minus_one] == F(3, 2)
    # the germ rule's cyclic weights 1/d(a, b, c) are the exponents of a
    # generator, on every non-trivial cyclic subgroup of G: of orders 2 to 14,
    # and of determinant -1; those of the reflections, exponents (0, 0, 1), are smooth
    cyclic = {el.powers for el in group.elements} - {frozenset([group.identity])}
    assert len(cyclic) == 157
    assert Counter(len(c) for c in cyclic) == {2: 43, 3: 28, 4: 42, 6: 28, 7: 8, 14: 8}
    for c in cyclic:
        w = singularity_weights(group, c)
        exponents = {group.exponents(g) for g in c if group.elements[g].order == len(c)}
        assert w.weights in exponents if w.status == "cyclic" else exponents == {(0, 0, 1)}
    assert Counter(singularity_weights(group, c).status for c in cyclic) == {"cyclic": 136, "smooth": 21}


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


def _counted_closures(table, monkeypatch) -> list:
    """The generator lists of every later ``table.subgroup_closure`` call."""
    calls = []
    closure = table.subgroup_closure
    monkeypatch.setattr(table, "subgroup_closure", lambda gens: calls.append(gens) or closure(gens))
    return calls


def test_reflection_part_is_closed_once(monkeypatch):
    # the +-S3 stabilizer of omega_10 is neither reflection-generated nor
    # cyclic; a fresh table has no germ stored yet
    table = GroupTable()
    p = omega_point(1, 0)
    s = stabilizer_indices(table, p, "G")
    calls = _counted_closures(table, monkeypatch)
    assert singularity_weights(table, s).status == "cyclic"
    assert len(calls) == 1
    assert singularity_weights(table, s).status == "cyclic"
    assert len(calls) == 1
    rec = orbits._record_for_point(table, "T2", "G", p, orbit_points(table, p, "G"))
    assert len(calls) == 1
    assert (rec.label, rec.reflection_generated) == ("±S3", False)


def test_germ_rule_matches_field_oracle_on_all_subgroups_of_g():
    # the averaged-trace rule against snapped float eigenvalues, the coset
    # series against degree parity and the residual involution, on a fresh
    # table, so that every germ is computed here
    table = GroupTable()
    subgroups = goursat_subgroups_of_g(table)
    assert len(set(subgroups)) == 547
    index2_shapes = set()
    cyclic = 0
    for s in subgroups:
        assert singularity_weights(table, s) == field_singularity_weights(table, s)
        if reflection_generated(table, s):
            continue
        if any(table.elements[i].order == len(s) for i in s):
            cyclic += 1
        elif 2 * len(table.subgroup_closure(sorted(s & table.reflection_set))) == len(s):
            index2_shapes.add(table.recognize(s))
    assert cyclic == 136
    assert index2_shapes == {"C2xC2'", "±S3", "D8'"}


def test_germ_rule_uses_no_floating_point_on_any_subgroup(monkeypatch):
    # a fresh table, so that no germ is read back from an earlier test
    table = GroupTable()
    subgroups = goursat_subgroups_of_g(table)
    expected = [field_singularity_weights(table, s) for s in subgroups]

    def no_floats(*args):
        raise AssertionError("numpy.linalg.eigvals called")

    monkeypatch.setattr(np.linalg, "eigvals", no_floats)
    assert [singularity_weights(table, s) for s in subgroups] == expected
    assert len(table.derived["germs"]) == 547


def test_germs_are_kept_once_per_subgroup(monkeypatch):
    # each stored germ equals a computation on a second fresh table; asking
    # again with an equal subgroup returns the stored object, with no closure
    table, other = GroupTable(), GroupTable()
    subgroups = goursat_subgroups_of_g(table)
    germs = [singularity_weights(table, s) for s in subgroups]
    assert len(table.derived["germs"]) == 547
    assert "germs" not in other.derived
    assert germs == [orbits._germ_type(other, s) for s in subgroups]
    calls = _counted_closures(table, monkeypatch)
    again = [singularity_weights(table, frozenset(sorted(s))) for s in subgroups]
    assert all(a is b for a, b in zip(again, germs))
    assert not calls and len(table.derived["germs"]) == 547


@pytest.mark.parametrize(
    "gen, trace, drop_identity",
    [
        ("g7", 0, False),  # the average over <g7> is 6/14
        ("g7", 13, False),  # -3 eigenvalues of order 7
        ("c3", 3, False),  # one eigenvalue of order 3 without its conjugate
        ("g7", -1, True),  # no identity: no eigenvalues at all
    ],
)
def test_cyclic_weights_reject_traces_that_fit_no_eigenvalues(group, gen, trace, drop_identity):
    # the exponents that the cyclic weights read: every non-identity element of
    # <gen> gets the trace trace*w, of int6 trace `trace`; without the identity,
    # gen's powers are those of an element of order 6
    g = group.named[gen]
    s = group.elements[g].powers
    elements = [
        dataclasses.replace(el, trace=(0, trace)) if el.index in s and el.index else el
        for el in group.elements
    ]
    if drop_identity:
        elements[g] = dataclasses.replace(elements[g], powers=s - {group.identity})
    message = {
        ("g7", 0): "an averaged trace of S of order 7 is not whole",
        ("g7", 13): "-3 eigenvalues of order 7 fill no whole block",
        ("c3", 3): "1 eigenvalues of order 3 fill no whole block",
        ("g7", -1): "an averaged trace of S of order 6 is not whole",
    }[gen, trace]
    with pytest.raises(ConsistencyError, match=f"^{re.escape(message)}$"):
        GroupTable.exponents(types.SimpleNamespace(elements=elements), g)


def test_cyclic_weights_need_three_eigenvalues(group):
    # trace 6 for the identity, as for 2 I: six eigenvalues of order 1
    elements = [dataclasses.replace(el, trace=(6, 0)) if el.index == group.identity else el for el in group.elements]
    message = "cyclic S of order 1 has eigenvalue exponents [0, 0, 0, 0, 0, 0]"
    with pytest.raises(ConsistencyError, match=f"^{re.escape(message)}$"):
        GroupTable.exponents(types.SimpleNamespace(elements=elements), group.identity)


def test_averaged_series_guards(group):
    g7 = group.named["g7"]
    # {g7} is no group, and its series has a coefficient outside Z
    with pytest.raises(ConsistencyError, match="^an averaged series coefficient is not a rational integer$"):
        orbits._averaged_series(group, frozenset({g7}), 1)


def test_coset_weights_guards(group):
    c3, m1 = group.named["c3"], group.named["m1"]
    # <c3> holds no reflection, so no reflection-group degrees multiply to its order
    message = "no reflection-group degrees fit |W|=3: [1, 2, 3]"
    with pytest.raises(ConsistencyError, match=f"^{re.escape(message)}$"):
        orbits._coset_weights(group, group.subgroup_closure([c3, m1]), group.subgroup_closure([c3]))
    # <r, r'> over <r> for commuting reflections: one sign -1 leaves the germ smooth
    r, *others = sorted(group.reflections)
    r2 = next(x for x in others if group.multiply(r, x) == group.multiply(x, r))
    message = "coset weights [1, 0, 0] contradict the series or closure"
    with pytest.raises(ConsistencyError, match=f"^{re.escape(message)}$"):
        orbits._coset_weights(group, group.subgroup_closure([r, r2]), group.subgroup_closure([r]))


def test_traces_read_off_the_integer_matrices(group):
    # with tr g = a + b*w: tr(int6) = 2a + b, and tr(W6 int6) = a - 3b for W6 = int6(w I)
    w6 = np.array(mat3_to_int6(IDENTITY3.scale(QNum(0, 1))))
    assert (_W6 == w6).all()
    for el in group.elements:
        m = el.mat.rows
        tr = m[0][0] + m[1][1] + m[2][2]
        a6 = np.array(el.int6)
        assert tr.d == 1 and el.trace == (tr.a, tr.b)
        assert np.trace(a6) == 2 * tr.a + tr.b and np.trace(w6 @ a6) == tr.a - 3 * tr.b


def test_curve_loci_are_computed_once_per_table(group, monkeypatch):
    # both reports and the curve checks AC06, AC08, AC09, AC12 and AC14 read
    # one record: the four carrier loci and rho1's inside the one kappa call,
    # whose off-mirror test takes three generic stabilizers, then one generic
    # and one setwise stabilizer for each of the six curves; AC06 adds only
    # the locus of rho2, which carries no special curve
    from klein336 import report, torus

    calls = Counter()
    names = ("fixed_locus_structure", "kappa_translates", "generic_curve_stabilizer",
             "curve_setwise_stabilizer")
    for module in (torus, orbits, report):
        for name in names:
            if hasattr(module, name):
                fn = getattr(module, name)
                monkeypatch.setattr(
                    module, name, lambda *a, _fn=fn, _n=name, **k: calls.update([_n]) or _fn(*a, **k)
                )
    once = {"fixed_locus_structure": 5, "kappa_translates": 1, "generic_curve_stabilizer": 9,
            "curve_setwise_stabilizer": 6}
    table = GroupTable()
    strata_g = [c.to_dict() for c in curve_strata(table, "G")]
    assert calls == once
    strata_h = [c.to_dict() for c in curve_strata(table, "H")]
    report_g = singularity_report(table, "G")
    report_h = singularity_report(table, "H")
    for check in (report._ac8, report._ac9, report._ac12):
        assert all(o.status != "fail" for o in check(table))
    assert calls == once
    registry, pairs, matrices, rng = report._ac14_draws(table, 0)
    ac14 = report._ac14(table, registry, pairs, rng, lambda: report._ac14_normal_forms(matrices))
    assert all(o.status == "pass" for o in report._ac6(table) + ac14)
    assert calls == {**once, "fixed_locus_structure": 6}
    assert [c.to_dict() for c in curve_strata(table, "G")] == strata_g
    assert [c.to_dict() for c in curve_strata(table, "H")] == strata_h
    assert report_g.to_dict() == singularity_report(group, "G").to_dict()
    assert report_h.to_dict() == singularity_report(group, "H").to_dict()


def test_special_curve_record(group):
    curves = special_curves(group)
    assert list(curves) == ["mirror", "kappa_1", "kappa_2", "kappa_3", "c3_axis", "h4_axis"]
    assert special_curves(group) is curves
    ks = kappa_translates(group)
    assert [c.translate for c in curves.values()] == [ZERO_POINT, *ks[1:], ZERO_POINT, ZERO_POINT]
    for c in curves.values():
        assert c.locus == fixed_locus_structure(group, group.named[c.carrier])
        assert c.generic == generic_curve_stabilizer(group, c.locus, c.translate)
        assert c.setwise == curve_setwise_stabilizer(group, c.locus, c.translate)
        # each element is tested on its own: the H-stabilizer is the part in H
        # of the G-stabilizer
        rows = c.locus.lambda1_rows
        for quotient, ambient in (("G", group.g_set), ("H", group.h_set)):
            assert c.generic & ambient == looped_curve_stabilizer(group, c.translate, rows, quotient)
    kappa_3 = curves["kappa_3"]
    assert len(kappa_3.setwise) == 16 and group.recognize(kappa_3.setwise) == "±D8"
    setwise_h = kappa_3.setwise & group.h_set
    assert len(setwise_h) == 8 and group.recognize(setwise_h) == "D8"
    with pytest.raises(TypeError):
        curves["kappa_3"] = curves["mirror"]
    with pytest.raises(dataclasses.FrozenInstanceError):
        curves["kappa_3"].generic = frozenset()


def test_inverse_char_poly_inverts_det_one_minus_tg(group):
    # e2 as the sum of principal 2x2 minors in field arithmetic; the order-7
    # elements have non-real traces, so conj(tr) and tr are told apart
    n = 9
    assert any((el.mat.rows[0][0] + el.mat.rows[1][1] + el.mat.rows[2][2]).b for el in group.elements)
    for el in group.elements:
        m = el.mat.rows
        e2 = sum(
            (m[i][i] * m[j][j] - m[i][j] * m[j][i] for i, j in ((0, 1), (0, 2), (1, 2))),
            QNum(0),
        )
        tr = m[0][0] + m[1][1] + m[2][2]
        poly = [QNum(1), -tr, e2, QNum(-el.det)]
        series = [QNum(a, b) for a, b in _inverse_char_poly((tr.a, tr.b), el.det, n)]
        for k in range(n + 1):
            product = sum((poly[j] * series[k - j] for j in range(min(k, 3) + 1)), QNum(0))
            assert product == QNum(int(k == 0))


def _over_free_product(numerator: list[int], degrees: tuple[int, ...], n: int) -> list[int]:
    """The coefficients up to t^n of sum_k t^k over numerator, divided by prod (1 - t^d)."""
    series = [0] * (n + 1)
    for k in numerator:
        series[k] += 1
    for d in degrees:
        for k in range(d, n + 1):
            series[k] += series[k - d]
    return series


def _free_degrees(series: list[int]) -> list[int] | None:
    """The three degrees d_i if the truncated series is prod 1/(1 - t^d_i), else None."""
    series, degrees = list(series), []
    for d in range(1, len(series)):
        if series[d] < 0 or len(degrees) + series[d] > 3:
            return None
        for _ in range(series[d]):
            degrees.append(d)
            for k in range(len(series) - 1, d - 1, -1):  # times 1 - t^d
                series[k] -= series[k - d]
    return degrees if len(degrees) == 3 and not any(series[1:]) else None


def test_molien_series_of_g_and_h(group):
    # Klein's invariants of degrees 4, 6 and 14 generate those of G freely;
    # H adds one of degree 21, whose square lies in the ring of G
    klein = (4, 6, 14)
    assert orbits._averaged_series(group, group.g_set, 336) == _over_free_product([0], klein, 336)
    assert orbits._averaged_series(group, group.h_set, 168) == _over_free_product([0, 21], klein, 168)


def test_molien_series_certify_the_smooth_germs(group):
    # Chevalley, Shephard and Todd: S is generated by reflections exactly when
    # its invariants are free, and then its Molien series is prod 1/(1 - t^d_i)
    # with prod d_i = |S| and sum (d_i - 1) its number of reflections
    smooth = 0
    for s in goursat_subgroups_of_g(group):
        degrees = _free_degrees(orbits._averaged_series(group, s, len(s)))
        free = (
            degrees is not None
            and math.prod(degrees) == len(s)
            and sum(d - 1 for d in degrees) == len(s & group.reflection_set)
        )
        assert free == (singularity_weights(group, s).status == "smooth"), sorted(s)
        smooth += free
    assert smooth == 177


def test_index2_germs_use_no_floating_point(monkeypatch):
    # staged and cyclic germs alike are exact; a fresh table, so that no germ
    # is read back from an earlier test
    table = GroupTable()

    def no_floats(*args):
        raise AssertionError("numpy.linalg.eigvals called")

    monkeypatch.setattr(np.linalg, "eigvals", no_floats)
    staged = {
        "±S3": stabilizer_indices(table, omega_point(1, 0), "G"),
        "D8'": stabilizer_indices(table, beta_point("1010"), "G"),
        "C2xC2'": table.subgroup_closure([table.named["r1"], table.minus_one]),
    }
    for label, s in staged.items():
        assert table.recognize(s) == label
        assert singularity_weights(table, s).image_status() == "1/2(0,1,1)"
    cyclic = singularity_weights(table, table.subgroup_closure([table.named["rho1"]]))
    assert cyclic.image_status() == "1/2(0,1,1)"
    assert len(table.derived["germs"]) == 4


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


@pytest.mark.parametrize("quotient", ["G", "H"])
def test_one_stabilizer_product_per_record(group, monkeypatch, quotient):
    calls = []

    def counted(table, p, sel="G"):
        calls.append(sel)
        return stabilizer_indices(table, p, sel)

    monkeypatch.setattr(orbits, "stabilizer_indices", counted)
    records = classify_locus(group, "T7", quotient)
    assert calls == ["G"] * len(records)
    # the records equal those read off a separate stabilizer in the quotient
    for rec in records:
        stab = stabilizer_indices(group, rec.representative, quotient)
        stab_g = stabilizer_indices(group, rec.representative, "G")
        assert rec.stabilizer_order == len(stab) and rec.label == group.recognize(stab)
        assert rec.label_g == group.recognize(stab_g)
        assert rec.image_status == singularity_weights(group, stab).image_status()
        assert rec.reflection_generated == reflection_generated(group, stab)


@pytest.mark.parametrize("quotient", ["G", "H"])
@pytest.mark.parametrize("locus", ["T2", "T7"])
def test_one_orbit_per_record(group, monkeypatch, locus, quotient):
    locus_points(group, locus)  # the locus's own orbits are cached before counting
    calls = []

    def counted(table, p, sel="G"):
        calls.append(sel)
        return orbit_points(table, p, sel)

    monkeypatch.setattr(orbits, "orbit_points", counted)
    records = classify_locus(group, locus, quotient)
    assert calls == [quotient] * len(records)
    for rec in records:
        orb = orbit_points(group, rec.representative, quotient)
        assert rec.orbit_size == len(orb) and rec.orbit_min == orb[0]


@pytest.mark.parametrize("quotient", ["G", "H"])
def test_two_labels_per_record(group, monkeypatch, quotient):
    # label is label_g or label_h, whichever belongs to the quotient
    calls = []
    recognize = group.recognize

    def counted(s):
        calls.append(s)
        return recognize(s)

    monkeypatch.setattr(group, "recognize", counted)
    records = classify_locus(group, "T7", quotient)
    assert len(calls) == 2 * len(records)
    for rec in records:
        assert rec.label == (rec.label_g if quotient == "G" else rec.label_h)


@pytest.mark.parametrize("call", [locus_points, classify_locus])
@pytest.mark.parametrize("name", ["t7", "t4prime", "T9"])
def test_unknown_locus_names(group, call, name):
    with pytest.raises(ValueError, match=f"unknown locus '{name}'"):
        call(group, name)


def test_t4p_locus(group):
    pts = locus_points(group, "T4p")
    assert len(pts) == 231
    records = classify_locus(group, "T4p", "G")
    assert sorted(r.orbit_size for r in records) == [7, 7, 14, 14, 21, 42, 42, 84]


@pytest.mark.parametrize(
    "name, order, det, size, classes",
    [("T6", 6, None, 42, 1), ("T7", 7, None, 48, 2), ("T4p", 4, -1, 231, 1)],
)
def test_class_loci_match_element_sweep(group, monkeypatch, name, order, det, size, classes):
    calls = []
    enumerate_fixed_points = orbits.enumerate_fixed_points

    def counted(table, gi):
        calls.append(gi)
        return enumerate_fixed_points(table, gi)

    monkeypatch.setattr(orbits, "enumerate_fixed_points", counted)
    table = GroupTable()  # the loci are computed once per table
    pts = locus_points(table, name)
    assert pts == swept_locus_points(group, order, det)
    assert len(pts) == size and len(set(pts)) == size
    # one enumeration per conjugacy class of the wanted order and determinant
    assert len(calls) == classes
    assert all(group.elements[gi].order == order for gi in calls)
    assert det is None or all(group.elements[gi].det == det for gi in calls)
    # a second call enumerates nothing, and no caller can change the cached points
    pts.clear()
    assert locus_points(table, name) == swept_locus_points(group, order, det)
    assert len(calls) == classes


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
    ng = group.normalizer(group.subgroup_closure([g7]))
    assert len(ng) == 42 and group.recognize(ng) == "±7:3"
    nh = ng & group.h_set
    assert len(nh) == 21 and group.recognize(nh) == "7:3"


def test_generic_curve_stabilizers_seed0(group):
    rho1 = group.named["rho1"]
    axis = fixed_locus_structure(group, rho1)
    ks = kappa_translates(group)
    stabs = [generic_curve_stabilizer(group, axis, ks[i]) for i in (1, 2, 3)]
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
    s = generic_curve_stabilizer(group, locus, ZERO_POINT)
    assert group.recognize(s) == "S3'"
    h4 = group.named["h4"]
    locus4 = fixed_locus_structure(group, h4)
    s4 = generic_curve_stabilizer(group, locus4, ZERO_POINT)
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
    assert a == generic_curve_stabilizer(group, axis, k3)


def test_curve_invariance_groups(group):
    rho1 = group.named["rho1"]
    locus = fixed_locus_structure(group, rho1)
    ks = kappa_translates(group)
    for t in ks[1:]:
        inv = curve_setwise_stabilizer(group, locus, t)
        assert len(inv) == 16 and group.recognize(inv) == "±D8"
        inv_h = inv & group.h_set
        assert len(inv_h) == 8 and group.recognize(inv_h) == "D8"


def test_setwise_stabilizers_of_parallel_curves(group):
    # curves t + V_1 through points off the locus: of the elements keeping
    # V_1 (the setwise stabilizer of the curve through zero), only those
    # moving t along the curve keep the curve
    rng = random.Random(44)
    shrunk = 0
    for carrier in ("rho1", "c3"):
        gi = group.named[carrier]
        locus = fixed_locus_structure(group, gi)
        v1_basis = complement_fixed_locus(group, gi).v1_basis
        keeps_v1 = curve_setwise_stabilizer(group, locus, ZERO_POINT)
        for q in (2, 3, 5):
            t = TorusPoint([F(rng.randrange(q), q) for _ in range(6)])
            got = curve_setwise_stabilizer(group, locus, t)
            assert got == projector_setwise_stabilizer(group, v1_basis, t, "G")
            assert got <= keeps_v1
            shrunk += got < keeps_v1
    assert shrunk >= 4


def _six_curves(group):
    """(carrier, translate) of the mirror, the three kappa curves and the two axes."""
    ks = kappa_translates(group)
    return [("r2", ZERO_POINT)] + [("rho1", k) for k in ks[1:]] + [
        ("c3", ZERO_POINT),
        ("h4", ZERO_POINT),
    ]


# the curve stabilizers are computed in G; for H, their part in H is tested
@pytest.mark.parametrize("quotient", ["G", "H"])
def test_exact_curve_stabilizers_match_field_oracles(group, quotient):
    ambient = frozenset(group_ids(group, quotient))
    for carrier, t in _six_curves(group):
        gi = group.named[carrier]
        locus = fixed_locus_structure(group, gi)
        generic = generic_curve_stabilizer(group, locus, t) & ambient
        assert (gi in generic) == (gi in ambient)
        for seed in (0, 7):
            assert sampled_curve_stabilizer(group, t, locus.lambda1_rows, quotient, seed) == generic
        v1_basis = complement_fixed_locus(group, gi).v1_basis
        setwise = curve_setwise_stabilizer(group, locus, t) & ambient
        assert setwise == projector_setwise_stabilizer(group, v1_basis, t, quotient)


@pytest.mark.parametrize("quotient", ["G", "H"])
def test_stacked_curve_stabilizer_matches_element_loop(group, quotient):
    ambient = frozenset(group_ids(group, quotient))
    for carrier, t in _six_curves(group):
        locus = fixed_locus_structure(group, group.named[carrier])
        stacked = generic_curve_stabilizer(group, locus, t) & ambient
        assert stacked == looped_curve_stabilizer(group, t, locus.lambda1_rows, quotient)
        assert group.identity in stacked


@pytest.mark.parametrize("quotient", ["G", "H"])
def test_stacked_curve_stabilizer_on_translates_beyond_int64(group, quotient):
    den = 10**20
    ambient = frozenset(group_ids(group, quotient))
    for carrier in ("r2", "rho1", "c3", "h4"):
        locus = fixed_locus_structure(group, group.named[carrier])
        rows = locus.lambda1_rows
        on_curve = TorusPoint([F(3 * x, den) for x in rows[0]])
        generic = TorusPoint([F(k, den) for k in (1, 3, 0, 0, 0, 7)])
        for t in (on_curve, generic):
            assert t.den == den
            stacked = generic_curve_stabilizer(group, locus, t) & ambient
            assert stacked == looped_curve_stabilizer(group, t, rows, quotient)
        # a translate on the curve through zero leaves its stabilizer unchanged
        assert generic_curve_stabilizer(group, locus, on_curve) == (
            generic_curve_stabilizer(group, locus, ZERO_POINT)
        )


def _count_field_arithmetic(monkeypatch) -> dict[str, int]:
    """Counters of QNum arithmetic, by method name, for the rest of the test."""
    counts: dict[str, int] = {}
    for name in ("__mul__", "__add__", "__sub__", "__neg__", "inv"):
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
        generic_curve_stabilizer(group, locus, t)
        curve_setwise_stabilizer(group, locus, t)
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
        assert on_singular_curve(group, p)
    # a smooth special point does not
    assert not on_singular_curve(group, omega_point(0, 1))


def _seeded_kappa_curve_points(group, rng, per_curve, den_choices):
    """Points k + Lambda_1 / q on the four kappa curves of rho1, each moved by a random element."""
    rows = fixed_locus_structure(group, group.named["rho1"]).lambda1_rows
    points = []
    for k in kappa_translates(group):
        for _ in range(per_curve):
            q = rng.choice(den_choices)
            coeffs = [F(rng.randrange(q), q) for _ in rows]
            p = k + TorusPoint([sum(c * r[i] for c, r in zip(coeffs, rows)) for i in range(6)])
            points.append(apply_element(group.elements[rng.randrange(group.size)].int6, p))
    return points


def test_singular_curve_membership_matches_antireflection_rule(group):
    # the stacked test over G against the per-antireflection reference, on
    # every special point and on seeded points of the four kappa curves
    reference = AntireflectionCurves(group)
    special = [
        p for name in ("T2", "T6", "T4p", "T7", "beta", "omega") for p in locus_points(group, name)
    ]
    seeded = _seeded_kappa_curve_points(group, random.Random(42), 60, (2, 3, 4, 5, 6, 8, 12))
    assert len(special) == 63 + 42 + 231 + 48 + 15 + 3 and len(seeded) == 240
    for points in (special, seeded):
        answers = [on_singular_curve(group, p) for p in points]
        assert answers == [reference.contains(p) for p in points]
        assert True in answers and False in answers


def test_singular_curve_membership_beyond_int64(group):
    # denominators whose products overflow int64 take the Python-integer path
    reference = AntireflectionCurves(group)
    points = _seeded_kappa_curve_points(group, random.Random(43), 3, (BIG_PRIME, 10**20))
    points.append(TorusPoint([F(k, 10**20) for k in (1, 3, 0, 0, 0, 7)]))
    answers = [on_singular_curve(group, p) for p in points]
    assert answers == [reference.contains(p) for p in points]
    assert True in answers and False in answers
    assert all(p.den > 2**61 for p in points)


def test_stacked_mirror_test_matches_fixes_curve_loop(group):
    # kappa_translates tells the off-mirror class by the reflections in the
    # generic stabilizer; the loop tested fixes_curve on every reflection
    translates = 0
    for rho in group.antireflections:
        locus = fixed_locus_structure(group, rho)
        for t in locus.translates:
            stacked = generic_curve_stabilizer(group, locus, t) & group.reflection_set
            looped = {
                r
                for r in group.reflections
                if fixes_curve(group.elements[r].int6, locus.lambda1_rows, t)
            }
            assert stacked == looped
            translates += 1
    assert translates == 84


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


def _curves_marked(statuses):
    """A curve_strata whose records take the given image statuses by curve name."""
    return lambda real: lambda table, quotient="G": [
        dataclasses.replace(c, image_status=statuses.get(c.name, c.image_status))
        for c in real(table, quotient)
    ]


def _locus_edited(locus, edit):
    """A classify_locus that passes the records of one locus through edit."""
    return lambda real: lambda table, name, quotient="G": (
        edit(real(table, name, quotient)) if name == locus else real(table, name, quotient)
    )


def _with_stray(records):
    stray = dataclasses.replace(
        records[0], image_status="1/3(0,1,2)", orbit_min=TorusPoint([F(1, 5)] * 6)
    )
    return records + [stray]


# each inventory guard of singularity_report, driven by one monkeypatched input
@pytest.mark.parametrize(
    "quotient, name, patch, message",
    [
        pytest.param(
            "G", "curve_strata", _curves_marked({"kappa_1": "1/2(0,1,1)"}),
            re.escape("unexpected singular curves ['kappa_1', 'kappa_3']"), id="second-curve",
        ),
        pytest.param(
            "G", "curve_strata", _curves_marked({"kappa_3": "1/4(0,1,3)"}),
            "the singular curve has unexpected generic weights", id="curve-weights",
        ),
        pytest.param(
            "G", "classify_locus", _locus_edited("T7", lambda records: []),
            "the singular point strata do not match the expected inventory: "
            "isolated=0 dissident=1 stray=0", id="no-isolated-point",
        ),
        pytest.param(
            "G", "classify_locus", _locus_edited("T2", _with_stray),
            "the singular point strata do not match the expected inventory: "
            "isolated=1 dissident=1 stray=1", id="stray-point",
        ),
        pytest.param(
            "G", "on_singular_curve", lambda real: lambda table, p: False,
            r"singular orbit at \[[0-9/,]+\] does not lie on the singular curve", id="off-curve",
        ),
        pytest.param(
            "H", "classify_locus", _locus_edited("T7", lambda records: records[:1]),
            "expected two isolated seventh-order points, got 1", id="h-isolated-points",
        ),
    ],
)
def test_singularity_report_inventory_guards(group, monkeypatch, quotient, name, patch, message):
    monkeypatch.setattr(orbits, name, patch(getattr(orbits, name)))
    with pytest.raises(ConsistencyError) as err:
        singularity_report(group, quotient)
    assert re.fullmatch(message, str(err.value))


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
        assert len(orbit) * len(want) == 336 and list(orbit) == sorted(orbit)
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


# the orbit golden literals: one per sort-key width, a free orbit and a mirror point
ORBIT_LITERALS = [
    f"[1/{d},5/{d},77/{d},0,3/{d},-1/{d}]" for d in (1009, 20011, 2097169, 10**12 + 39, 10**20)
] + [
    "[3/20011,1000/20011,4567/20011,12345/20011,777/20011,19000/20011]",
    "[2/20011,5/20011,77/20011,89/20011,-79/20011,170/20011]",
]


def _orbit_branch(orbit, group_order: int) -> str:
    """Which path of orbit_points an orbit takes, read off its reference rows."""
    rows, den = orbit.rows, orbit.den
    if rows.dtype == object:
        return "object rows"
    width = next((c for c in (6, 3, 2) if den**c <= 2**63), 1)
    repeats = len(rows) < group_order  # each row is the image of |stabilizer| matrices
    if width == 6:
        return "width 6 with repeats" if repeats else "width 6, distinct rows"
    if repeats:
        return "width < 6 with repeated rows"
    first = rows[:, 0]
    for t in range(1, width):
        first = first * den + rows[:, t]
    if len(set(first.tolist())) == len(rows):
        return "width < 6 with distinct first keys"
    return "width < 6 with tied first keys"


def test_orbit_matches_full_stack_reference(group):
    # orbit_points uses G = H x {+-1} and sorts on the first key alone when
    # it decides the order; the reference applies all selected matrices and
    # lexsorts every key
    rng = random.Random(22)
    names = [f"xi_{k}" for k in range(64)] + [f"beta_{i:04b}" for i in range(16)]
    names += [f"omega_{i}{j}" for i in (0, 1) for j in (0, 1)]
    names += [f"eta_{i}" for i in range(7)] + [f"kappa_{i}" for i in range(4)]
    points = [registry_point(group, n) for n in names]
    points += locus_points(group, "T6") + locus_points(group, "T7") + locus_points(group, "T4p")
    points += [TorusPoint.parse(text) for text in ORBIT_LITERALS]
    dens = [rng.randrange(337, 20012) for _ in range(12)] + [2097169, 10**12 + 39, 10**20]
    points += [TorusPoint([F(rng.randrange(d), d) for _ in range(6)]) for d in dens]
    for carrier in ("r2", "c3", "h4"):
        rows = fixed_locus_structure(group, group.named[carrier]).lambda1_rows
        for _ in range(2):
            coeffs = [F(rng.randrange(1, 20011), 20011) for _ in rows]
            points.append(TorusPoint([sum(c * r[i] for c, r in zip(coeffs, rows)) for i in range(6)]))
    seen = Counter()
    for quotient, order in (("G", 336), ("H", 168)):
        for p in points:
            want = full_stack_orbit(group, p, quotient)
            got = orbit_points(group, p, quotient)
            assert got.den == want.den and got.rows.dtype == want.rows.dtype, p
            assert np.array_equal(got.rows, want.rows), p
            seen[_orbit_branch(want, order)] += 1
    for branch in (
        "width 6 with repeats",
        "width < 6 with distinct first keys",
        "width < 6 with tied first keys",
        "width < 6 with repeated rows",
        "object rows",
    ):
        assert seen[branch], (branch, seen)
