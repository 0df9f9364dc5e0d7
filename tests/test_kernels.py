"""Property tests: the integer kernels against the exact rational references.

QNum (a reduced integer triple) is compared with the Fraction-pair FracQNum,
the integer eps chart with the Fraction-matrix chart, and TorusPoint
(integer numerators over the point's order) with the Fraction-tuple
FracTorusPoint, all in tests/oracles.py.
"""

from fractions import Fraction
from math import gcd

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import oracles
from klein336.linalg import (
    Mat3,
    NonIntegralError,
    int6_to_mat3,
    mat3_to_int6,
)
from klein336.orbits import orbit_points, stabilizer_indices
from klein336.qfield import QNum
from klein336.torus import TorusPoint, apply_element

PROPERTY = settings(max_examples=100, deadline=None, derandomize=True, database=None)

rationals = st.fractions(max_denominator=10**6).filter(lambda f: abs(f) < 10**9) | st.integers(
    -(10**30), 10**30
).map(Fraction)
small_rationals = st.builds(
    Fraction, st.integers(-20, 20), st.sampled_from([1, 1, 2, 2, 3, 4, 7, 8, 14])
)


@st.composite
def pairs(draw, coords=rationals):
    """The same field element as a QNum and as a FracQNum."""
    x, y = draw(coords), draw(coords)
    return QNum(x, y), oracles.FracQNum(x, y)


def check_triple(q: QNum) -> None:
    from math import gcd, lcm

    assert q.d > 0 and gcd(q.a, q.b, q.d) == 1
    assert q.d == lcm(q.x.denominator, q.y.denominator)
    assert (Fraction(q.a, q.d), Fraction(q.b, q.d)) == (q.x, q.y)


@PROPERTY
@given(pairs(), pairs())
def test_ring_operations_match_fraction_pairs(p, r):
    (a, fa), (b, fb) = p, r
    for got, want in ((a + b, fa + fb), (a - b, fa - fb), (a * b, fa * fb), (-a, -fa)):
        check_triple(got)
        assert (got.x, got.y) == (want.x, want.y)


@PROPERTY
@given(pairs())
def test_inv_conj_norm_match_fraction_pairs(p):
    a, fa = p
    conj = a.conj()
    check_triple(conj)
    assert (conj.x, conj.y) == (fa.conj().x, fa.conj().y)
    assert a.norm() == fa.norm() and type(a.norm()) is Fraction
    if fa:
        inv = a.inv()
        check_triple(inv)
        assert (inv.x, inv.y) == (fa.inv().x, fa.inv().y)
    else:
        with pytest.raises(ZeroDivisionError):
            a.inv()
    assert bool(a) == bool(fa)
    assert oracles.complex_value(a) == fa.to_complex()


@PROPERTY
@given(pairs(small_rationals), pairs(small_rationals))
def test_equality_and_hash_are_consistent(p, r):
    (a, fa), (b, fb) = p, r
    assert (a == b) == (fa == fb)
    if a == b:
        assert hash(a) == hash(b) and len({a, b}) == 1
    assert a == QNum.parse(str(a)) and hash(a) == hash(QNum.parse(str(a)))
    assert (a != b) == (fa != fb)


@PROPERTY
@given(pairs())
def test_wire_format_round_trip(p):
    a, fa = p
    assert str(a) == str(fa)
    assert repr(a) == repr(fa)
    back = QNum.parse(str(a))
    check_triple(back)
    assert back == a and str(back) == str(a)
    ref = oracles.FracQNum.parse(str(fa))
    assert (back.x, back.y) == (ref.x, ref.y)


@PROPERTY
@given(st.integers(-(10**9), 10**9), st.integers(-(10**9), 10**9), st.integers(-(10**6), 10**6))
def test_from_ints_reduces(a, b, d):
    assume(d != 0)
    q = QNum.from_ints(a, b, d)
    check_triple(q)
    assert (q.x, q.y) == (Fraction(a, d), Fraction(b, d))


# --- the integer eps chart ----------------------------------------------------


def test_mat3_to_int6_matches_rational_chart_on_the_group(group):
    for el in group.elements:
        assert mat3_to_int6(el.mat) == oracles.mat3_to_int6(el.mat.rows) == el.int6


def test_int6_to_mat3_inverts_the_chart_on_the_group(group):
    for el in group.elements:
        assert int6_to_mat3(el.int6) == el.mat


@PROPERTY
@given(st.lists(st.tuples(st.integers(0, 335), st.integers(-9, 9)), min_size=1, max_size=4))
def test_int6_to_mat3_inverts_the_chart_on_lattice_endomorphisms(terms):
    # integer combinations of group elements preserve the lattice, and both
    # charts are additive; most of these matrices are neither unitary nor invertible
    from klein336.group import get_group

    els = get_group().elements
    m = Mat3([[0] * 3] * 3)
    a = [[0] * 6 for _ in range(6)]
    for i, c in terms:
        m = m - els[i].mat.scale(-c)
        a = [[x + c * y for x, y in zip(ra, rb)] for ra, rb in zip(a, els[i].int6)]
    assert int6_to_mat3(a) == m
    assert mat3_to_int6(m) == tuple(map(tuple, a))


field_entries = st.builds(QNum, small_rationals, small_rationals)


@PROPERTY
@given(st.lists(field_entries, min_size=9, max_size=9))
def test_mat3_to_int6_matches_rational_chart_on_random_matrices(entries):
    m = Mat3([entries[0:3], entries[3:6], entries[6:9]])
    try:
        want = oracles.mat3_to_int6(m.rows)
    except NonIntegralError as ref:
        with pytest.raises(NonIntegralError) as got:
            mat3_to_int6(m)
        assert (got.value.row, got.value.col, got.value.value) == (ref.row, ref.col, ref.value)
        assert str(got.value) == str(ref)
        return
    assert mat3_to_int6(m) == want


def test_eps_basis_round_trip():
    for j in range(6):
        unit = [int(i == j) for i in range(6)]
        assert oracles.to_eps_coords(oracles.from_eps_coords(unit)) == tuple(unit)


# --- torsion points -------------------------------------------------------------


@PROPERTY
@given(st.lists(rationals | st.integers(-(10**20), 10**20), min_size=6, max_size=6))
def test_torus_point_coordinates_are_reduced_mod_1(c):
    p = TorusPoint(c)
    assert p.coords == tuple(Fraction(x) % 1 for x in c)
    assert all(type(x) is Fraction and 0 <= x < 1 for x in p.coords)


# denominators 1, 2 and 7, primes above 336, a prime just below 2^62 and 10^20 > 2^63
SPECIAL_DENOMINATORS = [1, 2, 7, 337, 349, 20011, 4611686018427387847, 10**20]
point_denominators = st.sampled_from(SPECIAL_DENOMINATORS) | st.integers(1, 400)


@st.composite
def points(draw):
    """The same torsion point as a TorusPoint and a FracTorusPoint."""
    den = draw(point_denominators)
    numerators = st.integers(-3 * den, 3 * den) | st.sampled_from([0, den // 2])
    coords = [Fraction(n, den) for n in draw(st.lists(numerators, min_size=6, max_size=6))]
    return TorusPoint(coords), oracles.FracTorusPoint(coords)


@st.composite
def point_pairs(draw):
    """Two points, the second often the first shifted by a lattice vector."""
    p, fp = draw(points())
    if draw(st.booleans()):
        return (p, fp), draw(points())
    shift = draw(st.lists(st.integers(-3, 3), min_size=6, max_size=6))
    coords = [c + s for c, s in zip(fp.coords, shift)]
    return (p, fp), (TorusPoint(coords), oracles.FracTorusPoint(coords))


def check_point(p: TorusPoint, want: oracles.FracTorusPoint) -> None:
    """p is canonical and is the oracle's point."""
    nums, den = p.nums, p.den
    assert all(0 <= n < den for n in nums) and gcd(*nums, den) == 1
    assert p.coords == want.coords
    assert p.den == want.order() and p.is_zero() == want.is_zero()


@PROPERTY
@given(points())
def test_torus_point_matches_fraction_tuples(pt):
    p, fp = pt
    check_point(p, fp)
    assert str(p) == str(fp)
    assert TorusPoint.parse(str(p)) == p
    assert oracles.FracTorusPoint.parse(str(p)) == fp
    assert TorusPoint(p.nums, p.den) == p


@PROPERTY
@given(point_pairs())
def test_torus_point_equality_hash_and_order(pair):
    (p, fp), (q, fq) = pair
    assert (p == q) == (fp == fq) and (p != q) == (fp != fq)
    if p == q:
        assert hash(p) == hash(q)
    assert (p < q) == (fp < fq) and (q < p) == (fq < fp)
    assert [x.coords for x in sorted([q, p])] == [x.coords for x in sorted([fq, fp])]


@PROPERTY
@given(point_pairs(), st.integers(-(10**6), 10**6))
def test_torus_point_arithmetic_matches_fraction_tuples(pair, k):
    (p, fp), (q, fq) = pair
    for got, want in (
        (p + q, fp + fq),
        (p - q, fp - fq),
        (k * p, k * fp),
        (p * k, fp * k),
    ):
        check_point(got, want)


@PROPERTY
@given(points(), st.integers(0, 335))
def test_apply_element_matches_fraction_tuples(group, pt, g):
    p, fp = pt
    int6 = group.elements[g].int6
    got = apply_element(int6, p)
    check_point(got, oracles.frac_apply_element(int6, fp))
    assert got.den == p.den


denominators = st.integers(2, 400) | st.integers(2, 10**25) | st.sampled_from(SPECIAL_DENOMINATORS)


def _same_order_points(den):
    """Points of exact order den, (k/den, 1/den, 0, 0, 0, 0) for a few k."""
    return (TorusPoint([Fraction(k, den), Fraction(1, den), 0, 0, 0, 0]) for k in range(min(den, 400)))


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(denominators, st.lists(st.integers(0, 10**30), min_size=6, max_size=6))
@example(den=20011, nums=[1, 5, 77, 0, 3, 19999])  # the int64 path
@example(den=10**20, nums=[1, 3, 0, 0, 0, 7])  # the Python-integer path
# each side of every orbit key width, den^c <= 2^63 for c = 6, 3, 2, and of
# the int64 path, 13 den < 2^63; -1 and -2 put digits den - 1 and den - 2
# in the point's own key
@example(den=1448, nums=[-1, 1, 5, 77, 3, -2])
@example(den=1449, nums=[-1, 1, 5, 77, 3, -2])
@example(den=2097152, nums=[-1, 1, 5, 77, 3, -2])
@example(den=2097153, nums=[-1, 1, 5, 77, 3, -2])
@example(den=3037000499, nums=[-1, 1, 5, 77, 3, -2])
@example(den=3037000500, nums=[-1, 1, 5, 77, 3, -2])
@example(den=709490156681136600, nums=[-1, 1, 5, 77, 3, -2])
@example(den=709490156681136601, nums=[-1, 1, 5, 77, 3, -2])
def test_stabilizer_and_orbit_match_exact_oracle(group, den, nums):
    p = TorusPoint([Fraction(n, den) for n in nums])
    int6s = [el.int6 for el in group.elements]
    want = oracles.exact_stabilizer(int6s, p.coords)
    assert stabilizer_indices(group, p, "G") == want
    assert stabilizer_indices(group, p, "H") == want & frozenset(group.h_indices)
    h_int6s = [int6s[i] for i in group.h_indices]
    for quotient, elements in (("G", int6s), ("H", h_int6s)):
        orbit = orbit_points(group, p, quotient)
        assert [q.coords for q in orbit] == sorted(oracles.exact_orbit(elements, p.coords))
        # int64 rows while no entry of g n - n can reach 2^63, else Python integers
        assert (orbit.rows.dtype == object) == ((6 * group.int6_max_abs + 1) * p.den >= 2**63)
        assert all(q.den == p.den == oracles.FracTorusPoint(q.coords).order() for q in orbit)
        # the Orbit sequence contract: indexing, order and membership
        exact = oracles.exact_orbit(elements, p.coords)
        members = [TorusPoint(c) for c in sorted(exact)]
        assert orbit[0] == members[0] and orbit[-1] == members[-1]
        assert [orbit[i] for i in range(len(members))] == members
        assert list(orbit) == members and len(orbit) == len(members)
        assert all(q in orbit for q in members)
        assert list(orbit) == sorted(members)
        outside = next((q for q in _same_order_points(p.den) if q.coords not in exact), None)
        if outside is not None:
            assert outside not in orbit
        assert TorusPoint([Fraction(1, p.den + 1), 0, 0, 0, 0, 0]) not in orbit
