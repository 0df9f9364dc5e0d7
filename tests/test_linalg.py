import itertools
import random
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from oracles import (
    from_eps_coords,
    int_kernel,
    is_unitary,
    kernel_K,
    lattice_index,
    mat_apply,
    rat_inverse,
    to_eps_coords,
)
from klein336.linalg import (
    _FORWARD,
    _integer_inverse,
    E1,
    EPS_VECTORS,
    IDENTITY3,
    Mat3,
    NonIntegralError,
    hnf_contains,
    hnf_rows,
    int_det,
    mat3_to_int6,
    smith_normal_form,
)
from klein336.qfield import QNum, vec3

F = Fraction

R1 = Mat3([[1, 0, 0], [0, 0, 1], [0, 1, 0]])
R2 = Mat3([[1, 0, 0], [0, 1, 0], [0, 0, -1]])
half = F(1, 2)
R3 = Mat3(
    [
        [QNum(half), QNum(-half), QNum(0, -half)],
        [QNum(-half), QNum(half), QNum(0, -half)],
        [QNum(-half, half), QNum(-half, half), QNum(0)],
    ]
)
def perm_det(a):
    """Permutation-expansion determinant; independent of Bareiss/SNF."""
    n = len(a)
    total = 0
    for perm in itertools.permutations(range(n)):
        sign = 1
        seen = [False] * n
        # sign via cycle decomposition
        for start in range(n):
            if seen[start]:
                continue
            length = 0
            j = start
            while not seen[j]:
                seen[j] = True
                j = perm[j]
                length += 1
            if length % 2 == 0:
                sign = -sign
        term = sign
        for i in range(n):
            term *= a[i][perm[i]]
        total += term
    return total


def test_eps_basis_roundtrip_basic():
    assert from_eps_coords(to_eps_coords(E1)) == E1
    assert to_eps_coords(EPS_VECTORS[2]) == (0, 0, 1, 0, 0, 0)
    for i, eps in enumerate(EPS_VECTORS):
        expected = tuple(F(int(j == i)) for j in range(6))
        assert to_eps_coords(eps) == expected


def test_eps_coords_of_seventh_torsion_point():
    # eta_1 in C^3 coordinates: (i*sqrt(7)/7, (7+i*sqrt(7))/14, 1 - 2*i*sqrt(7)/7)
    eta1 = vec3(
        QNum(F(-1, 7), F(2, 7)),
        QNum(F(3, 7), F(1, 7)),
        QNum(F(9, 7), F(-4, 7)),
    )
    assert to_eps_coords(eta1) == (
        F(-1, 7),
        F(-1, 7),
        F(1, 7),
        F(1, 7),
        F(1, 7),
        F(-1, 7),
    )


def test_eps_roundtrip_randomized():
    rng = random.Random(10)
    for _ in range(200):
        coords = tuple(F(rng.randint(-30, 30), rng.randint(1, 12)) for _ in range(6))
        assert to_eps_coords(from_eps_coords(coords)) == coords
        v = vec3(
            QNum(F(rng.randint(-9, 9), 4), F(rng.randint(-9, 9), 4)),
            QNum(F(rng.randint(-9, 9), 4), F(rng.randint(-9, 9), 4)),
            QNum(F(rng.randint(-9, 9), 4), F(rng.randint(-9, 9), 4)),
        )
        assert from_eps_coords(to_eps_coords(v)) == v


def test_generators_are_unitary():
    for m in (R1, R2, R3):
        assert is_unitary(m)
        assert m * m == IDENTITY3


def test_mat3_to_int6_basic():
    ident6 = tuple(tuple(int(i == j) for j in range(6)) for i in range(6))
    assert mat3_to_int6(IDENTITY3) == ident6
    minus = mat3_to_int6(IDENTITY3.scale(-1))
    assert minus == tuple(tuple(-x for x in row) for row in ident6)


def test_mat3_to_int6_rejects_non_lattice_map():
    bad = Mat3([[QNum(F(1, 2)), 0, 0], [0, 1, 0], [0, 0, 1]])
    with pytest.raises(NonIntegralError):
        mat3_to_int6(bad)


def test_int6_of_g7_minus_identity_has_det_7():
    g7 = IDENTITY3.scale(-1) * R1 * R2 * R3
    a = mat3_to_int6(g7 - IDENTITY3)
    # brute-force determinant oracle
    assert abs(perm_det([list(r) for r in a])) == 7
    assert int_det(a) == perm_det([list(r) for r in a])
    # 3x3 determinant is i*sqrt(7) = 2w - 1, of field norm 7
    d3 = (g7 - IDENTITY3).det()
    assert d3 == QNum(-1, 2)
    assert d3.norm() == 7


def test_det6_is_norm_of_det3():
    g7 = IDENTITY3.scale(-1) * R1 * R2 * R3
    for m in (R1 * R2, R2 * R3, g7, g7 * g7, R3 * R1):
        shifted = m - IDENTITY3
        det3 = shifted.det()
        if det3:
            assert int_det(mat3_to_int6(shifted)) == det3.norm()


def test_kernel_K_examples():
    ker = kernel_K(R2 - IDENTITY3)
    assert len(ker) == 2
    for v in ker:
        assert v[2] == QNum(0)
        assert mat_apply(R2 - IDENTITY3, v) == vec3(0, 0, 0)
    rho2 = R2.scale(-1)
    ker1 = kernel_K(rho2 - IDENTITY3)
    assert len(ker1) == 1
    assert ker1[0][0] == QNum(0) and ker1[0][1] == QNum(0) and ker1[0][2]
    g7 = IDENTITY3.scale(-1) * R1 * R2 * R3
    assert kernel_K(g7 - IDENTITY3) == []


def test_smith_normal_form_examples():
    two_id = [[2 * int(i == j) for j in range(6)] for i in range(6)]
    u, d, v = smith_normal_form(two_id)
    assert d == two_id
    minus2 = [[-2 * int(i == j) for j in range(6)] for i in range(6)]
    u, d, v = smith_normal_form(minus2)
    assert [d[i][i] for i in range(6)] == [2] * 6
    prod = 1
    for i in range(6):
        prod *= d[i][i]
    assert prod == 64


def test_smith_normal_form_contract_randomized():
    rng = random.Random(11)
    for _ in range(300):
        m = rng.randint(1, 5)
        n = rng.randint(1, 5)
        a = [[rng.randint(-10, 10) for _ in range(n)] for _ in range(m)]
        u, d, v = smith_normal_form(a)
        assert abs(perm_det(u)) == 1
        assert abs(perm_det(v)) == 1
        uav = [
            [
                sum(u[i][s] * a[s][t] * v[t][j] for s in range(m) for t in range(n))
                for j in range(n)
            ]
            for i in range(m)
        ]
        assert uav == d
        diag = [d[i][i] for i in range(min(m, n))]
        for i in range(m):
            for j in range(n):
                if i != j:
                    assert d[i][j] == 0
        assert all(x >= 0 for x in diag)
        for x, y in zip(diag, diag[1:]):
            if x:
                assert y % x == 0
            else:
                assert y == 0


def _assert_kernels_equal_the_references(a):
    """(U, D, V), the determinants of U, V (and a, if square) and HNF membership, bit for bit."""
    snf = smith_normal_form(a)
    assert snf == oracles.closure_smith_normal_form(a)
    u, _, v = snf
    for x in (u, v) + ((a,) if len(a) == len(a[0]) else ()):
        assert int_det(x) == oracles.bareiss_int_det(x)
    h = hnf_rows(a)
    # each row, and each row with its first entry moved off the lattice or onto it
    for row in a:
        for probe in (row, [row[0] + 1] + row[1:]):
            assert hnf_contains(h, probe) is oracles.scanning_hnf_contains(h, probe)


def test_kernels_equal_the_references_on_the_ac14_draws(group):
    for a in oracles.ac14_matrix_draws(group.size):
        _assert_kernels_equal_the_references(a)


def test_kernels_equal_the_references_on_every_joint_locus_stack(group, monkeypatch):
    from klein336 import torus

    class Seen(Exception):
        pass

    stacks = []

    def record(a):
        stacks.append(a)
        raise Seen  # the stack is all this test needs of fixed_locus

    monkeypatch.setattr(torus, "smith_normal_form", record)
    subgroups = oracles.goursat_subgroups_of_g(group)
    for s in subgroups:
        with pytest.raises((Seen, torus.IdentityElementError)):
            torus.fixed_locus(group, s)
    assert len(stacks) == len(subgroups) - 1  # all but the trivial subgroup
    for a in stacks:
        _assert_kernels_equal_the_references(a)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(
    shape=st.tuples(st.integers(1, 6), st.integers(1, 6)),
    entries=st.lists(st.one_of(st.just(0), st.integers(-30, 30)), min_size=36, max_size=36),
)
def test_kernels_equal_the_references_on_small_matrices(shape, entries):
    m, n = shape
    _assert_kernels_equal_the_references([entries[i * n : (i + 1) * n] for i in range(m)])


def test_int_det_rejects_a_matrix_that_is_not_square():
    for a in ([[1, 2, 3], [4, 5, 6]], [[1, 2], [3]], [[1, 2]]):
        with pytest.raises(ValueError, match="square"):
            int_det(a)


def test_int_det_of_the_empty_matrix_is_one():
    assert int_det([]) == 1


def test_hnf_contains_rejects_a_vector_of_another_width():
    with pytest.raises(ValueError, match="width"):
        hnf_contains([[2, 0], [0, 3]], [2, 0, 5])
    with pytest.raises(ValueError, match="width"):
        hnf_contains([[2, 0, 0]], [2, 0])
    assert hnf_contains([], [0, 0, 0]) and not hnf_contains([], [0, 1])


def _assert_inverse_in_lowest_terms(a):
    num, den = _integer_inverse(a)
    assert den > 0 and gcd(den, *(x for row in num for x in row)) == 1
    assert [[F(x, den) for x in row] for row in num] == rat_inverse(a)


def test_integer_inverse_of_the_eps_basis_change():
    _assert_inverse_in_lowest_terms(_FORWARD)
    num, den = _integer_inverse(_FORWARD)
    assert den == 2


def test_integer_inverse_matches_gauss_jordan_randomized():
    rng = random.Random(5)
    negative = nontrivial = 0
    while negative < 20 or nontrivial < 20:
        n = rng.randint(1, 5)
        a = [[rng.randint(-6, 6) for _ in range(n)] for _ in range(n)]
        det = perm_det(a)
        if det == 0:
            with pytest.raises(ValueError, match="singular"):
                _integer_inverse(a)
            continue
        _, d, _ = smith_normal_form(a)
        negative += det < 0
        nontrivial += n > 1 and d[n - 2][n - 2] > 1
        _assert_inverse_in_lowest_terms(a)


def test_hnf_examples():
    ident = [[int(i == j) for j in range(6)] for i in range(6)]
    assert hnf_rows(ident) == ident
    doubled = [[2 * int(i == j) for j in range(6)] for i in range(6)]
    assert hnf_rows(doubled) == doubled
    assert hnf_contains(doubled, [2, 0, -4, 2, 0, 6])
    assert not hnf_contains(doubled, [1, 0, 0, 0, 0, 0])


def test_hnf_is_canonical_randomized():
    rng = random.Random(12)
    for _ in range(200):
        n = rng.randint(2, 5)
        rows = [[rng.randint(-8, 8) for _ in range(n)] for _ in range(rng.randint(2, 6))]
        h = hnf_rows(rows)
        # unimodular recombination of the generators leaves the HNF unchanged
        shuffled = [row[:] for row in rows]
        rng.shuffle(shuffled)
        if len(shuffled) >= 2:
            shuffled[0] = [x + 3 * y for x, y in zip(shuffled[0], shuffled[1])]
        assert hnf_rows(shuffled) == h
        for row in rows:
            assert hnf_contains(h, row)


def test_int_kernel_is_saturated():
    a = [[2, 4, 6], [1, 2, 3]]
    ker = int_kernel(a)
    assert len(ker) == 2
    for v in ker:
        assert all(sum(r[j] * v[j] for j in range(3)) == 0 for r in a)
    # saturation: (1,1,-1) = ((2,2,-2)/2) must already lie in the kernel lattice
    h = hnf_rows(ker)
    assert hnf_contains(h, [1, 1, -1]) or hnf_contains(h, [-1, -1, 1])


def test_lattice_index():
    assert lattice_index([[2, 0], [0, 2]]) == 4
    assert lattice_index([[1, 0], [0, 1]]) == 1
    assert lattice_index([[1, 2], [2, 4]]) == 0


def test_matrix_wire_roundtrip():
    for m in (R1, R2, R3, R1 * R3, R3 * R2 * R1):
        assert Mat3.from_strings(m.to_strings()) == m
    nested = [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "-1"]]
    assert Mat3.from_strings(nested) == R2
    with pytest.raises(ValueError):
        Mat3.from_strings(["1", "0"])


@pytest.mark.parametrize(
    "make, error, message",
    [
        (lambda: Mat3([[1, 0], [0, 1]]), ValueError, "Mat3 requires a 3x3 array"),
        (
            lambda: Mat3([[1, 0, 0], [0, 1, 0], [0, 0, "1"]]),
            TypeError,
            "cannot interpret '1' as a field element",
        ),
        (lambda: setattr(IDENTITY3, "rows", ()), AttributeError, "Mat3 is immutable"),
    ],
    ids=["not-3x3", "string-entry", "immutable"],
)
def test_mat3_guards(make, error, message):
    with pytest.raises(error) as err:
        make()
    assert str(err.value) == message
