import itertools
import random
from fractions import Fraction

import pytest

from oracles import int_kernel, lattice_index
from klein336.linalg import (
    E1,
    E2,
    E3,
    EPS_VECTORS,
    IDENTITY3,
    Mat3,
    NonIntegralError,
    from_eps_coords,
    hnf_contains,
    hnf_rows,
    int_det,
    kernel_K,
    mat3_to_int6,
    smith_normal_form,
    to_eps_coords,
)
from klein336.qfield import ALPHA, ALPHA_BAR, QNum, vec3

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
        assert m.is_unitary()
        assert m * m == IDENTITY3


def test_mat3_to_int6_basic():
    ident6 = tuple(tuple(int(i == j) for j in range(6)) for i in range(6))
    assert mat3_to_int6(IDENTITY3) == ident6
    minus = mat3_to_int6(-IDENTITY3)
    assert minus == tuple(tuple(-x for x in row) for row in ident6)


def test_mat3_to_int6_rejects_non_lattice_map():
    bad = Mat3([[QNum(F(1, 2)), 0, 0], [0, 1, 0], [0, 0, 1]])
    with pytest.raises(NonIntegralError):
        mat3_to_int6(bad)


def test_int6_of_g7_minus_identity_has_det_7():
    g7 = (-IDENTITY3) * R1 * R2 * R3
    a = mat3_to_int6(g7 - IDENTITY3)
    # brute-force determinant oracle
    assert abs(perm_det([list(r) for r in a])) == 7
    assert int_det(a) == perm_det([list(r) for r in a])
    # 3x3 determinant is i*sqrt(7) = 2w - 1, of field norm 7
    d3 = (g7 - IDENTITY3).det()
    assert d3 == QNum(-1, 2)
    assert d3.norm() == 7


def test_det6_is_norm_of_det3():
    g7 = (-IDENTITY3) * R1 * R2 * R3
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
        assert (R2 - IDENTITY3).apply(v) == vec3(0, 0, 0)
    rho2 = -R2
    ker1 = kernel_K(rho2 - IDENTITY3)
    assert len(ker1) == 1
    assert ker1[0][0] == QNum(0) and ker1[0][1] == QNum(0) and ker1[0][2]
    g7 = (-IDENTITY3) * R1 * R2 * R3
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
