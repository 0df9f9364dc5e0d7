"""Exact linear algebra over Q(w) and Z.

Three layers live here:

* ``Mat3`` -- 3x3 matrices over the field, with exact determinant, product
  and kernel computations;
* the basis change between C^3 (as a 6-dimensional rational space in the
  coefficient chart) and the standard Z-basis eps_1..eps_6 of the invariant
  lattice;
* integer normal forms: Hermite (canonical lattice bases, membership) and
  Smith (diagonalization with unimodular transforms).

The rational chart of C^3 is the componentwise (x, y) coefficient pair of
each field entry, so the whole basis change is a single exact 6x6 matrix and
its inverse.  The forward matrix is integral and the inverse is an integer
matrix over 2, so both directions work on integer numerators over one common
denominator.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from operator import mul
from typing import Iterable, Sequence

from .qfield import ALPHA, ALPHA_BAR, CVec3, ONE, QNum, ZERO, vec3, vscale

IntMat = list[list[int]]
RatMat = list[list[Fraction]]


class NonIntegralError(ValueError):
    """A matrix expected to preserve the lattice produced a non-integer entry."""

    def __init__(self, row: int, col: int, value: Fraction) -> None:
        super().__init__(
            f"lattice image has non-integer eps-coordinate at ({row}, {col}): {value}"
        )
        self.row = row
        self.col = col
        self.value = value


# --- 3x3 matrices over the field --------------------------------------------


class Mat3:
    __slots__ = ("rows",)

    def __init__(self, rows: Sequence[Sequence]) -> None:
        if len(rows) != 3 or any(len(r) != 3 for r in rows):
            raise ValueError("Mat3 requires a 3x3 array")
        object.__setattr__(
            self,
            "rows",
            tuple(tuple(_q(v) for v in row) for row in rows),
        )

    def __setattr__(self, name, value):
        raise AttributeError("Mat3 is immutable")

    def __getitem__(self, ij: tuple[int, int]) -> QNum:
        return self.rows[ij[0]][ij[1]]

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Mat3):
            return self.rows == other.rows
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self.rows)

    def __repr__(self) -> str:
        return "Mat3(" + ", ".join(str(v) for row in self.rows for v in row) + ")"

    def __mul__(self, other: Mat3) -> Mat3:
        if not isinstance(other, Mat3):
            return NotImplemented
        a, b = self.rows, other.rows
        return Mat3(
            [
                [
                    a[i][0] * b[0][j] + a[i][1] * b[1][j] + a[i][2] * b[2][j]
                    for j in range(3)
                ]
                for i in range(3)
            ]
        )

    def __add__(self, other: Mat3) -> Mat3:
        return Mat3(
            [[self.rows[i][j] + other.rows[i][j] for j in range(3)] for i in range(3)]
        )

    def __sub__(self, other: Mat3) -> Mat3:
        return Mat3(
            [[self.rows[i][j] - other.rows[i][j] for j in range(3)] for i in range(3)]
        )

    def __neg__(self) -> Mat3:
        return Mat3([[-v for v in row] for row in self.rows])

    def scale(self, s) -> Mat3:
        s = _q(s)
        return Mat3([[s * v for v in row] for row in self.rows])

    def apply(self, v: CVec3) -> CVec3:
        r = self.rows
        return (
            r[0][0] * v[0] + r[0][1] * v[1] + r[0][2] * v[2],
            r[1][0] * v[0] + r[1][1] * v[1] + r[1][2] * v[2],
            r[2][0] * v[0] + r[2][1] * v[1] + r[2][2] * v[2],
        )

    def det(self) -> QNum:
        r = self.rows
        return (
            r[0][0] * (r[1][1] * r[2][2] - r[1][2] * r[2][1])
            - r[0][1] * (r[1][0] * r[2][2] - r[1][2] * r[2][0])
            + r[0][2] * (r[1][0] * r[2][1] - r[1][1] * r[2][0])
        )

    def trace(self) -> QNum:
        return self.rows[0][0] + self.rows[1][1] + self.rows[2][2]

    def to_complex(self) -> list[list[complex]]:
        return [[v.to_complex() for v in row] for row in self.rows]

    def to_strings(self) -> list[str]:
        """Row-major wire encoding (9 field-element strings)."""
        return [str(v) for row in self.rows for v in row]

    @classmethod
    def from_strings(cls, items: Sequence[str | int]) -> Mat3:
        """A matrix from 9 entries, flat or as 3 rows of 3.

        Each entry is a field-element string or an integer; any other entry
        (a float, None, a bool or a list) raises TypeError.
        """
        if not isinstance(items, (list, tuple)):
            raise TypeError("matrix literal must be a list")
        if len(items) == 3 and all(
            isinstance(r, (list, tuple)) and len(r) == 3 for r in items
        ):
            items = [v for row in items for v in row]  # type: ignore[union-attr]
        if len(items) != 9:
            raise ValueError("matrix literal must have 9 entries")
        vals = [_entry(v) for v in items]
        return cls([vals[0:3], vals[3:6], vals[6:9]])


def _entry(v: str | int) -> QNum:
    """One matrix-literal entry: a field-element string or an integer."""
    if isinstance(v, str):
        return QNum.parse(v)
    if type(v) is int:
        return QNum(v)
    raise TypeError(f"matrix entries must be strings or integers, got {v!r}")


def _q(v) -> QNum:
    if isinstance(v, QNum):
        return v
    if isinstance(v, (int, Fraction)):
        return QNum(v)
    raise TypeError(f"cannot interpret {v!r} as a field element")


IDENTITY3 = Mat3([[1, 0, 0], [0, 1, 0], [0, 0, 1]])


def qnum_nullspace(rows: Sequence[Sequence[QNum]], ncols: int) -> list[list[QNum]]:
    """Basis of the right kernel over the field, for an m x ncols matrix.

    Deterministic: Gaussian elimination with first-nonzero pivots; free
    variables are set to 1 in increasing column order.
    """
    work = [list(r) for r in rows]
    pivots: list[tuple[int, int]] = []
    r = 0
    for c in range(ncols):
        pr = None
        for i in range(r, len(work)):
            if work[i][c]:
                pr = i
                break
        if pr is None:
            continue
        work[r], work[pr] = work[pr], work[r]
        inv = work[r][c].inv()
        work[r] = [inv * v for v in work[r]]
        for i in range(len(work)):
            if i != r and work[i][c]:
                f = work[i][c]
                work[i] = [work[i][j] - f * work[r][j] for j in range(ncols)]
        pivots.append((r, c))
        r += 1
    pivot_cols = {c for _, c in pivots}
    basis: list[list[QNum]] = []
    for free in range(ncols):
        if free in pivot_cols:
            continue
        vec = [ZERO] * ncols
        vec[free] = ONE
        for pr, pc in pivots:
            vec[pc] = -work[pr][free]
        basis.append(vec)
    return basis


def kernel_K(rows: Sequence[Sequence[QNum]] | Mat3) -> list[CVec3]:
    """Basis of the right kernel over the field, for an m x 3 matrix."""
    if isinstance(rows, Mat3):
        work = [list(r) for r in rows.rows]
    else:
        work = [list(r) for r in rows]
    return [(v[0], v[1], v[2]) for v in qnum_nullspace(work, 3)]


# --- the eps basis of the invariant lattice ---------------------------------

E1: CVec3 = vec3(0, ALPHA, ALPHA)
E2: CVec3 = vec3(0, 0, 2)
E3: CVec3 = vec3(1, 1, ALPHA_BAR)

EPS_VECTORS: tuple[CVec3, ...] = (
    vscale(ALPHA, E1),
    vscale(ALPHA, E2),
    vscale(ALPHA, E3),
    vscale(ALPHA_BAR, E1),
    vscale(ALPHA_BAR, E2),
    vscale(ALPHA_BAR, E3),
)


def _chart_numerators(v: CVec3) -> tuple[list[int], int]:
    """Integer chart (a1, b1, a2, b2, a3, b3) of a field vector over one denominator.

    The rational chart (x1, y1, x2, y2, x3, y3) is these numerators over den.
    """
    den = lcm(v[0].d, v[1].d, v[2].d)
    out: list[int] = []
    for q in v:
        s = den // q.d
        out.append(q.a * s)
        out.append(q.b * s)
    return out, den


def _rat_identity(n: int) -> RatMat:
    return [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]


def _int_mat_mul(a: IntMat, b: IntMat) -> IntMat:
    cols = list(zip(*b))
    return [[sum(map(mul, row, col)) for col in cols] for row in a]


def rat_inverse(a: RatMat) -> RatMat:
    n = len(a)
    work = [list(map(Fraction, row)) + ident_row for row, ident_row in zip(a, _rat_identity(n))]
    for c in range(n):
        pr = next((i for i in range(c, n) if work[i][c]), None)
        if pr is None:
            raise ValueError("matrix is singular")
        work[c], work[pr] = work[pr], work[c]
        piv = work[c][c]
        work[c] = [v / piv for v in work[c]]
        for i in range(n):
            if i != c and work[i][c]:
                f = work[i][c]
                work[i] = [work[i][j] - f * work[c][j] for j in range(2 * n)]
    return [row[n:] for row in work]


def _scaled_inverse(a: IntMat) -> tuple[IntMat, int]:
    """(N, den) with a^-1 = N / den and N an integer matrix."""
    inv = rat_inverse([[Fraction(x) for x in row] for row in a])
    den = lcm(*(v.denominator for row in inv for v in row))
    return [[int(v * den) for v in row] for row in inv], den


# chart(eps_1) .. chart(eps_6) as columns: integral, as the eps vectors lie in Z[w]^3
_EPS_CHARTS = [_chart_numerators(e) for e in EPS_VECTORS]
assert all(den == 1 for _, den in _EPS_CHARTS)
_FORWARD: IntMat = [list(col) for col in zip(*(nums for nums, _ in _EPS_CHARTS))]
# the inverse basis change is _INVERSE_NUM / _INVERSE_DEN, with _INVERSE_DEN = 2
_INVERSE_NUM, _INVERSE_DEN = _scaled_inverse(_FORWARD)
_INVERSE_EVEN_COLS = list(zip(*_INVERSE_NUM))[::2]


def to_eps_coords(v: CVec3) -> tuple[Fraction, ...]:
    """Coordinates of a field vector in the eps basis of the lattice."""
    nums, den = _chart_numerators(v)
    den *= _INVERSE_DEN
    return tuple(Fraction(sum(map(mul, row, nums)), den) for row in _INVERSE_NUM)


def from_eps_coords(c: Sequence[Fraction]) -> CVec3:
    if len(c) != 6:
        raise ValueError("eps coordinates must have length 6")
    c = [Fraction(x) for x in c]
    den = lcm(*(x.denominator for x in c))
    nums = [x.numerator * (den // x.denominator) for x in c]
    w = [sum(map(mul, row, nums)) for row in _FORWARD]
    return (
        QNum.from_ints(w[0], w[1], den),
        QNum.from_ints(w[2], w[3], den),
        QNum.from_ints(w[4], w[5], den),
    )


def mat3_to_int6(m: Mat3) -> tuple[tuple[int, ...], ...]:
    """The 6x6 integer matrix of m in the eps basis.

    Raises NonIntegralError when m does not preserve the lattice.
    """
    # 6x6 chart matrix over one denominator: 2x2 multiplication blocks per entry
    den = lcm(*(q.d for row in m.rows for q in row))
    cm: IntMat = [[0] * 6 for _ in range(6)]
    for i in range(3):
        for j in range(3):
            q = m.rows[i][j]
            s = den // q.d
            a, b = q.a * s, q.b * s
            cm[2 * i][2 * j] = a
            cm[2 * i][2 * j + 1] = -2 * b
            cm[2 * i + 1][2 * j] = b
            cm[2 * i + 1][2 * j + 1] = a + b
    res = _int_mat_mul(_INVERSE_NUM, _int_mat_mul(cm, _FORWARD))
    den *= _INVERSE_DEN
    out: list[tuple[int, ...]] = []
    for i, row in enumerate(res):
        ints = []
        for j, v in enumerate(row):
            if v % den:
                raise NonIntegralError(i, j, Fraction(v, den))
            ints.append(v // den)
        out.append(tuple(ints))
    return tuple(out)


def int6_to_mat3(a: Sequence[Sequence[int]]) -> Mat3:
    """The Mat3 whose eps-basis matrix is a: the inverse of mat3_to_int6.

    a must be the matrix of a Q(w)-linear map.  The chart matrix is
    _FORWARD . a . _INVERSE_NUM / 2; entry (i, j) is read off column 2j of
    its (i, j) 2x2 multiplication block, so only columns 0, 2 and 4 are formed.
    """
    a_cols = [[sum(map(mul, row, col)) for row in a] for col in _INVERSE_EVEN_COLS]
    cm = [[sum(map(mul, row, col)) for col in a_cols] for row in _FORWARD]
    return Mat3(
        [
            [QNum.from_ints(cm[2 * i][j], cm[2 * i + 1][j], _INVERSE_DEN) for j in range(3)]
            for i in range(3)
        ]
    )


# --- integer normal forms ----------------------------------------------------


def int_det(a: Sequence[Sequence[int]]) -> int:
    """Exact determinant by fraction-free Bareiss elimination."""
    n = len(a)
    m = [list(map(int, row)) for row in a]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if m[i][k]), None)
            if swap is None:
                return 0
            m[k], m[swap] = m[swap], m[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
            m[i][k] = 0
        prev = m[k][k]
    return sign * m[n - 1][n - 1]


def _identity(n: int) -> IntMat:
    return [[int(i == j) for j in range(n)] for i in range(n)]


def smith_normal_form(
    a: Sequence[Sequence[int]],
) -> tuple[IntMat, IntMat, IntMat]:
    """Smith normal form: returns (U, D, V) with U a V = D.

    U and V are unimodular, D is diagonal with nonnegative entries and
    d_i | d_{i+1}.  Elementary operations with smallest-entry pivoting;
    fine for the small matrices this project needs.
    """
    d = [list(map(int, row)) for row in a]
    m = len(d)
    n = len(d[0]) if m else 0
    u = _identity(m)
    v = _identity(n)

    def row_op(i, j, q):  # row_i -= q * row_j
        d[i] = [x - q * y for x, y in zip(d[i], d[j])]
        u[i] = [x - q * y for x, y in zip(u[i], u[j])]

    def col_op(i, j, q):  # col_i -= q * col_j
        for row in d:
            row[i] -= q * row[j]
        for row in v:
            row[i] -= q * row[j]

    def swap_rows(i, j):
        d[i], d[j] = d[j], d[i]
        u[i], u[j] = u[j], u[i]

    def swap_cols(i, j):
        for row in d:
            row[i], row[j] = row[j], row[i]
        for row in v:
            row[i], row[j] = row[j], row[i]

    t = 0
    while t < min(m, n):
        # smallest nonzero entry of the trailing block as pivot
        best = None
        for i in range(t, m):
            for j in range(t, n):
                if d[i][j] and (best is None or abs(d[i][j]) < abs(d[best[0]][best[1]])):
                    best = (i, j)
        if best is None:
            break
        swap_rows(t, best[0])
        swap_cols(t, best[1])
        while True:
            # clear column t
            dirty = False
            for i in range(t + 1, m):
                if d[i][t]:
                    q = d[i][t] // d[t][t]
                    row_op(i, t, q)
                    if d[i][t]:
                        swap_rows(t, i)
                        dirty = True
            if dirty:
                continue
            # clear row t
            for j in range(t + 1, n):
                if d[t][j]:
                    q = d[t][j] // d[t][t]
                    col_op(j, t, q)
                    if d[t][j]:
                        swap_cols(t, j)
                        dirty = True
            if dirty:
                continue
            # enforce divisibility of the trailing block by the pivot
            offender = None
            for i in range(t + 1, m):
                for j in range(t + 1, n):
                    if d[i][j] % d[t][t]:
                        offender = i
                        break
                if offender is not None:
                    break
            if offender is None:
                break
            row_op(t, offender, -1)
        t += 1
    for i in range(min(m, n)):
        if d[i][i] < 0:
            d[i] = [-x for x in d[i]]
            u[i] = [-x for x in u[i]]
    return u, d, v


def hnf_rows(rows: Iterable[Sequence[int]]) -> list[list[int]]:
    """Canonical Hermite normal form basis of the row lattice.

    Pivots are positive and entries above each pivot are reduced into
    [0, pivot); zero rows are dropped.  The result is the unique canonical
    basis, so lattice equality is list equality.
    """
    work = [list(map(int, r)) for r in rows if any(r)]
    if not work:
        return []
    n = len(work[0])
    r = 0
    for c in range(n):
        # gcd elimination in column c among rows >= r
        while True:
            live = [i for i in range(r, len(work)) if work[i][c]]
            if len(live) <= 1:
                break
            live.sort(key=lambda i: abs(work[i][c]))
            p = live[0]
            for i in live[1:]:
                q = work[i][c] // work[p][c]
                work[i] = [x - q * y for x, y in zip(work[i], work[p])]
        live = [i for i in range(r, len(work)) if work[i][c]]
        if not live:
            continue
        p = live[0]
        work[r], work[p] = work[p], work[r]
        if work[r][c] < 0:
            work[r] = [-x for x in work[r]]
        for i in range(r):
            q = work[i][c] // work[r][c]
            if q:
                work[i] = [x - q * y for x, y in zip(work[i], work[r])]
        r += 1
    return [row for row in work[:r]]


def hnf_contains(basis: Sequence[Sequence[int]], vec: Sequence[int]) -> bool:
    """Membership of an integer vector in the row lattice given by its HNF."""
    v = list(map(int, vec))
    for row in basis:
        c = next((j for j, x in enumerate(row) if x), None)
        if c is None:
            continue
        if v[c] % row[c]:
            return False
        q = v[c] // row[c]
        if q:
            v = [x - q * y for x, y in zip(v, row)]
    return not any(v)
