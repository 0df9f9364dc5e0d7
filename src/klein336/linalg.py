"""Exact linear algebra over Q(w) and Z.

Three layers live here:

* ``Mat3`` -- 3x3 matrices over the field, with exact determinant and product;
* integer normal forms: Hermite (canonical lattice bases, membership) and
  Smith (diagonalization with unimodular transforms);
* the basis change between C^3 (as a 6-dimensional rational space in the
  coefficient chart) and the standard Z-basis eps_1..eps_6 of the invariant
  lattice.

The rational chart of C^3 is the componentwise (x, y) coefficient pair of
each field entry, so the whole basis change is a single exact 6x6 matrix and
its inverse.  The forward matrix is integral and its inverse, read off its
Smith normal form, is an integer matrix over 2, so both directions work on
integer numerators over one common denominator.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from operator import mul
from typing import Iterable, Sequence

from .qfield import ALPHA, ALPHA_BAR, CVec3, ONE, QNum, ZERO, _as_qnum, vec3, vscale

IntMat = list[list[int]]


class NonIntegralError(ValueError):
    """A matrix expected to preserve the lattice produced a non-integer entry."""

    def __init__(self, row: int, col: int, value: Fraction) -> None:
        # the value stays out of the message: str() fails past 4300 digits
        super().__init__(f"lattice image has non-integer eps-coordinate at ({row}, {col})")
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
            tuple(tuple(_as_qnum(v) for v in row) for row in rows),
        )

    def __setattr__(self, name, value):
        raise AttributeError("Mat3 is immutable")

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

    def __sub__(self, other: Mat3) -> Mat3:
        return Mat3(
            [[self.rows[i][j] - other.rows[i][j] for j in range(3)] for i in range(3)]
        )

    def scale(self, s) -> Mat3:
        s = _as_qnum(s)
        return Mat3([[s * v for v in row] for row in self.rows])

    def det(self) -> QNum:
        r = self.rows
        return (
            r[0][0] * (r[1][1] * r[2][2] - r[1][2] * r[2][1])
            - r[0][1] * (r[1][0] * r[2][2] - r[1][2] * r[2][0])
            + r[0][2] * (r[1][0] * r[2][1] - r[1][1] * r[2][0])
        )

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


# --- integer normal forms ----------------------------------------------------


def int_mat_mul(a: IntMat, b: IntMat) -> IntMat:
    """The product a b of two integer matrices, in Python integers."""
    cols = list(zip(*b))
    return [[sum(map(mul, row, col)) for col in cols] for row in a]


def int_det(a: Sequence[Sequence[int]]) -> int:
    """Exact determinant of a square matrix; 1 for the empty matrix.

    Closed forms for n <= 2, fraction-free Bareiss elimination above.
    Raises ValueError for a matrix that is not square.
    """
    n = len(a)
    for row in a:
        if len(row) != n:
            raise ValueError(f"int_det needs a square matrix, got row widths {[len(r) for r in a]}")
    if n <= 2:
        if n == 2:
            (p, q), (r, s) = a
            return int(p) * int(s) - int(q) * int(r)
        return int(a[0][0]) if n else 1
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
        pivot = m[k]
        p = pivot[k]
        for row in m[k + 1 :]:  # column k of these rows is not read again
            x = row[k]
            for j in range(k + 1, n):
                row[j] = (row[j] * p - x * pivot[j]) // prev
        prev = p
    return sign * m[n - 1][n - 1]


def _identity(n: int) -> IntMat:
    out = [[0] * n for _ in range(n)]
    for i in range(n):
        out[i][i] = 1
    return out


def smith_normal_form(
    a: Sequence[Sequence[int]],
) -> tuple[IntMat, IntMat, IntMat]:
    """Smith normal form: returns (U, D, V) with U a V = D.

    U and V are unimodular, D is diagonal with nonnegative entries and
    d_i | d_{i+1}.  Elementary operations with smallest-entry pivoting:
    the pivot is the first entry of least absolute value in the trailing
    block, in row-major order, so the scan stops at the first entry of
    absolute value 1; a pivot of +-1 divides every entry, so the
    divisibility fix-up is skipped for it.  Fine for the small matrices
    this project needs.
    """
    d = [list(map(int, row)) for row in a]
    m = len(d)
    n = len(d[0]) if m else 0
    u = _identity(m)
    v = _identity(n)
    for t in range(min(m, n)):
        # the first nonzero entry of least absolute value in the trailing block
        best, least = None, 0
        for i in range(t, m):
            row = d[i]
            for j in range(t, n):
                x = row[j]
                if x and (best is None or abs(x) < least):
                    best, least = (i, j), abs(x)
                    if least == 1:
                        break
            if least == 1:
                break
        if best is None:
            break
        bi, bj = best
        d[t], d[bi] = d[bi], d[t]
        u[t], u[bi] = u[bi], u[t]
        if bj != t:
            for row in d:
                row[t], row[bj] = row[bj], row[t]
            for row in v:
                row[t], row[bj] = row[bj], row[t]
        while True:
            # clear column t: row_i -= q row_t, swapping in a nonzero remainder
            dirty = False
            for i in range(t + 1, m):
                if d[i][t]:
                    q = d[i][t] // d[t][t]
                    if q:
                        d[i] = [x - q * y for x, y in zip(d[i], d[t])]
                        u[i] = [x - q * y for x, y in zip(u[i], u[t])]
                    if d[i][t]:
                        d[t], d[i] = d[i], d[t]
                        u[t], u[i] = u[i], u[t]
                        dirty = True
            if dirty:
                continue
            # clear row t: col_j -= q col_t, swapping in a nonzero remainder
            pivot_row = d[t]
            for j in range(t + 1, n):
                if pivot_row[j]:
                    q = pivot_row[j] // pivot_row[t]
                    if q:  # rows above t are zero in columns t and j
                        for row in d[t:]:
                            row[j] -= q * row[t]
                        for row in v:
                            row[j] -= q * row[t]
                    if pivot_row[j]:
                        for row in d[t:]:
                            row[t], row[j] = row[j], row[t]
                        for row in v:
                            row[t], row[j] = row[j], row[t]
                        dirty = True
            if dirty:
                continue
            # enforce divisibility of the trailing block by the pivot: row_t += the
            # first offending row; a pivot of +-1 divides everything
            p = d[t][t]
            if p == 1 or p == -1:
                break
            offender = next(
                (i for i in range(t + 1, m) if any(x % p for x in d[i][t + 1 :])), None
            )
            if offender is None:
                break
            d[t] = [x + y for x, y in zip(d[t], d[offender])]
            u[t] = [x + y for x, y in zip(u[t], u[offender])]
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
    """Membership of an integer vector in the row lattice given by its HNF,
    as ``hnf_rows`` returns it, with no zero row.

    Raises ValueError when a basis row and the vector differ in width.
    """
    v = list(map(int, vec))
    width = len(v)
    for row in basis:
        if len(row) != width:
            raise ValueError(f"a basis row has width {len(row)}, the vector {width}")
        c = next(j for j, x in enumerate(row) if x)
        q, r = divmod(v[c], row[c])
        if r:
            return False
        if q:
            v = [x - q * y for x, y in zip(v, row)]
    return not any(v)


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


def _integer_inverse(a: IntMat) -> tuple[IntMat, int]:
    """(N, den) with a^-1 = N / den in lowest terms, for a nonsingular integer a.

    From the Smith normal form U a V = D: a^-1 = V D^-1 U, and over the last
    diagonal entry d_n, which every d_i divides, V diag(d_n / d_i) U / d_n.
    """
    u, d, v = smith_normal_form(a)
    n = len(a)
    den = d[n - 1][n - 1]
    if not den:
        raise ValueError("matrix is singular")
    num = int_mat_mul(v, [[den // d[i][i] * x for x in u[i]] for i in range(n)])
    g = gcd(den, *(x for row in num for x in row))
    return [[x // g for x in row] for row in num], den // g


# the charts (x1, y1, x2, y2, x3, y3) of eps_1 .. eps_6 as columns: integral,
# as the eps vectors lie in Z[w]^3
assert all(q.d == 1 for e in EPS_VECTORS for q in e)
_FORWARD: IntMat = [[getattr(e[i // 2], "ab"[i % 2]) for e in EPS_VECTORS] for i in range(6)]
# the inverse basis change is _INVERSE_NUM / _INVERSE_DEN, with _INVERSE_DEN = 2
_INVERSE_NUM, _INVERSE_DEN = _integer_inverse(_FORWARD)
_INVERSE_EVEN_COLS = list(zip(*_INVERSE_NUM))[::2]


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
    res = int_mat_mul(_INVERSE_NUM, int_mat_mul(cm, _FORWARD))
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
