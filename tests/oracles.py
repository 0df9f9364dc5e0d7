"""Exact reference implementations that the fast library paths are tested against.

* ``FracQNum``: Q(w) arithmetic on a pair of ``Fraction`` coordinates
  (x, y) meaning x + y*w, the representation ``klein336.qfield.QNum`` used
  before it became a reduced integer triple;
* the rational eps chart: the basis change between C^3 and the lattice
  basis eps_1..eps_6 as ``Fraction`` matrices;
* ``FracTorusPoint``: a torsion point as six ``Fraction`` coordinates in
  [0, 1), the representation ``klein336.torus.TorusPoint`` used before it
  stored integer numerators over its order;
* torsion-point stabilizers and orbits in unbounded Python integers, with
  no numpy and hence no overflow;
* parabolic fixed loci through the orthogonal-complement torus: the
  Hermitian projector away from V_1 in field arithmetic, the restricted
  elliptic action on the complement lattice, and the coset translates;
* curve stabilizers the field-valued way: generic ones by intersecting
  the stabilizers of seeded torsion samples with prime denominators larger
  than the group order, setwise ones through the projector;
* test-only membership and group helpers: the lattice congruences, the
  reflection formula and centralizer sizes; the saturated integer kernel and
  lattice index that the complement-torus path uses.
"""

from __future__ import annotations

import itertools
import random
import re
from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from operator import mul
from typing import Sequence

import numpy as np

from klein336.linalg import (
    EPS_VECTORS,
    IDENTITY3,
    Mat3,
    NonIntegralError,
    hnf_contains,
    hnf_rows,
    int_det,
    kernel_K,
    rat_inverse,
    smith_normal_form,
)
from klein336.qfield import ALPHA, ALPHA_BAR, CVec3, QNum, hermitian, vec3
from klein336.torus import TorusPoint, apply_element

_W_COMPLEX = complex(0.5, 7 ** 0.5 / 2)


def _frac_str(f: Fraction) -> str:
    if f.denominator == 1:
        return str(f.numerator)
    return f"{f.numerator}/{f.denominator}"


class FracQNum:
    """x + y*w with Fraction coordinates; the reference for QNum."""

    __slots__ = ("x", "y")

    def __init__(self, x=0, y=0) -> None:
        object.__setattr__(self, "x", Fraction(x))
        object.__setattr__(self, "y", Fraction(y))

    def __setattr__(self, name, value):
        raise AttributeError("FracQNum is immutable")

    def __repr__(self) -> str:
        return f"QNum({self.x!r}, {self.y!r})"

    def __str__(self) -> str:
        if self.y == 0:
            return _frac_str(self.x)
        wpart = "w" if abs(self.y) == 1 else f"{_frac_str(abs(self.y))}*w"
        if self.x == 0:
            return wpart if self.y > 0 else f"-{wpart}"
        sign = "+" if self.y > 0 else "-"
        return f"{_frac_str(self.x)}{sign}{wpart}"

    def __eq__(self, other) -> bool:
        if isinstance(other, FracQNum):
            return self.x == other.x and self.y == other.y
        if isinstance(other, (int, Fraction)):
            return self.y == 0 and self.x == other
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.x, self.y))

    def __bool__(self) -> bool:
        return self.x != 0 or self.y != 0

    def __add__(self, other) -> FracQNum:
        other = _coerce(other)
        return FracQNum(self.x + other.x, self.y + other.y)

    __radd__ = __add__

    def __sub__(self, other) -> FracQNum:
        other = _coerce(other)
        return FracQNum(self.x - other.x, self.y - other.y)

    def __rsub__(self, other) -> FracQNum:
        return _coerce(other) - self

    def __neg__(self) -> FracQNum:
        return FracQNum(-self.x, -self.y)

    def __mul__(self, other) -> FracQNum:
        other = _coerce(other)
        # (x1 + y1 w)(x2 + y2 w) with w^2 = w - 2
        return FracQNum(
            self.x * other.x - 2 * self.y * other.y,
            self.x * other.y + self.y * other.x + self.y * other.y,
        )

    __rmul__ = __mul__

    def __truediv__(self, other) -> FracQNum:
        return self * _coerce(other).inv()

    def __rtruediv__(self, other) -> FracQNum:
        return _coerce(other) * self.inv()

    def conj(self) -> FracQNum:
        return FracQNum(self.x + self.y, -self.y)

    def norm(self) -> Fraction:
        return self.x * self.x + self.x * self.y + 2 * self.y * self.y

    def inv(self) -> FracQNum:
        n = self.norm()
        if n == 0:
            raise ZeroDivisionError("inverse of zero in Q(w)")
        c = self.conj()
        return FracQNum(c.x / n, c.y / n)

    def is_rational(self) -> bool:
        return self.y == 0

    def is_integral(self) -> bool:
        return self.x.denominator == 1 and self.y.denominator == 1

    def to_complex(self) -> complex:
        return float(self.x) + float(self.y) * _W_COMPLEX

    @classmethod
    def parse(cls, text: str) -> FracQNum:
        s = text.strip().replace(" ", "")
        if not s:
            raise ValueError("empty QNum literal")
        x = Fraction(0)
        y = Fraction(0)
        for term in re.findall(r"[+-]?[^+-]+", s):
            if term in ("w", "+w"):
                y += 1
            elif term == "-w":
                y -= 1
            elif term.endswith("*w"):
                y += Fraction(term[:-2])
            else:
                x += Fraction(term)
        return cls(x, y)


def _coerce(value) -> FracQNum:
    if isinstance(value, FracQNum):
        return value
    return FracQNum(value)


# --- the rational eps chart ---------------------------------------------------

RatMat = list[list[Fraction]]


def chart(v: Sequence) -> list[Fraction]:
    """Rational coordinates (x1, y1, x2, y2, x3, y3) of a field vector."""
    out: list[Fraction] = []
    for q in v:
        out.append(Fraction(q.x))
        out.append(Fraction(q.y))
    return out


def rat_mat_mul(a: RatMat, b: RatMat) -> RatMat:
    n, k, m = len(a), len(b), len(b[0])
    return [
        [sum((a[i][t] * b[t][j] for t in range(k)), Fraction(0)) for j in range(m)]
        for i in range(n)
    ]


def rat_mat_vec(a: RatMat, v: Sequence[Fraction]) -> list[Fraction]:
    return [sum((row[j] * v[j] for j in range(len(v))), Fraction(0)) for row in a]


FORWARD: RatMat = [[chart(eps)[i] for eps in EPS_VECTORS] for i in range(6)]
INVERSE: RatMat = rat_inverse(FORWARD)


def to_eps_coords(v: Sequence) -> tuple[Fraction, ...]:
    return tuple(rat_mat_vec(INVERSE, chart(v)))


def from_eps_coords(c: Sequence) -> tuple[QNum, QNum, QNum]:
    x = rat_mat_vec(FORWARD, [Fraction(t) for t in c])
    return (QNum(x[0], x[1]), QNum(x[2], x[3]), QNum(x[4], x[5]))


def mat3_to_int6(rows: Sequence[Sequence]) -> tuple[tuple[int, ...], ...]:
    """The eps-basis matrix of a 3x3 field matrix given by its rows of x + y*w values."""
    cm: RatMat = [[Fraction(0)] * 6 for _ in range(6)]
    for i in range(3):
        for j in range(3):
            a = rows[i][j]
            x, y = Fraction(a.x), Fraction(a.y)
            cm[2 * i][2 * j] = x
            cm[2 * i][2 * j + 1] = -2 * y
            cm[2 * i + 1][2 * j] = y
            cm[2 * i + 1][2 * j + 1] = x + y
    res = rat_mat_mul(INVERSE, rat_mat_mul(cm, FORWARD))
    out = []
    for i, row in enumerate(res):
        for j, v in enumerate(row):
            if v.denominator != 1:
                raise NonIntegralError(i, j, v)
        out.append(tuple(int(v) for v in row))
    return tuple(out)


# --- torsion points in unbounded integers ---------------------------------------


def _numerators(coords: Sequence[Fraction]) -> tuple[list[int], int]:
    den = lcm(*(Fraction(c).denominator for c in coords))
    return [int(Fraction(c) * den) for c in coords], den


def exact_stabilizer(int6s: Sequence, coords: Sequence[Fraction]) -> frozenset[int]:
    """Elements g with (g - 1) x in Z^6, tested on x's numerators in Python ints."""
    nums, den = _numerators(coords)
    out = []
    for g, m in enumerate(int6s):
        if all((sum(a * n for a, n in zip(row, nums)) - nums[i]) % den == 0
               for i, row in enumerate(m)):
            out.append(g)
    return frozenset(out)


def exact_orbit(int6s: Sequence, coords: Sequence[Fraction]) -> set[tuple[Fraction, ...]]:
    """The canonical coordinates in [0, 1) of every image g x."""
    nums, den = _numerators(coords)
    return {
        tuple(Fraction(sum(a * n for a, n in zip(row, nums)) % den, den) for row in m)
        for m in int6s
    }


# --- torsion points as Fraction tuples ------------------------------------------


class FracTorusPoint:
    """Six Fraction coordinates reduced to [0, 1); the reference for TorusPoint."""

    __slots__ = ("coords",)

    def __init__(self, coords: Sequence) -> None:
        if len(coords) != 6:
            raise ValueError("torus points have 6 eps coordinates")
        object.__setattr__(self, "coords", tuple(Fraction(c) % 1 for c in coords))

    def __setattr__(self, name, value):
        raise AttributeError("FracTorusPoint is immutable")

    def __eq__(self, other: object) -> bool:
        if isinstance(other, FracTorusPoint):
            return self.coords == other.coords
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self.coords)

    def __lt__(self, other: FracTorusPoint) -> bool:
        return self.coords < other.coords

    def __add__(self, other: FracTorusPoint) -> FracTorusPoint:
        return FracTorusPoint([a + b for a, b in zip(self.coords, other.coords)])

    def __sub__(self, other: FracTorusPoint) -> FracTorusPoint:
        return FracTorusPoint([a - b for a, b in zip(self.coords, other.coords)])

    def __neg__(self) -> FracTorusPoint:
        return FracTorusPoint([-a for a in self.coords])

    def __mul__(self, k: int) -> FracTorusPoint:
        return FracTorusPoint([k * a for a in self.coords])

    __rmul__ = __mul__

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coords)

    def order(self) -> int:
        return lcm(*(c.denominator for c in self.coords))

    def __str__(self) -> str:
        return "[" + ",".join(_frac_str(c) for c in self.coords) + "]"

    @classmethod
    def parse(cls, text: str) -> FracTorusPoint:
        s = text.strip()
        if not (s.startswith("[") and s.endswith("]")):
            raise ValueError(f"torus point literal must be bracketed: {text!r}")
        parts = s[1:-1].split(",")
        if len(parts) != 6:
            raise ValueError("torus point literal must have 6 coordinates")
        return cls([Fraction(p.strip()) for p in parts])


def frac_apply_element(int6: Sequence[Sequence[int]], p: FracTorusPoint) -> FracTorusPoint:
    return FracTorusPoint([sum(int6[i][j] * p.coords[j] for j in range(6)) for i in range(6)])


# --- lattice congruences, the reflection formula, centralizers -------------------


def _o_divides(d: QNum, w: QNum) -> bool:
    q = w * d.conj()
    n = d.norm()
    return (q.x / n).denominator == 1 and (q.y / n).denominator == 1


def lattice_contains_congruence(v: CVec3) -> bool:
    """Membership in the lattice straight from its defining congruences."""
    if not all(q.is_integral() for q in v):
        return False
    if not _o_divides(ALPHA, v[0] - v[1]) or not _o_divides(ALPHA, v[1] - v[2]):
        return False
    return _o_divides(ALPHA_BAR, v[0] + v[1] + v[2])


def reflection_matrix(e: CVec3) -> Mat3:
    """Unitary reflection x -> x - (e, x) e in a root of square 2."""
    if hermitian(e, e) != QNum(2):
        raise ValueError("reflection roots must have square 2")
    cols = []
    for b in (vec3(1, 0, 0), vec3(0, 1, 0), vec3(0, 0, 1)):
        coeff = hermitian(e, b)
        cols.append([bi - coeff * ei for bi, ei in zip(b, e)])
    return Mat3([[cols[j][i] for j in range(3)] for i in range(3)])


def centralizer_size(table, x: int, subset: Sequence[int]) -> int:
    """How many elements of the subset commute with x."""
    arr = np.asarray(subset, dtype=np.int64)
    return int(np.count_nonzero(table.mul[arr, x] == table.mul[x, arr]))


# --- parabolic fixed loci through the complement torus ----------------------------


def int_kernel(a: Sequence[Sequence[int]]) -> list[list[int]]:
    """Basis of the integer kernel {x : a x = 0}; primitive (saturated)."""
    m = len(a)
    n = len(a[0]) if m else 0
    _, d, v = smith_normal_form(a)
    out = []
    for j in range(n):
        dj = d[j][j] if j < min(m, n) else 0
        if dj == 0:
            out.append([v[i][j] for i in range(n)])
    return out


def lattice_index(basis_rows: Sequence[Sequence[int]]) -> int:
    """Index in Z^n of the full-rank row lattice; 0 when rank-deficient."""
    h = hnf_rows(basis_rows)
    n = len(basis_rows[0])
    if len(h) < n:
        return 0
    det = 1
    for i, row in enumerate(h):
        det *= row[i] if row[i] else 0
    return abs(det)



def rat_solve(a: RatMat, b: Sequence[Fraction]) -> list[Fraction] | None:
    """Solve a x = b exactly; None when inconsistent; a must have full column rank."""
    m, n = len(a), len(a[0])
    work = [list(map(Fraction, row)) + [Fraction(b[i])] for i, row in enumerate(a)]
    pivots: list[tuple[int, int]] = []
    r = 0
    for c in range(n):
        pr = next((i for i in range(r, m) if work[i][c]), None)
        if pr is None:
            continue
        work[r], work[pr] = work[pr], work[r]
        piv = work[r][c]
        work[r] = [v / piv for v in work[r]]
        for i in range(m):
            if i != r and work[i][c]:
                f = work[i][c]
                work[i] = [work[i][j] - f * work[r][j] for j in range(n + 1)]
        pivots.append((r, c))
        r += 1
    if len(pivots) < n:
        raise ValueError("coefficient matrix does not have full column rank")
    for i in range(r, m):
        if work[i][n]:
            return None
    sol = [Fraction(0)] * n
    for pr, pc in pivots:
        sol[pc] = work[pr][n]
    return sol


def _qnum_solve(gram: list[list[QNum]], rhs: list[QNum]) -> list[QNum]:
    """Solve a 1x1 or 2x2 field-valued linear system (positive-definite Gram)."""
    if len(gram) == 1:
        return [rhs[0] * gram[0][0].inv()]
    det = gram[0][0] * gram[1][1] - gram[0][1] * gram[1][0]
    inv = det.inv()
    c0 = (rhs[0] * gram[1][1] - gram[0][1] * rhs[1]) * inv
    c1 = (gram[0][0] * rhs[1] - rhs[0] * gram[1][0]) * inv
    return [c0, c1]


_EPS_CVECS = [from_eps_coords([int(i == j) for i in range(6)]) for j in range(6)]


class AxisProjector:
    """Hermitian-orthogonal projection away from V_1, with its lattice image."""

    def __init__(self, v1_basis: list[CVec3]) -> None:
        self.basis = v1_basis
        self.gram = [[hermitian(b, c) for c in v1_basis] for b in v1_basis]
        rows = [self.project_eps(eps) for eps in _EPS_CVECS]
        self.den = lcm(*(x.denominator for row in rows for x in row))
        self.lattice = hnf_rows([[int(x * self.den) for x in row] for row in rows])

    def project_eps(self, v: CVec3) -> tuple[Fraction, ...]:
        rhs = [hermitian(b, v) for b in self.basis]
        coeffs = _qnum_solve(self.gram, rhs)
        res = list(v)
        for c, b in zip(coeffs, self.basis):
            res = [res[i] - c * b[i] for i in range(3)]
        return to_eps_coords(res)

    def in_v1_plus_lattice(self, eps_coords: Sequence[Fraction]) -> bool:
        proj = self.project_eps(from_eps_coords(list(eps_coords)))
        scaled = [x * self.den for x in proj]
        if any(y.denominator != 1 for y in scaled):
            return False
        return hnf_contains(self.lattice, [int(y) for y in scaled])


@dataclass
class ComplementLocus:
    v1_basis: list[CVec3]
    lambda1_rows: list[list[int]]
    translates: list[TorusPoint]
    component_count: int
    restricted_fixed_count: int
    lattice_sum_index: int  # [Lambda : Lambda_1 + Lambda_a]
    projector: AxisProjector


def complement_fixed_locus(table, gi: int) -> ComplementLocus:
    """Components of a parabolic element's fixed locus, the field-valued way.

    Computes V_1 = ker(gamma - id), its lattice, the orthogonal complement
    torus with the restricted elliptic action, and counts which restricted
    fixed points fall into V_1 + Lambda; each component's translate is the
    smallest restricted fixed point in its coset.
    """
    el = table.elements[gi]
    m = el.int6
    shifted = [[m[i][j] - int(i == j) for j in range(6)] for i in range(6)]
    v1_basis = kernel_K(el.mat - IDENTITY3)
    lambda1 = hnf_rows(int_kernel(shifted))
    assert len(lambda1) == 2 * len(v1_basis)

    # orthogonal complement and its lattice
    pairing_rows = []
    for b in v1_basis:
        vals = [hermitian(b, eps) for eps in _EPS_CVECS]
        row_x, row_y = [v.x for v in vals], [v.y for v in vals]
        den = lcm(*(x.denominator for x in row_x + row_y))
        pairing_rows.append([int(x * den) for x in row_x])
        pairing_rows.append([int(x * den) for x in row_y])
    lambda_a = int_kernel(pairing_rows)
    rank_a = len(lambda_a)
    assert rank_a == 6 - len(lambda1)

    # restriction of gamma to the complement lattice: int6 B = B C
    bmat = [[lambda_a[k][i] for k in range(rank_a)] for i in range(6)]
    bmat_frac = [[Fraction(x) for x in row] for row in bmat]
    c_mat = [[0] * rank_a for _ in range(rank_a)]
    for k in range(rank_a):
        col = [Fraction(sum(m[i][j] * bmat[j][k] for j in range(6))) for i in range(6)]
        sol = rat_solve(bmat_frac, col)
        assert sol is not None and all(x.denominator == 1 for x in sol)
        for t in range(rank_a):
            c_mat[t][k] = int(sol[t])
    c_shift = [[c_mat[i][j] - int(i == j) for j in range(rank_a)] for i in range(rank_a)]
    det_a = abs(int_det(c_shift))
    assert det_a != 0
    _, d, v = smith_normal_form(c_shift)
    diag = [d[i][i] for i in range(rank_a)]
    projector = AxisProjector(v1_basis)

    # restricted fixed points y = V k / d as integer numerators over lcm(d)
    den = lcm(*diag)
    v_scaled = [[v[i][j] * (den // diag[j]) for j in range(rank_a)] for i in range(rank_a)]
    seen: dict[tuple[int, ...], tuple[TorusPoint, bool]] = {}
    for combo in itertools.product(*(range(di) for di in diag)):
        yv = [sum(map(mul, row, combo)) for row in v_scaled]
        w = TorusPoint([Fraction(sum(map(mul, row, yv)), den) for row in bmat])
        seen[tuple(x % den for x in yv)] = (w, projector.in_v1_plus_lattice(w.coords))
    assert len(seen) == det_a
    members = {y for y, (_, flag) in seen.items() if flag}
    assert members and det_a % len(members) == 0

    # coset decomposition of the restricted fixed group by the member subgroup
    def y_sub(a, b):
        return tuple((x - y) % den for x, y in zip(a, b))

    cosets: list[list[tuple]] = []
    assigned: set[tuple] = set()
    for y in sorted(seen):
        if y in assigned:
            continue
        coset = [z for z in seen if y_sub(z, y) in members]
        cosets.append(coset)
        assigned.update(coset)
    assert len(cosets) == det_a // len(members)
    return ComplementLocus(
        v1_basis=v1_basis,
        lambda1_rows=lambda1,
        translates=sorted(min(seen[z][0] for z in coset) for coset in cosets),
        component_count=len(cosets),
        restricted_fixed_count=det_a,
        lattice_sum_index=lattice_index(lambda1 + lambda_a),
        projector=projector,
    )


# --- curve stabilizers the field-valued way ---------------------------------------

GENERIC_PRIMES = (349, 353, 359, 367, 373)


def sampled_curve_stabilizer(
    table, translate: TorusPoint, direction_rows, quotient: str = "G", seed: int = 0,
    samples: int = 3,
) -> frozenset[int]:
    """Stabilizer of a generic point of translate + span(directions), by sampling.

    Torsion samples with distinct prime denominators > group order are
    intersected; degeneracy can only enlarge a sample stabilizer, so the
    intersection never drops below the generic one.
    """
    rng = random.Random(seed)
    int6s = [el.int6 for el in table.elements]
    allowed = frozenset(table.subset_indices(quotient))
    result = allowed
    for p in GENERIC_PRIMES[:samples]:
        coords = list(translate.coords)
        for row in direction_rows:
            c = Fraction(rng.randrange(1, p), p)
            coords = [x + c * r for x, r in zip(coords, row)]
        result &= exact_stabilizer(int6s, coords)
    return result


def projector_setwise_stabilizer(
    table, v1_basis: list[CVec3], translate: TorusPoint, quotient: str = "H"
) -> frozenset[int]:
    """Elements mapping the curve translate + V_1 onto itself, through the projector."""
    projector = AxisProjector(v1_basis)
    members = []
    for g in table.subset_indices(quotient):
        el = table.elements[g]
        if any(any(projector.project_eps(el.mat.apply(b))) for b in v1_basis):
            continue
        moved = apply_element(el.int6, translate)
        if projector.in_v1_plus_lattice((moved - translate).coords):
            members.append(g)
    return frozenset(members)
