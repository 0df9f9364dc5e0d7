"""Exact reference implementations that the fast library paths are tested against.

* ``FracQNum``: Q(w) arithmetic on a pair of ``Fraction`` coordinates
  (x, y) meaning x + y*w, the representation ``klein336.qfield.QNum`` used
  before it became a reduced integer triple;
* the float embedding w -> (1 + i*sqrt(7))/2 of field elements and
  matrices, which the package itself never uses;
* the rational eps chart: the basis change between C^3 and the lattice
  basis eps_1..eps_6 as ``Fraction`` matrices, the only chart from eps
  coordinates back to C^3, inverted by Gauss-Jordan elimination
  (``rat_inverse``);
* field kernels (``kernel_K``) and matrix-vector products of ``Mat3``;
* ``FracTorusPoint``: a torsion point as six ``Fraction`` coordinates in
  [0, 1), the representation ``klein336.torus.TorusPoint`` used before it
  stored integer numerators over its order;
* torsion-point stabilizers and orbits in unbounded Python integers, with
  no numpy and hence no overflow;
* the orbit as ``klein336.orbits.orbit_points`` computed it before it used
  G = H x {+-1}: every selected matrix applied, then one lexsort of all
  packed keys (``full_stack_orbit``);
* parabolic fixed loci through the orthogonal-complement torus: the
  Hermitian projector away from V_1 in field arithmetic, the restricted
  elliptic action on the complement lattice, and the coset translates;
* curve stabilizers the field-valued way: generic ones by intersecting
  the stabilizers of seeded torsion samples with prime denominators larger
  than the group order, setwise ones through the projector; and generic
  ones element by element with ``fixes_curve``;
* membership in the singular curve antireflection by antireflection: the
  off-mirror translate class of each antireflection fixing the point, found
  with ``fixes_curve`` on every reflection;
* the special loci T6, T7 and T4p by one fixed-point enumeration per
  element of the wanted order;
* test-only group helpers: the reflection formula and centralizer sizes; the saturated integer kernel and
  lattice index that the complement-torus path uses;
* the group built the field-valued way: BFS over ``Mat3`` products, field
  determinants and field kernels for the reflections; the named elements
  as ``Mat3`` products; unitarity of a ``Mat3`` and the floating-point
  value of a quartic form;
* the beta and omega registry points as vectors of C^3;
* subgroup closures by plain BFS, with no Lagrange cut-off; the subgroup
  lattice of H by fixpoint closure over all subgroups, with those closures;
  and the quartic action expanded in ``QNum`` arithmetic;
* eigenvalue exponents the floating-point way: an element's eigenvalues
  snapped to roots of unity and cross-checked against the exact trace and
  determinant (``snap_weights``), the reference for ``GroupTable.exponents``
  on every element and, through a generator, for cyclic germ weights;
* germ weights of index-2 reflection parts the field-valued way: degree
  parity for W x {+-1} with degrees from a divisor search, and the residual
  involution on the W-invariant linear and quadratic forms, solved with
  ``qnum_solve``; the subgroups of G from those of H by Goursat's lemma;
* subgroup labels by a chain of rules on element orders, -1, determinants,
  reflections and commutativity (``rule_recognize``), and reflection
  generation by plain closure (``reflection_generated``);
* the integer kernels as they were before their unit-pivot rewrite: the
  Smith normal form through four elementary-operation closures, HNF
  membership by a pivot scan, Bareiss determinants for every size; the
  roots deduplicated on ``Fraction`` keys; and AC14's matrix and field draws.
"""

from __future__ import annotations

import cmath
import itertools
import random
import re
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from operator import mul
from typing import Sequence

import numpy as np

from klein336 import linalg
from klein336.group import R1, R2, R3, SubgroupClass, UnrecognizedSubgroupError
from klein336.linalg import (
    EPS_VECTORS,
    IDENTITY3,
    Mat3,
    NonIntegralError,
    hnf_contains,
    hnf_rows,
    int_det,
    smith_normal_form,
)
from klein336.orbits import ConsistencyError, Orbit, WeightInfo
from klein336.qfield import ALPHA, CVec3, QNum, hermitian, vec3
from klein336.quartic import QuarticForm
from klein336.torus import (
    TorusPoint,
    _moved_numerators,
    apply_element,
    enumerate_fixed_points,
    fixed_locus_structure,
)

_W_COMPLEX = complex(0.5, 7 ** 0.5 / 2)


def _frac_str(f: Fraction) -> str:
    if f.denominator == 1:
        return str(f.numerator)
    return f"{f.numerator}/{f.denominator}"


def complex_value(q: QNum) -> complex:
    """The float embedding w -> (1 + i*sqrt(7))/2 of a field element."""
    return q.a / q.d + q.b / q.d * _W_COMPLEX


def complex_matrix(m: Mat3) -> list[list[complex]]:
    return [[complex_value(v) for v in row] for row in m.rows]


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


def rat_inverse(a: RatMat) -> RatMat:
    """The inverse of a nonsingular rational matrix, by Gauss-Jordan elimination."""
    n = len(a)
    work = [
        [Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(n)]
        for i, row in enumerate(a)
    ]
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


FORWARD: RatMat = [[chart(eps)[i] for eps in EPS_VECTORS] for i in range(6)]
INVERSE: RatMat = rat_inverse(FORWARD)


def to_eps_coords(v: Sequence) -> tuple[Fraction, ...]:
    return tuple(rat_mat_vec(INVERSE, chart(v)))


def from_eps_coords(c: Sequence) -> tuple[QNum, QNum, QNum]:
    x = rat_mat_vec(FORWARD, [Fraction(t) for t in c])
    return (QNum(x[0], x[1]), QNum(x[2], x[3]), QNum(x[4], x[5]))


def kernel_K(rows: Sequence[Sequence[QNum]] | Mat3) -> list[CVec3]:
    """Basis of the right kernel over the field, for an m x 3 matrix."""
    rows = rows.rows if isinstance(rows, Mat3) else rows
    return [tuple(v) for v in linalg.qnum_nullspace(rows, 3)]


def mat_apply(m: Mat3, v: Sequence[QNum]) -> CVec3:
    """The field vector m v."""
    return tuple(sum((a * b for a, b in zip(row, v)), QNum(0)) for row in m.rows)


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


def group_ids(table, quotient: str) -> tuple[int, ...]:
    """The ids of G ("G") or of its determinant-1 subgroup H ("H"), in id order."""
    return {"G": tuple(range(table.size)), "H": table.h_indices}[quotient]


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


def full_stack_orbit(table, p: TorusPoint, quotient: str) -> Orbit:
    """The orbit from every selected matrix and one lexsort of all packed keys.

    The rows pack into keys of the widest of 6, 3, 2 and 1 base-den digits
    below 2^63 (one Python-integer key for object rows); the lexsort orders
    them and a comparison of neighbouring keys drops the repeats.
    """
    stack = table.int6_stack[list(group_ids(table, quotient))]
    moved, _, den = _moved_numerators(table, stack.reshape(-1, 6).T, p)
    rows = moved.reshape(-1, 6) % den
    width = 6 if rows.dtype == object else next((c for c in (6, 3, 2) if den**c <= 2**63), 1)
    keys = rows[:, ::width]
    for t in range(1, width):
        keys = keys * den + rows[:, t::width]
    order = np.lexsort(keys.T[::-1])
    keys = keys[order]
    distinct = np.ones(len(keys), dtype=bool)
    distinct[1:] = (keys[1:] != keys[:-1]).any(axis=1)
    return Orbit(rows[order[distinct]], den)


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


# --- the reflection formula, centralizers ---------------------------------------


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
        coeffs = qnum_solve(list(zip(*self.gram)), rhs)
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
    allowed = frozenset(group_ids(table, quotient))
    result = allowed
    for p in GENERIC_PRIMES[:samples]:
        coords = list(translate.coords)
        for row in direction_rows:
            c = Fraction(rng.randrange(1, p), p)
            coords = [x + c * r for x, r in zip(coords, row)]
        result &= exact_stabilizer(int6s, coords)
    return result


def fixes_curve(int6: Sequence[Sequence[int]], rows, t: TorusPoint) -> bool:
    """Does the element fix a generic point of the curve t + span(rows)?

    Exactly when it fixes every row and t: (gamma - id)(t + s) lies in Z^6
    for s in an open set only if gamma - id vanishes on the span.
    """
    return all(
        [sum(map(mul, r, lam)) for r in int6] == list(lam) for lam in rows
    ) and apply_element(int6, t) == t


def looped_curve_stabilizer(
    table, translate: TorusPoint, direction_rows, quotient: str = "G"
) -> frozenset[int]:
    """Stabilizer of a generic point of translate + span(directions), element by element.

    The loop ``orbits.generic_curve_stabilizer`` ran before it became one
    stacked product: ``fixes_curve`` on each selected element.
    """
    return frozenset(
        g
        for g in group_ids(table, quotient)
        if fixes_curve(table.elements[g].int6, direction_rows, translate)
    )


class AntireflectionCurves:
    """Membership in the singular curve, antireflection by antireflection.

    The rule ``orbits.on_singular_curve`` applied before it became one
    stacked product over G: p lies on the singular curve when some
    antireflection fixing p has p on its off-mirror component, the one
    translate class whose curve no reflection fixes (``fixes_curve`` on all
    21 reflections).  Each antireflection's locus is computed once.
    """

    def __init__(self, table) -> None:
        self.table = table
        self.curves = {}
        for rho in table.antireflections:
            locus = fixed_locus_structure(table, rho)
            off = [
                t
                for t in locus.translates
                if not t.is_zero()
                and not any(
                    fixes_curve(table.elements[r].int6, locus.lambda1_rows, t)
                    for r in table.reflections
                )
            ]
            assert len(off) == 1
            self.curves[rho] = (locus, off[0])

    def contains(self, p: TorusPoint) -> bool:
        int6s = [el.int6 for el in self.table.elements]
        stab = exact_stabilizer(int6s, p.coords)
        return any(
            locus.in_v1_plus_lattice(p - t)
            for rho, (locus, t) in self.curves.items()
            if rho in stab
        )


def projector_setwise_stabilizer(
    table, v1_basis: list[CVec3], translate: TorusPoint, quotient: str = "H"
) -> frozenset[int]:
    """Elements mapping the curve translate + V_1 onto itself, through the projector."""
    projector = AxisProjector(v1_basis)
    members = []
    for g in group_ids(table, quotient):
        el = table.elements[g]
        if any(any(projector.project_eps(mat_apply(el.mat, b))) for b in v1_basis):
            continue
        moved = apply_element(el.int6, translate)
        if projector.in_v1_plus_lattice((moved - translate).coords):
            members.append(g)
    return frozenset(members)


# --- special loci element by element --------------------------------------------


def swept_locus_points(table, order: int, det: int | None = None) -> list[TorusPoint]:
    """The nonzero points fixed by some element of the given order (and determinant).

    The sweep ``orbits.locus_points`` ran before it took one representative
    per conjugacy class: ``torus.enumerate_fixed_points`` on every element.
    """
    pts: set[TorusPoint] = set()
    for el in table.elements:
        if el.order == order and det in (None, el.det):
            pts.update(enumerate_fixed_points(table, el.index))
    return sorted(p for p in pts if not p.is_zero())


# --- the field-valued group build, subgroup lattice and quartic action -------


def is_unitary(m: Mat3) -> bool:
    adjoint = Mat3([[m.rows[j][i].conj() for j in range(3)] for i in range(3)])
    return adjoint * m == IDENTITY3


def evaluate(form: QuarticForm, x: complex, y: complex, z: complex) -> complex:
    """A quartic form at a complex point, in floating point."""
    total = 0j
    for (i, j, k), c in form.coeffs.items():
        total += complex_value(c) * x**i * y**j * z**k
    return total


@dataclass
class FieldBuild:
    """The group as the Mat3 BFS built it, with every derived table."""

    mats: list[Mat3]
    words: list[tuple[int, ...]]
    int6s: list[tuple[tuple[int, ...], ...]]
    mul_list: list[list[int]]
    inv: list[int]
    orders: list[int]
    dets: list[int]
    reflections: tuple[int, ...]
    antireflections: tuple[int, ...]


def field_group_build() -> FieldBuild:
    """BFS over Mat3 products in Q(w): fixed generator order, matrices
    interned by their entries; determinants in the field, reflections and
    antireflections by the dimension of a field kernel."""
    gens = {1: R1, 2: R2, 3: R3}
    index_of: dict[Mat3, int] = {IDENTITY3: 0}
    mats, words = [IDENTITY3], [()]
    queue = [0]
    while queue:
        nxt = []
        for i in queue:
            for gi in (1, 2, 3):
                prod = mats[i] * gens[gi]
                if prod not in index_of:
                    index_of[prod] = len(mats)
                    nxt.append(len(mats))
                    mats.append(prod)
                    words.append(words[i] + (gi,))
        queue = nxt
    # the integer chart; test_kernels checks it against the rational one
    int6s = [linalg.mat3_to_int6(m) for m in mats]
    stack = np.array(int6s, dtype=np.int64)
    key_of = {m.tobytes(): i for i, m in enumerate(stack)}
    mul_list = [[key_of[p.tobytes()] for p in a @ stack] for a in stack]
    inv = [row.index(0) for row in mul_list]
    orders = []
    for i in range(len(mats)):
        k, acc = 1, i
        while acc != 0:
            acc = mul_list[acc][i]
            k += 1
        orders.append(k)
    dets = [1 if m.det() == QNum(1) else -1 for m in mats]
    assert all(m.det() == QNum(d) for m, d in zip(mats, dets))
    refl = tuple(
        i for i, m in enumerate(mats)
        if orders[i] == 2 and dets[i] == -1 and len(kernel_K(m - IDENTITY3)) == 2
    )
    antirefl = tuple(
        i for i, m in enumerate(mats)
        if orders[i] == 2 and dets[i] == 1 and len(kernel_K(m.scale(-1) - IDENTITY3)) == 2
    )
    return FieldBuild(mats, words, int6s, mul_list, inv, orders, dets, refl, antirefl)


def field_named_registry(table) -> dict[str, int]:
    """The named elements as Mat3 products in Q(w), looked up by ``index_of_mat``."""
    m1 = IDENTITY3.scale(-1)
    rho1, rho2, rho3 = (r.scale(-1) for r in (R1, R2, R3))
    c = Mat3([[0, 0, -1], [-1, 0, 0], [0, -1, 0]])  # (z1, z2, z3) -> (-z3, -z1, -z2)
    mats = {
        "r1": R1, "r2": R2, "r3": R3, "m1": m1, "rho1": rho1, "rho2": rho2, "rho3": rho3,
        "g7": rho1 * rho2 * rho3, "h3": rho1 * rho3 * rho1 * rho2, "h4": rho1 * rho2,
        "h4p": m1 * (R1 * R2), "c": c, "c3": m1 * c,
    }
    return {name: table.index_of_mat(m) for name, m in mats.items()}


def beta_cvec(index: int) -> CVec3:
    """beta_bbbb in C^3: the sum of the parts whose bit is set, first bit first."""
    half = Fraction(1, 2)
    parts = [
        vec3(1, 0, 0),
        vec3(ALPHA, 0, 0),
        vec3(QNum(0, half), QNum(0, half), QNum(0, -half)),
        vec3(QNum(half, -half), QNum(1), 0),
    ]
    total = vec3(0, 0, 0)
    for i, part in enumerate(parts):
        if (index >> (3 - i)) & 1:
            total = tuple(x + y for x, y in zip(total, part))
    return total


def omega_cvec(i: int, j: int) -> CVec3:
    """omega_ij in C^3: (i/2)(conj(w), conj(w), conj(w)) + j(1, 1, 1), conj(w) = 1 - w."""
    q = QNum(Fraction(i, 2) + j, Fraction(-i, 2))
    return vec3(q, q, q)


def plain_subgroup_closure(table, gens: Sequence[int]) -> frozenset[int]:
    """The subgroup generated by gens: BFS from the identity until nothing is new."""
    seen = {table.identity}
    frontier = [table.identity]
    rows = table.mul_list
    while frontier:
        nxt = []
        for x in frontier:
            for g in gens:
                y = rows[x][g]
                if y not in seen:
                    seen.add(y)
                    nxt.append(y)
        frontier = nxt
    return frozenset(seen)


def fixpoint_subgroup_lattice(table) -> list[SubgroupClass]:
    """Every subgroup of H by fixpoint closure, listed as conjugacy classes.

    Seed with the cyclic subgroups, then adjoin a cyclic generator to every
    known subgroup until nothing new appears; classes come from conjugating
    each subgroup by all of H.
    """
    cyclic = table.cyclic_subgroups()
    gens_of: dict[frozenset[int], tuple[int, ...]] = {}
    pending: list[frozenset[int]] = []
    for sub, gen in cyclic:
        gens_of[sub] = (gen,) if gen != table.identity else ()
        pending.append(sub)
    h_order = len(table.h_indices)
    while pending:
        nxt: list[frozenset[int]] = []
        for s in pending:
            if len(s) == h_order:
                continue
            base_gens = gens_of[s]
            for _, cgen in cyclic:
                if cgen in s:
                    continue
                t = plain_subgroup_closure(table, base_gens + (cgen,))
                if t not in gens_of:
                    gens_of[t] = base_gens + (cgen,)
                    nxt.append(t)
        pending = nxt

    subgroups = sorted(gens_of, key=lambda s: (len(s), sorted(s)))
    unclassified = set(subgroups)
    raw_classes: list[list[frozenset[int]]] = []
    for s in subgroups:
        if s not in unclassified:
            continue
        orbit = {s} | {table.conjugate_subgroup(g, s) for g in table.h_indices}
        raw_classes.append(sorted(orbit, key=lambda x: sorted(x)))
        unclassified -= orbit
    raw_classes.sort(key=lambda ms: (-len(ms[0]), len(ms), sorted(ms[0])))
    all_subs = [s for ms in raw_classes for s in ms]
    class_of = {s: nr for nr, ms in enumerate(raw_classes, start=1) for s in ms}

    def between(s: frozenset[int], t: frozenset[int]) -> bool:
        return any(s < u < t for u in all_subs)

    classes = []
    for nr, ms in enumerate(raw_classes, start=1):
        rep = ms[0]
        maximal = Counter(class_of[s] for s in all_subs if s < rep and not between(s, rep))
        minover = Counter(class_of[t] for t in all_subs if rep < t and not between(rep, t))
        classes.append(
            SubgroupClass(
                number=nr,
                structure=table.structure_name(rep),
                order=len(rep),
                length=len(ms),
                representative=rep,
                members=tuple(ms),
                maximal=tuple(sorted(maximal.items())),
                minimal_over=tuple(sorted(minover.items())),
            )
        )
    return classes


def _linear_form_power(coeffs: list[QNum], power: int) -> dict[tuple[int, int, int], QNum]:
    """(c0 x + c1 y + c2 z)^power as an exponent-keyed dictionary."""
    acc = {(0, 0, 0): QNum(1)}
    for _ in range(power):
        nxt: dict[tuple[int, int, int], QNum] = {}
        for (i, j, k), c in acc.items():
            for var, cv in enumerate(coeffs):
                if cv:
                    key = (i + (var == 0), j + (var == 1), k + (var == 2))
                    nxt[key] = nxt.get(key, QNum(0)) + c * cv
        acc = nxt
    return acc


def qnum_act(m: Mat3, form: QuarticForm) -> QuarticForm:
    """(m . F)(v) = F(m v), expanded monomial by monomial in QNum arithmetic."""
    out: dict[tuple[int, int, int], QNum] = {}
    for (i, j, k), c in form.coeffs.items():
        term = {(0, 0, 0): c}
        for var, power in ((0, i), (1, j), (2, k)):
            if power == 0:
                continue
            factor = _linear_form_power(list(m.rows[var]), power)
            nxt: dict[tuple[int, int, int], QNum] = {}
            for (a, b, d), c1 in term.items():
                for (e, f, g), c2 in factor.items():
                    key = (a + e, b + f, d + g)
                    nxt[key] = nxt.get(key, QNum(0)) + c1 * c2
            term = nxt
        for key, val in term.items():
            out[key] = out.get(key, QNum(0)) + val
    return QuarticForm(out)


# --- germ weights the field-valued way ----------------------------------------


def snap_weights(table, gen: int, d: int) -> tuple[int, int, int]:
    """A generator's eigenvalue exponents mod d, snapped from floats.

    Each eigenvalue must lie within 1e-6 of a d-th root of unity, and the
    snapped values must reproduce the exact trace and determinant.
    """
    mat = np.array(complex_matrix(table.elements[gen].mat), dtype=complex)
    weights = []
    for ev in np.linalg.eigvals(mat):
        nu = round(cmath.phase(ev) / (2 * cmath.pi) * d) % d
        if abs(ev - cmath.exp(2j * cmath.pi * nu / d)) > 1e-6:
            raise AssertionError(f"eigenvalue {ev} of element {gen} is not a {d}-th root of unity")
        weights.append(int(nu))
    snapped_sum = sum(cmath.exp(2j * cmath.pi * nu / d) for nu in weights)
    m = table.elements[gen].mat.rows
    if abs(snapped_sum - complex_value(m[0][0] + m[1][1] + m[2][2])) > 1e-9:
        raise AssertionError(f"snapped eigenvalues of element {gen} contradict the trace")
    snapped_prod = cmath.exp(2j * cmath.pi * sum(weights) / d)
    if abs(snapped_prod - table.elements[gen].det) > 1e-9:
        raise AssertionError(f"snapped eigenvalues of element {gen} contradict the determinant")
    return tuple(sorted(weights))  # type: ignore[return-value]


def qnum_solve(columns: Sequence[Sequence[QNum]], rhs: Sequence[QNum]) -> list[QNum]:
    """Exact coordinates of rhs in the span of the given column vectors."""
    m = len(rhs)
    n = len(columns)
    work = [[columns[j][i] for j in range(n)] + [rhs[i]] for i in range(m)]
    r = 0
    pivots: list[tuple[int, int]] = []
    for c in range(n):
        pr = next((i for i in range(r, m) if work[i][c]), None)
        if pr is None:
            continue
        work[r], work[pr] = work[pr], work[r]
        inv = work[r][c].inv()
        work[r] = [inv * v for v in work[r]]
        for i in range(m):
            if i != r and work[i][c]:
                f = work[i][c]
                work[i] = [work[i][j] - f * work[r][j] for j in range(n + 1)]
        pivots.append((r, c))
        r += 1
    if len(pivots) != n:
        raise ValueError("columns are linearly dependent")
    for i in range(r, m):
        if work[i][n]:
            raise ValueError("vector is not in the span of the columns")
    sol = [QNum(0)] * n
    for pr, pc in pivots:
        sol[pc] = work[pr][n]
    return sol


def reflection_degrees(order: int, nrefl: int) -> tuple[int, int, int]:
    """Degrees of basic invariants of a rank-3 reflection group.

    Determined by prod(d_i) = |W| and sum(d_i - 1) = #reflections; the
    solution must be unique for the groups this action produces.
    """
    hits = []
    for d1 in range(1, order + 1):
        if order % d1:
            continue
        for d2 in range(d1, order // d1 + 1):
            if (order // d1) % d2:
                continue
            d3 = order // (d1 * d2)
            if d3 < d2:
                continue
            if d1 + d2 + d3 - 3 == nrefl:
                hits.append((d1, d2, d3))
    if len(hits) != 1:
        raise ConsistencyError(
            f"invariant degrees for |W|={order}, {nrefl} reflections not unique: {hits}"
        )
    return hits[0]


_SYM2_BASIS = [(0, 0), (0, 1), (0, 2), (1, 1), (1, 2), (2, 2)]


def sym2_matrix(m: Mat3) -> list[list[QNum]]:
    """Substitution action on quadratic forms: columns indexed by z_a z_b."""
    cols = []
    for a, b in _SYM2_BASIS:
        col = {key: QNum(0) for key in _SYM2_BASIS}
        for c in range(3):
            for e in range(3):
                coeff = m.rows[a][c] * m.rows[b][e]
                key = (c, e) if c <= e else (e, c)
                col[key] = col[key] + coeff
        cols.append([col[key] for key in _SYM2_BASIS])
    return [[cols[j][i] for j in range(6)] for i in range(6)]


def residual_involution_weights(
    table, s: frozenset[int], w_part: frozenset[int]
) -> tuple[int, int, int] | None:
    """Germ weights when the reflection part W has index 2 and degrees (1, 2, 2).

    The quotient by W is affine space on one linear and two quadratic basic
    invariants; the residual involution acts exactly on the W-fixed line and
    on the W-invariant quadratics, all computed in exact field arithmetic.
    """
    degrees = reflection_degrees(len(w_part), len(w_part & table.reflection_set))
    if degrees != (1, 2, 2):
        return None
    # the W-fixed line carries the degree-1 invariant
    stacked = []
    for w in sorted(w_part):
        shifted = table.elements[w].mat - IDENTITY3
        stacked.extend(list(r) for r in shifted.rows)
    fixed_line = linalg.qnum_nullspace(stacked, 3)
    if len(fixed_line) != 1:
        return None
    sigma = min(i for i in s if i not in w_part)
    b = fixed_line[0]
    image = mat_apply(table.elements[sigma].mat, b)
    j = next(k for k in range(3) if b[k])
    lam = image[j] * b[j].inv()
    if any(image[k] != lam * b[k] for k in range(3)) or lam * lam != QNum(1):
        raise ConsistencyError("residual involution does not act by a sign on the fixed line")
    nu_linear = 0 if lam == QNum(1) else 1
    # W-invariant quadratic forms and the residual action on them
    quad_rows = []
    ident6 = [[QNum(int(i == k)) for k in range(6)] for i in range(6)]
    for w in sorted(w_part):
        mw = sym2_matrix(table.elements[w].mat)
        quad_rows.extend(
            [mw[i][k] - ident6[i][k] for k in range(6)] for i in range(6)
        )
    invariants = linalg.qnum_nullspace(quad_rows, 6)
    if len(invariants) != 3:
        return None
    msig = sym2_matrix(table.elements[sigma].mat)
    cols = [list(v) for v in invariants]
    action = []
    for v in invariants:
        img = [
            sum((msig[i][k] * v[k] for k in range(6)), QNum(0)) for i in range(6)
        ]
        action.append(qnum_solve(cols, img))
    trace = action[0][0] + action[1][1] + action[2][2]
    if trace.y != 0 or trace.x.denominator != 1:
        raise ConsistencyError("residual action on invariant quadratics has non-integral trace")
    t = int(trace.x)
    # eigenvalues are +-1 (sigma^2 lies in W); one +1 belongs to the square
    # of the linear invariant and is not a basic degree-2 eigenvalue
    m_plus = (3 + t) // 2
    m_minus = 3 - m_plus
    if (3 + t) % 2 or m_plus < 1:
        raise ConsistencyError("inconsistent eigenvalue multiplicities on quadratics")
    weights = [nu_linear] + [0] * (m_plus - 1) + [1] * m_minus
    if sum(1 for w in weights if w) < 2:
        raise ConsistencyError(
            "residual weights describe a reflection, contradicting the closure test"
        )
    return tuple(sorted(weights))  # type: ignore[return-value]


def field_singularity_weights(table, s: frozenset[int]) -> WeightInfo:
    """Quotient-germ type with snapped float eigenvalues and the two index-2 paths.

    A cyclic S takes the smallest snapped weight tuple over its generators.
    W x {+-1}, with W the reflection part, reduces by degree parity: -1 acts
    on W's basic invariants by (-1)^degree.  Any other index-2 reflection
    part with degrees (1, 2, 2) goes through the residual involution on the
    W-fixed line and the W-invariant quadratic forms.
    """
    w_part = plain_subgroup_closure(table, sorted(s & table.reflection_set))
    if w_part == s:  # reflection-generated
        return WeightInfo("smooth")
    d = len(s)
    generators = [i for i in s if table.elements[i].order == d]
    if generators:
        return WeightInfo("cyclic", d, min(snap_weights(table, g, d) for g in generators))
    if (
        table.minus_one in s
        and len(w_part) * 2 == d
        and table.subgroup_closure(sorted(w_part) + [table.minus_one]) == s
    ):
        degrees = reflection_degrees(len(w_part), len(w_part & table.reflection_set))
        parities = tuple(sorted(deg % 2 for deg in degrees))
        return WeightInfo("cyclic", 2, parities)  # type: ignore[arg-type]
    if len(w_part) * 2 == d:
        weights = residual_involution_weights(table, s, w_part)
        if weights is not None:
            return WeightInfo("cyclic", 2, weights)
    return WeightInfo("non-cyclic")


def goursat_subgroups_of_g(table) -> list[frozenset[int]]:
    """Every subgroup of G = H x {+-1} from the subgroups of H (Goursat's lemma).

    For each subgroup K of H: K itself, K u -K, and K0 u -(K - K0) for each
    subgroup K0 of index 2 in K.
    """
    subs_h = [k for c in table.all_subgroups_of_h() for k in c.members]
    minus = table.mul_list[table.minus_one]
    out = []
    for k in subs_h:
        neg = frozenset(minus[x] for x in k)
        out += [k, k | neg]
        for k0 in subs_h:
            if 2 * len(k0) == len(k) and k0 < k:
                out.append(k0 | frozenset(minus[x] for x in k - k0))
    return out


def reflection_generated(table, s: frozenset[int]) -> bool:
    """Is the subgroup the plain closure of the reflections it contains?"""
    return plain_subgroup_closure(table, sorted(s & table.reflection_set)) == s


def rule_recognize(table, s: frozenset[int]) -> str:
    """Name a subgroup by the rules of the stabilizer scheme, one rule after another.

    The rules read element orders, -1, determinants, the reflection count
    and commutativity; ``GroupTable.recognize`` reads a table keyed by the
    order and the numbers of reflections and antireflections instead.
    """
    order = len(s)
    els = [table.elements[i] for i in s]
    orders = sorted(e.order for e in els)
    has_minus = table.minus_one in s
    nrefl = len(s & table.reflection_set)
    in_h = all(e.det == 1 for e in els)
    cyclic = order in orders
    signature = {
        "order": order,
        "element_orders": orders,
        "contains_minus_one": has_minus,
        "reflections": nrefl,
        "inside_h": in_h,
        "cyclic": cyclic,
    }

    if order == 1:
        return "1"
    if order == 2:
        gen = next(i for i in s if i != table.identity)
        if gen == table.minus_one:
            return "±1"
        return "C2-refl" if gen in table.reflection_set else "C2-antirefl"
    if order == 3:
        return "C3"
    if order == 4:
        if cyclic:
            return "C4"
        if has_minus:
            return "C2xC2'"
        return "2^2"
    if order == 6:
        if cyclic:
            return "C6"
        if in_h:
            return "S3"
        if nrefl == 3 and not has_minus:
            return "S3'"
    if order == 7:
        return "C7"
    if order == 8 and not cyclic:
        abelian = _is_abelian(table, s)
        if abelian and has_minus:
            return "±2^2" if max(orders) == 2 else "±4"
        if not abelian:
            # no non-abelian order-8 subgroup contains -1 (its order-4
            # elements would square to -1, impossible for det reasons)
            return "D8" if in_h else "D8'"
    if order == 12:
        if in_h and not _is_abelian(table, s):
            return "A4"
        if has_minus and nrefl == 3:
            return "±S3"
    if order == 14 and cyclic:
        return "C14"
    if order == 16 and has_minus and not _is_abelian(table, s):
        return "±D8"
    if order == 21:
        return "7:3"
    if order == 24:
        if in_h:
            return "S4"
        if has_minus:
            return "±A4"
        if nrefl == 6:
            return "S4'"
    if order == 42 and has_minus:
        return "±7:3"
    if order == 48 and has_minus:
        return "±S4"
    if order == 168 and in_h:
        return "H168"
    if order == 336:
        return "G336"
    raise UnrecognizedSubgroupError(signature)


def _is_abelian(table, s: frozenset[int]) -> bool:
    items = sorted(s)
    rows = table.mul_list
    return all(rows[a][b] == rows[b][a] for a, b in itertools.combinations(items, 2))


# --- integer normal forms and roots as the library computed them before ---------


def bareiss_int_det(a: Sequence[Sequence[int]]) -> int:
    """Exact determinant of a nonempty square matrix by fraction-free Bareiss elimination."""
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


def closure_smith_normal_form(a: Sequence[Sequence[int]]) -> tuple[list, list, list]:
    """(U, D, V) with U a V = D, by four elementary-operation closures.

    Smallest-entry pivoting over the whole trailing block, and the
    divisibility scan at every pivot, +-1 included.
    """
    d = [list(map(int, row)) for row in a]
    m = len(d)
    n = len(d[0]) if m else 0
    u = [[int(i == j) for j in range(m)] for i in range(m)]
    v = [[int(i == j) for j in range(n)] for i in range(n)]

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
            for j in range(t + 1, n):
                if d[t][j]:
                    q = d[t][j] // d[t][t]
                    col_op(j, t, q)
                    if d[t][j]:
                        swap_cols(t, j)
                        dirty = True
            if dirty:
                continue
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


def scanning_hnf_contains(basis: Sequence[Sequence[int]], vec: Sequence[int]) -> bool:
    """Membership in the row lattice of an HNF basis of the vector's width."""
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


def ac14_matrix_draws(group_order: int, seed: int = 0) -> list[list[list[int]]]:
    """AC14's 1000 random matrices, drawn with ``randint`` after its 100 covariance pairs.

    Each matrix is m x n with m, n in [1, 5] and entries in [-10, 10], drawn
    in the order m, n, then the entries row by row.
    """
    rng = random.Random(seed)
    for _ in range(100):
        rng.randrange(95), rng.randrange(group_order)
    out = []
    for _ in range(1000):
        m, n = rng.randint(1, 5), rng.randint(1, 5)
        out.append([[rng.randint(-10, 10) for _ in range(n)] for _ in range(m)])
    return out


def ac14_field_draws(group_order: int, seed: int = 0) -> list[FracQNum]:
    """AC14's 3000 field elements, drawn with ``randint`` after its matrices.

    Each is x + y*w with x = a/b and y = c/d, a, c in [-50, 50] and b, d in
    [1, 10], drawn in the order a, b, c, d.
    """
    rng = random.Random(seed)
    for _ in range(100):
        rng.randrange(95), rng.randrange(group_order)
    for _ in range(1000):
        m, n = rng.randint(1, 5), rng.randint(1, 5)
        [rng.randint(-10, 10) for _ in range(m * n)]
    return [
        FracQNum(
            Fraction(rng.randint(-50, 50), rng.randint(1, 10)),
            Fraction(rng.randint(-50, 50), rng.randint(1, 10)),
        )
        for _ in range(3 * 1000)
    ]


def fraction_keyed_roots() -> list[CVec3]:
    """The 42 roots from the three seeds by signed permutations, deduplicated on Fractions."""
    seeds = [vec3(2, 0, 0), vec3(0, QNum(0, 1), QNum(0, 1)), vec3(1, 1, QNum(1, -1))]
    seen: set[tuple] = set()
    out: list[CVec3] = []
    for seed in seeds:
        for perm in itertools.permutations(range(3)):
            for signs in itertools.product((1, -1), repeat=3):
                v = tuple(
                    QNum(signs[i] * seed[perm[i]].x, signs[i] * seed[perm[i]].y)
                    for i in range(3)
                )
                key = tuple((q.x, q.y) for q in v)
                if key not in seen:
                    seen.add(key)
                    out.append(v)  # type: ignore[arg-type]
    out.sort(key=lambda v: tuple((q.x, q.y) for q in v))
    return out
