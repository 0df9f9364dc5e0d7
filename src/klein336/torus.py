"""Torsion points of the quotient torus and fixed loci of group elements.

A torsion point is stored in integer form: six numerators in [0, den) over
its exact order den, meaning the eps-basis coordinates nums/den modulo Z^6;
its Fraction coordinates in [0, 1) are built only when read.  Elements
without eigenvalue 1 (elliptic) have finitely many fixed points, counted
and enumerated through the Smith normal form of the integer matrix of
(gamma - id) on the lattice.  Elements with eigenvalue 1 (parabolic) fix a
finite union of translates of a subtorus; the component count comes from
the restricted elliptic action on the orthogonal-complement torus and a
membership test against the projected lattice.
"""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from operator import mul
from typing import Sequence

from .group import GroupTable
from .linalg import (
    IDENTITY3,
    from_eps_coords,
    hnf_contains,
    hnf_rows,
    int_det,
    int_kernel,
    kernel_K,
    lattice_index,
    rat_solve,
    smith_normal_form,
    to_eps_coords,
)
from .qfield import ALPHA, ALPHA_BAR, CVec3, QNum, ZERO, hermitian, vec3, vec_is_zero


class ParabolicElementError(ValueError):
    """Raised when an elliptic-only operation receives an element with eigenvalue 1."""


class EllipticElementError(ValueError):
    """Raised when a parabolic-only operation receives an elliptic element."""


class IdentityElementError(ValueError):
    pass


class TorusPoint:
    """A torsion point of J = C^3/L, in canonical integer form.

    ``nums`` holds six integers in [0, den), the eps coordinates times
    ``den``, and ``den`` is the point's exact additive order, so
    gcd(*nums, den) == 1.  Equality, hashing, order and arithmetic work on
    this form; ``coords``, the six coordinates as Fractions in [0, 1), is
    built on first read.

    ``TorusPoint(coords)`` reduces any six rationals mod 1.
    ``TorusPoint(nums, den)`` takes the canonical form as given: the caller
    guarantees 0 <= n < den for each n and gcd(*nums, den) == 1.
    """

    __slots__ = ("nums", "den", "_coords")

    def __init__(self, coords: Sequence[Fraction | int], den: int | None = None) -> None:
        if len(coords) != 6:
            raise ValueError("torus points have 6 eps coordinates")
        if den is None:
            fracs = [c if type(c) is Fraction else Fraction(c) for c in coords]
            # c mod 1 keeps c's reduced denominator, so the lcm is the order
            den = lcm(*(f.denominator for f in fracs))
            coords = [f.numerator * (den // f.denominator) % den for f in fracs]
        object.__setattr__(self, "nums", tuple(coords))
        object.__setattr__(self, "den", den)

    def __setattr__(self, name, value):
        raise AttributeError("TorusPoint is immutable")

    @property
    def coords(self) -> tuple[Fraction, ...]:
        try:
            return self._coords
        except AttributeError:
            coords = tuple(Fraction(n, self.den) for n in self.nums)
            object.__setattr__(self, "_coords", coords)
            return coords

    def __eq__(self, other: object) -> bool:
        if isinstance(other, TorusPoint):
            return self.den == other.den and self.nums == other.nums
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.nums, self.den))

    def __lt__(self, other: "TorusPoint") -> bool:
        """Lexicographic order of the coordinates in [0, 1)."""
        d, e = self.den, other.den
        if d == e:
            return self.nums < other.nums
        return [x * e for x in self.nums] < [y * d for y in other.nums]

    def _combine(self, other: "TorusPoint", sign: int) -> "TorusPoint":
        d, e = self.den, other.den
        m = lcm(d, e)
        a, b = m // d, sign * (m // e)
        return _point([x * a + y * b for x, y in zip(self.nums, other.nums)], m)

    def __add__(self, other: "TorusPoint") -> "TorusPoint":
        return self._combine(other, 1)

    def __sub__(self, other: "TorusPoint") -> "TorusPoint":
        return self._combine(other, -1)

    def __neg__(self) -> "TorusPoint":
        d = self.den
        return TorusPoint([-x % d for x in self.nums], d)

    def __mul__(self, k: int) -> "TorusPoint":
        if not isinstance(k, int):
            return NotImplemented
        return _point([k * x for x in self.nums], self.den)

    __rmul__ = __mul__

    def is_zero(self) -> bool:
        return self.den == 1

    def order(self) -> int:
        """Additive order in the torus."""
        return self.den

    def as_int_vec(self) -> tuple[list[int], int]:
        return list(self.nums), self.den

    def __str__(self) -> str:
        return "[" + ",".join(_frac(c) for c in self.coords) + "]"

    def __repr__(self) -> str:
        return f"TorusPoint({self})"

    @classmethod
    def parse(cls, text: str) -> "TorusPoint":
        s = text.strip()
        if not (s.startswith("[") and s.endswith("]")):
            raise ValueError(f"torus point literal must be bracketed: {text!r}")
        parts = s[1:-1].split(",")
        if len(parts) != 6:
            raise ValueError("torus point literal must have 6 coordinates")
        return cls([Fraction(p.strip()) for p in parts])

    @classmethod
    def from_cvec(cls, v: CVec3) -> "TorusPoint":
        return cls(to_eps_coords(v))


def _point(nums: Sequence[int], m: int) -> TorusPoint:
    """The point with eps coordinates nums / m mod Z^6, for any integers nums."""
    nums = [x % m for x in nums]
    g = gcd(*nums, m)
    if g > 1:
        nums = [x // g for x in nums]
        m //= g
    return TorusPoint(nums, m)


ZERO_POINT = TorusPoint([0] * 6)


def _frac(f: Fraction) -> str:
    return str(f.numerator) if f.denominator == 1 else f"{f.numerator}/{f.denominator}"


def apply_element(int6: Sequence[Sequence[int]], p: TorusPoint) -> TorusPoint:
    n = p.nums
    return _point([sum(map(mul, row, n)) for row in int6], p.den)


# --- lattice membership -------------------------------------------------------


def lattice_contains(v: CVec3) -> bool:
    """v in Lambda, decided by integrality of its eps coordinates."""
    return all(c.denominator == 1 for c in to_eps_coords(v))


def _o_divides(d: QNum, w: QNum) -> bool:
    q = w * d.conj()
    n = d.norm()
    return (q.x / n).denominator == 1 and (q.y / n).denominator == 1


def lattice_contains_congruence(v: CVec3) -> bool:
    """Independent membership oracle straight from the defining congruences."""
    if not all(q.is_integral() for q in v):
        return False
    if not _o_divides(ALPHA, v[0] - v[1]) or not _o_divides(ALPHA, v[1] - v[2]):
        return False
    return _o_divides(ALPHA_BAR, v[0] + v[1] + v[2])


# --- elliptic fixed points ----------------------------------------------------


def _shifted_int6(table: GroupTable, gi: int) -> list[list[int]]:
    m = table.elements[gi].int6
    return [[m[i][j] - int(i == j) for j in range(6)] for i in range(6)]


def fixed_point_count(table: GroupTable, gi: int) -> int:
    det = int_det(_shifted_int6(table, gi))
    if det == 0:
        raise ParabolicElementError(
            f"element {gi} has eigenvalue 1; its fixed locus is positive-dimensional"
        )
    return abs(det)


def enumerate_fixed_points(table: GroupTable, gi: int) -> list[TorusPoint]:
    """All torus points fixed by the element, via the Smith normal form.

    Solves (gamma - id) x in Z^6 over x in Q^6/Z^6: with U A V = D the
    solutions are x = V y, y_i in (1/d_i) Z.
    """
    a = _shifted_int6(table, gi)
    if int_det(a) == 0:
        raise ParabolicElementError(f"element {gi} is parabolic")
    _, d, v = smith_normal_form(a)
    unique = _snf_solutions(v, [d[i][i] for i in range(6)])
    if len(unique) != abs(int_det(a)):
        raise RuntimeError("fixed point enumeration does not match the determinant")
    return unique


def _snf_solutions(v: Sequence[Sequence[int]], diag: Sequence[int]) -> list[TorusPoint]:
    """The distinct points V y mod Z^6 with y_j in (1/d_j) Z, in sorted order.

    With m = lcm(d_j) = max(d_j), every point is an integer numerator vector
    mod m over m; one TorusPoint is made per distinct vector, and numerator
    order is coordinate order.
    """
    m = lcm(*diag)
    scaled = [[v[i][j] * (m // diag[j]) for j in range(6)] for i in range(6)]
    nums = {
        tuple(sum(map(mul, row, combo)) % m for row in scaled)
        for combo in itertools.product(*(range(dj) for dj in diag))
    }
    return [_point(n, m) for n in sorted(nums)]


# --- parabolic fixed loci ----------------------------------------------------


@dataclass
class FixedLocus:
    element: int
    kind: str  # "elliptic" | "parabolic"
    points: list[TorusPoint] | None = None
    v1_basis: list[CVec3] | None = None
    lambda1_rows: list[list[int]] | None = None
    translates: list[TorusPoint] | None = None
    component_count: int | None = None
    restricted_fixed_count: int | None = None
    lattice_sum_index: int | None = None  # [Lambda : Lambda_1 + Lambda_a]


def _qnum_solve(gram: list[list[QNum]], rhs: list[QNum]) -> list[QNum]:
    """Solve a 1x1 or 2x2 field-valued linear system (positive-definite Gram)."""
    if len(gram) == 1:
        return [rhs[0] * gram[0][0].inv()]
    det = gram[0][0] * gram[1][1] - gram[0][1] * gram[1][0]
    inv = det.inv()
    c0 = (rhs[0] * gram[1][1] - gram[0][1] * rhs[1]) * inv
    c1 = (gram[0][0] * rhs[1] - rhs[0] * gram[1][0]) * inv
    return [c0, c1]


class _AxisProjector:
    """Hermitian-orthogonal projection away from V_1, with its lattice image."""

    def __init__(self, v1_basis: list[CVec3]) -> None:
        self.basis = v1_basis
        self.gram = [[hermitian(b, c) for c in v1_basis] for b in v1_basis]
        rows = []
        for j in range(6):
            eps = _EPS_CVECS[j]
            rows.append(self.project_eps(eps))
        den = 1
        for row in rows:
            for x in row:
                den = lcm(den, x.denominator)
        self.den = den
        self.lattice = hnf_rows([[int(x * den) for x in row] for row in rows])

    def project_eps(self, v: CVec3) -> tuple[Fraction, ...]:
        rhs = [hermitian(b, v) for b in self.basis]
        coeffs = _qnum_solve(self.gram, rhs)
        res = list(v)
        for c, b in zip(coeffs, self.basis):
            res = [res[i] - c * b[i] for i in range(3)]
        return to_eps_coords((res[0], res[1], res[2]))

    def in_v1_plus_lattice(self, eps_coords: Sequence[Fraction]) -> bool:
        v = from_eps_coords(list(eps_coords))
        proj = self.project_eps(v)
        scaled = []
        for x in proj:
            y = x * self.den
            if y.denominator != 1:
                return False
            scaled.append(int(y))
        return hnf_contains(self.lattice, scaled)


_EPS_CVECS = [from_eps_coords([int(i == j) for i in range(6)]) for j in range(6)]


def fixed_locus_structure(table: GroupTable, gi: int) -> FixedLocus:
    """Components of the fixed locus of a parabolic element.

    Computes V_1 = ker(gamma - id), its lattice, the orthogonal complement
    torus with the restricted elliptic action, and counts which restricted
    fixed points fall into V_1 + Lambda.
    """
    if gi == table.identity:
        raise IdentityElementError("the identity fixes the whole torus")
    el = table.elements[gi]
    shifted = _shifted_int6(table, gi)
    if int_det(shifted) != 0:
        raise EllipticElementError(f"element {gi} is elliptic; use enumerate_fixed_points")

    v1_basis = kernel_K(el.mat - IDENTITY3)
    lambda1 = hnf_rows(int_kernel(shifted))
    if len(lambda1) != 2 * len(v1_basis):
        raise RuntimeError("lattice rank does not match eigenspace dimension")

    # orthogonal complement and its lattice
    pairing_rows = []
    for b in v1_basis:
        row_x = []
        row_y = []
        for eps in _EPS_CVECS:
            val = hermitian(b, eps)
            row_x.append(val.x)
            row_y.append(val.y)
        den = 1
        for x in row_x + row_y:
            den = lcm(den, x.denominator)
        pairing_rows.append([int(x * den) for x in row_x])
        pairing_rows.append([int(x * den) for x in row_y])
    lambda_a = int_kernel(pairing_rows)
    rank_a = len(lambda_a)
    if rank_a != 6 - len(lambda1):
        raise RuntimeError("complement lattice has unexpected rank")

    # restriction of gamma to the complement lattice: int6 B = B C
    bmat = [[lambda_a[k][i] for k in range(rank_a)] for i in range(6)]  # 6 x r
    m = el.int6
    image = [
        [sum(m[i][j] * bmat[j][k] for j in range(6)) for k in range(rank_a)]
        for i in range(6)
    ]
    bmat_frac = [[Fraction(x) for x in row] for row in bmat]
    c_mat: list[list[int]] = [[0] * rank_a for _ in range(rank_a)]
    for k in range(rank_a):
        col = [Fraction(image[i][k]) for i in range(6)]
        sol = rat_solve(bmat_frac, col)
        if sol is None:
            raise RuntimeError("complement lattice is not invariant")
        for t in range(rank_a):
            if sol[t].denominator != 1:
                raise RuntimeError("restriction matrix is not integral")
            c_mat[t][k] = int(sol[t])

    c_shift = [[c_mat[i][j] - int(i == j) for j in range(rank_a)] for i in range(rank_a)]
    det_a = int_det(c_shift)
    if det_a == 0:
        raise RuntimeError("restricted action is not elliptic")
    _, d, v = smith_normal_form(c_shift)
    diag = [d[i][i] for i in range(rank_a)]
    projector = _AxisProjector(v1_basis)
    # restricted fixed points y = V k / d as integer numerators over lcm(d)
    den = lcm(*diag)
    v_scaled = [[v[i][j] * (den // diag[j]) for j in range(rank_a)] for i in range(rank_a)]
    seen: dict[tuple[int, ...], tuple[TorusPoint, bool]] = {}
    for combo in itertools.product(*(range(di) for di in diag)):
        yv = [sum(map(mul, row, combo)) for row in v_scaled]
        w = _point([sum(map(mul, row, yv)) for row in bmat], den)
        # membership in V_1 + Lambda is invariant under Z^6, so w mod 1 serves
        member = projector.in_v1_plus_lattice(w.coords)
        # the SNF solutions are distinct mod 1 already
        seen[tuple(x % den for x in yv)] = (w, member)
    if len(seen) != abs(det_a):
        raise RuntimeError("restricted fixed point count mismatch")

    members = {y for y, (_, flag) in seen.items() if flag}
    if not members or abs(det_a) % len(members):
        raise RuntimeError("membership subgroup does not divide the fixed group")
    component_count = abs(det_a) // len(members)

    # coset decomposition of the restricted fixed group by the member subgroup
    def y_sub(a, b):
        return tuple((x - y) % den for x, y in zip(a, b))

    cosets: list[list[tuple]] = []
    assigned: dict[tuple, int] = {}
    for y in sorted(seen):
        if y in assigned:
            continue
        coset = [z for z in seen if y_sub(z, y) in members]
        idx = len(cosets)
        cosets.append(sorted(coset))
        for z in coset:
            assigned[z] = idx
    if len(cosets) != component_count:
        raise RuntimeError("coset count does not match component count")
    translates = sorted(min(seen[z][0] for z in coset) for coset in cosets)

    return FixedLocus(
        element=gi,
        kind="parabolic",
        v1_basis=v1_basis,
        lambda1_rows=lambda1,
        translates=translates,
        component_count=component_count,
        restricted_fixed_count=abs(det_a),
        lattice_sum_index=lattice_index(lambda1 + lambda_a),
    )


def fixed_locus(table: GroupTable, gi: int) -> FixedLocus:
    """Uniform entry point: elliptic points or parabolic structure."""
    if gi == table.identity:
        raise IdentityElementError("the identity fixes the whole torus")
    if int_det(_shifted_int6(table, gi)) != 0:
        return FixedLocus(
            element=gi, kind="elliptic", points=enumerate_fixed_points(table, gi)
        )
    return fixed_locus_structure(table, gi)


def subgroup_fixed_points(table: GroupTable, elements) -> list[TorusPoint]:
    """All torus points fixed by every listed element simultaneously.

    Solves the stacked congruence system (gamma - id) x in Z^6 through one
    Smith normal form; requires the joint fixed locus to be finite.
    """
    rows: list[list[int]] = []
    for gi in sorted(set(elements)):
        if gi == table.identity:
            continue
        rows.extend(_shifted_int6(table, gi))
    if not rows:
        raise IdentityElementError("the trivial subgroup fixes the whole torus")
    u, d, v = smith_normal_form(rows)
    diag = [d[i][i] if i < len(rows) else 0 for i in range(6)]
    if any(x == 0 for x in diag):
        raise ParabolicElementError(
            "the joint fixed locus is positive-dimensional"
        )
    return _snf_solutions(v, diag)


# --- the named point registry --------------------------------------------------


def xi_point(k: int) -> TorusPoint:
    """Half-period number k (bit i of k is the eps_{i+1} coefficient times 2)."""
    if not 0 <= k < 64:
        raise ValueError("half-period index must be in 0..63")
    return TorusPoint([Fraction((k >> i) & 1, 2) for i in range(6)])


def half_periods() -> list[TorusPoint]:
    return [xi_point(k) for k in range(64)]


def beta_point(index: int | str) -> TorusPoint:
    """Fixed point of the elliptic order-4 element, by binary multi-index."""
    if isinstance(index, str):
        if not re.fullmatch(r"[01]{4}", index):
            raise ValueError(f"beta index must be 4 bits, got {index!r}")
        bits = [int(ch) for ch in index]
    else:
        if not 0 <= index < 16:
            raise ValueError("beta index must be in 0..15")
        bits = [(index >> (3 - i)) & 1 for i in range(4)]
    parts = [
        vec3(1, 0, 0),
        vec3(ALPHA, ZERO, ZERO),
        vec3(
            QNum(0, Fraction(1, 2)),
            QNum(0, Fraction(1, 2)),
            QNum(0, Fraction(-1, 2)),
        ),
        vec3(QNum(Fraction(1, 2), Fraction(-1, 2)), QNum(1), ZERO),
    ]
    total = vec3(0, 0, 0)
    for bit, part in zip(bits, parts):
        if bit:
            total = (total[0] + part[0], total[1] + part[1], total[2] + part[2])
    return TorusPoint.from_cvec(total)


def omega_point(i: int, j: int) -> TorusPoint:
    """Fixed point of the order-6 cycle: (i/2)(conj(w), conj(w), conj(w)) + j(1,1,1)."""
    if i not in (0, 1) or j not in (0, 1):
        raise ValueError("omega indices are 0 or 1")
    half_bar = QNum(Fraction(i, 2), Fraction(-i, 2))
    v = vec3(half_bar + j, half_bar + j, half_bar + j)
    return TorusPoint.from_cvec(v)


def eta_point(i: int) -> TorusPoint:
    """Seventh-torsion fixed point of the order-7 element."""
    if not 0 <= i <= 6:
        raise ValueError("eta index must be in 0..6")
    base = (-1, -1, 1, 1, 1, -1)
    return TorusPoint([Fraction(i * b, 7) for b in base])


def _curve_lies_on_mirror(table: GroupTable, axis: CVec3, t: TorusPoint) -> bool:
    """Does some reflection fix the whole curve t + <axis> pointwise mod the lattice?"""
    for r in table.reflections:
        rm = table.elements[r].mat
        if not vec_is_zero((rm - IDENTITY3).apply(axis)):
            continue
        if apply_element(table.elements[r].int6, t) == t:
            return True
    return False


def kappa_translates(table: GroupTable, gi: int | None = None) -> list[TorusPoint]:
    """Component representatives [0, k1, k2, k3] of an antireflection's fixed locus.

    k3 is the translate class avoiding every reflection mirror, and is
    normalized so that k3 = k1 + k2 holds exactly; k1, k2 are the two
    mirror-borne classes in lexicographic order.
    """
    if gi is None:
        gi = table.named["rho1"]
    if gi not in set(table.antireflections):
        raise ValueError("kappa translates are defined for antireflections")
    locus = fixed_locus_structure(table, gi)
    assert locus.component_count == 4 and locus.translates is not None
    axis = locus.v1_basis[0]
    nonzero = [t for t in locus.translates if not t.is_zero()]
    off_mirror = [t for t in nonzero if not _curve_lies_on_mirror(table, axis, t)]
    if len(off_mirror) != 1:
        raise RuntimeError(
            f"expected exactly one off-mirror translate class, found {len(off_mirror)}"
        )
    k3_class = off_mirror[0]
    k1, k2 = sorted(t for t in nonzero if t != k3_class)
    k3 = k1 + k2
    projector = _AxisProjector(locus.v1_basis)
    diff = k3 - k3_class
    if not projector.in_v1_plus_lattice(diff.coords):
        raise RuntimeError("k1 + k2 does not land in the off-mirror translate class")
    return [ZERO_POINT, k1, k2, k3]


_NAME_RE = re.compile(r"^(xi|beta|omega|eta|kappa)_?([0-9]+)$")


def registry_point(table: GroupTable, name: str) -> TorusPoint:
    """Look up a named torsion point: xi_k, beta_bbbb, omega_ij, eta_i, kappa_i."""
    m = _NAME_RE.match(name.strip())
    if not m:
        raise KeyError(f"unknown point name {name!r}")
    family, idx = m.group(1), m.group(2)
    if family == "xi":
        return xi_point(int(idx))
    if family == "beta":
        if len(idx) == 4 and set(idx) <= {"0", "1"}:
            return beta_point(idx)
        return beta_point(int(idx))
    if family == "omega":
        if len(idx) != 2:
            raise KeyError(f"omega index must be two bits, got {idx!r}")
        return omega_point(int(idx[0]), int(idx[1]))
    if family == "eta":
        return eta_point(int(idx))
    if family == "kappa":
        k = int(idx)
        if not 0 <= k <= 3:
            raise KeyError("kappa index must be in 0..3")
        return kappa_translates(table)[k]
    raise KeyError(f"unknown point name {name!r}")
