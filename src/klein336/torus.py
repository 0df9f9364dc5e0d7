"""Torsion points of the quotient torus and the fixed loci of group elements.

A torsion point is stored in integer form: six numerators in [0, den) over
its exact order den, meaning the eps-basis coordinates nums/den modulo Z^6;
its Fraction coordinates in [0, 1) are built only when read.

Every fixed locus, of one element or of a set of elements, comes from one
path, ``fixed_locus``: the stacked integer matrices of (gamma - id) on the
lattice, reduced to their Hermite basis, and one Smith normal form.  The
locus is a finite union of translates of a subtorus V_1/Lambda_1; when V_1
is zero (elliptic elements, or sets fixing finitely many points) the
translates are the fixed points.  The same normal form gives Lambda_1 and
the integer rows that test whether a point lies on the component through
zero.  ``enumerate_fixed_points`` and ``fixed_locus_structure`` are views
of it for one element.

The stabilizer of a generic point of a special curve is one stacked integer
product of the group's matrices with the curve's Lambda_1 rows; it also
picks out the off-mirror translate class that defines kappa_3.
"""

from __future__ import annotations

import itertools
import re
import sys
from collections.abc import Iterable, Sequence
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from operator import mul

import numpy as np

from .group import ConsistencyError, GroupTable
from .linalg import hnf_rows, int_det, smith_normal_form
from .qfield import _frac_str


class ParabolicElementError(ValueError):
    """Raised when an elliptic-only operation receives an element with eigenvalue 1."""


class EllipticElementError(ValueError):
    """Raised when a parabolic-only operation receives an elliptic element."""


class IdentityElementError(ParabolicElementError):
    """Raised for the identity alone, whose fixed locus is the whole torus."""


class TorusPoint:
    """A torsion point of J = C^3/L, in canonical integer form.

    ``nums`` holds six integers in [0, den), the eps coordinates times
    ``den``, and ``den`` is the point's exact additive order, so
    gcd(*nums, den) == 1.  Equality, hashing, order and arithmetic work on
    this form; ``coords``, the six coordinates as Fractions in [0, 1), is
    built on first read.  So is ``int64_nums``, the numerators as one
    read-only int64 vector, which the int64 path of ``_moved_numerators``
    reads: a point's stabilizer and orbit queries convert it once.  A point
    whose products leave int64 is computed in Python integers and never
    builds it.

    ``TorusPoint(coords)`` reduces any six rationals mod 1.
    ``TorusPoint(nums, den)`` takes the canonical form as given: the caller
    guarantees 0 <= n < den for each n and gcd(*nums, den) == 1.
    """

    __slots__ = ("nums", "den", "_coords", "_int64_nums")

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

    def __deepcopy__(self, memo) -> "TorusPoint":
        return self  # immutable, so records holding points copy them as they are

    def __reduce__(self):
        return TorusPoint, (self.nums, self.den)  # for pickle and copy.copy, which set no slot

    @property
    def coords(self) -> tuple[Fraction, ...]:
        try:
            return self._coords
        except AttributeError:
            coords = tuple(Fraction(n, self.den) for n in self.nums)
            object.__setattr__(self, "_coords", coords)
            return coords

    @property
    def int64_nums(self) -> np.ndarray:
        try:
            return self._int64_nums
        except AttributeError:
            vector = np.array(self.nums, dtype=np.int64)
            vector.setflags(write=False)
            object.__setattr__(self, "_int64_nums", vector)
            return vector

    def __eq__(self, other: object) -> bool:
        if isinstance(other, TorusPoint):
            return self.den == other.den and self.nums == other.nums
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.nums, self.den))

    def __lt__(self, other: object) -> bool:
        """Lexicographic order of the coordinates in [0, 1)."""
        if not isinstance(other, TorusPoint):
            return NotImplemented
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

    def __mul__(self, k: int) -> "TorusPoint":
        if not isinstance(k, int):
            return NotImplemented
        return _point([k * x for x in self.nums], self.den)

    __rmul__ = __mul__

    def is_zero(self) -> bool:
        return self.den == 1

    def __str__(self) -> str:
        return "[" + ",".join(_frac_str(c) for c in self.coords) + "]"

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
        for p in parts:  # Fraction would expand 1e-5000 to a 5001-digit denominator
            if "e" in p.lower():
                raise ValueError(f"exponent notation is not accepted: {p.strip()!r}")
        point = cls([Fraction(p.strip()) for p in parts])
        # the coordinates of its orbit have denominators dividing its order, so an
        # order within Python's integer-to-string limit (0: none) keeps them printable
        limit = getattr(sys, "get_int_max_str_digits", int)()
        if limit and point.den >= 10**limit:
            raise ValueError(f"the point's order has more than {limit} digits")
        return point


def _point(nums: Sequence[int], m: int) -> TorusPoint:
    """The point with eps coordinates nums / m mod Z^6, for any integers nums."""
    nums = [x % m for x in nums]
    g = gcd(*nums, m)
    if g > 1:
        nums = [x // g for x in nums]
        m //= g
    return TorusPoint(nums, m)


ZERO_POINT = TorusPoint([0] * 6)


def apply_element(int6: Sequence[Sequence[int]], p: TorusPoint) -> TorusPoint:
    n = p.nums
    return _point([sum(map(mul, row, n)) for row in int6], p.den)


# --- fixed loci -----------------------------------------------------------------


def fixed_point_count(table: GroupTable, gi: int) -> int:
    det = int_det(table.minus_identity[gi].tolist())
    if det == 0:
        raise ParabolicElementError(
            f"element {gi} has eigenvalue 1; its fixed locus is positive-dimensional"
        )
    return abs(det)


@dataclass
class FixedLocus:
    """The joint fixed locus of one or more non-identity elements.

    The union of the translates t + V_1/Lambda_1 for t in ``translates``,
    where V_1, the joint kernel of the (gamma - id), has complex dimension
    ``dim`` and Lambda_1 = V_1 n Lambda is spanned by ``lambda1_rows``.  A
    locus of dimension 0 is elliptic: its translates are its points.  The
    integer ``transverse_rows`` vanish exactly on V_1 and take integer values
    exactly on V_1 + Lambda.
    """

    dim: int
    translates: list[TorusPoint]
    lambda1_rows: list[list[int]]
    transverse_rows: list[list[int]]

    @property
    def kind(self) -> str:
        return "parabolic" if self.dim else "elliptic"

    @property
    def component_count(self) -> int:
        return len(self.translates)

    def in_v1_plus_lattice(self, p: TorusPoint) -> bool:
        """Does p lie on the component through zero, V_1 + Lambda mod Lambda?"""
        n, den = p.nums, p.den
        return all(sum(map(mul, row, n)) % den == 0 for row in self.transverse_rows)


def fixed_locus(table: GroupTable, elements: int | Iterable[int]) -> FixedLocus:
    """The joint fixed locus of one element or of a set of elements.

    x in Q^6/Z^6 is fixed when (gamma - id) x lies in Z^6 for every listed
    gamma, which depends only on the row lattice of the stacked matrices; so
    the stack is reduced to its Hermite basis A, of rank r, and one Smith
    normal form U A V = D follows.  With x = V y, x is fixed exactly when
    d_i y_i is an integer for i < r: the classes of (d_i y_i) mod d_i index
    the prod(d_i) components, translates of V_1, the span of the last 6 - r
    columns of V.  Rows i < r of V^-1, the rows of U A over d_i, are the
    transverse rows.  Each component is represented by its lexicographically
    smallest point of order dividing m = max(d_i); when r = 6 the components
    are the fixed points.
    """
    ids = list(elements) if isinstance(elements, Iterable) else [elements]
    stack = hnf_rows(table.minus_identity[ids].reshape(-1, 6).tolist())
    if not stack:
        raise IdentityElementError("the identity fixes the whole torus")
    u, d, v = smith_normal_form(stack)
    r = len(stack)
    if r % 2:
        raise ConsistencyError(f"the fixed space has odd real codimension {r}")
    diag = [d[i][i] for i in range(r)]
    cols = list(zip(*stack))
    m = diag[-1]
    scale = [m // di for di in diag]
    translates = []
    for k in itertools.product(*(range(di) for di in diag)):
        # y = (k_i / d_i, s / m) as numerators over m; x = V y
        head = [ki * si for ki, si in zip(k, scale)]
        best = min(
            tuple(sum(map(mul, row, head + list(s))) % m for row in v)
            for s in itertools.product(range(m), repeat=6 - r)
        )
        translates.append(_point(best, m))
    return FixedLocus(
        dim=(6 - r) // 2,
        translates=sorted(translates),
        lambda1_rows=hnf_rows([[row[j] for row in v] for j in range(r, 6)]),
        transverse_rows=[
            [sum(map(mul, u[i], col)) // diag[i] for col in cols] for i in range(r)
        ],
    )


def enumerate_fixed_points(table: GroupTable, gi: int) -> list[TorusPoint]:
    """All torus points fixed by an elliptic element, in coordinate order."""
    locus = fixed_locus(table, gi)
    if locus.dim:
        raise ParabolicElementError(f"element {gi} is parabolic")
    count, found = fixed_point_count(table, gi), len(locus.translates)
    if found != count:
        raise ConsistencyError(f"element {gi} fixes {found} points, but |det(g - I)| = {count}")
    return locus.translates


def fixed_locus_structure(table: GroupTable, gi: int) -> FixedLocus:
    """The fixed locus of a parabolic element: components, Lambda_1, transverse rows."""
    locus = fixed_locus(table, gi)
    if not locus.dim:
        raise EllipticElementError(f"element {gi} is elliptic; use enumerate_fixed_points")
    return locus


# --- stabilizers of special curves ----------------------------------------------


def _moved_numerators(table: GroupTable, cols: np.ndarray, p: TorusPoint):
    """The products n @ cols on p's numerators n over den, computed exactly.

    cols is a (6, k) matrix whose columns are rows of group matrices g:
    H's rows (``GroupTable.h_columns``), which ``orbits._images`` applies
    once per point, or a stack of matrices passed as
    ``stack.reshape(-1, 6).T``, whose products the caller reshapes to
    (-1, 6).  Numerators lie in [0, den).  int64 serves while no entry of
    g n - n, and so none of g n, can reach 2^63: each row of g - I has
    absolute sum at most 6 max|int6| + 1.  n is then the point's own
    read-only ``int64_nums``, converted once per point.
    Larger denominators use Python integers in object arrays, through the
    same numpy operations.
    """
    den = p.den
    if (6 * table.int6_max_abs + 1) * den < 2**63:
        n = p.int64_nums
        return n @ cols, n, den
    n = np.array(p.nums, dtype=object)
    return n @ cols.astype(object), n, den


def generic_curve_stabilizer(
    table: GroupTable, locus: FixedLocus, translate: TorusPoint
) -> frozenset[int]:
    """Stabilizer in G of a generic point of the curve translate + V_1 of locus.

    g fixes a generic point exactly when it fixes every Lambda_1 row and the
    translate: (g - id)(t + s) lies in Z^6 for s in an open set only if
    g - id vanishes on V_1.  One stacked int64 product tests the Lambda_1
    rows of all of G's matrices: G's entries are at most 2 and those of
    Lambda_1 at most 6 in absolute value on every fixed locus of G (a test
    checks both), so no sum comes near 2^63.  The translate is tested on
    the survivors.
    """
    stack = table.int6_stack
    rows = np.array(locus.lambda1_rows, dtype=np.int64).reshape(-1, 6).T
    kept = np.flatnonzero(np.all(stack @ rows == rows, axis=(1, 2)))
    moved, n, den = _moved_numerators(table, stack[kept].reshape(-1, 6).T, translate)
    return frozenset(kept[np.all((moved.reshape(-1, 6) - n) % den == 0, axis=1)].tolist())


# --- the named point registry --------------------------------------------------


def xi_point(k: int) -> TorusPoint:
    """Half-period number k (bit i of k is the eps_{i+1} coefficient times 2)."""
    if not 0 <= k < 64:
        raise ValueError("half-period index must be in 0..63")
    return TorusPoint([Fraction((k >> i) & 1, 2) for i in range(6)])


def half_periods() -> list[TorusPoint]:
    return [xi_point(k) for k in range(64)]


# the eps coordinates, times 4, of the parts of beta_bbbb: bit i from the left adds part i
_BETA_PARTS = ((0, 2, 0, 2, 0, 0), (0, 2, 0, 0, 0, 0), (0, 1, 2, 0, 2, 0), (2, 0, 0, 3, 0, 2))


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
    return _point([sum(b * part[k] for b, part in zip(bits, _BETA_PARTS)) for k in range(6)], 4)


def omega_point(i: int, j: int) -> TorusPoint:
    """Fixed point of the order-6 cycle: (i/2)(conj(w), conj(w), conj(w)) + j(1,1,1)."""
    if i not in (0, 1) or j not in (0, 1):
        raise ValueError("omega indices are 0 or 1")
    # eps coordinates times 2: i (0, 1, 0, 0, 1, 1) + j (0, 1, 0, 0, 0, 0)
    return _point([0, i + j, 0, 0, i, i], 2)


def eta_point(i: int) -> TorusPoint:
    """Seventh-torsion fixed point of the order-7 element."""
    if not 0 <= i <= 6:
        raise ValueError("eta index must be in 0..6")
    base = (-1, -1, 1, 1, 1, -1)
    return TorusPoint([Fraction(i * b, 7) for b in base])


def kappa_translates(table: GroupTable, gi: int | None = None) -> list[TorusPoint]:
    """Component representatives [0, k1, k2, k3] of an antireflection's fixed locus.

    k3 is the translate class avoiding every reflection mirror, and is
    normalized so that k3 = k1 + k2 holds exactly; k1, k2 are the two
    mirror-borne classes in lexicographic order.
    """
    if gi is None:
        gi = table.named["rho1"]
    if gi not in table.antireflection_set:
        raise ValueError("kappa translates are defined for antireflections")
    locus = fixed_locus_structure(table, gi)
    if locus.component_count != 4:
        raise ConsistencyError(f"antireflection {gi} fixes {locus.component_count} curves, not 4")
    nonzero = [t for t in locus.translates if not t.is_zero()]
    off_mirror = [
        t
        for t in nonzero
        if not generic_curve_stabilizer(table, locus, t) & table.reflection_set
    ]
    if len(off_mirror) != 1:
        raise ConsistencyError(
            f"expected exactly one off-mirror translate class, found {len(off_mirror)}"
        )
    k3_class = off_mirror[0]
    k1, k2 = sorted(t for t in nonzero if t != k3_class)
    k3 = k1 + k2
    if not locus.in_v1_plus_lattice(k3 - k3_class):
        raise ConsistencyError("k1 + k2 does not land in the off-mirror translate class")
    return [ZERO_POINT, k1, k2, k3]


_NAME_RE = re.compile(r"^(xi|beta|omega|eta|kappa)_?([0-9]+)$")


def registry_point(table: GroupTable, name: str) -> TorusPoint:
    """Look up a named torsion point: xi_k, beta_bbbb, omega_ij, eta_i, kappa_i."""
    m = _NAME_RE.match(name.strip())
    if not m:
        raise KeyError(f"unknown point name {name!r}")
    family, idx = m.group(1), m.group(2)
    # every family's indices have at most two digits: a longer index is out
    # of range, and is not converted (Python refuses over 4300 digits)
    digits = idx.lstrip("0") or "0"
    k = int(digits) if len(digits) <= 2 else 100
    if family == "xi":
        return xi_point(k)
    if family == "beta":
        if len(idx) == 4 and set(idx) <= {"0", "1"}:
            return beta_point(idx)
        return beta_point(k)
    if family == "omega":
        if len(idx) != 2:
            raise KeyError(f"omega index must be two bits, got {idx!r}")
        return omega_point(int(idx[0]), int(idx[1]))
    if family == "eta":
        return eta_point(k)
    if not 0 <= k <= 3:  # kappa, the last family the name pattern admits
        raise KeyError("kappa index must be in 0..3")
    return kappa_translates(table)[k]
