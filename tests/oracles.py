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
  no numpy and hence no overflow.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import lcm
from typing import Sequence

from klein336.linalg import EPS_VECTORS, NonIntegralError, rat_inverse
from klein336.qfield import QNum

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
