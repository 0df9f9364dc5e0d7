"""Exact arithmetic in the imaginary quadratic field Q(w), w = (1 + i*sqrt(7))/2.

The generator w satisfies w**2 = w - 2, its conjugate is 1 - w, and
w * (1 - w) = 2.  Every value is a reduced integer triple (a, b, d)
representing (a + b*w)/d with d > 0 and gcd(a, b, d) = 1, so equal values
have equal triples; no floating point enters at all.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import gcd
from typing import Union

Rational = Union[int, Fraction]


def _frac_str(f: Fraction) -> str:
    if f.denominator == 1:
        return str(f.numerator)
    return f"{f.numerator}/{f.denominator}"


class QNum:
    """An element x + y*w of Q(w), stored as (a + b*w)/d."""

    __slots__ = ("a", "b", "d")

    def __init__(self, x: Rational = 0, y: Rational = 0) -> None:
        if type(x) is int and type(y) is int:
            a, b, d = x, y, 1
        else:
            x, y = Fraction(x), Fraction(y)
            dx, dy = x.denominator, y.denominator
            d = dx * dy // gcd(dx, dy)
            # both fractions are in lowest terms, so the triple is reduced
            a, b = x.numerator * (d // dx), y.numerator * (d // dy)
        _set_a(self, a)
        _set_b(self, b)
        _set_d(self, d)

    @classmethod
    def from_ints(cls, a: int, b: int, d: int) -> QNum:
        """The value (a + b*w)/d for integers a, b and d != 0."""
        return _reduced(a, b, d)

    @property
    def x(self) -> Fraction:
        return Fraction(self.a, self.d)

    @property
    def y(self) -> Fraction:
        return Fraction(self.b, self.d)

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError("QNum is immutable")

    def __repr__(self) -> str:
        return f"QNum({self.x!r}, {self.y!r})"

    def __str__(self) -> str:
        x, y = self.x, self.y
        if y == 0:
            return _frac_str(x)
        wpart = "w" if abs(y) == 1 else f"{_frac_str(abs(y))}*w"
        if x == 0:
            return wpart if y > 0 else f"-{wpart}"
        sign = "+" if y > 0 else "-"
        return f"{_frac_str(x)}{sign}{wpart}"

    def __eq__(self, other: object) -> bool:
        if isinstance(other, QNum):
            return self.a == other.a and self.b == other.b and self.d == other.d
        if isinstance(other, int):
            return self.b == 0 and self.d == 1 and self.a == other
        if isinstance(other, Fraction):
            return (
                self.b == 0
                and self.d == other.denominator
                and self.a == other.numerator
            )
        return NotImplemented

    def __hash__(self) -> int:
        if self.b == 0:  # equal to a rational, so hash as that rational does
            return hash(Fraction(self.a, self.d))
        return hash((self.a, self.b, self.d))

    def __bool__(self) -> bool:
        return self.a != 0 or self.b != 0

    def __add__(self, other: QNum | Rational) -> QNum:
        if type(other) is not QNum:
            other = _coerce(other)
            if other is None:
                return NotImplemented
        d1, d2 = self.d, other.d
        if d1 == d2:
            if d1 == 1:
                return _raw(self.a + other.a, self.b + other.b, 1)
            return _reduced(self.a + other.a, self.b + other.b, d1)
        return _reduced(self.a * d2 + other.a * d1, self.b * d2 + other.b * d1, d1 * d2)

    __radd__ = __add__

    def __sub__(self, other: QNum | Rational) -> QNum:
        if type(other) is not QNum:
            other = _coerce(other)
            if other is None:
                return NotImplemented
        d1, d2 = self.d, other.d
        if d1 == d2:
            if d1 == 1:
                return _raw(self.a - other.a, self.b - other.b, 1)
            return _reduced(self.a - other.a, self.b - other.b, d1)
        return _reduced(self.a * d2 - other.a * d1, self.b * d2 - other.b * d1, d1 * d2)

    def __rsub__(self, other: QNum | Rational) -> QNum:
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return other - self

    def __neg__(self) -> QNum:
        return _raw(-self.a, -self.b, self.d)

    def __mul__(self, other: QNum | Rational) -> QNum:
        if type(other) is not QNum:
            other = _coerce(other)
            if other is None:
                return NotImplemented
        # (a1 + b1 w)(a2 + b2 w) with w^2 = w - 2
        a1, b1, a2, b2 = self.a, self.b, other.a, other.b
        bb = b1 * b2
        d = self.d * other.d
        if d == 1:
            return _raw(a1 * a2 - 2 * bb, a1 * b2 + b1 * a2 + bb, 1)
        return _reduced(a1 * a2 - 2 * bb, a1 * b2 + b1 * a2 + bb, d)

    __rmul__ = __mul__

    def __truediv__(self, other: QNum | Rational) -> QNum:
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return self * other.inv()

    def __rtruediv__(self, other: QNum | Rational) -> QNum:
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return other * self.inv()

    def __pow__(self, n: int) -> QNum:
        if n < 0:
            return self.inv() ** (-n)
        out = ONE
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def conj(self) -> QNum:
        """Complex conjugate: conj(x + y*w) = (x + y) - y*w."""
        # gcd(a + b, -b, d) = gcd(a, b, d) = 1, so the triple stays reduced
        return _raw(self.a + self.b, -self.b, self.d)

    def norm(self) -> Fraction:
        """Field norm x^2 + xy + 2y^2, a nonnegative rational."""
        a, b, d = self.a, self.b, self.d
        return Fraction(a * a + a * b + 2 * b * b, d * d)

    def inv(self) -> QNum:
        a, b, d = self.a, self.b, self.d
        n = a * a + a * b + 2 * b * b
        if n == 0:
            raise ZeroDivisionError("inverse of zero in Q(w)")
        # conj / norm = ((a + b) - b w) d / n
        return _reduced((a + b) * d, -b * d, n)

    @classmethod
    def parse(cls, text: str) -> QNum:
        """Parse the wire encoding "x+y*w"; inverse of str() bit-exactly."""
        s = text.strip().replace(" ", "")
        if not s:
            raise ValueError("empty QNum literal")
        terms = _TERM_RE.findall(s)
        if "".join(terms) != s:  # a stray sign starts no term
            raise ValueError(f"malformed QNum literal {text!r}")
        x = Fraction(0)
        y = Fraction(0)
        for term in terms:
            if term in ("w", "+w"):
                y += 1
            elif term == "-w":
                y -= 1
            elif term.endswith("*w"):
                y += Fraction(term[:-2])
            else:
                x += Fraction(term)
        return cls(x, y)


_new = object.__new__
_set_a = QNum.a.__set__
_set_b = QNum.b.__set__
_set_d = QNum.d.__set__


def _raw(a: int, b: int, d: int) -> QNum:
    """(a + b*w)/d from a triple that is already reduced with d > 0."""
    q = _new(QNum)
    _set_a(q, a)
    _set_b(q, b)
    _set_d(q, d)
    return q


def _reduced(a: int, b: int, d: int) -> QNum:
    """(a + b*w)/d for any d != 0, brought to lowest terms with d > 0."""
    g = gcd(a, b, d)
    if d < 0:
        g = -g
    if g != 1:
        a //= g
        b //= g
        d //= g
    return _raw(a, b, d)


_TERM_RE = re.compile(r"[+-]?[^+-]+")


def _coerce(value) -> QNum | None:
    if isinstance(value, QNum):
        return value
    if isinstance(value, (int, Fraction)):
        return QNum(value)
    return None


ZERO = QNum(0)
ONE = QNum(1)
MINUS_ONE = QNum(-1)
ALPHA = QNum(0, 1)
ALPHA_BAR = QNum(1, -1)
# i*sqrt(7) = 2w - 1
I_SQRT7 = QNum(-1, 2)

# --- vectors over Q(w) ------------------------------------------------------
#
# A CVec3 is a plain tuple of three QNum values.

CVec3 = tuple[QNum, QNum, QNum]


def vec3(a, b, c) -> CVec3:
    return (_as_qnum(a), _as_qnum(b), _as_qnum(c))


def _as_qnum(v) -> QNum:
    q = _coerce(v)
    if q is None:
        raise TypeError(f"cannot interpret {v!r} as a field element")
    return q


def vscale(s: QNum | Rational, u: CVec3) -> CVec3:
    s = _as_qnum(s)
    return (s * u[0], s * u[1], s * u[2])


def hermitian(x: CVec3, y: CVec3) -> QNum:
    """Hermitian scalar product (x, y) = (1/2) * sum conj(x_i) * y_i."""
    total = ZERO
    for xi, yi in zip(x, y):
        total = total + xi.conj() * yi
    return _reduced(total.a, total.b, 2 * total.d)

