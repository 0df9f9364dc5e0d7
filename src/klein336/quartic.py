"""Exact invariance of the quartic form under the group.

In the unitary coordinates used throughout, the invariant quartic is

    x^4 + y^4 + z^4 - 3*conj(w)*(x^2 y^2 + x^2 z^2 + y^2 z^2),

and invariance is checked coefficient by coefficient after exact
substitution of the linear action.  The substitution expands on integer
pairs a + b*w of Z[w], with one common denominator divided out at the end.
"""

from __future__ import annotations

from math import lcm
from typing import Iterator

from .group import GroupTable
from .linalg import Mat3
from .qfield import QNum

Monomial = tuple[int, int, int]


def _degrevlex_key(m: Monomial) -> tuple:
    # descending degree-reverse-lexicographic = ascending lex on reversed exponents
    return (-sum(m), tuple(reversed(m)))


def degree4_monomials() -> list[Monomial]:
    out = [
        (i, j, 4 - i - j)
        for i in range(5)
        for j in range(5 - i)
    ]
    out.sort(key=_degrevlex_key)
    return out


class QuarticForm:
    """A homogeneous degree-4 form in three variables over the field."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: dict[Monomial, QNum]) -> None:
        clean = {}
        for mono, c in coeffs.items():
            if sum(mono) != 4 or len(mono) != 3 or any(e < 0 for e in mono):
                raise ValueError(f"not a degree-4 monomial: {mono}")
            if c:
                clean[mono] = c
        object.__setattr__(self, "coeffs", clean)

    def __setattr__(self, name, value):
        raise AttributeError("QuarticForm is immutable")

    def __eq__(self, other: object) -> bool:
        if isinstance(other, QuarticForm):
            return self.coeffs == other.coeffs
        return NotImplemented

    def __hash__(self) -> int:
        return hash(tuple(sorted(self.coeffs.items(), key=lambda kv: _degrevlex_key(kv[0]))))

    def items(self) -> Iterator[tuple[Monomial, QNum]]:
        for mono in degree4_monomials():
            if mono in self.coeffs:
                yield mono, self.coeffs[mono]

    def __str__(self) -> str:
        parts = []
        for (i, j, k), c in self.items():
            vars_part = "".join(
                f"{v}^{e}" if e > 1 else v
                for v, e in zip("xyz", (i, j, k))
                if e
            )
            parts.append(f"({c})*{vars_part}")
        return " + ".join(parts) if parts else "0"


def klein_quartic() -> QuarticForm:
    minus3ab = QNum(-3, 3)  # -3*conj(w) = -3*(1 - w)
    return QuarticForm(
        {
            (4, 0, 0): QNum(1),
            (0, 4, 0): QNum(1),
            (0, 0, 4): QNum(1),
            (2, 2, 0): minus3ab,
            (2, 0, 2): minus3ab,
            (0, 2, 2): minus3ab,
        }
    )


Pair = tuple[int, int]  # a + b*w in Z[w]
Poly = dict[Monomial, Pair]


def _poly_mul(f: Poly, g: Poly, out: Poly | None = None) -> Poly:
    """f * g, added into out when given."""
    out = {} if out is None else out
    for (i, j, k), (a1, b1) in f.items():
        for (e, f2, h), (a2, b2) in g.items():
            key = (i + e, j + f2, k + h)
            # (a1 + b1 w)(a2 + b2 w) with w^2 = w - 2
            bb = b1 * b2
            a, b = a1 * a2 - 2 * bb, a1 * b2 + b1 * a2 + bb
            prev = out.get(key)
            out[key] = (a, b) if prev is None else (prev[0] + a, prev[1] + b)
    return out


def _scaled_pairs(values: list[QNum]) -> tuple[list[Pair], int]:
    """Integer pairs of values times D, the lcm of their denominators."""
    den = lcm(*(q.d for q in values))
    return [(q.a * (den // q.d), q.b * (den // q.d)) for q in values], den


def act(m: Mat3, form: QuarticForm) -> QuarticForm:
    """Right action (m . F)(v) = F(m v), expanded exactly.

    The expansion runs on Z[w] integer pairs: m is scaled by the lcm D of its
    entry denominators and the form by the lcm E of its coefficient
    denominators, and the result is divided by E * D^4 at the end.
    """
    entries, den = _scaled_pairs([q for row in m.rows for q in row])
    coeffs, cden = _scaled_pairs(list(form.coeffs.values()))
    # powers of the three scaled linear forms (D m v)_r, built on demand
    units = ((1, 0, 0), (0, 1, 0), (0, 0, 1))
    powers = [
        [{(0, 0, 0): (1, 0)}, {u: c for u, c in zip(units, entries[3 * r : 3 * r + 3]) if any(c)}]
        for r in range(3)
    ]
    out: Poly = {}
    for exps, c in zip(form.coeffs, coeffs):
        for pw, e in zip(powers, exps):
            while len(pw) <= e:
                pw.append(_poly_mul(pw[-1], pw[1]))
        x, y, z = (pw[e] for pw, e in zip(powers, exps))
        _poly_mul(_poly_mul({(0, 0, 0): c}, x), _poly_mul(y, z), out)
    scale = cden * den**4
    return QuarticForm({key: QNum.from_ints(a, b, scale) for key, (a, b) in out.items()})


def verify_quartic_invariance(table: GroupTable, generators_only: bool = False) -> bool:
    form = klein_quartic()
    if generators_only:
        indices = [table.named["r1"], table.named["r2"], table.named["r3"]]
    else:
        indices = range(table.size)
    return all(act(table.elements[i].mat, form) == form for i in indices)
