"""Exact stabilizers and orbits of torsion points, independent of the numpy path.

A torsion point x in (Q/Z)^6 is fixed by a group element g exactly when
(g - 1) x lies in Z^6.  The oracle brings the point's Fraction coordinates to
their common denominator d and tests (g - 1) n = 0 (mod d) on the integer
numerators n in unbounded Python integers, so no denominator can overflow.
Orbits apply each element's eps-basis matrix to the Fraction coordinates.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import Sequence

Coords = tuple[Fraction, ...]


def reduce(coords: Sequence[Fraction | int]) -> Coords:
    """Canonical coordinates in [0, 1)."""
    return tuple(Fraction(c) % 1 for c in coords)


class StabilizerOracle:
    """Stabilizers and orbits from the 6x6 integer matrices of the elements."""

    def __init__(self, int6_matrices: Sequence[Sequence[Sequence[int]]]) -> None:
        # each row keeps only its nonzero (column, entry) pairs
        self._rows = [
            tuple(tuple((j, a) for j, a in enumerate(row) if a) for row in m)
            for m in int6_matrices
        ]
        self.order = len(self._rows)

    def _fixes(self, g: int, nums: list[int], den: int) -> bool:
        for i, row in enumerate(self._rows[g]):
            if (sum(a * nums[j] for j, a in row) - nums[i]) % den:
                return False
        return True

    def stabilizer(self, coords: Sequence[Fraction]) -> frozenset[int]:
        coords = reduce(coords)
        den = lcm(*(c.denominator for c in coords))
        nums = [c.numerator * (den // c.denominator) for c in coords]
        return frozenset(g for g in range(self.order) if self._fixes(g, nums, den))

    def apply(self, g: int, coords: Sequence[Fraction]) -> Coords:
        return tuple(
            sum((a * coords[j] for j, a in row), Fraction(0)) % 1 for row in self._rows[g]
        )

    def orbit(self, coords: Sequence[Fraction]) -> set[Coords]:
        return {self.apply(g, coords) for g in range(self.order)}
