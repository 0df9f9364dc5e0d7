"""Exact invariance of the quartic form under the group.

In the unitary coordinates used throughout, the invariant quartic is

    x^4 + y^4 + z^4 - 3*conj(w)*(x^2 y^2 + x^2 z^2 + y^2 z^2),

and invariance is checked coefficient by coefficient after exact
substitution of the linear action.  The substitution is one batched
expansion for all the matrices at once, on integer pairs a + b*w of Z[w]
in numpy arrays (int64 while a magnitude bound allows, Python integers
beyond it), with one common denominator divided out at the end; ``act``
is its one-matrix case.
"""

from __future__ import annotations

import itertools
from functools import cache
from math import lcm
from typing import Iterator, Sequence

import numpy as np

from .group import GroupTable
from .linalg import _FORWARD, _INVERSE_EVEN_COLS, IDENTITY3, Mat3
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


@cache
def _index_maps() -> tuple[list[Monomial], dict[Monomial, int], np.ndarray]:
    """The degree-4 monomials, and how they sit in a 3x3x3x3 tensor T.

    A form F(v) = sum T[i,j,k,l] v_i v_j v_k v_l puts each coefficient at the
    sorted index tuple of its monomial, ``place``; the 0/1 matrix
    ``collapse`` adds the 81 entries of any T onto the 15 monomials.  Built
    on first use, so that importing the package builds nothing.
    """
    monos = degree4_monomials()
    column = {m: c for c, m in enumerate(monos)}
    place = {
        m: int(np.ravel_multi_index((0,) * m[0] + (1,) * m[1] + (2,) * m[2], (3,) * 4))
        for m in monos
    }
    collapse = np.zeros((81, 15), dtype=np.int64)
    for flat, idx in enumerate(itertools.product(range(3), repeat=4)):
        collapse[flat, column[(idx.count(0), idx.count(1), idx.count(2))]] = 1
    collapse.setflags(write=False)
    return monos, place, collapse


def _pairs(values: Sequence[QNum], den: int) -> list[tuple[int, int]]:
    """The integer pairs (a, b) of den * values, den a multiple of their denominators."""
    return [(q.a * (den // q.d), q.b * (den // q.d)) for q in values]


# matrices a block: each temporary array holds about 20 KB, well below
# glibc's 128 KB mmap threshold, so a batch adds nothing to the peak RSS
_BLOCK = 32


def substitute(mats: Sequence[Mat3], form: QuarticForm) -> tuple[np.ndarray, int]:
    """The forms F(m v), for all the matrices m at once, over one common scale.

    Returns an integer array of shape (len(mats), 15, 2) and a scale s: the
    pair (a, b) at [k, c] means that the c-th monomial of
    ``degree4_monomials()`` has the coefficient (a + b*w)/s in F(m_k v).
    The matrices are scaled by the lcm D of all their entry denominators,
    the form by the lcm E of its coefficient denominators, and s = E * D^4.
    """
    entries = [q for m in mats for row in m.rows for q in row]
    den = lcm(*(q.d for q in entries))
    return _substitute(np.array(_pairs(entries, den), dtype=object).reshape(-1, 3, 3, 2), den, form)


def _substitute(m: np.ndarray, den: int, form: QuarticForm) -> tuple[np.ndarray, int]:
    """``substitute`` on the matrices' Z[w] pairs (k, 3, 3, 2) over den.

    With F as a tensor T (see ``_index_maps``), F(m v) is T with m applied
    to each of its four indices: four stacked products on Z[w] pairs
    (w^2 = w - 2), then one sum onto the monomials.  The entries stay in
    int64 while a bound on every intermediate allows, and are Python
    integers in object arrays beyond it.
    """
    _, place, collapse = _index_maps()
    cden = lcm(*(q.d for q in form.coeffs.values()))
    coeffs = _pairs(form.coeffs.values(), cden)
    size = int(abs(m).sum(axis=-1).max(initial=0))
    csize = max((abs(a) + abs(b) for a, b in coeffs), default=0)
    # a product step multiplies the largest |a| + |b| by at most 9 * size,
    # and a monomial sums at most 12 of the 81 tensor entries
    fits = max(12 * (9 * size) ** 4, den**4) * csize < 2**63
    dtype = np.int64 if fits else object
    m = m.astype(dtype)
    t = np.zeros((2, 81), dtype=dtype)
    for mono, pair in zip(form.coeffs, coeffs):
        t[:, place[mono]] = pair
    out = np.zeros((len(m), 15, 2), dtype=dtype)
    for k in range(0, len(m), _BLOCK):
        out[k : k + _BLOCK] = _contract(t, m[k : k + _BLOCK], collapse)
    return out, cden * den**4


def _contract(t: np.ndarray, m: np.ndarray, collapse: np.ndarray) -> np.ndarray:
    """The pairs (k, 15, 2) of F(m v) for a block m (k, 3, 3, 2) and F's tensor t (2, 81)."""
    ma, mb = m[..., 0], m[..., 1]
    msum = ma + mb
    xa, xb = t[0].reshape(1, 27, 3), t[1].reshape(1, 27, 3)
    for _ in range(4):
        # (xa + xb w)(ma + mb w) on the last index, three products
        aa, bb = xa @ ma, xb @ mb
        xa, xb = aa - 2 * bb, (xa + xb) @ msum - aa
        # the new index moves first and the next one to contract comes last
        xa = xa.transpose(0, 2, 1).reshape(-1, 27, 3)
        xb = xb.transpose(0, 2, 1).reshape(-1, 27, 3)
    return np.stack([xa.reshape(-1, 81) @ collapse, xb.reshape(-1, 81) @ collapse], axis=-1)


def act(m: Mat3, form: QuarticForm) -> QuarticForm:
    """Right action (m . F)(v) = F(m v), expanded exactly: ``substitute`` on m alone."""
    pairs, scale = substitute([m], form)
    return QuarticForm({
        mono: QNum.from_ints(a, b, scale)
        for mono, (a, b) in zip(_index_maps()[0], pairs[0].tolist())
    })


def fixes_form(mats: Sequence[Mat3], form: QuarticForm) -> bool:
    """Is F(m v) = F(v) for every matrix m?  One ``substitute``, with the identity first."""
    pairs, _ = substitute([IDENTITY3, *mats], form)
    return bool((pairs == pairs[0]).all())


def int6_fixes_form(stack: np.ndarray, form: QuarticForm) -> bool:
    """``fixes_form`` on eps-basis matrices, with Z[w] pairs over 2 from one integer product."""
    stack = np.concatenate([np.eye(6, dtype=stack.dtype)[None], stack])
    cm = np.array(_FORWARD) @ stack @ np.array(_INVERSE_EVEN_COLS).T  # [k, 2i + r, j]: m_ij, part r
    pairs, _ = _substitute(cm.reshape(-1, 3, 2, 3).transpose(0, 1, 3, 2), 2, form)
    return bool((pairs == pairs[0]).all())


def verify_quartic_invariance(table: GroupTable, generators_only: bool = False) -> bool:
    """Does every element (or each of the three generators) fix Klein's quartic?"""
    ids = [table.named[r] for r in ("r1", "r2", "r3")] if generators_only else slice(None)
    return int6_fixes_form(table.int6_stack[ids], klein_quartic())
