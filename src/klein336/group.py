"""Construction and combinatorics of the order-336 unitary reflection group.

The group is generated by three reflections r1, r2, r3 whose matrices have
entries in half the ring of integers of Q(w).  ``GroupTable`` closes the
generators' integer 6x6 matrices on the invariant lattice under
multiplication (BFS, fixed generator order, so element ids and witness words
are reproducible).  The multiplication table is filled column by column from
the right-regular permutations of the generators.  Each element fact is
computed once, from the integer matrices and the table: determinants are the
parity of the witness word, traces in Z[w] are read off two integer traces,
the powers of each element (so its order and cyclic subgroup) come from one
walk along its column, and the reflections and antireflections are the
involutions of trace 1 and -1.  Each element's 3x3 matrix over Q(w) is read
back from its integer matrix when first read, and its eigenvalue exponents
on each call, from its powers' traces.

On top of the table live conjugacy classes, the full subgroup lattice of
the determinant-1 subgroup (168 elements, 179 subgroups in 15 conjugacy
classes, by cyclic extension up to conjugacy), normalizers, and the labels
of subgroups.  A subgroup's label is read from a 30-entry table keyed by
its order and its numbers of reflections and antireflections: on all 547
subgroups of G that triple fixes the label, which a test checks against
the rules of the labelling scheme.

G = H x {+-1} with -1 central: classes and normalizers are computed in G
and restricted to H.  ``acting`` reads the selector "G" or "H", and no
other code does; it returns one record of the acting group.
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property, lru_cache
from math import gcd
from operator import itemgetter
from typing import Iterable

import numpy as np

from .linalg import IDENTITY3, Mat3, NonIntegralError, int6_to_mat3, mat3_to_int6
from .qfield import CVec3, MINUS_ONE, QNum, vec3

R1 = Mat3([[1, 0, 0], [0, 0, 1], [0, 1, 0]])
R2 = Mat3([[1, 0, 0], [0, 1, 0], [0, 0, -1]])
_H = Fraction(1, 2)
R3 = Mat3(
    [
        [QNum(_H), QNum(-_H), QNum(0, -_H)],
        [QNum(-_H), QNum(_H), QNum(0, -_H)],
        [QNum(-_H, _H), QNum(-_H, _H), QNum(0)],
    ]
)
# the signed 3-cycle (z1, z2, z3) -> (-z3, -z1, -z2)
C = Mat3([[0, 0, -1], [-1, 0, 0], [0, -1, 0]])
# the eps-basis matrix of w * I: tr g = a + b*w gives tr(int6) = 2a + b, tr(_W6 int6) = a - 3b
_W6 = np.array(mat3_to_int6(IDENTITY3.scale(QNum(0, 1))))


class GroupConstructionError(RuntimeError):
    pass


class ConsistencyError(RuntimeError):
    """A computed result contradicts an exact check."""


class UnrecognizedSubgroupError(ValueError):
    def __init__(self, signature: dict) -> None:
        super().__init__(f"no label matches subgroup signature {signature}")
        self.signature = signature


@dataclass(frozen=True)
class GroupElement:
    index: int
    int6: tuple[tuple[int, ...], ...]
    det: int  # +1 or -1, exact
    word: tuple[int, ...]  # generator indices, BFS-shortest witness
    trace: tuple[int, int]  # (a, b): the trace is a + b*w, exact
    powers: frozenset[int]  # the cyclic subgroup the element generates

    @property
    def order(self) -> int:
        return len(self.powers)

    @cached_property
    def mat(self) -> Mat3:  # the matrix over Q(w), built on first read
        return int6_to_mat3(self.int6)


@dataclass(frozen=True, eq=False)
class ActingGroup:
    """G or H as it acts, from ``GroupTable.acting``.

    Its ids in image order, as an array, and as a set.  Image order is the
    order of the rows of ``orbits._images``: H's ids in id order, then -1
    times each of them, since G = H x {+-1}.  So H's ids are the first 168
    of G's, and the identity comes first in both.  ``trivial``, the set of
    the identity alone, is one object that G and H share: the stabilizer of
    a point that only the identity fixes.
    """

    ids: np.ndarray
    members: frozenset[int]
    trivial: frozenset[int]


@dataclass(frozen=True)
class ConjClass:
    representative: int
    members: tuple[int, ...]
    element_order: int
    det: int


@dataclass(frozen=True)
class SubgroupClass:
    number: int  # 1-based position in the canonical listing
    structure: str
    order: int
    length: int
    representative: frozenset[int]
    members: tuple[frozenset[int], ...]
    maximal: tuple[tuple[int, int], ...] = field(default=())  # (class nr, count)
    minimal_over: tuple[tuple[int, int], ...] = field(default=())


def roots() -> list[CVec3]:
    """The 42 vectors obtained from the three seeds by signed permutations."""
    seeds = [vec3(2, 0, 0), vec3(0, QNum(0, 1), QNum(0, 1)), vec3(1, 1, QNum(1, -1))]
    seen: set[tuple] = set()
    out: list[CVec3] = []
    for seed in seeds:
        for perm in itertools.permutations([(q, -q) for q in seed]):
            for v in itertools.product(*perm):
                # reduced integer triples: equal values have equal keys
                key = tuple((q.a, q.b, q.d) for q in v)
                if key not in seen:
                    seen.add(key)
                    out.append(v)
    out.sort(key=lambda v: tuple((q.x, q.y) for q in v))
    return out


class GroupTable:
    """The closed group: elements, multiplication table, and named members."""

    def __init__(self) -> None:
        gens = (R1, R2, R3)
        if any(m.det() != MINUS_ONE for m in gens):
            raise GroupConstructionError("every generator must have determinant -1")
        gen6 = [np.array(mat3_to_int6(m), dtype=np.int64) for m in gens]
        ident6 = np.eye(6, dtype=np.int64)
        # BFS over the integer matrices, generators in the order r1, r2, r3;
        # elements are keyed by raw bytes and processed in id order, so
        # rperm[g][i], the id of element i times r(g + 1), fills in id order
        stack = [ident6]
        words: list[tuple[int, ...]] = [()]
        parent = [0]
        self._index_of = key_to_idx = {ident6.tobytes(): 0}
        rperm: list[list[int]] = [[], [], []]
        i = 0
        while i < len(stack):
            for g, m in enumerate(gen6):
                prod = stack[i] @ m
                key = prod.tobytes()
                j = key_to_idx.get(key)
                if j is None:
                    j = len(stack)
                    if j == 336:
                        raise GroupConstructionError("generator closure exceeds 336 elements")
                    key_to_idx[key] = j
                    stack.append(prod)
                    words.append(words[i] + (g + 1,))
                    parent.append(i)
                rperm[g].append(j)
            i += 1
        n = len(stack)
        if n != 336:
            raise GroupConstructionError(f"generator closure has {n} elements, expected 336")
        self.size = n

        self.int6_stack = np.array(stack)
        self.int6_max_abs = int(np.abs(self.int6_stack).max())
        int6s = [tuple(map(tuple, m)) for m in self.int6_stack.tolist()]
        # every generator has det -1
        dets = [-1 if len(w) % 2 else 1 for w in words]
        # 3 tr(int6) + tr(_W6 int6) = 7a and tr(int6) - 2 tr(_W6 int6) = 7b
        traces = []
        six = np.trace(self.int6_stack, axis1=1, axis2=2).tolist()
        w_six = np.einsum("ij,kji->k", _W6, self.int6_stack).tolist()
        for i, (s, t) in enumerate(zip(six, w_six)):
            (a, ra), (b, rb) = divmod(3 * s + t, 7), divmod(s - 2 * t, 7)
            if ra or rb:
                raise GroupConstructionError(f"trace of element {i} is not in Z[w]")
            traces.append((a, b))

        # column j of the table: g_i g_j = (g_i g_parent(j)) r_gen(j)
        perm = np.array(rperm, dtype=np.int32)
        mul = np.empty((n, n), dtype=np.int32)
        mul[:, 0] = np.arange(n)
        for j in range(1, n):
            mul[:, j] = perm[words[j][-1] - 1][mul[:, parent[j]]]
        self.mul = mul
        # the table as nested lists, so that element walks index Python ints;
        # the rows share the int objects of ids (ints above 256 are not cached)
        ids = list(range(n))
        self.mul_list: list[list[int]] = [list(itemgetter(*row.tolist())(ids)) for row in mul]
        self.identity = 0
        self.inv = mul.argmin(axis=1).astype(np.int32)

        # the walk i, i^2, ... down i's column of the table ends at the identity
        rows = self.mul_list
        powers = []
        for i in range(n):
            acc, seen = i, [i]
            while acc != 0:
                acc = rows[acc][i]
                seen.append(acc)
            powers.append(frozenset(seen))

        self.elements: list[GroupElement] = [
            GroupElement(i, int6s[i], dets[i], words[i], traces[i], powers[i]) for i in range(n)
        ]

        self.minus_one = key_to_idx[(-ident6).tobytes()]
        self.h_indices = tuple(i for i in range(n) if dets[i] == 1)
        self.g_set, self.h_set = frozenset(range(n)), frozenset(self.h_indices)
        # the rows of H's matrices as the columns of one C-contiguous (6, 1008)
        # matrix: n @ h_columns is every h n at once, h after h (orbits._images)
        h_list = list(self.h_indices)
        self.h_columns = np.ascontiguousarray(self.int6_stack[h_list].reshape(-1, 6).T)
        self.minus_identity = self.int6_stack - ident6  # g - I for every g in G
        g_ids = np.array(h_list + self.mul[self.minus_one, h_list].tolist())
        trivial = frozenset((self.identity,))
        self._acting = {
            "G": ActingGroup(g_ids, self.g_set, trivial),
            "H": ActingGroup(g_ids[: len(h_list)], self.h_set, trivial),
        }
        # the last point's images (``orbits._images``): one entry, replaced whole
        self.last_images: tuple = (None, None, None)
        # an involution of trace 1 has eigenvalues (1, 1, -1): a reflection;
        # one of trace -1 has (-1, -1, 1): an antireflection (Shephard and Todd 1954)
        involutions = [el for el in self.elements if el.order == 2]
        refl = [el.index for el in involutions if el.trace == (1, 0)]
        antirefl = [el.index for el in involutions if el.trace == (-1, 0)]
        self.reflections = tuple(refl)
        self.antireflections = tuple(antirefl)
        self.reflection_set = frozenset(refl)
        self.antireflection_set = frozenset(antirefl)
        if len(refl) != 21 or len(antirefl) != 21:
            raise GroupConstructionError(
                f"found {len(refl)} reflections / {len(antirefl)} antireflections"
            )

        self.named = self._build_named_registry([key_to_idx[m.tobytes()] for m in gen6])
        self.derived: dict = {}  # results computed once per table: the lattice, loci, germs

    # --- elementary queries ---------------------------------------------

    def index_of_mat(self, mat: Mat3) -> int:
        try:
            return self._index_of[np.array(mat3_to_int6(mat), np.int64).tobytes()]
        except (KeyError, NonIntegralError, OverflowError):  # off the lattice, or beyond int64
            raise KeyError("matrix is not an element of the group") from None

    def multiply(self, i: int, j: int) -> int:
        return self.mul_list[i][j]

    def conjugate(self, g: int, x: int) -> int:
        rows = self.mul_list
        return rows[rows[g][x]][int(self.inv[g])]

    def power(self, i: int, k: int) -> int:
        rows = self.mul_list
        acc = self.identity
        for _ in range(k):
            acc = rows[acc][i]
        return acc

    def product(self, ids: Iterable[int]) -> int:
        rows = self.mul_list
        acc = self.identity
        for i in ids:
            acc = rows[acc][i]
        return acc

    def exponents(self, g: int) -> tuple[int, ...]:
        """The eigenvalues exp(2 pi i k/r) of g on C^3 as sorted k in [0, r), r = g's order.

        Counted on each call, and kept nowhere, from g's powers and their traces.
        For m dividing r, the subgroup of S = <g> of order r/m fixes exactly the
        eigenvalues of order dividing m; its average int6 trace (2a + b for
        a + b*w) is twice their number, so subtracting the divisors' counts leaves
        the number of exact order m.  Over Q(w) these fill whole blocks: all j r/m
        with gcd(j, m) = 1 when 7 does not divide m, since Q(exp(2 pi i/m)) meets
        Q(w) in Q, else j = 1, 2, 4 mod 7 or the other three.  As zeta + zeta^2 +
        zeta^4 = w - 1 for zeta = exp(2 pi i/7), and -zeta^j = exp(2 pi i (2j + 7)/14),
        the first is g's block when its trace is w - 1 (order 7) or 1 - w (order 14).
        """
        els = self.elements
        el, r = els[g], els[g].order
        sevenths = (1, 2, 4) if el.trace in ((-1, 1), (1, -1)) else (3, 5, 6)
        counts: dict[int, int] = {}
        exponents: list[int] = []
        for m in (m for m in range(1, r + 1) if r % m == 0):
            traces = [els[i].trace for i in el.powers if r // m % els[i].order == 0]
            fixed, rem = divmod(sum(2 * a + b for a, b in traces), 2 * r // m)
            if rem:
                raise ConsistencyError(f"an averaged trace of S of order {r} is not whole")
            counts[m] = fixed - sum(n for k, n in counts.items() if m % k == 0)
            block = [j * r // m for j in range(m) if gcd(j, m) == 1 and (m % 7 or j % 7 in sevenths)]
            copies, extra = divmod(counts[m], len(block))
            if extra or copies < 0:
                raise ConsistencyError(f"{counts[m]} eigenvalues of order {m} fill no whole block")
            exponents += block * copies
        if len(exponents) != 3:
            raise ConsistencyError(f"cyclic S of order {r} has eigenvalue exponents {exponents}")
        return tuple(sorted(exponents))

    def _build_named_registry(self, gen_ids: list[int]) -> dict[str, int]:
        """r1, r2 and r3 by their BFS ids, c by its matrix, the rest by their words."""
        named = dict(zip(("r1", "r2", "r3"), gen_ids), m1=self.minus_one, c=self.index_of_mat(C))
        for name, word in _NAMED_WORDS.items():
            named[name] = self.product(named[x] for x in word)
        for name, want in _NAMED_ORDERS.items():
            got = self.elements[named[name]].order
            if got != want:
                raise GroupConstructionError(
                    f"named element {name} has order {got}, expected {want}"
                )
        return named

    def acting(self, quotient: str) -> ActingGroup:
        """G or H, for the selector "G" or "H": the one place a selector is read."""
        try:
            return self._acting[quotient]
        except (KeyError, TypeError):  # TypeError: an unhashable selector
            raise ValueError(f"unknown group selector {quotient!r}; use 'G' or 'H'") from None

    # --- subgroup machinery ------------------------------------------------

    def subgroup_closure(self, gens: Iterable[int]) -> frozenset[int]:
        """The subgroup generated by gens: ``closure_from`` the trivial subgroup."""
        return self.closure_from(frozenset((self.identity,)), gens)

    def closure_from(self, known: frozenset[int], gens: Iterable[int]) -> frozenset[int]:
        """The subgroup generated by gens, by BFS from a subgroup ``known`` of it.

        The closure lies in H if the generators do, else in G: call that the
        ambient group A.  Its order is a multiple of |known| (Lagrange), so
        once the BFS has seen more elements than the largest order of a
        proper subgroup of A that |known| divides, the closure is A.  In H
        those orders are ``_H_SUBGROUP_ORDERS``, which ``all_subgroups_of_h``
        checks, so no extension in H walks past 24 elements; in G the bound
        is the largest proper divisor of |G| that |known| divides.
        """
        gens = list(gens)
        if self.h_set.issuperset(gens):
            ambient = self.h_set
            bound = max((k for k in _H_SUBGROUP_ORDERS if k % len(known) == 0), default=len(known))
        else:
            ambient = self.g_set
            index = len(ambient) // len(known)
            smallest_prime = next((p for p in range(2, index + 1) if index % p == 0), 1)
            bound = len(ambient) // smallest_prime
        seen = set(known)
        rows = self.mul_list
        # known is closed under its own elements, so its first step takes only the others
        frontier, step = known, [g for g in gens if g not in known]
        while frontier:
            nxt = []
            for x in frontier:
                row = rows[x]
                for g in step:
                    y = row[g]
                    if y not in seen:
                        seen.add(y)
                        if len(seen) > bound:
                            return ambient
                        nxt.append(y)
            frontier, step = nxt, gens
        return frozenset(seen)

    def conjugate_subgroup(self, g: int, s: frozenset[int]) -> frozenset[int]:
        rows = self.mul_list
        row_g, g_inv = rows[g], int(self.inv[g])
        return frozenset(row_g[rows[x][g_inv]] for x in s)

    def conjugacy_classes(self, quotient: str = "G") -> list[ConjClass]:
        """The classes of G, or those lying in H, each led by its least id.

        -1 is central, so conjugation by -h is conjugation by h: the classes
        of H are the classes of G inside H, with the same representatives.
        """
        keep = self.acting(quotient).members
        every = np.arange(self.size)
        seen: set[int] = set()
        classes: list[ConjClass] = []
        for x in range(self.size):
            if x in seen:
                continue
            members = sorted(set(self.mul[every, self.mul[x, self.inv]].tolist()))
            seen.update(members)
            if x in keep:
                el = self.elements[x]
                classes.append(ConjClass(x, tuple(members), el.order, el.det))
        classes.sort(key=lambda c: (c.element_order, -c.det, c.representative))
        return classes

    def normalizer(self, s: frozenset[int]) -> frozenset[int]:
        """N_G(s); its part in H, ``normalizer(s) & h_set``, is N_H(s)."""
        return frozenset(g for g in range(self.size) if self.conjugate_subgroup(g, s) == s)

    def cyclic_subgroups(self) -> list[tuple[frozenset[int], int]]:
        """All cyclic subgroups of H, with a generator witness.

        Each <g> is the set of g's powers, kept by the build.
        """
        seen: dict[frozenset[int], int] = {}
        for g in self.h_indices:
            seen.setdefault(self.elements[g].powers, g)
        return sorted(seen.items(), key=lambda kv: (len(kv[0]), sorted(kv[0])))

    def all_subgroups_of_h(self) -> list[SubgroupClass]:
        """Every subgroup of the determinant-1 subgroup, as conjugacy classes.

        Cyclic extension up to conjugacy (Holt, Eick and O'Brien, Handbook of
        Computational Group Theory, 2005): seed with the classes of cyclic
        subgroups, then adjoin each cyclic generator to one representative
        of each class, and add the whole class of every new closure.  Any
        subgroup T is reached: T = <S, x> for a maximal subgroup S of T, and
        if S = hRh^-1 for a representative R, then h^-1 T h = <R, h^-1 x h>.
        """
        if "lattice" in self.derived:
            return self.derived["lattice"]

        cyclic = self.cyclic_subgroups()
        known: set[frozenset[int]] = set()
        raw_classes: list[list[frozenset[int]]] = []
        pending: list[tuple[frozenset[int], tuple[int, ...]]] = []
        # r1 r2 and r1 r3 generate the words of even length in r1, r2, r3: all of H
        h_gens = [self.multiply(self.named["r1"], self.named[r]) for r in ("r2", "r3")]
        if self.subgroup_closure(h_gens) != self.h_set:
            raise GroupConstructionError("r1 r2 and r1 r3 do not generate H")

        def add_class(rep: frozenset[int], gens: tuple[int, ...]) -> None:
            orbit, new = {rep}, {rep}  # rep's class in H: BFS under conjugation by h_gens
            while new:
                new = {self.conjugate_subgroup(g, s) for s in new for g in h_gens} - orbit
                orbit |= new
            known.update(orbit)
            raw_classes.append(sorted(orbit, key=lambda x: sorted(x)))
            pending.append((rep, gens))

        for sub, gen in cyclic:
            if sub not in known:
                add_class(sub, (gen,) if gen != self.identity else ())
        h_order = len(self.h_indices)
        while pending:
            rep, base_gens = pending.pop()
            if len(rep) == h_order:
                continue
            for _, cgen in cyclic:
                if cgen in rep:
                    continue
                t = self.closure_from(rep, base_gens + (cgen,))
                if t not in known:
                    add_class(t, base_gens + (cgen,))

        # closure_from cuts extensions off by these orders, so each must be listed
        for ms in raw_classes:
            if len(ms[0]) != h_order and len(ms[0]) not in _H_SUBGROUP_ORDERS:
                raise GroupConstructionError(
                    f"a subgroup of H has order {len(ms[0])}, outside {_H_SUBGROUP_ORDERS}"
                )
        # canonical listing: decreasing order, then class length, then rep key
        raw_classes.sort(
            key=lambda ms: (-len(ms[0]), len(ms), sorted(ms[0]))
        )
        all_subs = [s for ms in raw_classes for s in ms]
        class_of: dict[frozenset[int], int] = {}
        for nr, ms in enumerate(raw_classes, start=1):
            for s in ms:
                class_of[s] = nr

        classes: list[SubgroupClass] = []
        for nr, ms in enumerate(raw_classes, start=1):
            rep = ms[0]
            # members of below lie below rep, and of above above it: one test covers
            below = [s for s in all_subs if len(s) < len(rep) and s < rep]
            above = [t for t in all_subs if len(t) > len(rep) and rep < t]
            maximal = Counter(class_of[s] for s in below if not any(s < u for u in below))
            minover = Counter(class_of[t] for t in above if not any(u < t for u in above))
            classes.append(
                SubgroupClass(
                    number=nr,
                    structure=self.structure_name(rep),
                    order=len(rep),
                    length=len(ms),
                    representative=rep,
                    members=tuple(ms),
                    maximal=tuple(sorted(maximal.items())),
                    minimal_over=tuple(sorted(minover.items())),
                )
            )
        self.derived["lattice"] = classes
        return classes

    # --- recognition ---------------------------------------------------------

    def recognize(self, s: frozenset[int]) -> str:
        """Name a subgroup by the scheme used for stabilizers of the action.

        The label is one lookup of (order, reflections, antireflections) in
        ``_LABELS``.  This relies on a fact of G, which a test checks against
        the rules of the scheme (element orders, -1, determinants,
        commutativity) on all 547 subgroups of G: their triples take 30
        distinct values, and subgroups with the same triple have the same label.
        """
        key = (len(s), len(s & self.reflection_set), len(s & self.antireflection_set))
        try:
            return _LABELS[key]
        except KeyError:
            raise UnrecognizedSubgroupError(
                dict(zip(("order", "reflections", "antireflections"), key))
            ) from None

    def structure_name(self, s: frozenset[int]) -> str:
        """Subgroup-table structure string for subgroups of the det-1 part."""
        label = self.recognize(s)
        return _STRUCTURE_NAMES.get(label, label)

    def verify_presentation(self) -> bool:
        n = self.named
        r1, r2, r3 = n["r1"], n["r2"], n["r3"]
        e = self.identity
        rel = [
            self.power(r1, 2),
            self.power(r2, 2),
            self.power(r3, 2),
            self.power(self.product([r1, r2]), 4),
            self.power(self.product([r2, r3]), 4),
            self.power(self.product([r3, r1]), 3),
            self.power(self.product([r1, r2, r1, r3]), 3),
        ]
        return all(x == e for x in rel)

    def export_elements(self) -> list[dict]:
        """JSON-ready element table (stable ordering and key layout)."""
        out = []
        for el in self.elements:
            out.append(
                {
                    "id": el.index,
                    "word": list(el.word),
                    "order": el.order,
                    "det": el.det,
                    "mat": el.mat.to_strings(),
                    "int6": [x for row in el.int6 for x in row],
                }
            )
        return out


# the named elements after r1, r2, r3, m1 and c, as words in those before them
_NAMED_WORDS = {
    "rho1": ("m1", "r1"),
    "rho2": ("m1", "r2"),
    "rho3": ("m1", "r3"),
    "g7": ("rho1", "rho2", "rho3"),
    "h3": ("rho1", "rho3", "rho1", "rho2"),
    "h4": ("rho1", "rho2"),
    "h4p": ("m1", "r1", "r2"),
    "c3": ("m1", "c"),
}
_NAMED_ORDERS = {
    "rho1": 2, "rho2": 2, "rho3": 2, "g7": 7, "h3": 3, "h4": 4, "h4p": 4,
    "c": 6, "c3": 3, "m1": 2, "r1": 2, "r2": 2, "r3": 2,
}

# the orders of the proper subgroups of H = PSL(2, 7), the cut-offs of closure_from
_H_SUBGROUP_ORDERS = (1, 2, 3, 4, 6, 7, 8, 12, 21, 24)

# (order, reflections, antireflections) -> label, for every subgroup of G; one order a line
_LABELS = {
    (1, 0, 0): "1",
    (2, 0, 0): "±1", (2, 0, 1): "C2-antirefl", (2, 1, 0): "C2-refl",
    (3, 0, 0): "C3",
    (4, 0, 1): "C4", (4, 0, 3): "2^2", (4, 1, 1): "C2xC2'", (4, 2, 1): "2^2",
    (6, 0, 0): "C6", (6, 0, 3): "S3", (6, 3, 0): "S3'",
    (7, 0, 0): "C7",
    (8, 0, 5): "D8", (8, 1, 1): "±4", (8, 2, 3): "D8'", (8, 3, 3): "±2^2", (8, 4, 1): "D8'",
    (12, 0, 3): "A4", (12, 3, 3): "±S3",
    (14, 0, 0): "C14",
    (16, 5, 5): "±D8",
    (21, 0, 0): "7:3",
    (24, 0, 9): "S4", (24, 3, 3): "±A4", (24, 6, 3): "S4'",
    (42, 0, 0): "±7:3",
    (48, 9, 9): "±S4",
    (168, 0, 21): "H168",
    (336, 21, 21): "G336",
}

_STRUCTURE_NAMES = {
    "H168": "L2(7)",
    "S4": "2^2:S3",
    "7:3": "7:3",
    "A4": "A4",
    "D8": "D8",
    "C7": "7",
    "S3": "S3",
    "2^2": "2^2",
    "C4": "4",
    "C3": "3",
    "C2-antirefl": "2",
    "1": "1",
}


@lru_cache(maxsize=1)
def get_group() -> GroupTable:
    """The shared group table: built on the first call, then returned by every call.

    ``GroupTable()`` builds a new table, with nothing in ``derived``.
    """
    return GroupTable()
