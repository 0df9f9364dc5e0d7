"""Construction and combinatorics of the order-336 unitary reflection group.

The group is generated by three reflections r1, r2, r3 whose matrices have
entries in half the ring of integers of Q(w).  ``build_group`` closes the
generators under multiplication (BFS, fixed generator order, so element ids
and witness words are reproducible), caches each element's integer 6x6
matrix on the invariant lattice, and precomputes the multiplication table.

On top of the table live conjugacy classes, the full subgroup lattice of
the determinant-1 subgroup (168 elements, 179 subgroups in 15 conjugacy
classes), normalizers, and a signature-based recognizer that names every
subgroup the torus action can produce.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from typing import Iterable, Sequence

import numpy as np

from .linalg import IDENTITY3, Mat3, kernel_K, mat3_to_int6
from .qfield import CVec3, MINUS_ONE, ONE, QNum, vec3

GENERATOR_ORDER = (1, 2, 3)

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


class GroupConstructionError(RuntimeError):
    pass


class UnrecognizedSubgroupError(ValueError):
    def __init__(self, signature: dict) -> None:
        super().__init__(f"no recognition rule matches subgroup signature {signature}")
        self.signature = signature


@dataclass(frozen=True)
class GroupElement:
    index: int
    mat: Mat3
    int6: tuple[tuple[int, ...], ...]
    det: int  # +1 or -1, exact
    order: int
    word: tuple[int, ...]  # generator indices, BFS-shortest witness

    def __str__(self) -> str:
        w = ".".join(f"r{i}" for i in self.word) if self.word else "e"
        return f"g{self.index}[{w}]"


@dataclass(frozen=True)
class ConjClass:
    representative: int
    members: tuple[int, ...]
    element_order: int
    det: int


@dataclass
class Subgroup:
    """A subgroup given by its element ids inside a fixed group table."""

    table: "GroupTable"
    elements: frozenset[int]

    def __post_init__(self) -> None:
        self.order = len(self.elements)

    @property
    def label(self) -> str:
        return self.table.recognize(self.elements)

    @property
    def contains_minus_one(self) -> bool:
        return self.table.minus_one in self.elements

    @property
    def reflection_count(self) -> int:
        return len(self.elements & self.table.reflection_set)

    def sorted_elements(self) -> list[int]:
        return sorted(self.elements)


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
        for perm in itertools.permutations(range(3)):
            for signs in itertools.product((1, -1), repeat=3):
                v = tuple(
                    QNum(signs[i] * seed[perm[i]].x, signs[i] * seed[perm[i]].y)
                    for i in range(3)
                )
                key = _vec_key(v)
                if key not in seen:
                    seen.add(key)
                    out.append(v)  # type: ignore[arg-type]
    out.sort(key=_vec_key)
    return out


def _vec_key(v: Sequence[QNum]) -> tuple:
    return tuple((q.x, q.y) for q in v)


def _mat_key(mat: Mat3) -> tuple:
    """Interning key: the reduced integer triples of the nine entries."""
    return tuple((q.a, q.b, q.d) for row in mat.rows for q in row)


def positive_roots() -> list[CVec3]:
    """One root from each +/- pair: the lexicographically larger one."""
    chosen = []
    for e in roots():
        if _vec_key(e) > _vec_key(tuple(-q for q in e)):
            chosen.append(e)
    return chosen


class GroupTable:
    """The closed group: elements, multiplication table, and named members."""

    def __init__(self) -> None:
        gens = {1: R1, 2: R2, 3: R3}
        index_of: dict[tuple, int] = {}
        elements: list[dict] = []

        def intern(mat: Mat3, word: tuple[int, ...]) -> tuple[int, bool]:
            key = _mat_key(mat)
            if key in index_of:
                return index_of[key], False
            idx = len(elements)
            index_of[key] = idx
            elements.append({"mat": mat, "word": word})
            return idx, True

        intern(IDENTITY3, ())
        queue = [0]
        while queue:
            nxt: list[int] = []
            for i in queue:
                base = elements[i]
                for gi in GENERATOR_ORDER:
                    prod = base["mat"] * gens[gi]
                    idx, new = intern(prod, base["word"] + (gi,))
                    if new:
                        nxt.append(idx)
            queue = nxt
        if len(elements) != 336:
            raise GroupConstructionError(
                f"generator closure has {len(elements)} elements, expected 336"
            )

        int6s = []
        dets = []
        for rec in elements:
            mat: Mat3 = rec["mat"]
            int6s.append(mat3_to_int6(mat))
            d = mat.det()
            if d == ONE:
                dets.append(1)
            elif d == MINUS_ONE:
                dets.append(-1)
            else:
                raise GroupConstructionError(f"element determinant {d} is not +/-1")

        self.int6_stack = np.array(int6s, dtype=np.int64)
        self.int6_max_abs = int(np.abs(self.int6_stack).max())
        self._index_of = index_of
        n = len(elements)
        self.size = n

        # multiplication table via the faithful integer representation; each
        # 6x6 matrix is keyed by its raw bytes
        stack = self.int6_stack
        as_bytes = np.dtype((np.void, stack[0].nbytes))

        def keys(mats: np.ndarray) -> list[bytes]:
            return np.ascontiguousarray(mats).reshape(n, -1).view(as_bytes).ravel().tolist()

        key_to_idx = {k: i for i, k in enumerate(keys(stack))}
        # the table as nested lists, so that element walks index Python ints
        self.mul_list: list[list[int]] = [
            [key_to_idx[k] for k in keys(stack[i] @ stack)] for i in range(n)
        ]
        mul = np.array(self.mul_list, dtype=np.int32)
        self.mul = mul
        self.identity = 0
        inv = np.empty(n, dtype=np.int32)
        for i in range(n):
            inv[i] = int(np.nonzero(mul[i] == 0)[0][0])
        self.inv = inv

        rows = self.mul_list
        orders = []
        for i in range(n):
            k, acc = 1, i
            while acc != 0:
                acc = rows[acc][i]
                k += 1
            orders.append(k)

        self.elements: list[GroupElement] = [
            GroupElement(
                index=i,
                mat=elements[i]["mat"],
                int6=int6s[i],
                det=dets[i],
                order=orders[i],
                word=elements[i]["word"],
            )
            for i in range(n)
        ]

        self.minus_one = self.index_of_mat(-IDENTITY3)
        self.h_indices = tuple(i for i in range(n) if dets[i] == 1)
        self.h_mask = np.zeros(n, dtype=bool)
        self.h_mask[list(self.h_indices)] = True
        refl = []
        antirefl = []
        for el in self.elements:
            if el.order != 2:
                continue
            if el.det == -1 and len(kernel_K(el.mat - IDENTITY3)) == 2:
                refl.append(el.index)
            elif el.det == 1 and len(kernel_K(el.mat + IDENTITY3)) == 2:
                antirefl.append(el.index)
        self.reflections = tuple(refl)
        self.antireflections = tuple(antirefl)
        self.reflection_set = frozenset(refl)
        if len(refl) != 21 or len(antirefl) != 21:
            raise GroupConstructionError(
                f"found {len(refl)} reflections / {len(antirefl)} antireflections"
            )

        self.named = self._build_named_registry()
        self._subgroup_lattice: list[SubgroupClass] | None = None

    # --- elementary queries ---------------------------------------------

    def index_of_mat(self, mat: Mat3) -> int:
        idx = self._index_of.get(_mat_key(mat))
        if idx is None:
            raise KeyError("matrix is not an element of the group")
        return idx

    def element(self, i: int) -> GroupElement:
        return self.elements[i]

    def multiply(self, i: int, j: int) -> int:
        return self.mul_list[i][j]

    def inverse(self, i: int) -> int:
        return int(self.inv[i])

    def conjugate(self, g: int, x: int) -> int:
        rows = self.mul_list
        return rows[rows[g][x]][int(self.inv[g])]

    def power(self, i: int, k: int) -> int:
        if k < 0:
            return self.power(self.inverse(i), -k)
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

    def _build_named_registry(self) -> dict[str, int]:
        r1 = self.index_of_mat(R1)
        r2 = self.index_of_mat(R2)
        r3 = self.index_of_mat(R3)
        m1 = self.minus_one
        mul = self.multiply
        named = {
            "r1": r1,
            "r2": r2,
            "r3": r3,
            "m1": m1,
            "rho1": mul(m1, r1),
            "rho2": mul(m1, r2),
            "rho3": mul(m1, r3),
        }
        named["g7"] = self.product([named["rho1"], named["rho2"], named["rho3"]])
        named["h3"] = self.product(
            [named["rho1"], named["rho3"], named["rho1"], named["rho2"]]
        )
        named["h4"] = mul(named["rho1"], named["rho2"])
        named["h4p"] = mul(m1, self.product([r1, r2]))
        # signed 3-cycle (z1, z2, z3) -> (-z3, -z1, -z2)
        named["c"] = self.index_of_mat(
            Mat3([[0, 0, -1], [-1, 0, 0], [0, -1, 0]])
        )
        named["c3"] = mul(m1, named["c"])
        expected_orders = {
            "rho1": 2,
            "rho2": 2,
            "rho3": 2,
            "g7": 7,
            "h3": 3,
            "h4": 4,
            "h4p": 4,
            "c": 6,
            "c3": 3,
            "m1": 2,
            "r1": 2,
            "r2": 2,
            "r3": 2,
        }
        for name, want in expected_orders.items():
            got = self.elements[named[name]].order
            if got != want:
                raise GroupConstructionError(
                    f"named element {name} has order {got}, expected {want}"
                )
        return named

    def subset_indices(self, quotient: str) -> tuple[int, ...]:
        if quotient == "G":
            return tuple(range(self.size))
        if quotient == "H":
            return self.h_indices
        raise ValueError(f"unknown group selector {quotient!r}; use 'G' or 'H'")

    # --- subgroup machinery ------------------------------------------------

    def subgroup_closure(self, gens: Iterable[int]) -> frozenset[int]:
        gens = [g for g in gens]
        seen = {self.identity}
        frontier = [self.identity]
        rows = self.mul_list
        while frontier:
            nxt = []
            for x in frontier:
                row = rows[x]
                for g in gens:
                    y = row[g]
                    if y not in seen:
                        seen.add(y)
                        nxt.append(y)
            frontier = nxt
        return frozenset(seen)

    def conjugate_subgroup(self, g: int, s: frozenset[int]) -> frozenset[int]:
        rows = self.mul_list
        row_g, g_inv = rows[g], int(self.inv[g])
        return frozenset(row_g[rows[x][g_inv]] for x in s)

    def conjugacy_classes(self, quotient: str = "G") -> list[ConjClass]:
        subset = self.subset_indices(quotient)
        arr = np.asarray(subset, dtype=np.int64)
        seen: set[int] = set()
        classes: list[ConjClass] = []
        for x in subset:
            if x in seen:
                continue
            conj = self.mul[arr, self.mul[x, self.inv[arr]]]
            members = sorted(set(int(v) for v in conj))
            seen.update(members)
            el = self.elements[x]
            classes.append(
                ConjClass(
                    representative=x,
                    members=tuple(members),
                    element_order=el.order,
                    det=el.det,
                )
            )
        classes.sort(key=lambda c: (c.element_order, -c.det, c.representative))
        return classes

    def normalizer(self, s: frozenset[int], quotient: str = "G") -> frozenset[int]:
        subset = self.subset_indices(quotient)
        out = [g for g in subset if self.conjugate_subgroup(g, s) == s]
        return frozenset(out)

    def cyclic_subgroups(self, quotient: str = "H") -> list[tuple[frozenset[int], int]]:
        """All cyclic subgroups of the chosen group, with a generator witness."""
        subset = self.subset_indices(quotient)
        seen: dict[frozenset[int], int] = {}
        for g in subset:
            sub = self.subgroup_closure([g])
            if sub not in seen:
                seen[sub] = g
        return sorted(seen.items(), key=lambda kv: (len(kv[0]), sorted(kv[0])))

    def all_subgroups_of_h(self) -> list[SubgroupClass]:
        """Every subgroup of the determinant-1 subgroup, as conjugacy classes.

        Fixpoint closure: seed with the cyclic subgroups, then repeatedly
        adjoin a cyclic generator to each known subgroup.  Any subgroup is
        reached this way, because a proper subgroup of its closure extends
        by some cyclic subgroup it does not contain.
        """
        if self._subgroup_lattice is not None:
            return self._subgroup_lattice

        cyclic = self.cyclic_subgroups("H")
        gens_of: dict[frozenset[int], tuple[int, ...]] = {}
        pending: list[frozenset[int]] = []
        for sub, gen in cyclic:
            gens_of[sub] = (gen,) if gen != self.identity else ()
            pending.append(sub)
        h_order = len(self.h_indices)
        while pending:
            nxt: list[frozenset[int]] = []
            for s in pending:
                if len(s) == h_order:
                    continue
                base_gens = gens_of[s]
                for csub, cgen in cyclic:
                    if cgen in s:
                        continue
                    t = self.subgroup_closure(base_gens + (cgen,))
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
            orbit = {s}
            for g in self.h_indices:
                orbit.add(self.conjugate_subgroup(g, s))
            raw_classes.append(sorted(orbit, key=lambda x: sorted(x)))
            unclassified -= orbit

        # canonical listing: decreasing order, then class length, then rep key
        raw_classes.sort(
            key=lambda ms: (-len(ms[0]), len(ms), sorted(ms[0]))
        )
        all_subs = [s for ms in raw_classes for s in ms]
        class_of: dict[frozenset[int], int] = {}
        for nr, ms in enumerate(raw_classes, start=1):
            for s in ms:
                class_of[s] = nr

        def maximal_subgroups(t: frozenset[int]) -> list[frozenset[int]]:
            proper = [s for s in all_subs if len(s) < len(t) and s < t]
            out = []
            for s in proper:
                if not any(s < u and u < t for u in proper):
                    out.append(s)
            return out

        def minimal_overgroups(s: frozenset[int]) -> list[frozenset[int]]:
            above = [t for t in all_subs if len(t) > len(s) and s < t]
            out = []
            for t in above:
                if not any(s < u and u < t for u in above):
                    out.append(t)
            return out

        classes: list[SubgroupClass] = []
        for nr, ms in enumerate(raw_classes, start=1):
            rep = ms[0]
            maximal: dict[int, int] = {}
            for s in maximal_subgroups(rep):
                maximal[class_of[s]] = maximal.get(class_of[s], 0) + 1
            minover: dict[int, int] = {}
            for t in minimal_overgroups(rep):
                minover[class_of[t]] = minover.get(class_of[t], 0) + 1
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
        self._subgroup_lattice = classes
        return classes

    # --- recognition ---------------------------------------------------------

    def is_reflection(self, i: int) -> bool:
        return i in self.reflection_set

    def recognize(self, s: frozenset[int]) -> str:
        """Name a subgroup by the scheme used for stabilizers of the action."""
        order = len(s)
        els = [self.elements[i] for i in s]
        orders = sorted(e.order for e in els)
        has_minus = self.minus_one in s
        nrefl = len(s & self.reflection_set)
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
            gen = next(i for i in s if i != self.identity)
            if gen == self.minus_one:
                return "±1"
            return "C2-refl" if self.is_reflection(gen) else "C2-antirefl"
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
            abelian = self._is_abelian(s)
            if abelian and has_minus:
                return "±2^2" if max(orders) == 2 else "±4"
            if not abelian:
                # no non-abelian order-8 subgroup contains -1 (its order-4
                # elements would square to -1, impossible for det reasons)
                return "D8" if in_h else "D8'"
        if order == 12:
            if in_h and not self._is_abelian(s):
                return "A4"
            if has_minus and nrefl == 3:
                return "±S3"
        if order == 14 and cyclic:
            return "C14"
        if order == 16 and has_minus and not self._is_abelian(s):
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

    def structure_name(self, s: frozenset[int]) -> str:
        """Subgroup-table structure string for subgroups of the det-1 part."""
        label = self.recognize(s)
        return _STRUCTURE_NAMES.get(label, label)

    def _is_abelian(self, s: frozenset[int]) -> bool:
        items = sorted(s)
        rows = self.mul_list
        return all(rows[a][b] == rows[b][a] for a, b in itertools.combinations(items, 2))

    def reflection_subgroup_closure(self, s: frozenset[int]) -> frozenset[int]:
        return self.subgroup_closure(sorted(s & self.reflection_set))

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
    """The singleton group table; built once per process."""
    return GroupTable()
