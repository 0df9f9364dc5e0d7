"""Stabilizers, orbits, and the singularity classification of the quotients.

A point's image in the quotient is smooth exactly when its stabilizer is
generated by the reflections it contains; otherwise the germ is the linear
quotient by the stabilizer.  For cyclic stabilizers the generator's
eigenvalue exponents are one exact fact of the group table
(``GroupTable.exponents``), counted from the traces in Z[w] of its powers,
and the germ reads them for one generator.  When the reflection part W has
index 2, the other coset acts on W's basic invariants by signs, and the
number of signs +1 is the largest number of exponents 0 among the coset's
elements.  No floating point enters any germ.  Each subgroup's germ is
computed once per group table, when first asked for, and kept in
``table.derived`` keyed by the subgroup.

Stabilizers and orbits of a torsion point n / den read one image pass
(``_images``): one product of n with the (6, 1008) matrix of H's rows, in
int64 (the point's own vector, ``TorusPoint.int64_nums``) or, for large
denominators, in Python integers, gives every h p, reduced into one (336, 6)
buffer whose second half holds their negatives, since G = H x {+-1}.
Residues take floor division on int64 and % on Python integers, whichever
is fewer operations (``_residues``).  The rows pack into base-den sort keys
as wide as int64 allows, and only each row's first key is built.  The table
keeps the images of the last point asked about, one entry matched by
identity, so the stabilizers in G and H and the orbits of one point share
one pass.  g fixes p exactly when its image row is p's own: a stabilizer
keeps the positions whose first key equals the identity's, rechecks their
full rows below full width, and maps them to ids in image order
(``ActingGroup.ids``); a lone identity, the generic case, gives one set that
G and H share.  An orbit orders the rows by one argsort of their first keys,
unless two tie below full width: then all the keys are built and one
lexsort of them takes over.  Equal neighbouring keys are dropped.  An orbit
is an ``Orbit``: its distinct image rows, sorted into coordinate order and
read-only, whose points are built only when read.

The stabilizers along a special curve t + V_1 are exact integer tests on
the curve's lattice Lambda_1 and translate t: no point of the curve is
sampled.  Both curve stabilizers are computed in G; their parts in H are
the stabilizers in H.  The generic stabilizer
(``torus.generic_curve_stabilizer``, re-exported here) is one stacked
product of G's matrices with the Lambda_1 rows, then the translate test on
the survivors.  Whether g p lies on a curve is one stacked product too, of
the curve's transverse rows with g p - t for every g at once: it gives the
setwise stabilizer of a curve and decides whether a point lies on the
singular curve, the G-orbit of the kappa_3 curve (``on_singular_curve``).

The six special curves (the mirror, kappa_1-kappa_3, c3_axis and h4_axis)
are one read-only record per table, ``special_curves``: each curve's locus,
translate, generic stabilizer in G and setwise stabilizer in G, computed
once and read by the curve strata, the singularity reports and the checks.

The special loci T6, T7 and T4p take one fixed-point enumeration (one Smith
normal form) per conjugacy class of the wanted order and determinant, then
the G-orbits of those fixed points: Fix(h g h^-1) = h Fix(g).
"""

from __future__ import annotations

import math
from collections.abc import Mapping, Sequence
from dataclasses import asdict, dataclass, field
from types import MappingProxyType

import numpy as np

from .group import GroupTable
from .torus import (
    ConsistencyError,
    FixedLocus,
    TorusPoint,
    ZERO_POINT,
    _moved_numerators,
    apply_element,
    enumerate_fixed_points,
    eta_point,
    fixed_locus_structure,
    generic_curve_stabilizer,
    half_periods,
    kappa_translates,
    registry_point,
)


# --- stabilizers and orbits ---------------------------------------------------


def _residues(a: np.ndarray, den: int, out: np.ndarray | None = None) -> np.ndarray:
    """a mod den, entrywise, in [0, den).

    On int64 it is a - a // den * den, exact since |a| < 13 den
    (``_moved_numerators``): numpy divides 1008 int64 entries by a scalar
    in 1.9 us with //, against 5.4 us with % (2-vCPU Xeon, numpy 2.4.6).
    On Python integers % is one operation an entry, and that form three.
    """
    if a.dtype == object:
        return np.remainder(a, den, out=out)
    return np.subtract(a, a // den * den, out=out)


def _images(table: GroupTable, p: TorusPoint) -> tuple[np.ndarray, np.ndarray]:
    """p's images under G as reduced rows in image order, and their first keys.

    One product of n with the (6, 1008) matrix of H's rows gives every h p,
    reduced to [0, den) into the first 168 rows of one (336, 6) buffer.  G is
    the direct product H x {+-1}: -I lies in G but not in H, since
    det(-I_3) = -1, so G = H + (-I)H and (-h) p = -(h p).  The other 168
    rows are their negatives, den - rows, with zero entries kept at 0;
    nothing is concatenated.  Row i is the image under ``ActingGroup.ids[i]``
    of G, and H's images are the first 168 rows.  The residues are
    a - a // den * den on int64 and a % den on Python integers
    (``_residues``).  Each row's first key packs its first width entries in
    base den (``_places``); at width 6 it is the whole row.

    The table keeps the result for the last point asked about in one
    attribute, ``last_images``: one entry (p, rows, keys), matched by
    identity and replaced whole, whose arrays are read-only.  The entry
    holds p, so no other point can take p's identity while it stands.  A
    point query asks for p's G- and H-stabilizers and its orbit, and
    ``verify``'s AC14 sweep for both stabilizers and both orbits of each
    registry point: all but the first call read the entry.  The cost falls
    on a lone stabilizer call, which builds all 336 rows where a filter on
    one covector built one entry an element: 24 against 9 us for a generic
    point, 32 against 25 us for a special one (2-vCPU Xeon, numpy 2.4.6).
    """
    last, rows, keys = table.last_images
    if last is p:
        return rows, keys
    moved, _, den = _moved_numerators(table, table.h_columns, p)
    moved = moved.reshape(-1, 6)
    h = len(moved)
    rows = np.empty((2 * h, 6), dtype=moved.dtype)
    _residues(moved, den, out=rows[:h])
    np.subtract(den, rows[:h], out=rows[h:])
    rows[h:][rows[:h] == 0] = 0
    places = _places(den, rows.dtype)
    keys = rows[:, : len(places)] @ places
    rows.setflags(write=False)
    keys.setflags(write=False)
    table.last_images = (p, rows, keys)
    return rows, keys


def stabilizer_indices(table: GroupTable, p: TorusPoint, quotient: str = "G") -> frozenset[int]:
    """Ids of the elements of G or H that fix p, read off p's images.

    g fixes p exactly when g's image row equals p's own row, row 0, which
    holds the identity's image (``_images``).  The positions whose first key
    equals row 0's are kept; H reads only the first 168.  At width 6 the
    key is the whole row.  Below it, a tie may hide a row that differs
    later, so the full rows of the kept positions are compared.  The
    positions map to ids through ``ActingGroup.ids``, which lists G in
    image order.  When the identity is kept alone, the generic case, the
    answer is the acting group's shared ``trivial`` set.
    """
    group = table.acting(quotient)
    rows, keys = _images(table, p)
    ids = group.ids
    kept = (keys[: len(ids)] == keys[0]).nonzero()[0]
    if len(kept) > 1 and rows.dtype != object and _key_width(p.den) < 6:
        kept = kept.compress((rows.take(kept, axis=0) == rows[0]).all(axis=1))
    if len(kept) == 1:
        return group.trivial
    return frozenset(ids.take(kept).tolist())


class Orbit(Sequence):
    """An orbit of torsion points: sorted, read-only, points built when read.

    ``rows`` holds the distinct images as integer numerator rows over the
    common order ``den`` (int64, or Python integers in an object array for
    large denominators), in coordinate order.  Length and membership work on
    the rows; a ``TorusPoint`` is built only when an item is indexed or the
    orbit is iterated.
    """

    __slots__ = ("rows", "den")

    def __init__(self, rows: np.ndarray, den: int) -> None:
        rows.setflags(write=False)
        self.rows = rows
        self.den = den

    def __len__(self) -> int:
        return len(self.rows)

    def __getitem__(self, i: int) -> TorusPoint:
        return TorusPoint(self.rows[i].tolist(), self.den)

    def __iter__(self):
        den = self.den
        return (TorusPoint(row, den) for row in self.rows.tolist())

    def __contains__(self, q: object) -> bool:
        if not isinstance(q, TorusPoint) or q.den != self.den:
            return False
        return bool(np.any(np.all(self.rows == q.nums, axis=1)))

    def __repr__(self) -> str:
        return f"Orbit({len(self)} points of order {self.den})"


def orbit_points(table: GroupTable, p: TorusPoint, quotient: str = "G") -> Orbit:
    """The orbit of p under G or H, as an ``Orbit`` in coordinate order.

    The rows are p's images (``_images``): all 336 for G, the first 168,
    H's, for H.  Each row packs into sort keys of ``width`` base-den digits
    each: the widest of 6, 3, 2 and 1 with den^width <= 2^63
    (``_key_width``), and one Python-integer key for object rows.  A key is
    a product of width entries of a row with the place values
    den^(width - 1), ..., den, 1; every entry lies in [0, den), so each key
    is exact and below 2^63.  Key order is coordinate order, so one argsort
    of the images' first keys orders the rows when no two of them tie.
    When every first key is distinct, as for a point with a trivial
    stabilizer, the rows are gathered in that order.  At width 6 the first
    key is the whole row, and equal neighbours are the repeats; below it,
    tied first keys fall back to one product of all the rows, width entries
    at a time, giving all 6 / width keys of each row, one lexsort of them
    and a comparison of neighbouring keys.  No ``TorusPoint`` is built
    until the orbit is read.
    """
    size = len(table.acting(quotient).ids)
    rows, first = _images(table, p)
    rows, den = rows[:size], p.den
    order = first[:size].argsort()
    first = first.take(order)
    distinct = np.empty(size, dtype=bool)
    distinct[0] = True
    np.not_equal(first[1:], first[:-1], out=distinct[1:])
    # every int6 has det +-1, so each image has the exact order den of p
    if np.count_nonzero(distinct) == size:
        return Orbit(rows.take(order, axis=0), den)
    places = _places(den, rows.dtype)
    width = len(places)
    if width == 6:
        return Orbit(rows.take(order.compress(distinct), axis=0), den)
    keys = (rows.reshape(-1, width) @ places).reshape(size, -1)
    order = np.lexsort(keys.T[::-1])
    keys = keys.take(order, axis=0)
    distinct[1:] = (keys[1:] != keys[:-1]).any(axis=1)
    return Orbit(rows.take(order.compress(distinct), axis=0), den)


def _key_width(den: int) -> int:
    """The widest of 6, 3, 2 and 1 base-den digits with den**width <= 2**63."""
    return 6 if den <= 1448 else 3 if den <= 2097152 else 2 if den <= 3037000499 else 1


def _places(den: int, dtype: np.dtype) -> np.ndarray:
    """A key's place values den^(width - 1), ..., den, 1: width 6 on Python integers."""
    width = 6 if dtype == object else _key_width(den)
    return np.array([den**k for k in range(width - 1, -1, -1)], dtype=dtype)


# --- cyclic quotient weights ---------------------------------------------------


@dataclass(frozen=True)
class WeightInfo:
    status: str  # "smooth" | "cyclic" | "non-cyclic"
    order: int | None = None
    weights: tuple[int, int, int] | None = None

    def image_status(self) -> str:
        if self.status == "smooth":
            return "smooth"
        if self.status == "cyclic":
            a, b, c = self.weights  # type: ignore[misc]
            return f"1/{self.order}({a},{b},{c})"
        return "non-cyclic-singular"


def singularity_weights(table: GroupTable, s: frozenset[int]) -> WeightInfo:
    """Quotient-germ type of a stabilizer: smooth, cyclic 1/d(...), or worse.

    The germ is computed once per subgroup and table, on first request:
    ``table.derived["germs"]`` keeps each frozen result keyed by S, so it
    holds at most one entry per subgroup of G (547) and none per point.
    """
    germs = table.derived.setdefault("germs", {})
    germ = germs.get(s)
    if germ is None:
        germ = germs[s] = _germ_type(table, s)
    return germ


def _germ_type(table: GroupTable, s: frozenset[int]) -> WeightInfo:
    """The germ type of S, computed from its elements (``singularity_weights``).

    The germ is smooth exactly when S is generated by its reflections
    (Chevalley 1955; Shephard and Todd 1954), so S's reflection part W is
    closed first, once, and the index-2 test below reuses it.  A cyclic S of
    order d takes the lexicographically smallest sorted weight tuple over
    its generators g^u, u k mod d over the units u, for the exact exponents
    k of one generator g (``GroupTable.exponents``).  A stabilizer whose
    reflection part W has index 2 reduces in stages: the quotient by W is
    affine space on W's basic invariants, where the other coset acts by
    signs, so the germ is 1/2(...) with a 1 for each sign -1, counted from
    the exponents 0 of the elements of S - W.  Any other stabilizer is
    non-cyclic.
    """
    w_part = table.subgroup_closure(sorted(s & table.reflection_set))
    if w_part == s:
        return WeightInfo("smooth")
    d = len(s)
    gen = next((i for i in s if table.elements[i].order == d), None)
    if gen is not None:
        k, units = table.exponents(gen), [u for u in range(d) if math.gcd(u, d) == 1]
        return WeightInfo("cyclic", d, min(tuple(sorted(u * e % d for e in k)) for u in units))
    if len(w_part) * 2 != d:
        return WeightInfo("non-cyclic")
    # C^3/W is C^3 on W's basic invariants (Chevalley 1955; Shephard and Todd
    # 1954), chosen so that sigma in S - W acts on them by signs.  Its fixed
    # space there, spanned by the signs +1, is the union of the images of
    # Fix(g) for g in S - W (Prill 1967), so its dimension is the largest
    # dim Fix(g).  A g in S - W that fixes a plane is a reflection outside W,
    # which the closure above rules out.
    fixed = max(table.exponents(g).count(0) for g in s - w_part)
    if fixed > 1:
        raise ConsistencyError(f"an element of S - W fixes a space of dimension {fixed}: W misses a reflection")
    return WeightInfo("cyclic", 2, (0,) * fixed + (1,) * (3 - fixed))


# --- generic points of special curves ------------------------------------------


def _images_on_curve(
    table: GroupTable, stack: np.ndarray, p: TorusPoint, locus: FixedLocus, translate: TorusPoint
) -> np.ndarray:
    """For each matrix g of stack: does g p lie on the curve translate + V_1 of locus?

    Exactly when the transverse rows take integer values on g p - translate:
    one stacked product over the common order m of the two points, in int64
    while no entry can reach 2^63 and in Python integers beyond.
    """
    moved, _, den = _moved_numerators(table, stack.reshape(-1, 6).T, p)
    moved = moved.reshape(-1, 6)
    m = math.lcm(den, translate.den)
    rows = locus.transverse_rows
    if 6 * max(abs(x) for row in rows for x in row) * m >= 2**63:
        moved = moved.astype(object)
    t = np.array(translate.nums, dtype=moved.dtype) * (m // translate.den)
    diff = moved % den * (m // den) - t
    return np.all(diff @ np.array(rows, dtype=moved.dtype).T % m == 0, axis=1)


def curve_setwise_stabilizer(
    table: GroupTable, locus: FixedLocus, translate: TorusPoint
) -> frozenset[int]:
    """Elements of G mapping the curve translate + V_1 onto itself (mod the lattice).

    g maps V_1 onto itself when the transverse rows vanish on g of every
    Lambda_1 row, and then maps the curve onto itself when g t lies on it.
    Both tests are stacked products over G's matrices.
    """
    stack = table.int6_stack
    rows = np.array(locus.lambda1_rows, dtype=np.int64).T
    transverse = np.array(locus.transverse_rows, dtype=np.int64)
    kept = np.flatnonzero(~np.any(transverse @ stack @ rows, axis=(1, 2)))
    on_curve = _images_on_curve(table, stack[kept], translate, locus, translate)
    return frozenset(kept[on_curve].tolist())


# --- locus classification -------------------------------------------------------


@dataclass
class OrbitRecord:
    locus: str
    quotient: str
    representative: TorusPoint
    rep_name: str | None
    orbit_size: int
    stabilizer_order: int
    label: str
    label_g: str
    label_h: str
    reflection_generated: bool
    image_status: str
    orbit_min: TorusPoint

    def to_dict(self) -> dict:
        d = asdict(self)
        del d["orbit_min"]  # the last field, serialised under the name orbit_key
        d.update(representative=str(self.representative), orbit_key=str(self.orbit_min))
        return d


def _record_for_point(
    table: GroupTable,
    locus: str,
    quotient: str,
    p: TorusPoint,
    orb: Orbit,
    rep_name: str | None = None,
) -> OrbitRecord:
    """The record of p, whose orbit under the quotient's group is orb."""
    group = table.acting(quotient)
    stab_g = stabilizer_indices(table, p, "G")
    stab_h = stab_g & table.h_set
    stab = stab_g & group.members
    group_order = len(group.ids)
    if len(orb) * len(stab) != group_order:
        raise ConsistencyError(
            f"orbit-stabilizer mismatch at {p}: {len(orb)} * {len(stab)} != {group_order}"
        )
    winfo = singularity_weights(table, stab)
    label_g, label_h = table.recognize(stab_g), table.recognize(stab_h)
    return OrbitRecord(
        locus=locus,
        quotient=quotient,
        representative=p,
        rep_name=rep_name,
        orbit_size=len(orb),
        stabilizer_order=len(stab),
        label=label_h if stab == stab_h else label_g,  # equal subgroups, equal labels
        label_g=label_g,
        label_h=label_h,
        reflection_generated=winfo.status == "smooth",
        image_status=winfo.image_status(),
        orbit_min=orb[0],
    )


# the beta and omega loci are named points, recorded one by one under these names
_NAMED_LOCI = {
    "beta": tuple(f"beta_{i:04b}" for i in range(1, 16)),
    "omega": ("omega_01", "omega_10", "omega_11"),
}
# (element order, determinant or None for either) of the elements fixing T6, T7 and T4p
_FIXED_LOCI = {"T6": (6, None), "T7": (7, None), "T4p": (4, -1)}


def locus_points(table: GroupTable, name: str) -> list[TorusPoint]:
    """The nonzero points of a named special locus: T2, T6, T4p, T7, beta or omega.

    T6, T7 and T4p are the fixed points of all elements of order 6, of order
    7, and of order 4 with determinant -1.  Since Fix(h g h^-1) = h Fix(g),
    each is the union of the G-orbits of the fixed points of one
    representative per conjugacy class: one Smith normal form a class.
    """
    if name == "T2":
        return sorted(p for p in half_periods() if not p.is_zero())
    if name in _NAMED_LOCI:
        return [registry_point(table, n) for n in _NAMED_LOCI[name]]
    if name not in _FIXED_LOCI:
        raise ValueError(f"unknown locus {name!r}")
    if name not in table.derived:  # computed once per table
        order, det = _FIXED_LOCI[name]
        pts: set[TorusPoint] = set()
        for c in table.conjugacy_classes("G"):
            if c.element_order != order or det not in (None, c.det):
                continue
            for p in enumerate_fixed_points(table, c.representative):
                if not p.is_zero() and p not in pts:
                    pts.update(orbit_points(table, p, "G"))
        table.derived[name] = tuple(sorted(pts))
    return list(table.derived[name])


def classify_locus(table: GroupTable, name: str, quotient: str = "G") -> list[OrbitRecord]:
    """Orbit decomposition of a locus (per-point records for beta/omega)."""
    points = locus_points(table, name)
    if name in _NAMED_LOCI:
        return [
            _record_for_point(table, name, quotient, p, orbit_points(table, p, quotient), rep)
            for rep, p in zip(_NAMED_LOCI[name], points)
        ]
    seen: set[TorusPoint] = set()
    records = []
    for p in points:
        if p in seen:
            continue
        orb = orbit_points(table, p, quotient)
        seen.update(orb)
        records.append(_record_for_point(table, name, quotient, orb[0], orb))
    records.sort(key=lambda r: (r.orbit_size, r.representative.coords))
    return records


def beta_table_summary(table: GroupTable) -> dict[str, dict]:
    """The stabilizer-label columns of the 15 nonzero beta points, with image counts."""
    records = classify_locus(table, "beta", "G")
    columns: dict[str, dict] = {}
    for rec in records:
        col = columns.setdefault(
            rec.label, {"points": [], "orbits": set(), "image_status": rec.image_status}
        )
        col["points"].append(rec.rep_name)
        col["orbits"].add(rec.orbit_min)
    return {
        label: {
            "points": col["points"],
            "image_count": len(col["orbits"]),
            "image_status": col["image_status"],
        }
        for label, col in columns.items()
    }


def doubling_check(table: GroupTable) -> dict:
    """Order-3 normalizer action doubling the seventh-torsion fixed points."""
    h3 = table.named["h3"]
    e1 = eta_point(1)
    doubled = apply_element(table.elements[h3].int6, e1) == 2 * e1
    orbit1 = set(orbit_points(table, e1, "H"))
    orbit3 = set(orbit_points(table, eta_point(3), "H"))
    partition = (
        {eta_point(1), eta_point(2), eta_point(4)} <= orbit1
        and {eta_point(3), eta_point(5), eta_point(6)} <= orbit3
        and orbit1.isdisjoint(orbit3)
    )
    minus_swaps = apply_element(
        table.elements[table.minus_one].int6, e1
    ) in orbit3
    return {
        "h3_doubles_eta1": doubled,
        "eta_orbit_partition": partition,
        "minus_one_swaps_orbits": minus_swaps,
        "ok": doubled and partition and minus_swaps,
    }


# --- curve strata and the singularity report ------------------------------------


@dataclass
class CurveStratum:
    name: str
    quotient: str
    carrier: str  # name of the parabolic element whose fixed locus carries the curve
    translate: TorusPoint
    generic_stabilizer_order: int
    label: str
    reflection_generated: bool
    image_status: str
    invariance_label_h: str
    invariance_order_h: int
    dissident_points: list[dict] = field(default_factory=list)
    ordinary_singular_points: list[dict] = field(default_factory=list)

    def to_dict(self) -> dict:
        return {**asdict(self), "translate": str(self.translate)}


@dataclass
class SingularityReport:
    quotient: str
    isolated: list[dict]
    curves: list[dict]
    smooth_special_orbits: int
    notes: list[str]

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class SpecialCurve:
    """One special-curve class: the curve translate + V_1 of its carrier's fixed locus.

    ``generic`` is the stabilizer in G of a generic point of the curve, and
    ``setwise`` holds the elements of G that map the curve onto itself.  Each
    element is tested on its own, so their parts in H are H's stabilizers.
    """

    name: str
    carrier: str  # the named parabolic element whose fixed locus carries the curve
    translate: TorusPoint
    locus: FixedLocus
    generic: frozenset[int]
    setwise: frozenset[int]


def special_curves(table: GroupTable) -> Mapping[str, SpecialCurve]:
    """The six special-curve classes by name, computed once per table, read-only."""
    if "curves" not in table.derived:
        loci = {c: fixed_locus_structure(table, table.named[c]) for c in ("r2", "rho1", "c3", "h4")}
        kappas = kappa_translates(table, table.named["rho1"])
        curves = [
            ("mirror", "r2", ZERO_POINT),
            *((f"kappa_{i}", "rho1", kappas[i]) for i in (1, 2, 3)),
            ("c3_axis", "c3", ZERO_POINT),
            ("h4_axis", "h4", ZERO_POINT),
        ]
        table.derived["curves"] = MappingProxyType({
            name: SpecialCurve(
                name, carrier, t, loci[carrier],
                generic_curve_stabilizer(table, loci[carrier], t),
                curve_setwise_stabilizer(table, loci[carrier], t),
            )
            for name, carrier, t in curves
        })
    return table.derived["curves"]


def curve_strata(table: GroupTable, quotient: str = "G") -> list[CurveStratum]:
    """Generic-stabilizer records for every special-curve class through the action."""
    members = table.acting(quotient).members
    out: list[CurveStratum] = []
    for c in special_curves(table).values():
        stab = c.generic & members
        setwise_h = c.setwise & table.h_set
        winfo = singularity_weights(table, stab)
        out.append(
            CurveStratum(
                name=c.name,
                quotient=quotient,
                carrier=c.carrier,
                translate=c.translate,
                generic_stabilizer_order=len(stab),
                label=table.recognize(stab),
                reflection_generated=winfo.status == "smooth",
                image_status=winfo.image_status(),
                invariance_label_h=table.recognize(setwise_h),
                invariance_order_h=len(setwise_h),
            )
        )
    return out


def on_singular_curve(table: GroupTable, p: TorusPoint) -> bool:
    """Does p lie on the singular curve of J/G, the G-orbit of the kappa_3 curve?

    That orbit is the union of the antireflections' off-mirror translate
    curves, since the antireflections are conjugate and conjugation keeps a
    curve off the mirrors.  One stacked product over all of G asks whether
    some g puts g p on the kappa_3 curve.
    """
    c = special_curves(table)["kappa_3"]
    return bool(_images_on_curve(table, table.int6_stack, p, c.locus, c.translate).any())


def singularity_report(table: GroupTable, quotient: str = "G", seed: int = 0) -> SingularityReport:
    """Full stratification of the quotient's singular locus.

    Sweeps every elliptic special orbit and every special-curve class; for
    the full group the result must consist of exactly one isolated point,
    one singular curve, and one dissident point on it.  ``seed`` is unused:
    every stabilizer in the report is exact.  It stays because
    ``perfbench/cold.py::keep_curves_g`` calls the original with three
    positional arguments, so deleting it breaks the benchmark's ``verify``;
    that call goes first, then the parameter.
    """
    point_records: dict[TorusPoint, OrbitRecord] = {}
    for locus in ("T2", "T6", "T4p", "T7"):
        for rec in classify_locus(table, locus, quotient):
            point_records.setdefault(rec.orbit_min, rec)
    curves = curve_strata(table, quotient)

    singular_points = [r for r in point_records.values() if r.image_status != "smooth"]
    singular_curves = [c for c in curves if c.image_status != "smooth"]
    smooth_count = sum(1 for r in point_records.values() if r.image_status == "smooth")

    notes = [
        "canonical weight tuple 1/2(0,1,1) covers the orderings 1/2(1,1,0) and 1/2(1,0,1)",
    ]

    for c in curves:
        if c.name.startswith("kappa") and c.invariance_label_h != "D8":
            notes.append(
                f"curve {c.name}: computed invariance group {c.invariance_label_h} "
                f"(order {c.invariance_order_h}) differs from the classical D8 claim"
            )

    # the quotient by G, the group with reflections: one curve, one isolated point
    if not table.reflection_set.isdisjoint(table.acting(quotient).members):
        if [c.name for c in singular_curves] != ["kappa_3"]:
            raise ConsistencyError(
                f"unexpected singular curves {[c.name for c in singular_curves]}"
            )
        ell = singular_curves[0]
        if ell.image_status != "1/2(0,1,1)":
            raise ConsistencyError("the singular curve has unexpected generic weights")
        isolated = [r for r in singular_points if r.image_status == "1/7(1,2,4)"]
        dissident = [r for r in singular_points if r.image_status == "1/4(1,2,3)"]
        ordinary = [
            r for r in singular_points if r.image_status == ell.image_status
        ]
        stray = [
            r
            for r in singular_points
            if r not in isolated and r not in dissident and r not in ordinary
        ]
        if stray or len(isolated) != 1 or len(dissident) != 1:
            raise ConsistencyError(
                "the singular point strata do not match the expected inventory: "
                f"isolated={len(isolated)} dissident={len(dissident)} stray={len(stray)}"
            )
        for rec in dissident + ordinary:  # the singular curve is kappa_3's, as checked above
            if not on_singular_curve(table, rec.representative):
                raise ConsistencyError(
                    f"singular orbit at {rec.representative} does not lie on the singular curve"
                )
        ell.dissident_points = [dissident[0].to_dict()]
        ell.ordinary_singular_points = [r.to_dict() for r in ordinary]
        notes.append(
            "the singular curve is rational and the quotient is strongly simply connected (source claims, not computed)"
        )
        notes.append(
            "point orbits on the singular curve with the generic transversal type are listed as ordinary, not dissident"
        )
        return SingularityReport(
            quotient=quotient,
            isolated=[isolated[0].to_dict()],
            curves=[c.to_dict() for c in curves],
            smooth_special_orbits=smooth_count,
            notes=notes,
        )

    # quotient H: the unimodular subgroup has no reflections, so every special
    # orbit is singular; the isolated singular points are the two seventh-torsion orbits
    isolated = [r for r in singular_points if r.image_status == "1/7(1,2,4)"]
    if len(isolated) != 2:
        raise ConsistencyError(f"expected two isolated seventh-order points, got {len(isolated)}")
    notes.append(
        "all other special orbits lie on singular curve strata of the quotient by the unimodular subgroup"
    )
    return SingularityReport(
        quotient=quotient,
        isolated=[r.to_dict() for r in isolated],
        curves=[c.to_dict() for c in curves],
        smooth_special_orbits=smooth_count,
        notes=notes,
    )
