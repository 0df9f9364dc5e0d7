"""Stabilizers, orbits, and the singularity classification of the quotients.

A point's image in the quotient is smooth exactly when its stabilizer is
generated by the reflections it contains; otherwise the germ is the linear
quotient by the stabilizer.  For cyclic stabilizers the type is read off the
generator's eigenvalues, snapped from floats to roots of unity and
cross-checked against the exact trace and determinant: the package's only
floating point.  When the reflection part W has index 2, the degrees of W's
basic invariants and the signs of the other coset on them are read exactly
off averaged series of 1/det(1 - t g) in Z[w].

The stabilizers along a special curve t + V_1 are exact integer tests on
the curve's lattice Lambda_1 and translate t: no point of the curve is
sampled.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Sequence

import numpy as np

from .group import GroupTable
from .torus import (
    FixedLocus,
    TorusPoint,
    ZERO_POINT,
    apply_element,
    beta_point,
    enumerate_fixed_points,
    eta_point,
    fixed_locus_structure,
    fixes_curve,
    half_periods,
    kappa_translates,
    omega_point,
)

class SnappingError(RuntimeError):
    """Float eigenvalues failed to land on roots of unity; signals an arithmetic bug."""


class ConsistencyError(RuntimeError):
    """The computed strata contradict the expected shape of the singular locus."""


# --- stabilizers and orbits ---------------------------------------------------


def _moved_numerators(table: GroupTable, stack: np.ndarray, p: TorusPoint):
    """The products stack @ n on p's numerators n over den, computed exactly.

    int64 serves while no entry of stack @ n - n can reach 2^63; larger
    denominators use Python integers.
    """
    nums, den = p.as_int_vec()
    if (6 * table.int6_max_abs + 1) * den < 2**63:
        n = np.array(nums, dtype=np.int64)
        return stack @ n, n, den
    n = np.array(nums, dtype=object)
    return stack.astype(object) @ n, n, den


def stabilizer_indices(table: GroupTable, p: TorusPoint, quotient: str = "G") -> frozenset[int]:
    moved, n, den = _moved_numerators(table, table.int6_stack, p)
    mask = np.all((moved - n) % den == 0, axis=1)
    if quotient == "H":
        mask &= table.h_mask
    elif quotient != "G":
        raise ValueError(f"unknown group selector {quotient!r}")
    return frozenset(int(i) for i in np.nonzero(mask)[0])


def stabilizer(table: GroupTable, p: TorusPoint, quotient: str = "G"):
    """The stabilizer as a Subgroup (elements, order, label, flags)."""
    from .group import Subgroup

    return Subgroup(table, stabilizer_indices(table, p, quotient))


def orbit_points(table: GroupTable, p: TorusPoint, quotient: str = "G") -> list[TorusPoint]:
    stack = table.int6_stack
    if quotient == "H":
        stack = stack[table.h_mask]
    elif quotient != "G":
        raise ValueError(f"unknown group selector {quotient!r}")
    moved, _, den = _moved_numerators(table, stack, p)
    # numerator order over the common denominator is coordinate order
    uniq = sorted(set(map(tuple, (moved % den).tolist())))
    # every int6 has det +-1, so each image has the exact order den of p
    return [TorusPoint(row, den) for row in uniq]


def reflection_generated(table: GroupTable, s: frozenset[int]) -> bool:
    """Is the subgroup equal to the closure of the reflections it contains?"""
    return table.reflection_subgroup_closure(s) == s


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


def _snap_weights(table: GroupTable, gen: int, d: int) -> tuple[int, int, int]:
    mat = np.array(table.elements[gen].mat.to_complex(), dtype=complex)
    eigs = np.linalg.eigvals(mat)
    weights = []
    for ev in eigs:
        nu = round(cmath.phase(ev) / (2 * math.pi) * d) % d
        target = cmath.exp(2j * math.pi * nu / d)
        if abs(ev - target) > 1e-6:
            raise SnappingError(
                f"eigenvalue {ev} of element {gen} is not a {d}-th root of unity"
            )
        weights.append(int(nu))
    snapped_sum = sum(cmath.exp(2j * math.pi * nu / d) for nu in weights)
    exact_trace = table.elements[gen].mat.trace().to_complex()
    if abs(snapped_sum - exact_trace) > 1e-9:
        raise SnappingError(f"snapped eigenvalues of element {gen} contradict the trace")
    snapped_prod = cmath.exp(2j * math.pi * sum(weights) / d)
    exact_det = complex(table.elements[gen].det)
    if abs(snapped_prod - exact_det) > 1e-9:
        raise SnappingError(f"snapped eigenvalues of element {gen} contradict the determinant")
    return tuple(sorted(weights))  # type: ignore[return-value]


@lru_cache(maxsize=None)  # keys: the few (trace, det) pairs of G, and n = |W|
def _inverse_char_poly(tr: tuple[int, int], det: int, n: int) -> tuple[tuple[int, int], ...]:
    """1/det(1 - t g) up to t^n, each coefficient a pair (a, b) meaning a + b*w.

    det(1 - t g) = 1 - e1 t + e2 t^2 - e3 t^3 with e1 = tr g, e3 = det g and,
    g being unitary, e2 = det g * conj(tr g); so the series depends on the
    trace and determinant alone.  Arithmetic in Z[w] uses w^2 = w - 2.
    """
    p, q = tr
    u, v = det * (p + q), -det * q  # e2
    c = [(0, 0), (0, 0), (1, 0)]  # two zero terms start the recurrence
    for _ in range(n):
        (a1, b1), (a2, b2), (a3, b3) = c[-1], c[-2], c[-3]
        c.append((
            p * a1 - 2 * q * b1 - u * a2 + 2 * v * b2 + det * a3,
            p * b1 + q * a1 + q * b1 - u * b2 - v * a2 - v * b2 + det * b3,
        ))
    return tuple(c[2:])


def _averaged_series(table: GroupTable, elements: frozenset[int], order: int) -> list[int]:
    """(1/order) * sum over the elements of 1/det(1 - t g), up to t^order."""
    total_a, total_b = [0] * (order + 1), [0] * (order + 1)
    for i in elements:
        el = table.elements[i]
        tr = el.mat.trace()
        if tr.d != 1:
            raise ConsistencyError(f"trace of element {i} is not in Z[w]")
        for k, (a, b) in enumerate(_inverse_char_poly((tr.a, tr.b), el.det, order)):
            total_a[k] += a
            total_b[k] += b
    if any(total_b) or any(a % order for a in total_a):
        raise ConsistencyError("an averaged series coefficient is not a rational integer")
    return [a // order for a in total_a]


def _times(series: list[int], sign: int, d: int) -> None:
    """Multiply a truncated series in place by 1 - sign * t^d."""
    for k in range(len(series) - 1, d - 1, -1):
        series[k] -= sign * series[k - d]


def _coset_weights(
    table: GroupTable, s: frozenset[int], w_part: frozenset[int]
) -> tuple[int, ...]:
    """Germ weights of S when its reflection part W has index 2.

    (1/|W|) sum_{g in sigma W} 1/det(1 - t g) = prod 1/(1 - eps_i t^d_i), where
    eps_i is sigma's sign on W's i-th basic invariant (Stanley 1979; Springer
    1974); sigma = 1 gives Molien's series and the degrees d_i.
    """
    order = len(w_part)
    molien = _averaged_series(table, w_part, order)
    degrees: list[int] = []
    for d in range(1, order + 1):
        for _ in range(min(molien[d], 3 - len(degrees))):  # surplus fails below
            degrees.append(d)
            _times(molien, 1, d)
    if (
        any(molien[1:])
        or len(degrees) != 3
        or math.prod(degrees) != order
        or sum(degrees) - 3 != len(w_part & table.reflection_set)
    ):
        raise ConsistencyError(f"no reflection-group degrees fit |W|={order}: {degrees}")
    # the sign sums per degree fix the signs; the remainder check proves them
    coset = _averaged_series(table, s - w_part, order)
    weights = []
    for d in degrees:
        sign = 1 if coset[d] > 0 else -1
        _times(coset, sign, d)
        weights.append(int(sign < 0))
    if any(coset[1:]) or sum(weights) < 2:
        raise ConsistencyError(f"coset weights {weights} contradict the series or closure")
    return tuple(sorted(weights))


def singularity_weights(table: GroupTable, s: frozenset[int]) -> WeightInfo:
    """Quotient-germ type of a stabilizer: smooth, cyclic 1/d(...), or worse.

    For cyclic stabilizers the canonical form is the lexicographically
    smallest sorted weight tuple over all generators.  A stabilizer whose
    reflection part W has index 2 reduces in stages: the quotient by W is
    affine space on W's basic invariants, where the other coset acts by
    signs, so the germ is 1/2(...) with a 1 for each sign -1.  Degrees and
    signs come from averaged series over W and over the coset, guarded
    exactly: the averages are rational integers, the degrees multiply to |W|
    and exceed the reflection count by 3 in sum, and at least two signs are
    -1, or the germ would be smooth.  Any other stabilizer is non-cyclic.
    """
    if reflection_generated(table, s):
        return WeightInfo("smooth")
    d = len(s)
    generators = [i for i in s if table.elements[i].order == d]
    if generators:
        best: tuple[int, int, int] | None = None
        for gen in sorted(generators):
            w = _snap_weights(table, gen, d)
            if best is None or w < best:
                best = w
        return WeightInfo("cyclic", d, best)
    w_part = table.reflection_subgroup_closure(s)
    if len(w_part) * 2 != d:
        return WeightInfo("non-cyclic")
    return WeightInfo("cyclic", 2, _coset_weights(table, s, w_part))


# --- generic points of special curves ------------------------------------------


def generic_curve_stabilizer(
    table: GroupTable,
    translate: TorusPoint,
    direction_rows: Sequence[Sequence[int]],
    quotient: str = "G",
) -> frozenset[int]:
    """Stabilizer of a generic point of translate + span(directions)."""
    return frozenset(
        g
        for g in table.subset_indices(quotient)
        if fixes_curve(table.elements[g].int6, direction_rows, translate)
    )


def curve_setwise_stabilizer(
    table: GroupTable,
    locus: FixedLocus,
    translate: TorusPoint,
    quotient: str = "H",
) -> frozenset[int]:
    """Elements mapping the curve translate + V_1 onto itself (mod the lattice).

    g maps V_1 onto itself when the transverse rows vanish on g of every
    Lambda_1 row, and then maps the curve onto itself when g t - t lies in
    V_1 + Lambda.
    """
    rows = np.array(locus.lambda1_rows, dtype=np.int64).T
    transverse = np.array(locus.transverse_rows, dtype=np.int64)
    keeps_v1 = ~np.any(transverse @ table.int6_stack @ rows, axis=(1, 2))
    return frozenset(
        g
        for g in table.subset_indices(quotient)
        if keeps_v1[g]
        and locus.in_v1_plus_lattice(
            apply_element(table.elements[g].int6, translate) - translate
        )
    )


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
        return {
            "locus": self.locus,
            "quotient": self.quotient,
            "representative": str(self.representative),
            "rep_name": self.rep_name,
            "orbit_size": self.orbit_size,
            "stabilizer_order": self.stabilizer_order,
            "label": self.label,
            "label_g": self.label_g,
            "label_h": self.label_h,
            "reflection_generated": self.reflection_generated,
            "image_status": self.image_status,
            "orbit_key": str(self.orbit_min),
        }


def _record_for_point(
    table: GroupTable, locus: str, quotient: str, p: TorusPoint, rep_name: str | None = None
) -> OrbitRecord:
    stab = stabilizer_indices(table, p, quotient)
    stab_g = stabilizer_indices(table, p, "G")
    stab_h = stab_g & frozenset(table.h_indices)
    orb = orbit_points(table, p, quotient)
    group_order = len(table.subset_indices(quotient))
    if len(orb) * len(stab) != group_order:
        raise ConsistencyError(
            f"orbit-stabilizer mismatch at {p}: {len(orb)} * {len(stab)} != {group_order}"
        )
    winfo = singularity_weights(table, stab)
    return OrbitRecord(
        locus=locus,
        quotient=quotient,
        representative=p,
        rep_name=rep_name,
        orbit_size=len(orb),
        stabilizer_order=len(stab),
        label=table.recognize(stab),
        label_g=table.recognize(stab_g),
        label_h=table.recognize(stab_h),
        reflection_generated=reflection_generated(table, stab),
        image_status=winfo.image_status(),
        orbit_min=orb[0],
    )


def locus_points(table: GroupTable, name: str) -> list[TorusPoint]:
    """The nonzero points of a named special locus."""
    key = _normalize_locus(name)
    if key == "T2":
        return sorted(p for p in half_periods() if not p.is_zero())
    order_of = {"T6": 6, "T7": 7}
    if key in order_of:
        want = order_of[key]
        pts: set[TorusPoint] = set()
        for el in table.elements:
            if el.order == want:
                pts.update(enumerate_fixed_points(table, el.index))
        return sorted(p for p in pts if not p.is_zero())
    if key == "T4p":
        pts = set()
        for el in table.elements:
            if el.order == 4 and el.det == -1:
                pts.update(enumerate_fixed_points(table, el.index))
        return sorted(p for p in pts if not p.is_zero())
    if key == "beta":
        return [beta_point(i) for i in range(1, 16)]
    if key == "omega":
        return [omega_point(i, j) for i, j in ((0, 1), (1, 0), (1, 1))]
    raise ValueError(f"unknown locus {name!r}")


def _normalize_locus(name: str) -> str:
    aliases = {
        "t2": "T2",
        "t6": "T6",
        "t7": "T7",
        "t4p": "T4p",
        "t4prime": "T4p",
        "beta": "beta",
        "omega": "omega",
    }
    key = aliases.get(name.lower())
    if key is None:
        raise ValueError(f"unknown locus {name!r}")
    return key


def classify_locus(table: GroupTable, name: str, quotient: str = "G") -> list[OrbitRecord]:
    """Orbit decomposition of a locus (per-point records for beta/omega)."""
    key = _normalize_locus(name)
    if key == "beta":
        return [
            _record_for_point(table, key, quotient, beta_point(i), f"beta_{i:04b}")
            for i in range(1, 16)
        ]
    if key == "omega":
        return [
            _record_for_point(table, key, quotient, omega_point(i, j), f"omega_{i}{j}")
            for i, j in ((0, 1), (1, 0), (1, 1))
        ]
    points = locus_points(table, key)
    seen: set[TorusPoint] = set()
    records = []
    for p in points:
        if p in seen:
            continue
        orb = orbit_points(table, p, quotient)
        seen.update(orb)
        records.append(_record_for_point(table, key, quotient, orb[0]))
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
        return {
            "name": self.name,
            "quotient": self.quotient,
            "carrier": self.carrier,
            "translate": str(self.translate),
            "generic_stabilizer_order": self.generic_stabilizer_order,
            "label": self.label,
            "reflection_generated": self.reflection_generated,
            "image_status": self.image_status,
            "invariance_label_h": self.invariance_label_h,
            "invariance_order_h": self.invariance_order_h,
            "dissident_points": self.dissident_points,
            "ordinary_singular_points": self.ordinary_singular_points,
        }


@dataclass
class SingularityReport:
    quotient: str
    isolated: list[dict]
    curves: list[dict]
    smooth_special_orbits: int
    notes: list[str]

    def to_dict(self) -> dict:
        return {
            "quotient": self.quotient,
            "isolated": self.isolated,
            "curves": self.curves,
            "smooth_special_orbits": self.smooth_special_orbits,
            "notes": self.notes,
        }


def curve_strata(table: GroupTable, quotient: str = "G") -> list[CurveStratum]:
    """Generic-stabilizer records for every special-curve class through the action."""
    named = table.named
    out: list[CurveStratum] = []

    def add(name: str, carrier: str, translate: TorusPoint, locus: FixedLocus):
        stab = generic_curve_stabilizer(table, translate, locus.lambda1_rows, quotient)
        winfo = singularity_weights(table, stab)
        inv = curve_setwise_stabilizer(table, locus, translate, "H")
        out.append(
            CurveStratum(
                name=name,
                quotient=quotient,
                carrier=carrier,
                translate=translate,
                generic_stabilizer_order=len(stab),
                label=table.recognize(stab) if stab else "1",
                reflection_generated=reflection_generated(table, stab),
                image_status=winfo.image_status(),
                invariance_label_h=table.recognize(inv),
                invariance_order_h=len(inv),
            )
        )

    add("mirror", "r2", ZERO_POINT, fixed_locus_structure(table, named["r2"]))
    rho1 = named["rho1"]
    axis = fixed_locus_structure(table, rho1)
    for i, t in enumerate(kappa_translates(table, rho1)):
        if i == 0:
            continue
        add(f"kappa_{i}", "rho1", t, axis)
    add("c3_axis", "c3", ZERO_POINT, fixed_locus_structure(table, named["c3"]))
    add("h4_axis", "h4", ZERO_POINT, fixed_locus_structure(table, named["h4"]))
    return out


def point_on_off_mirror_curve(table: GroupTable, p: TorusPoint) -> bool:
    """Does p lie on the off-mirror translate curve of a stabilizing antireflection?"""
    stab = stabilizer_indices(table, p, "G")
    for rho in sorted(stab & set(table.antireflections)):
        ks = kappa_translates(table, rho)
        if fixed_locus_structure(table, rho).in_v1_plus_lattice(p - ks[3]):
            return True
    return False


def _beta_0011_on_kappa3_curve(table: GroupTable) -> bool:
    """The dissident point lies on the off-mirror curve of its square antireflection."""
    q_point = beta_point("0011")
    h4p = table.named["h4p"]
    if apply_element(table.elements[h4p].int6, q_point) != q_point:
        raise ConsistencyError("the marked dissident point is not fixed by the order-4 element")
    rho = table.power(h4p, 2)
    if rho not in set(table.antireflections):
        raise ConsistencyError("the square of the order-4 element is not an antireflection")
    ks = kappa_translates(table, rho)
    locus = fixed_locus_structure(table, rho)
    if not locus.in_v1_plus_lattice(q_point - ks[3]):
        return False
    # the off-mirror curve of rho is in the same orbit as the reference curve:
    # conjugating rho1 to rho maps translate classes to translate classes
    rho1 = table.named["rho1"]
    carrier = next(
        g
        for g in range(table.size)
        if table.conjugate(g, rho1) == rho
    )
    ref = kappa_translates(table, rho1)[3]
    moved = apply_element(table.elements[carrier].int6, ref)
    for i, t in enumerate(ks):
        if locus.in_v1_plus_lattice(moved - t):
            return i == 3
    raise ConsistencyError("conjugated reference translate matches no translate class")


def singularity_report(table: GroupTable, quotient: str = "G", seed: int = 0) -> SingularityReport:
    """Full stratification of the quotient's singular locus.

    Sweeps every elliptic special orbit and every special-curve class; for
    the full group the result must consist of exactly one isolated point,
    one singular curve, and one dissident point on it.  ``seed`` is accepted
    for compatibility and unused: every stabilizer in the report is exact.
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

    if quotient == "G":
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
        if not _beta_0011_on_kappa3_curve(table):
            raise ConsistencyError("the dissident orbit does not lie on the singular curve")
        for rec in dissident + ordinary:
            if not point_on_off_mirror_curve(table, rec.representative):
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
            quotient="G",
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
        quotient="H",
        isolated=[r.to_dict() for r in isolated],
        curves=[c.to_dict() for c in curves],
        smooth_special_orbits=smooth_count,
        notes=notes,
    )
