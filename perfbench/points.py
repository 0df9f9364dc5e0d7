"""Warm point queries: one library process answers a seeded stream of points.

Every operation asks, for one torsion point, for its stabilizer in G and in
H, the stabilizer's label, the germ type of its image, and its G-orbit.  A
round holds every special point once, GENERIC_PER_ROUND fresh generic points
and the OVERFLOW points, in seeded order, so every round takes the same code
paths and the failed share is the same in every run.  Query times are scaled
to the reference host speed (calibrate.py).  Answers are checked against the
exact oracle after the timed region.
"""

from __future__ import annotations

import random
import re
import time
from dataclasses import dataclass
from fractions import Fraction

import calibrate
from oracle import StabilizerOracle, reduce

GENERIC_PER_ROUND = 380
CALIBRATE_EVERY = 48  # operations between two timings of the calibration kernel
SAMPLES_PER_ROUND = 4  # operations per round whose orbit and covariance are checked

# Denominators beyond int64: p = 4611686018427387847 < 2^62 on the r2 mirror and
# the rho1 and h4 axes, and 10^20 > 2^63.  stabilizer_indices and orbit_points
# compute int6 @ numerators in int64, which wraps or raises on these points, so
# they count as failed operations until that overflow is mended.
OVERFLOW = [
    "[910931049675729332/4611686018427387847,340076939561025788/4611686018427387847,"
    "3922118255432057885/4611686018427387847,3151506527627083394/4611686018427387847,"
    "4233953393148821024/4611686018427387847,2346550179354914554/4611686018427387847]",
    "[2775783357670909343/4611686018427387847,4131263035309496247/4611686018427387847,0,"
    "3933946179608094395/4611686018427387847,2295360374553017743/4611686018427387847,0]",
    "[3042356033772981421/4611686018427387847,4463189694429390602/4611686018427387847,"
    "2841667321312818362/4611686018427387847,2406187365443775453/4611686018427387847,"
    "3042356033772981421/4611686018427387847,1272337336658411936/4611686018427387847]",
    "[1/100000000000000000000,3/100000000000000000000,0,0,0,7/100000000000000000000]",
]

# paper values: (G-stabilizer label, germ type of the image in J/G)
C7_POINT = ("C7", "1/7(1,2,4)")
DISSIDENT = ("C4", "1/4(1,2,3)")
GENERIC = ("1", "smooth")

GERM_RE = re.compile(r"smooth|non-cyclic-singular|1/\d+\(\d+,\d+,\d+\)")


@dataclass
class Query:
    kind: str  # "special" | "generic" | "overflow"
    point: object  # klein336 TorusPoint
    want: frozenset[int]  # exact G-stabilizer, from the oracle
    expect: tuple[str, str] | None = None
    seconds: float = 0.0
    error: str | None = None
    g: frozenset[int] = frozenset()
    h: frozenset[int] = frozenset()
    label: str = ""
    germ: str = ""
    orbit_size: int = 0
    in_orbit: bool = False
    sampled: bool = False  # its orbit and conjugation covariance are checked exactly
    orbit: list | None = None  # kept for sampled queries only


def query(table, p):
    """The operation under test, through the library's public functions."""
    from klein336 import orbits

    g = orbits.stabilizer_indices(table, p, "G")
    h = orbits.stabilizer_indices(table, p, "H")
    label = table.recognize(g)
    germ = orbits.singularity_weights(table, g).image_status()
    orbit = orbits.orbit_points(table, p, "G")
    return g, h, label, germ, orbit


def special_points(table) -> list[tuple[object, tuple[str, str] | None]]:
    """The registry, the T6/T7/T4p fixed points, and small-denominator curve points."""
    from klein336.orbits import locus_points
    from klein336.torus import TorusPoint, fixed_locus_structure, kappa_translates, registry_point

    names = [f"xi_{k}" for k in range(64)] + [f"beta_{i:04b}" for i in range(16)]
    names += [f"omega_{i}{j}" for i in (0, 1) for j in (0, 1)]
    names += [f"eta_{i}" for i in range(7)] + [f"kappa_{i}" for i in range(4)]
    points = [registry_point(table, n) for n in names]
    t7 = locus_points(table, "T7")
    points += locus_points(table, "T6") + t7 + locus_points(table, "T4p")[::6]
    named = table.named
    curves = [("r2", None), ("rho1", 1), ("rho1", 2), ("rho1", 3), ("c3", None), ("h4", None)]
    for carrier, kappa in curves:
        rows = fixed_locus_structure(table, named[carrier]).lambda1_rows
        start = kappa_translates(table, named[carrier])[kappa].coords if kappa else (0,) * 6
        for q in (3, 5, 8):
            for coeffs in ([1] + [0] * (len(rows) - 1), [1] * len(rows)):
                step = [sum(Fraction(c, q) * r[i] for c, r in zip(coeffs, rows)) for i in range(6)]
                points.append(TorusPoint([s + x for s, x in zip(start, step)]))
    expect = {p: C7_POINT for p in t7}
    expect[registry_point(table, "beta_0011")] = DISSIDENT
    unique = dict.fromkeys(points)
    return [(p, expect.get(p)) for p in unique]


def _is_prime(n: int) -> bool:
    return n > 1 and all(n % k for k in range(2, int(n**0.5) + 1))


def generic_point(rng: random.Random, oracle: StabilizerOracle):
    """A point of prime order > 336 whose exact stabilizer is trivial."""
    from klein336.torus import TorusPoint

    while True:
        p = rng.randrange(337, 20000)
        while not _is_prime(p):
            p += 1
        coords = reduce(Fraction(rng.randrange(p), p) for _ in range(6))
        if any(coords) and len(oracle.stabilizer(coords)) == 1:
            return TorusPoint(coords)


class PointQueries:
    def __init__(self, table, seed: int) -> None:
        from klein336.torus import TorusPoint

        self.table = table
        self.rng = random.Random(seed)
        self.oracle = StabilizerOracle([el.int6 for el in table.elements])
        self.h = frozenset(table.h_indices)
        exact = self.oracle.stabilizer
        self.special = [(p, exact(p.coords), e) for p, e in special_points(table)]
        self.overflow = [(p, exact(p.coords)) for p in map(TorusPoint.parse, OVERFLOW)]

    def make_round(self) -> list[Query]:
        trivial = frozenset({self.table.identity})
        batch = [Query("special", p, w, e) for p, w, e in self.special]
        batch += [
            Query("generic", generic_point(self.rng, self.oracle), trivial, GENERIC)
            for _ in range(GENERIC_PER_ROUND)
        ]
        batch += [Query("overflow", p, w) for p, w in self.overflow]
        self.rng.shuffle(batch)
        for q in self.rng.sample([q for q in batch if q.kind != "overflow"], SAMPLES_PER_ROUND):
            q.sampled = True
        return batch

    def run_round(self, batch: list[Query]) -> None:
        """Time each query, scaled to the reference host speed."""
        before = calibrate.kernel_seconds()
        for i in range(0, len(batch), CALIBRATE_EVERY):
            chunk = batch[i : i + CALIBRATE_EVERY]
            for q in chunk:
                self._time(q)
            after = calibrate.kernel_seconds()
            factor = calibrate.scale(before, after)
            for q in chunk:
                q.seconds *= factor
            before = after

    def _time(self, q: Query) -> None:
        start = time.perf_counter()
        try:
            q.g, q.h, q.label, q.germ, orbit = query(self.table, q.point)
        except Exception as exc:  # a failed operation; checked below
            q.seconds = time.perf_counter() - start
            q.error = f"{type(exc).__name__}: {exc}"
            return
        q.seconds = time.perf_counter() - start
        q.orbit_size, q.in_orbit = len(orbit), q.point in orbit
        if q.sampled:
            q.orbit = orbit

    def problems(self, q: Query) -> list[str]:
        if q.error:
            return [q.error]
        out = []
        if q.g != q.want:
            out.append("G-stabilizer differs from the exact oracle")
        if q.h != q.want & self.h:
            out.append("H-stabilizer differs from the exact oracle")
        if q.orbit_size * len(q.g) != self.oracle.order or not q.in_orbit:
            out.append(f"orbit of {q.orbit_size} points does not match the stabilizer")
        if not GERM_RE.fullmatch(q.germ):
            out.append(f"malformed germ type {q.germ!r}")
        if q.expect and (q.label, q.germ) != q.expect:
            out.append(f"expected {q.expect}, got {(q.label, q.germ)}")
        if q.sampled and not out:
            out += self.sampled_problems(q)
        return out

    def sampled_problems(self, q: Query) -> list[str]:
        """Exact orbit, and stab(g x) = g stab(x) g^-1 with equal label and germ."""
        from klein336.torus import TorusPoint

        table, coords = self.table, q.point.coords
        out = []
        if {p.coords for p in q.orbit} != self.oracle.orbit(coords):
            out.append("orbit differs from the exact orbit")
        g = self.rng.randrange(self.oracle.order)
        moved = TorusPoint(self.oracle.apply(g, coords))
        conj = frozenset(int(table.mul[table.mul[g, s], table.inv[g]]) for s in q.g)
        g2, _, label, germ, _ = query(table, moved)
        if g2 != conj or g2 != self.oracle.stabilizer(moved.coords):
            out.append("stabilizers are not conjugation covariant")
        if (label, germ) != (q.label, q.germ):
            out.append("label or germ type changes under conjugation")
        return out
