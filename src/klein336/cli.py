"""Command-line interface.

Subcommands mirror the library layers: group construction and tables,
fixed loci, stabilizers and orbits, locus classification, the singularity
report, and the full verification suite.  Machine output is JSON or TSV
(tab separated, header row, no quoting); exit code 2 flags usage errors
and 1 a verification failure.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .group import GroupTable, get_group
from .linalg import Mat3
from .orbits import (
    classify_locus,
    orbit_points,
    singularity_report,
    singularity_weights,
    stabilizer,
)
from .report import emit_report, has_failures, run_verify
from .torus import (
    TorusPoint,
    fixed_locus,
    registry_point,
)


class UsageError(ValueError):
    pass


def _parse_point(table: GroupTable, text: str) -> TorusPoint:
    s = text.strip()
    if s.startswith("["):
        try:
            return TorusPoint.parse(s)
        except (ValueError, ZeroDivisionError) as exc:
            raise UsageError(f"bad point literal: {exc}") from exc
    try:
        return registry_point(table, s)
    except (KeyError, ValueError) as exc:  # unknown name, or index out of range
        # str() of a KeyError is the repr of its message, quotes and all
        raise UsageError(exc.args[0] if isinstance(exc, KeyError) else str(exc)) from exc


def _parse_element(table: GroupTable, args) -> int:
    if args.element is not None:
        name = args.element.strip()
        if name in table.named:
            return table.named[name]
        # ASCII digits only: str.isdigit also accepts '²' and '٣'
        if name.isascii() and name.isdigit() and int(name) < table.size:
            return int(name)
        raise UsageError(
            f"unknown element {name!r}; use a named element "
            f"({', '.join(sorted(table.named))}) or an id 0..335"
        )
    try:
        entries = json.loads(args.matrix)
        mat = Mat3.from_strings(entries)
    except (ValueError, TypeError, ZeroDivisionError) as exc:
        raise UsageError(f"bad matrix literal: {exc}") from exc
    try:
        return table.index_of_mat(mat)
    except KeyError as exc:
        raise UsageError("matrix is not an element of the reflection group") from exc


def _write(path: str | None, data: bytes) -> None:
    if path:
        try:
            Path(path).write_bytes(data)
        except OSError as exc:
            raise UsageError(f"cannot write {path}: {exc.strerror or exc}") from exc


def cmd_group(args) -> int:
    table = get_group()
    if args.group_cmd == "build":
        print(
            f"group of order {table.size}; unimodular subgroup of order "
            f"{len(table.h_indices)}; {len(table.reflections)} reflections, "
            f"{len(table.antireflections)} antireflections; presentation holds: "
            f"{table.verify_presentation()}"
        )
        if args.json:
            payload = json.dumps(table.export_elements(), indent=2) + "\n"
            _write(args.json, payload.encode())
            print(f"element table written to {args.json}")
        return 0
    if args.group_cmd == "classes":
        classes = table.conjugacy_classes(args.group_in)
        rows = [
            {
                "nr": i + 1,
                "element_order": c.element_order,
                "det": c.det,
                "size": len(c.members),
                "representative": c.representative,
                "word": ".".join(f"r{k}" for k in table.elements[c.representative].word)
                or "e",
            }
            for i, c in enumerate(classes)
        ]
        header = ["nr", "element_order", "det", "size", "representative", "word"]
        print("\t".join(header))
        for r in rows:
            print("\t".join(str(r[h]) for h in header))
        if args.json:
            _write(args.json, (json.dumps(rows, indent=2) + "\n").encode())
        return 0
    if args.group_cmd == "subgroups":
        classes = table.all_subgroups_of_h()
        header = ["nr", "structure", "order", "length", "maximal", "minimal_overgroups"]
        print("\t".join(header))

        def refs(items):
            return ", ".join(
                f"{nr}" + (f" ({count})" if count > 1 else "") for nr, count in items
            )

        rows = []
        for c in classes:
            row = {
                "nr": c.number,
                "structure": c.structure,
                "order": c.order,
                "length": c.length,
                "maximal": refs(c.maximal),
                "minimal_overgroups": refs(c.minimal_over),
            }
            rows.append(row)
            print("\t".join(str(row[h]) for h in header))
        if args.json:
            _write(args.json, (json.dumps(rows, indent=2) + "\n").encode())
        return 0
    raise UsageError("unknown group subcommand")


def cmd_fixed(args) -> int:
    table = get_group()
    idx = _parse_element(table, args)
    if idx == table.identity:
        raise UsageError("the identity fixes the whole torus")
    locus = fixed_locus(table, idx)
    el = table.elements[idx]
    print(f"element {idx} (order {el.order}, det {el.det}): {locus.kind}")
    payload: dict = {"element": idx, "kind": locus.kind}
    if locus.kind == "elliptic":
        print(f"fixed points: {len(locus.points)}")
        for p in locus.points:
            print(f"  {p}")
        payload["points"] = [str(p) for p in locus.points]
    else:
        dim = locus.dim
        print(f"eigenspace dimension {dim} ({'mirror' if dim == 2 else 'axis'})")
        print(f"components: {locus.component_count}")
        print("translate representatives:")
        for t in locus.translates:
            print(f"  {t}")
        payload.update(
            {
                "eigenspace_dim": dim,
                "component_count": locus.component_count,
                "translates": [str(t) for t in locus.translates],
                "invariant_lattice": locus.lambda1_rows,
            }
        )
    if args.json:
        _write(args.json, (json.dumps(payload, indent=2) + "\n").encode())
    return 0


def cmd_stabilizer(args) -> int:
    table = get_group()
    p = _parse_point(table, args.point)
    sub = stabilizer(table, p, args.quotient)
    winfo = singularity_weights(table, sub.elements)
    print(
        f"point {p} in {args.quotient}: stabilizer order {sub.order}, label {sub.label}"
    )
    print(
        f"contains -1: {sub.contains_minus_one}; reflections: {sub.reflection_count}"
    )
    print(f"image status: {winfo.image_status()}")
    print("elements: " + " ".join(str(i) for i in sub.sorted_elements()))
    if args.json:
        payload = {
            "point": str(p),
            "quotient": args.quotient,
            "order": sub.order,
            "label": sub.label,
            "contains_minus_one": sub.contains_minus_one,
            "reflection_count": sub.reflection_count,
            "image_status": winfo.image_status(),
            "elements": sub.sorted_elements(),
        }
        _write(args.json, (json.dumps(payload, indent=2) + "\n").encode())
    return 0


def cmd_orbit(args) -> int:
    table = get_group()
    p = _parse_point(table, args.point)
    orb = orbit_points(table, p, args.quotient)
    print(f"orbit of {p} under {args.quotient}: {len(orb)} points")
    for q in orb:
        print(f"  {q}")
    if args.json:
        payload = {
            "point": str(p),
            "quotient": args.quotient,
            "size": len(orb),
            "points": [str(q) for q in orb],
        }
        _write(args.json, (json.dumps(payload, indent=2) + "\n").encode())
    return 0


def cmd_classify(args) -> int:
    table = get_group()
    records = classify_locus(table, args.locus, args.quotient)
    header = [
        "locus",
        "quotient",
        "representative",
        "rep_name",
        "orbit_size",
        "stabilizer_order",
        "label",
        "reflection_generated",
        "image_status",
    ]
    print("\t".join(header))
    for r in records:
        d = r.to_dict()
        print("\t".join(str(d[h] if d[h] is not None else "-") for h in header))
    if args.json:
        payload = [r.to_dict() for r in records]
        _write(args.json, (json.dumps(payload, indent=2) + "\n").encode())
    return 0


def cmd_singularities(args) -> int:
    table = get_group()
    rep = singularity_report(table, args.quotient)
    print(f"quotient by {args.quotient}:")
    print("isolated singular points:")
    for r in rep.isolated:
        print(f"  orbit of {r['representative']}: {r['image_status']} (orbit size {r['orbit_size']})")
    print("curve strata:")
    for c in rep.curves:
        line = f"  {c['name']} (label {c['label']}): {c['image_status']}"
        print(line)
        for d in c["dissident_points"]:
            print(f"    dissident point {d['representative']}: {d['image_status']}")
        for d in c["ordinary_singular_points"]:
            print(
                f"    ordinary singular point {d['representative']}: {d['image_status']}"
                f" (orbit size {d['orbit_size']})"
            )
    print(f"smooth special orbits: {rep.smooth_special_orbits}")
    for note in rep.notes:
        print(f"note: {note}")
    if args.json:
        _write(args.json, (json.dumps(rep.to_dict(), indent=2) + "\n").encode())
    return 0


def cmd_verify(args) -> int:
    table = get_group()
    outcomes = run_verify(table, seed=args.seed)
    for o in outcomes:
        print(f"{o.status.upper():18s} {o.name}")
        if o.status == "fail":
            print(f"    expected: {o.expected}")
            print(f"    actual:   {o.actual}")
    if args.json:
        _write(args.json, emit_report(outcomes, "json"))
    if args.tsv:
        _write(args.tsv, emit_report(outcomes, "tsv"))
    failed = has_failures(outcomes)
    n_fail = sum(1 for o in outcomes if o.status == "fail")
    n_disc = sum(1 for o in outcomes if o.status == "paper-discrepancy")
    n_pass = sum(1 for o in outcomes if o.status == "pass")
    print(f"{n_pass} passed, {n_fail} failed, {n_disc} paper discrepancies")
    return 1 if failed else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="klein336",
        description=(
            "Exact computations for the order-336 unitary reflection group, its "
            "invariant rank-6 lattice, and the singularities of the torus quotient."
        ),
    )
    sub = parser.add_subparsers(dest="cmd", required=True)

    p_group = sub.add_parser("group", help="group construction and tables")
    gsub = p_group.add_subparsers(dest="group_cmd", required=True)
    p_build = gsub.add_parser("build", help="build the group and print a summary")
    p_build.add_argument("--json", help="write the element table to this path")
    p_classes = gsub.add_parser("classes", help="conjugacy classes")
    p_classes.add_argument("--in", dest="group_in", choices=("G", "H"), default="G")
    p_classes.add_argument("--json")
    p_subs = gsub.add_parser("subgroups", help="subgroup classes of the unimodular part")
    p_subs.add_argument("--json")
    p_group.set_defaults(func=cmd_group)

    p_fixed = sub.add_parser("fixed", help="fixed locus of an element")
    spec = p_fixed.add_mutually_exclusive_group(required=True)
    spec.add_argument("--element", help="named element (r1, rho2, g7, ...) or id")
    spec.add_argument("--matrix", help="JSON 3x3 (or flat 9) matrix of field elements")
    p_fixed.add_argument("--json")
    p_fixed.set_defaults(func=cmd_fixed)

    p_stab = sub.add_parser("stabilizer", help="stabilizer of a torsion point")
    p_stab.add_argument("--point", required=True, help="registry name or [a,b,c,d,e,f]")
    p_stab.add_argument("--in", dest="quotient", choices=("G", "H"), default="G")
    p_stab.add_argument("--json")
    p_stab.set_defaults(func=cmd_stabilizer)

    p_orbit = sub.add_parser("orbit", help="orbit of a torsion point")
    p_orbit.add_argument("--point", required=True)
    p_orbit.add_argument("--in", dest="quotient", choices=("G", "H"), default="G")
    p_orbit.add_argument("--json")
    p_orbit.set_defaults(func=cmd_orbit)

    p_classify = sub.add_parser("classify", help="orbit classification of a special locus")
    p_classify.add_argument(
        "--locus", required=True, choices=("T2", "T6", "T4p", "T7", "beta", "omega")
    )
    p_classify.add_argument("--in", dest="quotient", choices=("G", "H"), default="G")
    p_classify.add_argument("--json")
    p_classify.set_defaults(func=cmd_classify)

    p_sing = sub.add_parser("singularities", help="singularity report of a quotient")
    p_sing.add_argument("--quotient", choices=("G", "H"), default="G")
    p_sing.add_argument(
        "--seed", type=int, default=0,
        help="accepted for compatibility; the report no longer depends on it",
    )
    p_sing.add_argument("--json")
    p_sing.set_defaults(func=cmd_singularities)

    p_verify = sub.add_parser("verify", help="run the full verification suite")
    p_verify.add_argument("--json", help="write the JSON report to this path")
    p_verify.add_argument("--tsv", help="write the TSV report to this path")
    p_verify.add_argument("--seed", type=int, default=0)
    p_verify.set_defaults(func=cmd_verify)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
