"""Command-line interface.

Subcommands mirror the library layers: group construction and tables,
fixed loci, stabilizers and orbits, locus classification, the singularity
report, and the full verification suite.  Machine output is JSON or TSV
(tab separated, header row, no quoting).  Exit codes: 0 success, 1 a
verification failure, 2 a usage error, 3 an internal error (a computed
result contradicts an exact check), 141 stdout closed before the output
was written (128 + SIGPIPE, as a shell reports a killed writer); errors
print one line to stderr, a closed stdout nothing.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

from .group import (
    GroupConstructionError,
    GroupTable,
    UnrecognizedSubgroupError,
    get_group,
)
from .linalg import Mat3
from .orbits import (
    ConsistencyError,
    classify_locus,
    orbit_points,
    singularity_report,
    singularity_weights,
    stabilizer_indices,
)
from .report import emit_report, has_failures, run_verify
from .torus import (
    TorusPoint,
    fixed_locus,
    registry_point,
)


class UsageError(ValueError):
    pass


# arithmetic or consistency failures inside the package: exit 3, not a traceback
INTERNAL_ERRORS = (
    ConsistencyError,
    GroupConstructionError,
    UnrecognizedSubgroupError,
)


def _parse_point(table: GroupTable, text: str) -> TorusPoint:
    s = text.strip()
    if s.startswith("["):
        try:
            return TorusPoint.parse(s)
        except ZeroDivisionError as exc:  # its message is only "Fraction(1, 0)"
            raise UsageError("bad point literal: a denominator is zero") from exc
        except ValueError as exc:
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
    except ZeroDivisionError as exc:
        raise UsageError("bad matrix literal: a denominator is zero") from exc
    except (ValueError, TypeError) as exc:
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


def _write_json(path: str, obj) -> None:
    _write(path, (json.dumps(obj, indent=2) + "\n").encode())


def _print_tsv(header: list[str], rows: list[dict]) -> None:
    """A tab-separated table under a header row; None prints as '-'."""
    print("\t".join(header))
    for row in rows:
        print("\t".join("-" if row[h] is None else str(row[h]) for h in header))


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
            _write_json(args.json, table.export_elements())
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
        _print_tsv(list(rows[0]), rows)
        if args.json:
            _write_json(args.json, rows)
        return 0
    if args.group_cmd == "subgroups":
        def refs(items):
            return ", ".join(
                f"{nr}" + (f" ({count})" if count > 1 else "") for nr, count in items
            )

        rows = [
            {
                "nr": c.number,
                "structure": c.structure,
                "order": c.order,
                "length": c.length,
                "maximal": refs(c.maximal),
                "minimal_overgroups": refs(c.minimal_over),
            }
            for c in table.all_subgroups_of_h()
        ]
        _print_tsv(list(rows[0]), rows)
        if args.json:
            _write_json(args.json, rows)
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
        print(f"fixed points: {len(locus.translates)}")
        for p in locus.translates:
            print(f"  {p}")
        payload["points"] = [str(p) for p in locus.translates]
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
        _write_json(args.json, payload)
    return 0


def cmd_stabilizer(args) -> int:
    table = get_group()
    p = _parse_point(table, args.point)
    s = stabilizer_indices(table, p, args.quotient)
    payload = {
        "point": str(p),
        "quotient": args.quotient,
        "order": len(s),
        "label": table.recognize(s),
        "contains_minus_one": table.minus_one in s,
        "reflection_count": len(s & table.reflection_set),
        "image_status": singularity_weights(table, s).image_status(),
        "elements": sorted(s),
    }
    print("point {point} in {quotient}: stabilizer order {order}, label {label}".format(**payload))
    print("contains -1: {contains_minus_one}; reflections: {reflection_count}".format(**payload))
    print("image status: {image_status}".format(**payload))
    print("elements: " + " ".join(map(str, payload["elements"])))
    if args.json:
        _write_json(args.json, payload)
    return 0


def cmd_orbit(args) -> int:
    table = get_group()
    p = _parse_point(table, args.point)
    points = [str(q) for q in orbit_points(table, p, args.quotient)]
    print(f"orbit of {p} under {args.quotient}: {len(points)} points")
    for q in points:
        print(f"  {q}")
    if args.json:
        payload = {
            "point": str(p),
            "quotient": args.quotient,
            "size": len(points),
            "points": points,
        }
        _write_json(args.json, payload)
    return 0


def cmd_classify(args) -> int:
    table = get_group()
    records = classify_locus(table, args.locus, args.quotient)
    rows = [r.to_dict() for r in records]
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
    _print_tsv(header, rows)
    if args.json:
        _write_json(args.json, rows)
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
        _write_json(args.json, rep.to_dict())
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
        code = args.func(args)
        sys.stdout.flush()  # a closed stdout fails here, not at interpreter exit
        return code
    except BrokenPipeError:
        # the reader has gone: point stdout at devnull so the last flush is quiet
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 141
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except INTERNAL_ERRORS as exc:
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
