"""Every statement in ``src/klein336`` is executed by the program, not only by tests.

The package's import, a fixed list of ``cli.main`` argv run in process, and
the point query of ``perfbench/points.py`` on its special points all run
under a line trace of the package's files.  ``verify`` runs twice: once
without ``os.fork``, so that AC14 is computed in this process, where the
trace sees it, and once with it, so that the parent's side of the fork is
traced; the forked child stops tracing.

Every executable statement of the package must have run, except two kinds
that are exempt by their form: ``raise`` statements, the guards, which
Tier-1 drives, and ``return NotImplemented``.  Every other statement that
no command runs is covered by an entry of ALLOWED, each with its reason.
An entry that covers no unexecuted statement fails the test as well, so the
list names only what is still unreached.  Code that only tests run is
deleted, with the tests whose only subject it is.
"""

import ast
import functools
import importlib.util
import io
import os
import sys
import tokenize
from pathlib import Path
from typing import NamedTuple

import klein336
from klein336 import cli
from klein336.torus import TorusPoint

SRC = Path(klein336.__file__).resolve().parent
ROOT = Path(__file__).resolve().parents[1]

# An entry is "module:qualname", which covers the statements of that function
# (a bare dunder name: of that method in every class of the package), or a
# pair ("module:qualname", text), which covers the statement of that function
# whose first line, without its comment, is text, and the statements nested in
# it; "module:<module>" names a module's top level.  Each group shares a reason.
ALLOWED = {
    ("__repr__",): "debugging output: no command prints a repr",
    (
        "linalg:Mat3.__eq__",
        "linalg:Mat3.__hash__",
        "qfield:QNum.__hash__",
        "quartic:QuarticForm.__eq__",
        "quartic:QuarticForm.__hash__",
    ): "value semantics of the value types: equal values compare and hash equal",
    ("torus:TorusPoint.__reduce__",): "pickle and copy.copy of a point: no command copies a point or sends it to a process",
    ("linalg:Mat3.__mul__",): "BENCHMARK.json traces it for linalg.Mat3.mul.calls",
    ("linalg:qnum_nullspace",): "BENCHMARK.json traces it for linalg.qnum_nullspace.self_s",
    ("quartic:act",): "BENCHMARK.json traces it for quartic.act.calls and quartic.act.self_s",
    ("group:UnrecognizedSubgroupError.__init__",): "no subgroup of G has a triple outside the label table",
    (
        ("cli:cmd_verify", 'print(f"    expected: {o.expected}")'),
        ("cli:cmd_verify", 'print(f"    actual:   {o.actual}")'),
    ): "a failed check: every check of verify passes",
    (("orbits:Orbit.__contains__", "return False"),): (
        "a point of another order: the benchmark asks about the point whose orbit it is"
    ),
    (("cli:main", "except BrokenPipeError:"),): (
        "a reader that closes stdout early: the commands write to a captured stdout"
    ),
    (("cli:main", "except INTERNAL_ERRORS as exc:"),): (
        "an internal error: no computed result contradicts its exact check"
    ),
    (("cli:<module>", 'if __name__ == "__main__":'),): (
        "python -m klein336.cli, which the closed-stdout test runs in a subprocess; the commands call cli.main"
    ),
    (("linalg:int_det", "return 0"),): "a singular matrix: the program takes determinants of g - I for elliptic g only",
    (("linalg:hnf_contains", "return False"),): "a vector outside the lattice: the program tests members only",
    (("report:_Forked.__enter__", "if self.pid == 0:"),): "the forked child's side: the child stops tracing",
    (
        ("report:_Forked.result", "args, attributes = value"),
        ("report:_Forked.result", "exc = error.__new__(error, *args)"),
        ("report:_Forked.result", "exc.__dict__.update(attributes)"),
    ): "an exception raised in the child: AC14 raises none",
    (("report:_Forked.__exit__", "if self.pid is not None:"),): (
        "the kill of a child whose result is unread: no exception leaves verify's block"
    ),
    (("orbits:_images_on_curve", "moved = moved.astype(object)"),): (
        "the int64 guard for library callers: a curve's transverse rows times the order of a"
        " command's point stay far below 2^63"
    ),
    (("orbits:singularity_report", "notes.append("),): "H's kappa curves have the classical invariance group D8",
    (("qfield:_reduced", "g = -g"),): "a negative denominator: the program passes from_ints a positive one",
}

POINT = "[1/1009,5/1009,77/1009,0,3/1009,-1/1009]"
GENERIC = "[3/20011,1000/20011,4567/20011,12345/20011,777/20011,19000/20011]"
# exit code, argv; "{out}" is a fresh path under tmp_path
COMMANDS = [
    (0, ["group", "build", "--json", "{out}"]),
    (0, ["group", "classes", "--in", "G", "--json", "{out}"]),
    (0, ["group", "classes", "--in", "H", "--json", "{out}"]),
    (0, ["group", "subgroups", "--json", "{out}"]),
    (0, ["fixed", "--element", "g7", "--json", "{out}"]),
    (0, ["fixed", "--element", "r2", "--json", "{out}"]),
    (0, ["fixed", "--matrix", '[["-1",0,0],[0,"-1",0],[0,0,"-1"]]', "--json", "{out}"]),
    # element 3, with its entries written in "w", "-w", "k*w" and rational terms
    (0, ["fixed", "--matrix", '["1/2","-1/2","1/2*w-w","-1/2","1/2","-1/2*w","w-1/2-1/2*w","-1/2+1/2*w",0]']),
    (0, ["stabilizer", "--point", "beta_0011", "--json", "{out}"]),
    (0, ["stabilizer", "--point", "kappa_3", "--in", "H", "--json", "{out}"]),
    # trivial stabilizers: the identity alone holds row 0's first key, on
    # int64 and on Python-integer numerators
    (0, ["stabilizer", "--point", GENERIC]),
    (0, ["stabilizer", "--point", "[1/100000000000000000000,3/100000000000000000000,0,0,0,7/100000000000000000000]"]),
    # a point of the r2 mirror: r2's image ties its first key of width 3, and
    # the full rows of the tied positions are compared
    (0, ["stabilizer", "--point", "[2/20011,5/20011,77/20011,89/20011,-79/20011,170/20011]"]),
    (0, ["orbit", "--point", POINT, "--json", "{out}"]),
    # 336 distinct first keys of width 3
    (0, ["orbit", "--point", GENERIC]),
    # tied first sort keys, and Python-integer numerators
    (0, ["orbit", "--point", "[2/20011,5/20011,77/20011,89/20011,-79/20011,170/20011]"]),
    (0, ["orbit", "--point", "[1/100000000000000000000,0,0,0,0,0]"]),
    (0, ["orbit", "--point", "eta_1", "--in", "H", "--json", "{out}"]),
    (0, ["classify", "--locus", "T7", "--json", "{out}"]),
    (0, ["classify", "--locus", "beta", "--in", "H", "--json", "{out}"]),
    (0, ["singularities", "--quotient", "G", "--json", "{out}"]),
    (0, ["singularities", "--quotient", "H", "--json", "{out}"]),
    (0, ["verify", "--json", "{out}.json", "--tsv", "{out}.tsv"]),
    # one usage error of each kind
    (2, ["stabilizer", "--point", "[1/0,0,0,0,0,0]"]),
    (2, ["stabilizer", "--point", "[1/2,0,0]"]),
    (2, ["stabilizer", "--point", "[1,2,3,4,5,6"]),  # not bracketed
    (2, ["stabilizer", "--point", "omega_3"]),
    (2, ["stabilizer", "--point", "beta_99"]),  # a decimal beta index
    (2, ["orbit", "--point", "kappa_9"]),
    (2, ["fixed", "--element", "e"]),
    (2, ["fixed", "--element", "0"]),
    (2, ["fixed", "--matrix", '["1/0",0,0,0,1,0,0,0,1]']),
    (2, ["fixed", "--matrix", "[1, 2]"]),
    (2, ["fixed", "--matrix", '["",0,0,0,1,0,0,0,1]']),  # an empty entry
    (2, ["fixed", "--matrix", '["1/2",0,0,0,1,0,0,0,1]']),  # off the lattice
    (2, ["group", "build", "--json", "{missing}"]),
]


class _Statement(NamedTuple):
    scope: str  # "module:qualname" of the function, class or module it is in
    node: ast.AST
    text: str  # its first line, without the comment
    lines: range  # a line event on one of these shows that it ran
    children: list  # the statements nested in it


def _is_docstring(body, node):
    return (
        node is body[0]
        and isinstance(node, ast.Expr)
        and isinstance(node.value, ast.Constant)
        and isinstance(node.value.value, str)
    )


def _statements():
    """{path: [_Statement]} for the top level of every module of the package.

    An except clause is kept as a statement, so that an entry can name it, but
    is never checked itself.  A compound statement's own lines are its header
    (its decorators, its test or its iterable); a simple statement's are all
    of its lines.
    """
    out = {}
    for path in sorted(SRC.glob("*.py")):
        text = path.read_text()
        source = text.splitlines()
        comments = {
            tok.start[0]: tok.start[1]
            for tok in tokenize.generate_tokens(io.StringIO(text).readline)
            if tok.type == tokenize.COMMENT
        }

        def block(body, qual):
            return [stmt(node, qual) for node in body if not _is_docstring(body, node)]

        def stmt(node, qual):
            inner = qual
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                inner = qual + [node.name]
            nested = [getattr(node, f, []) for f in ("body", "orelse", "finalbody")]
            nested += [[h] for h in getattr(node, "handlers", [])]
            start = min([node.lineno] + [d.lineno for d in getattr(node, "decorator_list", [])])
            end = node.body[0].lineno - 1 if hasattr(node, "body") else node.end_lineno
            line = source[node.lineno - 1]
            return _Statement(
                f"{path.stem}:{'.'.join(qual) or '<module>'}",
                node,
                line[: comments.get(node.lineno, len(line))].strip(),
                range(start, end + 1),
                [s for body in nested for s in block(body, inner)],
            )

        out[str(path)] = block(ast.parse(text).body, [])
    return out


def _exempt_by_form(node) -> bool:
    """A raise, or a return of NotImplemented."""
    if isinstance(node, ast.Raise):
        return True
    value = getattr(node, "value", None)
    return isinstance(node, ast.Return) and isinstance(value, ast.Name) and value.id == "NotImplemented"


def _covers(entry, s: _Statement, path: list[_Statement]) -> bool:
    """Does the entry cover s, whose enclosing statements, s included, are path?"""
    if isinstance(entry, str):
        qualname = s.scope.split(":")[1]
        if ":" not in entry:
            return entry in qualname.split(".")
        return s.scope == entry or s.scope.startswith(entry + ".")
    return any((p.scope, p.text) == entry for p in path)


def _unexecuted(statements, ran):
    """(statement, enclosing statements) of every statement that did not run and
    is not exempt by its form; a compound statement ran when its header or a
    statement nested in it ran."""
    missed = []

    def visit(s, path, lines):
        path = path + [s]
        children_ran = [visit(c, path, lines) for c in s.children]
        executed = any(n in lines for n in s.lines) or any(children_ran)
        if not (executed or isinstance(s.node, ast.ExceptHandler) or _exempt_by_form(s.node)):
            missed.append((s, path))
        return executed

    for file, tops in statements.items():
        for s in tops:
            visit(s, [], ran.get(file, set()))
    return missed


def _import_package():
    """Each module's top level, run again as a fresh import runs it."""
    for path in sorted(SRC.glob("*.py")):
        name = "klein336" if path.stem == "__init__" else f"klein336.{path.stem}"
        exec(compile(path.read_text(), str(path), "exec"), {"__name__": name, "__package__": "klein336"})


def _points(monkeypatch):
    """perfbench/points.py, whose ``query`` is the benchmark's point query."""
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))  # for its calibrate and oracle
    spec = importlib.util.spec_from_file_location("perfbench_points", ROOT / "perfbench" / "points.py")
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)  # its dataclass looks itself up there
    spec.loader.exec_module(module)
    return module


def _point_queries(points, table):
    """points.query, and the orbit membership test, on every special point and one parsed point."""
    for p in [p for p, _ in points.special_points(table)] + [TorusPoint.parse(POINT)]:
        *_, orbit = points.query(table, p)
        assert p in orbit


def test_every_statement_is_executed(tmp_path, monkeypatch, capsys):
    points = _points(monkeypatch)
    # every functools cache of the package starts empty, so that each cached
    # function runs under the trace; the shared group table is untouched
    fresh = {}
    for module in [m for n, m in sys.modules.items() if n.split(".")[0] == "klein336"]:
        for attr, obj in list(vars(module).items()):
            if callable(getattr(obj, "cache_clear", None)) and hasattr(obj, "__wrapped__"):
                if id(obj) not in fresh:
                    fresh[id(obj)] = functools.lru_cache(maxsize=None)(obj.__wrapped__)
                monkeypatch.setattr(module, attr, fresh[id(obj)])

    files = {str(p) for p in SRC.glob("*.py")}
    files |= {str(Path(klein336.__file__).parent / Path(f).name) for f in files}
    ran = {}

    def line(frame, event, arg):
        if event == "line":
            ran.setdefault(frame.f_code.co_filename, set()).add(frame.f_lineno)
        return line

    def trace(frame, event, arg):
        return line if frame.f_code.co_filename in files else None

    fork = os.fork

    def untraced_fork():
        pid = fork()
        if pid == 0:
            sys.settrace(None)
        return pid

    previous = sys.gettrace()
    sys.settrace(trace)
    try:
        _import_package()
        # verify's in-process path, which runs every statement that its forked child runs
        monkeypatch.delattr(os, "fork")
        for k, (code, argv) in enumerate(COMMANDS):
            paths = {"out": str(tmp_path / f"{k}.out"), "missing": str(tmp_path / "no" / "x")}
            assert cli.main([a.format(**paths) for a in argv]) == code, argv
        _point_queries(points, cli.get_group())
        # and its forked path, for the parent's side
        monkeypatch.setattr(os, "fork", untraced_fork, raising=False)
        assert cli.main(["verify"]) == 0
    finally:
        sys.settrace(previous)
    capsys.readouterr()

    ran = {str(Path(f).resolve()): lines for f, lines in ran.items()}
    statements = _statements()
    missed = _unexecuted(statements, ran)
    entries = [e for group in ALLOWED for e in group]
    uncovered = [
        f"{s.scope}: line {s.node.lineno}: {s.text}"
        for s, path in missed
        if not any(_covers(e, s, path) for e in entries)
    ]
    assert not uncovered, f"statements that no command or benchmark call runs: {uncovered}"
    stale = [e for e in entries if not any(_covers(e, s, path) for s, path in missed)]
    assert not stale, f"ALLOWED entries that cover no unexecuted statement: {stale}"
