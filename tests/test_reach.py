"""Every function in ``src/klein336`` is reached by the program, not only by tests.

The package's import, a fixed list of ``cli.main`` argv run in process, and
the point query of ``perfbench/points.py`` on its special points all run under a global
trace function that records the code object of each call and returns None,
so no line is traced.  ``os.fork`` is removed while they run, so ``verify``
computes AC14 in this process, where the trace function sees it, and not in
a forked child.  Each ``def`` in the package must have been entered,
except the entries of ALLOWED, each with its reason.  A function that only
tests call is deleted, with the tests whose only subject it is.
"""

import ast
import functools
import importlib.util
import os
import sys
from pathlib import Path

import klein336
from klein336 import cli
from klein336.torus import TorusPoint

SRC = Path(klein336.__file__).resolve().parent
ROOT = Path(__file__).resolve().parents[1]

# "module:qualname" -> why no command or benchmark call enters it; a bare
# dunder name stands for that method in every class of the package
ALLOWED = {
    ("__setattr__",): "the immutability guards: entered only when code writes to a frozen value",
    ("__repr__",): "debugging output: no command prints a repr",
    (
        "linalg:Mat3.__eq__",
        "linalg:Mat3.__hash__",
        "qfield:QNum.__hash__",
        "quartic:QuarticForm.__eq__",
        "quartic:QuarticForm.__hash__",
    ): "value semantics of the value types: equal values compare and hash equal",
    ("linalg:Mat3.__mul__",): "BENCHMARK.json traces it for linalg.Mat3.mul.calls",
    ("linalg:qnum_nullspace",): "BENCHMARK.json traces it for linalg.qnum_nullspace.self_s",
    ("quartic:act",): "BENCHMARK.json traces it for quartic.act.calls and quartic.act.self_s",
    ("group:UnrecognizedSubgroupError.__init__",): "no subgroup of G has a triple outside the label table",
}
ALLOWED_NAMES = {name for names in ALLOWED for name in names}

POINT = "[1/1009,5/1009,77/1009,0,3/1009,-1/1009]"
# exit code, argv; "{out}" is a fresh path under tmp_path
COMMANDS = [
    (0, ["group", "build", "--json", "{out}"]),
    (0, ["group", "classes", "--in", "G", "--json", "{out}"]),
    (0, ["group", "classes", "--in", "H", "--json", "{out}"]),
    (0, ["group", "subgroups", "--json", "{out}"]),
    (0, ["fixed", "--element", "g7", "--json", "{out}"]),
    (0, ["fixed", "--element", "r2", "--json", "{out}"]),
    (0, ["fixed", "--matrix", '[["-1",0,0],[0,"-1",0],[0,0,"-1"]]', "--json", "{out}"]),
    (0, ["stabilizer", "--point", "beta_0011", "--json", "{out}"]),
    (0, ["stabilizer", "--point", "kappa_3", "--in", "H", "--json", "{out}"]),
    (0, ["orbit", "--point", POINT, "--json", "{out}"]),
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
    (2, ["orbit", "--point", "kappa_9"]),
    (2, ["fixed", "--element", "e"]),
    (2, ["fixed", "--element", "0"]),
    (2, ["fixed", "--matrix", '["1/0",0,0,0,1,0,0,0,1]']),
    (2, ["fixed", "--matrix", "[1, 2]"]),
    (2, ["fixed", "--matrix", '["",0,0,0,1,0,0,0,1]']),  # an empty entry
    (2, ["fixed", "--matrix", '["1/2",0,0,0,1,0,0,0,1]']),  # off the lattice
    (2, ["group", "build", "--json", "{missing}"]),
]


def _defs():
    """(qualified name, (file, co_firstlineno)) of every def in the package."""

    def walk(node, prefix, path):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                # a decorated function's code starts at its first decorator
                line = min([child.lineno] + [d.lineno for d in child.decorator_list])
                yield prefix + child.name, (path, line)
                yield from walk(child, prefix + child.name + ".", path)
            elif isinstance(child, ast.ClassDef):
                yield from walk(child, prefix + child.name + ".", path)
            else:
                yield from walk(child, prefix, path)

    for path in sorted(SRC.glob("*.py")):
        yield from walk(ast.parse(path.read_text()), f"{path.stem}:", str(path))


def _allowed(name: str) -> bool:
    return name in ALLOWED_NAMES or name.rsplit(".", 1)[-1] in ALLOWED_NAMES


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


def test_every_function_is_reached(tmp_path, monkeypatch, capsys):
    points = _points(monkeypatch)
    # every functools cache of the package starts empty, so that each cached
    # function is entered under the trace; the shared group table is untouched
    fresh = {}
    for module in [m for n, m in sys.modules.items() if n.split(".")[0] == "klein336"]:
        for attr, obj in list(vars(module).items()):
            if callable(getattr(obj, "cache_clear", None)) and hasattr(obj, "__wrapped__"):
                if id(obj) not in fresh:
                    fresh[id(obj)] = functools.lru_cache(maxsize=None)(obj.__wrapped__)
                monkeypatch.setattr(module, attr, fresh[id(obj)])

    # verify's in-process path, which runs every function that its forked path runs
    monkeypatch.delattr(os, "fork")
    entered = set()

    def trace(frame, event, arg):
        code = frame.f_code
        entered.add((code.co_filename, code.co_firstlineno))
        return None  # no line events

    previous = sys.gettrace()
    sys.settrace(trace)
    try:
        _import_package()
        for k, (code, argv) in enumerate(COMMANDS):
            paths = {"out": str(tmp_path / f"{k}.out"), "missing": str(tmp_path / "no" / "x")}
            assert cli.main([a.format(**paths) for a in argv]) == code, argv
        _point_queries(points, cli.get_group())
    finally:
        sys.settrace(previous)
    capsys.readouterr()

    entered = {(str(Path(f).resolve()), line) for f, line in entered}
    defs = list(_defs())
    missed = [name for name, where in defs if where not in entered and not _allowed(name)]
    assert not missed, f"functions that no command or benchmark call enters: {missed}"
    # every allowlist entry still names a function
    names = {name for name, _ in defs}
    short = {name.rsplit(".", 1)[-1] for name in names}
    assert all(a in names or a in short for a in ALLOWED_NAMES)
