"""The reach audit: every ``def`` of the package runs in some command, or
``ALLOWED`` names it with the reason it stays.

One fresh interpreter runs every argv of the goldens (``test_golden.CASES``
and ``HESSIAN_CASES``) and the usage errors of ``USAGE_ERRORS`` through
``cli.main`` under ``sys.setprofile``, from cold memos, and reports the
(file, first line) of every package code object that it entered.  A
``def`` whose first line (its first decorator's, if it has one) no run
entered is unreached.  The unreached defs must be exactly the names of
``ALLOWED``, as the memo census keeps ``lru_cache`` functions: a def that
no command enters edits this table, and so does one that a command starts
to enter."""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

from test_golden import CASES, HESSIAN_CASES

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "liehofer"

# Each exits 2; together they reach the parser's one-line error, the float
# type of --area and the cut of over-long bad text.
USAGE_ERRORS = [
    ["index", "--system", "A2", "--xi", "1," * 40 + "x"],
    ["hofer", "--system", "A2", "--xi", "1,1", "--" + "y" * 80],
    ["seidel-cp1", "--xi", "2", "--area", "nan"],
]

# The names the benchmark binds (perfbench/tracing.py patches them, and
# perfbench/worker.py reads the cache statistics of _orbit_coords), and
# the SU(2) oracle they stand on: the tests' quaternion loops and dense
# Hessian.  This is the exact list of what goes once the benchmark no
# longer names them.
_TRACED = "perfbench/tracing.py wraps it by name"
_SU2_ORACLE = "the tests' quaternion and dense-Hessian oracle; perfbench/tracing.py wraps it"
ALLOWED = {
    "hofer.orbit_maximum": _TRACED,
    "root_system.pairing": _TRACED + "; the tests' per-root oracle of every pairing row",
    "root_system.inner": _TRACED + "; the tests' exact inner product",
    "root_system.orbit_array": _TRACED,
    "root_system._orbit_coords": "perfbench/worker.py reads its cache_info(); the BFS of orbit_array",
    "root_system.weyl_poincare": _TRACED + "; the tests' Weyl Poincare polynomial",
    "su2_loops._qmul": _SU2_ORACLE,
    "su2_loops._qexp": _SU2_ORACLE,
    "su2_loops.DiscreteLoop.__post_init__": _SU2_ORACLE,
    "su2_loops.DiscreteLoop.n": _SU2_ORACLE,
    "su2_loops.geodesic_loop": _SU2_ORACLE,
    "su2_loops._distances": _SU2_ORACLE,
    "su2_loops._step_distances": _SU2_ORACLE,
    "su2_loops.discrete_energy": _SU2_ORACLE,
    "su2_loops.discrete_lplus": _SU2_ORACLE,
    "su2_loops.apply_tangent": _SU2_ORACLE,
    "su2_loops._step_blocks": _SU2_ORACLE,
    "su2_loops.energy_hessian": _SU2_ORACLE,
    "root_system.RootSystem.__repr__": "no command prints a system; test failures do",
    "root_system.Coweight.__repr__": "no command prints a coweight; test failures do",
}

_SCRIPT = """
import contextlib, io, json, sys
from liehofer import cli
entered = set()

def profile(frame, event, arg):
    if event == "call":
        entered.add(frame.f_code)

codes = []
sys.setprofile(profile)
try:
    for argv in json.load(sys.stdin):
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            try:
                codes.append(cli.main(argv))
            except SystemExit as exc:
                codes.append(exc.code)
finally:
    sys.setprofile(None)
lines = sorted({(code.co_filename, code.co_firstlineno) for code in entered})
json.dump({"codes": codes, "entered": lines}, sys.stdout)
"""


def _defs():
    """{(file, first line): "module.qualified.name"} of every def in the
    package; a nested def is named after its enclosing defs and classes."""
    found = {}

    def walk(node, prefix, path):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                found[(path, first)] = prefix + child.name
                walk(child, prefix + child.name + ".", path)
            elif isinstance(child, ast.ClassDef):
                walk(child, prefix + child.name + ".", path)
            else:
                walk(child, prefix, path)

    for path in sorted(PACKAGE.glob("*.py")):
        walk(ast.parse(path.read_text()), path.stem + ".", str(path))
    return found


def _run_every_command():
    argvs = [*CASES.values(), *HESSIAN_CASES.values(), *USAGE_ERRORS]
    path = [str(PACKAGE.parent), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    proc = subprocess.run(
        [sys.executable, "-c", _SCRIPT], input=json.dumps(argvs), capture_output=True,
        text=True, env=env, timeout=50, check=True,
    )
    report = json.loads(proc.stdout)
    return argvs, report["codes"], {(f, line) for f, line in report["entered"]}


def test_every_def_runs_in_a_command_or_names_its_reason():
    argvs, codes, entered = _run_every_command()
    assert codes == [0] * (len(argvs) - len(USAGE_ERRORS)) + [2] * len(USAGE_ERRORS)
    unreached = {name for key, name in _defs().items() if key not in entered}
    assert unreached == set(ALLOWED)
    assert all(ALLOWED.values())
