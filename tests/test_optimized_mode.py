"""Checks that must survive ``python -O``, which strips assert statements.

Each snippet runs in a ``python -O`` subprocess and must raise the named
package exception.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = str(Path(__file__).resolve().parent.parent / "src")

CASES = {
    "coweight-count": (
        "DimensionError",
        "from liehofer.root_system import from_label\n"
        "from_label('A2').coweight((1, 2, 3))\n",
    ),
    # each index computation makes its own zero test, on its pairing row
    "zero-coweight-report": (
        "DegenerateSubgroup",
        "from liehofer.circle_index import CircleSubgroup, index_equality_report\n"
        "from liehofer.root_system import from_label\n"
        "index_equality_report(CircleSubgroup(from_label('F4').coweight((0, 0, 0, 0))))\n",
    ),
    "zero-coweight-conjugate": (
        "DegenerateSubgroup",
        "from liehofer.circle_index import CircleSubgroup, riemannian_index_conjugate\n"
        "from liehofer.root_system import from_label\n"
        "riemannian_index_conjugate(CircleSubgroup(from_label('F4').coweight((0, 0, 0, 0))))\n",
    ),
    "positive-root-count": (
        "ConsistencyError",
        "import liehofer.root_system as rs\n"
        "rs.EXPONENTS[('A', 2)] = (1, 3)\n"
        "rs.build_root_system('A', 2)\n",
    ),
    "correction-energy-bound": (
        "EnergyBoundViolation",
        "from liehofer.quantum_cp1 import FUND, psi_leading\n"
        "psi_leading(1.0, 1, corrections=[(1, FUND, 1.0)])\n",
    ),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_check_raises_under_python_O(case):
    error, body = CASES[case]
    script = (
        "import sys\n"
        "if __debug__:\n"
        "    sys.exit('assert statements are still active')\n"
        "from liehofer import errors\n"
        "try:\n"
        + "".join(f"    {line}\n" for line in body.splitlines())
        + f"except errors.{error}:\n"
        "    sys.exit(0)\n"
        "sys.exit('no exception raised')\n"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-O", "-c", script], capture_output=True, text=True, env=env, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
