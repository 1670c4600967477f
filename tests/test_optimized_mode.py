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
    "truncated-series-length": (
        "DimensionError",
        "from liehofer.loop_morse import TruncatedSeries\n"
        "TruncatedSeries(4, (1,))\n",
    ),
    "positive-root-count": (
        "ConsistencyError",
        "import liehofer.root_system as rs\n"
        "rs._POSITIVE_COUNTS[('A', 2)] = 4\n"
        "rs.build_root_system('A', 2)\n",
    ),
    "newton-inverse-residual": (
        "NumericalFailure",
        "import liehofer.quantum_cp1 as q\n"
        "q.leading_inverse = lambda x, area: q.QuantumElement.from_terms([(1, q.FUND, 1.0)])\n"
        "q.is_invertible(q.unit())\n",
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
