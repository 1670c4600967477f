"""Mutation harness: each mutant in ``MUTANTS`` must be killed by its test.

Run from anywhere with ``python tests/mutants.py``; pytest does not
collect this file.  A mutant is one exact text substitution in one file,
with the test that must fail once it is applied.  The harness first runs
every killer test on an unmutated copy of ``src`` and ``tests`` in a
temporary directory, where each must pass.  It then applies each mutant
to a fresh temporary copy, never to the working tree, and runs its killer
there.  The run exits nonzero if a killer fails on the clean copy, if a
mutant's old text does not occur exactly once in its file, or if a
mutant survives.

Each row names one decision and the change that breaks it.  Equivalent
mutants (a change no test could tell from the original) stay out of the
table; the comments at its end list the ones considered, each with the
reason no test can kill it.
"""

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

KERNELS = "tests/test_root_system.py::test_generated_kernels_on_every_box3_coweight"
FACE = "tests/test_root_system.py::test_face_table_and_bott_form_on_every_face"

# (file, exact old text, new text, killer test)
MUTANTS = [
    # the row scheme: a step along the folded coordinate keeps its parent's
    # local; naming the coordinate reads a name line_zeros never binds
    (
        "src/liehofer/root_system.py",
        "            name.append(name[p])\n",
        '            name.append(f"c{i}")\n',
        KERNELS,
    ),
    # line_zeros: b is the root's coefficient of the last simple root
    (
        "src/liehofer/root_system.py",
        "(name, root[last]) for name, root",
        "(name, root[0]) for name, root",
        KERNELS,
    ),
    # gram_form: every Gram row sums all of its terms
    (
        "src/liehofer/root_system.py",
        " for j, g in enumerate(gram_row))",
        " for j, g in enumerate(gram_row) if (i, j) != (0, 1))",
        KERNELS,
    ),
    # gram_form: x = c . G c pairs each coordinate with its own Gram row
    (
        "src/liehofer/root_system.py",
        'f"c{i} * g{i}"',
        'f"c{i} * g{(i + 1) % rank}"',
        KERNELS,
    ),
    # the length refuses the zero coweight before it reads the norm memo
    (
        "src/liehofer/hofer.py",
        "    x = _invariants(system, xi.coords)[2]\n    if not x:\n",
        "    x = _invariants(system, xi.coords)[2]\n    if False:\n",
        "tests/test_hofer.py::test_zero_xi_rejected_cold_and_memoized",
    ),
    # the Seidel check takes L+ through the orbit maximum, not from the
    # length that psi_leading was handed
    (
        "src/liehofer/verify.py",
        "l_plus = hofer.positive_norm(xi, xi)[1].value_float",
        "l_plus = hofer.hofer_length_circle(xi).value_float",
        "tests/test_verify.py::test_seidel_check_compares_with_an_independent_length",
    ),
    # the orbit maximum is the dot product M even where eta is xi: keyed on
    # the record's x, the Seidel check's two sides would agree by design
    (
        "src/liehofer/hofer.py",
        "    return system, system.dot(dom_eta, g_xi), x, e\n",
        "    if eta.coords == xi.coords:\n        return system, x, x, e\n"
        "    return system, system.dot(dom_eta, g_xi), x, e\n",
        "tests/test_verify.py::test_seidel_check_fails_when_the_form_and_the_orbit_maximum_disagree",
    ),
    # the walk hands the raised coweight, not its parent's, down to the leaf
    (
        "src/liehofer/loop_morse.py",
        "            walk(k + 1, raised, index)\n",
        "            walk(k + 1, xi, index)\n",
        "tests/test_loop_morse.py::test_walk_matches_box_scan",
    ),
    # the series keeps every degree up to and including the cutoff
    (
        "src/liehofer/loop_morse.py",
        "stratum_poincare(s.xi)[:cutoff + 1 - s.bott_index]",
        "stratum_poincare(s.xi)[:cutoff - s.bott_index]",
        "tests/test_loop_morse.py::test_omega_series_a1",
    ),
    # the transgression recurrence adds c[d - 2m] from degree 2m on
    (
        "src/liehofer/loop_morse.py",
        "        for d in range(2 * m, cutoff + 1):\n",
        "        for d in range(2 * m + 1, cutoff + 1):\n",
        "tests/test_loop_morse.py::test_omega_series_a1",
    ),
    # bott_form: the linear part weighs each coordinate by its own 2 h_i
    (
        "src/liehofer/root_system.py",
        'f"{h} * c{i}" for i, h in enumerate(twice_rho)',
        'f"{h} * c{(i + 1) % rank}" for i, h in enumerate(twice_rho)',
        FACE,
    ),
    # bott_form: a leaf subtracts 2 for each root xi pairs positively, not
    # 2 more
    (
        "src/liehofer/root_system.py",
        'return b - {2 * len(face_heights[zeros])}',
        'return b - {2 * len(face_heights[zeros]) + 2}',
        FACE,
    ),
    # bott_form: the branch of a nonzero c_i leaves i out of the zero set
    (
        "src/liehofer/root_system.py",
        'f"{indent}if c{i}:\\n", *face(i + 1, zeros, deeper),\n'
        '            f"{indent}else:\\n", *face(i + 1, zeros | 1 << i, deeper),',
        'f"{indent}if c{i}:\\n", *face(i + 1, zeros | 1 << i, deeper),\n'
        '            f"{indent}else:\\n", *face(i + 1, zeros, deeper),',
        FACE,
    ),
    # the Bott index refuses a coweight that is not dominant: its absolute
    # row would give a number all the same
    (
        "src/liehofer/loop_morse.py",
        "    if min(coords) < 0:\n",
        "    if False:\n",
        "tests/test_loop_morse.py::test_bott_index_requires_dominant",
    ),
    # the stratum polynomial refuses a coweight that is not dominant: its
    # zero set would name a face that does not hold it
    (
        "src/liehofer/loop_morse.py",
        "    if min(xi.coords) < 0:\n",
        "    if False:\n",
        "tests/test_loop_morse.py::test_bott_index_requires_dominant",
    ),
    # the virtual index sums 2(|k| - 1): -2 (sum k + #k), not -2 (sum k - #k)
    (
        "src/liehofer/circle_index.py",
        "    return -2 * (sum(k) + len(k))\n",
        "    return -2 * (sum(k) - len(k))\n",
        "tests/test_circle_index.py::test_virtual_index_examples",
    ),
    # the conjugate count gives a root pairing to 0 no time; only a singular
    # coweight has one, so the index sweep (regular points) cannot kill this
    (
        "src/liehofer/circle_index.py",
        "    return 2 * (sum(row) - n + zeros)\n",
        "    return 2 * (sum(row) - n)\n",
        "tests/test_circle_index.py::test_index_sums_match_generator_forms",
    ),
    # the orbit key refuses xi when its largest entry is 0; its smallest
    # entry is 0 at every singular point too
    (
        "src/liehofer/circle_index.py",
        "    if not key[0]:\n",
        "    if not key[-1]:\n",
        "tests/test_circle_index.py::test_memoized_report_equals_a_direct_build",
    ),
    # the orbit key refuses the zero coweight
    (
        "src/liehofer/circle_index.py",
        "    if not key[0]:\n",
        "    if False:\n",
        "tests/test_circle_index.py::test_zero_coweight_rejected_on_every_system",
    ),
    # the conjugate count reads a row of its own, not the orbit key's: the
    # sorted key gives the same sum and zeros, so only the shared-path test
    # can tell that the two index sums would share their input
    (
        "src/liehofer/circle_index.py",
        "    row = xi.system.abs_pairing_row(xi.coords)\n",
        "    row = list(_orbit_key(gamma))\n",
        "tests/test_verify.py::test_index_equality_sides_share_only_the_row_kernel",
    ),
    # the conjugate count refuses xi when every entry of the row is 0, not
    # when one is
    (
        "src/liehofer/circle_index.py",
        "    if zeros == n:",
        "    if zeros:",
        "tests/test_circle_index.py::test_memoized_report_equals_a_direct_build",
    ),
    # the conjugate count refuses the zero coweight
    (
        "src/liehofer/circle_index.py",
        "    if zeros == n:",
        "    if False:",
        "tests/test_circle_index.py::test_zero_coweight_rejected_on_every_system",
    ),
    # the orbit key is taken from |v|, which the generated row kernel
    # returns: on the signed row a point off the dominant chamber gets
    # positive weights
    (
        "src/liehofer/root_system.py",
        "f'{n} if {n} > 0 else -{n}' for n in names",
        "n for n in names",
        "tests/test_circle_index.py::test_index_sums_match_generator_forms",
    ),
    # the orbit key is sorted largest first, so its weights come out sorted
    (
        "src/liehofer/circle_index.py",
        "    key.sort(reverse=True)\n",
        "    key.sort()\n",
        "tests/test_circle_index.py::test_weights_examples",
    ),
    # a memoized report compares the virtual index with the point's own
    # count; only a count that disagrees with its key can tell
    (
        "src/liehofer/circle_index.py",
        "agree=iv == riemannian)",
        "agree=True)",
        "tests/test_circle_index.py::test_report_memo_reads_each_points_own_count",
    ),
    # the checked constructor converts every coordinate that is not a
    # Python int, a bool or a numpy integer among them
    (
        "src/liehofer/root_system.py",
        "            if type(c) is not int:\n",
        "            if False:\n",
        "tests/test_root_system.py::test_coweight_stores_python_ints_and_keeps_each_error",
    ),
    # dot: each coordinate of c meets its own coordinate of b
    (
        "src/liehofer/root_system.py",
        "f'c{i} * b{i}'",
        "f'c{i} * b{(i + 1) % rank}'",
        KERNELS,
    ),
    # inner pairs xi1 with the Gram row of xi2, not of xi1
    (
        "src/liehofer/root_system.py",
        "(sum(map(operator.mul, row, xi2.coords)) for row",
        "(sum(map(operator.mul, row, xi1.coords)) for row",
        "tests/test_root_system.py::test_inner_examples",
    ),
    # dominant_reduction: a multiple bond's Cartan literal (2 or 3) off by one
    (
        "src/liehofer/root_system.py",
        'f"{-cji} * "',
        'f"{-cji - 1} * "',
        "tests/test_root_system.py::test_dominant_reduction_is_the_orbit_dominant_point",
    ),
    # the SU(2) spectra: 4m - 2 negative modes
    (
        "src/liehofer/su2_loops.py",
        "    negative = 4 * m - 2\n",
        "    negative = 4 * m\n",
        "tests/test_su2_loops.py::test_energy_spectrum_m1",
    ),
    # the energy minimum is the transverse entry at j = n - 1
    (
        "src/liehofer/su2_loops.py",
        "4 * c * t * transverse(n - 1)",
        "4 * c * t * transverse(n - 2)",
        "tests/test_su2_loops.py::test_energy_spectrum_m1",
    ),
    # the energy maximum is the axial entry at j = 1, 8c sin^2(pi (n - 1) / 2n)
    (
        "src/liehofer/su2_loops.py",
        "8 * c * (axial * axial)",
        "4 * c * (axial * axial)",
        "tests/test_su2_loops.py::test_energy_counts_sweep",
    ),
    # the L+ minimum is the transverse entry at j = n - 1
    (
        "src/liehofer/su2_loops.py",
        "_SQRT2 / math.pi * transverse(n - 1)",
        "_SQRT2 / math.pi * transverse(n - 2)",
        "tests/test_su2_loops.py::test_lplus_lane_slice_is_the_energy_sign_mask",
    ),
    # the L+ maximum is the last energy-unstable transverse entry, j = n - 2m + 1
    (
        "src/liehofer/su2_loops.py",
        "transverse(n - 2 * m + 1)",
        "transverse(n - 2 * m)",
        "tests/test_su2_loops.py::test_lplus_lane_slice_is_the_energy_sign_mask",
    ),
    # the norm memo divides the square by gram_den X, not by X alone
    (
        "src/liehofer/hofer.py",
        "sq, d = m * m, den * x",
        "sq, d = m * m, x",
        "tests/test_hofer.py::test_norm_memo_keys_on_the_system",
    ),
    # is_invertible multiplies by the conjugate a - b PT, not by x itself
    (
        "src/liehofer/quantum_cp1.py",
        "(-c if b == PT else c, b, e)",
        "(c, b, e)",
        "tests/test_quantum_cp1.py::test_zero_divisor_is_not_invertible",
    ),
    # an odd cutoff is refused where the walk needs an even one
    (
        "src/liehofer/loop_morse.py",
        "    if even and cutoff % 2:\n",
        "    if False:\n",
        "tests/test_loop_morse.py::test_cutoff_cap",
    ),
    # the coroot lattice test reduces adj(C) xi modulo det(C)
    (
        "src/liehofer/loop_morse.py",
        "sum(map(operator.mul, row, coords)) % det:",
        "sum(map(operator.mul, row, coords)) % 2:",
        "tests/test_integer_core.py::test_in_coroot_lattice_matches_gauss_jordan_solve",
    ),
    # a sweep that checked nothing fails as vacuous instead of passing
    (
        "src/liehofer/verify.py",
        "    if not checked:\n",
        "    if False:\n",
        "tests/test_verify.py::test_empty_sweep_is_vacuous_not_a_pass",
    ),
    # Macdonald's product: each root multiplies by 1 - t^(2h + 2)
    (
        "src/liehofer/root_system.py",
        "        step = 2 * h + 2\n",
        "        step = 2 * h + 4\n",
        "tests/test_loop_morse.py::test_stratum_poincare_times_stabilizer_is_the_weyl_group",
    ),
    # ... and then divides by 1 - t^(2h)
    (
        "src/liehofer/root_system.py",
        "        for d in range(step, top + 1):\n            coeffs[d] += coeffs[d - step]\n",
        "",
        "tests/test_loop_morse.py::test_stratum_poincare_examples",
    ),
    # a face's roots are those not supported in its zero set, the roots
    # outside the stabilizer parabolic, not those meeting it
    (
        "src/liehofer/root_system.py",
        "if s & ~m))",
        "if s & m))",
        FACE,
    ),
    # a truncated power series that is no polynomial raises, by Poincare duality
    (
        "src/liehofer/root_system.py",
        "    if coeffs != coeffs[::-1]:\n",
        "    if False:\n",
        "tests/test_loop_morse.py::test_root_poincare_refuses_a_truncated_power_series",
    ),
    # Equivalent, left out (tier-1 passes with each applied):
    # - inner's "for row in system.gram_num" -> "for row in
    #   zip(*system.gram_num)": the Gram matrix is symmetric, so its rows
    #   are its columns.
    # - circle_index's "@lru_cache(maxsize=256)" -> "@lru_cache(maxsize=None)":
    #   a report is a function of its key, so the memo's size moves only its
    #   hit rate and memory, never a result.
]


def copy_tree(dest):
    """Copy ``src``, ``tests`` and ``pyproject.toml`` into ``dest``."""
    skip = shutil.ignore_patterns("__pycache__", ".pytest_cache")
    for part in ("src", "tests"):
        shutil.copytree(ROOT / part, dest / part, ignore=skip)
    shutil.copy(ROOT / "pyproject.toml", dest)


def run_tests(tree, tests):
    """Exit code of pytest on the given test ids, run against ``tree``."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), PYTHONDONTWRITEBYTECODE="1")
    argv = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *tests]
    return subprocess.run(argv, cwd=tree, env=env, capture_output=True).returncode


def main():
    with tempfile.TemporaryDirectory() as tmp:
        copy_tree(Path(tmp))
        killers = sorted({killer for *_, killer in MUTANTS})
        if run_tests(Path(tmp), killers):
            print("a killer test fails on the unmutated tree", file=sys.stderr)
            return 1
    failures = 0
    for file, old, new, killer in MUTANTS:
        with tempfile.TemporaryDirectory() as tmp:
            copy_tree(Path(tmp))
            path = Path(tmp) / file
            text = path.read_text()
            found = text.count(old)
            if found != 1:
                verdict = f"OLD TEXT FOUND {found} TIMES"
            else:
                path.write_text(text.replace(old, new))
                verdict = "killed" if run_tests(Path(tmp), [killer]) else "SURVIVED"
        failures += verdict != "killed"
        print(f"{verdict}: {file}: {old.strip()!r} -> {new.strip()!r} ({killer})")
    print(f"{len(MUTANTS) - failures} of {len(MUTANTS)} mutants killed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
