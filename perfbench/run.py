"""Benchmark of liehofer: time to a verified verdict, end to end, with
per-layer spans in a separate traced run.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload orbit-norms --seed 0 --seconds 20 --trace 0

Every pass is a fresh, single-threaded worker process (perfbench/worker.py)
that imports the library from ``src``, so its caches start cold, as they
do for a command-line user.  Passes run one after another, in a closed
loop, until ``--seconds`` are used up; the metrics are medians over passes.
``--trace 1`` alternates untraced and traced passes and reports the
per-layer metrics and the tracing overhead instead.  See perfbench/README.md.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit code is 0
only when every item passed its oracle, its digest and the CLI cross-check.
"""

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import speed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("orbit-norms", "morse-index", "su2-spectra")
BLAS_THREADS = 1
# Set-up samples: two fresh starts after each untraced pass, so that they
# spread over the run, and at least seven in all.
SETUP_STARTS_PER_PASS = 2
SETUP_SAMPLES = 7
# Candidate percentiles for item_tail_ms, highest first.
TAIL_PERCENTILES = (99.99, 99.9, 99.0, 90.0, 50.0)
END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "item_p50_ms": "ms",
    "item_tail_ms": "ms",
    "peak_rss_mb": "MB",
}
PER_LAYER = {
    "root_system.build_s": "s",
    "root_system.orbit_calls": "count",
    "root_system.orbit_s": "s",
    "root_system.orbit_rows": "count",
    "root_system.inner_calls": "count",
    "root_system.inner_s": "s",
    "root_system.pairing_calls": "count",
    "root_system.pairing_s": "s",
    "root_system.weyl_poincare_calls": "count",
    "root_system.weyl_poincare_s": "s",
    "root_system.dominant_s": "s",
    "circle_index.report_calls": "count",
    "circle_index.report_s": "s",
    "circle_index.regular_s": "s",
    "circle_index.self_s": "s",
    "hofer.norm_calls": "count",
    "hofer.norm_s": "s",
    "hofer.self_s": "s",
    "hofer.rows_per_pair": "rows/pair",
    "hofer.xi_reuse_share": "ratio",
    "loop_morse.candidates": "count",
    "loop_morse.strata": "count",
    "loop_morse.strata_yield": "ratio",
    "loop_morse.bott_calls": "count",
    "loop_morse.bott_s": "s",
    "loop_morse.stratum_poly_s": "s",
    "loop_morse.coroot_s": "s",
    "loop_morse.oracle_s": "s",
    "loop_morse.self_s": "s",
    "su2_loops.functional_evals": "count",
    "su2_loops.eval_s": "s",
    "su2_loops.loop_build_s": "s",
    "su2_loops.self_s": "s",
    "su2_loops.eigh_s": "s",
    "su2_loops.hessian_dim": "count",
    "su2_loops.hessian_bytes": "B",
    "verify.enumerate_s": "s",
    "cli.import_s": "s",
    "tracing.spans": "count",
    "tracing.overhead_s": "s",
}


class BenchError(Exception):
    pass


def worker_env():
    nproc = len(os.sched_getaffinity(0))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    # One BLAS thread: an idle OpenBLAS helper thread busy-waits, and on a
    # VM whose two vCPUs share a core it slows the timed thread.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    return env, nproc


def spawn(env, args, traced=False, setup_only=False):
    """Run one worker; returns its result with the set-up time added, scaled
    by the speed bursts just before the start and just after ``ready``."""
    cmd = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed), "--size", args.size,
    ]
    cmd += ["--trace"] * traced + ["--setup-only"] * setup_only
    before = speed.burst("python")
    t0 = time.monotonic()
    with subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True) as proc:
        ready = proc.stdout.readline()
        setup_s = time.monotonic() - t0
        rest = proc.stdout.read()
    if proc.returncode != 0 or ready != "ready\n":
        raise BenchError(f"worker exited with code {proc.returncode}")
    result = json.loads(rest)
    result["raw_setup_s"] = setup_s
    result["setup_s"] = speed.scale(setup_s, before, result["setup_burst_s"], "python")
    return result


def cli_argv(cross):
    # "--xi=-1,2" rather than "--xi -1,2", which argparse reads as an option
    xi = "--xi=" + ",".join(map(str, cross.get("xi", ())))
    cmd = cross["command"]
    if cmd == "hofer":
        return [cmd, "--system", cross["system"], xi, "--eta=" + ",".join(map(str, cross["eta"]))]
    if cmd == "index":
        return [cmd, "--system", cross["system"], xi]
    if cmd == "omega-series":
        return [cmd, "--system", cross["system"], "--cutoff", str(cross["cutoff"])]
    return [cmd, "--m", str(cross["m"]), "--n", str(cross["n"]), "--functional", cross["functional"]]


def cli_check(env, cross):
    """Run the matching CLI subcommand; returns the fields that disagree."""
    argv = [sys.executable, "-m", "liehofer.cli"] + cli_argv(cross)
    proc = subprocess.run(argv, cwd=ROOT, env=env, capture_output=True, text=True, timeout=170)
    if proc.returncode != 0:
        return [f"exit code {proc.returncode}: {proc.stderr.strip()[-200:]}"]
    got = json.loads(proc.stdout)
    return [k for k, v in cross.items() if got.get(k) != v]


def tail(latencies):
    """(percentile, value): the highest candidate percentile with at least
    ten items beyond it; the maximum (percentile 100) when there is none."""
    ordered = sorted(latencies)
    n = len(ordered)
    for p in TAIL_PERCENTILES:
        rank = math.ceil(p / 100 * n)
        if n - rank >= 10:
            return p, ordered[rank - 1]
    return 100.0, ordered[-1]


def seeded(workload, group):
    """True for digest groups whose items change with the seed."""
    return workload == "orbit-norms" and int(group[1]) > 2


def reference_digests(expected, seed, workload, first):
    """Digests every pass must reproduce: the recorded ones, and for groups
    seeded differently from the recording, those of the run's first pass."""
    ref = dict(first)
    for group, digest in expected[workload].items():
        if seed == expected["default_seed"] or not seeded(workload, group):
            ref[group] = digest
    return ref


def failed_items(ref, result):
    """Items that failed their oracle, plus every item of a group whose
    digest differs from the reference; a missing group counts once."""
    failed, mismatched = 0, []
    for group, (items, bad) in result["groups"].items():
        if result["digests"][group] != ref.get(group):
            mismatched.append(group)
            failed += items
        else:
            failed += bad
    missing = [g for g in ref if g not in result["groups"]]
    return failed + len(missing), mismatched + missing


def machine_info(nproc):
    import numpy

    info = {
        "nproc": nproc,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas_threads": BLAS_THREADS,
    }
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["blas"] = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        info["blas"] = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            info["cpu"] = next(
                (line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")),
                platform.processor() or "unknown",
            )
    except OSError:
        info["cpu"] = platform.processor() or "unknown"
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        if level in ("2", "3") and kind in ("Unified", "Data"):
            info[f"l{level}_cache"] = size
    return info


def measure(args, env):
    """Run passes until --seconds are used up; returns (passes, set-up
    samples), passes as (traced, result) pairs."""
    kinds = (False, True) if args.trace else (False,)
    passes, durations, setups = [], [], []
    start = time.monotonic()
    while True:
        traced = kinds[len(passes) % len(kinds)]
        t0 = time.monotonic()
        result = spawn(env, args, traced)
        passes.append((traced, result))
        durations.append(time.monotonic() - t0)
        if not traced:
            setups.append(result)
        if not args.trace:
            setups += [spawn(env, args, setup_only=True) for _ in range(SETUP_STARTS_PER_PASS)]
        elapsed = time.monotonic() - start
        if len(passes) >= len(kinds) and elapsed + statistics.median(durations) > args.seconds:
            break
    if not args.trace:
        setups += [spawn(env, args, setup_only=True)
                   for _ in range(SETUP_SAMPLES - len(setups))]
    return passes, setups


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny: a few items per workload, for the benchmark's own tests")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "liehofer" / "__init__.py").is_file():
        print(f"error: no liehofer sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    env, nproc = worker_env()
    recorded = json.loads((HERE / "expected.json").read_text())
    expected = {"default_seed": recorded["default_seed"], **recorded[args.size]}

    passes, setups = measure(args, env)
    plain = [r for traced, r in passes if not traced]
    ref = reference_digests(expected, args.seed, args.workload, passes[0][1]["digests"])
    attempted = failed = 0
    mismatched = set()
    for _, r in passes:
        bad, groups = failed_items(ref, r)
        if r["latencies"]:
            attempted += len(r["latencies"])
            failed += bad
        else:  # an empty item set is a failure, never a vacuous pass
            attempted += 1
            failed += 1
        mismatched.update(groups)
    cross = plain[-1]["cross"]
    cross_failures = {}
    for c in cross:
        bad_fields = cli_check(env, c)
        if bad_fields:
            cross_failures[c["command"]] = bad_fields
    attempted += max(len(cross), 1)  # no cross-check result is a failure
    failed += len(cross_failures) if cross else 1

    timed = [r for r in plain if r["latencies"]]
    if not timed:
        raise BenchError("every pass ran an empty item set")
    tails = [tail(r["latencies"]) for r in timed]
    values = {
        "setup_s": statistics.median(s["setup_s"] for s in setups),
        "wall_s": statistics.median(r["wall_s"] for r in plain),
        "item_p50_ms": 1e3 * statistics.median(statistics.median(r["latencies"]) for r in timed),
        "item_tail_ms": 1e3 * statistics.median(v for _, v in tails),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in plain),
    }
    if args.trace:
        traced_runs = [r for traced, r in passes if traced]
        layers = {name: statistics.median(r["layers"][name] for r in traced_runs)
                  for name in traced_runs[0]["layers"]}
        layers["tracing.overhead_s"] = (
            statistics.median(r["wall_s"] for r in traced_runs) - values["wall_s"]
        )
        metrics = {name: {"value": layers[name], "unit": unit} for name, unit in PER_LAYER.items()}
    else:
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()}

    last = plain[-1]
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "size": args.size,
        "seconds": args.seconds,
        "trace": args.trace,
        "machine": machine_info(nproc),
        "loop": "closed, one item at a time, one single-threaded process per pass",
        "passes": {"untraced": len(plain), "traced": len(passes) - len(plain)},
        "pass_wall_s": [r["wall_s"] for r in plain],
        "unscaled": {
            "setup_s": statistics.median(s["raw_setup_s"] for s in setups),
            "pass_wall_s": [r["raw_wall_s"] for r in plain],
            "speed_bursts": len(plain[-1]["bursts_s"]),
            "speed_factor": [r["wall_s"] / r["raw_wall_s"] for r in plain],
        },
        "setup_samples": len(setups),
        "items_per_pass": len(last["latencies"]),
        "items_per_group": {g: v[0] for g, v in last["groups"].items()},
        "item_tail_percentile": tails[0][0],
        "xi_reuse_share": last["xi_reuse_share"],
        "orbit_cache": last.get("orbit_cache"),
        "digests": last["digests"],
        "digest_groups_recorded": sum(ref[g] == d for g, d in expected[args.workload].items()),
        "digest_mismatches": sorted(mismatched),
        "cli_cross_check": {c["command"]: cross_failures.get(c["command"], "agree") for c in cross},
        "failures": [f for _, r in passes for f in r["failures"]][:10],
        "error_rate": failed / attempted,
    }
    print(json.dumps(report, indent=1))
    for name, m in metrics.items():
        print(f"{args.workload:12s} {name:32s} {m['value']:14.6g} {m['unit']}")
    print(f"{args.workload:12s} {'error_rate':32s} {failed / attempted:14.6g} ratio "
          f"({failed} of {attempted} items)")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        sys.exit(1)
