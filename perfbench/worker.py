"""One benchmark pass in a fresh process.

Imports the library from the checkout's ``src``, builds the workload's root
systems and prints ``ready``: the parent takes the time from starting this
process to that line as one set-up sample.  Then it runs the workload's
item set once, in this process, and prints one JSON line with the pass
results.  Right after ``ready`` it times a ``python`` speed burst, with
which the parent scales the set-up sample (speed.py); with ``--setup-only``
it prints only that burst time.

Usage: python3 perfbench/worker.py --workload NAME --seed N --size full|tiny
       [--trace] [--setup-only]
"""

import argparse
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--size", default="full")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    t0 = time.perf_counter()
    import liehofer
    import_s = time.perf_counter() - t0
    if not Path(liehofer.__file__).resolve().is_relative_to((ROOT / "src").resolve()):
        sys.exit(f"error: liehofer was imported from {liehofer.__file__}, not {ROOT / 'src'}")

    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)
    import liehofer.root_system as root_system

    import workloads

    for label in workloads.systems_built(args.workload):
        root_system.from_label(label)
    print("ready", flush=True)
    import json

    import speed

    setup_burst_s = speed.burst("python")
    if args.setup_only:
        print(json.dumps({"setup_burst_s": setup_burst_s}), flush=True)
        return 0

    import resource

    p = workloads.run_pass(args.workload, args.seed, args.size, tracer)
    result = {
        "setup_burst_s": setup_burst_s,
        "wall_s": p.wall_s,
        "raw_wall_s": p.raw_wall_s,
        "bursts_s": p.clock.bursts,
        "latencies": p.latencies,
        "groups": {g: e[:2] for g, e in p.groups.items()},
        "digests": p.digests(),
        "failures": p.failures,
        "cross": p.cross,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if args.workload == "orbit-norms":
        xis = [(label, xi) for label, _, xi in workloads.orbit_pairs(args.seed, args.size)]
        info = root_system._orbit_coords.cache_info()
        result["orbit_cache"] = {
            "distinct_xi": len(set(xis)),
            "maxsize": info.maxsize,
            "hits": info.hits,
            "misses": info.misses,
        }
        pairs, reuse = len(xis), 1 - len(set(xis)) / len(xis)
    else:
        pairs, reuse = 0, 0.0
    if tracer is not None:
        import tracing

        layers = tracing.layer_metrics(tracer, pairs, reuse)
        layers["cli.import_s"] = import_s
        result["layers"] = layers
    result["xi_reuse_share"] = reuse
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
