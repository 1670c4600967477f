"""Spans around the library's public functions, recorded from outside.

``install`` replaces each traced function at the name its callers look up
(``liehofer.hofer.orbit_array``, ``liehofer.loop_morse.bott_index``,
``numpy.linalg.eigh``, ...) by a wrapper that records a span: name, start,
end, parent span and item.  Leaf calls that run hundreds of thousands of
times per pass (``pairing``, ``inner``, the SU(2) functional evaluations)
are aggregated into a call count and a total time, which is charged to the
enclosing span as child time.  Spans stay in memory until the pass ends;
``layer_metrics`` then reduces them to the per-layer metrics.

The self time of a span is its duration minus the time its child spans and
aggregated leaf calls cover.  Times are read with ``speed.now``, which
leaves out the speed bursts, and are not scaled.
"""

from __future__ import annotations

import numpy

import liehofer.circle_index as circle_index
import liehofer.hofer as hofer
import liehofer.loop_morse as loop_morse
import liehofer.root_system as root_system
import liehofer.su2_loops as su2_loops
import liehofer.verify as verify
from speed import now

# span record fields
NAME, START, END, PARENT, ITEM, CHILD = range(6)


class Tracer:
    def __init__(self):
        self.spans = []
        self.stack = []
        self.item = -1
        self.leaves = {}  # name -> [calls, seconds]
        self.counters = {}

    def count(self, name, value):
        self.counters[name] = self.counters.get(name, 0) + value

    def span(self, name, fn, on_result=None):
        spans, stack = self.spans, self.stack

        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else -1
            rec = [name, 0.0, 0.0, parent, self.item, 0.0]
            stack.append(len(spans))
            spans.append(rec)
            rec[START] = now()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[END] = now()
                stack.pop()
                if parent >= 0:
                    spans[parent][CHILD] += rec[END] - rec[START]
            if on_result is not None:
                on_result(args, result)
            return result

        return wrapper

    def leaf(self, name, fn):
        spans, stack = self.spans, self.stack
        acc = self.leaves.setdefault(name, [0, 0.0])

        def wrapper(*args, **kwargs):
            t0 = now()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = now() - t0
                acc[0] += 1
                acc[1] += dt
                if stack:
                    spans[stack[-1]][CHILD] += dt

        return wrapper

    def generator(self, name, fn):
        """Wrap a generator function: each step of the iteration is a span."""
        step = self.span(name, next)

        def wrapper(*args, **kwargs):
            it = fn(*args, **kwargs)
            while True:
                try:
                    value = step(it)
                except StopIteration:
                    return
                yield value

        return wrapper


def install(tracer):
    """Replace the traced library functions by recording wrappers."""

    def patch(module, attr, make, name, *extra):
        setattr(module, attr, make(name, getattr(module, attr), *extra))

    def rows(args, result):
        tracer.count("orbit_rows", len(result))

    def strata(args, result):
        tracer.count("strata", len(result))

    def hessian(args, result):
        dim = args[0].shape[0]
        tracer.counters["hessian_dim"] = max(tracer.counters.get("hessian_dim", 0), dim)

    span, leaf = tracer.span, tracer.leaf
    patch(root_system, "build_root_system", span, "root_system.build")
    patch(root_system, "dominant_representative", span, "root_system.dominant")
    patch(hofer, "orbit_array", span, "root_system.orbit", rows)
    patch(hofer, "inner", leaf, "root_system.inner")
    patch(circle_index, "pairing", leaf, "root_system.pairing")
    patch(loop_morse, "pairing", leaf, "root_system.pairing")
    patch(loop_morse, "weyl_poincare", span, "root_system.weyl_poincare")

    patch(circle_index, "index_equality_report", span, "circle_index.report")
    regular = circle_index.CircleSubgroup.regular
    circle_index.CircleSubgroup.regular = property(span("circle_index.regular", regular.fget))

    patch(hofer, "positive_norm", span, "hofer.norm")
    patch(hofer, "check_norm_inequality", span, "hofer.inequality")
    patch(hofer, "hofer_length_circle", span, "hofer.length")
    patch(hofer, "orbit_maximum", span, "hofer.orbit_maximum")

    patch(loop_morse, "omega_g_series", span, "loop_morse.series")
    patch(loop_morse, "enumerate_critical_strata", span, "loop_morse.enumerate", strata)
    patch(loop_morse, "bott_index", span, "loop_morse.bott")
    patch(loop_morse, "stratum_poincare", span, "loop_morse.stratum_poly")
    patch(loop_morse, "in_coroot_lattice", span, "loop_morse.coroot")
    patch(loop_morse, "transgression_series", span, "loop_morse.oracle")

    patch(su2_loops, "hessian_spectrum", span, "su2_loops.spectrum")
    patch(su2_loops, "energy_hessian", span, "su2_loops.hessian")
    patch(su2_loops, "discrete_energy", leaf, "su2_loops.eval")
    patch(su2_loops, "discrete_lplus", leaf, "su2_loops.eval")
    patch(su2_loops, "geodesic_loop", leaf, "su2_loops.loop_build")
    patch(su2_loops, "apply_tangent", leaf, "su2_loops.loop_build")
    patch(numpy.linalg, "eigh", span, "su2_loops.eigh", hessian)

    patch(verify, "box_coweights", tracer.generator, "verify.enumerate")


# Spans whose self time is a module's own work.
SELF_SPANS = {
    "circle_index": ("circle_index.report", "circle_index.regular"),
    "hofer": ("hofer.norm", "hofer.inequality", "hofer.length", "hofer.orbit_maximum"),
    "loop_morse": (
        "loop_morse.series", "loop_morse.enumerate", "loop_morse.bott",
        "loop_morse.stratum_poly", "loop_morse.coroot", "loop_morse.oracle",
    ),
    "su2_loops": ("su2_loops.spectrum", "su2_loops.hessian"),
}

def layer_metrics(tracer, pairs, xi_reuse_share):
    """Per-layer metrics of one traced pass (all but cli.import_s and
    tracing.overhead_s, which the caller measures)."""
    spans = tracer.spans
    calls, total, own = {}, {}, {}
    candidates = 0
    for rec in spans:
        name, dt = rec[NAME], rec[END] - rec[START]
        calls[name] = calls.get(name, 0) + 1
        total[name] = total.get(name, 0.0) + dt
        own[name] = own.get(name, 0.0) + dt - rec[CHILD]
        if name == "loop_morse.bott" and rec[PARENT] >= 0:
            candidates += spans[rec[PARENT]][NAME] == "loop_morse.enumerate"
    leaf_calls = {k: v[0] for k, v in tracer.leaves.items()}
    leaf_s = {k: v[1] for k, v in tracer.leaves.items()}
    c = tracer.counters
    strata = c.get("strata", 0)
    dim = c.get("hessian_dim", 0)
    out = {
        "root_system.build_s": total.get("root_system.build", 0.0),
        "root_system.orbit_calls": calls.get("root_system.orbit", 0),
        "root_system.orbit_s": total.get("root_system.orbit", 0.0),
        "root_system.orbit_rows": c.get("orbit_rows", 0),
        "root_system.inner_calls": leaf_calls.get("root_system.inner", 0),
        "root_system.inner_s": leaf_s.get("root_system.inner", 0.0),
        "root_system.pairing_calls": leaf_calls.get("root_system.pairing", 0),
        "root_system.pairing_s": leaf_s.get("root_system.pairing", 0.0),
        "root_system.weyl_poincare_calls": calls.get("root_system.weyl_poincare", 0),
        "root_system.weyl_poincare_s": total.get("root_system.weyl_poincare", 0.0),
        "root_system.dominant_s": total.get("root_system.dominant", 0.0),
        "circle_index.report_calls": calls.get("circle_index.report", 0),
        "circle_index.report_s": total.get("circle_index.report", 0.0),
        "circle_index.regular_s": total.get("circle_index.regular", 0.0),
        "hofer.norm_calls": calls.get("hofer.norm", 0),
        "hofer.norm_s": total.get("hofer.norm", 0.0),
        "hofer.rows_per_pair": c.get("orbit_rows", 0) / pairs if pairs else 0.0,
        "hofer.xi_reuse_share": xi_reuse_share,
        "loop_morse.candidates": candidates,
        "loop_morse.strata": strata,
        "loop_morse.strata_yield": strata / candidates if candidates else 0.0,
        "loop_morse.bott_calls": calls.get("loop_morse.bott", 0),
        "loop_morse.bott_s": total.get("loop_morse.bott", 0.0),
        "loop_morse.stratum_poly_s": total.get("loop_morse.stratum_poly", 0.0),
        "loop_morse.coroot_s": total.get("loop_morse.coroot", 0.0),
        "loop_morse.oracle_s": total.get("loop_morse.oracle", 0.0),
        "su2_loops.functional_evals": leaf_calls.get("su2_loops.eval", 0),
        "su2_loops.eval_s": leaf_s.get("su2_loops.eval", 0.0),
        "su2_loops.loop_build_s": leaf_s.get("su2_loops.loop_build", 0.0),
        "su2_loops.eigh_s": total.get("su2_loops.eigh", 0.0),
        "su2_loops.hessian_dim": dim,
        "su2_loops.hessian_bytes": dim * dim * 8,
        "verify.enumerate_s": total.get("verify.enumerate", 0.0),
        "tracing.spans": len(spans),
    }
    for layer, names in SELF_SPANS.items():
        out[f"{layer}.self_s"] = sum(own.get(n, 0.0) for n in names)
    return out
