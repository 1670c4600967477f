"""Item sets, oracles and output digests of the benchmark workloads.

A pass runs one workload's fixed item set through the library's public
functions, one item at a time, and times each item.  Every item is then
checked, outside the timed section, against an oracle that shares no code
with what it checks: the Gram matrix and the exponent table below are built
here from the Bourbaki plates, not read from the library.  The exact outputs
of each group of items (one system, or one spectrum) are hashed into a
digest, so that a change to the library can prove identical answers.

Only the rank 3-4 pairs of ``orbit-norms`` depend on the seed; every other
item is the same for every seed.
"""

from __future__ import annotations

import hashlib
import itertools
import math
import random
from fractions import Fraction

import speed

import liehofer.circle_index as circle_index
import liehofer.hofer as hofer
import liehofer.loop_morse as loop_morse
import liehofer.root_system as root_system
import liehofer.su2_loops as su2_loops
import liehofer.verify as verify

LABELS = (
    "A1", "A2", "A3", "A4",
    "B2", "B3", "B4",
    "C2", "C3", "C4",
    "D4", "G2", "F4",
)
SIZES = {
    # box: coordinate bound of the grids; pairs: seeded pairs per rank 3-4
    # system; cutoff: degree of the loop-group series; spectra: (functional,
    # m, n) items of su2-spectra.
    "full": {
        "box": 4,
        "pairs": 400,
        "cutoff": 20,
        "spectra": [("energy", m, n) for n in (64, 128, 256) for m in (1, 2, 3)]
        + [("lplus", 1, n) for n in (64, 128, 256)],
    },
    "tiny": {
        "box": 1,
        "pairs": 4,
        "cutoff": 4,
        "spectra": [("energy", 1, 32), ("energy", 2, 32), ("lplus", 1, 32)],
    },
}
# Share of seeded pairs whose xi repeats one drawn before for the same system.
XI_REUSE = 0.25


def systems_built(workload):
    """Root systems a workload builds during set-up."""
    return () if workload == "su2-spectra" else LABELS


# -- independent oracle data ----------------------------------------------

def _unit(i, dim, scale=1):
    return tuple(Fraction(scale) if k == i else Fraction(0) for k in range(dim))


def _sub(a, b):
    return tuple(x - y for x, y in zip(a, b))


def _simple_roots(label):
    """Bourbaki simple roots in an orthonormal basis, and the squared length
    of a long root."""
    family, n = label[0], int(label[1])
    if family == "G":
        return ((1, -1, 0), (-2, 1, 1)), 6
    if family == "F":
        h = Fraction(1, 2)
        return ((0, 1, -1, 0), (0, 0, 1, -1), (0, 0, 0, 1), (h, -h, -h, -h)), 2
    dim = n + 1 if family == "A" else n
    chain = [_sub(_unit(i, dim), _unit(i + 1, dim)) for i in range(n - 1)]
    last = {
        "A": _sub(_unit(n - 1, dim), _unit(n, dim)),
        "B": _unit(n - 1, dim),
        "C": _unit(n - 1, dim, 2),
        "D": tuple(a + b for a, b in zip(_unit(n - 2, dim), _unit(n - 1, dim))),
    }[family]
    return tuple(chain) + (last,), 4 if family == "C" else 2


def _det(m):
    if not m:
        return 1
    return sum(
        (-1) ** j * m[0][j] * _det([row[:j] + row[j + 1:] for row in m[1:]])
        for j in range(len(m))
        if m[0][j]
    )


class Oracle:
    """Exact coweight inner product of one system, from the Bourbaki simple
    roots: the coweight Gram matrix is the inverse of the root Gram matrix,
    taken here as adjugate over determinant."""

    def __init__(self, label):
        roots, long_sq = _simple_roots(label)
        b = [
            [2 * Fraction(sum(x * y for x, y in zip(r, s))) / long_sq for s in roots]
            for r in roots
        ]
        n = len(b)
        det = _det(b)

        def cofactor(i, j):
            minor = [row[:j] + row[j + 1:] for k, row in enumerate(b) if k != i]
            return (-1) ** (i + j) * _det(minor)

        g = [[cofactor(j, i) / det for j in range(n)] for i in range(n)]
        self.den = math.lcm(*(x.denominator for row in g for x in row))
        self.gram = [[int(x * self.den) for x in row] for row in g]

    def inner(self, x, y):
        total = sum(xi * gij * yj for xi, row in zip(x, self.gram) for gij, yj in zip(row, y))
        return Fraction(total, self.den)


# Exponents of the simple Lie algebras (Bourbaki, Lie VI, plates I-IX).
EXPONENTS = {
    "A1": (1,), "A2": (1, 2), "A3": (1, 2, 3), "A4": (1, 2, 3, 4),
    "B2": (1, 3), "B3": (1, 3, 5), "B4": (1, 3, 5, 7),
    "C2": (1, 3), "C3": (1, 3, 5), "C4": (1, 3, 5, 7),
    "D4": (1, 3, 3, 5), "G2": (1, 5), "F4": (1, 5, 7, 11),
}


def transgression(label, cutoff):
    """Coefficients of prod_i 1/(1 - t^(2 m_i)) up to the cutoff, counted
    as partitions of each degree into the parts 2 m_i."""
    coeffs = [1] + [0] * cutoff
    for m in EXPONENTS[label]:
        for d in range(2 * m, cutoff + 1):
            coeffs[d] += coeffs[d - 2 * m]
    return coeffs


def _frac(x):
    return f"{x.numerator}/{x.denominator}"


# -- item sets --------------------------------------------------------------

def orbit_pairs(seed, size):
    """(label, eta, xi) coordinate triples of orbit-norms.

    Rank <= 2: the exhaustive grid of the coordinate box (eta may be zero,
    xi may not), so almost every pair reuses an xi already seen.  Rank 3-4:
    seeded random pairs in the same box, where a quarter of the pairs reuse
    an xi drawn before.  The seed only enters the rank 3-4 pairs.
    """
    box, count = SIZES[size]["box"], SIZES[size]["pairs"]
    rng = random.Random(seed)

    def draw(rank):
        return tuple(rng.randint(-box, box) for _ in range(rank))

    out = []
    for label in LABELS:
        rank = int(label[1])
        if rank <= 2:
            grid = list(itertools.product(range(-box, box + 1), repeat=rank))
            out += [(label, eta, xi) for eta in grid for xi in grid if any(xi)]
            continue
        seen = []
        for _ in range(count):
            if seen and rng.random() < XI_REUSE:
                xi = rng.choice(seen)
            else:
                xi = draw(rank)
                while not any(xi):
                    xi = draw(rank)
                seen.append(xi)
            out.append((label, draw(rank), xi))
    return out


# -- passes -----------------------------------------------------------------

DONE = object()


class Pass:
    """Times items, checks them and digests their outputs, group by group.

    Timings are scaled to the reference machine's speed by ``clock`` (see
    speed.py); ``finish`` sets ``latencies`` and ``wall_s`` from them, and
    ``raw_wall_s`` to the unscaled total.
    """

    def __init__(self, clock, tracer=None):
        self.clock = clock
        self.tracer = tracer
        self.is_item = []  # per timing: an item, or an exhausted enumeration
        self.items = 0
        self.latencies = []
        self.wall_s = self.raw_wall_s = 0.0
        self.groups = {}  # group -> [items, failed items, sha256]
        self.failures = []
        self.cross = []  # in-process results to compare with the CLI

    def item(self, group, run, check):
        """Time run(), then check its output outside the timed section.

        run() returns DONE when an enumeration inside it is exhausted; that
        time counts towards the pass but is no item.  check(output) returns
        the digest line, or raises when the oracle disagrees.  Returns the
        output, DONE, or None for a failed item.
        """
        if self.tracer is not None:
            self.tracer.item = self.items
        error = None
        started = self.clock.start()
        try:
            output = run()
        except Exception as exc:  # a raising item is a failed item
            output, error = None, exc
        self.clock.stop(started)
        self.is_item.append(output is not DONE)
        if output is DONE:
            return DONE
        self.items += 1
        entry = self.groups.setdefault(group, [0, 0, hashlib.sha256()])
        entry[0] += 1
        if error is None:
            try:
                entry[2].update(check(output).encode() + b"\n")
            except Exception as exc:  # so is one whose check raises
                error = exc
        if error is None:
            return output
        entry[1] += 1
        entry[2].update(b"failed\n")
        if len(self.failures) < 10:
            self.failures.append(f"{group}: {type(error).__name__}: {error}")
        return None

    def finish(self):
        scaled = self.clock.scaled()
        self.latencies = [t for t, item in zip(scaled, self.is_item) if item]
        self.wall_s, self.raw_wall_s = sum(scaled), sum(self.clock.raw)

    def digests(self):
        return {g: e[2].hexdigest() for g, e in self.groups.items()}


class OracleMismatch(Exception):
    pass


def _require(condition, message):
    # the checks must survive python -O, so no assert statements
    if not condition:
        raise OracleMismatch(message)


def run_orbit_norms(p, seed, size):
    oracles = {label: Oracle(label) for label in LABELS}
    for label, eta_c, xi_c in orbit_pairs(seed, size):
        system = root_system.from_label(label)

        def run():
            eta, xi = system.coweight(eta_c), system.coweight(xi_c)
            m, norm = hofer.positive_norm(eta, xi)
            holds = hofer.check_norm_inequality(eta, xi)
            return m, norm, holds, hofer.hofer_length_circle(xi)

        def check(out):
            m, norm, holds, length = out
            o = oracles[label]
            xixi, etaeta, xieta = o.inner(xi_c, xi_c), o.inner(eta_c, eta_c), o.inner(xi_c, eta_c)
            _require(length.value_squared == xixi, "hofer length differs from <xi,xi>")
            _require(norm.value_squared == m * m / xixi, "positive norm is not m^2/<xi,xi>")
            _require(m * m <= xixi * etaeta, "Cauchy-Schwarz bound violated")
            _require(m >= xieta, "orbit maximum below <xi,eta>")
            _require(eta_c != xi_c or m == xixi, "orbit maximum at eta = xi is not <xi,xi>")
            _require(holds is True, "norm inequality reported false")
            return f"{list(eta_c)}|{list(xi_c)}|{_frac(m)}|{_frac(xixi)}"

        out = p.item(label, run, check)
        if out and label == "F4" and not p.cross:
            m, norm, holds, length = out
            p.cross.append({
                "command": "hofer", "system": label, "xi": list(xi_c), "eta": list(eta_c),
                "orbit_maximum": _frac(m), "positive_norm_squared": _frac(norm.value_squared),
                "length_squared": _frac(length.value_squared), "norm_inequality_holds": holds,
            })


def run_morse_index(p, seed, size):
    box, cutoff = SIZES[size]["box"], SIZES[size]["cutoff"]
    for label in LABELS:
        system = root_system.from_label(label)
        coweights = verify.box_coweights(system, box, regular_only=True)

        def run():
            xi = next(coweights, None)
            if xi is None:
                return DONE
            report = circle_index.index_equality_report(circle_index.CircleSubgroup(xi))
            bott = loop_morse.bott_index(root_system.dominant_representative(xi))
            return xi, report, bott

        def check(out):
            xi, report, bott = out
            triple = (report.virtual_index, report.riemannian_index, bott)
            _require(report.agree and len(set(triple)) == 1, f"index triple {triple} at {xi.coords}")
            return f"{list(xi.coords)}|{triple[0]}|{triple[1]}|{triple[2]}"

        while (out := p.item(f"sweep:{label}", run, check)) is not DONE:
            if out and label == "F4" and not p.cross:
                xi, report, _ = out
                p.cross.append({
                    "command": "index", "system": label, "xi": list(xi.coords),
                    "weights": list(report.weights.weights),
                    "virtual_index": report.virtual_index,
                    "riemannian_index": report.riemannian_index, "agree": report.agree,
                })
    for label in LABELS:
        system = root_system.from_label(label)

        def run():
            return loop_morse.omega_g_series(system, cutoff, check=True)

        def check(series):
            expected = transgression(label, cutoff)
            _require(list(series.coeffs) == expected, f"{label} series differs from transgression")
            return str(list(series.coeffs))

        out = p.item(f"omega:{label}", run, check)
        if out and label == "F4":
            p.cross.append({
                "command": "omega-series", "system": label, "cutoff": cutoff,
                "coefficients": list(out.coeffs), "match": True,
            })


def run_su2_spectra(p, seed, size):
    for functional, m, n in SIZES[size]["spectra"]:

        def run():
            return su2_loops.hessian_spectrum(functional, m, n)

        def check(r):
            negative = 2 * (2 * m - 1)
            if functional == "energy":
                expected = (negative, 2, 3 * (n - 1) - negative - 2)
            else:
                # L+ is probed only along the energy-unstable directions
                expected = (negative, 0, 0)
            counts = (r.negative_count, r.zero_count, r.positive_count)
            _require(counts == expected, f"{functional} m={m} n={n}: {counts} != {expected}")
            return f"{functional}|{m}|{n}|{counts[0]}|{counts[1]}|{counts[2]}"

        r = p.item(f"{functional}:m={m}:n={n}", run, check)
        if r and not p.cross:
            p.cross.append({
                "command": "hessian-su2", "functional": functional, "m": m, "n": n,
                "negative_count": r.negative_count, "zero_count": r.zero_count,
                "positive_count": r.positive_count,
                "min_eigenvalue": float(f"{r.min_eigenvalue:.12g}"),
                "max_eigenvalue": float(f"{r.max_eigenvalue:.12g}"),
            })


RUNNERS = {
    "orbit-norms": run_orbit_norms,
    "morse-index": run_morse_index,
    "su2-spectra": run_su2_spectra,
}


# Kind of speed-calibration burst that imitates each workload's work.
BURST = {"orbit-norms": "python", "morse-index": "python", "su2-spectra": "numpy"}


def run_pass(workload, seed, size, tracer=None):
    p = Pass(speed.Clock(BURST[workload]), tracer)
    RUNNERS[workload](p, seed, size)
    p.finish()
    return p
