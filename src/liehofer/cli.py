"""Command-line surface: reproducible JSON reports over all modules.

Exit codes: 0 success / all checks pass, 1 check failure, 2 usage error.
Exact rationals are serialized as "p/q" strings; floats are fixed at 12
significant digits so identical invocations are byte-identical.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import re
import sys
from fractions import Fraction

from . import hofer, loop_morse, quantum_cp1, su2_loops, verify
from .circle_index import CircleSubgroup, index_equality_report, weights_at_max
from .errors import InputError, LieHoferError, UnsupportedSystem, clipped, clipped_repr
from .root_system import from_label


def _fmt(value):
    """Normalize values for deterministic JSON output."""
    if isinstance(value, Fraction):
        return f"{value.numerator}/{value.denominator}"
    if isinstance(value, float):
        return float(f"{value:.12g}")
    if isinstance(value, (list, tuple)):
        return [_fmt(v) for v in value]
    if isinstance(value, dict):
        return {k: _fmt(v) for k, v in value.items()}
    return value


def _emit(payload, out_path=None):
    text = json.dumps(_fmt(payload), indent=2)
    if out_path:
        try:
            with open(out_path, "w") as fh:
                fh.write(text + "\n")
        except OSError as exc:
            raise ValueError(f"cannot write --out {out_path}: {exc.strerror or exc}") from exc
    print(text)


def _finite_positive_float(text):
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not (math.isfinite(value) and value > 0):
        raise argparse.ArgumentTypeError(
            f"expected a finite positive number, got {clipped_repr(text)}"
        )
    return value


class _Parser(argparse.ArgumentParser):
    """Usage errors exit 2 with a one-line message (no usage dump).  A
    flag must be spelled out: no prefix of it is taken, so a removed flag
    is refused rather than read as another one."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, allow_abbrev=False, **kwargs)

    def error(self, message):
        # argparse repeats every unrecognized argument whole
        head, sep, extra = message.partition("unrecognized arguments: ")
        if sep and not head:
            message = sep + clipped(extra, extra)
        self.exit(2, f"{self.prog}: error: {message}\n")

    def _check_value(self, action, value):
        # argparse's own check repeats a bad choice whole
        if action.choices is not None and value not in action.choices:
            choices = ", ".join(map(repr, action.choices))
            raise argparse.ArgumentError(
                action, f"invalid choice: {clipped_repr(value)} (choose from {choices})"
            )


# Largest |coweight coordinate| on the command line: the fixed input domain of
# every --xi and --eta, which the tests and CI probe at its corners.  No command
# is slow at the bound: the conjugate-point count takes one step per root, and
# `index --system F4` at either corner takes about 0.35 s, the time of the
# import (2-vCPU VM, Python 3.11.7).
MAX_COORD = 10**5


# The one integer grammar of the command line: an optional sign, then ASCII
# digits.  Leading zeros are dropped, and the significant digits are counted
# before int(), which refuses more than 4300; no bound here needs 20.
_INTEGER = re.compile(r"([+-]?)0*([0-9]+)")
_MAX_DIGITS = 20


def _integer(text, nonnegative=False):
    m = _INTEGER.fullmatch(text)
    if m and len(m[2]) > _MAX_DIGITS:
        raise argparse.ArgumentTypeError(f"expected at most {_MAX_DIGITS} significant digits")
    if not m or nonnegative and int(m[1] + m[2]) < 0:
        expected = "expected a nonnegative integer, got" if nonnegative else "invalid int value:"
        raise argparse.ArgumentTypeError(f"{expected} {clipped_repr(text)}")
    return int(m[1] + m[2])


def _parse_xi(system, text, flag):
    """The coweight of ``--xi`` or ``--eta``: the grammar, then the bound,
    whose digits are counted before int(), then the coordinate count."""
    matches = [_INTEGER.fullmatch(p) for p in text.split(",")]
    if not all(matches):
        raise ValueError(f"{flag} expects comma-separated integers, got {clipped_repr(text)}")
    if any(len(m[2]) > len(str(MAX_COORD)) or int(m[2]) > MAX_COORD for m in matches):
        raise ValueError(f"{flag} coordinates must lie in -{MAX_COORD}..{MAX_COORD}")
    if len(matches) != system.rank:
        raise ValueError(
            f"{flag} expects {system.rank} coordinates for {system.label}, got {len(matches)}"
        )
    return system.coweight([int(m[1] + m[2]) for m in matches])


def _cmd_index(args):
    system = from_label(args.system)
    gamma = CircleSubgroup(_parse_xi(system, args.xi, "--xi"))
    report = index_equality_report(gamma)
    _emit(
        {
            "command": "index",
            "system": system.label,
            "xi": list(gamma.xi.coords),
            "regular": gamma.regular,
            "weights": list(report.weights.weights),
            "virtual_index": report.virtual_index,
            "riemannian_index": report.riemannian_index,
            "agree": report.agree,
            "units": {
                "virtual_index": "dimensionless",
                "riemannian_index": "dimensionless",
            },
        },
        args.out,
    )
    return 0


def _cmd_weights(args):
    system = from_label(args.system)
    gamma = CircleSubgroup(_parse_xi(system, args.xi, "--xi"))
    _emit(
        {
            "command": "weights",
            "system": system.label,
            "xi": list(gamma.xi.coords),
            "regular": gamma.regular,
            "weights": list(weights_at_max(gamma).weights),
            "units": {"weights": "dimensionless"},
        },
        args.out,
    )
    return 0


def _cmd_hofer(args):
    system = from_label(args.system)
    xi = _parse_xi(system, args.xi, "--xi")
    length = hofer.hofer_length_circle(xi)
    payload = {
        "command": "hofer",
        "system": system.label,
        "xi": list(xi.coords),
        "length_squared": length.value_squared,
        "length": length.value_float,
        "units": {
            "length_squared": "lattice-units",
            "length": "lattice-units",
        },
    }
    if args.eta is not None:
        eta = _parse_xi(system, args.eta, "--eta")
        m, norm = hofer.positive_norm(eta, xi)
        payload.update(
            {
                "eta": list(eta.coords),
                "orbit_maximum": m,
                "positive_norm_squared": norm.value_squared,
                "positive_norm": norm.value_float,
                "norm_inequality_holds": hofer.check_norm_inequality(eta, xi),
            }
        )
        payload["units"].update(
            {
                "orbit_maximum": "lattice-units",
                "positive_norm_squared": "lattice-units",
                "positive_norm": "lattice-units",
            }
        )
    _emit(payload, args.out)
    return 0


def _cmd_omega_series(args):
    system = from_label(args.system)
    series = loop_morse.omega_g_series(system, args.cutoff, check=False)
    oracle = loop_morse.transgression_series(system, args.cutoff)
    match = series.coeffs == oracle.coeffs
    _emit(
        {
            "command": "omega-series",
            "system": system.label,
            "cutoff": args.cutoff,
            "coefficients": list(series.coeffs),
            "oracle": list(oracle.coeffs),
            "match": match,
            "units": {"coefficients": "dimensionless", "oracle": "dimensionless"},
        },
        args.out,
    )
    return 0 if match else 1


def _cmd_hessian(args):
    report = su2_loops.hessian_spectrum(args.functional, args.m, args.n)
    _emit(
        {
            "command": "hessian-su2",
            **dataclasses.asdict(report),
            "units": {
                "negative_count": "dimensionless",
                "zero_count": "dimensionless",
                "positive_count": "dimensionless",
                "min_eigenvalue": "lattice-units",
                "max_eigenvalue": "lattice-units",
            },
        },
        args.out,
    )
    return 0


def _cmd_seidel(args):
    a1 = from_label("A1")
    xi = _parse_xi(a1, args.xi, "--xi")
    length = hofer.hofer_length_circle(xi)
    report = quantum_cp1.psi_leading(
        length.value_float, args.sign, area=args.area
    )
    _emit(
        {
            "command": "seidel-cp1",
            "xi": list(xi.coords),
            "area": args.area,
            "sign": report.sign,
            "leading_basis": quantum_cp1.PT,
            "leading_exponent": report.exponent,
            "l_plus_squared": length.value_squared,
            "nonzero": report.nonzero,
            "invertible": report.invertible,
            "corrections": [
                {"coefficient": c, "basis": b, "exponent": e}
                for c, b, e in report.corrections
            ],
            "units": {
                "leading_exponent": "lattice-units",
                "l_plus_squared": "lattice-units",
                "area": "lattice-units",
            },
        },
        args.out,
    )
    return 0


def _cmd_verify(args):
    systems = []
    labels = verify.ALL_SYSTEMS if args.systems == "all" else args.systems.split(",")
    for label in labels:
        system = from_label(label.strip())  # validate before running anything
        if system in systems:
            raise InputError(
                f"--systems names {system.label} twice: {clipped_repr(args.systems)}"
            )
        systems.append(system)
    labels = [system.label for system in systems]
    names = None
    if args.checks is not None:
        names = [c.strip() for c in args.checks.split(",")]
        unknown = [n for n in names if n not in verify.CHECKS]
        if unknown:
            shown = clipped(", ".join(map(repr, unknown)), args.checks)
            raise UnsupportedSystem(f"unknown --checks: {shown}")
        twice = [n for i, n in enumerate(names) if n in names[:i]]
        if twice:
            raise InputError(f"--checks names {twice[0]} twice: {clipped_repr(args.checks)}")
    results = verify.run_checks(labels, args.box, names)
    all_pass = all(r["pass"] for r in results.values())
    _emit(
        {
            "command": "verify",
            "systems": labels,
            "coordinate_box": args.box,
            "checks": results,
            "all_pass": all_pass,
            "units": {"coordinate_box": "dimensionless"},
        },
        args.out,
    )
    return 0 if all_pass else 1


def _build_parser():
    parser = _Parser(
        prog="liehofer",
        description="Exact circle-subgroup indices, Hofer lengths, loop-group "
        "Morse series and SU(2) Hessian numerics on coadjoint orbits.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, fn, **kwargs):
        p = sub.add_parser(name, **kwargs)
        p.add_argument("--out", help="also write the JSON report to this path")
        p.set_defaults(fn=fn)
        return p

    p = add("index", _cmd_index, help="virtual vs Riemannian index of a circle subgroup")
    p.add_argument("--system", required=True, help="root system label, e.g. A1")
    p.add_argument("--xi", required=True, help="comma-separated coweight coordinates")

    p = add("weights", _cmd_weights, help="weights at the moment-map maximum")
    p.add_argument("--system", required=True)
    p.add_argument("--xi", required=True)

    p = add("hofer", _cmd_hofer, help="Hofer length and positive norms")
    p.add_argument("--system", required=True)
    p.add_argument("--xi", required=True)
    p.add_argument("--eta", help="second coweight for the positive norm")

    p = add("omega-series", _cmd_omega_series, help="loop-group Poincare series vs oracle")
    p.add_argument("--system", required=True)
    p.add_argument(
        "--cutoff", type=_integer, default=12,
        help=f"even series degree, 0..{loop_morse.MAX_CUTOFF}",
    )

    p = add(
        "hessian-su2", _cmd_hessian,
        help="Hessian spectrum on SU(2) from one exact step block (energy) "
        "and exact L+ second derivatives along its unstable modes",
    )
    p.add_argument("--m", type=_integer, required=True, help="winding number, m >= 1, 4m <= n")
    p.add_argument(
        "--n", type=_integer, default=64,
        help=f"loop resolution, max(32, 4m)..{su2_loops.MAX_N}",
    )
    p.add_argument("--functional", choices=("energy", "lplus"), default="energy")

    p = add("seidel-cp1", _cmd_seidel, help="leading quantum term for an A1 circle")
    p.add_argument("--xi", required=True, help="A1 coweight coordinate")
    p.add_argument(
        "--area", type=_finite_positive_float, default=1.0,
        help="symplectic area of the line",
    )
    p.add_argument("--sign", type=_integer, choices=(1, -1), default=1)

    p = add("verify", _cmd_verify, help="run the cross-module verification suite")
    p.add_argument(
        "--box", type=lambda text: _integer(text, nonnegative=True), default=4,
        help=f"coordinate bound for sweeps, 0..{verify.MAX_BOX}",
    )
    p.add_argument("--systems", default="all")
    p.add_argument("--checks", help="comma-separated subset of: " + ", ".join(verify.CHECKS))

    return parser


def main(argv=None):
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.fn(args)
        # flush here, not at exit, so that a closed pipe is caught below
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader of stdout went away: send what is left to devnull so
        # that the flush at exit fails no more
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except (InputError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except LieHoferError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
