"""Command-line surface: law-driven rate evaluation, oracles, simulation,
and the verification suites.

Exit codes: 0 success / all checks pass, 1 numeric failure, 2 usage error.
JSON outputs carry a `meta` object and CSV outputs a `#`-prefixed header
with the law hash, package version, and seed where applicable.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys

import numpy as np

from . import __version__, fixed_point, montecarlo, oracle, rates, verify
from .laws import IncrementLaw, LawValidationError


def _load_law(path):
    with open(path) as fh:
        return IncrementLaw.from_json(fh.read())


def _meta(law, seed=None):
    meta = {"law_sha256": law.sha256(), "version": __version__}
    if seed is not None:
        meta["seed"] = seed
    return meta


def _emit_json(payload, out):
    out.write(json.dumps(payload, indent=2, sort_keys=True))
    out.write("\n")


def _emit_csv(header_meta, columns, rows, out):
    for k in sorted(header_meta):
        out.write(f"# {k}={header_meta[k]}\n")
    out.write(",".join(columns) + "\n")
    for row in rows:
        out.write(",".join(repr(v) if isinstance(v, float) else str(v) for v in row))
        out.write("\n")


def _nonnegative_int(text):
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}")
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


def _record_density(text):
    """A finite record density 0 < x <= 1 whose slope 1/x is finite."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid float value: {text!r}")
    if not (0.0 < value <= 1.0 and math.isfinite(1.0 / value)):
        raise argparse.ArgumentTypeError(
            f"record density must lie in (0, 1] with a finite 1/x, got {text}")
    return value


def _density_grid(spec):
    """An a:b:n grid of record densities, each checked as --x is."""
    try:
        a, b, num = spec.split(":")
        grid = np.linspace(float(a), float(b), int(num))
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid grid {spec!r}; want a:b:n")
    return [_record_density(x) for x in grid]


def cmd_rate(args, out):
    law = _load_law(args.law)
    if args.grid is not None:
        rows = []
        for x_rec in args.grid:
            pt = rates.rate_point(law, x_rec)
            rows.append((pt.x, x_rec, pt.lam, pt.Lambda, pt.Lambda_star,
                         pt.ldp_rate))
        _emit_csv(_meta(law),
                  ["x", "x_rec", "lambda", "Lambda", "Lambda_star", "ldp_rate"],
                  rows, out)
        return 0
    pt = rates.rate_point(law, args.x)
    _emit_json({
        "x": _jsonable(pt.x),
        "x_rec": args.x,
        "lambda": _jsonable(pt.lam),
        "Lambda": _jsonable(pt.Lambda),
        "Lambda_star": _jsonable(pt.Lambda_star),
        "ldp_rate": _jsonable(pt.ldp_rate),
        "meta": _meta(law),
    }, out)
    return 0


def cmd_mdp(args, out):
    law = _load_law(args.law)
    method = "numeric" if args.numeric else "auto"
    c = rates.mdp_constants(law, method=method)
    _emit_json({
        "alpha": c.alpha,
        "c": c.c,
        "regime": c.regime.value,
        "scaling_exponents": list(c.scaling_exponents),
        "rate_coefficient": c.rate_coefficient,
        "rate_exponent": c.rate_exponent,
        "uncertainty": c.uncertainty,
        "meta": _meta(law),
    }, out)
    return 0


def cmd_oracle(args, out):
    law = _load_law(args.law)
    if args.mode == "dp":
        kernel = oracle.build_kernel(law, level_cap=max(args.n, 1))
        table = oracle.exact_An_distribution(kernel, args.n, kmax=args.kmax)
    else:
        table = oracle.renewal_tail_table(law, args.n, kmax=args.kmax)
    rows = [
        (k, float(table.tail[k]), table.error_bound, table.provenance.value)
        for k in range(len(table.tail))
    ]
    _emit_csv(_meta(law), ["k", "tail_prob", "error_bound", "provenance"], rows, out)
    return 0


def cmd_simulate(args, out):
    law = _load_law(args.law)
    config = montecarlo.SimConfig(law, args.n, args.paths, args.seed,
                                  workers=args.workers)
    table = montecarlo.empirical_tail(config)
    kmax = args.kmax if args.kmax is not None else args.n
    rows = [
        (k, float(table.tail[k]), float(table.ci_lo[k]), float(table.ci_hi[k]))
        for k in range(min(kmax, args.n) + 1)
    ]
    _emit_csv(_meta(law, seed=args.seed),
              ["k", "estimate", "ci_lo", "ci_hi"], rows, out)
    return 0


def cmd_series(args, out):
    law = _load_law(args.law)
    if args.what == "h":
        coeffs = fixed_point.h_series(law, args.order).coeffs
    elif args.what == "tau":
        coeffs = oracle.tau_pmf(law, args.order).coeffs
    else:
        coeffs, _ = oracle.return_prob_partial_sums(law, args.order)
    rows = [(i, float(c)) for i, c in enumerate(coeffs)]
    _emit_csv(_meta(law), ["index", "coefficient"], rows, out)
    return 0


def cmd_verify(args, out):
    law = _load_law(args.law)
    report = verify.run_suite(law, args.suite)
    payload = {
        "suite": report.suite,
        "passed": report.passed,
        "checks": [
            {
                "name": c.name,
                "target": _jsonable(c.target),
                "observed": _jsonable(c.observed),
                "tolerance": _jsonable(c.tolerance),
                "passed": c.passed,
                "provenance": c.provenance,
            }
            for c in report.checks
        ],
        "meta": _meta(law),
    }
    _emit_json(payload, out)
    return 0 if report.passed else 1


def _jsonable(v):
    if isinstance(v, float) and not math.isfinite(v):
        return repr(v)
    return v


@functools.cache
def build_parser():
    parser = argparse.ArgumentParser(
        prog="recordwalk",
        description="Rate functions and exact oracles for weak-record counts "
                    "of skip-free random walks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("rate", help="LDP rate evaluation at a record density")
    p.add_argument("--law", required=True)
    p.add_argument("--x", type=_record_density, help="record density in (0, 1]")
    p.add_argument("--grid", type=_density_grid,
                   help="a:b:n grid of record densities (CSV output)")
    p.set_defaults(func=cmd_rate)

    p = sub.add_parser("mdp", help="moderate-deviation constants")
    p.add_argument("--law", required=True)
    p.add_argument("--numeric", action="store_true",
                   help="estimate (alpha, c) by log-log regression")
    p.set_defaults(func=cmd_mdp)

    p = sub.add_parser("oracle", help="exact finite-n tail probabilities")
    p.add_argument("--law", required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--mode", choices=["dp", "renewal"], required=True)
    p.add_argument("--kmax", type=_nonnegative_int)
    p.set_defaults(func=cmd_oracle)

    p = sub.add_parser("simulate", help="Monte Carlo tail estimates")
    p.add_argument("--law", required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--paths", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--kmax", type=_nonnegative_int)
    p.add_argument("--workers", type=int, default=1)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("series", help="export series coefficients as CSV")
    p.add_argument("--law", required=True)
    p.add_argument("--what", choices=["h", "tau", "returns"], required=True)
    p.add_argument("--order", type=int, default=512)
    p.set_defaults(func=cmd_series)

    p = sub.add_parser("verify", help="run a named verification suite")
    p.add_argument("--law", required=True)
    p.add_argument("--suite", choices=list(verify.SUITES), required=True)
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "rate" and (args.x is None) == (args.grid is None):
        parser.error("rate needs exactly one of --x or --grid")
    try:
        return args.func(args, sys.stdout)
    except (LawValidationError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, RuntimeError) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
