"""Command-line surface: law-driven rate evaluation, oracles, simulation,
and the verification suites.

Each `cmd_*` maps (law, args) to a payload and writes nothing: a dict,
printed as strict JSON with a `meta` object, or a (columns, rows) table,
printed as CSV under a `#`-prefixed header.  `main` alone loads the law
(it reads the file on every call, but parses, validates and hashes each
distinct file content once per process), builds meta (law hash, package
version, and seed for simulate), maps errors to exit codes and writes.
Exit codes: 0 success / all checks pass, 1 numeric failure, out of memory
or a failed verify report, 2 usage error.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import math
import sys

import numpy as np

from . import __version__, fixed_point, montecarlo, oracle, rates, verify
from .laws import IncrementLaw, LawValidationError


def _int_at_least(low, text):
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}")
    if value < low:
        raise argparse.ArgumentTypeError(f"must be >= {low}, got {value}")
    return value


_nonnegative_int = functools.partial(_int_at_least, 0)
_positive_int = functools.partial(_int_at_least, 1)


def _seed(text):
    """The Monte Carlo stream's seed: an int with 0 <= seed < 2**128."""
    value = _nonnegative_int(text)
    if value >= 2**128:
        raise argparse.ArgumentTypeError(f"must be < 2**128, got {value}")
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
        grid = np.linspace(float(a), float(b), _positive_int(num))
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid grid {spec!r}; want a:b:n")
    return [_record_density(x) for x in grid]


def cmd_rate(law, args):
    columns = ["x", "x_rec", "lambda", "Lambda", "Lambda_star", "ldp_rate"]
    rows = []
    for x_rec in [args.x] if args.grid is None else args.grid:
        pt = rates.rate_point(law, x_rec)
        rows.append((pt.x, x_rec, pt.lam, pt.Lambda, pt.Lambda_star,
                     pt.ldp_rate))
    if args.grid is None:
        return dict(zip(columns, rows[0]))
    return columns, rows


def cmd_mdp(law, args):
    method = "numeric" if args.numeric else "auto"
    return dataclasses.asdict(rates.mdp_constants(law, method=method))


def cmd_oracle(law, args):
    if args.mode == "dp":
        kernel = oracle.build_kernel(law, level_cap=args.n)
        table = oracle.exact_An_distribution(kernel, args.n, kmax=args.kmax)
    else:
        table = oracle.renewal_tail_table(law, args.n, kmax=args.kmax)
    bound, provenance = table.error_bound, table.provenance.value
    rows = [(k, p, bound, provenance)
            for k, p in enumerate(table.tail.tolist())]
    return ["k", "tail_prob", "error_bound", "provenance"], rows


def cmd_simulate(law, args):
    config = montecarlo.SimConfig(law, args.n, args.paths, args.seed,
                                  workers=args.workers)
    table = montecarlo.empirical_tail(config)
    kmax = args.n if args.kmax is None else min(args.kmax, args.n)
    rows = list(zip(range(kmax + 1), table.tail.tolist(),
                    table.ci_lo.tolist(), table.ci_hi.tolist()))
    return ["k", "estimate", "ci_lo", "ci_hi"], rows


def cmd_series(law, args):
    if args.what == "h":
        coeffs = fixed_point.h_series(law, args.order)
    elif args.what == "tau":
        coeffs = oracle.tau_pmf(law, args.order)
    else:
        coeffs, _ = oracle.return_prob_partial_sums(law, args.order)
    return ["index", "coefficient"], list(enumerate(coeffs.tolist()))


def cmd_verify(law, args):
    report = verify.run_suite(law, args.suite)
    return {
        "suite": report.suite,
        "passed": report.passed,
        "checks": [dataclasses.asdict(c) for c in report.checks],
    }


def _jsonable(v):
    """v with every non-finite float, at any depth, as its repr string."""
    if isinstance(v, float):
        return v if math.isfinite(v) else repr(float(v))
    if isinstance(v, dict):
        return {k: _jsonable(x) for k, x in v.items()}
    if isinstance(v, (list, tuple)):
        return [_jsonable(x) for x in v]
    return v


def _emit(payload, meta):
    """Write a dict payload as JSON with a `meta` key, or a (columns, rows)
    table as CSV under a `#` header of meta, in one write to stdout.

    A row is a tuple of Python ints, floats and strings, whose str is their
    repr, so a float round-trips exactly."""
    if isinstance(payload, dict):
        text = json.dumps({**_jsonable(payload), "meta": meta}, indent=2,
                          sort_keys=True)
    else:
        columns, rows = payload
        lines = [f"# {k}={meta[k]}" for k in sorted(meta)]
        lines.append(",".join(columns))
        row_format = ",".join(["%s"] * len(columns))
        lines.extend(row_format % row for row in rows)
        text = "\n".join(lines)
    sys.stdout.write(text + "\n")


@functools.cache
def build_parser():
    parser = argparse.ArgumentParser(
        prog="recordwalk",
        description="Rate functions and exact oracles for weak-record counts "
                    "of skip-free random walks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--law", required=True)

    def command(name, func, summary):
        p = sub.add_parser(name, parents=[common], help=summary)
        p.set_defaults(func=func)
        return p

    p = command("rate", cmd_rate, "LDP rate evaluation at a record density")
    mode = p.add_mutually_exclusive_group(required=True)
    mode.add_argument("--x", type=_record_density,
                      help="record density in (0, 1]")
    mode.add_argument("--grid", type=_density_grid,
                      help="a:b:n grid of record densities (CSV output)")

    p = command("mdp", cmd_mdp, "moderate-deviation constants")
    p.add_argument("--numeric", action="store_true",
                   help="estimate (alpha, c) by log-log regression")

    p = command("oracle", cmd_oracle, "exact finite-n tail probabilities")
    p.add_argument("--n", type=_positive_int, required=True)
    p.add_argument("--mode", choices=["dp", "renewal"], required=True)
    p.add_argument("--kmax", type=_nonnegative_int)

    p = command("simulate", cmd_simulate, "Monte Carlo tail estimates")
    p.add_argument("--n", type=_positive_int, required=True)
    p.add_argument("--paths", type=int, required=True)
    p.add_argument("--seed", type=_seed, required=True)
    p.add_argument("--kmax", type=_nonnegative_int)
    p.add_argument("--workers", type=_positive_int, default=1)

    p = command("series", cmd_series, "export series coefficients as CSV")
    p.add_argument("--what", choices=["h", "tau", "returns"], required=True)
    p.add_argument("--order", type=_positive_int, default=512)

    p = command("verify", cmd_verify, "run a named verification suite")
    p.add_argument("--suite", choices=list(verify.SUITES), required=True)

    return parser


@functools.lru_cache(maxsize=16)
def _load_law(data):
    """The law of a law file's bytes and its sha256, built once per distinct
    content in a process.  A law is frozen and its cached properties are
    pure, so calls may share it; a file that fails to load is not cached."""
    law = IncrementLaw.from_json(data)
    return law, law.sha256()


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        with open(args.law, "rb") as fh:
            law, law_sha256 = _load_law(fh.read())
        payload = args.func(law, args)
    except (LawValidationError, OSError,
            montecarlo.TooFewPathsError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, RuntimeError) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:
        print(f"out of memory: {exc}", file=sys.stderr)
        return 1
    meta = {"law_sha256": law_sha256, "version": __version__}
    if args.command == "simulate":
        meta["seed"] = args.seed
    _emit(payload, meta)
    # a verify report is printed whole, and a failed one exits 1
    failed = isinstance(payload, dict) and payload.get("passed") is False
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
