"""The benchmark's four workloads.

Each workload is a fixed list of CLI operations made from the workload seed,
a warm-up, and the output checks that decide which operations failed.  An
operation is one in-process call of ``recordwalk.cli.main`` with stdout
captured; it fails if it raises, exits nonzero, or its output fails the
workload's check.  Failures that match a known defect of the program are
still counted as failures; they only keep ``correct`` true (see
KNOWN_DEFECTS).
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import random
import time
import warnings
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from recordwalk import (
    build_kernel,
    bundled_law_path,
    cli,
    exact_An_distribution,
    mdp_constants,
    mdp_rate,
    verify,
)
from recordwalk.laws import IncrementLaw, Orientation

NPROC = len(os.sched_getaffinity(0))
LAWS = ("sym", "asym", "sym_left", "stable_g05_b05", "stable_g05_b05_left")
EXPLICIT_LAWS = ("sym", "asym", "sym_left")

# Known defects of the program, recorded next to the baseline rather than
# fixed or hidden.  A failed operation whose symptom matches one of these is
# counted in `failed` like any other; only a failure that matches none of
# them makes the run incorrect.
KNOWN_DEFECTS = {
    "tauberian-json": "verify --suite tauberian raises TypeError: Check.passed "
                      "holds numpy.bool_, which json cannot serialise",
    "rate-lambda-floor": "rate --x: ldp_rate negative or off the MDP rate by "
                         "more than 1% where lambda > -1e-12, next to the "
                         "-1e-14 floor of invert_slope",
}

# Tolerances of the output checks.
RATE_MDP_RTOL = 0.01          # ldp/mdp within 1% of 1 ...
RATE_MDP_MAX_X = 1e-3         # ... for x_rec <= 1e-3
RATE_MONOTONE_RTOL = 1e-9     # ldp_rate nondecreasing in x_rec, up to rounding
LAMBDA_NEAR_FLOOR = -1e-12    # lambda above this: 1 - e^lambda has lost digits
LAMBDA_FLOOR = -1e-14         # invert_slope's upper bracket end
LAMBDA_CLAMP = -745.0         # invert_slope's lower clamp
MDP_NUMERIC_RTOL = 0.02       # mdp --numeric vs the closed form, as in verify
ORACLE_AGREE_ATOL = 1e-12     # DP vs renewal, and P(A_n >= n) vs base^n
TAIL_RTOL = 1e-12             # tails in [0, 1] and nonincreasing in k
MC_WILSON_HW = 4.0            # MC within 4 Wilson half-widths of the DP tail


def law_path(name):
    return str(bundled_law_path(name + ".json"))


def load_law(name):
    return IncrementLaw.from_json(Path(law_path(name)).read_text())


@dataclass
class Op:
    argv: list
    law: str
    info: dict = field(default_factory=dict)


@dataclass
class Result:
    op: Op
    rc: int | None
    out: str
    error: Exception | None
    seconds: float
    warnings: list
    scaled_seconds: float | None = None  # set by the runner


@dataclass(frozen=True)
class Failure:
    reason: str
    defect: str | None = None


def run_op(op):
    """Run one operation through the public CLI entry point, timed."""
    buf = io.StringIO()
    error = None
    with warnings.catch_warnings(record=True) as caught, \
            contextlib.redirect_stdout(buf):
        warnings.simplefilter("always")
        start = time.perf_counter()
        try:
            rc = cli.main(list(op.argv))
        except SystemExit as exc:  # argparse usage errors
            rc = exc.code
        except Exception as exc:  # a crash is a failed operation, not a stop
            rc, error = None, exc
        seconds = time.perf_counter() - start
    return Result(op, rc, buf.getvalue(), error, seconds,
                  [str(w.message) for w in caught])


def parse_csv(text):
    """Data rows of a CLI CSV output, without the '#' header and column row."""
    rows = [line.split(",") for line in text.splitlines()
            if line and not line.startswith("#")]
    return rows[1:]


def _exit_failure(r):
    if r.error is not None:
        return Failure(f"raised {r.error!r}")
    if r.rc != 0:
        return Failure(f"exit code {r.rc}")
    return None


def _tail_failure(tail):
    if np.any(tail < 0.0) or np.any(tail > 1.0 + TAIL_RTOL):
        return Failure("tail outside [0, 1]")
    if np.any(tail[1:] > tail[:-1] * (1.0 + TAIL_RTOL)):
        return Failure("tail increases in k")
    return None


class Workload:
    """A fixed operation list made from the seed, plus warm-up and checks."""

    name = ""
    # Nominal time of one full-scale pass on the 2-core reference machine;
    # a run makes as many passes as fit in --seconds at this pace.
    pass_seconds = 1.0
    # Reference kernel (run.KERNELS) whose time scales this workload's times
    # to the reference speed, and whether it is sampled inside operations,
    # which only single-threaded operations allow.
    speed_kernel = "interpreter"
    sample_in_ops = True

    def __init__(self, seed, scale="full"):
        self.seed = seed
        self.rng = random.Random(f"{self.name}/{seed}")
        self.laws = {name: load_law(name) for name in LAWS}
        self.ops = self.make_ops(scale)

    def make_ops(self, scale):
        raise NotImplementedError

    def warm_up_ops(self):
        raise NotImplementedError

    def warm_up(self):
        """Pay one-time costs (module caches, BLAS and thread-pool start-up)
        before timing, as a long-lived caller would have."""
        for op in self.warm_up_ops():
            run_op(op)

    def prepare(self):
        """Untimed references the checks compare against."""

    def check(self, results):
        """Return one Failure-or-None per result, and values read from the
        outputs for the per-layer table."""
        raise NotImplementedError


class RateQueries(Workload):
    name = "rate-queries"
    pass_seconds = 2.9

    def make_ops(self, scale):
        # Log-uniform on [1e-12, 1], stratified by decade so that every seed
        # puts the same number of queries below each law's floor threshold.
        per_decade = 5 if scale == "full" else 1
        decades = range(-12, 0) if scale == "full" else (-12, -1)
        ops = []
        for law in LAWS:
            path = law_path(law)
            for d in (d for d in decades for _ in range(per_decade)):
                x = 10.0 ** self.rng.uniform(d, d + 1)
                ops.append(Op(["rate", "--law", path, "--x", repr(x)], law,
                              {"x_rec": x}))
            ops.append(Op(["mdp", "--law", path], law, {"mdp": "auto"}))
            ops.append(Op(["mdp", "--law", path, "--numeric"], law,
                          {"mdp": "numeric"}))
        return ops

    def warm_up_ops(self):
        return [Op(["rate", "--law", law_path(law), "--x", "0.5"], law)
                for law in LAWS]

    def prepare(self):
        self.closed = {law: mdp_constants(self.laws[law]) for law in LAWS}

    def check(self, results):
        verdicts = [None] * len(results)
        clamp_hits = 0
        points = {law: [] for law in LAWS}
        for i, r in enumerate(results):
            verdicts[i] = _exit_failure(r)
            if verdicts[i]:
                continue
            try:
                out = json.loads(r.out)
            except ValueError:
                verdicts[i] = Failure("output is not JSON")
                continue
            if "mdp" in r.op.info:
                verdicts[i] = self._check_mdp(out, r.op)
                continue
            x, lam, rate = r.op.info["x_rec"], out["lambda"], out["ldp_rate"]
            if lam >= LAMBDA_FLOOR * (1.0 + 1e-6) or lam <= LAMBDA_CLAMP:
                clamp_hits += 1
            defect = "rate-lambda-floor" if lam > LAMBDA_NEAR_FLOOR else None
            problems = []
            if not (math.isfinite(rate) and rate >= 0.0):
                problems.append(f"ldp_rate {rate!r} is not finite and >= 0")
            elif x <= RATE_MDP_MAX_X:
                ratio = rate / mdp_rate(self.closed[r.op.law], x)
                if abs(ratio - 1.0) > RATE_MDP_RTOL:
                    problems.append(f"ldp/mdp = {ratio!r}")
            if problems:
                verdicts[i] = Failure(f"x_rec={x!r}: " + "; ".join(problems),
                                      defect)
            points[r.op.law].append((x, rate, i, defect))
        for pts in points.values():
            pts.sort()
            for (x0, r0, _, d0), (x1, r1, i1, d1) in zip(pts, pts[1:]):
                if r1 < r0 - RATE_MONOTONE_RTOL * abs(r0) and not verdicts[i1]:
                    verdicts[i1] = Failure(
                        f"ldp_rate falls from {r0!r} at x_rec={x0!r} "
                        f"to {r1!r} at x_rec={x1!r}", d1 or d0)
        return verdicts, {"rates.clamp_hits": clamp_hits}

    def _check_mdp(self, out, op):
        alpha, c = out["alpha"], out["c"]
        if not (math.isfinite(alpha) and math.isfinite(c)
                and alpha > 0.0 and c > 0.0):
            return Failure(f"mdp constants alpha={alpha!r}, c={c!r}")
        if op.info["mdp"] == "numeric":
            closed = self.closed[op.law]
            if abs(alpha - closed.alpha) > MDP_NUMERIC_RTOL * closed.alpha \
                    or abs(c - closed.c) > MDP_NUMERIC_RTOL * closed.c:
                return Failure(f"numeric (alpha, c) = ({alpha!r}, {c!r}) "
                               "off the closed form by more than 2%")
        return None


class ExactTails(Workload):
    name = "exact-tails"
    pass_seconds = 4.8
    speed_kernel = "blas"
    sample_in_ops = False

    def make_ops(self, scale):
        n, singles = (400, (("sym", 1600), ("stable_g05_b05", 800))) \
            if scale == "full" else (24, (("sym", 48), ("stable_g05_b05", 32)))
        ops = []
        for law in LAWS:
            for mode in ("dp", "renewal"):
                ops.append(Op(["oracle", "--law", law_path(law), "--n", str(n),
                               "--mode", mode], law, {"n": n, "mode": mode}))
        for law, big_n in singles:
            ops.append(Op(["oracle", "--law", law_path(law), "--n", str(big_n),
                           "--mode", "renewal", "--kmax", str(big_n // 2)],
                          law, {"n": big_n, "mode": "renewal-single"}))
        self.rng.shuffle(ops)
        return ops

    def warm_up_ops(self):
        return [Op(["oracle", "--law", law_path(law), "--n", "24", "--mode", mode],
                   law) for law in LAWS for mode in ("dp", "renewal")]

    def warm_up(self):
        a = np.ones((402, 402))
        a @ a  # the first dense matmul pays OpenBLAS start-up
        super().warm_up()

    def check(self, results):
        verdicts = [None] * len(results)
        tables = {}
        for i, r in enumerate(results):
            verdicts[i] = _exit_failure(r)
            if verdicts[i]:
                continue
            info = r.op.info
            try:
                tail = np.array([float(row[1]) for row in parse_csv(r.out)])
            except (IndexError, ValueError):
                verdicts[i] = Failure("output is not the tail CSV")
                continue
            verdicts[i] = _tail_failure(tail)
            if verdicts[i]:
                continue
            n = info["n"]
            if info["mode"] == "renewal-single":
                if len(tail) != n // 2 + 1:
                    verdicts[i] = Failure(f"{len(tail)} rows, expected {n // 2 + 1}")
                continue
            if len(tail) != n + 1:
                verdicts[i] = Failure(f"{len(tail)} rows, expected {n + 1}")
                continue
            if r.op.law in EXPLICIT_LAWS:
                law = self.laws[r.op.law]
                base = law.q + law.p0 if law.orientation is Orientation.RIGHT \
                    else 1.0 - law.q
                if abs(tail[n] - base**n) > ORACLE_AGREE_ATOL:
                    verdicts[i] = Failure(f"P(A_n >= n) = {tail[n]!r}, "
                                          f"base^n = {base**n!r}")
                    continue
            tables[(r.op.law, n, info["mode"])] = (i, tail)
        max_dev = 0.0
        for (law, n, mode), (i, tail) in tables.items():
            if mode != "renewal" or (law, n, "dp") not in tables:
                continue
            dev = float(np.max(np.abs(tail - tables[(law, n, "dp")][1])))
            max_dev = max(max_dev, dev)
            if dev > ORACLE_AGREE_ATOL:
                verdicts[i] = Failure(f"renewal differs from DP by {dev!r}")
        return verdicts, {"oracle.max_dev": max_dev}


class MonteCarlo(Workload):
    name = "monte-carlo"
    pass_seconds = 3.3
    speed_kernel = "monte-carlo"
    sample_in_ops = False
    BLOCK = 8192  # montecarlo.BLOCK_SIZE; whole blocks split evenly over workers

    def make_ops(self, scale):
        self.n, paths = (200, 12 * self.BLOCK) if scale == "full" else (20, 2048)
        return [Op(["simulate", "--law", law_path(law), "--n", str(self.n),
                    "--paths", str(paths), "--seed", str(self.rng.getrandbits(63)),
                    "--workers", str(NPROC)], law, {"n": self.n, "paths": paths})
                for law in LAWS]

    def warm_up_ops(self):
        return [Op(["simulate", "--law", law_path(law), "--n", "8", "--paths",
                    "1000", "--seed", "1", "--workers", str(NPROC)], law)
                for law in LAWS]

    def prepare(self):
        self.dp = {}
        for name, law in self.laws.items():
            table = exact_An_distribution(build_kernel(law, self.n), self.n)
            self.dp[name] = (table.tail, table.error_bound)
        first = self.ops[0]
        argv = first.argv[:-1] + ["1"]  # same run on one worker
        self.single_worker_out = run_op(Op(argv, first.law)).out

    def check(self, results):
        verdicts = [None] * len(results)
        max_dev_hw = 0.0
        clamp_warnings = 0
        for i, r in enumerate(results):
            clamp_warnings += sum("beyond the precomputed" in w for w in r.warnings)
            verdicts[i] = _exit_failure(r)
            if verdicts[i]:
                continue
            try:
                rows = np.array([[float(v) for v in row[1:4]]
                                 for row in parse_csv(r.out)])
                est, lo, hi = rows[:, 0], rows[:, 1], rows[:, 2]
            except (IndexError, ValueError):
                verdicts[i] = Failure("output is not the estimate CSV")
                continue
            dp_tail, dp_err = self.dp[r.op.law]
            hw = np.maximum((hi - lo) / 2.0, 1e-300)
            dev = np.abs(est - dp_tail[: len(est)])
            max_dev_hw = max(max_dev_hw, float(np.max(dev / hw)))
            if np.any(dev > MC_WILSON_HW * hw + dp_err):
                k = int(np.argmax(dev / hw))
                verdicts[i] = Failure(f"k={k}: estimate {est[k]!r} vs DP "
                                      f"{dp_tail[k]!r}, beyond 4 half-widths")
            elif i == 0 and r.out != self.single_worker_out:
                verdicts[i] = Failure("output differs from the --workers 1 run")
        return verdicts, {"montecarlo.max_dev_hw": max_dev_hw,
                          "montecarlo.clamp_warnings": clamp_warnings}


class VerifySuites(Workload):
    name = "verify-suites"
    pass_seconds = 14.5

    def make_ops(self, scale):
        laws = LAWS if scale == "full" else ("sym",)
        ops = [Op(["verify", "--law", law_path(law), "--suite", suite], law,
                  {"suite": suite})
               for suite in verify.SUITES for law in laws]
        self.rng.shuffle(ops)
        return ops

    def warm_up_ops(self):
        return [Op(["verify", "--law", law_path(law), "--suite", suite], law)
                for law in LAWS for suite in ("lambda-limits", "oracle-equivalence")]

    def check(self, results):
        verdicts = [None] * len(results)
        checks_failed = 0
        for i, r in enumerate(results):
            if (r.error is not None and r.op.info["suite"] == "tauberian"
                    and isinstance(r.error, TypeError)
                    and "JSON serializable" in str(r.error)):
                verdicts[i] = Failure(f"raised {r.error!r}", "tauberian-json")
                continue
            try:
                out = json.loads(r.out) if r.error is None else None
            except ValueError:
                out = None
            if out is not None:
                checks_failed += sum(not c["passed"] for c in out["checks"])
            verdicts[i] = _exit_failure(r) or (
                Failure("output is not JSON") if out is None else None)
        return verdicts, {"verify.checks_failed": checks_failed}


WORKLOADS = {w.name: w for w in (RateQueries, ExactTails, MonteCarlo, VerifySuites)}
