"""recordwalk benchmark runner.

    python3 bench/run.py --workload rate-queries --seed 1 --seconds 20 --trace 0

Runs one workload of bench/workloads.py as a closed loop from this one
process: each CLI operation starts after the previous one returned.  After a
warm-up, the workload's operation list runs a fixed number of passes, sized
from --seconds and the workload's nominal pass time, so that one seed always
gives the same operations, attempted count and failed count.  Each
operation's output is checked.  Times of interpreter-bound work are scaled
to a reference machine speed (see KERNELS).  With --trace 0 the run
reports the end-to-end metrics; with --trace 1 it runs half of the passes
untraced and half traced, and reports the per-layer metrics of the traced
passes plus the tracing overhead.  Human-readable lines come first; the last
line of stdout is one JSON object with the keys correct, attempted, failed
and metrics.  The program is imported from the src/ directory next to this
one, never from an installed copy.
"""

from __future__ import annotations

import argparse
import bisect
import collections
import hashlib
import json
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
NPROC = len(os.sched_getaffinity(0))
SETUP_REPEATS = 7

# BLAS threads and MC workers are both nproc; the MC thread cap is unset so
# every run uses the same worker count.  Must precede the numpy import.
os.environ["OPENBLAS_NUM_THREADS"] = str(NPROC)
os.environ["OMP_NUM_THREADS"] = str(NPROC)
os.environ.pop("RECORD_WALK_THREADS", None)

import numpy as np  # noqa: E402  (after the BLAS thread count is set)

# While a workload runs, its reference kernel (see KERNELS) is timed either
# every SAMPLE_INTERVAL_S of wall time, inside the operations, or before each
# operation as the median of GAP_CALLS calls.  An operation's speed comes from
# the samples taken while it ran and up to SPEED_WINDOW_S before and after it.
SAMPLE_INTERVAL_S = 0.05
GAP_CALLS = 3
SPEED_WINDOW_S = 0.25

END_TO_END = (
    ("wall_scaled_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)


def import_program():
    """Import recordwalk from ROOT/src; fail if it is not there."""
    if not (SRC / "recordwalk" / "__init__.py").is_file():
        raise SystemExit(f"error: no recordwalk sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import recordwalk

    if Path(recordwalk.__file__).resolve().parent != SRC / "recordwalk":
        raise SystemExit(f"error: recordwalk imported from {recordwalk.__file__}")


class _Polynomial:
    q = 0.3
    p = (0.1, 0.2, 0.3, 0.25, 0.15)

    def phi(self, s):
        acc = 0.0
        for v in self.p:
            acc = v + s * acc
        return self.q + s * acc


def interpreter_kernel(poly=_Polynomial()):
    """Like the rate and verify hot path: a method running Horner's rule on
    an object's attributes, then a few small-array numpy calls."""
    total = 0.0
    for i in range(500):
        total += poly.phi(i * 1e-3) ** 0.5
    a = np.arange(1000.0)
    for _ in range(8):
        a = np.sqrt(a + 1.0)
    return total + a[-1]


_MATRIX = np.random.default_rng(0).random((256, 256))


def blas_kernel():
    """Like one step of the dense DP: a matrix product on nproc BLAS threads."""
    return _MATRIX @ _MATRIX


_CDF = np.cumsum(np.random.default_rng(0).random(64))
_CDF /= _CDF[-1]
_PHILOX = np.random.Generator(np.random.Philox(0))


def monte_carlo_kernel():
    """Like a Monte Carlo block on one thread: Philox draws, an inverse-CDF
    search and the running maximum of the partial sums."""
    steps = np.searchsorted(_CDF, _PHILOX.random((256, 64))) - 3
    return np.maximum.accumulate(np.cumsum(steps, axis=1), axis=1)


# Reference kernels: fixed work that no change to recordwalk can make faster
# or slower.  This machine's speed swings by up to 1.6x within seconds and
# drifts over minutes, with CPU time tracking wall time, and each kind of
# work follows the swings by its own amount; a kernel shaped like a
# workload's work tracks them for that workload.  Each maps to the kernel and
# its median time on the 2-core machine the nominal pass times were measured
# on, in its usual (slower) state, so scaled times read close to raw ones.
KERNELS = {
    "interpreter": (interpreter_kernel, 0.42e-3),
    "blas": (blas_kernel, 0.47e-3),
    "monte-carlo": (monte_carlo_kernel, 1.35e-3),
}


class SpeedSampler:
    """Samples the time of a workload's reference kernel.  With in_ops a
    SIGALRM handler samples every SAMPLE_INTERVAL_S, so that samples fall
    inside long single-threaded operations; `spent` is the time the handler
    took, which the interrupted operation's time must not include.  Without
    it the caller samples between operations, since a sample taken while
    worker threads run would measure the contention with them."""

    def __init__(self, kernel, in_ops):
        self.kernel, self.nominal_s = KERNELS[kernel]
        self.in_ops = in_ops
        self.times, self.seconds = [], []
        self.spent = 0.0

    def sample(self, calls=1):
        start = time.perf_counter()
        times = []
        for _ in range(calls):
            t = time.perf_counter()
            self.kernel()
            times.append(time.perf_counter() - t)
        self.times.append(start)
        self.seconds.append(statistics.median(times))
        self.spent += time.perf_counter() - start

    def __enter__(self):
        if self.in_ops:
            self._previous = signal.signal(signal.SIGALRM,
                                           lambda signum, frame: self.sample())
            signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)
        return self

    def __exit__(self, *exc_info):
        if self.in_ops:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, self._previous)

    def scale(self, start, end):
        """Factor from wall time in [start, end] to time at the reference
        speed: the mean of nominal / sample over the samples in the window,
        since an operation's time integrates the inverse speed."""
        lo = bisect.bisect_left(self.times, start - SPEED_WINDOW_S)
        hi = bisect.bisect_right(self.times, end + SPEED_WINDOW_S)
        window = self.seconds[lo:hi] or self.seconds
        return statistics.fmean(self.nominal_s / t for t in window)


def pass_count(workload, seconds):
    """Fixed number of passes: as many nominal passes as fit in seconds."""
    return max(1, int(seconds / workload.pass_seconds))


def measure_passes(workload, count, after_pass=None):
    """Run `count` passes of the operation list while sampling the speed,
    and set each result's scaled_seconds.  after_pass runs after each pass,
    with the sampling stopped."""
    from workloads import run_op

    sampler = SpeedSampler(workload.speed_kernel, workload.sample_in_ops)
    passes, intervals = [], []
    for _ in range(count):
        results = []
        with sampler:
            for op in workload.ops:
                if not sampler.in_ops:
                    sampler.sample(GAP_CALLS)
                spent, start = sampler.spent, time.perf_counter()
                r = run_op(op)
                r.seconds -= sampler.spent - spent
                intervals.append((start, time.perf_counter()))
                results.append(r)
            if not sampler.in_ops:
                sampler.sample(GAP_CALLS)
        passes.append(results)
        if after_pass is not None:
            after_pass()
    flat = [r for results in passes for r in results]
    for r, (start, end) in zip(flat, intervals):
        r.scaled_seconds = r.seconds * sampler.scale(start, end)
    return passes, sampler


def median_pass_seconds(passes, scaled=True):
    return statistics.median(
        sum(r.scaled_seconds if scaled else r.seconds for r in results)
        for results in passes)


def cold_starts(workload_name, seed, count):
    """Times of `count` cold starts: a fresh interpreter imports recordwalk,
    loads the bundled laws and does the workload's warm-up.  Not scaled:
    cold-start time follows page faults and file reads more than the speed
    of any reference kernel, and scaling did not lower its spread."""
    argv = [sys.executable, str(Path(__file__).resolve()), "--workload",
            workload_name, "--seed", str(seed), "--setup-probe"]
    times = []
    for _ in range(count):
        start = time.perf_counter()
        subprocess.run(argv, check=True, cwd=ROOT, timeout=120,
                       stdout=subprocess.DEVNULL)
        times.append(time.perf_counter() - start)
    return times


def environment(workload, seed, passes):
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    src_hash = hashlib.sha256()
    for path in sorted((SRC / "recordwalk").rglob("*")):
        if path.suffix in (".py", ".json"):
            src_hash.update(path.relative_to(SRC).as_posix().encode())
            src_hash.update(path.read_bytes())
    git_sha = "unavailable"
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "--git-dir", str(ROOT / ".git"), "rev-parse",
                               "HEAD"], capture_output=True, text=True, timeout=30)
        git_sha = proc.stdout.strip() or git_sha
    return {
        "nproc": NPROC,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
        "mc_workers": NPROC,
        "git_sha": git_sha,
        "src_sha256": src_hash.hexdigest(),
        "workload": workload.name,
        "seed": seed,
        "ops_per_pass": len(workload.ops),
        "passes": passes,
        "speed_kernel": workload.speed_kernel,
    }


def check_passes(workload, passes):
    """Verdicts of every operation, and the per-pass output-derived values."""
    verdicts, observed = [], []
    for results in passes:
        v, o = workload.check(results)
        verdicts.extend(zip(results, v))
        observed.append(o)
    return verdicts, observed


def run(workload_name, seed, seconds, trace, scale="full", spans_path=None):
    """Run one workload; return (result dict, report lines)."""
    from workloads import WORKLOADS

    workload = WORKLOADS[workload_name](seed, scale)
    workload.warm_up()
    workload.prepare()
    lines = []
    if not trace:
        # The cold starts are spread over the gaps before, between and after
        # the passes: the machine's slow spells last seconds, and a median
        # of starts made in one spell would read that spell only.
        count = pass_count(workload, seconds)
        gaps = [SETUP_REPEATS * (g + 1) // (count + 1) - SETUP_REPEATS * g // (count + 1)
                for g in range(count + 1)]
        setup_times = cold_starts(workload_name, seed, gaps[0])
        later_gaps = iter(gaps[1:])
        passes, sampler = measure_passes(workload, count, lambda: setup_times.extend(
            cold_starts(workload_name, seed, next(later_gaps))))
        verdicts, _ = check_passes(workload, passes)
        metrics = {
            "wall_scaled_s": median_pass_seconds(passes),
            "setup_s": statistics.median(setup_times),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        lines.append(f"# wall_s = {median_pass_seconds(passes, False):.6g} s "
                     "(median over passes, unscaled); per pass, scaled: " + ", ".join(
                         f"{sum(r.scaled_seconds for r in p):.4g}" for p in passes))
        lines.append(f"# {workload.speed_kernel} kernel: median "
                     f"{statistics.median(sampler.seconds):.6g} s over "
                     f"{len(sampler.seconds)} samples, nominal {sampler.nominal_s} s")
        units = dict(END_TO_END)
        latencies = [r.seconds * 1e3 for results in passes for r in results]
        deciles = statistics.quantiles(latencies, n=10)
        lines.append(f"# query_p50_ms = {deciles[4]:.6g} ms, query_p90_ms = "
                     f"{deciles[8]:.6g} ms over {len(latencies)} operations "
                     f"({len(passes)} passes of {len(workload.ops)})")
        sims = [r for p in passes for r in p if r.op.argv[0] == "simulate"]
        if sims:
            steps = sum(r.op.info["n"] * r.op.info["paths"] for r in sims)
            lines.append("# path_steps_per_s = "
                         f"{steps / sum(r.seconds for r in sims):.6g} 1/s "
                         "(paths x n over time in simulate operations)")
    else:
        import tracing

        count = pass_count(workload, seconds / 2)
        untraced, _ = measure_passes(workload, count)
        traces = []
        with tracing.Tracer() as tracer:
            traced, _ = measure_passes(
                workload, count, lambda: traces.append(tracer.take_pass()))
        if spans_path is not None:
            tracer.write(spans_path)
            lines.append(f"# spans written to {spans_path.relative_to(ROOT)}")
        passes = untraced + traced
        verdicts, observed = check_passes(workload, passes)
        per_pass = [tracing.layer_metrics(spans, counters, obs)
                    for (spans, counters), obs in zip(traces, observed[len(untraced):])]
        metrics = {name: statistics.median(p[name] for p in per_pass)
                   for name, _ in tracing.LAYER_METRICS if name != "trace_overhead_frac"}
        metrics["trace_overhead_frac"] = (
            median_pass_seconds(traced) / median_pass_seconds(untraced) - 1.0)
        units = dict(tracing.LAYER_METRICS)
        lines.append(f"# per-layer values: median over {len(traced)} traced "
                     f"passes; rates.solve_h_per_rate_point has base "
                     f"rates.rate_point.calls = {metrics['rates.rate_point.calls']}")
    lines.insert(0, f"# env {json.dumps(environment(workload, seed, len(passes)))}")
    failures = [(r, v) for r, v in verdicts if v is not None]
    unexpected = [(r, v) for r, v in failures if v.defect is None]
    attempted, failed = len(verdicts), len(failures)
    lines.append(f"# ops_failed_frac = {failed / attempted:.6g} ratio "
                 f"(base: {attempted} attempted operations, {failed} failed)")
    by_reason = collections.Counter(v.defect or "UNEXPECTED" for _, v in failures)
    for reason, count in sorted(by_reason.items()):
        lines.append(f"#   failed: {count} x {reason}")
    for r, v in unexpected[:5]:
        lines.append(f"#   unexpected: {' '.join(r.op.argv)}: {v.reason}")
    for name, value in metrics.items():
        lines.append(f"{name} = {value:.6g} {units[name]}")
    result = {
        "correct": not unexpected,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": float(value), "unit": units[name]}
                    for name, value in metrics.items()},
    }
    return result, lines


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)  # used by cold_starts
    args = parser.parse_args(argv)
    import_program()
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(WORKLOADS)}")
    if args.setup_probe:
        WORKLOADS[args.workload](args.seed).warm_up()
        return 0
    spans_path = (Path(__file__).resolve().parent / "out"
                  / f"{args.workload}-seed{args.seed}.spans.csv.gz")
    result, lines = run(args.workload, args.seed, args.seconds, bool(args.trace),
                        spans_path=spans_path)
    print("\n".join(lines))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
