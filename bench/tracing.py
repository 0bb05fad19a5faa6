"""In-memory span tracer for the benchmark's traced run.

The tracer wraps the public functions of each recordwalk layer in every
recordwalk module namespace that holds them, so calls made through a
``from .x import f`` binding are seen too.  Each call records a span (id,
name, start, end, parent, thread); the phi methods only count calls, because
they run millions of times.  Nothing under src/ changes: the wrappers are
installed on entry and removed on exit.  Spans stay in memory until the run
writes them out at the end.
"""

from __future__ import annotations

import collections
import csv
import functools
import gzip
import inspect
import itertools
import sys
import threading
import time

from recordwalk import cli, fixed_point, laws, montecarlo, oracle, rates, series, verify
from recordwalk.laws import IncrementLaw


def _bound(fn, args, kwargs):
    return inspect.signature(fn).bind(*args, **kwargs).arguments


def _series_order(fn, counters, args, kwargs, result, seconds):
    order = _bound(fn, args, kwargs)["order"]
    counters["series.max_order"] = max(counters["series.max_order"], order)


def _dp_flops(fn, counters, args, kwargs, result, seconds):
    # one (kmax+1) x (L+2) by (L+2) x (L+2) product per step
    bound = _bound(fn, args, kwargs)
    size = bound["kernel"].matrix.shape[0]
    counters["oracle.dp.flops_computed"] += (
        2 * bound["n"] * len(result.tail) * size * size)


def _renewal_convolutions(fn, counters, args, kwargs, result, seconds):
    counters["oracle.renewal.convolutions"] += len(result.tail) - 1


def _simulate(fn, counters, args, kwargs, result, seconds):
    config = _bound(fn, args, kwargs)["config"]
    counters["montecarlo.path_steps"] += config.n * config.paths
    counters["montecarlo.worker_capacity_s"] += seconds * config.workers


def _suite_name(fn, args, kwargs):
    return "verify." + _bound(fn, args, kwargs)["suite"]


# (module, attribute, span name or function of the call, counter hook)
SPANS = (
    (laws, "truncated_explicit", "laws.truncated_explicit", None),
    (series, "series_reciprocal", "series.reciprocal", _series_order),
    (series, "series_log", "series.log_exp", _series_order),
    (series, "series_exp", "series.log_exp", _series_order),
    (series, "series_compose_val1", "series.compose", _series_order),
    (fixed_point, "solve_h", "fixed_point.solve_h", None),
    (fixed_point, "h_series", "fixed_point.h_series", None),
    (fixed_point, "f0_series", "fixed_point.f0_series", None),
    (rates, "rate_point", "rates.rate_point", None),
    (rates, "invert_slope", "rates.invert_slope", None),
    (rates, "cumulant", "rates.cumulant", None),
    (rates, "cumulant_deriv", "rates.cumulant_deriv", None),
    (rates, "mdp_constants", "rates.mdp_constants", None),
    (oracle, "build_kernel", "oracle.build_kernel", None),
    (oracle, "exact_An_distribution", "oracle.dp", _dp_flops),
    (oracle, "renewal_tail_table", "oracle.renewal", _renewal_convolutions),
    (oracle, "tau_pmf", "oracle.tau_pmf", None),
    (oracle, "return_prob_partial_sums", "oracle.return_probs", None),
    (montecarlo, "empirical_tail", "montecarlo.empirical_tail", _simulate),
    (montecarlo, "_block_histogram", "montecarlo.block", None),
    (verify, "run_suite", _suite_name, None),
    (cli, "main", "cli.main", None),
)
PHI_METHODS = ("phi", "phi_prime", "phi_second")

# Per-layer metrics of one pass: (name, unit).  Values read from outputs
# (clamp hits, deviations, failed checks) come from the workload checks.
LAYER_METRICS = (
    ("laws.phi.calls", "count"),
    ("laws.truncated_explicit.self_s", "s"),
    ("series.reciprocal.self_s", "s"),
    ("series.log_exp.self_s", "s"),
    ("series.compose.self_s", "s"),
    ("series.max_order", "count"),
    ("fixed_point.solve_h.calls", "count"),
    ("fixed_point.solve_h.self_s", "s"),
    ("fixed_point.h_series.self_s", "s"),
    ("fixed_point.f0_series.self_s", "s"),
    ("rates.rate_point.calls", "count"),
    ("rates.rate_point.self_s", "s"),
    ("rates.invert_slope.self_s", "s"),
    ("rates.cumulant.calls", "count"),
    ("rates.cumulant_deriv.calls", "count"),
    ("rates.mdp_constants.self_s", "s"),
    ("rates.solve_h_per_rate_point", "ratio"),
    ("rates.clamp_hits", "count"),
    ("oracle.build_kernel.self_s", "s"),
    ("oracle.dp.self_s", "s"),
    ("oracle.dp.flops_computed", "flop"),
    ("oracle.dp.gflops", "GFLOP/s"),
    ("oracle.renewal.self_s", "s"),
    ("oracle.renewal.convolutions", "count"),
    ("oracle.tau_pmf.self_s", "s"),
    ("oracle.return_probs.self_s", "s"),
    ("oracle.max_dev", "prob"),
    ("montecarlo.empirical_tail.self_s", "s"),
    ("montecarlo.block.calls", "count"),
    ("montecarlo.block.busy_s", "s"),
    ("montecarlo.parallel_eff", "ratio"),
    ("montecarlo.workers_effective", "count"),
    ("montecarlo.path_steps_per_s", "1/s"),
    ("montecarlo.max_dev_hw", "halfwidth"),
    ("montecarlo.clamp_warnings", "count"),
    *((f"verify.{suite}.s", "s") for suite in verify.SUITES),
    ("verify.checks_failed", "count"),
    ("cli.self_s", "s"),
    ("trace_overhead_frac", "ratio"),
)


class Tracer:
    """Context manager that installs the wrappers and collects spans."""

    def __init__(self):
        self.spans = []  # (id, name, start, end, parent, thread)
        self.counters = collections.Counter()
        self._ids = itertools.count()
        self._main = threading.get_ident()
        self._main_stack = []
        self._local = threading.local()
        self._patched = []
        self._done = []  # spans of finished passes
        self._phi_calls = [0]

    def _stack(self):
        if threading.get_ident() == self._main:
            return self._main_stack
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    def _wrap(self, fn, name, hook):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            # A worker thread's outermost span was caused by the span the
            # main thread has open (empirical_tail waiting on its pool).
            parents = stack or self._main_stack
            parent = parents[-1] if parents else None
            sid = next(self._ids)
            stack.append(sid)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                label = name if isinstance(name, str) else name(fn, args, kwargs)
                self.spans.append(
                    (sid, label, start, end, parent, threading.get_ident()))
            if hook is not None:
                hook(fn, self.counters, args, kwargs, result, end - start)
            return result
        return traced

    def _count(self, fn):
        box = self._phi_calls

        @functools.wraps(fn)
        def counted(law, s):  # phi(s), phi_prime(s), phi_second(s)
            box[0] += 1
            return fn(law, s)
        return counted

    def _patch(self, owner, key, value):
        self._patched.append((owner, key, getattr(owner, key)))
        setattr(owner, key, value)

    def __enter__(self):
        modules = [m for name, m in sys.modules.items()
                   if name == "recordwalk" or name.startswith("recordwalk.")]
        for module, attr, name, hook in SPANS:
            original = getattr(module, attr)
            wrapped = self._wrap(original, name, hook)
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is original:
                        self._patch(m, key, wrapped)
        for method in PHI_METHODS:
            self._patch(IncrementLaw, method,
                        self._count(getattr(IncrementLaw, method)))
        return self

    def __exit__(self, *exc_info):
        for owner, key, original in reversed(self._patched):
            setattr(owner, key, original)
        self._patched.clear()

    def take_pass(self):
        """Spans and counters recorded since the last call."""
        spans, counters = self.spans, collections.Counter(self.counters)
        counters["laws.phi.calls"] = self._phi_calls[0]
        self.spans = []
        self.counters.clear()
        self._phi_calls[0] = 0
        self._done.extend(spans)
        return spans, counters

    def write(self, path):
        """Write every span of the run as gzipped CSV."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", newline="") as fh:
            out = csv.writer(fh)
            out.writerow(("id", "name", "start", "end", "parent", "thread"))
            out.writerows(self._done)


def layer_metrics(spans, counters, observed):
    """Per-layer metrics of one pass from its spans, counters and the values
    its checks read from the outputs."""
    by_id = {s[0]: s for s in spans}
    child_s = collections.defaultdict(float)
    for sid, _, start, end, parent, thread in spans:
        p = by_id.get(parent)
        if p is not None and p[5] == thread:  # same-thread children only
            child_s[parent] += end - start
    calls = collections.Counter()
    total = collections.defaultdict(float)
    self_s = collections.defaultdict(float)
    for sid, name, start, end, _, _ in spans:
        calls[name] += 1
        total[name] += end - start
        self_s[name] += end - start - child_s[sid]

    def under(span, name):
        while span[4] is not None:
            span = by_id[span[4]]
            if span[1] == name:
                return True
        return False

    solve_h_in_rate_point = sum(
        1 for s in spans if s[1] == "fixed_point.solve_h" and under(s, "rates.rate_point"))
    block_threads = collections.defaultdict(set)
    for s in spans:
        if s[1] == "montecarlo.block":
            block_threads[s[4]].add(s[5])
    simulate_s = total["montecarlo.empirical_tail"]
    dp_s = self_s["oracle.dp"]

    def ratio(a, b):
        return a / b if b else 0.0

    values = {
        "laws.phi.calls": counters["laws.phi.calls"],
        "series.max_order": counters["series.max_order"],
        "rates.solve_h_per_rate_point": ratio(solve_h_in_rate_point,
                                              calls["rates.rate_point"]),
        "oracle.dp.flops_computed": counters["oracle.dp.flops_computed"],
        "oracle.dp.gflops": ratio(counters["oracle.dp.flops_computed"], dp_s) / 1e9,
        "oracle.renewal.convolutions": counters["oracle.renewal.convolutions"],
        "montecarlo.block.calls": calls["montecarlo.block"],
        "montecarlo.block.busy_s": total["montecarlo.block"],
        "montecarlo.parallel_eff": ratio(total["montecarlo.block"],
                                         counters["montecarlo.worker_capacity_s"]),
        "montecarlo.workers_effective": ratio(
            sum(len(t) for t in block_threads.values()), len(block_threads)),
        "montecarlo.path_steps_per_s": ratio(counters["montecarlo.path_steps"],
                                             simulate_s),
        "cli.self_s": self_s["cli.main"],
    }
    for metric, _ in LAYER_METRICS:
        if metric in values or metric in observed:
            continue
        layer, _, stat = metric.rpartition(".")
        if stat == "calls":
            values[metric] = calls[layer]
        elif stat == "self_s":
            values[metric] = self_s[layer]
        elif stat == "s":
            values[metric] = total[layer]
        else:
            values[metric] = 0.0  # read from outputs; absent on this workload
    values.update(observed)
    return values
