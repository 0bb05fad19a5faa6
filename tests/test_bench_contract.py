"""The names the benchmark's tracer and workloads read from the package.

bench/tracing.py wraps package functions by name (its SPANS), counts the
IncrementLaw phi methods, and its hooks read arguments by name
(kernel.matrix, config, suite); bench/workloads.py drives the CLI and
checks its outputs.  A rename or removal in the package breaks the traced
benchmark run, so one traced pass of every workload runs here, at the
workloads' small scale.  bench/run.py is not imported: it sets BLAS
thread variables on import.
"""

import importlib.util
import math
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "bench"


def _load(name):
    """bench/<name>.py as module bench_<name>, registered so that its
    dataclasses resolve their module."""
    spec = importlib.util.spec_from_file_location(f"bench_{name}",
                                                  BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


tracing, workloads = _load("tracing"), _load("workloads")


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_traced_pass_meets_every_check(name):
    # "tiny" is any scale but "full": the workloads' small operation lists
    workload = workloads.WORKLOADS[name](1, "tiny")
    workload.warm_up()
    workload.prepare()
    with tracing.Tracer() as tracer:
        results = [workloads.run_op(op) for op in workload.ops]
        spans, counters = tracer.take_pass()
    verdicts, observed = workload.check(results)
    assert verdicts == [None] * len(results), [
        (" ".join(r.op.argv), v) for r, v in zip(results, verdicts) if v]
    metrics = tracing.layer_metrics(spans, counters, observed)
    # run.py measures trace_overhead_frac itself, from whole passes
    names = {m for m, _ in tracing.LAYER_METRICS} - {"trace_overhead_frac"}
    assert names <= metrics.keys()
    assert all(math.isfinite(metrics[m]) for m in names)
    assert spans
