"""The solver in u = log(h/w) behind solve_hw and rate_point: its count of
evaluations against plain bisection, and no floating-point warning where
its log forms meet log(0) near the bracket ends."""

import math
import warnings

import numpy as np
import pytest

from recordwalk import cumulant, cumulant_deriv, rate_point, run_suite
from recordwalk import fixed_point, rates
from recordwalk.fixed_point import U_MAX, _logistic_hw, solve_hw
from support import BUNDLED_LAWS, bundled_law

# five record densities per decade of [1e-12, 1], as rate queries draw
# them, and the two extremes
X_REC = [*10.0 ** np.linspace(-12.0, 0.0, 61)[:-1], 1e-300, 1.0 - 2.0**-52]
S = [1e-300, 1e-6, 0.5, *(1.0 - 10.0**-k for k in range(2, 16))]
# lambda at -1e-8, just below it, just above -40, and at -40
LAM_ENDS = [float(v) for v in -np.exp(np.linspace(
    math.log(1e-8), math.log(40.0), 20001)[[0, 1, -2, -1]])]


def _bisection_steps(f, target):
    """Evaluations of plain bisection in u on f, to adjacent doubles."""
    lo, hi, steps = -U_MAX, U_MAX, 0
    with np.errstate(divide="ignore", invalid="ignore"):
        while lo < (mid := 0.5 * (lo + hi)) < hi:
            steps += 1
            if float(f(*_logistic_hw(mid))) < target:
                lo = mid
            else:
                hi = mid
    return steps


@pytest.mark.parametrize("name", BUNDLED_LAWS)
def test_no_more_evaluations_than_bisection(name, monkeypatch):
    law = bundled_law(name)
    counts = []  # (evaluations, bisection's evaluations) per call
    real = fixed_point.bisect_logit

    def counting(f, target):
        calls = 0

        def f_counted(h, w):
            nonlocal calls
            calls += 1
            return f(h, w)

        out = real(f_counted, target)
        counts.append((calls, _bisection_steps(f, target)))
        return out

    monkeypatch.setattr(fixed_point, "bisect_logit", counting)
    monkeypatch.setattr(rates, "bisect_logit", counting)
    for x_rec in X_REC:
        rate_point(law, x_rec)
    for s in S:
        solve_hw(law, s)
    assert len(counts) == len(X_REC) + len(S)
    for (used, bisection), arg in zip(counts, X_REC + S):
        assert used <= bisection, arg
    # measured: 10.5-12.0 per rate_point and 10.7-11.8 per solve_hw,
    # against 58-60 for bisection
    assert np.mean([used for used, _ in counts]) <= 16.0


@pytest.mark.parametrize("name", BUNDLED_LAWS)
def test_no_warning_at_the_ends(name):
    law = bundled_law(name)
    s = [0.0, 1e-300, 1e-6, 0.5, 1.0 - 1e-15, 1.0 - 2.0**-53, 1.0]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for x_rec in (1e-300, 1e-12, 0.5, 1.0 - 2.0**-52, 1.0):
            rate_point(law, x_rec)
        for v in s:
            solve_hw(law, v)
        for v in LAM_ENDS:
            cumulant(law, v)
            cumulant_deriv(law, v)
        run_suite(law, "legendre")
