"""Array inputs of solve_h and cumulant against the scalar calls they
vectorise, on every bundled law."""

import math
from importlib import resources

import numpy as np
import pytest

from recordwalk import (
    IncrementLaw,
    bundled_law_path,
    cumulant,
    legendre,
    run_suite,
    solve_h,
)
from recordwalk import cumulant_deriv, fixed_point
from recordwalk.fixed_point import U_MAX, ConvergenceError, _logistic_hw

BUNDLED_LAWS = sorted(
    f.name for f in resources.files("recordwalk.data").iterdir()
    if f.name.endswith(".json")
)

# 0 and 1, a dense grid, points close to 1, and s = 0.8, whose root on sym
# is h = 1/2, at u = log(h/w) = 0
S_POINTS = np.concatenate([
    [0.0, 1e-300, 1e-12, 1e-6, 1.0 - 1e-6 - 1e-9, 1.0 - 1e-6,
     1.0 - 1e-6 + 1e-9, 0.8, 1.0 - 1e-8, 1.0 - 1e-12, 1.0],
    np.linspace(0.0, 1.0, 301),
    1.0 - np.logspace(-11, -1, 41),
])

# Deep asymptote (lambda <= -700), e^lambda <= 1/2, and e^lambda > 1/2
LAM_DEEP = [-1e4, -745.0, -700.5, -700.0]
LAM_SERIES = [-699.5, -40.0, -5.0, -1.0, -0.7, math.log(0.5)]
LAM_CLOSED = [-0.69, -0.5, -0.1, -1e-3, -1e-6, -1e-8, -1e-12]


@pytest.fixture(params=BUNDLED_LAWS)
def law(request):
    return IncrementLaw.from_json(bundled_law_path(request.param).read_text())


def test_solve_h_array_bit_equal_to_scalar(law):
    h = solve_h(law, S_POINTS)
    assert h.shape == S_POINTS.shape
    expected = np.array([solve_h(law, float(s)) for s in S_POINTS])
    np.testing.assert_array_equal(h, expected)


def test_solve_h_array_keeps_shape(law):
    s = S_POINTS[:12].reshape(3, 4)
    np.testing.assert_array_equal(solve_h(law, s),
                                  solve_h(law, s.ravel()).reshape(3, 4))


@pytest.mark.parametrize("bad", [1.5, -1e-300, math.nan])
def test_solve_h_array_rejects_point_outside_unit_interval(law, bad):
    with pytest.raises(ValueError):
        solve_h(law, np.array([0.2, bad, 0.7]))


def test_residual_check_applies_to_scalar_and_array(law, monkeypatch):
    monkeypatch.setattr(fixed_point, "RESIDUAL_TOL", -1.0)
    with pytest.raises(ConvergenceError):
        solve_h(law, 0.5)
    with pytest.raises(ConvergenceError):
        solve_h(law, np.array([0.5]))
    with pytest.raises(ConvergenceError):
        solve_h(law, np.array([0.0, 1.0 - 1e-9, 1.0]))


def test_cumulant_array_matches_scalar_in_each_branch(law):
    assert max(LAM_DEEP) <= -700.0 < min(LAM_SERIES)
    assert math.exp(min(LAM_CLOSED)) > 0.5
    assert math.exp(max(LAM_SERIES)) <= 0.5
    for lams in (LAM_DEEP, LAM_SERIES, LAM_CLOSED):
        lam = np.array(lams)
        expected = np.array([cumulant(law, float(v)) for v in lam])
        np.testing.assert_allclose(cumulant(law, lam), expected, rtol=0,
                                   atol=1e-11)


def test_cumulant_array_rejects_nonnegative_lambda(law):
    with pytest.raises(ValueError):
        cumulant(law, np.array([-1.0, 0.0]))


def test_legendre_suite_unchanged_by_the_array_sweep(law):
    # The suite's grid, evaluated one scalar call at a time
    lam_vals = -np.exp(np.linspace(math.log(1e-8), math.log(40.0), 20001))
    lam_scalar = np.array([cumulant(law, float(v)) for v in lam_vals])
    assert np.max(np.abs(cumulant(law, lam_vals) - lam_scalar)) <= 1e-11
    max_dev = max(
        abs(legendre(law, x) - float(np.max(x * lam_vals - lam_scalar)))
        for x in (1.01, 1.1, 1.5, 2.0, 3.0, 5.0, 10.0, 20.0)
    )
    observed = run_suite(law, "legendre").checks[0].observed
    assert abs(observed - max_dev) <= 1e-15


def _bisect_every_element(f, n):
    """_bisect_logit_array without the skip: ITP on every element on every
    step, until the slowest one is done.  A closed bracket stays closed, as
    its next point is its mid, an end."""
    lo, hi = np.full(n, -U_MAX), np.full(n, U_MAX)
    ylo, yhi = np.full(n, np.nan), np.full(n, np.nan)
    mid, every, j = 0.5 * (lo + hi), np.arange(n), 0
    with np.errstate(divide="ignore", invalid="ignore"):
        while ((lo < mid) & (mid < hi)).any():
            width = hi - lo
            # regula falsi, truncated towards mid, projected near mid
            xf = (yhi * lo - ylo * hi) / (yhi - ylo)
            delta = np.maximum(0.2 / (2.0 * U_MAX) * width * width,
                               np.spacing(np.maximum(abs(lo), abs(hi))))
            xt = np.where(delta <= abs(mid - xf),
                          xf + np.copysign(delta, mid - xf), mid)
            r = 2.0 * U_MAX * np.exp2(-j) - width / 2.0
            x = np.where(abs(xt - mid) <= r, xt,
                         mid - np.copysign(r, mid - xf))
            x = np.where(np.isfinite(ylo) & np.isfinite(yhi) & (lo < x)
                         & (x < hi), x, mid)
            y = f(*_logistic_hw(x), every)
            up = y < 0.0
            lo, ylo = np.where(up, x, lo), np.where(up, y, ylo)
            hi, yhi = np.where(up, hi, x), np.where(up, yhi, y)
            mid, j = 0.5 * (lo + hi), j + 1
    return _logistic_hw(mid)


@pytest.mark.parametrize("name", ["asym.json", "stable_g05_b05_left.json"])
def test_bisection_skips_closed_brackets_bit_for_bit(name, monkeypatch):
    law = IncrementLaw.from_json(bundled_law_path(name).read_text())
    lam = -np.exp(np.linspace(math.log(1e-8), math.log(40.0), 20001))
    evaluated = []
    real = fixed_point._bisect_logit_array

    def counting(f, n):
        def f_counted(h, w, i):
            evaluated.append(len(i))
            return f(h, w, i)
        return real(f_counted, n)

    monkeypatch.setattr(fixed_point, "_bisect_logit_array", counting)
    got = cumulant(law, lam), cumulant_deriv(law, lam)
    monkeypatch.setattr(fixed_point, "_bisect_logit_array",
                        _bisect_every_element)
    ref = cumulant(law, lam), cumulant_deriv(law, lam)
    for a, b in zip(got, ref):
        np.testing.assert_array_equal(a, b)
    # two sweeps; elements need 9-75 steps, 11-12 on the median, so the
    # skip evaluates about a sixth (0.15-0.16) of the every-element steps
    assert sum(evaluated) < 0.25 * len(evaluated) * lam.size
