"""The float form of the rate curve against its array form: IncrementLaw.gaps
and rates._curve on Python floats take math and plain branches, on arrays
numpy, and the two agree to a few ulps on every bundled law."""

import math
from importlib import resources

import numpy as np
import pytest

from recordwalk import IncrementLaw, bundled_law_path, rates
from recordwalk.fixed_point import _log, _logistic_hw

BUNDLED_LAWS = sorted(
    f.name for f in resources.files("recordwalk.data").iterdir()
    if f.name.endswith(".json")
)

# fixed before the grid was first run; the largest gap read is 9.6e-16
# (stable chi), and a float formula scaled by 1 + 4e-15 fails it
REL_BOUND = 4e-15

# u = log(h/w) in steps of 0.05 over [-740, 740], so h and w run down to
# e^-740, far into the subnormals, plus the stable family's branch points
# h = 1/4 (chi) and h = 1/2 (log w) and the smallest normal h, each with
# its neighbouring doubles
_EDGES = [math.log(1.0 / 3.0), 0.0, math.log(np.finfo(float).tiny)]
U_GRID = sorted({*np.linspace(-740.0, 740.0, 29601).tolist(),
                 *(np.nextafter(u, d) for u in _EDGES for d in (-1e3, 1e3)),
                 *_EDGES})


@pytest.fixture(params=BUNDLED_LAWS)
def law(request):
    return IncrementLaw.from_json(bundled_law_path(request.param).read_text())


def _agree(floats, arrays, what):
    """Each float equals its array twin within REL_BOUND, and the non-finite
    patterns are the same; every float is a Python float."""
    for name, f, a in zip(what, floats, arrays):
        assert all(v.__class__ is float for v in f), name
        f = np.array(f)
        assert np.array_equal(np.isnan(f), np.isnan(a)), name
        assert np.array_equal(np.isinf(f) * np.sign(f),
                              np.isinf(a) * np.sign(a)), name
        ok = np.isfinite(a)
        gap = np.abs(f[ok] - a[ok])
        bad = gap > REL_BOUND * np.abs(a[ok])
        assert not bad.any(), (name, np.flatnonzero(ok)[bad][:5],
                               float(np.max(gap[bad] / np.abs(a[ok][bad]))))


def test_float_form_agrees_with_array_form(law):
    hw = [_logistic_hw(u) for u in U_GRID]
    h = np.array([p[0] for p in hw])
    w = np.array([p[1] for p in hw])
    assert h.min() < np.finfo(float).tiny and w.min() < np.finfo(float).tiny
    assert h.min() > 0.0 and w.min() > 0.0
    gaps = list(zip(*(law.gaps(*p) for p in hw)))
    _agree(gaps, law.gaps(h, w), ("D/w", "D'", "psi", "chi"))
    curve = list(zip(*(rates._curve(law, *p) for p in hw)))
    _agree(curve, rates._curve(law, h, w), ("lambda", "Lambda", "excess"))


def test_exact_zero_w_takes_the_array_form(law):
    # w = 0 (u > 744, at the end of the root search's bracket), where
    # math.log raises: the array form, with its log(0) = -inf
    with np.errstate(divide="ignore", invalid="ignore"):
        floats = law.gaps(1.0, 0.0)
        arrays = law.gaps(np.array([1.0]), np.array([0.0]))
    for f, a in zip(floats, arrays):
        assert np.array_equal(f, a[0], equal_nan=True)


@pytest.mark.parametrize("x, want", [(2.0, math.log(2.0)), (math.inf, math.inf),
                                     (0.0, -math.inf), (-0.0, -math.inf),
                                     (-1.0, math.nan), (math.nan, math.nan)])
def test_log_takes_floats_as_numpy_does(x, want):
    with np.errstate(divide="ignore", invalid="ignore"):
        assert float(np.log(x)) == want or math.isnan(want)
    got = _log(x)
    assert got.__class__ is float
    assert got == want or (math.isnan(got) and math.isnan(want))
