"""Minimal fixed point h(s) of x = s*phi(x): scalar solves, derivatives,
series expansions, and the limit checks."""

import functools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from recordwalk import (
    IncrementLaw,
    bundled_law_path,
    f0_series,
    h_series,
    run_suite,
    solve_h,
    truncated_explicit,
)
from recordwalk.fixed_point import one_minus_s_phi_prime_h

SYM = IncrementLaw.explicit("right", 0.5, [0.0, 0.5])
SYM_LEFT = IncrementLaw.explicit("left", 0.5, [0.0, 0.5])
ASYM = IncrementLaw.explicit("right", 0.4, [0.35, 0.1, 0.15])
STABLE = IncrementLaw.stable("right", 0.5, 0.5)

ALL_LAWS = [SYM, SYM_LEFT, ASYM, STABLE]
BUNDLED = ["sym.json", "sym_left.json", "asym.json", "stable_g05_b05.json",
           "stable_g05_b05_left.json"]


def bundled_law(name):
    return IncrementLaw.from_json(bundled_law_path(name).read_text())


@functools.cache
def _longest_h_series(name):
    return h_series(bundled_law(name), 10001).coeffs


def sym_h_closed(s):
    """For the symmetric walk x = s(1+x^2)/2 gives h = (1-sqrt(1-s^2))/s."""
    return (1.0 - math.sqrt((1.0 - s) * (1.0 + s))) / s


class TestSolveH:
    def test_symmetric_closed_form(self):
        for s in (0.1, 0.3, 0.6, 0.9, 0.99):
            assert solve_h(SYM, s) == pytest.approx(sym_h_closed(s), abs=1e-13)
        # the root is nearly double there; conditioning costs ~1e-12
        s = 1.0 - 1e-9
        assert solve_h(SYM, s) == pytest.approx(sym_h_closed(s), abs=1e-11)

    def test_rational_point(self):
        assert solve_h(SYM, 0.6) == pytest.approx(1.0 / 3.0, abs=1e-15)

    def test_root_at_u_zero(self):
        # h = w = 1/2: the bisection in u = log(h/w) starts on the root
        assert abs(solve_h(SYM, 0.8) - 0.5) <= 1e-16

    def test_endpoints(self):
        assert solve_h(SYM, 0.0) == 0.0
        assert solve_h(SYM, 1.0) == 1.0

    def test_domain(self):
        with pytest.raises(ValueError):
            solve_h(SYM, -0.1)
        with pytest.raises(ValueError):
            solve_h(SYM, 1.1)

    @pytest.mark.parametrize("law", ALL_LAWS)
    def test_residual_small_everywhere(self, law):
        for s in np.linspace(1e-6, 1.0 - 1e-10, 200):
            h = solve_h(law, float(s))
            assert abs(s * law.phi(h) - h) <= 1e-13


def h_deriv(law, s):
    """h'(s) = phi(h)/(1 - s*phi'(h)), from differentiating h = s*phi(h)."""
    return law.phi(solve_h(law, s)) / one_minus_s_phi_prime_h(law, s)


class TestHDeriv:
    def test_symmetric_value(self):
        assert h_deriv(SYM, 0.6) == pytest.approx(25.0 / 36.0, abs=1e-12)

    def test_finite_differences(self):
        for law in ALL_LAWS:
            s, d = 0.7, 1e-6
            fd = (solve_h(law, s + d) - solve_h(law, s - d)) / (2 * d)
            assert h_deriv(law, s) == pytest.approx(fd, rel=1e-7)

    def test_blows_up_near_one(self):
        # h'(s) ~ 1/sqrt(2 sigma^2 (1-s)) diverges at the critical point
        assert h_deriv(SYM, 1.0 - 1e-10) > 1e4


class TestHSeries:
    def test_symmetric_coefficients(self):
        # (1 - sqrt(1 - s^2))/s has odd coefficients 1/2, 1/8, 1/16, 5/128
        c = h_series(SYM, 7).coeffs
        assert np.allclose(
            c, [0.0, 0.5, 0.0, 0.125, 0.0, 0.0625, 0.0, 0.0390625], atol=1e-15
        )

    @pytest.mark.parametrize("law", ALL_LAWS)
    def test_matches_scalar_solve(self, law):
        poly = h_series(law, 80)
        for s in (0.1, 0.25, 0.4):
            assert poly(s) == pytest.approx(solve_h(law, s), abs=1e-13)

    def test_stable_path_matches_truncated_generic(self):
        trunc, _ = truncated_explicit(STABLE, 4000)
        fast = h_series(STABLE, 30).coeffs
        generic = h_series(trunc, 30).coeffs
        # the truncated surrogate differs from the exact law only through
        # its tiny q adjustment
        assert np.max(np.abs(fast - generic)) <= 1e-5

    def test_order_check(self):
        with pytest.raises(ValueError):
            h_series(SYM, 0)

    @pytest.mark.parametrize("order", [1, 2, 3, 4, 5, 8, 9, 16, 17, 4097,
                                       10001])
    @pytest.mark.parametrize("name", BUNDLED)
    def test_ladder_prefix_of_the_longest(self, name, order):
        # Each order takes its own precision ladder, order >> k, so its
        # coefficients are rounded along another path than order 10001's,
        # except on the rungs the two share (1, 2, 4, 9, ...).  Explicit
        # laws sum nonnegative terms: 4.1e-15 measured.  The stable laws'
        # log and exp of W = 1 - H cancel, and both orders are about
        # 1.1e-13 off a long-double Newton run at 4097, so they differ by
        # 9.0e-14 there.  An exact zero stays exactly zero.
        law = bundled_law(name)
        ref = _longest_h_series(name)[: order + 1]
        got = h_series(law, order).coeffs
        assert len(got) == order + 1
        assert np.array_equal(got == 0.0, ref == 0.0)
        nz = ref != 0.0
        tol = 2e-13 if law.is_stable else 1e-14
        assert np.max(np.abs(got[nz] - ref[nz]) / ref[nz]) <= tol
        if name.startswith("sym"):  # h(s) is odd in s
            assert np.all(got[::2] == 0.0)


class TestF0Series:
    def test_symmetric_right(self):
        c = f0_series(SYM, 8).coeffs
        assert np.allclose(
            c, [0.0, 0.5, 0.25, 0.0, 0.0625, 0.0, 0.03125, 0.0, 0.01953125],
            atol=1e-15,
        )

    def test_orientations_agree_for_symmetric_walk(self):
        right = f0_series(SYM, 40).coeffs
        left = f0_series(SYM_LEFT, 40).coeffs
        assert np.max(np.abs(right - left)) <= 1e-14

    @pytest.mark.parametrize("law", ALL_LAWS)
    def test_proper_pmf(self, law):
        c = f0_series(law, 200).coeffs
        assert np.all(c >= -1e-12)
        assert c[0] == 0.0
        assert np.all(np.cumsum(c) <= 1.0 + 1e-12)

    @pytest.mark.parametrize("law", ALL_LAWS)
    def test_mass_is_one_in_the_limit(self, law):
        # tau is a.s. finite under criticality, so coefficients sum to 1
        total = f0_series(law, 4000).coeffs.sum()
        assert 0.97 <= total <= 1.0 + 1e-12


@pytest.mark.parametrize("law", ALL_LAWS)
def test_h_limit_checks_converge(law):
    report = run_suite(law, "h-limits")
    assert len(report.checks) == 3
    assert all(c.passed for c in report.checks)


@given(st.floats(min_value=1e-6, max_value=1.0 - 1e-9))
@settings(max_examples=150, deadline=None)
def test_fixed_point_properties(s):
    h = solve_h(ASYM, s)
    assert 0.0 < h < 1.0
    assert abs(s * ASYM.phi(h) - h) <= 1e-13
    # h is the minimal root: anything strictly below keeps s*phi(x) > x
    x = 0.5 * h
    assert s * ASYM.phi(x) > x
