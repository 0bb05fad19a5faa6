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
    f0_series,
    h_series,
    run_suite,
    solve_h,
    tau_pmf,
    truncated_explicit,
)
from recordwalk import fixed_point
from recordwalk.fixed_point import (BLOCK, ConvergenceError, _log,
                                    one_minus_s_phi_prime_h)
from recordwalk.series import series_eval
from support import (ALL_LAWS, ASYM, ASYM_LEFT, BUNDLED_LAWS, EDGE_LAWS,
                     JUMP_9, JUMP_9_LEFT, LAZY, LAZY_LEFT, LONG_JUMP,
                     LONG_JUMP_LEFT, STABLE, STABLE_EDGE_LAWS, STABLE_LEFT,
                     SYM, SYM_LEFT, bundled_law, f0_reference, h_reference)

LAWS = [SYM, SYM_LEFT, ASYM, STABLE]


@functools.cache
def _longest_h_series(name):
    return h_series(bundled_law(name), 10001)


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

    @pytest.mark.parametrize("name", BUNDLED_LAWS)
    def test_residual_check_raises(self, name, monkeypatch):
        law = bundled_law(name)
        monkeypatch.setattr(fixed_point, "RESIDUAL_TOL", -1.0)
        for s in (0.5, 1.0 - 1e-9):
            with pytest.raises(ConvergenceError):
                solve_h(law, s)

    @pytest.mark.parametrize("law", LAWS)
    def test_residual_small_everywhere(self, law):
        for s in np.linspace(1e-6, 1.0 - 1e-10, 200):
            h = solve_h(law, float(s))
            assert abs(s * law.phi(h) - h) <= 1e-13


@pytest.mark.parametrize("bad", [1.5, -1e-300, math.nan])
@pytest.mark.parametrize("name", BUNDLED_LAWS)
def test_solve_h_array_rejects_point_outside_unit_interval(name, bad):
    # a grid of s values swept through solve_h, one float at a time
    law = bundled_law(name)
    with pytest.raises(ValueError):
        [solve_h(law, s) for s in np.array([0.2, bad, 0.7])]


def h_deriv(law, s):
    """h'(s) = phi(h)/(1 - s*phi'(h)), from differentiating h = s*phi(h)."""
    return law.phi(solve_h(law, s)) / one_minus_s_phi_prime_h(law, s)


class TestHDeriv:
    def test_symmetric_value(self):
        assert h_deriv(SYM, 0.6) == pytest.approx(25.0 / 36.0, abs=1e-12)

    def test_finite_differences(self):
        for law in LAWS:
            s, d = 0.7, 1e-6
            fd = (solve_h(law, s + d) - solve_h(law, s - d)) / (2 * d)
            assert h_deriv(law, s) == pytest.approx(fd, rel=1e-7)

    def test_blows_up_near_one(self):
        # h'(s) ~ 1/sqrt(2 sigma^2 (1-s)) diverges at the critical point
        assert h_deriv(SYM, 1.0 - 1e-10) > 1e4


class TestHSeries:
    def test_symmetric_coefficients(self):
        # (1 - sqrt(1 - s^2))/s has odd coefficients 1/2, 1/8, 1/16, 5/128
        c = h_series(SYM, 7)
        assert np.allclose(
            c, [0.0, 0.5, 0.0, 0.125, 0.0, 0.0625, 0.0, 0.0390625], atol=1e-15
        )

    @pytest.mark.parametrize("law", LAWS)
    def test_matches_scalar_solve(self, law):
        h = h_series(law, 80)
        for s in (0.1, 0.25, 0.4):
            assert series_eval(h, s) == pytest.approx(solve_h(law, s),
                                                     abs=1e-13)

    def test_stable_path_matches_truncated_generic(self):
        trunc, _ = truncated_explicit(STABLE, 4000)
        fast = h_series(STABLE, 30)
        generic = h_series(trunc, 30)
        # the truncated surrogate differs from the exact law only through
        # its tiny q adjustment
        assert np.max(np.abs(fast - generic)) <= 1e-5

    def test_order_check(self):
        with pytest.raises(ValueError):
            h_series(SYM, 0)

    @pytest.mark.parametrize("order", [1, 2, 3, 4, 5, 8, 9, 16, 17, 132,
                                       135, 137, 138, 260, 263, 517, 1033,
                                       4097, 10001])
    @pytest.mark.parametrize("name", BUNDLED_LAWS)
    def test_ladder_prefix_of_the_longest(self, name, order):
        # Every order solves the same whole blocks of BLOCK coefficients,
        # the first by Lagrange inversion, and is cut only when returned:
        # a lower order is bitwise a prefix of order 10001, on the stable
        # laws as on the explicit ones.  An exact zero stays exactly zero.
        # Orders 132 to 1033 end in a block of 5 to 11 coefficients, where
        # np.convolve sums a product of factors that short in another order.
        law = bundled_law(name)
        ref = _longest_h_series(name)[: order + 1]
        got = h_series(law, order)
        assert len(got) == order + 1
        assert np.array_equal(got, ref)
        if name.startswith("sym"):  # h(s) is odd in s
            assert np.all(got[::2] == 0.0)


@pytest.mark.parametrize("law", ALL_LAWS + EDGE_LAWS)
def test_every_order_near_a_block_start_is_a_prefix(law):
    # the last block of 1 to 13 coefficients, at four block starts
    ref = h_series(law, 700)
    for c in (BLOCK, 2 * BLOCK, 4 * BLOCK, 5 * BLOCK):
        for order in range(c, c + 13):
            got = h_series(law, order)
            assert np.array_equal(got, ref[: order + 1]), order


# every jump of 0 to 8 levels equally likely: a dense support, which takes
# the Paterson-Stockmeyer plan of products where the bundled laws take powers
DENSE_9 = IncrementLaw.explicit("right", 0.8, [1.0 / 45.0] * 9)

# Relative error of h_series against the long-double recurrence
# (support.h_reference) at order 2000, each law's bound twice what the
# Newton ladder that h_series replaced read there, and at least 2e-15.  The
# stable law gamma = 0.98, beta = 0.03 read 3.0e-11 through the ladder's log
# and exp of W = 1 - H; its bound is 1e-12 rather than 6.0e-11.
LADDER_ERRORS = [
    ("sym", SYM, 7.1e-16), ("sym_left", SYM_LEFT, 7.1e-16),
    ("asym", ASYM, 2.9e-15), ("stable", STABLE, 6.0e-14),
    ("stable_left", STABLE_LEFT, 6.0e-14),
    *((f"stable_{law.orientation.value}_{law.gamma}_{law.beta}", law, err)
      for law, err in zip(STABLE_EDGE_LAWS, 2 * [6.4e-14, 8.8e-14, 3.0e-11,
                                                  8.2e-14])),
    ("lazy", LAZY, 6.7e-14), ("lazy_left", LAZY_LEFT, 6.7e-14),
    ("long_jump", LONG_JUMP, 1.1e-14),
    ("long_jump_left", LONG_JUMP_LEFT, 1.1e-14),
    ("jump_9", JUMP_9, 2.8e-14), ("jump_9_left", JUMP_9_LEFT, 2.8e-14),
    ("dense_9", DENSE_9, 2.6e-14),
]
LONG_DOUBLE = np.finfo(np.longdouble).eps < 1e-18


def _check_against_reference(law, ladder, order):
    ref = h_reference(law, 2000)[: order + 1]
    got = h_series(law, order)
    assert np.array_equal(got == 0.0, ref == 0.0)  # exact zeros stay zero
    nz = ref != 0.0
    err = float(np.max(np.abs(got[nz] - ref[nz]) / ref[nz]))
    assert err <= min(max(2.0 * ladder, 2e-15), 1e-12), err


@pytest.mark.skipif(not LONG_DOUBLE,
                    reason="long double is no wider than double here")
@pytest.mark.parametrize("name, law, ladder", LADDER_ERRORS,
                         ids=[case[0] for case in LADDER_ERRORS])
def test_h_series_against_long_double(name, law, ladder):
    # read: sym 6.3e-16, asym 2.1e-15, stable 2.8e-14; stable edges
    # 1.5e-14 (0.02, 0.03), 3.9e-14 (0.02, 0.97), 2.0e-13 (0.98, 0.03),
    # 4.6e-14 (0.98, 0.97); lazy 1.5e-14, long jump 6.3e-15, dense 9
    # 1.7e-14, jump 9 5.3e-14 (the first block's Lagrange sums carry
    # 3.4e-15 there, twice the ladder's, and later blocks grow it with the
    # order as the ladder grew its own)
    _check_against_reference(law, ladder, 2000)


@pytest.mark.skipif(not LONG_DOUBLE,
                    reason="long double is no wider than double here")
@pytest.mark.parametrize("name, law, ladder", LADDER_ERRORS,
                         ids=[case[0] for case in LADDER_ERRORS])
def test_h_series_block_edges_long_double(name, law, ladder):
    # orders at the block edges, from the first block alone to one
    # coefficient into the third; sym's even coefficients and jump 9's off
    # the orders 1 mod 10 are exactly zero
    for order in (1, 2, BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK - 1,
                  2 * BLOCK, 2 * BLOCK + 1):
        _check_against_reference(law, ladder, order)


# f0 = s*sum_j c_j h^j, c = (q + p_0, p_1, ...), of the explicit right laws,
# against support.f0_reference at order 2000.  Bounds fixed before the first
# run: twice a prototype's reading, and at least 2e-15.  Through the
# subtraction 1 + q s - q s/h these laws read sym 3.2e-15, asym 6.2e-15,
# lazy 1.2e-11, long jump 9.4e-15 with 42 nonzero coefficients where f0 is
# exactly zero, and jump 9 5.4e-14
F0_RIGHT_BOUNDS = [("sym", SYM, 2e-15), ("asym", ASYM, 4.0e-15),
                   ("lazy", LAZY, 3.0e-14), ("long_jump", LONG_JUMP, 1.04e-14),
                   ("jump_9", JUMP_9, 1.06e-13)]


@pytest.mark.skipif(not LONG_DOUBLE,
                    reason="long double is no wider than double here")
@pytest.mark.parametrize("name, law, tol", F0_RIGHT_BOUNDS,
                         ids=[case[0] for case in F0_RIGHT_BOUNDS])
def test_f0_series_of_right_laws_against_long_double(name, law, tol):
    # read: sym 6.3e-16, asym 1.9e-15, lazy 1.5e-14, long jump 4.8e-15,
    # jump 9 5.3e-14
    _check_f0_against_long_double(law, tol)


def _check_f0_against_long_double(law, tol):
    ref = f0_reference(law, 2000)
    got = f0_series(law, 2000)
    assert np.array_equal(got == 0.0, ref == 0.0)  # exact zeros stay zero
    nz = ref != 0.0
    err = float(np.max(np.abs(got[nz] - ref[nz]) / ref[nz]))
    assert err <= tol, err


# f0 = s*sum_j T_j h^j of the explicit left laws, composed from their jump
# tails, by the same rule: twice the reading before the composition shared
# _ExplicitPhi's plan of products (sym left 6.3e-16, asym left 2.0e-15,
# lazy left 1.5e-14, long jump left 5.1e-15, jump 9 left 5.3e-14), and at
# least 2e-15
F0_LEFT_BOUNDS = [("sym_left", SYM_LEFT, 2e-15),
                  ("asym_left", ASYM_LEFT, 4.0e-15),
                  ("lazy_left", LAZY_LEFT, 3.0e-14),
                  ("long_jump_left", LONG_JUMP_LEFT, 1.02e-14),
                  ("jump_9_left", JUMP_9_LEFT, 1.06e-13)]


@pytest.mark.skipif(not LONG_DOUBLE,
                    reason="long double is no wider than double here")
@pytest.mark.parametrize("name, law, tol", F0_LEFT_BOUNDS,
                         ids=[case[0] for case in F0_LEFT_BOUNDS])
def test_f0_series_of_left_laws_against_long_double(name, law, tol):
    _check_f0_against_long_double(law, tol)


class TestF0Series:
    @pytest.mark.parametrize("law", ALL_LAWS)
    @pytest.mark.parametrize("order", [0, -1])
    def test_order_check(self, law, order):
        with pytest.raises(ValueError, match="^order must be >= 1$"):
            f0_series(law, order)

    def test_symmetric_right(self):
        c = f0_series(SYM, 8)
        assert np.allclose(
            c, [0.0, 0.5, 0.25, 0.0, 0.0625, 0.0, 0.03125, 0.0, 0.01953125],
            atol=1e-15,
        )

    def test_orientations_agree_for_symmetric_walk(self):
        right = f0_series(SYM, 40)
        left = f0_series(SYM_LEFT, 40)
        assert np.max(np.abs(right - left)) <= 1e-14

    @pytest.mark.parametrize("law", LAWS)
    def test_proper_pmf(self, law):
        c = f0_series(law, 200)
        assert np.all(c >= -1e-12)
        assert c[0] == 0.0
        assert np.all(np.cumsum(c) <= 1.0 + 1e-12)

    @pytest.mark.parametrize("law", LAWS)
    def test_mass_is_one_in_the_limit(self, law):
        # tau is a.s. finite under criticality, so coefficients sum to 1
        total = f0_series(law, 4000).sum()
        assert 0.97 <= total <= 1.0 + 1e-12


class TestSeriesArrays:
    @pytest.mark.parametrize("name", BUNDLED_LAWS)
    def test_float_arrays_of_the_order(self, name):
        law = bundled_law(name)
        for build in (h_series, f0_series, tau_pmf):
            for order in (1, 2, 50):
                c = build(law, order)
                assert type(c) is np.ndarray and c.dtype == np.float64
                assert c.shape == (order + 1,)

    def test_h_series_rejects_nonfinite_coefficients(self, monkeypatch):
        # a NaN in phi's coefficients reaches every coefficient through the
        # first block's Lagrange sums; one in the block products of
        # G = 1/(1 - s*phi'(h)), through s^(B-1) where the first block's
        # run through s^(B-2), every block after the first
        coefficients = fixed_point.expand_coefficients
        monkeypatch.setattr(fixed_point, "expand_coefficients",
                            lambda law, n: coefficients(law, n) * np.nan)
        with pytest.raises(ValueError, match="^coefficients must be finite$"):
            h_series(SYM, 8)
        monkeypatch.undo()
        mul = fixed_point.series_mul
        monkeypatch.setattr(fixed_point, "series_mul",
                            lambda a, b, order: mul(a, b, order) * (
                                np.nan if order == BLOCK - 1 else 1.0))
        with pytest.raises(ValueError, match="^coefficients must be finite$"):
            h_series(SYM, 300)

    @pytest.mark.parametrize("law", LAWS)
    def test_f0_series_rejects_nonfinite_coefficients(self, monkeypatch, law):
        # the NaN bypasses h_series's own check, so f0_series's must catch it
        build_h = fixed_point.h_series

        def h_with_a_nan(law, order):
            h = build_h(law, order)
            h[2] = np.nan
            return h

        monkeypatch.setattr(fixed_point, "h_series", h_with_a_nan)
        with pytest.raises(ValueError, match="^coefficients must be finite$"):
            f0_series(law, 8)


@pytest.mark.parametrize("law", LAWS)
def test_h_limit_checks_converge(law):
    report = run_suite(law, "h-limits")
    assert len(report.checks) == 3
    assert all(c.passed for c in report.checks)


@pytest.mark.parametrize("x, want", [(2.0, math.log(2.0)), (math.inf, math.inf),
                                     (0.0, -math.inf), (-0.0, -math.inf),
                                     (-1.0, math.nan), (math.nan, math.nan)])
def test_log_takes_floats_as_numpy_does(x, want):
    with np.errstate(divide="ignore", invalid="ignore"):
        assert float(np.log(x)) == want or math.isnan(want)
    got = _log(x)
    assert got.__class__ is float
    assert got == want or (math.isnan(got) and math.isnan(want))


@given(st.floats(min_value=1e-6, max_value=1.0 - 1e-9))
@settings(max_examples=150, deadline=None)
def test_fixed_point_properties(s):
    h = solve_h(ASYM, s)
    assert 0.0 < h < 1.0
    assert abs(s * ASYM.phi(h) - h) <= 1e-13
    # h is the minimal root: anything strictly below keeps s*phi(x) > x
    x = 0.5 * h
    assert s * ASYM.phi(x) > x
