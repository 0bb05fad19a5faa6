"""Cumulant, Legendre transform, LDP rate, and MDP constants."""

import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from recordwalk import (
    MdpRegime,
    Orientation,
    cumulant,
    cumulant_deriv,
    invert_slope,
    ldp_rate,
    legendre,
    mdp_constants,
    mdp_rate,
    rate_point,
    rates,
)
from support import (ALL_LAWS, ASYM, LAZY, LONG_JUMP_LEFT, STABLE,
                     STABLE_EDGE_LAWS, STABLE_LEFT, SYM, SYM_LEFT)


class TestCumulant:
    def test_symmetric_value(self):
        # f0(0.6) = 0.4 for the symmetric walk, both orientations
        assert cumulant(SYM, math.log(0.6)) == pytest.approx(
            math.log(0.4), abs=1e-14
        )
        assert cumulant(SYM_LEFT, math.log(0.6)) == pytest.approx(
            math.log(0.4), abs=1e-14
        )

    def test_deriv_symmetric_value(self):
        assert cumulant_deriv(SYM, math.log(0.6)) == pytest.approx(
            1.3125, abs=1e-12
        )
        assert cumulant_deriv(SYM_LEFT, math.log(0.6)) == pytest.approx(
            1.3125, abs=1e-12
        )

    def test_rejects_nonnegative_lambda(self):
        with pytest.raises(ValueError):
            cumulant(SYM, 0.0)
        with pytest.raises(ValueError):
            cumulant_deriv(SYM, 0.1)

    @pytest.mark.parametrize("law", ALL_LAWS)
    def test_deriv_consistent_across_branches(self, law):
        # central differences straddle the series/closed-form switch
        for lam in (-3.0, -0.8, -0.69, -0.3, -0.05):
            d = 1e-6
            fd = (cumulant(law, lam + d) - cumulant(law, lam - d)) / (2 * d)
            assert cumulant_deriv(law, lam) == pytest.approx(fd, rel=1e-6)

    @pytest.mark.parametrize("law", ALL_LAWS)
    def test_deep_negative_asymptote(self, law):
        # lambda - Lambda(lambda) settles at Lambda*(1)
        target = legendre(law, 1.0)
        assert -30.0 - cumulant(law, -30.0) == pytest.approx(target, abs=1e-6)
        assert -800.0 - cumulant(law, -800.0) == pytest.approx(target, abs=1e-9)
        assert cumulant_deriv(law, -800.0) == 1.0


class TestInvertSlope:
    @pytest.mark.parametrize("x", [1.1, 1.3125, 2.0, 5.0, 20.0])
    def test_round_trip(self, x):
        lam = invert_slope(SYM, x)
        assert cumulant_deriv(SYM, lam) == pytest.approx(x, rel=1e-9)

    def test_symmetric_example(self):
        assert invert_slope(SYM, 1.3125) == pytest.approx(
            math.log(0.6), abs=1e-10
        )

    def test_rejects_slope_at_or_below_one(self):
        with pytest.raises(ValueError):
            invert_slope(SYM, 1.0)


class TestLegendre:
    def test_below_one_is_infinite(self):
        assert legendre(SYM, 0.99) == math.inf

    def test_boundary_closed_forms(self):
        # supremum at lambda -> -inf gives -ln(q+p0) / -ln(1-q) exactly
        assert legendre(SYM, 1.0) == -math.log(SYM.q + SYM.p0)
        assert legendre(SYM_LEFT, 1.0) == -math.log(1.0 - SYM_LEFT.q)
        assert legendre(ASYM, 1.0) == -math.log(ASYM.q + ASYM.p0)

    def test_symmetric_value(self):
        # the supremum for x = Lambda'(ln 0.6) is attained at ln 0.6
        target = 1.3125 * math.log(0.6) - math.log(0.4)
        assert legendre(SYM, 1.3125) == pytest.approx(target, abs=1e-10)

    @pytest.mark.parametrize("law", ALL_LAWS)
    def test_convex_and_decreasing(self, law):
        # d/dx Lambda*(x) = G(x) < 0: the transform falls from its x = 1
        # maximum toward 0 and is convex
        xs = [1.2, 1.5, 2.0, 3.0, 5.0]
        vals = [legendre(law, x) for x in xs]
        assert all(v > 0.0 for v in vals)
        assert vals[0] < legendre(law, 1.0)
        assert all(b < a for a, b in zip(vals, vals[1:]))
        slopes = np.diff(vals) / np.diff(xs)
        assert all(b > a for a, b in zip(slopes, slopes[1:]))


class TestLdpRate:
    def test_domain(self):
        with pytest.raises(ValueError):
            ldp_rate(SYM, 0.0)
        assert ldp_rate(SYM, 1.5) == math.inf

    def test_full_density_boundary(self):
        assert ldp_rate(SYM, 1.0) == legendre(SYM, 1.0)

    def test_rate_point_consistency(self):
        pt = rate_point(SYM, 0.5)
        assert pt.x == 2.0
        assert pt.Lambda_star == pytest.approx(legendre(SYM, 2.0), abs=1e-12)
        assert pt.ldp_rate == pytest.approx(0.5 * pt.Lambda_star, abs=1e-14)
        assert cumulant_deriv(SYM, pt.lam) == pytest.approx(2.0, rel=1e-9)

    def test_rate_point_boundary(self):
        pt = rate_point(SYM, 1.0)
        assert pt.lam == -math.inf
        assert pt.Lambda_star == legendre(SYM, 1.0)


@pytest.mark.parametrize("law", ALL_LAWS)
def test_ldp_rate_curve_down_to_tiny_densities(law):
    xs = [10.0 ** -k for k in range(30, 0, -1)]  # increasing
    vals = [ldp_rate(law, x) for x in xs]
    assert all(math.isfinite(v) and v >= 0.0 for v in vals)
    assert all(b >= a for a, b in zip(vals, vals[1:]))
    slopes = np.diff(vals) / np.diff(xs)
    assert all(b >= a for a, b in zip(slopes, slopes[1:]))
    consts = mdp_constants(law)
    for x, v in zip(xs, vals):
        if x <= 1e-3:
            assert abs(v / mdp_rate(consts, x) - 1.0) <= 0.01, x
    for x in (1e-100, 1e-300):
        v = ldp_rate(law, x)
        assert math.isfinite(v) and v >= 0.0


@pytest.mark.parametrize("law", ALL_LAWS)
def test_curve_at_w_zero(law):
    # w = 0 is the point s = 1: lambda = Lambda = 0 and Lambda' = inf,
    # where the root search reads log(Lambda' - 1) = inf
    got = rates._curve(law, 1.0, 0.0)
    assert got == (0.0, 0.0, math.inf)
    assert all(v.__class__ is float for v in got)
    assert math.copysign(1.0, got[0]) == math.copysign(1.0, got[1]) == -1.0


def test_rate_point_where_the_search_meets_w_zero():
    # stable right at x_rec = 1e-300 evaluates the curve at w = 0 during its
    # search; lambda and Lambda underflow to -0.0 and the rate to 0
    pt = rate_point(STABLE, 1e-300)
    for v in (pt.lam, pt.Lambda):
        assert v == 0.0 and math.copysign(1.0, v) == -1.0
    for v in (pt.Lambda_star, pt.ldp_rate):
        assert v == 0.0 and math.copysign(1.0, v) == 1.0


@pytest.mark.parametrize("law", ALL_LAWS)
def test_lambda_star_where_lambda_underflows(law):
    # Past x_rec ~ 1e-150 (sym) or 1e-100 (stable right) lambda is
    # subnormal or 0; Lambda* = x*lambda - Lambda still follows the MDP
    # form rate_coefficient * x_rec^(rate_exponent - 1) wherever that is a
    # normal double
    consts = mdp_constants(law)
    checked = 0
    for x_rec in (1e-100, 1e-150, 1e-200, 1e-300):
        mdp = consts.rate_coefficient * x_rec ** (consts.rate_exponent - 1.0)
        if mdp < sys.float_info.min:
            continue
        pt = rate_point(law, x_rec)
        assert abs(pt.Lambda_star - mdp) <= 1e-12 * mdp, x_rec
        assert legendre(law, pt.x) == pt.Lambda_star
        checked += 1
    assert checked >= 2


class TestMdpConstants:
    def test_finite_variance_closed_forms(self):
        c = mdp_constants(SYM)
        assert c.regime is MdpRegime.FINITE_VARIANCE
        assert c.alpha == 0.5
        assert c.c == pytest.approx(math.sqrt(2.0), abs=1e-15)
        assert c.scaling_exponents == (0.5, 0.5)
        assert c.rate_coefficient == pytest.approx(0.125, abs=1e-14)
        assert c.rate_exponent == 2.0

    def test_left_orientation_coefficient(self):
        c = mdp_constants(SYM_LEFT)
        assert c.rate_coefficient == pytest.approx(0.125, abs=1e-14)

    def test_stable_closed_forms(self):
        c = mdp_constants(STABLE)
        assert c.regime is MdpRegime.STABLE_FAMILY
        assert c.alpha == pytest.approx(1.0 / 3.0, abs=1e-15)
        assert c.c == pytest.approx(0.5 ** (2.0 / 3.0) * 1.5 ** (1.0 / 3.0),
                                    abs=1e-14)
        assert c.rate_exponent == pytest.approx(3.0, abs=1e-12)

    @pytest.mark.parametrize("law", [SYM, ASYM, STABLE, STABLE_LEFT])
    def test_numeric_regression_agrees(self, law):
        closed = mdp_constants(law)
        numeric = mdp_constants(law, method="numeric")
        assert numeric.regime is MdpRegime.NUMERIC_ESTIMATE
        assert numeric.alpha == pytest.approx(closed.alpha, rel=0.02)
        assert numeric.c == pytest.approx(closed.c, rel=0.02)
        assert numeric.uncertainty < 0.05

    @pytest.mark.parametrize(
        "law", ALL_LAWS + STABLE_EDGE_LAWS + [LAZY, LONG_JUMP_LEFT])
    def test_mittag_leffler_tail_identity(self, law):
        # the MDP rate is the Mittag-Leffler tail of index g, one formula
        # for both orientations, against the closed forms per orientation:
        # right alpha/(1-alpha)*(q/c)^(1/alpha) and the tauberian target
        # (1-alpha)*c/(q*Gamma(2-alpha)), left
        # (c*(1-alpha)^(2-alpha)*alpha^alpha)^(1/(1-alpha)) and
        # 1/((1-alpha)*c*Gamma(1+alpha)); 4.8e-15 and 2.2e-16 read at worst
        consts = mdp_constants(law)
        a, c = consts.alpha, consts.c
        if law.orientation is Orientation.RIGHT:
            scaling, exponent = (1.0 - a, a), 1.0 / a
            coeff = a / (1.0 - a) * (law.q / c) ** (1.0 / a)
            target = (1.0 - a) * c / (law.q * math.gamma(2.0 - a))
        else:
            scaling, exponent = (a, 1.0 - a), 1.0 / (1.0 - a)
            coeff = (c * (1.0 - a) ** (2.0 - a) * a**a) ** (1.0 / (1.0 - a))
            target = 1.0 / ((1.0 - a) * c * math.gamma(1.0 + a))
        assert consts.scaling_exponents == scaling
        assert consts.rate_exponent == exponent
        assert abs(consts.rate_coefficient - coeff) <= 1e-14 * coeff
        g = scaling[0]
        bulk = consts.bulk_constant / math.gamma(1.0 + g)
        assert abs(bulk - target) <= 1e-15 * target

    def test_method_check(self):
        with pytest.raises(ValueError):
            mdp_constants(SYM, method="exact")

    def test_mdp_rate(self):
        c = mdp_constants(SYM)
        assert mdp_rate(c, 2.0) == pytest.approx(0.5, abs=1e-14)
        with pytest.raises(ValueError):
            mdp_rate(c, 0.0)


@given(
    st.floats(min_value=-30.0, max_value=-1e-6),
    st.floats(min_value=-30.0, max_value=-1e-6),
)
@settings(max_examples=100, deadline=None)
def test_cumulant_monotone_and_slope_above_one(lam1, lam2):
    lo, hi = sorted((lam1, lam2))
    d_lo = cumulant_deriv(ASYM, lo)
    d_hi = cumulant_deriv(ASYM, hi)
    assert d_lo > 1.0 - 1e-12
    if hi - lo > 1e-9:
        assert d_hi >= d_lo
        assert cumulant(ASYM, hi) >= cumulant(ASYM, lo)
