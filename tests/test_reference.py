"""The rate curve, h(s), w = 1 - h(s) and 1 - s*phi'(h(s)) against
high-precision references.

The references come from mpmath at 160 significant digits (60 for the
fixed point, where w = 1 - h >= 1e-11) and use the definitions alone:
phi and phi' of the law with its decimal coefficients (so that the explicit
laws are exactly critical), s = h/phi(h), lambda = log s, f0 = E[s^tau]
from the fixed point (right orientation 1 + q*s - q*s/h, left
1 - (1 - s)/(1 - h)), Lambda = log f0, and
Lambda' = (dLambda/dh)/(dlambda/dh).  Points are found by bisection in
u = log(h/(1 - h)), and h(s) at small s, below the bisection's range, by
mpmath.findroot from q*s.

The oracle tails of the explicit laws are checked against exact rational
arithmetic on the reflected chain M_m - S_m itself, and those of the stable
laws against the same chain in 40-digit arithmetic.  The jump tails T_j and
the lumped jump mass of jump_pmf are checked against 40-digit sums of the
jump probabilities, and tail_series against (1 - phi(H))/(1 - H).

The return-time p.m.f. is checked against its closed form
(1 + s - sqrt(1 - s^2))/2 on sym and sym_left, and on the stable laws
against series Newton with full products run in long double.
"""

import collections
import functools
import itertools
import json
import math
import sys
from fractions import Fraction

import mpmath
import numpy as np
import pytest

from recordwalk import (IncrementLaw, build_kernel, bundled_law_path,
                        cumulant_deriv, exact_An_distribution, rate_point,
                        rates, renewal_tail_table, tau_pmf)
from recordwalk.fixed_point import (_logistic_hw, h_series,
                                    one_minus_s_phi_prime_h, solve_hw)
from support import (BUNDLED_LAWS, STABLE, STABLE_LEFT, MpLaw, bundled_law,
                     exp_reference, reciprocal_reference)

DIGITS = 160
X_REC = [1.0 - 2.0**-52, 1.0 - 1e-12, 1.0 - 1e-9, 0.9, 0.5, 1e-3, 1e-5,
         1e-12, 1e-30]
EPS = 2.0 ** -52


class Reference(MpLaw):
    """The rate curve and the fixed point of a bundled law in mpmath."""

    @staticmethod
    def bisect(increasing, steps=180):
        """h where increasing(h) crosses 0, bisecting u over [-200, 200],
        where 1 - h still keeps 70 digits."""
        lo, hi = mpmath.mpf(-200), mpmath.mpf(200)
        for _ in range(steps):
            mid = (lo + hi) / 2
            if increasing(1 / (1 + mpmath.exp(-mid))) < 0:
                lo = mid
            else:
                hi = mid
        return 1 / (1 + mpmath.exp(-(lo + hi) / 2))

    def curve(self, h):
        """(lambda, Lambda, Lambda') at the fixed point h."""
        f, q = self.phi(h), self.q
        s = h / f
        ds = (f - h * self.dphi(h)) / f ** 2
        if self.right:
            f0 = 1 + q * s - q * s / h
            df0 = q * ds - q * (ds * h - s) / h ** 2
        else:
            f0 = 1 - (1 - s) / (1 - h)
            df0 = ds / (1 - h) - (1 - s) / (1 - h) ** 2
        return mpmath.log(s), mpmath.log(f0), (df0 / f0) / (ds / s)

    def rate_point(self, x):
        """(lambda, Lambda, ldp_rate) where Lambda' = x."""
        with mpmath.workdps(DIGITS):
            x = mpmath.mpf(x)
            h = self.bisect(lambda h: self.curve(h)[2] - x)
            lam, lam_, _ = self.curve(h)
            return lam, lam_, (x * lam - lam_) / x

    def slope_at(self, lam):
        """Lambda'(lambda), at the h with log(h/phi(h)) = lambda; 60 digits
        keep 45 of Lambda' - 1 >= 1e-14."""
        with mpmath.workdps(60):
            lam = mpmath.mpf(lam)
            h = self.bisect(lambda h: mpmath.log(h / self.phi(h)) - lam)
            return self.curve(h)[2]

    def fixed_point(self, s):
        """h(s) and 1 - s*phi'(h); w = 1 - h >= 1e-11 here, so 60 digits
        keep more than 45."""
        with mpmath.workdps(60):
            s = mpmath.mpf(s)
            h = self.bisect(lambda h: h - s * self.phi(h))
            return h, 1 - s * self.dphi(h)

    def small_fixed_point(self, s):
        """h(s) for s <= 1/2, where h <= 0.3: the root of h = s*phi(h) by
        the secant method from its first-order value q*s."""
        with mpmath.workdps(60):
            s = mpmath.mpf(s)
            return mpmath.findroot(lambda h: h - s * self.phi(h), self.q * s)


@functools.lru_cache(maxsize=None)
def reference(name):
    return Reference(name)


def rel(a, b):
    return float(abs((a - b) / b))


@pytest.mark.parametrize("name", BUNDLED_LAWS)
def test_rate_point_against_reference(name):
    law = bundled_law(name)
    ref = reference(name)
    for x_rec in X_REC:
        pt = rate_point(law, x_rec)
        # at the double x that rate_point solves for: near x_rec = 1, lambda
        # moves by 1/Lambda'' per unit of x, so an ulp of x is far more than
        # 1e-13 of lambda
        lam, lam_, rate = ref.rate_point(mpmath.mpf(1.0 / x_rec))
        assert rel(pt.ldp_rate, rate) <= 1e-12, x_rec
        assert rel(pt.lam, lam) <= 1e-13, x_rec
        assert rel(pt.Lambda, lam_) <= 1e-13, x_rec


# u = log(h/w) from -200 to 200 in steps of 5, plus the stable family's
# branch points h = 1/4 (chi) and h = 1/2 (log w) and the smallest normal h
# (psi), each with its neighbouring doubles.  Measured: 2.7e-16 (lambda),
# 3.1e-16 (Lambda) and 6.0e-16 (excess) where h >= 1e-150; the bound is
# tight enough that a formula scaled by 1 + 4e-15 fails it.  Below
# h ~ 1e-150 the excess Lambda' - 1 needs the law itself to more than 160
# digits, which the reference forms at the working precision; it has its
# own bound there, stated before the first run from 2.4e-15 measured on a
# prototype, and read as 2.6e-15 (stable right) and 1.7e-15 (asym).
CURVE_POINTS = [_logistic_hw(float(u)) for u in range(-200, 201, 5)] + [
    (h, 1.0 - h) for h0 in (0.25, 0.5, sys.float_info.min)
    for h in (math.nextafter(h0, 0.0), h0, math.nextafter(h0, 1.0))]
CURVE_REL_BOUND = 2e-15
TINY_H_EXCESS_BOUND = 3e-15


@pytest.mark.parametrize("name", BUNDLED_LAWS)
def test_curve_against_reference(name):
    # the float rate curve (lambda, Lambda, Lambda' - 1) at (h, w), against
    # the definitions at the point whose smaller coordinate is exact
    law = bundled_law(name)
    ref = reference(name)
    for h, w in CURVE_POINTS:
        got = rates._curve(law, h, w)
        assert all(v.__class__ is float for v in got), (h, w)
        with mpmath.workdps(900):
            at = mpmath.mpf(h) if h <= 0.5 else 1 - mpmath.mpf(w)
            lam, lam_, slope = ref.curve(at)
            exact = (lam, lam_, slope - 1)
            for what, v, e in zip(("lambda", "Lambda", "excess"), got, exact):
                bound = (TINY_H_EXCESS_BOUND if what == "excess" and h < 1e-150
                         else CURVE_REL_BOUND)
                assert rel(v, e) <= bound, (what, h, w)


@pytest.mark.parametrize("name", BUNDLED_LAWS)
def test_cumulant_deriv_against_reference(name):
    # Lambda' - 1 is formed without subtracting 1, so Lambda' stays within
    # an ulp of the exact value even where it differs from 1 by 1e-13
    law = bundled_law(name)
    ref = reference(name)
    for lam in (-30.0, -25.0, -20.0, -15.0, -10.0, -5.0, -2.0):
        exact = ref.slope_at(lam)
        tol = EPS * exact + 1e-14 * (exact - 1)
        assert abs(cumulant_deriv(law, lam) - exact) <= tol, lam


@pytest.mark.parametrize("name", BUNDLED_LAWS)
def test_cumulant_deriv_near_zero_against_reference(name):
    # 1 - s reaches the solver as -expm1(lambda), not as 1 - e^lambda
    # rounded, which would carry a relative error eps/|lambda|
    law = bundled_law(name)
    ref = reference(name)
    for lam in (-1e-3, -1e-6, -1e-9):
        assert rel(cumulant_deriv(law, lam), ref.slope_at(lam)) <= 1e-14, lam


@pytest.mark.parametrize("name", BUNDLED_LAWS)
def test_one_minus_s_phi_prime_against_reference(name):
    law = bundled_law(name)
    ref = reference(name)
    for k in range(2, 13):
        s = 1.0 - 10.0 ** -k
        assert rel(one_minus_s_phi_prime_h(law, s),
                   ref.fixed_point(s)[1]) <= 1e-10, k


@pytest.mark.parametrize("name", BUNDLED_LAWS)
def test_w_against_reference(name):
    law = bundled_law(name)
    ref = reference(name)
    for k in range(1, 16):
        s = 1.0 - 10.0 ** -k
        h, w = solve_hw(law, s)
        exact = ref.fixed_point(s)[0]
        assert rel(h, exact) <= 1e-14, k
        assert rel(w, 1 - exact) <= 1e-13, k


@pytest.mark.parametrize("name", BUNDLED_LAWS)
def test_h_relative_precision_at_small_s(name):
    law = bundled_law(name)
    ref = reference(name)
    points = [1e-300, 1e-100, 1e-20, 1e-12, 1e-6, 1e-3, 0.1, 0.5]
    for s in points:
        assert rel(solve_hw(law, s)[0], ref.small_fixed_point(s)) <= 1e-15, s


def exact_tail(name, n):
    """P(A_n >= k), k = 0..n, as Fractions: the reflected chain
    Sbar = M - S of a bundled explicit law, Sbar' = max(Sbar - X, 0), run
    exactly from the law's decimal coefficients.  A_n counts the steps
    m = 1..n with Sbar_m = 0.  The weights are integers over a common
    denominator, raised to the n-th power at the end."""
    doc = json.loads(bundled_law_path(name).read_text())
    spec = doc["spec"]
    probs = [Fraction(repr(v)) for v in (spec["q"], *spec["p"])]
    denom = math.lcm(*(c.denominator for c in probs))
    # right: X = +1 w.p. q and X = -k w.p. p_k; left is the mirror image
    sign = 1 if doc["orientation"] == "right" else -1
    jumps = [sign] + [-sign * k for k in range(len(spec["p"]))]
    steps = [(x, int(c * denom)) for x, c in zip(jumps, probs) if c]
    state = {(0, 0): 1}  # (Sbar, zero visits) -> weight
    for _ in range(n):
        nxt = collections.defaultdict(int)
        for (level, count), weight in state.items():
            for x, a in steps:
                new = max(level - x, 0)
                nxt[new, count + (new == 0)] += weight * a
        state = nxt
    by_count = [0] * (n + 1)
    for (_, count), weight in state.items():
        by_count[count] += weight
    tails = list(itertools.accumulate(reversed(by_count)))[::-1]
    return [Fraction(t, denom ** n) for t in tails]


@pytest.mark.parametrize("name", ["sym.json", "asym.json", "sym_left.json"])
def test_oracles_against_exact_rational_chain(name):
    n = 60
    law = bundled_law(name)
    exact = exact_tail(name, n)
    assert exact[0] == 1 and exact[n] > 0
    dp = exact_An_distribution(build_kernel(law, n), n).tail
    renewal = renewal_tail_table(law, n).tail
    assert len(dp) == len(renewal) == n + 1
    for k, value in enumerate(exact):
        # relative at every k, P(A_n = n) (2^-60 on sym) included
        assert abs(Fraction(dp[k]) - value) <= Fraction(1e-13) * value, k
        assert abs(Fraction(renewal[k]) - value) <= Fraction(1e-12), k


def stable_chain_tail(side, gamma, beta, n):
    """P(A_n >= k), k = 0..n, in 40-digit mpmath: the reflected chain
    Sbar' = max(Sbar - X, 0) of a stable law, with p_0..p_(n-1) from the
    binomial recurrence of (1 - s)^(1+beta) and every jump of size >= n
    lumped at n with mass 1 - q - sum p.  A right chain falls one level per
    step, so a level above n never returns to 0 within n steps and all of
    them are kept as level n + 1; a left chain never rises above n, so a
    jump of n or more lands on 0."""
    with mpmath.workdps(40):
        g, b = mpmath.mpf(repr(gamma)), mpmath.mpf(repr(beta))
        q = g / (1 + b)
        d = [mpmath.mpf(1)]  # d_k = (-1)^k binom(1 + beta, k)
        for k in range(n):
            d.append(d[-1] * (k - 1 - b) / (k + 1))
        probs = [q, q * d[1] + 1] + [q * v for v in d[2:]]
        probs.append(1 - mpmath.fsum(probs))
        sign = 1 if side == "right" else -1
        jumps = [sign] + [-sign * k for k in range(n + 1)]
        state = {(0, 0): mpmath.mpf(1)}  # (Sbar, zero visits) -> probability
        for _ in range(n):
            nxt = collections.defaultdict(mpmath.mpf)
            for (level, count), weight in state.items():
                for x, a in zip(jumps, probs):
                    new = min(max(level - x, 0), n + 1)
                    nxt[new, count + (new == 0)] += weight * a
            state = nxt
        by_count = [mpmath.mpf(0)] * (n + 1)
        for (_, count), weight in state.items():
            by_count[count] += weight
        return list(itertools.accumulate(reversed(by_count)))[::-1]


@pytest.mark.parametrize("side", ["right", "left"])
def test_stable_oracles_against_chain(side):
    n = 20
    law = STABLE if side == "right" else STABLE_LEFT
    exact = stable_chain_tail(side, law.gamma, law.beta, n)
    dp = exact_An_distribution(build_kernel(law, n), n).tail
    renewal = renewal_tail_table(law, n).tail
    assert len(dp) == len(renewal) == n + 1
    with mpmath.workdps(40):
        for k, value in enumerate(exact):
            assert rel(dp[k], value) <= 1e-13, k
            assert rel(renewal[k], value) <= 1e-13, k


@pytest.mark.parametrize("gamma, beta", [(0.5, 0.5), (0.3, 0.7), (0.8, 0.2)])
def test_lumped_jump_mass_against_reference(gamma, beta):
    with mpmath.workdps(40):
        g, b = mpmath.mpf(repr(gamma)), mpmath.mpf(repr(beta))
        q = g / (1 + b)
        # p_n = q * (-1)^(n+1) binom(1 + beta, n + 1), plus 1 at n = 0
        p = [q * (-1) ** (n + 1) * mpmath.binomial(1 + b, n + 1)
             for n in range(1600)]
        p[0] += 1
        tails = [1 - q]  # T_j = 1 - q - sum_{n<j} p_n, j = 0..1600
        for v in p:
            tails.append(tails[-1] - v)
        for side, order in itertools.product(("right", "left"),
                                             (1, 10, 200, 1600)):
            law = IncrementLaw.stable(side, gamma, beta)
            got, t = law.jump_pmf(order), law.jump_tails(order)
            assert len(got) == len(t) == order + 1
            assert got[order] == t[order]  # the lumped mass is T_order
            for j in range(order + 1):
                assert rel(t[j], tails[j]) <= 1e-13, (side, order, j)


@pytest.mark.parametrize("side", ["right", "left"])
def test_jump_tails_of_support_longer_than_order(side):
    p = ["0.44", "0.13", "0.04", "0.02", "0.02"]
    law = IncrementLaw.explicit(side, 0.35, [float(v) for v in p])
    with mpmath.workdps(40):
        exact = [mpmath.fsum(mpmath.mpf(v) for v in p[j:]) for j in range(5)]
        for order in (1, 2, 4, 7):
            t = law.jump_tails(order)
            assert len(t) == order + 1
            # lumped at order as a stable law's is, a shorter support unpadded
            lumped = [*law.p[:order], t[order]] if order < len(p) else law.p
            assert law.jump_pmf(order).tolist() == list(lumped)
            for j in range(order + 1):
                if j < len(p):
                    assert rel(t[j], exact[j]) <= 4 * EPS, (order, j)
                else:
                    assert t[j] == 0.0, (order, j)


@pytest.mark.parametrize("name", ["asym.json", "stable_g05_b05_left.json"])
def test_tail_series_against_reference(name):
    # rho(H) = sum_j T_j H^j = (1 - phi(H))/(1 - H), at H = h(s) of the law
    order = 8
    law = bundled_law(name)
    ref = reference(name)
    h = h_series(law, order)
    got = law.tail_series(h, order)
    with mpmath.workdps(40):
        def rho(s):
            hs = mpmath.fsum(mpmath.mpf(c) * s**k for k, c in enumerate(h))
            return (1 - ref.phi(hs)) / (1 - hs)
        exact = mpmath.taylor(rho, 0, order)
        for m in range(order + 1):
            assert rel(got[m], exact[m]) <= 1e-14, m


@pytest.mark.parametrize("name, tol", [("sym.json", 1e-14),
                                       ("sym_left.json", 1e-14)])
def test_tau_pmf_against_closed_form(name, tol):
    # Both laws have f0 = (1 + s - sqrt(1 - s^2))/2, so P(tau = 2k) =
    # |binom(1/2, k)|/2 and tau is never odd beyond 1.  Both form f0 as
    # s*sum_j c_j h^j composed from nonnegative terms, so nothing cancels,
    # and an odd h gives exactly zero odd coefficients: c = (q + p_0, p_1)
    # on the right and the jump tails (T_0, T_1) on the left are both
    # (1/2, 1/2), so the two read the same bits.  Measured: 6.2e-15 on both
    # (sym 7.5e-15 through 1 + q s - q s/h).
    order = 10000
    law = bundled_law(name)
    exact = np.zeros(order + 1)
    exact[1], exact[2] = 0.5, 0.25
    c = mpmath.mpf(1) / 2  # |binom(1/2, k)|
    for k in range(2, order // 2 + 1):
        c *= mpmath.mpf(2 * k - 3) / (2 * k)
        exact[2 * k] = float(c / 2)
    got = tau_pmf(law, order)
    even = exact != 0.0
    assert np.max(np.abs(got[even] - exact[even]) / exact[even]) <= tol
    assert np.all(got[~even] == 0.0)


LD = np.longdouble


def _ld_log(w, order):
    k = np.arange(1, order + 1, dtype=LD)
    dw_over_w = np.convolve(k * w[1:], reciprocal_reference(w, order - 1, LD))
    return np.concatenate([[LD(0)], dw_over_w[:order] / k])


def ld_tau_pmf(law, order):
    """tau_pmf of a stable-family law in long double: series Newton for h
    with phi(H) = H + g/(1+b) W^(1+b) and phi'(H) = 1 - g W^b through
    log and exp of W = 1 - H, every product formed in full, then f0 from
    h: 1 + q*s - q*s/h on the right, 1 - (1 - s)/(1 - h) on the left."""
    g, b = LD(law.gamma), LD(law.beta)
    q = g / (1 + b)
    h = np.array([0, q], dtype=LD)
    m = 1
    while m < order + 1:
        m = min(2 * m, order + 1)
        h = np.concatenate([h, np.zeros(m + 1 - len(h), dtype=LD)])
        w = -h
        w[0] += 1
        lw = _ld_log(w, m)
        f = h.copy()  # H - s*phi(H)
        f[1:] -= (h + g / (1 + b) * exp_reference((1 + b) * lw, m, LD))[:-1]
        fp = np.zeros(m + 1, dtype=LD)  # 1 - s*phi'(H)
        fp[0] = 1
        fp[1:] = g * exp_reference(b * lw, m, LD)[:-1]
        fp[1] -= 1
        h = h - np.convolve(f, reciprocal_reference(fp, m, LD))[: m + 1]
    if law.orientation.value == "right":
        f0 = -q * reciprocal_reference(h[1:], order, LD)
        f0[1] += q
    else:  # 1 - f0 = (1 - s)/(1 - h), differenced in long double
        w = -h[: order + 1]
        w[0] += 1
        r = reciprocal_reference(w, order, LD)
        f0 = -r
        f0[1:] += r[:-1]
    f0[0] = 0
    return f0


@pytest.mark.skipif(np.finfo(LD).eps > 1e-18,
                    reason="long double is no wider than double here")
@pytest.mark.parametrize("side, tol", [("right", 1e-12), ("left", 1e-13)])
def test_stable_tau_pmf_against_long_double(side, tol):
    # Measured at order 3000: right 6.2e-14, left 5.0e-14.  The series
    # Newton for h, through log and exp of W = 1 - H, read right 5.6e-13
    # and left 3.9e-14; the right bound stays at 1e-12.  The right side's
    # error is h_series': from the long-double h, the double reciprocal
    # alone is within 5.5e-15.  The left side takes f0 = s*(1 - q W^beta)
    # at W = 1 - h, which differences nothing.
    order = 3000
    law = STABLE if side == "right" else STABLE_LEFT
    ref = ld_tau_pmf(law, order)
    got = tau_pmf(law, order)
    assert got[0] == 0.0 and np.all(ref[1:] > 0)
    err = np.abs(got[1:] - ref[1:]) / ref[1:]
    assert float(np.max(err)) <= tol
