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
from fractions import Fraction

import mpmath
import numpy as np
import pytest

from recordwalk import (IncrementLaw, build_kernel, bundled_law_path,
                        cumulant_deriv, exact_An_distribution, rate_point,
                        renewal_tail_table, tau_pmf)
from recordwalk.fixed_point import (h_series, one_minus_s_phi_prime_h,
                                    solve_hw)

BUNDLED = ["sym.json", "sym_left.json", "asym.json", "stable_g05_b05.json",
           "stable_g05_b05_left.json"]
DIGITS = 160
X_REC = [1.0 - 1e-9, 0.9, 0.5, 1e-3, 1e-5, 1e-12, 1e-30]
EPS = 2.0 ** -52


class Reference:
    """phi, phi' and the rate curve of a bundled law in mpmath."""

    def __init__(self, name):
        doc = json.loads(bundled_law_path(name).read_text())
        spec, mpf = doc["spec"], mpmath.mpf
        self.right = doc["orientation"] == "right"
        with mpmath.workdps(DIGITS):
            if spec["type"] == "stable":
                g, b = mpf(repr(spec["gamma"])), mpf(repr(spec["beta"]))
                self.q = g / (1 + b)
                self.phi = lambda s: s + self.q * (1 - s) ** (1 + b)
                self.dphi = lambda s: 1 - g * (1 - s) ** b
            else:
                self.q = mpf(repr(spec["q"]))
                p = [mpf(repr(v)) for v in spec["p"]]
                self.phi = lambda s: self.q + sum(
                    v * s ** (n + 1) for n, v in enumerate(p))
                self.dphi = lambda s: sum(
                    (n + 1) * v * s ** n for n, v in enumerate(p))

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
        """(lambda, Lambda, ldp_rate, dlambda/dx) where Lambda' = x."""
        with mpmath.workdps(DIGITS):
            x = mpmath.mpf(x)
            h = self.bisect(lambda h: self.curve(h)[2] - x)
            lam, lam_, _ = self.curve(h)
            # dlambda/dx = 1/Lambda'' = (dlambda/dh) / (dLambda'/dh)
            slope = mpmath.diff(lambda t: self.curve(t)[2], h)
            dlam_dx = mpmath.diff(lambda t: self.curve(t)[0], h) / slope
            return lam, lam_, (x * lam - lam_) / x, dlam_dx

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


@pytest.mark.parametrize("name", BUNDLED)
def test_rate_point_against_reference(name):
    law = IncrementLaw.from_json(bundled_law_path(name).read_text())
    ref = reference(name)
    for x_rec in X_REC:
        pt = rate_point(law, x_rec)
        x = mpmath.mpf(1) / mpmath.mpf(x_rec)
        lam, lam_, rate, dlam_dx = ref.rate_point(x)
        assert rel(pt.ldp_rate, rate) <= 1e-12, x_rec
        # lambda moves by dx/Lambda'' and Lambda by x times that when x
        # moves by dx; near x_rec = 1 that exceeds 1e-12 for any x held in
        # a double.  The allowance is what 8 ulps of x move the exact values.
        dlam = float(abs(8 * EPS * x * dlam_dx))
        assert abs(pt.lam - lam) <= 1e-12 * abs(lam) + dlam, x_rec
        assert abs(pt.Lambda - lam_) <= 1e-12 * abs(lam_) + float(x) * dlam, \
            x_rec


@pytest.mark.parametrize("name", BUNDLED)
def test_cumulant_deriv_against_reference(name):
    # Lambda' - 1 is formed without subtracting 1, so Lambda' stays within
    # an ulp of the exact value even where it differs from 1 by 1e-13
    law = IncrementLaw.from_json(bundled_law_path(name).read_text())
    ref = reference(name)
    for lam in (-30.0, -25.0, -20.0, -15.0, -10.0, -5.0, -2.0):
        exact = ref.slope_at(lam)
        tol = EPS * exact + 1e-14 * (exact - 1)
        assert abs(cumulant_deriv(law, lam) - exact) <= tol, lam


@pytest.mark.parametrize("name", BUNDLED)
def test_cumulant_deriv_near_zero_against_reference(name):
    # 1 - s reaches the solver as -expm1(lambda), not as 1 - e^lambda
    # rounded, which would carry a relative error eps/|lambda|
    law = IncrementLaw.from_json(bundled_law_path(name).read_text())
    ref = reference(name)
    for lam in (-1e-3, -1e-6, -1e-9):
        assert rel(cumulant_deriv(law, lam), ref.slope_at(lam)) <= 1e-14, lam


@pytest.mark.parametrize("name", BUNDLED)
def test_one_minus_s_phi_prime_against_reference(name):
    law = IncrementLaw.from_json(bundled_law_path(name).read_text())
    ref = reference(name)
    for k in range(2, 13):
        s = 1.0 - 10.0 ** -k
        assert rel(one_minus_s_phi_prime_h(law, s),
                   ref.fixed_point(s)[1]) <= 1e-10, k


@pytest.mark.parametrize("name", BUNDLED)
def test_w_against_reference(name):
    law = IncrementLaw.from_json(bundled_law_path(name).read_text())
    ref = reference(name)
    for k in range(1, 16):
        s = 1.0 - 10.0 ** -k
        h, w = solve_hw(law, s)
        exact = ref.fixed_point(s)[0]
        assert rel(h, exact) <= 1e-14, k
        assert rel(w, 1 - exact) <= 1e-13, k


@pytest.mark.parametrize("name", BUNDLED)
def test_h_relative_precision_at_small_s(name):
    law = IncrementLaw.from_json(bundled_law_path(name).read_text())
    ref = reference(name)
    points = [1e-300, 1e-100, 1e-20, 1e-12, 1e-6, 1e-3, 0.1, 0.5]
    h_array, _ = solve_hw(law, np.array(points))
    for s, h_elem in zip(points, h_array):
        exact = ref.small_fixed_point(s)
        assert rel(solve_hw(law, s)[0], exact) <= 1e-15, s
        assert rel(h_elem, exact) <= 1e-15, s


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
    law = IncrementLaw.from_json(bundled_law_path(name).read_text())
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
    law = IncrementLaw.stable(side, 0.5, 0.5)
    exact = stable_chain_tail(side, 0.5, 0.5, n)
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
            assert len(law.jump_pmf(order)) == len(p)  # the whole support
            for j in range(order + 1):
                if j < len(p):
                    assert rel(t[j], exact[j]) <= 4 * EPS, (order, j)
                else:
                    assert t[j] == 0.0, (order, j)


@pytest.mark.parametrize("name", ["asym.json", "stable_g05_b05_left.json"])
def test_tail_series_against_reference(name):
    # rho(H) = sum_j T_j H^j = (1 - phi(H))/(1 - H), at H = h(s) of the law
    order = 8
    law = IncrementLaw.from_json(bundled_law_path(name).read_text())
    ref = reference(name)
    h = h_series(law, order).coeffs
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
    # |binom(1/2, k)|/2 and tau is never odd beyond 1.  sym_left forms f0
    # as s*rho(h), with rho(H) = sum_j T_j H^j composed from the
    # nonnegative jump tails, so nothing cancels (5.2e-15 measured), and an
    # even h gives exactly zero odd coefficients.
    order = 10000
    law = IncrementLaw.from_json(bundled_law_path(name).read_text())
    exact = np.zeros(order + 1)
    exact[1], exact[2] = 0.5, 0.25
    c = mpmath.mpf(1) / 2  # |binom(1/2, k)|
    for k in range(2, order // 2 + 1):
        c *= mpmath.mpf(2 * k - 3) / (2 * k)
        exact[2 * k] = float(c / 2)
    got = tau_pmf(law, order).coeffs
    even = exact != 0.0
    assert np.max(np.abs(got[even] - exact[even]) / exact[even]) <= tol
    assert np.all(got[~even] == 0.0)


LD = np.longdouble


def _ld_reciprocal(f, order):
    r = np.array([1 / f[0]])
    m = 1
    while m <= order:
        m = min(2 * m, order + 1)
        corr = -np.convolve(f[:m], r)[:m]
        corr[0] += 2
        r = np.convolve(r, corr)[:m]
    return r


def _ld_log(w, order):
    k = np.arange(1, order + 1, dtype=LD)
    dw_over_w = np.convolve(k * w[1:], _ld_reciprocal(w, order - 1))[:order]
    return np.concatenate([[LD(0)], dw_over_w / k])


def _ld_exp(a, order):
    ja = np.arange(order + 1, dtype=LD) * a
    e = np.zeros(order + 1, dtype=LD)
    e[0] = 1
    for m in range(1, order + 1):
        e[m] = np.dot(ja[1 : m + 1], e[m - 1 :: -1][:m]) / m
    return e


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
        f[1:] -= (h + g / (1 + b) * _ld_exp((1 + b) * lw, m))[:-1]
        fp = np.zeros(m + 1, dtype=LD)  # 1 - s*phi'(H)
        fp[0] = 1
        fp[1:] = g * _ld_exp(b * lw, m)[:-1]
        fp[1] -= 1
        h = h - np.convolve(f, _ld_reciprocal(fp, m))[: m + 1]
    if law.orientation.value == "right":
        f0 = -q * _ld_reciprocal(h[1:], order)
        f0[1] += q
    else:  # 1 - f0 = (1 - s)/(1 - h), differenced in long double
        w = -h[: order + 1]
        w[0] += 1
        r = _ld_reciprocal(w, order)
        f0 = -r
        f0[1:] += r[:-1]
    f0[0] = 0
    return f0


@pytest.mark.skipif(np.finfo(LD).eps > 1e-18,
                    reason="long double is no wider than double here")
@pytest.mark.parametrize("side, tol", [("right", 1e-12), ("left", 1e-13)])
def test_stable_tau_pmf_against_long_double(side, tol):
    # Measured at order 3000: right 8.3e-13, left 3.9e-14.  The right
    # side's error is h_series' (log and exp): from the long-double h, the
    # double reciprocal alone is within 5.5e-15.  The left side takes
    # f0 = s*(1 - q W^beta) at W = 1 - h, which differences nothing.
    order = 3000
    law = IncrementLaw.stable(side, 0.5, 0.5)
    ref = ld_tau_pmf(law, order)
    got = tau_pmf(law, order).coeffs
    assert got[0] == 0.0 and np.all(ref[1:] > 0)
    err = np.abs(got[1:] - ref[1:]) / ref[1:]
    assert float(np.max(err)) <= tol
