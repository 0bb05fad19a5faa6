"""Verification suites: numerically check every conclusion the library
relies on, against independent oracles, for a given law.

Each suite returns a VerifyReport listing every check attempted -- name,
target, observed value, tolerance, pass flag -- with no silent skips.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import fixed_point, oracle, rates
from .fixed_point import U_MAX
from .laws import Orientation
from .series import series_eval

LDP_TREND_X_REC = 0.5  # the record density at which ldp-trend reads tails


@dataclass(frozen=True)
class Check:
    name: str
    target: float
    observed: float
    tolerance: float
    passed: bool
    provenance: str

    def __post_init__(self):
        # Numeric checks hand in numpy scalars; json needs Python ones.
        for name in ("target", "observed", "tolerance"):
            object.__setattr__(self, name, float(getattr(self, name)))
        object.__setattr__(self, "passed", bool(self.passed))


@dataclass(frozen=True)
class VerifyReport:
    suite: str
    checks: tuple

    @property
    def passed(self):
        return bool(self.checks) and all(c.passed for c in self.checks)


def _check(name, target, observed, tol, provenance):
    return Check(name, target, observed, tol, abs(observed - target) <= tol, provenance)


def run_suite(law, suite):
    if suite not in SUITES:
        raise ValueError(f"unknown suite {suite!r}; choose from {SUITES}")
    checks = _SUITE_FUNCS[suite](law)
    if not checks:
        raise RuntimeError(f"suite {suite!r} produced an empty check list")
    return VerifyReport(suite, tuple(checks))


def _suite_h_limits(law):
    """The small-s limits of h and the power law of 1 - s*phi'(h) near 1."""
    q = law.q
    alpha, c, _ = law.mdp_closed_form()
    near_one = fixed_point.one_minus_s_phi_prime_h(law, 1.0 - 1e-8) / 1e-8**alpha
    return [
        _check("h(s)/s -> q", q, fixed_point.solve_h(law, 1e-6) / 1e-6,
               1e-6, "grid limit"),
        _check("(h(s)-qs)/s^2 -> q*p0", q * law.p0,
               (fixed_point.solve_h(law, 1e-4) - q * 1e-4) / 1e-8, 1e-3,
               "grid limit"),
        _check("(1-s phi'(h))/(1-s)^alpha -> c", c, near_one, 0.01 * c,
               "grid limit"),
    ]


def _suite_lambda_limits(law):
    """Lambda'(-20) -> 1, the boundary value Lambda*(1), and the blow-up at
    0-: Lambda' ~ (g/C)*|lambda|^-theta, theta = 1 - g = scaling_exponents[1],
    so log(Lambda'(-1e-8)/Lambda'(-1e-4))/log(1e4) is theta to within 10%."""
    boundary = rates.legendre(law, 1.0)
    theta = rates.mdp_constants(law).scaling_exponents[1]
    d20 = rates.cumulant_deriv(law, -20.0)
    slope = math.log(rates.cumulant_deriv(law, -1e-8)
                     / rates.cumulant_deriv(law, -1e-4)) / math.log(1e4)
    gap = (-30.0 - rates.cumulant(law, -30.0)) - boundary
    return [
        _check("Lambda'(-20) -> 1", 1.0, d20, 1e-3, "closed form in h"),
        _check("blow-up exponent of Lambda' at 0- vs theta = 1 - g", theta,
               slope, 0.1 * theta, "log slope over lambda = -1e-4..-1e-8"),
        _check("lambda - Lambda(lambda) at -30 vs boundary", 0.0, gap, 1e-6,
               "closed boundary value"),
    ]


def _legendre_grid(law, lo=-10.0, hi=10.0):
    """lambda and Lambda at the points of the curve at u = log(h/w) in
    [lo, hi], 1e-3 apart, with h = 1/(1 + e^-u) and w = 1/(1 + e^u), read
    off r = D/w (law.gap_over_w) with no fixed point to solve:
    lambda = -log1p(w*r/h), and Lambda = lambda + log1p(-r) (left) or
    log1p(-g), g = q*w/(w*r + h) (right).  Where g > 1/2, 1 - g has lost
    digits, so Lambda = lambda + log(q + psi) there, psi = sum_n p_n h^n
    from jump_pmf(100); h < 2/3 there, as phi(h) >= h, so the lumped tail
    moves it by < (2/3)^100."""
    u = np.linspace(lo, hi, round((hi - lo) * 1e3) + 1)
    # past u = -36.7, w rounds to 1 and g to 1 or past it: log1p(-g) is
    # -inf or nan there, on the branch np.where drops
    with np.errstate(divide="ignore", invalid="ignore"):
        h, w = 1.0 / (1.0 + np.exp(-u)), 1.0 / (1.0 + np.exp(u))
        r = law.gap_over_w(h, w)
        lam = -np.log1p(w * r / h)
        if law.orientation is Orientation.RIGHT:
            g = law.q * w / (w * r + h)
            psi = series_eval(law.jump_pmf(100), h)
            Lam = np.where(g <= 0.5, np.log1p(-g), lam + np.log(law.q + psi))
        else:
            Lam = lam + np.log1p(-r)
    return lam, Lam


def _suite_legendre(law):
    """Lambda*(x) against a brute-force sup of x*lambda - Lambda(lambda)
    over the points of _legendre_grid.  The sup is where Lambda' = x, and
    log(Lambda' - 1) is close to linear in u at both ends, so the slopes
    1.01 to 20 have their optima well inside u in [-10, 10] on the bundled
    laws (u in [-4.6, 6.8]).  Where a maximum sits at an end, the grid
    doubles its range on that side, at the same spacing, until every
    maximum is inside (u = 160 on the stable laws of beta = 0.03, right)
    or a doubling would pass U_MAX, so |u| <= 640, where e^|u| is finite.
    A maximum still at an end may miss a sup beyond it, so it fails the
    check."""
    out = []
    slopes, lo, hi = (1.01, 1.1, 1.5, 2.0, 3.0, 5.0, 10.0, 20.0), -10.0, 10.0
    while True:
        lam, Lam = _legendre_grid(law, lo, hi)
        tops = [int(np.argmax(x * lam - Lam)) for x in slopes]
        low = 0 in tops and 2.0 * lo >= -U_MAX
        high = lam.size - 1 in tops and 2.0 * hi <= U_MAX
        if not (low or high):
            break
        lo, hi = 2.0 * lo if low else lo, 2.0 * hi if high else hi
    max_dev = 0.0
    for x, i in zip(slopes, tops):
        dev = abs(rates.legendre(law, x) - (x * lam[i] - Lam[i]))
        max_dev = max(max_dev, dev if 0 < i < lam.size - 1 else math.inf)
    where = ("2e4 points" if (lo, hi) == (-10.0, 10.0) else
             f"{lam.size} points, u in [{lo:g}, {hi:g}],")
    out.append(_check("Legendre vs grid maximization (max dev)", 0.0, max_dev,
                      1e-6, f"grid sup over {where} of the curve"))
    env_dev = 0.0
    for x in (1.5, 2.0, 5.0):
        dx = 1e-5 * x
        slope = (rates.legendre(law, x + dx) - rates.legendre(law, x - dx)) / (2 * dx)
        env_dev = max(env_dev, abs(slope - rates.invert_slope(law, x)))
    out.append(_check("envelope d/dx Lambda* = G(x)", 0.0, env_dev, 1e-4,
                      "central differences"))
    return out


def _suite_oracle_equivalence(law):
    """The DP and renewal tails of A_n at n = 20, 40, 60.  Both sum
    P(S_k <= n) over k return times in one routine, and differ only in
    where the return-time law comes from: the DP takes it from the
    reflected chain's kernel (jump_pmf, jump_tails), the renewal oracle
    from the series of f0."""
    out = []
    for n in (20, 40, 60):
        kernel = oracle.build_kernel(law, level_cap=n)
        dp = oracle.exact_An_distribution(kernel, n)
        rn = oracle.renewal_tail_table(law, n)
        dev = float(np.max(np.abs(dp.tail - rn.tail[: len(dp.tail)])))
        out.append(_check(f"DP vs renewal, n={n}", 0.0, dev, 1e-12,
                          "two exact representations"))
    return out


def _suite_tauberian(law):
    """U_n ~ target * n^growth for the partial sums of the return
    probabilities, with growth = g and target = C/Gamma(1 + g) from the
    MDP constants (MdpConstants.bulk_constant), at n = 1e4 to 10%, its trend
    from n = 1e3, and to second order: r_n = U_n/(n^growth * target) =
    1 + A*n^-delta + o(n^-delta) with delta = 1 - alpha from the
    closed-form MDP constants, not fitted, so the Richardson extrapolant
    (r_2n*2^delta - r_n)/(2^delta - 1) at n = 5000 is 1 to within 1e-3."""
    consts = rates.mdp_constants(law)
    growth = consts.scaling_exponents[0]
    target = consts.bulk_constant / math.gamma(1.0 + growth)
    _, big = oracle.return_prob_partial_sums(law, 10000)
    r4 = big[10000] / 10000**growth
    r3 = big[1000] / 1000**growth
    monotone_or_bracket = (
        min(r3, r4) <= target <= max(r3, r4)
        or abs(r4 - target) <= abs(r3 - target)
    )
    two_delta = 2.0 ** (1.0 - consts.alpha)
    extrap = (r4 * two_delta - big[5000] / 5000**growth) / (
        (two_delta - 1.0) * target)
    return [
        _check("U_n / n^growth at n=1e4", target, r4, 0.10 * target,
               "series reciprocal partial sums"),
        Check("n=1e3 vs n=1e4 bracket or approach", target, r3,
              math.inf, monotone_or_bracket, "trend"),
        _check("Richardson in n^-(1-alpha) of U_n/(target n^growth), "
               "n=5e3 and 1e4", 1.0, extrap, 1e-3,
               "series reciprocal partial sums, second order"),
    ]


def _suite_ldp_trend(law):
    """r_n = -log P(A_n >= ceil(x*n))/n at x = LDP_TREND_X_REC from the
    renewal oracle, n = 100 to 800, against the LDP rate at x: monotone
    toward it, and a geometric extrapolant within 10% of it.  Each tail is
    one renewal_tail of one tau series, a power of it by binary powering,
    not a table of every row; one that underflows to 0 raises ValueError."""
    analytic = rates.ldp_rate(law, LDP_TREND_X_REC)
    ns = (100, 200, 400, 800)
    tau = oracle.tau_pmf(law, ns[-1])  # one series for every horizon
    rs = []
    for n in ns:
        k = math.ceil(LDP_TREND_X_REC * n)
        if (tail := oracle.renewal_tail(tau, n, k)) == 0.0:
            raise ValueError(f"P(A_{n} >= {k}) underflows to 0 in double")
        rs.append(-math.log(tail) / n)
    diffs = np.diff(rs)
    toward = bool(np.all(diffs > 0) and rs[-1] < analytic) or bool(
        np.all(diffs < 0) and rs[-1] > analytic
    )
    # Ratio-estimated geometric extrapolation: finite-n corrections decay
    # like n^-rho with rho unknown (and < 1 for heavy-tailed laws), so the
    # decay ratio is estimated from the last three points.
    d1, d2 = rs[-2] - rs[-3], rs[-1] - rs[-2]
    ratio = d1 / d2 if d2 != 0.0 else math.inf
    if math.isfinite(ratio) and ratio > 1.0:
        extrap = rs[-1] + d2 / (ratio - 1.0)
    else:
        extrap = 2.0 * rs[-1] - rs[-2]
    return [
        Check("finite-n rates monotone toward analytic", analytic, rs[-1],
              math.inf, toward, "renewal oracle"),
        _check("geometric extrapolant vs analytic rate", analytic, extrap,
               0.10 * analytic, "last three horizons"),
    ]


def _suite_mdp_constants(law):
    closed = rates.mdp_constants(law)
    numeric = rates.mdp_constants(law, method="numeric")
    return [
        _check("numeric alpha vs closed form", closed.alpha, numeric.alpha,
               0.02 * closed.alpha, "log-log regression"),
        _check("numeric c vs closed form", closed.c, numeric.c,
               0.02 * closed.c, "log-log regression"),
    ]


_SUITE_FUNCS = {
    "h-limits": _suite_h_limits,
    "lambda-limits": _suite_lambda_limits,
    "legendre": _suite_legendre,
    "oracle-equivalence": _suite_oracle_equivalence,
    "tauberian": _suite_tauberian,
    "ldp-trend": _suite_ldp_trend,
    "mdp-constants": _suite_mdp_constants,
}
SUITES = tuple(_SUITE_FUNCS)
