"""Cumulant and rate functions for the weak-record count.

Lambda(lambda) = ln E[e^(lambda*tau)] for the return time tau of the
reflected chain to 0, its derivative, the inverse slope map G, the
Legendre-Fenchel transform Lambda*, the resulting large-deviation rate, and
the moderate-deviation constants.

Every quantity is explicit in the fixed point h, since e^lambda = h/phi(h).
The curve is evaluated at h and w = 1 - h together, from the law's gaps
(IncrementLaw.gaps), so that no formula subtracts nearly equal numbers as
h -> 0 (lambda -> -inf) or w -> 0 (lambda -> 0).  cumulant and
cumulant_deriv take a float lambda and solve for h and w once at
s = e^lambda, with 1 - s = -expm1(lambda) handed to the solver so that it
keeps its relative precision as lambda -> 0.  invert_slope, legendre and
rate_point solve for no fixed point: they find Lambda' = x in u = log(h/w)
by ITP (bisect_logit) on log(Lambda' - 1) against log(x - 1), with the
bracket of bisection and about 11 curve evaluations instead of about 60;
the log of the excess keeps lambda to full precision as x -> 1.  _curve
and the gaps take Python floats and run on math alone, so a search makes
no numpy call.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .fixed_point import (_log, bisect_logit, one_minus_s_phi_prime_h,
                          solve_hw)
from .laws import MdpRegime, Orientation


@dataclass(frozen=True)
class RatePoint:
    """A solved rate evaluation at slope x = 1/(record density)."""

    x: float
    lam: float
    Lambda: float
    Lambda_star: float
    ldp_rate: float


@dataclass(frozen=True)
class MdpConstants:
    alpha: float
    c: float
    regime: MdpRegime
    scaling_exponents: tuple
    rate_coefficient: float
    rate_exponent: float
    bulk_constant: float
    uncertainty: float = 0.0


def _boundary_log(law):
    """-ln(q+p_0) (right) or -ln(1-q) (left): Lambda*(1)."""
    if law.orientation is Orientation.RIGHT:
        return -math.log(law.q + law.p0)
    return -math.log(1.0 - law.q)


def _curve(law, h, w, lam=None):
    """(lambda, Lambda, Lambda' - 1) on the curve at floats h and w = 1 - h.

    lambda = -log1p(D/h) unless the caller hands in the lambda it has.
    The gaps give r = D/w, in range after D underflows, and D = w*r.
    With phi = D + h and A = D + h*D' (so 1 - s*phi'(h) = A/phi):
      right: f0/s = psi + q, and Lambda = log1p(-q*w/phi) while that
             argument is small, else lambda + log(psi + q);
             Lambda' - 1 = h*chi*phi / ((psi + q)*A);
      left:  f0/s = 1 - r, so Lambda = lambda + log1p(-r), and
             Lambda' - 1 = h*phi*((D' - r)/w) / ((1 - r)*A).
    Lambda' - 1 is formed without subtracting 1, and no numerator or
    denominator subtracts nearly equal numbers.  w = 0 is the point s = 1,
    where lambda = Lambda = 0 and Lambda' is infinite: (-0.0, -0.0, inf).
    """
    if w == 0.0:
        return -0.0, -0.0, math.inf
    r, dp, psi, chi = law.gaps(h, w)
    d = w * r
    phi, a = d + h, d + h * dp
    lam = -math.log1p(d / h) if lam is None else lam
    if law.orientation is Orientation.RIGHT:
        q = law.q
        g = q * w / phi
        Lam = math.log1p(-g) if g <= 0.5 else lam + math.log(psi + q)
        return lam, Lam, h * chi * phi / ((psi + q) * a)
    return (lam, lam + math.log1p(-r),
            h * phi * ((dp - r) / w) / ((1.0 - r) * a))


def _at_lambda(law, lam):
    """_curve at s = e^lambda, for a float lambda < 0."""
    if lam >= 0.0:
        raise ValueError("lambda must be negative")
    h, w = solve_hw(law, np.exp(lam), -np.expm1(lam))
    return _curve(law, h, w, lam)


def cumulant(law, lam):
    """Lambda(lambda) for a float lambda < 0; nonpositive, increasing."""
    return _at_lambda(law, lam)[1]


def cumulant_deriv(law, lam):
    """Lambda'(lambda) in (1, inf) for a float lambda < 0; increasing."""
    return 1.0 + _at_lambda(law, lam)[2]


def _slope_point(law, x):
    """(lambda, Lambda, Lambda*) where Lambda' = x, for finite x > 1.

    ITP in u = log(h/w) on log(Lambda' - 1) against log(x - 1): Lambda' - 1
    rises from 0 at h = 0 to infinity at w = 0, and its log is close to
    linear in u at both ends.  Lambda* = x*lambda - Lambda; once lambda =
    -log1p(D/h) = -D/h is subnormal or 0, x*lambda is -(x*w)*(D/w)/h, from
    D/w (IncrementLaw.gap_over_w), which stays in range after D underflows.
    """
    if not 1.0 < x < math.inf:
        raise ValueError("x must be finite and > 1 (G(1) = -infinity)")
    h, w = bisect_logit(lambda h, w: _log(_curve(law, h, w)[2]),
                        math.log(x - 1.0))
    lam, Lam, _ = _curve(law, h, w)
    if lam > -sys.float_info.min:  # lambda = -D/h is subnormal or 0
        xlam = -(x * w) * law.gap_over_w(h, w) / h
    else:
        xlam = x * lam
    return lam, Lam, xlam - Lam


def invert_slope(law, x):
    """G(x): the unique lambda < 0 with Lambda'(lambda) = x, for x > 1."""
    return _slope_point(law, x)[0]


def legendre(law, x):
    """Lambda*(x) = sup_{lambda<=0} (x*lambda - Lambda(lambda)) for x >= 1.

    Returns +inf for x < 1, and the exact boundary value at x = 1, where
    the supremum is attained at lambda = -infinity.
    """
    if x < 1.0:
        return math.inf
    if x == 1.0:
        return _boundary_log(law)
    return _slope_point(law, x)[2]


def ldp_rate(law, x_rec):
    """Decay rate of P(A_n >= x_rec * n): x_rec * Lambda*(1/x_rec).

    +inf for record densities above 1 (A_n <= n); tends to 0 as
    x_rec -> 0+ (degenerate lower edge of the LDP).
    """
    if x_rec > 1.0:
        return math.inf
    return rate_point(law, x_rec).ldp_rate


def rate_point(law, x_rec):
    """Solve the full (x, lambda, Lambda, Lambda*, rate) tuple."""
    if not 0.0 < x_rec <= 1.0:
        raise ValueError("record density must lie in (0, 1]")
    x = 1.0 / x_rec
    if x == 1.0:  # the supremum is attained at lambda = -infinity
        lstar = _boundary_log(law)
        return RatePoint(x, -math.inf, -math.inf, lstar, lstar)
    lam, Lam, lstar = _slope_point(law, x)
    return RatePoint(x, lam, Lam, lstar, x_rec * lstar)


# -- moderate deviations -----------------------------------------------------

def _fill_mdp(law, alpha, c, regime, uncertainty=0.0):
    """MdpConstants from the renewal index g, its complement 1 - g and the
    bulk constant C of U_n ~ C*n^g/Gamma(1 + g): right (1 - alpha, alpha,
    (1 - alpha)*c/q), left (alpha, 1 - alpha, 1/((1 - alpha)*c)).  The rate
    is the Mittag-Leffler tail, (1 - g)*g^(g/(1-g))/C^(1/(1-g)) x^(1/(1-g))."""
    if law.orientation is Orientation.RIGHT:
        g, g1, bulk = 1.0 - alpha, alpha, (1.0 - alpha) * c / law.q
    else:
        g, g1, bulk = alpha, 1.0 - alpha, 1.0 / ((1.0 - alpha) * c)
    coeff = g1 * g ** (g / g1) / bulk ** (1.0 / g1)
    return MdpConstants(alpha, c, regime, (g, g1), coeff, 1.0 / g1, bulk,
                        uncertainty)


def mdp_constants(law, method="auto"):
    """Power-law constants (alpha, c) of 1 - s*phi'(h(s)) near s = 1, plus
    the bulk constant and MDP rate coefficient and exponent they induce.

    method="auto" uses the law's closed form (IncrementLaw.mdp_closed_form).
    method="numeric" fits (alpha, c) by log-log regression on the three
    points s = 1 - 10^-k, k = 6..8, and reports the pairwise-slope spread
    as an uncertainty.
    """
    if method == "auto":
        return _fill_mdp(law, *law.mdp_closed_form())
    if method != "numeric":
        raise ValueError("method must be 'auto' or 'numeric'")

    ks = np.arange(6, 9)
    logx = -ks * math.log(10.0)  # ln(1-s)
    logy = np.array(
        [math.log(one_minus_s_phi_prime_h(law, 1.0 - 10.0 ** (-k))) for k in ks]
    )
    alpha_hat, b = np.polyfit(logx, logy, 1)
    c_hat = math.exp(b)
    slopes = np.diff(logy) / np.diff(logx)
    spread = float(np.max(np.abs(slopes - alpha_hat)) / abs(alpha_hat))
    if spread > 0.05:
        raise RuntimeError(
            f"no clean power law: pairwise slope spread {spread:.3%} > 5%"
        )
    return _fill_mdp(
        law, float(alpha_hat), c_hat, MdpRegime.NUMERIC_ESTIMATE, spread
    )


def mdp_rate(constants, x):
    """Positive decay rate coefficient * x^exponent of the MDP tail."""
    if x <= 0.0:
        raise ValueError("x must be positive")
    return constants.rate_coefficient * x**constants.rate_exponent
