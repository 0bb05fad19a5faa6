"""Cumulant and rate functions for the weak-record count.

Lambda(lambda) = ln E[e^(lambda*tau)] for the return time tau of the
reflected chain to 0, its derivative, the inverse slope map G, the
Legendre-Fenchel transform Lambda*, the resulting large-deviation rate, and
the moderate-deviation constants.

Every quantity is explicit in the fixed point h, since e^lambda = h/phi(h).
The curve is evaluated at h and w = 1 - h together, from the law's gaps
(IncrementLaw.gaps), so that no formula subtracts nearly equal numbers as
h -> 0 (lambda -> -inf) or w -> 0 (lambda -> 0).  cumulant and
cumulant_deriv solve for h and w once at s = e^lambda, with 1 - s =
-expm1(lambda) handed to the solver so that it keeps its relative precision
as lambda -> 0.  invert_slope, legendre and rate_point solve for no fixed
point: they find Lambda' = x in u = log(h/w) by ITP (bisect_logit) on
log(Lambda' - 1) against log(x - 1), with the bracket of bisection and
about 11 curve evaluations instead of about 60; the log of the excess keeps
lambda to full precision as x -> 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .fixed_point import _solve_hw, bisect_logit, one_minus_s_phi_prime_h
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
    uncertainty: float = 0.0


def _boundary_log(law):
    """-ln(q+p_0) (right) or -ln(1-q) (left): Lambda*(1)."""
    if law.orientation is Orientation.RIGHT:
        return -math.log(law.q + law.p0)
    return -math.log(1.0 - law.q)


def _curve(law, h, w, lam=None):
    """(lambda, Lambda, Lambda' - 1) at the point h = 1 - w of the curve.

    lambda = -log1p(D/h) unless the caller hands in the lambda it has.
    With phi = D + h and A = D + h*D' (so 1 - s*phi'(h) = A/phi):
      right: f0/s = psi + q, and Lambda = log1p(-q*w/phi) while that
             argument is small, else lambda + log(psi + q);
             Lambda' - 1 = h*chi*phi / ((psi + q)*A);
      left:  f0/s = 1 - D/w, so Lambda = lambda + log1p(-D/w), and with
             r = D/w, Lambda' - 1 = h*phi*((D' - r)/w) / ((1 - r)*A).
    Lambda' - 1 is formed without subtracting 1, and no numerator or
    denominator subtracts nearly equal numbers.
    """
    d, dp, psi, chi = law.gaps(h, w)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        if lam is None:
            lam = -np.log1p(d / h)
        phi, a = d + h, d + h * dp
        if law.orientation is Orientation.RIGHT:
            q = law.q
            g = q * w / phi
            Lam = np.where(g <= 0.5, np.log1p(-g), lam + np.log(psi + q))
            excess = h * chi * phi / ((psi + q) * a)
        else:
            r = d / w
            Lam = lam + np.log1p(-r)
            excess = h * phi * ((dp - r) / w) / ((1.0 - r) * a)
    return lam, Lam, excess


def _at_lambda(law, lam):
    """_curve at s = e^lambda, for a float or an array of lambda < 0."""
    if np.any(np.asarray(lam) >= 0.0):
        raise ValueError("lambda must be negative")
    h, w = _solve_hw(law, np.exp(lam), -np.expm1(lam))
    out = _curve(law, h, w, lam)
    return out if np.ndim(lam) else [float(v) for v in out]


def cumulant(law, lam):
    """Lambda(lambda) for lambda < 0; nonpositive, increasing.

    lam may be a float or a numpy array; both take the same body.
    """
    return _at_lambda(law, lam)[1]


def cumulant_deriv(law, lam):
    """Lambda'(lambda) in (1, inf), strictly increasing; a float or an
    array, as cumulant."""
    return 1.0 + _at_lambda(law, lam)[2]


def _slope_point(law, x):
    """(lambda, Lambda) where Lambda' = x, for finite x > 1.

    ITP in u = log(h/w) on log(Lambda' - 1) against log(x - 1): Lambda' - 1
    rises from 0 at h = 0 to infinity at w = 0, and its log is close to
    linear in u at both ends.
    """
    if not 1.0 < x < math.inf:
        raise ValueError("x must be finite and > 1 (G(1) = -infinity)")
    h, w = bisect_logit(lambda h, w: np.log(_curve(law, h, w)[2]),
                        math.log(x - 1.0))
    lam, Lam, _ = _curve(law, h, w)
    return float(lam), float(Lam)


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
    lam, Lam = _slope_point(law, x)
    return x * lam - Lam


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
    lam, Lam = _slope_point(law, x)
    lstar = x * lam - Lam
    return RatePoint(x, lam, Lam, lstar, x_rec * lstar)


# -- moderate deviations -----------------------------------------------------

def _fill_mdp(law, alpha, c, regime, uncertainty=0.0):
    if law.orientation is Orientation.RIGHT:
        scaling = (1.0 - alpha, alpha)
        coeff = alpha / (1.0 - alpha) * (law.q / c) ** (1.0 / alpha)
        exponent = 1.0 / alpha
    else:
        scaling = (alpha, 1.0 - alpha)
        coeff = (c * (1.0 - alpha) ** (2.0 - alpha) * alpha**alpha) ** (
            1.0 / (1.0 - alpha)
        )
        exponent = 1.0 / (1.0 - alpha)
    return MdpConstants(alpha, c, regime, scaling, coeff, exponent, uncertainty)


def mdp_constants(law, method="auto"):
    """Power-law constants (alpha, c) of 1 - s*phi'(h(s)) near s = 1, plus
    the moderate-deviation rate coefficient and exponent they induce.

    method="auto" uses the law's closed form (IncrementLaw.mdp_closed_form).
    method="numeric" fits (alpha, c) by log-log regression on
    s = 1 - 10^-k, k = 2..8, using the three finest points, and reports the
    pairwise-slope spread as an uncertainty.
    """
    if method == "auto":
        return _fill_mdp(law, *law.mdp_closed_form())
    if method != "numeric":
        raise ValueError("method must be 'auto' or 'numeric'")

    ks = np.arange(2, 9)
    logx = -ks * math.log(10.0)  # ln(1-s)
    logy = np.array(
        [math.log(one_minus_s_phi_prime_h(law, 1.0 - 10.0 ** (-k))) for k in ks]
    )
    x3, y3 = logx[-3:], logy[-3:]
    alpha_hat, b = np.polyfit(x3, y3, 1)
    c_hat = math.exp(b)
    slopes = np.diff(y3) / np.diff(x3)
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
