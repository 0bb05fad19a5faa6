"""Cumulant and rate functions for the weak-record count.

Lambda(lambda) = ln E[e^(lambda*tau)] for the return time tau of the
reflected chain to 0, its derivative, the inverse slope map G, the
Legendre-Fenchel transform Lambda*, the resulting large-deviation rate, and
the moderate-deviation constants.

Internally everything is parameterized by t = e^lambda in (0, 1).  For
t <= 1/2 both Lambda and Lambda' are evaluated from the truncated tau
series (geometric convergence, no cancellation even at lambda = -700); for
t > 1/2 the closed forms in h(t) are used.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .fixed_point import f0_series, one_minus_s_phi_prime_h, solve_h
from .laws import MdpRegime, Orientation
from .series import series_eval

T_SERIES_SWITCH = 0.5
SERIES_ORDER = 256
LAMBDA_FLOOR = -700.0
LAMBDA_CLAMP = -745.0  # below this e^lambda underflows to 0


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
    orientation: Orientation
    uncertainty: float = 0.0


@functools.lru_cache(maxsize=32)
def _tau_series(law):
    f = f0_series(law, SERIES_ORDER).coeffs
    m = np.arange(len(f))
    return f, m


def _boundary_log(law):
    """-ln(q+p_0) (right) or -ln(1-q) (left): Lambda*(1)."""
    if law.orientation is Orientation.RIGHT:
        return -math.log(law.q + law.p0)
    return -math.log(1.0 - law.q)


def cumulant(law, lam):
    """Lambda(lambda) for lambda < 0; nonpositive, increasing.

    lam may be a float or a numpy array; an array takes each element down
    the same branch as the scalar call, in one vectorised pass per branch.
    """
    if isinstance(lam, np.ndarray) and lam.ndim:
        return _cumulant_array(law, lam)
    if lam >= 0.0:
        raise ValueError("lambda must be negative")
    if lam <= LAMBDA_FLOOR:
        # deep-lambda asymptote: lambda - Lambda -> Lambda*(1)
        return lam + (-_boundary_log(law))
    t = math.exp(lam)
    if t <= T_SERIES_SWITCH:
        f, _ = _tau_series(law)
        # Lambda = lambda + ln( sum_m f_m t^(m-1) ), stable for tiny t.
        return lam + math.log(series_eval(f[1:], t))
    h = solve_h(law, t)
    w = 1.0 - h
    if law.orientation is Orientation.RIGHT:
        return math.log1p(-law.q * t * w / h)
    return math.log1p(-(1.0 - t) / w)


def _cumulant_array(law, lam):
    """cumulant on every element of an array, split by the scalar branches."""
    lam = np.asarray(lam, dtype=float)
    if np.any(lam >= 0.0):
        raise ValueError("lambda must be negative")
    out = lam + (-_boundary_log(law))  # the lam <= LAMBDA_FLOOR branch
    t = np.exp(lam)
    deep = lam <= LAMBDA_FLOOR
    series = ~deep & (t <= T_SERIES_SWITCH)
    closed = ~deep & ~series
    f, _ = _tau_series(law)
    out[series] = lam[series] + np.log(series_eval(f[1:], t[series]))
    t = t[closed]
    h = solve_h(law, t)
    w = 1.0 - h
    if law.orientation is Orientation.RIGHT:
        out[closed] = np.log1p(-law.q * t * w / h)
    else:
        out[closed] = np.log1p(-(1.0 - t) / w)
    return out


def cumulant_deriv(law, lam):
    """Lambda'(lambda) in (1, inf), strictly increasing."""
    if lam >= 0.0:
        raise ValueError("lambda must be negative")
    if lam <= LAMBDA_CLAMP:
        return 1.0
    t = math.exp(lam)
    if t <= T_SERIES_SWITCH:
        f, m = _tau_series(law)
        tp = t ** (m[1:] - 1)
        den = float(np.dot(f[1:], tp))
        num = float(np.dot(f[1:] * m[1:], tp))
        return num / den
    h = solve_h(law, t)
    php = law.phi_prime(h)
    if law.orientation is Orientation.RIGHT:
        num = law.q * t * (h * (1.0 - t * php) + t * php)
        den = (1.0 - t * php) * ((1.0 + law.q * t) * h - law.q * t)
        return num / den
    hp = law.phi(h) / (1.0 - t * php)
    # 1 - phi(h) = (t - h)/t since h = t*phi(h)
    return 1.0 + hp * t / (1.0 - h) - php * hp * t * t / (t - h)


def invert_slope(law, x):
    """G(x): the unique lambda < 0 with Lambda'(lambda) = x, for x > 1.

    Monotonicity of Lambda' guarantees plain bisection; the bracket is
    grown by doubling on the left.  Clamped at lambda = -745 when x is so
    close to 1 that the slope never drops below it in double precision.
    """
    if x <= 1.0:
        raise ValueError("x must be > 1 (G(1) = -infinity)")
    lam_hi = -1e-14
    lam_lo = -1.0
    while cumulant_deriv(law, lam_lo) >= x:
        lam_lo *= 2.0
        if lam_lo <= LAMBDA_CLAMP:
            return LAMBDA_CLAMP
    for _ in range(200):
        mid = 0.5 * (lam_lo + lam_hi)
        d = cumulant_deriv(law, mid)
        if abs(d - x) <= 1e-10 * x:
            return mid
        if d < x:
            lam_lo = mid
        else:
            lam_hi = mid
    return 0.5 * (lam_lo + lam_hi)


def legendre(law, x):
    """Lambda*(x) = sup_{lambda<=0} (x*lambda - Lambda(lambda)) for x >= 1.

    Returns +inf for x < 1, and the exact boundary value at x = 1, where
    the supremum is attained at lambda = -infinity.
    """
    if x < 1.0:
        return math.inf
    if x == 1.0:
        return _boundary_log(law)
    lam = invert_slope(law, x)
    return x * lam - cumulant(law, lam)


def ldp_rate(law, x_rec):
    """Decay rate of P(A_n >= x_rec * n): x_rec * Lambda*(1/x_rec).

    +inf for record densities above 1 (A_n <= n); tends to 0 as
    x_rec -> 0+ (degenerate lower edge of the LDP).
    """
    if x_rec <= 0.0:
        raise ValueError("record density must be positive")
    if x_rec > 1.0:
        return math.inf
    return x_rec * legendre(law, 1.0 / x_rec)


def rate_point(law, x_rec):
    """Solve the full (x, lambda, Lambda, Lambda*, rate) tuple."""
    if not 0.0 < x_rec <= 1.0:
        raise ValueError("record density must lie in (0, 1]")
    x = 1.0 / x_rec
    if x == 1.0:
        lam = -math.inf
        Lam = -math.inf
        lstar = _boundary_log(law)
    else:
        lam = invert_slope(law, x)
        Lam = cumulant(law, lam)
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
    return MdpConstants(
        alpha, c, regime, scaling, coeff, exponent, law.orientation, uncertainty
    )


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
