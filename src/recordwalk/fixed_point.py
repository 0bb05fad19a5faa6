"""The minimal nonnegative fixed point h(s) of x = s*phi(x).

h(s) is the generating function of the descending first-passage time of the
reflected chain; everything downstream (return-time law, cumulants, rate
functions) is built from it.  solve_hw finds h and w = 1 - h together at
every s in (0, 1) by one bisection in u = log(h/w) (bisect_logit) and one
Newton step, so that both keep their relative precision as s -> 0 and as
s -> 1.  The coefficient expansion uses series Newton with precision
doubling.
"""

from __future__ import annotations

import warnings

import numpy as np

from .laws import Orientation
from .series import SeriesPoly, series_mul, series_reciprocal

RESIDUAL_TOL = 1e-13
NEAR_SINGULAR = 1e-12
U_MAX = 750.0  # |log(h/w)| beyond which h or w is 0 in double precision


class ConvergenceError(RuntimeError):
    pass


def solve_h(law, s):
    """Minimal root in [0, 1] of x = s*phi(x).

    For s < 1 the root in [0, 1) is unique under criticality: g(x) =
    s*phi(x) - x has g(0) = s*q > 0, g(1) = s - 1 <= 0 and phi is convex.

    s may be a float or a numpy array; an array is solved in one vectorised
    pass that runs the scalar algorithm on every element, with the same
    result bit for bit.
    """
    return solve_hw(law, s)[0]


def solve_hw(law, s):
    """(h(s), w) with w = 1 - h, as solve_h takes s.

    The root is bisected in u = log(h/w) on t*h = s*D, with t = 1 - s, the
    fixed-point equation in the gap D = phi(h) - h, until the bracket ends
    are adjacent doubles.  That leaves about |u| ulps in h and w; one Newton
    step on the same equation in the smaller of the two removes them, so
    both keep their relative precision on all of [0, 1].
    """
    return _solve_hw(law, s, 1.0 - s)


def _solve_hw(law, s, t):
    """solve_hw with t = 1 - s handed in, for callers that know it to more
    relative precision than 1.0 - s (cumulant has -expm1(lambda))."""
    s_all = np.asarray(s, dtype=float)
    outside = s_all[~((0.0 <= s_all) & (s_all <= 1.0))]
    if outside.size:
        raise ValueError(f"s = {float(outside[0])!r} outside [0, 1]")
    if s_all.ndim:
        h = (t == 0.0).astype(float)  # s = 0 and s = 1 are their own roots
        w = 1.0 - h
        inner = (s_all > 0.0) & (t > 0.0)
        s, t = s_all[inner], t[inner]
        h[inner], w[inner] = _polish(law, s, t, *_bisect_logit_array(
            lambda h, w, i: t[i] * h - s[i] * law.gap(h, w),
            np.zeros_like(s)))
        _check_residual(law, s, h[inner])
        return h, w
    s, t = float(s), float(t)
    if s == 0.0 or t == 0.0:
        return (0.0, 1.0) if s == 0.0 else (1.0, 0.0)
    h, w = map(float, _polish(law, s, t, *bisect_logit(
        lambda h, w: t * h - s * law.gap(h, w), 0.0)))
    _check_residual(law, s, h)
    return h, w


def _polish(law, s, t, h, w):
    """One Newton step on t*h - s*D = 0 in the smaller of h and w; its
    derivative is t + s*D' in h and minus that in w."""
    d, dp, _, _ = law.gaps(h, w)
    step = (t * h - s * d) / (t + s * dp)
    return np.where(h < w, h - step, h), np.where(h < w, w, w + step)


def _check_residual(law, s, h):
    res = np.ravel(s * law.phi(h) - h)
    over = np.flatnonzero(np.abs(res) > RESIDUAL_TOL)
    if over.size:
        i = over[0]
        raise ConvergenceError(
            f"fixed-point residual {float(res[i])!r} exceeds {RESIDUAL_TOL} "
            f"at s={float(np.ravel(s)[i])!r}"
        )


def _logistic_hw(u):
    """(h, w) with log(h/w) = u and h + w = 1, each to full relative
    precision; u a float or an array.  Both take np.exp, so that they give
    the same bits."""
    t = np.exp(-abs(u))
    if isinstance(u, float):
        t = float(t)
        small, big = t / (1.0 + t), 1.0 / (1.0 + t)
        return (small, big) if u < 0.0 else (big, small)
    small, big = t / (1.0 + t), 1.0 / (1.0 + t)
    return np.where(u < 0.0, small, big), np.where(u < 0.0, big, small)


def bisect_logit(f, target):
    """(h, w) where f(h, w) crosses target once, upwards in u = log(h/w).

    Bisection in u over [-U_MAX, U_MAX], whose ends are h = 0 and w = 0,
    until the bracket ends are adjacent doubles.
    """
    lo, hi = -U_MAX, U_MAX
    while lo < (mid := 0.5 * (lo + hi)) < hi:
        if f(*_logistic_hw(mid)) < target:
            lo = mid
        else:
            hi = mid
    return _logistic_hw(mid)


def _bisect_logit_array(f, target):
    """bisect_logit on arrays: f(h, w, i) maps arrays (h, w) at the indices
    i to an array that crosses target[i] elementwise.  Only elements whose
    bracket ends are not yet adjacent are evaluated; the rest keep their mid."""
    lo, hi = np.full_like(target, -U_MAX), np.full_like(target, U_MAX)
    m, mid = 0.5 * (lo + hi), np.zeros_like(target)
    i = np.arange(target.size)
    while i.size:
        up = f(*_logistic_hw(m), i) < target[i]
        lo, hi = np.where(up, m, lo), np.where(up, hi, m)
        m = 0.5 * (lo + hi)
        if not (live := (lo < m) & (m < hi)).all():
            mid[i] = m
            i, lo, hi, m = i[live], lo[live], hi[live], m[live]
    return _logistic_hw(mid)


def h_deriv(law, s):
    """h'(s) = phi(h)/(1 - s*phi'(h)) for s in (0, 1)."""
    if not 0.0 < s < 1.0:
        raise ValueError(f"s = {s!r} outside (0, 1)")
    phi, denom = _phi_and_slope_gap(law, s)
    if denom < NEAR_SINGULAR:
        warnings.warn(
            f"h'(s) near-singular at s={s!r}: 1 - s*phi'(h) = {denom!r}",
            RuntimeWarning,
        )
    return float(phi / denom)


def h_series(law, order):
    """Coefficients of h through s^order.

    Series Newton on F(H) = H - s*phi(H): each step doubles the matched
    order, so the result agrees with the true expansion through s^order.
    """
    if order < 1:
        raise ValueError("order must be >= 1")
    h = np.array([0.0, law.q])  # h = q*s + O(s^2)
    m = 1
    while m < order:
        m = min(2 * m, order)
        h = np.concatenate([h, np.zeros(m + 1 - len(h))])[: m + 1]
        phi_h, phip_h = law.phi_series(h, m)
        # F = H - s*phi(H); F' = 1 - s*phi'(H)
        f = h - _shift(phi_h, m)
        fp = -_shift(phip_h, m)
        fp[0] += 1.0
        h = h - series_mul(f, series_reciprocal(fp, m), m)
    return SeriesPoly(h)


def _shift(c, order):
    """Multiply a coefficient array by s, truncating at the given order."""
    out = np.zeros(order + 1)
    out[1:] = c[:order]
    return out


def f0_series(law, order):
    """Coefficients of f0(s) = E[s^tau], tau the return time of the
    reflected chain to 0.

    Right orientation: f0 = 1 + q s - q s/h(s).  Left orientation:
    f0 = s*rho(h) with rho(H) = (1 - phi(H))/(1 - H) = sum_j T_j H^j
    (law.tail_series), a consequence of h = s*phi(h), with no subtraction.
    """
    h = h_series(law, order + 1).coeffs
    f0 = np.zeros(order + 1)  # tau >= 1
    if law.orientation is Orientation.RIGHT:
        r = series_reciprocal(h[1:], order)  # s/h; h/s has constant term q
        f0[1:] = -law.q * r[1:]
        f0[1] += law.q
    else:
        f0[1:] = law.tail_series(h[:order], order - 1)
    return SeriesPoly(f0)


def one_minus_s_phi_prime_h(law, s):
    """1 - s*phi'(h(s)) = (D + h*D')/(D + h), without cancellation."""
    return float(_phi_and_slope_gap(law, s)[1])


def _phi_and_slope_gap(law, s):
    """(phi(h), 1 - s*phi'(h)) at h = h(s), from the gaps at h and w."""
    h, w = solve_hw(law, s)
    d, dp, _, _ = law.gaps(h, w)
    return d + h, (d + h * dp) / (d + h)
