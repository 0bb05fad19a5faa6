"""The minimal nonnegative fixed point h(s) of x = s*phi(x).

h(s) is the generating function of the descending first-passage time of the
reflected chain; everything downstream (return-time law, cumulants, rate
functions) is built from it.  solve_hw finds h and w = 1 - h together at
every s in (0, 1) by one root search in u = log(h/w) (bisect_logit) and one
Newton step, so that both keep their relative precision as s -> 0 and as
s -> 1.  bisect_logit is the ITP method on log forms of the equation: it
stops where bisection stops, when the bracket ends are adjacent doubles,
takes at most one step more than bisection, and on these smooth functions
about 11 instead of about 60.  The coefficients of h come from series
Newton on F(H) = H - s*phi(H) up the ladder order, order//2, ..., 1 taken
from the top: a step from h right through s^lo is right through
s^(2*lo + 1), and forms only F above s^lo, F' = 1 - s*phi'(H) and its
reciprocal to half the order, and their middle product.
"""

from __future__ import annotations

import math
from types import SimpleNamespace

import numpy as np

from .laws import Orientation
from .series import SeriesPoly, series_mul, series_reciprocal

RESIDUAL_TOL = 1e-13
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

    The root is bracketed in u = log(h/w) on log(t*h) = log(s*D), with
    t = 1 - s, the fixed-point equation in the gap D = phi(h) - h, until the
    bracket ends are adjacent doubles.  That leaves about |u| ulps in h and
    w; one Newton step on t*h = s*D in the smaller of the two removes them,
    so both keep their relative precision on all of [0, 1].
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
        # log(t*h) - log(s*D), with D first: in a long sweep no other
        # array is alive while the gap runs
        h[inner], w[inner] = _polish(law, s, t, *_bisect_logit_array(
            lambda h, w, i: -np.log(law.gap(h, w) * s[i]) + np.log(t[i] * h),
            s.size))
        _check_residual(law, s, h[inner])
        return h, w
    s, t = float(s), float(t)
    if s == 0.0 or t == 0.0:
        return (0.0, 1.0) if s == 0.0 else (1.0, 0.0)
    h, w = map(float, _polish(law, s, t, *bisect_logit(
        lambda h, w: -np.log(law.gap(h, w) * s) + np.log(t * h), 0.0)))
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


# ITP (Oliveira & Takahashi, ACM TOMS 47(1), 2020) on [-U_MAX, U_MAX] with
# k1 = 0.2/(2*U_MAX), k2 = 2 and n0 = 1: at most one step more than bisection
ITP_K1 = 0.2 / (2.0 * U_MAX)
_FLOAT_OPS = SimpleNamespace(
    where=lambda c, a, b: a if c else b, maximum=max, ulp=math.ulp,
    copysign=math.copysign, isfinite=math.isfinite)
_ARRAY_OPS = SimpleNamespace(
    where=np.where, maximum=np.maximum, ulp=np.spacing,
    copysign=np.copysign, isfinite=np.isfinite)


def _itp_point(lo, mid, hi, ylo, yhi, j, ops):
    """Step j of ITP in the bracket (lo, hi) with midpoint mid, where
    y = f - target is ylo < 0 and yhi >= 0: regula falsi, truncated towards
    mid by k1*width^2 (at least an ulp of the larger end, so that the
    bracket can close at ulp scale), then projected within
    2*U_MAX*2^-j - width/2 of mid.  mid itself while an end value is
    unknown (nan) or not finite, or when the point falls outside the open
    bracket.  ops holds the float or the array forms of the same
    arithmetic."""
    width = hi - lo
    delta = ops.maximum(ITP_K1 * width * width,
                        ops.ulp(ops.maximum(abs(lo), abs(hi))))
    x = (yhi * lo - ylo * hi) / (yhi - ylo)
    d = mid - x
    x = ops.where(delta <= abs(d), x + ops.copysign(delta, d), mid)
    r = 2.0 * U_MAX * 2.0 ** -j - 0.5 * width
    x = ops.where(abs(x - mid) <= r, x, mid - ops.copysign(r, d))
    return ops.where(ops.isfinite(ylo) & ops.isfinite(yhi) & (lo < x)
                     & (x < hi), x, mid)


def bisect_logit(f, target):
    """(h, w) where f(h, w) crosses target once, upwards in u = log(h/w).

    ITP in u over [-U_MAX, U_MAX], whose ends are h = 0 and w = 0 and are
    never evaluated, until the bracket ends are adjacent doubles: the
    bracket of bisection, in at most one step more, and far fewer on a
    smooth f, which callers make close to linear in u by handing in log
    forms.  f is evaluated with numpy's divide and invalid warnings off, so
    that a log form may meet log(0) near the ends.
    """
    lo, hi, ylo, yhi, j = -U_MAX, U_MAX, math.nan, math.nan, 0
    with np.errstate(divide="ignore", invalid="ignore"):
        while lo < (mid := 0.5 * (lo + hi)) < hi:
            x = _itp_point(lo, mid, hi, ylo, yhi, j, _FLOAT_OPS)
            if (y := float(f(*_logistic_hw(x))) - target) < 0.0:
                lo, ylo = x, y
            else:
                hi, yhi = x, y
            j += 1
    return _logistic_hw(mid)


def _bisect_logit_array(f, n):
    """bisect_logit on n elements with target 0, step for step: f(h, w, i)
    maps arrays (h, w) at the indices i to an array that crosses 0
    elementwise.  Only elements whose bracket ends are not yet adjacent are
    evaluated; the rest keep their mid."""
    lo, hi = np.full(n, -U_MAX), np.full(n, U_MAX)
    ylo, yhi = np.full(n, np.nan), np.full(n, np.nan)
    mid, i, j, x = np.zeros(n), np.arange(n), 0, np.zeros(n)
    with np.errstate(divide="ignore", invalid="ignore"):
        while i.size:  # x holds the midpoints of the brackets
            x = _itp_point(lo, x, hi, ylo, yhi, j, _ARRAY_OPS)
            y = f(*_logistic_hw(x), i)
            up = y < 0.0
            np.copyto(lo, x, where=up)
            np.copyto(ylo, y, where=up)
            np.copyto(hi, x, where=~up)
            np.copyto(yhi, y, where=~up)
            del y  # freed before f runs again, on up to 2e4 points
            j, x = j + 1, 0.5 * (lo + hi)
            if not (live := (lo < x) & (x < hi)).all():
                mid[i] = x
                i, lo, hi, x = i[live], lo[live], hi[live], x[live]
                ylo, yhi = ylo[live], yhi[live]
    return _logistic_hw(mid)


def h_series(law, order):
    """Coefficients of h through s^order.

    Series Newton on F(H) = H - s*phi(H) up the ladder order, order//2,
    ..., 1, from h = q*s, which is right through s^1.  F'' = -s*phi''(H)
    carries a factor s, so a step from h right through s^lo makes it right
    through s^(2*lo + 1), and the next rung m, with m // 2 = lo, is at most
    that: order 10001 ends 5000 -> 10001.  F is O(s^(lo+1)), so a step
    forms F only at s^(lo+1..m), and F' and 1/F' only through
    s^d, d = m - lo - 1; the middle product h[lo+1:] -= F[lo+1:]*(1/F')
    through s^d leaves h[:lo+1] as it is.
    """
    if order < 1:
        raise ValueError("order must be >= 1")
    h = np.zeros(order + 1)
    h[1] = law.q  # h = q*s + O(s^2)
    for k in reversed(range(int(order).bit_length() - 1)):
        m = order >> k
        lo, d = m // 2, (m - 1) // 2  # h is right through s^lo
        phi_h, phip_h = law.phi_series(h[: m + 1], m, d)
        f_hi = h[lo + 1 : m + 1] - phi_h[lo:m]  # F at s^(lo+1..m)
        fp = np.concatenate([[1.0], -phip_h[:d]])  # F' through s^d
        h[lo + 1 : m + 1] -= series_mul(f_hi, series_reciprocal(fp, d), d)
    return SeriesPoly(h)


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
    """1 - s*phi'(h(s)) = (D + h*D')/(D + h), without cancellation, from
    the gaps at h and w = 1 - h."""
    h, w = solve_hw(law, s)
    d, dp, _, _ = law.gaps(h, w)
    return float((d + h * dp) / (d + h))
