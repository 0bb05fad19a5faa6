"""The minimal nonnegative fixed point h(s) of x = s*phi(x).

h(s) is the generating function of the descending first-passage time of the
reflected chain; everything downstream (return-time law, cumulants, rate
functions) is built from it.  solve_h uses a bracketed bisection/Newton
hybrid; near s = 1, where w = 1 - h must keep its relative precision, it
bisects in u = log(h/w) instead (bisect_logit), and solve_hw returns w with
h.  The coefficient expansion uses series Newton with precision doubling.
"""

from __future__ import annotations

import warnings

import numpy as np

from .laws import Orientation
from .series import SeriesPoly, series_mul, series_reciprocal

RESIDUAL_TOL = 1e-13
# Near s = 1 the root is double-root-like; bisection is the robust choice
# there.
BISECT_ONLY_ABOVE = 1.0 - 1e-6
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

    Above BISECT_ONLY_ABOVE the root is bisected in u = log(h/w) on
    (1 - s)*h = s*D, the fixed-point equation in the gap D = phi(h) - h, so
    that w keeps its relative precision as s -> 1.  Below, a bracketed
    bisection/Newton hybrid finds h, and one Newton step in w on the same
    equation gives w.
    """
    if isinstance(s, np.ndarray) and s.ndim:
        return _solve_hw_array(law, s)
    if not 0.0 <= s <= 1.0:
        raise ValueError(f"s = {s!r} outside [0, 1]")
    if s == 0.0 or s == 1.0:
        return float(s), 1.0 - s

    def g(x):
        return s * law.phi(x) - x

    if s > BISECT_ONLY_ABOVE:
        x, w = bisect_logit(lambda h, w: _gap_equation(law, s, h, w), 0.0)
    else:
        # Coarse bisection to localize, then Newton with the analytic
        # derivative for machine-precision tail convergence.
        lo, hi = 0.0, 1.0
        for _ in range(40):
            mid = 0.5 * (lo + hi)
            if g(mid) > 0.0:
                lo = mid
            else:
                hi = mid
        x = 0.5 * (lo + hi)
        for _ in range(60):
            gx = g(x)
            if abs(gx) <= 1e-16:
                break
            gp = s * law.phi_prime(x) - 1.0
            x_new = x - gx / gp if gp != 0.0 else 0.5 * (lo + hi)
            if not lo < x_new < hi:
                x_new = 0.5 * (lo + hi)  # fall back inside the bracket
            if g(x_new) > 0.0:
                lo = x_new
            else:
                hi = x_new
            if hi - lo <= 1e-17 + 1e-16 * hi:
                x = x_new
                break
            x = x_new
        x = min((lo, hi, x), key=lambda v: abs(g(v)))
        w = _polish_w(law, s, x)
    if abs(g(x)) > RESIDUAL_TOL:
        raise ConvergenceError(
            f"fixed-point residual {g(x)!r} exceeds {RESIDUAL_TOL} at s={s!r}"
        )
    return x, w


def _gap_equation(law, s, h, w):
    """(1 - s)*h - s*D: g(x) = s*phi(x) - x with the sign flipped, written
    in D; it changes sign once on [0, 1], from - to +."""
    return (1.0 - s) * h - s * law.gaps(h, w)[0]


def _polish_w(law, s, h):
    """w = 1 - h after one Newton step in w on (1 - s)*h = s*D, which
    restores the relative precision that 1 - h loses as w -> 0."""
    w = 1.0 - h
    d, dp, _, _ = law.gaps(h, w)
    return w + ((1.0 - s) * h - s * d) / ((1.0 - s) + s * dp)


def _solve_hw_array(law, s):
    """solve_hw on every element of an array.

    Each element takes its scalar branch and stops on its own criterion;
    a stopped element is frozen while the others keep iterating.
    """
    s = np.asarray(s, dtype=float)
    flat = s.ravel()
    inside = (0.0 <= flat) & (flat <= 1.0)
    if not inside.all():
        raise ValueError(f"s = {flat[~inside][0]!r} outside [0, 1]")
    x = (flat == 1.0).astype(float)  # s = 0 and s = 1 are their own roots
    inner = (flat > 0.0) & (flat < 1.0)
    bisect_only = inner & (flat > BISECT_ONLY_ABOVE)
    newton = inner & ~bisect_only
    w = 1.0 - x
    if newton.any():
        x[newton] = _newton_array(law, flat[newton])
        w[newton] = _polish_w(law, flat[newton], x[newton])
    if bisect_only.any():
        x[bisect_only], w[bisect_only] = _bisect_logit_array(
            law, flat[bisect_only])
    if inner.any():
        si, xi = flat[inner], x[inner]
        res = si * law.phi(xi) - xi
        over = np.abs(res) > RESIDUAL_TOL
        if over.any():
            i = np.flatnonzero(over)[0]
            raise ConvergenceError(
                f"fixed-point residual {res[i]!r} exceeds {RESIDUAL_TOL} "
                f"at s={si[i]!r}"
            )
    return x.reshape(s.shape), w.reshape(s.shape)


def _bisect_logit_array(law, s):
    """bisect_logit on _gap_equation for every element, each stopping on
    its own."""
    lo, hi = np.full_like(s, -U_MAX), np.full_like(s, U_MAX)
    mid = 0.5 * (lo + hi)
    while (moving := (lo < mid) & (mid < hi)).any():
        up = _gap_equation(law, s, *_logistic_hw(mid)) < 0.0
        lo = np.where(moving & up, mid, lo)
        hi = np.where(moving & ~up, mid, hi)
        mid = 0.5 * (lo + hi)
    return _logistic_hw(mid)


def _logistic_hw(u):
    """(h, w) with log(h/w) = u and h + w = 1, each to full relative
    precision; u a float or an array.  Both take np.exp, so that they give
    the same bits."""
    t = np.exp(-abs(u))
    small, big = t / (1.0 + t), 1.0 / (1.0 + t)
    if np.ndim(u):
        return np.where(u < 0.0, small, big), np.where(u < 0.0, big, small)
    small, big = float(small), float(big)
    return (small, big) if u < 0.0 else (big, small)


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


def _newton_array(law, s):
    """The bisection-then-Newton branch of solve_hw, elementwise."""
    lo, hi = np.zeros_like(s), np.ones_like(s)
    for _ in range(40):
        mid = 0.5 * (lo + hi)
        up = s * law.phi(mid) - mid > 0.0
        lo = np.where(up, mid, lo)
        hi = np.where(up, hi, mid)
    x = 0.5 * (lo + hi)
    act = np.arange(len(s))
    for _ in range(60):
        sa, xa, la, ha = s[act], x[act], lo[act], hi[act]
        gx = sa * law.phi(xa) - xa
        moving = np.abs(gx) > 1e-16
        act, sa, xa, la, ha, gx = (
            v[moving] for v in (act, sa, xa, la, ha, gx)
        )
        if not act.size:
            break
        gp = sa * law.phi_prime(xa) - 1.0
        mid = 0.5 * (la + ha)
        with np.errstate(divide="ignore", invalid="ignore"):
            x_new = np.where(gp != 0.0, xa - gx / gp, mid)
        x_new = np.where((la < x_new) & (x_new < ha), x_new, mid)
        up = sa * law.phi(x_new) - x_new > 0.0
        la = np.where(up, x_new, la)
        ha = np.where(up, ha, x_new)
        lo[act], hi[act], x[act] = la, ha, x_new
        act = act[ha - la > 1e-17 + 1e-16 * ha]
        if not act.size:
            break
    # min((lo, hi, x), key=|g|): the first of the smallest residuals
    best, g_best = lo, np.abs(s * law.phi(lo) - lo)
    for v in (hi, x):
        g_v = np.abs(s * law.phi(v) - v)
        better = g_v < g_best
        best = np.where(better, v, best)
        g_best = np.where(better, g_v, g_best)
    return best


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

    Right orientation: f0 = 1 + q s - q s/h(s).  Left orientation uses the
    identity 1 - f0 = (1-s)/(1-h), a consequence of h = s*phi(h).
    """
    h = h_series(law, order + 1).coeffs
    if law.orientation is Orientation.RIGHT:
        hs = h[1:]  # h/s, constant term q > 0
        r = series_reciprocal(hs, order)  # s/h
        f0 = -law.q * r
        f0[1] += law.q
        f0[0] = 0.0  # tau >= 1; cancels exactly in real arithmetic
    else:
        w = -h[: order + 1].copy()  # 1 - h
        w[0] += 1.0
        r = series_reciprocal(w, order)
        f0 = -r
        f0[1:] += r[:-1]
        f0[0] = 0.0
    return SeriesPoly(f0)


def one_minus_s_phi_prime_h(law, s):
    """1 - s*phi'(h(s)) = (D + h*D')/(D + h), without cancellation."""
    return float(_phi_and_slope_gap(law, s)[1])


def _phi_and_slope_gap(law, s):
    """(phi(h), 1 - s*phi'(h)) at h = h(s), from the gaps at h and w."""
    h, w = solve_hw(law, s)
    d, dp, _, _ = law.gaps(h, w)
    return d + h, (d + h * dp) / (d + h)
