"""The minimal nonnegative fixed point h(s) of x = s*phi(x).

h(s) is the generating function of the descending first-passage time of the
reflected chain; everything downstream (return-time law, cumulants, rate
functions) is built from it.  solve_hw finds h and w = 1 - h together at a
float s in (0, 1) by one root search in u = log(h/w) (bisect_logit) and one
Newton step, so that both keep their relative precision as s -> 0 and as
s -> 1; a sweep over the curve needs no solve, since s = h/phi(h).
bisect_logit is the ITP method on log forms of the equation: it
stops where bisection stops, when the bracket ends are adjacent doubles,
takes at most one step more than bisection, and on these smooth functions
about 11 instead of about 60.

The coefficients of h are solved online, in blocks of B = BLOCK, each
coefficient once.  The first block is Lagrange inversion, a sum of
nonnegative terms.  A block at c >= B is X = R*G through s^(B-1), with
G = 1/(1 - s*phi'(h)) formed once and R read off the running series of
phi(h) that the law keeps (IncrementLaw.running_phi): a block costs one
middle product against the known prefix per product in phi(h) (one for a
law of degree 2, 8 for the sparse degree 51 of 0.5 + 0.49 h + 0.01 h^51,
two for the stable family), plus B-term products.  Every order solves the
same whole blocks and cuts them only on return, so a lower order's
coefficients are bitwise a prefix of a higher one's.
"""

from __future__ import annotations

import math

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .laws import expand_coefficients
from .series import BLOCK, series_mul

RESIDUAL_TOL = 1e-13
U_MAX = 750.0  # |log(h/w)| beyond which h or w is 0 in double precision


class ConvergenceError(RuntimeError):
    pass


def solve_h(law, s):
    """Minimal root in [0, 1] of x = s*phi(x), for a float s.

    For s < 1 the root in [0, 1) is unique under criticality: g(x) =
    s*phi(x) - x has g(0) = s*q > 0, g(1) = s - 1 <= 0 and phi is convex.
    """
    return solve_hw(law, s)[0]


def solve_hw(law, s, t=None):
    """(h(s), w) with w = 1 - h, as solve_h takes s.

    The root is bracketed in u = log(h/w) on log(t*h) = log(s*D), with
    t = 1 - s, the fixed-point equation in the gap D = phi(h) - h, until the
    bracket ends are adjacent doubles.  That leaves about |u| ulps in h and
    w; one Newton step on t*h = s*D in the smaller of the two removes them,
    so both keep their relative precision on all of [0, 1].  A caller that
    knows t to more relative precision than 1.0 - s hands it in (cumulant
    has -expm1(lambda)).
    """
    s, t = float(s), float(1.0 - s if t is None else t)
    if not 0.0 <= s <= 1.0:
        raise ValueError(f"s = {s!r} outside [0, 1]")
    if s == 0.0 or t == 0.0:
        return (0.0, 1.0) if s == 0.0 else (1.0, 0.0)
    h, w = bisect_logit(
        lambda h, w: -_log(w * law.gap_over_w(h, w) * s) + _log(t * h),
        0.0)
    # one Newton step on t*h - s*D = 0 in the smaller of h and w; its
    # derivative is t + s*D' in h and minus that in w
    r, dp, _, _ = law.gaps(h, w)
    step = (t * h - s * (w * r)) / (t + s * dp)
    h, w = (float(h - step), w) if h < w else (h, float(w + step))
    if abs(res := float(s * law.phi(h) - h)) > RESIDUAL_TOL:
        raise ConvergenceError(
            f"fixed-point residual {res!r} exceeds {RESIDUAL_TOL} at s={s!r}")
    return h, w


def _log(x):
    """log of a float as np.log takes it, -inf at 0 and nan below, without
    a warning."""
    if x > 0.0:
        return math.log(x)
    return -math.inf if x == 0.0 else math.nan


def _logistic_hw(u):
    """(h, w) with log(h/w) = u and h + w = 1, each to full relative
    precision."""
    t = math.exp(-abs(u))
    small, big = t / (1.0 + t), 1.0 / (1.0 + t)
    return (small, big) if u < 0.0 else (big, small)


# ITP (Oliveira & Takahashi, ACM TOMS 47(1), 2020) on [-U_MAX, U_MAX] with
# k1 = 0.2/(2*U_MAX), k2 = 2 and n0 = 1: at most one step more than bisection
ITP_K1 = 0.2 / (2.0 * U_MAX)


def _itp_point(lo, mid, hi, ylo, yhi, j):
    """Step j of ITP in the bracket (lo, hi) with midpoint mid, where
    y = f - target is ylo < 0 and yhi >= 0: regula falsi, truncated towards
    mid by k1*width^2 (at least an ulp of the larger end, so that the
    bracket can close at ulp scale), then projected within
    2*U_MAX*2^-j - width/2 of mid.  mid itself while an end value is
    unknown (nan) or not finite, or when the point falls outside the open
    bracket."""
    width = hi - lo
    delta = max(ITP_K1 * width * width, math.ulp(max(abs(lo), abs(hi))))
    x = (yhi * lo - ylo * hi) / (yhi - ylo)
    d = mid - x
    x = x + math.copysign(delta, d) if delta <= abs(d) else mid
    r = 2.0 * U_MAX * 2.0 ** -j - 0.5 * width
    x = x if abs(x - mid) <= r else mid - math.copysign(r, d)
    finite = math.isfinite(ylo) and math.isfinite(yhi)
    return x if finite and lo < x < hi else mid


def bisect_logit(f, target):
    """(h, w) where f(h, w) crosses target once, upwards in u = log(h/w).

    ITP in u over [-U_MAX, U_MAX], whose ends are h = 0 and w = 0 and are
    never evaluated, until the bracket ends are adjacent doubles: the
    bracket of bisection, in at most one step more, and far fewer on a
    smooth f, which callers make close to linear in u by handing in log
    forms.  f runs on Python floats; _log takes log(0) to -inf.
    """
    lo, hi, ylo, yhi, j = -U_MAX, U_MAX, math.nan, math.nan, 0
    while lo < (mid := 0.5 * (lo + hi)) < hi:
        x = _itp_point(lo, mid, hi, ylo, yhi, j)
        if (y := float(f(*_logistic_hw(x))) - target) < 0.0:
            lo, ylo = x, y
        else:
            hi, yhi = x, y
        j += 1
    return _logistic_hw(mid)


def _finite(coeffs):
    """coeffs, after a check that every one is finite."""
    if not np.all(np.isfinite(coeffs)):
        raise ValueError("coefficients must be finite")
    return coeffs


def _first_block(law):
    """h through s^(BLOCK-1) by Lagrange inversion, h_m = [x^(m-1)] phi^m / m
    for m >= 1, every term nonnegative.

    Baby powers phi^0..phi^(t-1), t = isqrt(B-1), and giant steps
    phi^(i*t), each through x^(B-2); [x^(m-1)] phi^(i*t) * phi^j for every
    m = i*t + j is one contraction over a strided view of the giant steps.
    """
    n = BLOCK - 1
    a = expand_coefficients(law, n - 1)
    a = a[: np.flatnonzero(a)[-1] + 1]
    t = math.isqrt(n)
    baby = np.zeros((t, n))
    baby[0, 0] = 1.0
    for j in range(1, t):
        baby[j] = series_mul(baby[j - 1], a, n - 1)
    giant = series_mul(baby[-1], a, n - 1)
    k = -(-BLOCK // t)
    # powers[i, n + l] = [x^l] phi^(i*t), zero for l < 0 and l >= n
    powers = np.zeros((k, 2 * n + t))
    powers[0, n] = 1.0
    for i in range(1, k):
        powers[i, n : 2 * n] = series_mul(powers[i - 1, n : 2 * n], giant,
                                          n - 1)
    # view[i, j, l] = powers[i, i*t + j + l], against baby[j] reversed
    view = as_strided(powers, (k, t, n),
                      (powers.strides[0] + t * powers.itemsize,
                       powers.itemsize, powers.itemsize))
    h = np.einsum("ijl,jl->ij", view, baby[:, ::-1]).ravel()[:BLOCK]
    h[1:] /= np.arange(1, BLOCK)
    return h


def h_series(law, order):
    """Coefficients of h through s^order: a float64 array, checked finite.

    An online solve (van der Hoeven, J. Symb. Comput. 34, 2002): the first
    BLOCK coefficients by _first_block, the rest by _solve_blocks, in whole
    blocks cut at the order as series_exp's, each coefficient formed once.
    """
    if order < 1:
        raise ValueError("order must be >= 1")
    h = np.zeros(-(-(order + 1) // BLOCK) * BLOCK)
    h[:BLOCK] = _first_block(law)
    if order >= BLOCK:
        _solve_blocks(law, h)
    return _finite(h[: order + 1])


def _solve_blocks(law, h):
    """Fill h[BLOCK:], whole blocks of B = BLOCK coefficients, from its
    first block, and return the law's running series of phi(h).

    At a block start c >= B, with h final below c, the unknowns X = h[c:c+B]
    satisfy X = R + s*phi'(h[:B])*X through s^(B-1), where R_0 = [s^(c-1)]
    phi(h) and R_i = [s^(c+i-1)] phi(h[:c]): a product of two block
    unknowns lands at s^(2c) or later.  So X = R*G through s^(B-1), with
    G = 1/(1 - s*phi'(h)) formed once, from nonnegative terms; R comes from
    the running series the law keeps of phi(h) (law.running_phi), which
    then take their own blocks.  Every block makes the same products,
    whatever the length of h.
    """
    run = law.running_phi(h, BLOCK)
    # G = 1/(1 - x) = (1 + x)(1 + x^2)(1 + x^4)... for x = s*phi'(h), whose
    # terms are nonnegative, as the products' are; x^B vanishes in a block
    x, g = np.r_[0.0, run.phi_prime], np.r_[1.0, run.phi_prime]
    for _ in range((BLOCK - 1).bit_length() - 1):
        x = series_mul(x, x, BLOCK - 1)
        g += series_mul(g, x, BLOCK - 1)
    for c in range(BLOCK, len(h), BLOCK):
        run.advance(c, series_mul(g, run.window(c), BLOCK - 1))
    return run


def f0_series(law, order):
    """Coefficients of f0(s) = E[s^tau], tau the return time of the
    reflected chain to 0: a float64 array, checked finite as h_series's.

    law.f0_of_h forms it from h through s^(order + 1): s*sum_j c_j h^j,
    composed from nonnegative terms, on every law but the stable right one,
    which subtracts, 1 + q s - q s/h.
    """
    if order < 1:
        raise ValueError("order must be >= 1")
    return _finite(law.f0_of_h(h_series(law, order + 1), order))


def one_minus_s_phi_prime_h(law, s):
    """1 - s*phi'(h(s)) = (D + h*D')/(D + h), without cancellation, from
    the gaps at h and w = 1 - h."""
    h, w = solve_hw(law, s)
    r, dp, _, _ = law.gaps(h, w)
    d = w * r
    return float((d + h * dp) / (d + h))
