"""Exact finite-horizon ground truth for the weak-record count.

Visits of the reflected chain to 0 form a renewal process, so
P(A_n >= k) = P(S_k <= n) for S_k the sum of k return times.  Two
independent routes evaluate it, and differ only in where the return times
come from:

* the DP: the first-return law of the reflected chain itself, one
  vector-matrix product per step with level 0 taboo, over the live band
  only: the levels the chain can reach by then and can still leave for 0
  by step n;
* the renewal route: the p.m.f. of the return time as the series of f0.

Both then sum the powers of that p.m.f. in one routine, by baby and giant
steps (Paterson and Stockmeyer): about 2*sqrt(kmax) truncated products and
one matrix-vector product per giant step.  Every term on both routes is
nonnegative, and both are exact for both families.

For level cap L the kernel is one Toeplitz band of p_0..p_L from
law.jump_pmf(L + 1), laid along the rows or down the columns, and sums no
jump probabilities.  It keeps only the moves that can return to 0 within
L steps: a right-continuous chain falls at most one level per step, so it
drops the jumps above the cap, and a left-continuous chain rises at most
one level per step, so it drops the step up from the cap, and lands the
jumps of size i or more from level i, mass T_i from law.jump_tails(L), on
0.  The live band's widths come from the same law.  The DP needs L >= n.
The renewal route takes tau_pmf of the law itself, so a stable law's
series come from its exact generating function.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .fixed_point import f0_series
from .laws import Orientation
from .series import series_mul, series_reciprocal


class Provenance(str, Enum):
    DP = "dp"
    RENEWAL = "renewal"
    MONTE_CARLO = "montecarlo"


@dataclass(frozen=True)
class ChainKernel:
    """Substochastic reflected-chain transition matrix on levels
    0..level_cap, without the moves that cannot return to 0 within
    level_cap steps, and the largest rise and fall of one step."""

    level_cap: int
    matrix: np.ndarray
    rise: int
    fall: int


@dataclass(frozen=True)
class TailTable:
    """P(A_n >= k) for k = 0..len(tail)-1, with provenance."""

    n: int
    tail: np.ndarray
    provenance: Provenance
    error_bound: float
    ci_lo: np.ndarray | None = None
    ci_hi: np.ndarray | None = None


def build_kernel(law, level_cap):
    """Assemble the reflected-chain kernel for levels 0..level_cap.

    A right chain copies the strided view band[i, j] = p_(j - i) of
    p_0..p_L, a left one its transpose.  A right chain rises at most to the
    last level it reaches from 0 and falls one level; a left chain rises
    one level and falls at most from the last level i with T_i > 0.
    """
    if level_cap < 1:
        raise ValueError("level_cap must be >= 1")
    L = level_cap
    q, p = law.q, law.jump_pmf(L + 1)[: L + 1]
    band = sliding_window_view(np.pad(p, (L, L + 1 - len(p))), L + 1)[::-1]
    if law.orientation is Orientation.RIGHT:
        # From i: up k with p_k while i + k <= L, down one with q (from 0:
        # stay); a jump above the cap cannot fall back to 0 in L steps.
        K = band.copy()
        K[0, 0] += q
        K[np.arange(1, L + 1), np.arange(L)] += q
        return ChainKernel(L, K, int(np.flatnonzero(K[0])[-1]), 1)
    # From i: to 0 with T_i, to 0 < j <= i with p_(i-j), up one with q
    # below the cap; the chain reaches the cap at step L at the soonest.
    K = band.T.copy()
    K[:, 0] = law.jump_tails(L)
    K[np.arange(L), np.arange(1, L + 1)] = q
    return ChainKernel(L, K, 1, int(np.flatnonzero(K[:, 0])[-1]))


def _horizon(n, kmax):
    """The count cap of a table at horizon n: kmax, or n when None, at most n."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if kmax is None:
        return n
    if kmax < 0:
        raise ValueError("kmax must be >= 0")
    return min(kmax, n)


def _first_returns(kernel, n):
    """First-return law of the kernel's chain from level 0, for steps 0..n.

    One vector-matrix product per step with level 0 taboo: f[t] is
    P(first return to 0 at step t).  Each product covers only the live
    band, levels 0..min(L, rise*t, fall*(n - t)) for the bandwidths that
    build_kernel read from the law: after t steps from 0 the chain sits at
    most rise*t up, and from above fall*(n - t) it cannot reach 0 by step
    n, nor can any level its mass moves to.  That is about n^3/12 multiply-adds on a nearest-
    neighbour chain and n^3/3 when one bandwidth is L, instead of n^3.
    """
    K, rise, fall = kernel.matrix, kernel.rise, kernel.fall
    f = np.zeros(n + 1)
    v = np.ones(1)
    for t in range(1, n + 1):
        hi = min(kernel.level_cap, rise * t, fall * (n - t))
        v = v @ K[: len(v), : hi + 1]
        f[t], v[0] = v[0], 0.0
    return f


def exact_An_distribution(kernel, n, kmax=None):
    """P(A_n >= k) for k = 0..kmax from the kernel's own first-return law.

    Visits of the chain to level 0 form a renewal process, so A_n >= k
    exactly when the first k return times sum to at most n.  One pass of
    _first_returns gives their p.m.f. and _renewal_masses sums its powers:
    n vector-matrix products over the live band, n^3/12 to n^3/3
    multiply-adds, plus about 2*sqrt(kmax) truncated products, every term
    nonnegative.  The kernel's level cap must reach n, and the error bound
    is 0.

    The renewal oracle shares the renewal identity and that sum with this
    route; here the return times come from the kernel (jump_pmf and
    jump_tails), there from the series of f0.
    """
    kmax = _horizon(n, kmax)
    if kernel.level_cap < n:
        raise ValueError(
            f"level cap {kernel.level_cap} is below the horizon n = {n}")
    tail = _renewal_masses(_first_returns(kernel, n), n, kmax)
    return TailTable(n, tail, Provenance.DP, 0.0)


def tau_pmf(law, order):
    """P(tau = m) for m = 0..order: f0's coefficients, a float64 array.

    Coefficients must be (numerically) nonnegative with partial sums <= 1;
    a violation beyond slack flags an unstable series step.
    """
    if order < 1:
        raise ValueError("order must be >= 1")
    c = f0_series(law, order)
    if np.any(c < -1e-10):
        raise RuntimeError(
            f"unstable series: min coefficient {c.min()!r}"
        )
    csum = np.cumsum(c)
    if np.any(csum > 1.0 + 1e-10):
        raise RuntimeError("tau p.m.f. partial sums exceed 1")
    return c


def _renewal_masses(f, n, kmax):
    """P(Y_1 + ... + Y_k <= n) for k = 0..kmax and i.i.d. Y with p.m.f. f.

    Y >= 1, so row k sums [g^k]_i over i <= n - k, g = f/s.  Baby steps
    b < B = max(1, isqrt(kmax)) fill R[b, m] = sum of [g^b]_i over
    i <= n - m - b in extended precision; a giant step a = g^k0, k0 = 0, B,
    2B, ..., is one product with g^B and one matrix-vector product, rows
    k0..k0+B-1 = R[:, k0:] a summed pairwise, all over nonnegative terms.
    """
    g = f[1 : n + 1]
    B = max(1, math.isqrt(kmax))
    R = np.zeros((B, n + 1))
    power = np.r_[1.0, np.zeros(n)]
    for b in range(B):
        R[b, : n + 1 - b] = np.cumsum(power, dtype=np.longdouble)[::-1]
        power = series_mul(power, g, n - b - 1)  # g^(b+1), last g^B
    mass = np.empty(kmax + 1)
    a = np.ones(1)  # g^k0 through s^(n - k0)
    for k0 in range(0, kmax + 1, B):
        a = series_mul(a, power, n - k0) if k0 else a
        rows = R[: kmax + 1 - k0, k0 : k0 + len(a)] * a
        mass[k0 : k0 + B] = rows.sum(axis=1)
    return mass


def renewal_tail(tau, n, k):
    """P(Y_1 + ... + Y_k <= n), a float, for i.i.d. Y >= 1 whose p.m.f. is
    the array tau[:n + 1], as tau_pmf returns it."""
    if not 1 <= k <= n:
        raise ValueError("need 1 <= k <= n")
    f = np.asarray(tau)
    if len(f) < n + 1:
        raise ValueError("tau p.m.f. must be truncated at >= n")
    if f[0] != 0.0:
        raise ValueError("tau p.m.f. must put no mass at 0")
    return float(_renewal_masses(f, n, k)[k])


def renewal_tail_table(law, n, kmax=None):
    """TailTable of P(A_n >= k) from the renewal representation."""
    kmax = _horizon(n, kmax)
    f = tau_pmf(law, n)
    return TailTable(n, _renewal_masses(f, n, kmax), Provenance.RENEWAL, 0.0)


def return_prob_partial_sums(law, n):
    """Return probabilities u_m = P(chain at 0 at step m | started at 0)
    and their partial sums U_m, for m = 0..n.

    u is the coefficient sequence of 1/(1 - f0(s)), one series reciprocal
    (f_0 = 0, so 1 - f0 has constant term 1).
    """
    one_minus_f0 = -tau_pmf(law, n)
    one_minus_f0[0] += 1.0
    u = series_reciprocal(one_minus_f0, n)
    if np.any(u < 0.0):
        raise RuntimeError("series reciprocal instability in 1/(1-f0)")
    return u, np.cumsum(u)
