"""Exact finite-horizon ground truth for the weak-record count.

Visits of the reflected chain to 0 form a renewal process, so
P(A_n >= k) = P(S_k <= n) for S_k the sum of k return times.  Two
independent routes evaluate it:

* the DP: the first-return law of the reflected chain itself, one
  vector-matrix product per step with level 0 taboo, then one truncated
  convolution per count;
* the renewal sum over return times whose p.m.f. is the series of f0, by
  baby and giant steps (Paterson and Stockmeyer): one matrix-vector product
  per giant step.

Every term on both routes is nonnegative, and both are exact for both
families.  For level cap L the kernel reads p_0..p_L from
law.jump_pmf(L + 1) and sums no jump probabilities.  It keeps only the
moves that can return to 0 within L steps: a right-continuous chain falls
at most one level per step, so it drops the jumps above the cap, and a
left-continuous chain rises at most one level per step, so it drops the
step up from the cap, and lands the jumps of size i or more from level i,
mass T_i from law.jump_tails(L), on 0.  The DP therefore needs L >= n.
The renewal route takes tau_pmf of the law itself, so a stable law's
series come from its exact generating function.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .fixed_point import f0_series
from .laws import Orientation
from .series import SeriesPoly, series_mul, series_reciprocal


class Provenance(str, Enum):
    DP = "dp"
    RENEWAL = "renewal"
    MONTE_CARLO = "montecarlo"


@dataclass(frozen=True)
class ChainKernel:
    """Substochastic reflected-chain transition matrix on levels
    0..level_cap, without the moves that cannot return to 0 within
    level_cap steps."""

    level_cap: int
    matrix: np.ndarray


@dataclass(frozen=True)
class TailTable:
    """P(A_n >= k) for k = 0..len(tail)-1, with provenance."""

    n: int
    tail: np.ndarray
    provenance: Provenance
    error_bound: float
    ci_lo: np.ndarray | None = None
    ci_hi: np.ndarray | None = None

    def prob_at_least(self, k):
        if k < 0:
            raise ValueError("k must be >= 0")
        if k >= len(self.tail):
            return 0.0
        return float(self.tail[k])


def build_kernel(law, level_cap):
    """Assemble the reflected-chain kernel for levels 0..level_cap."""
    if level_cap < 1:
        raise ValueError("level_cap must be >= 1")
    L = level_cap
    q, p = law.q, law.jump_pmf(L + 1)
    K = np.zeros((L + 1, L + 1))
    if law.orientation is Orientation.RIGHT:
        # From i: up k with p_k while i + k <= L, down one with q (from 0:
        # stay); a jump above the cap cannot fall back to 0 in L steps.
        for i in range(L + 1):
            row = p[: L + 1 - i]
            K[i, i : i + len(row)] = row
            K[i, max(i - 1, 0)] += q
    else:
        # From i: to 0 with T_i, to 0 < j <= i with p_(i-j), up one with q
        # below the cap; the chain reaches the cap at step L at the soonest.
        t = law.jump_tails(L)
        for i in range(L + 1):
            row = p[:i][::-1]
            K[i, i + 1 - len(row) : i + 1] = row
            K[i, 0] = t[i]
        K[np.arange(L), np.arange(1, L + 1)] = q
    return ChainKernel(L, K)


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

    One vector-matrix product per step over the whole kernel, with level 0
    taboo: f[t] is P(first return to 0 at step t).
    """
    K = kernel.matrix
    f = np.zeros(n + 1)
    v = np.zeros(len(K))
    v[0] = 1.0
    for t in range(1, n + 1):
        v = v @ K
        f[t], v[0] = v[0], 0.0
    return f


def exact_An_distribution(kernel, n, kmax=None):
    """P(A_n >= k) for k = 0..kmax from the kernel's own first-return law.

    Visits of the chain to level 0 form a renewal process, so A_n >= k
    exactly when the first k return times sum to at most n.  One pass of
    _first_returns gives their p.m.f. f, and row k sums g^k through
    s^(n-k), g = f/s, built by one more truncated product with g per row:
    n vector-matrix products plus kmax convolutions, every term
    nonnegative.  The kernel's level cap must reach n, and the error bound
    is 0.

    The renewal oracle shares only the renewal identity with this route:
    here the return times come from the kernel (jump_pmf and jump_tails),
    not from the series of f0, and the powers are one convolution per row,
    not baby and giant steps.
    """
    kmax = _horizon(n, kmax)
    if kernel.level_cap < n:
        raise ValueError(
            f"level cap {kernel.level_cap} is below the horizon n = {n}")
    f = _first_returns(kernel, n)
    tail = np.ones(kmax + 1)
    part = np.ones(1)
    for k in range(1, kmax + 1):
        part = series_mul(part, f[1:], n - k)
        tail[k] = part.sum()
    return TailTable(n, np.minimum(tail, 1.0), Provenance.DP, 0.0)


def tau_pmf(law, order):
    """P(tau = m) for m = 0..order as series coefficients of f0.

    Coefficients must be (numerically) nonnegative with partial sums <= 1;
    a violation beyond slack flags an unstable series step.
    """
    if order < 1:
        raise ValueError("order must be >= 1")
    f0 = f0_series(law, order)
    c = f0.coeffs
    if np.any(c < -1e-10):
        raise RuntimeError(
            f"unstable series: min coefficient {c.min()!r}"
        )
    csum = np.cumsum(c)
    if np.any(csum > 1.0 + 1e-10):
        raise RuntimeError("tau p.m.f. partial sums exceed 1")
    return f0


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
    """P(Y_1 + ... + Y_k <= n) for i.i.d. Y >= 1 with p.m.f. tau[:n + 1]."""
    if not 1 <= k <= n:
        raise ValueError("need 1 <= k <= n")
    f = np.asarray(tau.coeffs if isinstance(tau, SeriesPoly) else tau)
    if len(f) < n + 1:
        raise ValueError("tau p.m.f. must be truncated at >= n")
    if f[0] != 0.0:
        raise ValueError("tau p.m.f. must put no mass at 0")
    return float(_renewal_masses(f, n, k)[k])


def renewal_tail_table(law, n, kmax=None):
    """TailTable of P(A_n >= k) from the renewal representation."""
    kmax = _horizon(n, kmax)
    f = tau_pmf(law, n).coeffs
    return TailTable(n, _renewal_masses(f, n, kmax), Provenance.RENEWAL, 0.0)


def return_prob_partial_sums(law, n):
    """Return probabilities u_m = P(chain at 0 at step m | started at 0)
    and their partial sums U_m, for m = 0..n.

    u is the coefficient sequence of 1/(1 - f0(s)), one series reciprocal
    (f_0 = 0, so 1 - f0 has constant term 1).
    """
    one_minus_f0 = -tau_pmf(law, n).coeffs[: n + 1]
    one_minus_f0[0] += 1.0
    u = series_reciprocal(one_minus_f0, n)
    if np.any(u < 0.0):
        raise RuntimeError("series reciprocal instability in 1/(1-f0)")
    return u, np.cumsum(u)
