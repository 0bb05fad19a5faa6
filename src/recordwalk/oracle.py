"""Exact finite-horizon ground truth for the weak-record count.

Two independent routes to P(A_n >= k):

* dynamic programming over the reflected chain (level, zero-visit count),
  which is exact once the level cap reaches the horizon: a right-continuous
  chain falls at most one level per step, so levels above n cannot return
  to 0 within n steps, and a left-continuous chain rises at most one level
  per step, so it never reaches them;
* renewal convolution of the return-time p.m.f., extracted as the power
  series of f0.

Both routes run on truncated_explicit(law): an explicit law as it is, a
stable-family law as its expansion truncated at STABLE_TRUNCATION_ORDER and
renormalized to mass 1 and zero drift.  Exactness is then relative to the
truncated law, and n times the removed tail mass is added to the error
bound.  tau_pmf and return_prob_partial_sums take the law as given, so a
stable law's series come from its exact generating function.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .fixed_point import f0_series
from .laws import Orientation, truncated_explicit
from .series import SeriesPoly

STABLE_TRUNCATION_ORDER = 10000


class Provenance(str, Enum):
    DP = "dp"
    RENEWAL = "renewal"
    MONTE_CARLO = "montecarlo"


@dataclass(frozen=True)
class ChainKernel:
    """Reflected-chain transition matrix on levels 0..level_cap.

    Index level_cap+1 is an absorbing overflow state collecting mass that
    jumps above the cap.  When level_cap >= the horizon, overflow states can
    never contribute another zero visit, so the lumping is exact.
    """

    orientation: Orientation
    level_cap: int
    matrix: np.ndarray
    truncation_mass: float = 0.0

    @property
    def overflow_index(self):
        return self.level_cap + 1


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
    law, trunc = truncated_explicit(law, STABLE_TRUNCATION_ORDER)
    L = level_cap
    q, p = law.q, np.asarray(law.p)
    K = np.zeros((L + 2, L + 2))
    K[L + 1, L + 1] = 1.0  # overflow absorbs
    if law.orientation is Orientation.RIGHT:
        # From 0: stay with p_0 + q, jump to k >= 1 with p_k.
        # From i >= 1: down one with q, up k >= 0 with p_k.
        for i in range(L + 1):
            if i == 0:
                K[0, 0] = p[0] + q
                width = min(len(p) - 1, L)
                K[0, 1 : width + 1] = p[1 : width + 1]
                K[0, L + 1] = p[width + 1 :].sum()
            else:
                K[i, i - 1] = q
                width = min(len(p) - 1, L - i)
                K[i, i : i + width + 1] = p[: width + 1]
                K[i, L + 1] = p[width + 1 :].sum()
    else:
        # From i: to 0 with sum_{k>=i} p_k, to 0 < j <= i with p_{i-j},
        # up one with q.
        tail_sums = np.concatenate([np.cumsum(p[::-1])[::-1], [0.0]])
        for i in range(L + 1):
            K[i, 0] = tail_sums[min(i, len(p))]
            if i >= 1:
                m = min(i - 1, len(p) - 1)
                # j = i-m .. i gets p_m .. p_0
                K[i, i - m : i + 1] += p[m::-1]
            if i + 1 <= L:
                K[i, i + 1] = q
            else:
                K[i, L + 1] = q
    return ChainKernel(law.orientation, L, K, trunc)


def exact_An_distribution(kernel, n, kmax=None):
    """Exact joint DP over (step, level, zero-visit count).

    Starts at level 0 with count 0; returns P(A_n >= k) for k = 0..kmax.
    The count dimension is capped at kmax with aggregation above, so memory
    is O(level_cap * kmax).
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if kmax is None:
        kmax = n
    kmax = min(kmax, n)
    K = kernel.matrix
    nstates = K.shape[0]
    dist = np.zeros((kmax + 1, nstates))
    dist[0, 0] = 1.0
    for _ in range(n):
        landed = dist @ K
        nxt = np.zeros_like(landed)
        nxt[:, 1:] = landed[:, 1:]
        nxt[1:, 0] = landed[:-1, 0]
        nxt[kmax, 0] += landed[kmax, 0]  # counts >= kmax stay lumped
        dist = nxt
    by_count = dist.sum(axis=1)
    tail = np.minimum(1.0, np.cumsum(by_count[::-1])[::-1])
    overflow = float(dist[:, kernel.overflow_index].sum())
    err = kernel.truncation_mass * n
    if kernel.level_cap < n:
        err += overflow  # lumped mass may have been denied later zero visits
    return TailTable(n, tail, Provenance.DP, err)


def tau_pmf(law, order):
    """P(tau = m) for m = 0..order as series coefficients of f0.

    Coefficients must be (numerically) nonnegative with partial sums <= 1;
    a violation beyond slack flags series-division instability.
    """
    if order < 1:
        raise ValueError("order must be >= 1")
    f0 = f0_series(law, order)
    c = f0.coeffs
    if np.any(c < -1e-10):
        raise RuntimeError(
            f"series reciprocal instability: min coefficient {c.min()!r}"
        )
    csum = np.cumsum(c)
    if np.any(csum > 1.0 + 1e-10):
        raise RuntimeError("tau p.m.f. partial sums exceed 1")
    return f0


def renewal_tail(tau, n, k):
    """P(Y_1 + ... + Y_k <= n) for i.i.d. Y ~ tau.

    Exact up to float rounding: Y >= 1, so only indices <= n matter.
    """
    if not 1 <= k <= n:
        raise ValueError("need 1 <= k <= n")
    f = np.asarray(tau.coeffs if isinstance(tau, SeriesPoly) else tau)
    if len(f) < n + 1:
        raise ValueError("tau p.m.f. must be truncated at >= n")
    f = f[: n + 1]
    dist = f.copy()
    for _ in range(k - 1):
        dist = np.convolve(dist, f)[: n + 1]
    return float(dist.sum())


def renewal_tail_table(law, n, kmax=None):
    """TailTable of P(A_n >= k) from the renewal representation."""
    if kmax is None:
        kmax = n
    kmax = min(kmax, n)
    law2, trunc = truncated_explicit(law, STABLE_TRUNCATION_ORDER)
    f = tau_pmf(law2, n).coeffs[: n + 1]
    tail = np.ones(kmax + 1)
    dist = np.zeros(n + 1)
    dist[0] = 1.0
    for k in range(1, kmax + 1):
        dist = np.convolve(dist, f)[: n + 1]
        tail[k] = dist.sum()
    return TailTable(n, tail, Provenance.RENEWAL, trunc * n)


def return_prob_partial_sums(law, n):
    """Return probabilities u_m = P(chain at 0 at step m | started at 0)
    and their partial sums U_m, for m = 0..n.

    u is the coefficient sequence of 1/(1 - f0(s)), computed by the
    convolution recursion u_m = sum_{j=1..m} f_j u_{m-j} (f_0 = 0), which is
    numerically stable for nonnegative inputs.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    f = tau_pmf(law, n).coeffs[: n + 1]
    u = np.zeros(n + 1)
    u[0] = 1.0
    for m in range(1, n + 1):
        u[m] = np.dot(f[1 : m + 1], u[m - 1 :: -1])
    if np.any(u < 0.0):
        raise RuntimeError("series reciprocal instability in 1/(1-f0)")
    return u, np.cumsum(u)
