"""Exact finite-horizon ground truth for the weak-record count.

Two independent routes to P(A_n >= k):

* dynamic programming over the reflected chain (level, zero-visit count),
  which is exact once the level cap reaches the horizon: a right-continuous
  chain falls at most one level per step, so levels above n cannot return
  to 0 within n steps, and a left-continuous chain rises at most one level
  per step, so it never reaches them;
* renewal convolution of the return-time p.m.f., extracted as the power
  series of f0.

The DP multiplies only the live block of its state at each step: rows up to
the step count (the count cannot exceed it), levels up to the highest one
reachable so far, and only levels that can still reach 0 in the steps left.
Mass leaving that block has a final count and is added to a per-count
settled total as a sum of kernel entries, never by subtraction, so tails
near 2^-n keep their relative accuracy.  A step then costs about
rows * width^2 instead of (kmax+1) * (level_cap+2)^2.  The renewal table
skips the known zeros: after k convolutions nothing sits below index k.

Both routes are exact for both families.  For level cap L the kernel reads
p_0..p_L from law.jump_pmf(L + 1) and the jump tails T_j from
law.jump_tails(L + 1), and sums no jump probabilities: a right-continuous
chain at level i sends the jumps that leave the capped levels, mass
T_(L+1-i), to the overflow state, and a left-continuous chain, whose level
never exceeds the cap, lands those of size i or more, mass T_i, on 0.  The
renewal route takes tau_pmf of the law itself, so a stable law's series
come from its exact generating function.  The error bound is the mass that
entered the overflow state when the level cap is below the horizon, and 0
otherwise.
"""

from __future__ import annotations

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
    """Reflected-chain transition matrix on levels 0..level_cap.

    Index level_cap+1 is an absorbing overflow state collecting mass that
    jumps above the cap.  When level_cap >= the horizon, overflow states can
    never contribute another zero visit, so the lumping is exact.
    """

    orientation: Orientation
    level_cap: int
    matrix: np.ndarray

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
    L = level_cap
    q, p, t = law.q, law.jump_pmf(L + 1), law.jump_tails(L + 1)
    K = np.zeros((L + 2, L + 2))
    K[L + 1, L + 1] = 1.0  # overflow absorbs
    if law.orientation is Orientation.RIGHT:
        # From i: up k with p_k while i + k <= L, above the cap with
        # T_(L+1-i), down one with q (from 0: stay).
        for i in range(L + 1):
            row = p[: L + 1 - i]
            K[i, i : i + len(row)] = row
            K[i, max(i - 1, 0)] += q
            K[i, L + 1] = t[L + 1 - i]
    else:
        # From i: to 0 with T_i, to 0 < j <= i with p_(i-j), up one with q.
        for i in range(L + 1):
            row = p[:i][::-1]
            K[i, i + 1 - len(row) : i + 1] = row
            K[i, 0] = t[i]
            K[i, i + 1] = q
    return ChainKernel(law.orientation, L, K)


def _window_limits(pattern, n):
    """Bounds of the DP's live window from the level-to-level nonzero pattern.

    Returns (reach, live): mass on levels 0..w-1 can reach no level above
    reach[w-1] in one step, and with r steps left no level above live[r]-1
    can still reach level 0.  live comes from a breadth-first search from
    level 0 over the reversed pattern.
    """
    top = len(pattern) - 1 - np.argmax(pattern[:, ::-1], axis=1)
    reach = np.maximum.accumulate(top)
    dist = np.full(len(pattern), n + 1)
    dist[0] = 0
    frontier = dist == 0
    for step in range(1, n + 1):
        frontier = pattern[:, frontier].any(axis=1) & (dist > n)
        if not frontier.any():
            break
        dist[frontier] = step
    levels = np.flatnonzero(dist <= n)
    highest = np.zeros(n + 1, dtype=int)
    np.maximum.at(highest, dist[levels], levels)
    return reach, np.maximum.accumulate(highest) + 1


def exact_An_distribution(kernel, n, kmax=None):
    """Exact joint DP over (step, level, zero-visit count).

    Starts at level 0 with count 0; returns P(A_n >= k) for k = 0..kmax.
    The count dimension is capped at kmax with aggregation above, so memory
    is O(level_cap * kmax).

    Each step multiplies only the live block of the state, bounded by three
    exact facts that hold for any kernel:

    * after t steps the count is at most t, so only rows 0..min(t, kmax)
      can hold mass;
    * the highest level holding mass follows from the kernel's nonzero
      pattern over the levels already reached;
    * a level that cannot reach level 0 in the steps left never adds
      another zero visit, so its count is final.

    Mass leaving the window (to a dead level, past the reach, or into the
    overflow state) is added to a per-count settled total as a sum of
    kernel entries beyond the window, never as a row total minus the live
    mass, so tiny tails keep their relative accuracy.  The cost is about
    sum_t min(t, kmax) * w(t)^2 for live width w(t), against n * kmax * L^2
    for the dense product.  With level_cap < n, the error bound adds the
    mass that entered the overflow state from the live window.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if kmax is None:
        kmax = n
    if kmax < 0:
        raise ValueError("kmax must be >= 0")
    kmax = min(kmax, n)
    K = kernel.matrix
    over = kernel.overflow_index
    # beyond[j, i]: what level i sends to states >= j, a sum of kernel entries
    beyond = np.cumsum(K[:over, ::-1].T, axis=0)[::-1]
    reach, live = _window_limits(K[:over, :over] > 0.0, n)
    cur = np.zeros((kmax + 1, over))
    nxt = np.empty_like(cur)
    cur[0, 0] = 1.0
    settled = np.zeros(kmax + 1)
    overflow = 0.0
    rows, width = 1, 1
    for t in range(1, n + 1):
        new_rows = min(t, kmax) + 1
        new_width = min(reach[width - 1] + 1, live[n - t])
        block = cur[:rows, :width]
        settled[:rows] += block @ beyond[new_width, :width]
        overflow += block.sum(axis=0) @ K[:width, over]
        landed = np.matmul(block, K[:width, :new_width],
                           out=nxt[:rows, :new_width])
        nxt[rows:new_rows, :new_width] = 0.0
        zero = landed[:, 0].copy()
        nxt[0, 0] = 0.0
        nxt[1:new_rows, 0] = zero[: new_rows - 1]
        nxt[new_rows - 1, 0] += zero[new_rows - 1 :].sum()  # counts >= kmax stay lumped
        cur, nxt = nxt, cur
        rows, width = new_rows, new_width
    by_count = cur[:, :width].sum(axis=1) + settled
    tail = np.minimum(1.0, np.cumsum(by_count[::-1])[::-1])
    tail[0] = 1.0
    # mass lumped into the overflow state may have been denied zero visits
    err = float(overflow) if kernel.level_cap < n else 0.0
    return TailTable(n, tail, Provenance.DP, err)


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

    Y >= 1, so after k convolutions nothing sits below index k: only that
    part, indices k..n, is kept and convolved with f[1:] by nonnegative
    direct convolution.
    """
    mass = np.ones(kmax + 1)
    part = np.ones(1)
    step = f[1 : n + 1]
    for k in range(1, kmax + 1):
        m = n + 1 - k
        part = series_mul(part, step, m - 1)
        mass[k] = part.sum()
    return mass


def renewal_tail(tau, n, k):
    """P(Y_1 + ... + Y_k <= n) for i.i.d. Y ~ tau.

    Exact up to float rounding: Y >= 1, so only indices <= n matter.
    """
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
    if n < 1:
        raise ValueError("n must be >= 1")
    if kmax is None:
        kmax = n
    if kmax < 0:
        raise ValueError("kmax must be >= 0")
    kmax = min(kmax, n)
    f = tau_pmf(law, n).coeffs
    return TailTable(n, _renewal_masses(f, n, kmax), Provenance.RENEWAL, 0.0)


def return_prob_partial_sums(law, n):
    """Return probabilities u_m = P(chain at 0 at step m | started at 0)
    and their partial sums U_m, for m = 0..n.

    u is the coefficient sequence of 1/(1 - f0(s)), one series reciprocal
    (f_0 = 0, so 1 - f0 has constant term 1).
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    one_minus_f0 = -tau_pmf(law, n).coeffs[: n + 1]
    one_minus_f0[0] += 1.0
    u = series_reciprocal(one_minus_f0, n)
    if np.any(u < 0.0):
        raise RuntimeError("series reciprocal instability in 1/(1-f0)")
    return u, np.cumsum(u)
