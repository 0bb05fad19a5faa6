"""Monte Carlo estimation of the weak-record tail.

Paths are driven by a counter-based Philox stream keyed by the seed, and
processed in fixed blocks of BLOCK_SIZE paths whose integer count histograms
are summed.  Path p reads n uniforms, one 64-bit word each, from words
p*n .. p*n + n - 1 of the stream: the block starting at path `start` calls
Philox.advance(start*n/4), which skips counter values of four words each,
so BLOCK_SIZE must be a multiple of 4.  The uniforms of a path therefore
depend on neither BLOCK_SIZE nor the worker count, blocks never overlap,
and the integer merge makes the result bit-identical for any worker count.

Jumps are drawn by inverse CDF from law.jump_pmf(order), with order at least
the path length: the jumps of size order or more are lumped into one of size
order, which no path of n <= order steps can tell apart from them.
"""

from __future__ import annotations

import functools
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .laws import IncrementLaw, Orientation
from .oracle import Provenance, TailTable

BLOCK_SIZE = 8192  # a multiple of 4: see the module docstring
STABLE_JUMP_ORDER = 110000  # the least lumping order of a stable law's jumps
WILSON_Z = 1.959963984540054  # 97.5% normal quantile


@dataclass(frozen=True)
class SimConfig:
    law: IncrementLaw
    n: int
    paths: int
    seed: int
    workers: int = 1

    def __post_init__(self):
        if self.n < 1 or self.paths < 1:
            raise ValueError("n and paths must be positive")
        if self.workers < 1:
            raise ValueError("workers must be positive")


@functools.lru_cache(maxsize=32)
def _jump_cdf(law, order):
    """CDF over [+unit jump, then jumps of size 0, 1, 2, ...].

    Fixed ordering: the skip-free unit step comes first (mass q), then the
    opposite-direction jump sizes in increasing order, from
    law.jump_pmf(order).  Its last jump carries all the mass left, so the
    CDF ends at 1 or above and rounding in the cumulative sum cannot leave
    uniforms below 1 past it.
    """
    cdf = law.q + np.concatenate([[0.0], np.cumsum(law.jump_pmf(order))])
    cdf[-1] = max(cdf[-1], 1.0)
    cdf.setflags(write=False)  # one cached array serves every block
    return cdf


def sample_increment(law, uniform):
    """Inverse-CDF draw of one walk increment from a uniform in [0, 1)."""
    if not 0.0 <= uniform < 1.0:
        raise ValueError("uniform must lie in [0, 1)")
    return int(_sample_block(law, np.array([[uniform]]))[0, 0])


def _sample_block(law, uniforms):
    """Vectorized inverse-CDF sampling; uniforms has shape (paths, n)."""
    cdf = _jump_cdf(law, max(uniforms.shape[1], STABLE_JUMP_ORDER))
    idx = np.searchsorted(cdf, uniforms, side="right")
    # idx 0 -> unit jump; idx j >= 1 -> opposite jump of size j-1
    return 1 - idx if law.orientation is Orientation.RIGHT else idx - 1


def count_weak_records(path):
    """Number of m in [1, n] with S_m >= max(S_0..S_{m-1})."""
    inc = np.asarray(path)
    if inc.size == 0:
        raise ValueError("path must be nonempty")
    return int(_weak_records(np.cumsum(inc)))


def _weak_records(s):
    """Weak records per row of s = S_1..S_n: m with S_m >= max(0, S_1..S_m)."""
    top = np.maximum.accumulate(s, axis=-1)
    np.maximum(top, 0, out=top)
    return np.count_nonzero(s >= top, axis=-1)


def reflected_zero_visits(path):
    """Zero visits of the explicitly constructed reflected chain M_m - S_m."""
    inc = np.asarray(path)
    s = np.concatenate([[0], np.cumsum(inc)])
    m = np.maximum.accumulate(s)
    sbar = m - s
    return int(np.count_nonzero(sbar[1:] == 0))


def _block_histogram(law, n, seed, start, count):
    bg = np.random.Philox(key=seed)
    bg.advance(start * n // 4)  # path p starts at word p*n
    uniforms = np.random.Generator(bg).random((count, n))
    counts = _weak_records(np.cumsum(_sample_block(law, uniforms), axis=1))
    return np.bincount(counts, minlength=n + 1)


def empirical_tail(config):
    """Monte Carlo TailTable with Wilson 95% intervals.

    Deterministic for a fixed (seed, paths, n) regardless of the worker
    count: block b always covers paths [b*BLOCK, (b+1)*BLOCK) and block
    histograms are integers, so the merge is exact.
    """
    if config.paths < 1000:
        raise ValueError("need at least 10^3 paths")
    law, n, paths = config.law, config.n, config.paths
    starts = range(0, paths, BLOCK_SIZE)
    counts = [min(BLOCK_SIZE, paths - s) for s in starts]
    block = functools.partial(_block_histogram, law, n, config.seed)
    if config.workers == 1:
        hists = list(map(block, starts, counts))
    else:
        with ThreadPoolExecutor(max_workers=config.workers) as pool:
            hists = list(pool.map(block, starts, counts))
    hist = np.sum(hists, axis=0)
    tail_counts = np.cumsum(hist[::-1])[::-1]
    x = tail_counts.astype(float)
    est = x / paths
    lo, hi, hw = _wilson(x, paths)
    small = est[(est > 0) & (est < 10.0 / paths)]
    if small.size:
        warnings.warn(
            f"{small.size} tail estimates below 10/paths; "
            "plain MC is unreliable that deep",
            RuntimeWarning,
        )
    return TailTable(n, est, Provenance.MONTE_CARLO, float(hw.max()), lo, hi)


def _wilson(successes, trials):
    z = WILSON_Z
    phat = successes / trials
    denom = 1.0 + z * z / trials
    center = (phat + z * z / (2.0 * trials)) / denom
    hw = (
        z
        * np.sqrt(phat * (1.0 - phat) / trials + z * z / (4.0 * trials**2))
        / denom
    )
    return np.clip(center - hw, 0.0, 1.0), np.clip(center + hw, 0.0, 1.0), hw
