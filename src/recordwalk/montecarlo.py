"""Monte Carlo estimation of the weak-record tail.

Paths are driven by one PCG64DXSM stream seeded by the seed, and processed
in fixed blocks of BLOCK_SIZE paths whose integer count histograms are
summed.  Path p reads n uniforms, one 64-bit word each, from words
p*n .. p*n + n - 1 of the stream: the block starting at path `start` calls
PCG64DXSM.advance(start*n), which jumps the generator's state by start*n
words in O(log(start*n)) steps, so a block may start at any path.  The
uniforms of a path therefore depend on neither BLOCK_SIZE nor the worker
count, blocks never overlap, and the integer merge makes the result
bit-identical for any worker count.

Inside a block, rows are drawn a slice at a time from the block's one
Generator, at most SLICE_ROWS rows and SLICE_ROWS * 200 draws.  Row-major
draws read the stream words in the same order whatever the slice, and each
slice's arrays stay in cache.

Every path of n steps draws its jumps by inverse CDF from _jump_cdf(law, n):
the jumps of size n or more are lumped into one of size n, which no path of
n steps can tell apart from them.  The index is searchsorted(cdf, u,
side="right"), found by counting u >= cdf[j] over the first COUNTED entries
of the CDF: it is nondecreasing, so the count is exact for every u below
cdf[COUNTED - 1], and only the draws at or past it (none on a CDF of at most
COUNTED entries) search the whole CDF.

A block is walked one of two ways, to the same records.
- A path of n <= SHORT_PATH steps has each index at most n + 1 and keeps it
  in one byte, in a row per step holding that step of every path.  The
  reflected chain L = M - S is walked a row at a time across the whole
  block, and a weak record is a visit of L to 0.  The walk keeps x = L on
  the left and x = n - L on the right, where a step with index i is
  x <- min(max(x + 1 - i, 0), n): x + 1 and i fit a byte while
  n <= SHORT_PATH, and clipping L at n loses nothing, since a chain at level
  n or above never returns to 0 within n steps.  Memory per worker:
  n * BLOCK_SIZE bytes of indices (2.08 MB at n = SHORT_PATH) and one slice
  of uniforms (0.82 MB).
- A longer path counts records slice by slice on the partial sums S, in
  int32 while n * len(cdf), which bounds |S_m|, is below 2**31, and in
  int64 beyond.  Memory per worker is one slice of uniforms and a few
  arrays of its size, whatever n.
"""

from __future__ import annotations

import functools
import os
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .laws import IncrementLaw, Orientation
from .oracle import Provenance, TailTable

BLOCK_SIZE = 8192  # paths per block: see the module docstring
SLICE_ROWS = 512  # most rows drawn and walked at a time inside a block
COUNTED = 8  # CDF entries searched by counting
SHORT_PATH = 254  # the longest path walked a step at a time: n + 1 fits a byte
STABLE_JUMP_ORDER = 110000  # the lumping order of sample_increment
WILSON_Z = 1.959963984540054  # 97.5% normal quantile


class TooFewPathsError(ValueError):
    """A SimConfig asked for fewer than 10^3 paths: a usage error."""


@dataclass(frozen=True)
class SimConfig:
    law: IncrementLaw
    n: int
    paths: int
    seed: int
    workers: int = 1

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("n must be positive")
        if self.paths < 1000:
            raise TooFewPathsError(
                f"need at least 10^3 paths, got {self.paths}")
        if self.workers < 1:
            raise ValueError("workers must be positive")


@functools.lru_cache(maxsize=32)
def _jump_cdf(law, order):
    """CDF over [+unit jump, then jumps of size 0, 1, ..., order].

    Fixed ordering: the skip-free unit step comes first (mass q), then the
    opposite-direction jump sizes in increasing order, from
    law.jump_pmf(order), with an explicit law's support cut at size order.
    Its last jump carries all the mass left, so the CDF ends at 1 or above
    and rounding in the cumulative sum cannot leave uniforms below 1 past it.
    """
    pmf = law.jump_pmf(order)[: order + 1]
    cdf = law.q + np.concatenate([[0.0], np.cumsum(pmf)])
    cdf[-1] = max(cdf[-1], 1.0)
    cdf.setflags(write=False)  # one cached array serves every block
    return cdf


def sample_increment(law, uniform):
    """Inverse-CDF draw of one walk increment from a uniform in [0, 1), from
    the CDF lumped at STABLE_JUMP_ORDER: a stable law's jumps of that size
    or more are drawn as one of that size."""
    if not 0.0 <= uniform < 1.0:
        raise ValueError("uniform must lie in [0, 1)")
    idx = _jump_index(_jump_cdf(law, STABLE_JUMP_ORDER), np.array([uniform]))
    return int(_increments(law, idx)[0])


def _increments(law, idx):
    """Walk increments, in place, from jump indices: index 0 is the unit
    jump and index j >= 1 the opposite jump of size j - 1."""
    if law.orientation is Orientation.RIGHT:
        return np.subtract(1, idx, out=idx)
    return np.subtract(idx, 1, out=idx)


def _jump_index(cdf, u, dtype=np.int32):
    """searchsorted(cdf, u, side="right") for u in [0, 1), in a dtype that
    holds len(cdf) - 1.

    Entries of 1 or more are above every u and count nothing.  After the
    loop `hit` holds u >= cdf[COUNTED - 1], the draws the count may miss.
    """
    idx = np.zeros(u.shape, dtype=dtype)
    hit = np.empty(u.shape, dtype=bool)
    head = cdf[:COUNTED]
    for c in head[head < 1.0]:
        np.greater_equal(u, c, out=hit)
        idx += hit
    if cdf.size > COUNTED and head[-1] < 1.0:
        idx[hit] = np.searchsorted(cdf, u[hit], side="right")
    return idx


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


def _slices(gen, n, count):
    """(first row, uniforms) of each slice of a block's count rows."""
    rows = max(1, min(SLICE_ROWS, SLICE_ROWS * 200 // n))
    buf = np.empty((min(rows, count), n))
    for lo in range(0, count, rows):
        yield lo, gen.random(out=buf[: min(rows, count - lo)])


def _walk_sums(law, cdf, n, gen, count):
    """Weak records per path of a long block, slice by slice on S."""
    width = np.int32 if n * cdf.size < 2**31 else np.int64
    records = np.empty(count, dtype=np.intp)
    for lo, uniforms in _slices(gen, n, count):
        inc = _increments(law, _jump_index(cdf, uniforms, width))
        records[lo : lo + len(uniforms)] = _weak_records(
            np.cumsum(inc, axis=-1, dtype=width))
    return records


def _walk_levels(law, cdf, n, gen, count):
    """Weak records per path of a short block: the zero visits of L = M - S,
    a step of every path at a time (see the module docstring)."""
    steps = np.empty((n, count), dtype=np.uint8)
    for lo, uniforms in _slices(gen, n, count):
        steps[:, lo : lo + len(uniforms)] = _jump_index(cdf, uniforms,
                                                        np.uint8).T
    # constant arrays, not scalars: np.minimum(array, scalar) is not vectorized
    one, cap = np.ones(count, np.uint8), np.full(count, n, np.uint8)
    x0 = cap if law.orientation is Orientation.RIGHT else np.zeros_like(cap)
    x, t = x0.copy(), np.empty_like(cap)  # x0: x where L = 0
    hit, records = np.empty(count, bool), np.zeros(count, np.uint8)
    for idx in steps:
        np.add(x, one, out=t)
        np.maximum(t, idx, out=t)
        np.subtract(t, idx, out=x)
        np.minimum(x, cap, out=x)
        np.equal(x, x0, out=hit)
        np.add(records, hit, out=records)
    return records


def _block_histogram(law, n, seed, start, count):
    bg = np.random.PCG64DXSM(seed)
    bg.advance(start * n)  # path p starts at word p*n
    walk = _walk_levels if n <= SHORT_PATH else _walk_sums
    records = walk(law, _jump_cdf(law, n), n, np.random.Generator(bg), count)
    return np.bincount(records, minlength=n + 1)


def empirical_tail(config):
    """Monte Carlo TailTable with Wilson 95% intervals.

    Deterministic for a fixed (seed, paths, n) regardless of the worker
    count: block b always covers paths [b*BLOCK, (b+1)*BLOCK) and block
    histograms are integers, so the merge is exact.
    """
    law, n, paths = config.law, config.n, config.paths
    starts = range(0, paths, BLOCK_SIZE)
    counts = [min(BLOCK_SIZE, paths - s) for s in starts]
    block = functools.partial(_block_histogram, law, n, config.seed)
    workers = min(config.workers, len(starts), _usable_cpus())
    if workers == 1:
        hists = list(map(block, starts, counts))
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
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


def _usable_cpus():
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity mask on this platform
        return os.cpu_count() or 1


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
