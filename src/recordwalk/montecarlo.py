"""Monte Carlo estimation of the weak-record tail.

Paths are driven by one PCG64DXSM stream seeded by the seed, and processed
in fixed blocks of BLOCK_SIZE paths whose integer count histograms are
summed.  The stream is keyed by step within a block: step t of column c of
the block of `count` paths starting at path `start` (a multiple of
BLOCK_SIZE) reads one 32-bit half-word, half c mod 2, low half first, of
word start*n/2 + t*w + c//2, where w = ceil(count/2) (an odd count leaves
the last half of each row unused).  The block calls
PCG64DXSM.advance(start*n/2), which jumps the generator's state in
O(log(start*n)) steps, and draws STEP_ROWS steps of all its columns at a
time as one (rows, w) array of words.  The halves are read as
little-endian, whatever the machine's byte order.  Blocks never overlap,
so the draws depend on neither STEP_ROWS nor the worker count, and the
integer merge makes the result bit-identical for any worker count; the
block width is part of the key, so BLOCK_SIZE is part of the stream.

Every path of n steps draws its jumps from _jump_grid(law, n): the jumps of
size n or more are lumped into one of size n, which no path of n steps can
tell apart from them, and each probability p_j is floored to the 2**-32
grid, a_j = floor(p_j * 2**32).  A half-word h below the last of the
thresholds T_j = a_0 + ... + a_j draws the index #{j : T_j <= h}, found by
counting h >= T_j in uint32 over the first COUNTED thresholds: they are
nondecreasing, so the count is exact for every h below T[COUNTED - 1], and
only the draws at or past it search the whole grid.  A half-word at or past
the last threshold, with probability at most (n + 2) * 2**-32, draws from
the residual weights b_j = p_j - a_j * 2**-32 instead, by a 53-bit uniform
from word k of the refinement stream PCG64DXSM(seed).jumped(), where
k = start*n + t*2w + c is the half-word's own index in the main stream;
the refinement stream is built only when such a draw occurs.  So
P(index = j) = p_j, up to the rounding of the residual CDF and the
normalisation of sum(p) to 1 within the residual.

A block walks the reflected chain L = M - S a step of every path at a
time, each row of indices overwritten by that step's level, and a weak
record is a visit of L to 0, counted once per STEP_ROWS rows.  The walk
keeps x = L on the left and x = n - L on the right, where a step with index
i is x <- max(x + 1 - i, 0), then x <- min(x, n) on the right only, the
reflection at L = 0; on the left L grows by at most 1 a step, so x <= n.
Each index is at most n + 1, so x + 1 and i fit np.min_scalar_type(n + 1):
one byte up to n = 254, two up to 65534.  Clipping L at n loses nothing: a
chain at level n or above never returns to 0 within n steps.  The level
carries from one draw of STEP_ROWS rows to the next, so memory per worker
is one draw of words (0.66 MB for a full block) and its indices and mask,
whatever n.
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
STEP_ROWS = 20  # steps of a block drawn and walked at a time
COUNTED = 6  # thresholds searched by counting: 6 and 7 tie, 8 is slower
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
    law.jump_pmf(order).  Its last jump carries all the mass left, so the
    CDF ends at 1 or above and rounding in the cumulative sum cannot leave
    uniforms below 1 past it.
    """
    cdf = law.q + np.concatenate([[0.0], np.cumsum(law.jump_pmf(order))])
    cdf[-1] = max(cdf[-1], 1.0)
    cdf.setflags(write=False)  # one cached array serves every block
    return cdf


@dataclass(frozen=True)
class _Grid:
    """A jump law on the 2**-32 grid, as _jump_grid builds it."""

    thresholds: np.ndarray  # T_j, int64, nondecreasing, at most 2**32
    head: np.ndarray  # the first COUNTED T_j, those below 2**32, as uint32
    searched: bool  # a draw at or past head[-1] may need more than the count
    residual: np.ndarray  # CDF of the b_j, empty if T_last = 2**32


@functools.lru_cache(maxsize=32)
def _jump_grid(law, order):
    """The law of the jump index of _jump_cdf on the 2**-32 grid (see the
    module docstring): p = (q, law.jump_pmf(order)), the jumps of size
    order or more lumped at size order, and a_j = floor(p_j * 2**32) and
    b_j = p_j - a_j * 2**-32, both exact in double."""
    p = np.concatenate([[law.q], law.jump_pmf(order)])
    a = np.floor(p * 2.0**32)
    thresholds = np.cumsum(a.astype(np.int64))
    below = np.count_nonzero(thresholds < 2**32)
    head = thresholds[: min(below, COUNTED)].astype(np.uint32)
    residual = np.empty(0)
    if below == thresholds.size:
        residual = np.cumsum(p - a * 2.0**-32)
        residual /= residual[-1]
    for array in (thresholds, head, residual):
        array.setflags(write=False)  # one cached grid serves every block
    return _Grid(thresholds, head, below > head.size or residual.size > 0,
                 residual)


def sample_increment(law, uniform):
    """Inverse-CDF draw of one walk increment from a uniform in [0, 1), from
    the CDF lumped at STABLE_JUMP_ORDER: a stable law's jumps of that size
    or more are drawn as one of that size."""
    if not 0.0 <= uniform < 1.0:
        raise ValueError("uniform must lie in [0, 1)")
    cdf = _jump_cdf(law, STABLE_JUMP_ORDER)
    idx = np.searchsorted(cdf, [uniform], side="right")
    return int(_increments(law, idx)[0])


def _increments(law, idx):
    """Walk increments, in place, from jump indices: index 0 is the unit
    jump and index j >= 1 the opposite jump of size j - 1."""
    if law.orientation is Orientation.RIGHT:
        return np.subtract(1, idx, out=idx)
    return np.subtract(idx, 1, out=idx)


def _grid_index(grid, h, seed, base, dtype=np.int32):
    """Jump indices, in a dtype that holds len(grid.thresholds) - 1, of the
    2-D array of half-words h, whose element at flat position k is
    half-word base + k of the stream: its residual draw reads that word of
    the refinement stream (see the module docstring).

    After the count `hit` holds h >= head[-1], the draws the count may
    miss; of those, the ones at or past T_last take the residual draw.
    """
    idx = np.zeros(h.shape, dtype=dtype)
    hit = np.empty(h.shape, dtype=bool)
    for c in grid.head:
        np.greater_equal(h, c, out=hit)
        # a uint8 view adds without casting the bools
        np.add(idx, hit.view(np.uint8), out=idx)
    if grid.searched and hit.any():
        pos = np.flatnonzero(hit)  # one pass over the mask, not two
        rows, steps = np.divmod(pos, h.shape[1])
        far = np.searchsorted(grid.thresholds, h[rows, steps], side="right")
        out = far == grid.thresholds.size
        if out.any():
            far[out] = np.searchsorted(
                grid.residual, _refine(seed, base + pos[out]), side="right")
        idx[rows, steps] = far
    return idx


def _refine(seed, words):
    """53-bit uniforms from the given ascending words of the refinement
    stream PCG64DXSM(seed).jumped()."""
    bg = np.random.PCG64DXSM(seed).jumped()
    uniforms, at = np.empty(len(words)), 0
    for i, word in enumerate(words.tolist()):
        bg.advance(word - at)
        uniforms[i] = (bg.random_raw() >> 11) * 2.0**-53
        at = word + 1
    return uniforms


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
    """Weak-record histogram of the block of count paths starting at path
    start, a multiple of BLOCK_SIZE: the zero visits of L = M - S, walked a
    step of every path at a time, STEP_ROWS steps to a draw (see the module
    docstring)."""
    grid, dtype = _jump_grid(law, n), np.min_scalar_type(n + 1)
    bg = np.random.PCG64DXSM(seed)
    bg.advance(start * n // 2)  # the blocks before it read n*start/2 words
    right = law.orientation is Orientation.RIGHT
    # constant arrays, not scalars: np.minimum(array, scalar) is not vectorized
    one, cap = np.ones(count, dtype), np.full(count, n, dtype)
    x0 = cap if right else np.zeros_like(cap)  # x where L = 0
    level, t, records = x0.copy(), np.empty_like(cap), np.zeros_like(cap)
    for lo in range(0, n, STEP_ROWS):
        raw = bg.random_raw((min(STEP_ROWS, n - lo), (count + 1) // 2))
        # little-endian words viewed as little-endian halves: low half first
        halves = raw.astype("<u8", copy=False).view("<u4")
        base = start * n + lo * halves.shape[1]  # index of its first half
        steps = _grid_index(grid, halves, seed, base, dtype)[:, :count]
        x = level
        for idx in steps:  # each row of indices overwritten by its level
            np.add(x, one, out=t)
            np.maximum(t, idx, out=t)
            x = np.subtract(t, idx, out=idx)
            if right:
                np.minimum(x, cap, out=x)
        np.copyto(level, x)  # x is a row of steps, which the count overwrites
        # into the rows themselves: a bool view as out makes numpy copy
        np.equal(steps, x0, out=steps)
        np.add(records, np.add.reduce(steps, axis=0, dtype=dtype), out=records)
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
    # each block's histogram is added as it comes, not held to the end
    if workers == 1:
        hist = sum(map(block, starts, counts))
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            hist = sum(pool.map(block, starts, counts))
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
