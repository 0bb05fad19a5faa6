"""Monte Carlo sampling, record counting, and reproducibility."""

import contextlib
import dataclasses
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from recordwalk import (
    IncrementLaw,
    Orientation,
    Provenance,
    SimConfig,
    build_kernel,
    count_weak_records,
    empirical_tail,
    exact_An_distribution,
    reflected_zero_visits,
    sample_increment,
)
from recordwalk import montecarlo
from recordwalk.montecarlo import TooFewPathsError, _wilson
from support import (ASYM, BUNDLED_LAWS, EDGE_LAWS, LONG_JUMP, LONG_JUMP_LEFT,
                     STABLE, STABLE_LEFT, SYM, SYM_LEFT, bundled_law)

# critical, with support 0..299: p_0 = 0.5 - 0.5/299 and p_299 = 0.5/299
SUPPORT_300, SUPPORT_300_LEFT = (
    IncrementLaw.explicit(side, 0.5, [0.5 - 0.5 / 299] + [0.0] * 298
                          + [0.5 / 299])
    for side in ("right", "left"))


def half_words(seed, start, count, n):
    """Step t of column c of the block of count paths at path start reads
    half c % 2, low half first, of stream word start*n/2 + t*w + c//2,
    w = ceil(count/2): the block's half-words, split by arithmetic, one row
    of n steps per path."""
    words = (count + 1) // 2
    bg = np.random.PCG64DXSM(seed)
    bg.advance(start * n // 2)
    raw = bg.random_raw(n * words)
    halves = np.stack([raw & 0xFFFFFFFF, raw >> 32], axis=-1)
    return halves.reshape(n, 2 * words)[:, :count].T


def refinement_uniform(seed, word):
    """The 53-bit uniform of one word of the refinement stream."""
    bg = np.random.PCG64DXSM(seed).jumped().advance(int(word))
    return np.random.Generator(bg).random()


def reference_block(law, n, seed, start, count, order=None):
    """A block's histogram the plain way, from the grid lumped at order
    (default n): one draw of all its rows, a full searchsorted, a residual
    draw for each half-word past the last threshold, keyed by its index
    start*n + t*2w + c in the stream, and an int64 walk."""
    grid = montecarlo._jump_grid(law, n if order is None else order)
    h = half_words(seed, start, count, n)
    idx = np.searchsorted(grid.thresholds, h, side="right")
    row = 2 * ((count + 1) // 2)
    for c, t in zip(*np.nonzero(idx == grid.thresholds.size)):
        u = refinement_uniform(seed, start * n + t * row + c)
        idx[c, t] = np.searchsorted(grid.residual, u, side="right")
    inc = 1 - idx if law.orientation is Orientation.RIGHT else idx - 1
    walk = np.cumsum(inc, axis=1, dtype=np.int64)
    return np.bincount(montecarlo._weak_records(walk), minlength=n + 1)


def below_10_paths(expected=True):
    """Asserts empirical_tail's documented warning on a tail that reaches
    below 10/paths."""
    if not expected:
        return contextlib.nullcontext()
    return pytest.warns(RuntimeWarning, match="below 10/paths")


class TestConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            SimConfig(SYM, 0, 1000, 1)
        with pytest.raises(ValueError):
            SimConfig(SYM, 10, 0, 1)
        with pytest.raises(ValueError):
            SimConfig(SYM, 10, 1000, 1, workers=0)


class TestSampling:
    def test_symmetric_inverse_cdf(self):
        # CDF order is [unit jump (mass q), jump sizes 0, 1, ...]
        assert sample_increment(SYM, 0.2) == 1
        assert sample_increment(SYM, 0.49) == 1
        assert sample_increment(SYM, 0.6) == -1
        assert sample_increment(SYM, 0.999) == -1

    def test_left_orientation_mirrors(self):
        assert sample_increment(SYM_LEFT, 0.2) == -1
        assert sample_increment(SYM_LEFT, 0.6) == 1

    def test_asym_jump_sizes(self):
        # CDF breakpoints 0.4 | 0.75 | 0.85 | 1.0
        assert sample_increment(ASYM, 0.39) == 1
        assert sample_increment(ASYM, 0.5) == 0
        assert sample_increment(ASYM, 0.8) == -1
        assert sample_increment(ASYM, 0.9) == -2

    def test_top_uniform_stays_in_support(self):
        # Support {+1, 0, -1}; the float running sum of q, p_0, p_1 ends at
        # 0.9999999999999999, the largest uniform Generator.random returns.
        law = IncrementLaw.explicit("right", 0.35, [0.3, 0.35])
        u = np.nextafter(1.0, 0.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert sample_increment(law, float(u)) == -1

    @pytest.mark.parametrize("side", ["right", "left"])
    def test_top_uniform_draws_the_lumped_stable_jump(self, side):
        # A stable law's jumps of size >= the lumping order are one:
        # STABLE_JUMP_ORDER for sample_increment, and the path length for a
        # block's walk, whose top half-word below the residual region draws
        # the lumped jump.
        law = STABLE if side == "right" else STABLE_LEFT
        u = np.nextafter(1.0, 0.0)
        sign = -1 if side == "right" else 1
        order = montecarlo.STABLE_JUMP_ORDER
        grid = montecarlo._jump_grid(law, 3)
        h = np.full((2, 3), grid.thresholds[-1] - 1, dtype=np.uint32)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            short = montecarlo._increments(
                law, montecarlo._grid_index(grid, h, 1, 0))
            assert sample_increment(law, float(u)) == sign * order
        assert np.all(short == sign * 3)

    @pytest.mark.parametrize("name", BUNDLED_LAWS)
    def test_counted_index_is_searchsorted(self, name):
        # below the last threshold the count and the full search agree
        grid = montecarlo._jump_grid(bundled_law(name),
                                     montecarlo.STABLE_JUMP_ORDER)
        top = grid.thresholds[-1]
        inner = grid.thresholds[grid.thresholds < top]
        h = np.concatenate([
            inner, np.maximum(inner - 1, 0), [0, top - 1],
            np.random.default_rng(17).integers(0, top, 10**5),
        ]).astype(np.uint32)
        idx = montecarlo._grid_index(grid, h.reshape(1, -1), 1, 0)
        assert idx.dtype == np.int32
        assert np.array_equal(
            idx[0], np.searchsorted(grid.thresholds, h, side="right"))

    def test_counted_index_far_branch_on_explicit_law(self):
        # Jump sizes 0..11, critical: 13 thresholds below 2**32, past the
        # counted head, so half-words at or above T[COUNTED - 1] (about
        # 5.3%) take the full search.
        law = IncrementLaw.explicit("right", 0.5, [5 / 12] + [1 / 132] * 11)
        grid = montecarlo._jump_grid(law, montecarlo.STABLE_JUMP_ORDER)
        top = grid.thresholds[-1]
        assert grid.searched and grid.head.size == montecarlo.COUNTED
        inner = grid.thresholds[grid.thresholds < top]
        h = np.concatenate([inner, np.maximum(inner - 1, 0),
                            np.random.default_rng(5).integers(0, top, 10**4)
                            ]).astype(np.uint32)
        assert np.count_nonzero(h >= grid.head[-1]) > 300
        assert np.array_equal(
            montecarlo._grid_index(grid, h.reshape(1, -1), 1, 0)[0],
            np.searchsorted(grid.thresholds, h, side="right"))
        hist = montecarlo._block_histogram(law, 30, 4, 8192, 1000)
        assert np.array_equal(hist, reference_block(law, 30, 4, 8192, 1000))

    def test_uniform_domain(self):
        with pytest.raises(ValueError):
            sample_increment(SYM, 1.0)

    def test_stable_sampling_moments(self):
        rng = np.random.default_rng(3)
        draws = np.array(
            [sample_increment(STABLE, float(u)) for u in rng.random(4000)]
        )
        assert abs(draws.mean()) < 0.1  # critical: zero drift


class TestGrid:
    @pytest.mark.parametrize("law", [*map(bundled_law, BUNDLED_LAWS),
                                     *EDGE_LAWS],
                             ids=[*BUNDLED_LAWS,
                                  *(f"edge-{i}" for i in range(len(EDGE_LAWS)))])
    @pytest.mark.parametrize("n", [1, 60, 200, 254, 255, 1000])
    def test_grid_rebuilds_the_lumped_pmf(self, law, n):
        # P(index = j) = a_j * 2**-32 + (1 - T_last * 2**-32) * (the
        # residual CDF's step j) is p_j, up to a rounding of the sum, the
        # normalisation of sum(p) to 1 and the rounding of the residual
        # CDF: a cumulative sum of n + 2 terms, on at most (n + 2) * 2**-32
        # of the mass.  The normalisation moves p_j by at most |1 - sum(p)|,
        # taken exactly: a deficit below half an ulp of 1 rounds the float
        # sum to 1 and still shows in the residual.
        grid = montecarlo._jump_grid(law, n)
        t = grid.thresholds
        assert t.dtype == np.int64 and not t.flags.writeable
        assert t[0] >= 0 and np.all(np.diff(t) >= 0) and t[-1] <= 2**32
        pmf = law.jump_pmf(n)[:n]
        p = np.zeros(n + 2)
        p[0], p[1 : 1 + pmf.size], p[n + 1] = law.q, pmf, law.jump_tails(n)[n]
        rebuilt = np.zeros(n + 2)
        rebuilt[: t.size] = np.diff(t, prepend=0) * 2.0**-32
        if grid.residual.size:
            assert grid.residual[-1] == 1.0
            rebuilt[: t.size] += ((1.0 - t[-1] * 2.0**-32)
                                  * np.diff(grid.residual, prepend=0.0))
        else:
            assert t[-1] == 2**32
        eps = np.finfo(float).eps
        bound = (eps * p + abs(math.fsum([1.0, *-p]))
                 + 2 * (n + 2) ** 2 * eps * 2.0**-32)
        assert np.all(np.abs(rebuilt - p) <= bound)

    @pytest.mark.parametrize("law", [SYM, SYM_LEFT], ids=["right", "left"])
    @pytest.mark.parametrize("n", [1, 60, 255])
    def test_dyadic_law_has_no_residual_region(self, law, n):
        # mass 1/2 and 1/2: every half-word is decided by one threshold
        grid = montecarlo._jump_grid(law, n)
        assert grid.thresholds.tolist() == [2**31, 2**31, 2**32]
        assert grid.residual.size == 0 and not grid.searched
        assert grid.head.tolist() == [2**31, 2**31]

    @pytest.mark.parametrize("law", [ASYM, STABLE], ids=["asym", "stable"])
    @pytest.mark.parametrize("dtype", [np.int32, np.uint8])
    def test_residual_branch_reads_the_refinement_stream(self, law, dtype):
        # Half-words at or past T_last draw from the residual CDF by word
        # base + (flat position) of PCG64DXSM(seed).jumped(); the rest by
        # the thresholds.
        n, seed, base = 3, 9, 5 * 3
        grid = montecarlo._jump_grid(law, n)
        top = grid.thresholds[-1]
        assert top < 2**32
        h = np.array([[2**32 - 1, 0, 2**32 - 1], [top - 1, 2**32 - 1, top]],
                     dtype=np.uint32)
        expected = np.searchsorted(grid.thresholds, h, side="right")
        for r, t in zip(*np.nonzero(h >= top)):
            u = refinement_uniform(seed, base + r * n + t)
            expected[r, t] = np.searchsorted(grid.residual, u, side="right")
        idx = montecarlo._grid_index(grid, h, seed, base, dtype)
        assert idx.dtype == dtype
        assert np.array_equal(idx, expected)
        assert np.all(idx <= n + 1)

    @pytest.mark.parametrize("n", [37, 255])
    def test_residual_draws_keep_the_path_layout(self, monkeypatch, n):
        # Residual draws are rare (about one a monte-carlo pass), so a grid
        # with its thresholds halved sends every half-word at or past T_last
        # (about half of them) to the refinement stream: across draws of 7
        # steps of a block of 31 paths starting at path 8192, with one byte
        # of level at n = 37 and two at 255, half-word start*n + t*32 + c
        # keys step t of column c (the 32nd half-word of each row unused).
        grid = montecarlo._jump_grid(ASYM, n)
        half = grid.thresholds // 2
        wide = dataclasses.replace(grid, thresholds=half,
                                   head=half.astype(np.uint32))
        assert half.size <= montecarlo.COUNTED and wide.searched
        monkeypatch.setattr(montecarlo, "_jump_grid", lambda law, order: wide)
        monkeypatch.setattr(montecarlo, "STEP_ROWS", 7)
        refined = []
        refine = montecarlo._refine

        def spy(seed, words):
            refined.append(words.size)
            return refine(seed, words)

        monkeypatch.setattr(montecarlo, "_refine", spy)
        hist = montecarlo._block_histogram(ASYM, n, 4, 8192, 31)
        assert len(refined) == -(-n // 7)  # every draw refines some
        assert sum(refined) > 31 * n // 3
        assert np.array_equal(hist, reference_block(ASYM, n, 4, 8192, 31))

    def test_tiny_jump_is_drawn_only_through_the_residual(self, monkeypatch):
        # A jump of size 5 with probability 1e-12 floors to a_6 = 0 on the
        # grid: no threshold step draws index 6, and the residual CDF gives
        # it its 1e-12.
        law = IncrementLaw.explicit(
            "right", 0.5, [0.1 + 4e-12, 0.3 - 5e-12, 0.1, 0.0, 0.0, 1e-12])
        grid = montecarlo._jump_grid(law, 60)
        t = grid.thresholds
        assert t.size == 7 and t[6] == t[5] < 2**32
        h = np.concatenate([t[:6], t[:6] - 1, [2**32 - 1] * 3,
                            np.random.default_rng(3).integers(0, 2**32, 10**5)
                            ]).astype(np.uint32).reshape(1, -1)
        assert not np.any(montecarlo._grid_index(grid, h, 1, 0) == 6)
        share = (1.0 - t[-1] * 2.0**-32) * (grid.residual[6]
                                             - grid.residual[5])
        assert share == pytest.approx(1e-12, rel=1e-9)
        monkeypatch.setattr(montecarlo, "_refine",
                            lambda seed, words: np.full(words.size,
                                                        grid.residual[5]))
        top = np.full((1, 4), 2**32 - 1, dtype=np.uint32)
        assert np.all(montecarlo._grid_index(grid, top, 1, 0) == 6)


class TestRecordCounting:
    def test_manual_path(self):
        # S = 1, 0, -1, 0; only the first step is a weak record
        assert count_weak_records([1, -1, -1, 1]) == 1

    def test_all_records(self):
        assert count_weak_records([0, 0, 1, 0]) == 4

    def test_empty_path(self):
        with pytest.raises(ValueError):
            count_weak_records([])

    @given(st.lists(st.sampled_from([-3, -2, -1, 0, 1]), min_size=1,
                    max_size=60))
    @settings(max_examples=200, deadline=None)
    def test_equals_reflected_zero_visits(self, path):
        assert count_weak_records(path) == reflected_zero_visits(path)


class TestEmpiricalTail:
    def test_minimum_paths(self):
        # a ValueError, as before, of the type cli.main maps to exit 2
        with pytest.raises(ValueError) as exc:
            empirical_tail(SimConfig(SYM, 10, 500, 1))
        assert isinstance(exc.value, TooFewPathsError)

    def test_basic_shape(self):
        with below_10_paths():
            table = empirical_tail(SimConfig(SYM, 10, 5000, 42))
        assert table.provenance is Provenance.MONTE_CARLO
        assert table.tail[0] == 1.0
        assert np.all(np.diff(table.tail) <= 0.0)
        assert np.all(table.ci_lo <= table.tail)
        assert np.all(table.tail <= table.ci_hi)

    def test_deterministic_rerun(self):
        with below_10_paths():
            a = empirical_tail(SimConfig(SYM, 12, 20000, 7))
        with below_10_paths():
            b = empirical_tail(SimConfig(SYM, 12, 20000, 7))
        assert np.array_equal(a.tail, b.tail)

    def test_worker_count_invariance(self):
        one = empirical_tail(SimConfig(ASYM, 12, 30000, 11, workers=1))
        four = empirical_tail(SimConfig(ASYM, 12, 30000, 11, workers=4))
        assert np.array_equal(one.tail, four.tail)
        assert np.array_equal(one.ci_lo, four.ci_lo)

    @pytest.mark.parametrize("law", [SYM, STABLE], ids=["sym", "stable-right"])
    @pytest.mark.parametrize("n", [7, 20, 37, 253, 255])
    def test_row_slice_invariance(self, monkeypatch, law, n):
        # A block draws STEP_ROWS steps of all its columns at a time and
        # carries the level from one draw to the next; the words are read
        # in the same order whatever the draw, which ends short unless
        # STEP_ROWS divides n.  Blocks of 8192, 8192 and 3616 paths.
        tables = []
        for rows in (20, 25, 7, 1):
            monkeypatch.setattr(montecarlo, "STEP_ROWS", rows)
            with below_10_paths(n >= (20 if law is SYM else 253)):
                tables.append(empirical_tail(SimConfig(law, n, 20000, 3)))
        for table in tables[1:]:
            assert np.array_equal(table.tail, tables[0].tail)
            assert np.array_equal(table.ci_lo, tables[0].ci_lo)

    @pytest.mark.parametrize("name", BUNDLED_LAWS)
    def test_block_matches_plain_draw(self, name):
        # The level is one byte up to n = 254 and two from 255 on.  Draws
        # of STEP_ROWS = 20 steps end short at n = 1, 2, 37, 253 and 255.
        # The second block starts at path 8192: the stream advances by
        # 8192 * n / 2 words.  An odd count (the last block of an odd
        # number of paths) leaves half of each row's last word unused.
        law = bundled_law(name)
        assert montecarlo.STEP_ROWS == 20
        assert np.min_scalar_type(254 + 1) == np.uint8
        assert np.min_scalar_type(255 + 1) == np.uint16
        for n, seed, start, count in [
                (1, 6, 0, 1100), (2, 6, 8192, 1101), (37, 3, 0, 701),
                (37, 3, 8192, 700), (253, 3, 8192, 701), (255, 3, 8192, 700),
                (60, 6, 8192, 1100), (200, 11, 0, 1500), (253, 6, 0, 1100),
                (254, 6, 8192, 1099), (255, 6, 0, 1101),
                (20000, 5, 8192, 13)]:
            assert np.array_equal(
                montecarlo._block_histogram(law, n, seed, start, count),
                reference_block(law, n, seed, start, count))

    @pytest.mark.parametrize("law, n", [
        (LONG_JUMP, 30), (LONG_JUMP_LEFT, 30),
        (SUPPORT_300, 253), (SUPPORT_300_LEFT, 253),
        (SUPPORT_300, 254), (SUPPORT_300_LEFT, 254),
        (SUPPORT_300, 255), (SUPPORT_300_LEFT, 255),
        (SUPPORT_300, 299), (SUPPORT_300_LEFT, 299),
    ], ids=["long-jump-30", "long-jump-left-30", "support-300-253",
            "support-300-left-253", "support-300-254", "support-300-left-254",
            "support-300-255", "support-300-left-255", "support-300-299",
            "support-300-left-299"])
    def test_walks_lump_jumps_past_the_horizon(self, law, n):
        # The walk draws from the grid that lumps the support at size n, so
        # its index stays within n + 1, which fits the level's dtype (one
        # byte up to n = 254, two at 255 and 299), and no path sees a jump
        # past n.  The
        # reference draws from the whole support, whose one jump of size n
        # or more (299, or 50 at n = 30) has the lumped jump's mass, so the
        # two grids differ only in its index; these rows draw it.
        grid = montecarlo._jump_grid(law, n)
        assert grid.thresholds.size == n + 2
        h = half_words(2, 0, 1100, n)
        assert np.count_nonzero(h >= grid.thresholds[n]) > 0
        hist = montecarlo._block_histogram(law, n, 2, 0, 1100)
        order = montecarlo.STABLE_JUMP_ORDER
        assert np.array_equal(hist,
                              reference_block(law, n, 2, 0, 1100, order))

    @pytest.mark.parametrize("law, lumped, all_records", [
        (SYM, False, True), (SYM, True, False), (SYM_LEFT, False, False),
        (SYM_LEFT, True, True),
    ], ids=["right-up", "right-lumped-down", "left-down", "left-lumped-up"])
    def test_short_walk_byte_edge(self, monkeypatch, law, lumped, all_records):
        # The level and the indices take np.min_scalar_type(n + 1): one byte
        # up to n = 254, two from 255 to 65534, four from 65535.  At the top
        # of each width every step of index 0 takes the left level x = L up
        # by one, to n at the last step: x + 1 stays within the dtype with
        # no cap.  On the right the cap at n is the reflection at L = 0, and
        # x + 1 reaches n + 1, the dtype's top.  Index n + 1 is the jump
        # lumped at n.  9 columns: an odd count.
        count = 9
        for n, dtype in [(254, np.uint8), (255, np.uint16),
                         (65534, np.uint16), (65535, np.uint32)]:
            index = n + 1 if lumped else 0

            def stub(grid, h, seed, base, dt):
                assert dt == dtype and h.shape[1] == count + 1
                return np.full(h.shape, index, dt)

            monkeypatch.setattr(montecarlo, "_grid_index", stub)
            hist = montecarlo._block_histogram(law, n, 1, 0, count)
            inc = montecarlo._increments(
                law, np.full((count, n), index, np.int64))
            plain = montecarlo._weak_records(np.cumsum(inc, axis=-1))
            assert np.array_equal(hist, np.bincount(plain, minlength=n + 1))
            assert hist[n if all_records else 0] == count

    @pytest.mark.parametrize("n", [254, 255, 20000])
    def test_block_memory_is_bounded(self, n):
        # A full block holds one draw of STEP_ROWS = 20 steps at a time:
        # 0.66 MB of words, their indices (0.16 MB in one byte at n = 254,
        # 0.33 MB in two at 255 and 20000) and a mask of them (0.16 MB),
        # whatever n.  A block of all its steps at once would hold 2.08 MB
        # of one-byte indices at n = 254, and 82 MB of words at n = 20000.
        bound = 3.5 * 2**20
        # the cached grid is built before the trace starts
        montecarlo._jump_grid(STABLE, n)
        tracemalloc.start()
        try:
            montecarlo._block_histogram(STABLE, n, 5, 0, montecarlo.BLOCK_SIZE)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= bound, peak

    def test_block_histograms_are_added_as_they_come(self, monkeypatch):
        # 100 blocks whose histograms are 0.8 MB each: held to the end they
        # would take 80 MB, added as they come a few of them at a time.
        n, paths = 10**5, 100 * montecarlo.BLOCK_SIZE

        def block(law, n, seed, start, count):
            hist = np.zeros(n + 1, dtype=np.int64)
            hist[start // montecarlo.BLOCK_SIZE] = count
            return hist

        monkeypatch.setattr(montecarlo, "_block_histogram", block)
        tracemalloc.start()
        try:
            table = empirical_tail(SimConfig(SYM, n, paths, 1))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 16 * 2**20, peak
        k = np.arange(n + 1)
        assert np.array_equal(table.tail,
                              np.where(k < 100, (100 - k) / 100, 0.0))

    @pytest.mark.parametrize("workers, cpus, pool", [
        (100000, 3, 3),  # capped by the usable CPUs
        (100000, 64, 5),  # capped by the block count
        (4, 64, 4),
        (2, 1, None),  # one usable CPU: no pool
        (1, 64, None),
    ])
    def test_thread_pool_is_capped(self, monkeypatch, workers, cpus, pool):
        started = []

        class SerialExecutor:
            def __init__(self, max_workers):
                started.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, *iterables):
                return map(fn, *iterables)

        monkeypatch.setattr(montecarlo, "ThreadPoolExecutor", SerialExecutor)
        monkeypatch.setattr(montecarlo, "_usable_cpus", lambda: cpus)
        paths = 4 * montecarlo.BLOCK_SIZE + 500  # five blocks
        table = empirical_tail(SimConfig(ASYM, 9, paths, 2, workers=workers))
        assert started == ([] if pool is None else [pool])
        monkeypatch.undo()
        plain = empirical_tail(SimConfig(ASYM, 9, paths, 2))
        assert np.array_equal(table.tail, plain.tail)

    def test_seed_changes_output(self):
        with below_10_paths():
            a = empirical_tail(SimConfig(SYM, 12, 20000, 1))
        with below_10_paths():
            b = empirical_tail(SimConfig(SYM, 12, 20000, 2))
        assert not np.array_equal(a.tail, b.tail)

    def test_matches_dp_roughly(self):
        n = 12
        mc = empirical_tail(SimConfig(SYM, n, 200000, 5))
        dp = exact_An_distribution(build_kernel(SYM, n), n)
        hw = (mc.ci_hi - mc.ci_lo) / 2.0
        assert np.all(np.abs(mc.tail - dp.tail) <= 5.0 * hw + 1e-12)

    @pytest.mark.parametrize("name", BUNDLED_LAWS)
    @pytest.mark.parametrize("n", [60, 300])
    @pytest.mark.filterwarnings("ignore:.*below 10/paths")
    def test_every_bundled_law_matches_dp(self, name, n):
        # n = 60 walks in one byte and n = 300 in two; two blocks, the
        # second starting at path 8192.
        law = bundled_law(name)
        mc = empirical_tail(SimConfig(law, n, 16384, 23))
        dp = exact_An_distribution(build_kernel(law, n), n)
        hw = (mc.ci_hi - mc.ci_lo) / 2.0
        assert np.all(np.abs(mc.tail - dp.tail) <= 5.0 * hw + 1e-12)


def test_wilson_interval_sanity():
    lo, hi, hw = _wilson(np.array([0.0, 50.0, 100.0]), 100)
    assert lo[0] == pytest.approx(0.0, abs=1e-12)
    assert hi[2] == pytest.approx(1.0, abs=1e-12)
    assert np.all(hw > 0.0)
    assert lo[1] < 0.5 < hi[1]
