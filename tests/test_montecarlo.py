"""Monte Carlo sampling, record counting, and reproducibility."""

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
from support import (ASYM, BUNDLED_LAWS, LONG_JUMP, LONG_JUMP_LEFT, STABLE,
                     STABLE_LEFT, SYM, SYM_LEFT, bundled_law)

# critical, with support 0..299: p_0 = 0.5 - 0.5/299 and p_299 = 0.5/299
SUPPORT_300, SUPPORT_300_LEFT = (
    IncrementLaw.explicit(side, 0.5, [0.5 - 0.5 / 299] + [0.0] * 298
                          + [0.5 / 299])
    for side in ("right", "left"))


def reference_block(law, n, seed, start, count):
    """A block's histogram the plain way: one draw of all its rows, a full
    searchsorted and an int64 walk."""
    bg = np.random.PCG64DXSM(seed)
    bg.advance(start * n)
    uniforms = np.random.Generator(bg).random((count, n))
    cdf = montecarlo._jump_cdf(law, max(n, montecarlo.STABLE_JUMP_ORDER))
    idx = np.searchsorted(cdf, uniforms, side="right")
    inc = 1 - idx if law.orientation is Orientation.RIGHT else idx - 1
    walk = np.cumsum(inc, axis=1, dtype=np.int64)
    return np.bincount(montecarlo._weak_records(walk), minlength=n + 1)


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
        # A stable law's CDF ends with all jumps of size >= the lumping
        # order in one: STABLE_JUMP_ORDER for sample_increment, and the path
        # length for a block's walk.
        law = STABLE if side == "right" else STABLE_LEFT
        u = np.nextafter(1.0, 0.0)
        sign = -1 if side == "right" else 1
        order = montecarlo.STABLE_JUMP_ORDER
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            short = montecarlo._increments(law, montecarlo._jump_index(
                montecarlo._jump_cdf(law, 3), np.full((2, 3), u)))
            assert sample_increment(law, float(u)) == sign * order
        assert np.all(short == sign * 3)

    @pytest.mark.parametrize("name", BUNDLED_LAWS)
    def test_counted_index_is_searchsorted(self, name):
        cdf = montecarlo._jump_cdf(bundled_law(name),
                                   montecarlo.STABLE_JUMP_ORDER)
        inner = cdf[cdf < 1.0]
        u = np.concatenate([
            inner, np.nextafter(inner, 0.0), [0.0, np.nextafter(1.0, 0.0)],
            np.random.default_rng(17).random(10**5),
        ])
        idx = montecarlo._jump_index(cdf, u)
        assert idx.dtype == np.int32
        assert np.array_equal(idx, np.searchsorted(cdf, u, side="right"))

    def test_counted_index_far_branch_on_explicit_law(self):
        # Jump sizes 0..11, critical: the CDF has 12 entries below 1, past
        # the counted head, so draws at or above cdf[COUNTED - 1] (about 4%)
        # take the full search.
        law = IncrementLaw.explicit("right", 0.5, [5 / 12] + [1 / 132] * 11)
        cdf = montecarlo._jump_cdf(law, montecarlo.STABLE_JUMP_ORDER)
        assert cdf.size > montecarlo.COUNTED
        inner = cdf[cdf < 1.0]
        u = np.concatenate([inner, np.nextafter(inner, 0.0),
                            np.random.default_rng(5).random(10**4)])
        assert np.count_nonzero(u >= cdf[montecarlo.COUNTED - 1]) > 300
        assert np.array_equal(montecarlo._jump_index(cdf, u),
                              np.searchsorted(cdf, u, side="right"))
        hist = montecarlo._block_histogram(law, 30, 4, 8, 1000)
        assert np.array_equal(hist, reference_block(law, 30, 4, 8, 1000))

    def test_uniform_domain(self):
        with pytest.raises(ValueError):
            sample_increment(SYM, 1.0)

    def test_stable_sampling_moments(self):
        rng = np.random.default_rng(3)
        draws = np.array(
            [sample_increment(STABLE, float(u)) for u in rng.random(4000)]
        )
        assert abs(draws.mean()) < 0.1  # critical: zero drift


class TestRecordCounting:
    def test_manual_path(self):
        # S = 1, 0, -1, 0; only the first step is a weak record
        assert count_weak_records([1, -1, -1, 1]) == 1

    def test_all_records(self):
        assert count_weak_records([0, 0, 1, 0]) == 4

    def test_empty_path(self):
        with pytest.raises(ValueError):
            count_weak_records([])

    def test_wide_walk_takes_int64(self):
        # Partial sums 2^30, 2^31, 3*2^30: all three are records, but an
        # int32 walk wraps at 2^31 and sees only the first.
        inc = np.full((1, 3), 2**30, dtype=np.int32)
        wrapped = np.cumsum(inc, axis=-1, dtype=np.int32)
        assert montecarlo._weak_records(wrapped)[0] == 1
        assert montecarlo._weak_records(
            np.cumsum(inc, axis=-1, dtype=np.int64))[0] == 3

    @pytest.mark.parametrize("n, width", [(46339, np.int32),
                                          (46340, np.int64)])
    def test_walk_width_guard_on_stable_law(self, monkeypatch, n, width):
        # The stable CDF lumped at n has n + 2 entries, so n * (n + 2)
        # passes 2^31 from n = 46340 on.  At these n a slice holds
        # SLICE_ROWS * 200 // n = 2 rows, so the 3 rows take two slices,
        # and the long-path walk sums each in the same width.
        widths = []
        weak_records = montecarlo._weak_records

        def spy(s):
            widths.append(s.dtype)
            return weak_records(s)

        monkeypatch.setattr(montecarlo, "_weak_records", spy)
        hist = montecarlo._block_histogram(STABLE, n, 9, 4, 3)
        assert widths == [width, width]
        monkeypatch.undo()
        assert np.array_equal(hist, reference_block(STABLE, n, 9, 4, 3))

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
        table = empirical_tail(SimConfig(SYM, 10, 5000, 42))
        assert table.provenance is Provenance.MONTE_CARLO
        assert table.tail[0] == 1.0
        assert np.all(np.diff(table.tail) <= 0.0)
        assert np.all(table.ci_lo <= table.tail)
        assert np.all(table.tail <= table.ci_hi)

    def test_deterministic_rerun(self):
        a = empirical_tail(SimConfig(SYM, 12, 20000, 7))
        b = empirical_tail(SimConfig(SYM, 12, 20000, 7))
        assert np.array_equal(a.tail, b.tail)

    def test_worker_count_invariance(self):
        one = empirical_tail(SimConfig(ASYM, 12, 30000, 11, workers=1))
        four = empirical_tail(SimConfig(ASYM, 12, 30000, 11, workers=4))
        assert np.array_equal(one.tail, four.tail)
        assert np.array_equal(one.ci_lo, four.ci_lo)

    @pytest.mark.parametrize("law", [SYM, STABLE], ids=["sym", "stable-right"])
    @pytest.mark.parametrize("n", [7, 20])
    def test_block_size_invariance(self, monkeypatch, law, n):
        # Path p reads stream words p*n .. p*n + n - 1 whatever the blocks:
        # blocks of 4099 and 13 paths start at paths no multiple of 4.
        tables = []
        for block in (8192, 4099, 4096, 13, 12):
            monkeypatch.setattr(montecarlo, "BLOCK_SIZE", block)
            tables.append(empirical_tail(SimConfig(law, n, 20000, 3)))
        for table in tables[1:]:
            assert np.array_equal(table.tail, tables[0].tail)
            assert np.array_equal(table.ci_lo, tables[0].ci_lo)

    @pytest.mark.parametrize("law", [SYM, STABLE], ids=["sym", "stable-right"])
    @pytest.mark.parametrize("n", [7, 20])
    def test_row_slice_invariance(self, monkeypatch, law, n):
        # Blocks of 8192, 8192 and 3616 paths: no slice size divides all.
        tables = []
        for rows in (512, 100, 7):
            monkeypatch.setattr(montecarlo, "SLICE_ROWS", rows)
            tables.append(empirical_tail(SimConfig(law, n, 20000, 3)))
        for table in tables[1:]:
            assert np.array_equal(table.tail, tables[0].tail)
            assert np.array_equal(table.ci_lo, tables[0].ci_lo)

    @pytest.mark.parametrize("name", BUNDLED_LAWS)
    def test_block_matches_plain_draw(self, name):
        # n <= SHORT_PATH = 254 walks the reflected chain a step at a time
        # and n = 255 is the first long path.  1100 rows are no whole number
        # of slices: 512 rows up to n = 200, 404 at 253, 403 at 254 and 401
        # at 255.  At n = 20000 a slice holds SLICE_ROWS * 200 // n = 5
        # rows, so the 12 rows take 5 + 5 + 2.  A block may start at any
        # path, start = 5 too: the stream advances by words.
        law = bundled_law(name)
        assert montecarlo.SHORT_PATH == 254
        for n, seed, start, count in [
                (1, 6, 4, 1100), (2, 6, 4, 1100), (37, 3, 12, 700),
                (37, 3, 5, 700), (255, 3, 5, 700),
                (60, 6, 4, 1100), (200, 11, 0, 1500), (253, 6, 4, 1100),
                (254, 6, 4, 1100), (255, 6, 4, 1100), (20000, 5, 8, 12)]:
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
        # Both walks draw from the CDF that lumps the support at size n, so
        # the short walk's index stays within n + 1, which fits a byte, and
        # the long walk (n = 255, 299) never sees a jump past n; the
        # reference draws from the whole support, and these rows draw jumps
        # of size n or more.
        cdf = montecarlo._jump_cdf(law, n)
        assert cdf.size == n + 2
        uniforms = np.random.Generator(np.random.PCG64DXSM(2)).random(
            (1100, n))
        assert np.count_nonzero(uniforms >= cdf[n]) > 0
        hist = montecarlo._block_histogram(law, n, 2, 0, 1100)
        assert np.array_equal(hist, reference_block(law, n, 2, 0, 1100))

    def test_long_path_block_memory_is_bounded(self):
        # A slice takes at most SLICE_ROWS * 200 = 102400 draws, about
        # 0.8 MB of uniforms and a few arrays of that size beside; 200
        # rows of n = 20000 in one slice would need 32 MB of uniforms alone.
        bound = 8 * 2**20
        # the cached CDF is built before the trace starts
        montecarlo._jump_cdf(STABLE, 20000)
        tracemalloc.start()
        try:
            montecarlo._block_histogram(STABLE, 20000, 5, 0, 200)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= bound, peak

    def test_short_path_block_memory_is_bounded(self):
        # One 8192-path block at n = SHORT_PATH = 254 holds 254 * 8192 bytes
        # of jump indices (2.08 MB) and one slice of 403 rows of uniforms
        # (0.82 MB), plus a byte index and a mask of the slice (0.2 MB); a
        # two-byte index array alone would take 4.16 MB.
        bound = 3.5 * 2**20
        n = montecarlo.SHORT_PATH
        montecarlo._jump_cdf(STABLE, n)
        tracemalloc.start()
        try:
            montecarlo._block_histogram(STABLE, n, 5, 0, montecarlo.BLOCK_SIZE)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= bound, peak

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
        monkeypatch.setattr(montecarlo, "BLOCK_SIZE", 1000)
        table = empirical_tail(SimConfig(ASYM, 9, 4500, 2, workers=workers))
        assert started == ([] if pool is None else [pool])
        monkeypatch.undo()
        plain = empirical_tail(SimConfig(ASYM, 9, 4500, 2))
        assert np.array_equal(table.tail, plain.tail)

    def test_seed_changes_output(self):
        a = empirical_tail(SimConfig(SYM, 12, 20000, 1))
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
        # n = 60 takes the short walk and n = 300 the long one; two blocks,
        # the second starting at path 8192.
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
