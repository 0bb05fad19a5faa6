"""Exact DP and renewal oracles for the weak-record count."""

import math

import numpy as np
import pytest

from recordwalk import (
    IncrementLaw,
    Provenance,
    build_kernel,
    exact_An_distribution,
    h_series,
    mdp_constants,
    renewal_tail,
    renewal_tail_table,
    return_prob_partial_sums,
    tau_pmf,
)
from recordwalk.laws import Orientation
from recordwalk.oracle import ChainKernel, _first_returns
from recordwalk.series import series_mul, series_reciprocal
from support import (ALL_LAWS, ASYM, ASYM_LEFT, EDGE_LAWS, STABLE,
                     STABLE_LEFT, SYM, SYM_LEFT, hitting_time_returns)

# critical laws with a jump of 10 levels: a band of width 10 on one side
WIDE = IncrementLaw.explicit("right", 0.1, [0.89] + [0.0] * 9 + [0.01])
WIDE_LEFT = IncrementLaw.explicit("left", 0.1, [0.89] + [0.0] * 9 + [0.01])
# a trailing zero jump, and a law with no jump of size 1 or more, which
# validation rejects, built past it
TRAILING = IncrementLaw.explicit("right", 0.25, [0.5, 0.25, 0.0])
TRAILING_LEFT = IncrementLaw.explicit("left", 0.25, [0.5, 0.25, 0.0])
NO_JUMP = IncrementLaw(Orientation.RIGHT, 1e-12, p=(0.999999999999,))
NO_JUMP_LEFT = IncrementLaw(Orientation.LEFT, 1e-12, p=(0.999999999999,))
KERNEL_LAWS = ALL_LAWS + [WIDE, WIDE_LEFT, TRAILING, TRAILING_LEFT, NO_JUMP,
                          NO_JUMP_LEFT]
BAND_ROWS = 64  # kernel rows per nonzero mask in _bandwidths_scan


def _row_loop_kernel(law, L):
    """Reference for build_kernel: the kernel laid out one row at a time."""
    q, p = law.q, law.jump_pmf(L + 1)
    K = np.zeros((L + 1, L + 1))
    if law.orientation is Orientation.RIGHT:
        for i in range(L + 1):
            row = p[: L + 1 - i]
            K[i, i : i + len(row)] = row
            K[i, max(i - 1, 0)] += q
    else:
        t = law.jump_tails(L)
        for i in range(L + 1):
            row = p[:i][::-1]
            K[i, i + 1 - len(row) : i + 1] = row
            K[i, 0] = t[i]
        K[np.arange(L), np.arange(1, L + 1)] = q
    return K


def _bandwidths_scan(K):
    """Reference for the kernel's bandwidths: the largest rise and the
    largest fall of one step, read off the nonzero mask of any matrix K,
    BAND_ROWS rows at a time.  A row without a nonzero entry only widens
    the band."""
    rise = fall = 0
    for lo in range(0, len(K), BAND_ROWS):
        nz = K[lo : lo + BAND_ROWS] != 0.0
        i = np.arange(lo, lo + len(nz))
        last = K.shape[1] - 1 - nz[:, ::-1].argmax(axis=1)
        rise = max(rise, int(np.max(last - i)))
        fall = max(fall, int(np.max(i - nz.argmax(axis=1))))
    return rise, fall


def _dense_dp(kernel, n, kmax=None):
    """Reference for exact_An_distribution: the whole (kmax+1) x (L+2)
    state times the whole kernel at every step.  The kernel gains an
    absorbing state L+1 that keeps the moves it drops, 1 - row sum, with
    their counts.
    """
    if kmax is None:
        kmax = n
    kmax = min(kmax, n)
    size = kernel.level_cap + 2
    K = np.zeros((size, size))
    K[:-1, :-1] = kernel.matrix
    K[:-1, -1] = 1.0 - kernel.matrix.sum(axis=1)
    K[-1, -1] = 1.0
    dist = np.zeros((kmax + 1, K.shape[0]))
    dist[0, 0] = 1.0
    for _ in range(n):
        landed = dist @ K
        nxt = np.zeros_like(landed)
        nxt[:, 1:] = landed[:, 1:]
        nxt[1:, 0] = landed[:-1, 0]
        nxt[kmax, 0] += landed[kmax, 0]
        dist = nxt
    return np.minimum(1.0, np.cumsum(dist.sum(axis=1)[::-1])[::-1])


def _whole_kernel_first_returns(kernel, n):
    """Reference for _first_returns: the whole state vector times the
    whole kernel at every step, level 0 taboo."""
    K = kernel.matrix
    f = np.zeros(n + 1)
    v = np.zeros(len(K))
    v[0] = 1.0
    for t in range(1, n + 1):
        v = v @ K
        f[t], v[0] = v[0], 0.0
    return f


def _full_convolution_renewal(f, n, kmax):
    """Reference for the renewal table: P(S_k <= n) by convolving the whole
    length-(n+1) distribution with the whole p.m.f. k times."""
    f = f[: n + 1]
    tail = np.ones(kmax + 1)
    dist = np.zeros(n + 1)
    dist[0] = 1.0
    for k in range(1, kmax + 1):
        dist = np.convolve(dist, f)[: n + 1]
        tail[k] = dist.sum()
    return tail


def _successive_convolution_renewal(f, n, kmax):
    """Reference for the sum both oracles share: P(S_k <= n) for
    k = 0..kmax by one more truncated convolution with f[1:] per row.
    After k convolutions nothing sits below index k, so only indices k..n
    are kept."""
    mass = np.ones(kmax + 1)
    part = np.ones(1)
    step = f[1 : n + 1]
    for k in range(1, kmax + 1):
        m = n + 1 - k
        part = series_mul(part, step, m - 1)
        mass[k] = part.sum()
    return mass


def _dropped(law, cap):
    """The mass each row of build_kernel(law, cap) drops: a right row i its
    jumps above the cap, T_(L+1-i); a left row its step up from the cap."""
    if law.orientation is Orientation.RIGHT:
        return law.jump_tails(cap + 1)[:0:-1]
    return np.r_[np.zeros(cap), law.q]


class TestKernel:
    @pytest.mark.parametrize("law", ALL_LAWS)
    def test_rows_are_stochastic(self, law):
        # each row with the moves the kernel drops added back
        K = build_kernel(law, 12).matrix
        assert K.shape == (13, 13)
        assert np.allclose(K.sum(axis=1) + _dropped(law, 12), 1.0,
                           atol=1e-12)
        assert np.all(K >= 0.0)

    @pytest.mark.parametrize("side", ["right", "left"])
    @pytest.mark.parametrize("cap", [1, 2])
    def test_rows_below_the_support(self, side, cap):
        # ASYM's support {0, 1, 2} reaches past caps 1 and 2: a right
        # row drops the jumps above the cap, mass T_(L+1-i), and a left
        # row lands the jumps of size i or more on 0, mass T_i
        law = ASYM if side == "right" else ASYM_LEFT
        K = build_kernel(law, cap).matrix
        t = law.jump_tails(cap + 1)
        assert np.allclose(K.sum(axis=1), 1.0 - _dropped(law, cap),
                           atol=1e-15)
        if side == "left":
            assert np.all(K[:, 0] == t[: cap + 1])

    def test_symmetric_right_rows(self):
        K = build_kernel(SYM, 4).matrix
        assert K[0, 0] == 0.5 and K[0, 1] == 0.5
        assert K[1, 0] == 0.5 and K[1, 2] == 0.5
        assert K[1, 1] == 0.0

    def test_left_rows_lump_deep_jumps(self):
        K = build_kernel(ASYM_LEFT, 5).matrix
        # from level 0: up with q, stay with p_0 + p_1 + p_2
        assert K[0, 1] == pytest.approx(0.4)
        assert K[0, 0] == pytest.approx(0.6)
        # from level 2: land on 0 with p_2 + tail, on 1 with p_1, on 2 with p_0
        assert K[2, 2] == pytest.approx(0.35)
        assert K[2, 1] == pytest.approx(0.1)
        assert K[2, 0] == pytest.approx(0.15)

    def test_cap_check(self):
        with pytest.raises(ValueError):
            build_kernel(SYM, 0)

    @pytest.mark.parametrize("law", KERNEL_LAWS)
    def test_matches_the_row_loop(self, law):
        # the Toeplitz view gives the row loop's bits, and the bandwidths
        # read from the law equal those scanned off the matrix
        for cap in (1, 2, 3, 12, 63, 64, 65, 400):
            kernel = build_kernel(law, cap)
            ref = _row_loop_kernel(law, cap)
            assert kernel.level_cap == cap
            assert kernel.matrix.flags.c_contiguous
            assert kernel.matrix.tobytes() == ref.tobytes(), cap
            assert (kernel.rise, kernel.fall) == _bandwidths_scan(ref), cap


class TestExactDistribution:
    def test_shape_and_monotone(self):
        table = exact_An_distribution(build_kernel(SYM, 10), 10)
        assert table.provenance is Provenance.DP
        assert table.tail[0] == 1.0
        assert np.all(np.diff(table.tail) <= 1e-15)
        assert table.error_bound == 0.0

    def test_all_records_boundary(self):
        # A_n = n forces every step to stay at the running maximum
        for n in (5, 20):
            table = exact_An_distribution(build_kernel(SYM, n), n)
            assert table.tail[n] == pytest.approx(0.5**n, abs=1e-15)

    def test_kmax_lumps(self):
        full = exact_An_distribution(build_kernel(SYM, 12), 12)
        capped = exact_An_distribution(build_kernel(SYM, 12), 12, kmax=4)
        assert np.allclose(full.tail[:5], capped.tail, atol=1e-15)

    @pytest.mark.parametrize("law", ALL_LAWS)
    def test_cap_below_the_horizon_is_an_error(self, law):
        for n, cap in ((12, 3), (30, 29), (2, 1)):
            with pytest.raises(ValueError, match="level cap"):
                exact_An_distribution(build_kernel(law, cap), n)

    @pytest.mark.parametrize("law", ALL_LAWS)
    @pytest.mark.parametrize("n", [1, 2, 7, 30])
    def test_matches_dense_reference(self, law, n):
        for cap in (n, n + 3):
            kernel = build_kernel(law, cap)
            for kmax in (None, 0, 3, 15, 16, 17):
                table = exact_An_distribution(kernel, n, kmax)
                tail = _dense_dp(kernel, n, kmax)
                assert table.tail[0] == 1.0
                assert table.tail.shape == tail.shape
                assert np.all(tail > 0.0)
                assert np.all(np.abs(table.tail - tail) <= 1e-14 * tail)
                assert table.error_bound == 0.0

    @pytest.mark.parametrize("law", ALL_LAWS)
    def test_chain_first_returns_match_the_series(self, law):
        # the DP's return times come from the kernel, the renewal oracle's
        # from the series of f0: the two oracles agree only if these do
        n = 200
        f = _first_returns(build_kernel(law, n), n)
        tau = tau_pmf(law, n)
        assert len(f) == len(tau) == n + 1
        assert np.all(f >= 0.0)
        assert np.all(np.abs(f - tau) <= 1e-13 * tau)

    @pytest.mark.parametrize(("law", "n"), [
        pytest.param(law, n, id=f"law{i}-{n}")
        for n, laws in ((400, ALL_LAWS), (1600, ALL_LAWS[:3]))
        for i, law in enumerate(laws)
    ])
    def test_hitting_time_theorem_gates_both_routes(self, law, n):
        # a third exact route to the return-time law, from the powers of
        # phi alone: the chain's first returns and the series of f0 agree
        # with it, zero for zero.  Bounds stated before the first run, from
        # a prototype at n = 400: 5.6e-15 against the chain on every law;
        # 6.7e-15 against the series on the explicit laws (2.0e-14 at
        # n = 1600), 1.0e-13 on stable right and 1.3e-14 on stable left.
        # Read here: 5.7e-15; 2.0e-14, 1.0e-13 and 1.4e-14
        ref = hitting_time_returns(law, n)
        chain = _first_returns(build_kernel(law, n), n)
        series = tau_pmf(law, n)
        series_tol = 2e-13 if law is STABLE else 5e-14
        assert ref[0] == 0.0 and np.all(ref >= 0.0)
        for got, tol in ((chain, 1e-14), (series, series_tol)):
            assert len(got) == n + 1
            assert np.array_equal(got != 0.0, ref != 0.0)
            assert np.all(np.abs(got - ref) <= tol * ref)

    @pytest.mark.parametrize("law", KERNEL_LAWS)
    @pytest.mark.parametrize("n", [60, 400])
    def test_live_band_matches_the_whole_kernel(self, law, n):
        # dropping the levels the chain cannot have reached, or cannot
        # leave for 0 in time, changes no first-return probability
        for cap in (n, n + 3):
            kernel = build_kernel(law, cap)
            f = _first_returns(kernel, n)
            ref = _whole_kernel_first_returns(kernel, n)
            assert np.array_equal(f != 0.0, ref != 0.0)
            assert np.all(np.abs(f - ref) <= 2e-15 * ref)

    def test_a_kernel_without_a_band_is_multiplied_whole(self):
        # every move allowed: both bandwidths are L and the level cap
        # bounds the live band from step 1 to step n - 1
        K = np.random.default_rng(5).random((31, 31))
        K /= 1.25 * K.sum(axis=1, keepdims=True)
        kernel = ChainKernel(30, K, 30, 30)
        assert _bandwidths_scan(K) == (30, 30)
        f = _first_returns(kernel, 30)
        ref = _whole_kernel_first_returns(kernel, 30)
        assert np.all(np.abs(f - ref) <= 2e-15 * ref)

    @pytest.mark.parametrize(("law", "band"), [
        (SYM, (1, 1)), (SYM_LEFT, (1, 1)), (ASYM, (2, 1)),
        (STABLE, ("L", 1)), (STABLE_LEFT, (1, "L")),
        (WIDE, (10, 1)), (WIDE_LEFT, (1, 10)),
    ])
    def test_bandwidths(self, law, band):
        # the largest rise and fall in one step; a stable law's jumps
        # reach across the whole kernel on one side
        for cap in (12, 63, 64, 65, 400):
            expected = tuple(cap if b == "L" else b for b in band)
            kernel = build_kernel(law, cap)
            assert (kernel.rise, kernel.fall) == expected
            assert _bandwidths_scan(kernel.matrix) == expected

    @pytest.mark.parametrize("law", ALL_LAWS)
    def test_deep_tails_keep_relative_accuracy(self, law):
        n = 400
        tail = exact_An_distribution(build_kernel(law, n), n).tail
        ref = renewal_tail_table(law, n).tail
        assert np.all(ref > 0.0)
        assert np.all(np.abs(tail - ref) <= 1e-13 * ref)
        # A_n = n: every step a return at the first step
        expected = tau_pmf(law, 1)[1] ** n
        assert abs(tail[n] - expected) <= 1e-13 * expected

    @pytest.mark.parametrize("law", ALL_LAWS)
    def test_unclamped_tails_are_probabilities(self, law):
        # the DP returns its sums as they come, with no clamp at 1: the
        # largest entry is the exact 1 at k = 0
        for n in (1, 2, 5, 20, 60, 400):
            tail = exact_An_distribution(build_kernel(law, n), n).tail
            assert tail[0] == 1.0
            assert np.all((0.0 <= tail) & (tail <= 1.0)), n
            assert np.all(np.diff(tail) <= 0.0), n

    def test_kmax_check(self):
        with pytest.raises(ValueError, match="kmax"):
            exact_An_distribution(build_kernel(SYM, 5), 5, kmax=-1)

    def test_n_check(self):
        with pytest.raises(ValueError):
            exact_An_distribution(build_kernel(SYM, 5), 0)


class TestTauPmf:
    def test_symmetric_coefficients(self):
        c = tau_pmf(SYM, 6)
        assert np.allclose(c, [0.0, 0.5, 0.25, 0.0, 0.0625, 0.0, 0.03125],
                           atol=1e-15)

    @pytest.mark.parametrize("law", ALL_LAWS)
    def test_proper(self, law):
        c = tau_pmf(law, 300)
        assert np.all(c >= -1e-10)
        assert np.all(np.cumsum(c) <= 1.0 + 1e-10)

    def test_order_check(self):
        with pytest.raises(ValueError):
            tau_pmf(SYM, 0)


class TestRenewal:
    def test_single_convolution_is_cdf(self):
        f = tau_pmf(SYM, 20)
        assert renewal_tail(tau_pmf(SYM, 20), 20, 1) == pytest.approx(
            float(f[:21].sum()), abs=1e-15
        )

    def test_argument_checks(self):
        tau = tau_pmf(SYM, 10)
        with pytest.raises(ValueError):
            renewal_tail(tau, 10, 0)
        with pytest.raises(ValueError):
            renewal_tail(tau, 10, 11)
        with pytest.raises(ValueError):
            renewal_tail(tau, 50, 2)  # pmf truncated too short
        with pytest.raises(ValueError):
            renewal_tail(np.r_[0.5, 0.5, np.zeros(9)], 10, 2)  # mass at 0
        with pytest.raises(ValueError, match="kmax"):
            renewal_tail_table(SYM, 10, kmax=-1)

    @pytest.mark.parametrize("law", ALL_LAWS)
    def test_table_matches_full_convolution(self, law):
        n = 120
        f = tau_pmf(law, n)
        for kmax in (None, 0, 1, 7, 15, 16, 17):
            table = renewal_tail_table(law, n, kmax)
            ref = _full_convolution_renewal(f, n, n if kmax is None else kmax)
            assert table.tail[0] == 1.0
            assert np.all(ref > 0.0)
            assert np.all(np.abs(table.tail - ref) <= 1e-14 * ref)

    @pytest.mark.parametrize("n, kmax", [(400, 400), (800, 400), (1600, 800)])
    @pytest.mark.parametrize("law", ALL_LAWS)
    def test_table_matches_successive_convolutions(self, law, n, kmax):
        f = tau_pmf(law, n)
        tail = renewal_tail_table(law, n, kmax).tail
        ref = _successive_convolution_renewal(f, n, kmax)
        assert len(tail) == kmax + 1
        assert tail[0] == 1.0
        assert np.all(np.diff(tail) <= 0.0)
        assert np.all(ref > 0.0)
        assert np.all(np.abs(tail - ref) <= 1e-13 * ref)

    @pytest.mark.parametrize("law", ALL_LAWS)
    def test_power_block_boundaries(self, law):
        # B = max(1, isqrt(kmax)) is 1 at kmax 0 and 1, and 3 -> 4 at 16
        n = 60
        tau = tau_pmf(law, n)
        ref = _successive_convolution_renewal(tau, n, n)
        for kmax in (0, 1, 15, 16, 17, n):
            tail = renewal_tail_table(law, n, kmax).tail
            want = ref[: kmax + 1]
            assert len(tail) == kmax + 1
            assert tail[0] == 1.0
            assert np.all(np.abs(tail - want) <= 1e-13 * want)
        tail = renewal_tail_table(law, n).tail
        for k in (1, 15, 16, 17, 30, n):
            assert abs(renewal_tail(tau, n, k) - tail[k]) <= 1e-13 * tail[k]

    @pytest.mark.parametrize("n", [100, 400, 1600])
    @pytest.mark.parametrize("law", ALL_LAWS + EDGE_LAWS)
    def test_binary_powering_matches_table_rows(self, law, n):
        # renewal_tail powers g = tau/s by squaring, the table by baby and
        # giant steps: two orders of products of nonnegative series.  Bound
        # fixed before the first run, 6.4e-14 read on a prototype: 2e-13
        # relative on normal rows, a zero row exactly zero, and n*tiny
        # absolute below the normal range, where the two orders underflow
        # at different products.  Read: 6.4e-14, 23 zero rows, no row
        # below the normal range
        tiny = np.finfo(float).tiny
        tau = tau_pmf(law, n)
        tail = renewal_tail_table(law, n).tail
        powers = [1 << i for i in range(n.bit_length())]
        for k in sorted({1, 2, 3, 5, *powers, n // 2, n - 1, n}):
            got, want = renewal_tail(tau, n, k), tail[k]
            if want == 0.0:
                assert got == 0.0, k
            elif want < tiny:
                assert abs(got - want) <= n * tiny, k
            else:
                assert abs(got - want) <= 2e-13 * want, (k, got, want)

    @pytest.mark.parametrize("law", ALL_LAWS)
    def test_dp_equals_renewal(self, law):
        n = 20
        dp = exact_An_distribution(build_kernel(law, n), n)
        rn = renewal_tail_table(law, n)
        assert rn.provenance is Provenance.RENEWAL
        assert np.max(np.abs(dp.tail - rn.tail)) <= 1e-13

    @pytest.mark.parametrize("law", ALL_LAWS)
    def test_dp_equals_renewal_at_400(self, law):
        n = 400
        dp = exact_An_distribution(build_kernel(law, n), n)
        rn = renewal_tail_table(law, n)
        assert np.max(np.abs(dp.tail - rn.tail)) <= 1e-12

    def test_table_matches_pointwise(self):
        tab = renewal_tail_table(ASYM, 15)
        tau = tau_pmf(ASYM, 15)
        for k in (1, 5, 15):
            assert tab.tail[k] == pytest.approx(
                renewal_tail(tau, 15, k), abs=1e-14
            )


class TestReturnProbabilities:
    def test_symmetric_closed_form(self):
        # the reflected symmetric walk sits at 0 at step m with probability
        # binom(m, floor(m/2)) / 2^m
        u, U = return_prob_partial_sums(SYM, 30)
        for m in range(31):
            expected = math.comb(m, m // 2) / 2.0**m
            assert u[m] == pytest.approx(expected, abs=1e-14)
        assert U[30] == pytest.approx(float(u.sum()), abs=1e-13)

    def test_n_check(self):
        with pytest.raises(ValueError):
            return_prob_partial_sums(SYM, 0)

    @pytest.mark.parametrize("law", ALL_LAWS)
    def test_matches_renewal_recursion(self, law):
        # u_m = sum_{j=1..m} f_j u_{m-j}: a sum of nonnegative terms
        n = 2000
        f = tau_pmf(law, n)
        ref = np.zeros(n + 1)
        ref[0] = 1.0
        for m in range(1, n + 1):
            ref[m] = np.dot(f[1 : m + 1], ref[m - 1 :: -1])
        u, U = return_prob_partial_sums(law, n)
        np.testing.assert_allclose(u, ref, rtol=1e-12, atol=0)
        np.testing.assert_allclose(U, np.cumsum(ref), rtol=1e-12, atol=0)

    @pytest.mark.parametrize("law", ALL_LAWS)
    def test_second_route_from_h_long_double(self, law):
        # From h = s*phi(h), without f0 or 1/(1 - f0): right, u(s) =
        # (h/s) (1/(1 - h)) / q; left, u(s) = (1 - h)/(1 - s), so u_m =
        # 1 - sum_{1<=j<=m} h_j, which cancels, and is summed in long double.
        # 4.2e-13 relative measured, on the stable left law.
        n = 10**4
        u, _ = return_prob_partial_sums(law, n)
        h = h_series(law, n + 1)
        if law.orientation is Orientation.RIGHT:
            w = -h[: n + 1]
            w[0] += 1.0
            ref = series_mul(h[1:], series_reciprocal(w, n), n) / law.q
        elif np.finfo(np.longdouble).eps > 1e-18:
            pytest.skip("long double is no wider than double")
        else:
            ref = 1.0 - np.cumsum(h[: n + 1], dtype=np.longdouble)
            ref = ref.astype(float)
        assert np.all(np.abs(u - ref) <= 1e-12 * ref)

    @pytest.mark.parametrize("law", ALL_LAWS)
    @pytest.mark.parametrize(("n", "mode"),
                             [(400, "dp"), (400, "renewal"), (1600, "renewal")])
    def test_bulk_moment_identities(self, law, n, mode):
        # A_n counts the visits to 0 at steps 1..n, so E[A_n] = U_n - 1 and
        # E[A_n(A_n - 1)] = 2 sum_{i,j>=1, i+j<=n} u_i u_j, the ordered
        # pairs of visits; on the tail, sum_{k>=1} P(A_n >= k) and
        # 2 sum_{k>=1} (k - 1) P(A_n >= k).  Every sum is of nonnegative
        # terms.  Bound stated before the first run: 3.5e-15 and 6.3e-15
        # measured on a prototype, and read here
        if mode == "dp":
            tail = exact_An_distribution(build_kernel(law, n), n).tail
        else:
            tail = renewal_tail_table(law, n).tail
        u, U = return_prob_partial_sums(law, n)
        first = math.fsum(tail[1:])
        second = 2.0 * math.fsum(np.arange(n) * tail[1:])
        pairs = 2.0 * math.fsum(u[1:n] * (U[n - 1 : 0 : -1] - 1.0))
        assert abs(first - (U[n] - 1.0)) <= 1e-14 * (U[n] - 1.0)
        assert abs(second - pairs) <= 1e-14 * pairs

    @pytest.mark.parametrize("law", ALL_LAWS)
    def test_mittag_leffler_moments(self, law):
        # A_n/n^g tends in law to a Mittag-Leffler variable of index g, the
        # renewal index of the visits to 0, with the moments
        # E[A_n^j] ~ j! C^j n^(jg)/Gamma(1 + jg), C = bulk_constant (Feller
        # vol. II, XIV.3).  E[A_n^j] = sum_k (k^j - (k-1)^j) P(A_n >= k),
        # and r_n, the ratio of the two, is 1 + A n^-g + o(n^-g).  Gate
        # fixed before the run: for j = 1..4 the Richardson extrapolant in
        # n^-g over (1600, 3200) is within 5e-2 of 1 and closer to 1 than
        # over (800, 1600); 2.72e-2 read at worst (stable left, j = 4)
        consts = mdp_constants(law)
        big_c, g = consts.bulk_constant, consts.scaling_exponents[0]
        ns = (800, 1600, 3200)
        tails = [renewal_tail_table(law, n).tail for n in ns]
        two_g = 2.0**g
        for j in range(1, 5):
            r = []
            for n, tail in zip(ns, tails):
                k = np.arange(1, n + 1, dtype=float)
                moment = math.fsum((k**j - (k - 1.0)**j) * tail[1:])
                r.append(moment * math.gamma(1.0 + j * g)
                         / (math.factorial(j) * big_c**j * n ** (j * g)))
            early, late = ((r[i + 1] * two_g - r[i]) / (two_g - 1.0)
                           for i in (0, 1))
            assert abs(late - 1.0) <= 5e-2, (j, late)
            assert abs(late - 1.0) < abs(early - 1.0), (j, early, late)

    @pytest.mark.parametrize("law", [ASYM, STABLE, STABLE_LEFT])
    def test_nonnegative_and_increasing(self, law):
        u, U = return_prob_partial_sums(law, 200)
        assert u[0] == 1.0
        assert np.all(u >= 0.0)
        assert np.all(np.diff(U) >= 0.0)


@pytest.mark.parametrize("law", [STABLE, STABLE_LEFT])
@pytest.mark.parametrize("n", [60, 400, 800])
def test_stable_boundary_law_is_exact(law, n):
    # A_n = n forces every step to end at the running maximum: a right
    # walk steps up or by 0 (q + p0), a left walk never steps down (1 - q).
    # The left kernel's K[0, 0] is the jump tail T_0 = 1 - q itself, not a
    # sum of jump probabilities, so n steps do not compound its rounding.
    base = law.q + law.p0 if law.orientation is Orientation.RIGHT \
        else 1.0 - law.q
    expected = base**n
    for table in (exact_An_distribution(build_kernel(law, n), n),
                  renewal_tail_table(law, n)):
        assert table.error_bound == 0.0
        assert abs(table.tail[n] - expected) <= 1e-14 * expected


@pytest.mark.parametrize("law", ALL_LAWS)
def test_error_bound_is_zero_once_the_cap_reaches_n(law):
    for n, cap in ((12, 12), (12, 30), (1, 1)):
        table = exact_An_distribution(build_kernel(law, cap), n)
        assert table.error_bound == 0.0
