"""Exact DP and renewal oracles for the weak-record count."""

import math

import numpy as np
import pytest

from recordwalk import (
    IncrementLaw,
    Provenance,
    build_kernel,
    exact_An_distribution,
    renewal_tail,
    renewal_tail_table,
    return_prob_partial_sums,
    tau_pmf,
)
from recordwalk.laws import Orientation
from recordwalk.oracle import _first_returns
from recordwalk.series import series_mul

SYM = IncrementLaw.explicit("right", 0.5, [0.0, 0.5])
SYM_LEFT = IncrementLaw.explicit("left", 0.5, [0.0, 0.5])
ASYM = IncrementLaw.explicit("right", 0.4, [0.35, 0.1, 0.15])
STABLE = IncrementLaw.stable("right", 0.5, 0.5)
STABLE_LEFT = IncrementLaw.stable("left", 0.5, 0.5)

ALL_LAWS = [SYM, SYM_LEFT, ASYM, STABLE, STABLE_LEFT]


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
    """Reference for the renewal table: P(S_k <= n) for k = 0..kmax by one
    more truncated convolution with f[1:] per row.  After k convolutions
    nothing sits below index k, so only indices k..n are kept."""
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
        law = IncrementLaw.explicit(side, ASYM.q, ASYM.p)
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
        K = build_kernel(IncrementLaw.explicit("left", ASYM.q, ASYM.p), 5).matrix
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
            for kmax in (None, 0, 3):
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
        tau = tau_pmf(law, n).coeffs
        assert len(f) == len(tau) == n + 1
        assert np.all(f >= 0.0)
        assert np.all(np.abs(f - tau) <= 1e-13 * tau)

    @pytest.mark.parametrize("law", ALL_LAWS)
    def test_deep_tails_keep_relative_accuracy(self, law):
        n = 400
        tail = exact_An_distribution(build_kernel(law, n), n).tail
        ref = renewal_tail_table(law, n).tail
        assert np.all(ref > 0.0)
        assert np.all(np.abs(tail - ref) <= 1e-13 * ref)
        # A_n = n: every step a return at the first step
        expected = tau_pmf(law, 1).coeffs[1] ** n
        assert abs(tail[n] - expected) <= 1e-13 * expected

    def test_kmax_check(self):
        with pytest.raises(ValueError, match="kmax"):
            exact_An_distribution(build_kernel(SYM, 5), 5, kmax=-1)

    def test_n_check(self):
        with pytest.raises(ValueError):
            exact_An_distribution(build_kernel(SYM, 5), 0)

    def test_prob_at_least(self):
        table = exact_An_distribution(build_kernel(SYM, 8), 8)
        assert table.prob_at_least(0) == 1.0
        assert table.prob_at_least(99) == 0.0
        with pytest.raises(ValueError):
            table.prob_at_least(-1)


class TestTauPmf:
    def test_symmetric_coefficients(self):
        c = tau_pmf(SYM, 6).coeffs
        assert np.allclose(c, [0.0, 0.5, 0.25, 0.0, 0.0625, 0.0, 0.03125],
                           atol=1e-15)

    @pytest.mark.parametrize("law", ALL_LAWS)
    def test_proper(self, law):
        c = tau_pmf(law, 300).coeffs
        assert np.all(c >= -1e-10)
        assert np.all(np.cumsum(c) <= 1.0 + 1e-10)

    def test_order_check(self):
        with pytest.raises(ValueError):
            tau_pmf(SYM, 0)


class TestRenewal:
    def test_single_convolution_is_cdf(self):
        f = tau_pmf(SYM, 20).coeffs
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
        f = tau_pmf(law, n).coeffs
        for kmax in (None, 0, 1, 7, 15, 16, 17):
            table = renewal_tail_table(law, n, kmax)
            ref = _full_convolution_renewal(f, n, n if kmax is None else kmax)
            assert table.tail[0] == 1.0
            assert np.all(ref > 0.0)
            assert np.all(np.abs(table.tail - ref) <= 1e-14 * ref)

    @pytest.mark.parametrize("n, kmax", [(400, 400), (800, 400), (1600, 800)])
    @pytest.mark.parametrize("law", ALL_LAWS)
    def test_table_matches_successive_convolutions(self, law, n, kmax):
        f = tau_pmf(law, n).coeffs
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
        ref = _successive_convolution_renewal(tau.coeffs, n, n)
        for kmax in (0, 1, 15, 16, 17, n):
            tail = renewal_tail_table(law, n, kmax).tail
            want = ref[: kmax + 1]
            assert len(tail) == kmax + 1
            assert tail[0] == 1.0
            assert np.all(np.abs(tail - want) <= 1e-13 * want)
        tail = renewal_tail_table(law, n).tail
        for k in (1, 15, 16, 17, 30, n):
            assert abs(renewal_tail(tau, n, k) - tail[k]) <= 1e-13 * tail[k]

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
        f = tau_pmf(law, n).coeffs
        ref = np.zeros(n + 1)
        ref[0] = 1.0
        for m in range(1, n + 1):
            ref[m] = np.dot(f[1 : m + 1], ref[m - 1 :: -1])
        u, U = return_prob_partial_sums(law, n)
        np.testing.assert_allclose(u, ref, rtol=1e-12, atol=0)
        np.testing.assert_allclose(U, np.cumsum(ref), rtol=1e-12, atol=0)

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
