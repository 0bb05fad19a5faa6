"""Truncated power-series arithmetic."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from recordwalk import Orientation, h_series, series, truncated_explicit
from recordwalk.series import (
    BLOCK,
    CONV_SLICE,
    _middle_product,
    _plan,
    _ps_nodes,
    series_compose_val1,
    series_eval,
    series_exp,
    series_log,
    series_mul,
    series_reciprocal,
)
from support import (ALL_LAWS, JUMP_9, LONG_JUMP, LONG_JUMP_LEFT, STABLE,
                     STABLE_LEFT, compose_reference, exp_reference,
                     reciprocal_reference)

STABLE_LAWS = [STABLE, STABLE_LEFT]


def _log_reference(w, order):
    """The recursion l_m = w_m - (1/m) sum_{j<m} j l_j w_{m-j} of
    (log W)' = W'/W."""
    w = np.asarray(w, dtype=float)[: order + 1]
    l = np.zeros(order + 1)
    wpad = np.zeros(order + 1)
    wpad[: len(w)] = w
    j = np.arange(order + 1)
    for m in range(1, order + 1):
        conv = np.dot(j[1:m] * l[1:m], wpad[m - 1 : 0 : -1])
        l[m] = wpad[m] - conv / m
    return l


def _within_rel(a, b, tol):
    return np.all(np.abs(a - b) <= tol * np.abs(b))


def test_eval_matches_polyval():
    c = np.array([0.3, -1.2, 0.0, 2.5])
    s = 0.71
    assert series_eval(c, s) == pytest.approx(float(np.polyval(c[::-1], s)))


def test_mul_truncates():
    a = np.array([1.0, 1.0])
    out = series_mul(a, a, 2)
    assert np.allclose(out, [1.0, 2.0, 1.0])
    out = series_mul(a, a, 1)
    assert np.allclose(out, [1.0, 2.0])


def test_reciprocal_inverts():
    f = np.array([2.0, -1.0, 0.5, 0.25, -0.3])
    r = series_reciprocal(f, 8)
    prod = np.convolve(np.concatenate([f, np.zeros(4)])[:9], r)[:9]
    assert prod[0] == pytest.approx(1.0, abs=1e-14)
    assert np.max(np.abs(prod[1:])) <= 1e-13


def test_reciprocal_rejects_zero_constant():
    with pytest.raises(ZeroDivisionError):
        series_reciprocal(np.array([0.0, 1.0]), 4)


def test_log_of_one_minus_s():
    out = series_log(np.array([1.0, -1.0]), 6)
    expected = [0.0] + [-1.0 / k for k in range(1, 7)]
    assert np.allclose(out, expected, atol=1e-15)


def test_exp_of_s():
    out = series_exp(np.array([0.0, 1.0]), 8)
    expected = [1.0 / math.factorial(k) for k in range(9)]
    assert np.allclose(out, expected, atol=1e-15)


def test_exp_log_round_trip():
    rng = np.random.default_rng(7)
    w = np.concatenate([[1.0], rng.uniform(-0.5, 0.5, 12)])
    back = series_exp(series_log(w, 12), 12)
    assert np.max(np.abs(back - w)) <= 1e-12


def test_log_exp_domain_checks():
    with pytest.raises(ValueError):
        series_log(np.array([2.0, 1.0]), 3)
    with pytest.raises(ValueError):
        series_exp(np.array([1.0, 1.0]), 3)


class TestCompose:
    def test_geometric_outer(self):
        # sum_j x^j composed with inner s/2: 1/(1 - s/2)
        outer = np.ones(16)
        inner = np.array([0.0, 0.5])
        out = series_compose_val1(outer, inner, 10)
        assert np.allclose(out, 0.5 ** np.arange(11))

    def test_requires_valuation_one(self):
        with pytest.raises(ValueError):
            series_compose_val1(np.ones(3), np.array([0.1, 1.0]), 4)

    def test_trailing_zero_outer(self):
        outer = np.array([1.0, 0.0, 3.0, 0.0, 0.0])
        inner = np.array([0.0, 1.0, 1.0])
        out = series_compose_val1(outer, inner, 4)
        # 1 + 3 (s + s^2)^2 = 1 + 3 s^2 + 6 s^3 + 3 s^4
        assert np.allclose(out, [1.0, 0.0, 3.0, 6.0, 3.0])


@given(
    st.lists(st.floats(min_value=-1.0, max_value=1.0), min_size=1, max_size=8),
    st.floats(min_value=-0.9, max_value=0.9),
)
@settings(max_examples=80, deadline=None)
def test_reciprocal_pointwise(tail, s):
    f = np.concatenate([[1.0], tail])
    order = 24
    r = series_reciprocal(f, order)
    # both truncations evaluated at small |s| approximate 1/f(s)
    fs = series_eval(f, s * 0.3)
    rs = series_eval(r, s * 0.3)
    assert fs * rs == pytest.approx(1.0, abs=1e-6)


_coefficient = st.one_of(st.just(0.0), st.floats(min_value=1e-3, max_value=1.0))


@given(
    st.lists(_coefficient, min_size=1, max_size=70),
    st.lists(_coefficient, min_size=0, max_size=60),
    st.integers(min_value=0, max_value=60),
    st.booleans(),
)
@settings(max_examples=200, deadline=None)
def test_compose_matches_reference(outer, inner_tail, order, zero_outer):
    # Outer lengths 1..70 give k = 1, perfect squares and a partial last
    # block, and outer longer than order + 1 is cut to it.
    outer = np.zeros(len(outer)) if zero_outer else np.array(outer)
    inner = np.array([0.0, *inner_tail])
    out = series_compose_val1(outer, inner, order)
    ref = compose_reference(outer, inner, order)
    assert len(out) == order + 1
    assert out[0] == outer[0]
    assert _within_rel(out, ref, 1e-13)


def _products(nodes):
    return sum(1 for *_, prod in nodes if prod)


def _f0_outer(law):
    """The c of f0 = s*sum_j c_j h^j that an explicit law composes."""
    if law.orientation is Orientation.LEFT:
        return law.jump_tails(len(law.p))
    c = np.array(law.p)
    c[0] += law.q
    return c


@pytest.mark.parametrize("law, products",
                         [(LONG_JUMP, 7), (JUMP_9, 4), (LONG_JUMP_LEFT, 13)],
                         ids=["long_jump", "jump_9", "long_jump_left"])
def test_plan_product_count(law, products):
    # binary powers for the sparse c of long jump and jump 9, where
    # Paterson-Stockmeyer took 13 and 5; long jump left's tails are dense
    assert _products(_plan(_f0_outer(law))) == products


def test_dense_plan_never_finishes_binary_powers(monkeypatch):
    # 2000 dense geometric terms take 88 Paterson-Stockmeyer products (h^2
    # to h^44, the giant step, and 45 Horner rows after the first); the
    # binary-power plan, which would take 1998, stops once it passes them
    power_nodes, built = series._power_nodes, []

    def spy(a, most):
        built.append(power_nodes(a, most))
        return built[-1]

    monkeypatch.setattr(series, "_power_nodes", spy)
    a = 0.9 ** np.arange(2000)
    assert _plan(a) == _ps_nodes(a) and _products(_ps_nodes(a)) == 88
    assert built == [None]


@pytest.mark.parametrize("law", [law for law in ALL_LAWS if not law.is_stable])
def test_plan_makes_no_more_products_on_bundled_laws(law):
    # series_compose_val1 made max(k - 2, 0) baby products, the giant step
    # and one product per Horner row but the first for n coefficients in
    # rows of k = isqrt(n): the polynomials an explicit bundled law
    # composes, phi' and f0's c, take no more on the shared plan
    a = np.array([law.q, *law.p])
    for outer in (a[1:] * np.arange(1, len(a)), _f0_outer(law)):
        n = np.flatnonzero(outer)[-1] + 1
        k = math.isqrt(n)
        assert _products(_plan(outer)) <= max(k - 2, 0) + -(-n // k)


@pytest.mark.parametrize("law", STABLE_LAWS, ids=["right", "left"])
@pytest.mark.parametrize("order", [200, 800])
def test_compose_truncated_stable_law(law, order):
    explicit, _ = truncated_explicit(law, 10000)
    outer = np.array([explicit.q, *explicit.p])
    inner = h_series(law, order)
    out = series_compose_val1(outer, inner, order)
    assert _within_rel(out, compose_reference(outer, inner, order), 1e-14)


@pytest.mark.parametrize("law", STABLE_LAWS, ids=["right", "left"])
def test_log_matches_recursion(law):
    w = -h_series(law, 10000)
    w[0] += 1.0
    for order in (2000, 10000):
        out = series_log(w, order)
        assert out[0] == 0.0
        assert _within_rel(out, _log_reference(w, order), 1e-14)


def test_log_order_zero():
    assert np.array_equal(series_log(np.array([1.0, 0.5]), 0), [0.0])
    with pytest.raises(ValueError):
        series_log(np.array([0.5]), 0)


# One slice of the shorter factor, one just full, one term into a second,
# and more, odd and even: each slice's product is cut at the order on its
# own, so a slice that ends at the order or one past it must not count the
# last coefficient twice.
TRUNC_SIZES = [1, 2, CONV_SLICE - 1, CONV_SLICE, CONV_SLICE + 1,
               CONV_SLICE + 2, 2 * CONV_SLICE + 1, 4097, 5000]


@pytest.mark.parametrize("n", TRUNC_SIZES)
def test_truncated_product_matches_convolve(n):
    rng = np.random.default_rng(n)
    for la, lb in [(n, n), (n + 5, n + 9), (n, 3), (3, n), (n // 2 + 1, n)]:
        a, b = rng.uniform(0.0, 1.0, la), rng.uniform(0.0, 1.0, lb)
        ref = np.convolve(a[:n], b[:n])[:n]
        out = series_mul(a, b, n - 1)
        assert len(out) == len(ref)
        assert _within_rel(out, ref, 1e-13)
    # mixed signs: within rounding of the sum of |terms|
    a, b = rng.uniform(-1.0, 1.0, n), rng.uniform(-1.0, 1.0, n)
    scale = np.convolve(np.abs(a), np.abs(b))[:n]
    assert np.all(np.abs(series_mul(a, b, n - 1) - np.convolve(a, b)[:n])
                  <= 1e-13 * scale)


@pytest.mark.skipif(np.finfo(np.longdouble).eps > 1e-18,
                    reason="long double is no wider than double here")
def test_truncated_product_against_long_double():
    # A nonnegative product through order 10001, the size of the
    # tauberian suite's series, summed over ten slices of CONV_SLICE terms:
    # coefficients at every slice edge and a spread in between against
    # their sums in long double.  Measured 3.8e-16 (one np.convolve of the
    # whole factors: 6.8e-16).
    order = 10001
    rng = np.random.default_rng(10001)
    a = rng.uniform(0.0, 1.0, order + 1) / np.arange(1, order + 2) ** 0.5
    b = rng.uniform(0.0, 1.0, order + 1)
    out = series_mul(a, b, order)
    edges = np.arange(0, order + 1, CONV_SLICE)
    ks = np.unique(np.concatenate([edges, edges[1:] - 1, edges + 1,
                                   np.linspace(0, order, 101).astype(int)]))
    al, bl = a.astype(np.longdouble), b.astype(np.longdouble)
    ref = np.array([np.dot(al[: k + 1], bl[k::-1]) for k in ks])
    err = np.abs(out[ks] - ref) / ref
    assert len(out) == order + 1
    assert float(np.max(err)) <= 2e-15


@pytest.mark.parametrize("ly", [CONV_SLICE - 1, CONV_SLICE, CONV_SLICE + 1,
                                2 * CONV_SLICE + 1])
@pytest.mark.parametrize("extra", [0, 1, 128, CONV_SLICE + 7])
def test_middle_product_matches_convolve(ly, extra):
    # the reciprocal's middle product has len(x) = 2 len(y) - 1 at most,
    # the exp's len(x) = len(y) + BLOCK - 1; here len(x) = ly + extra
    rng = np.random.default_rng(ly + extra)
    x, y = rng.uniform(0.0, 1.0, ly + extra), rng.uniform(0.0, 1.0, ly)
    out = _middle_product(x, y)
    ref = np.convolve(x, y, "valid")
    assert len(out) == extra + 1
    assert _within_rel(out, ref, 1e-13)
    x, y = rng.uniform(-1.0, 1.0, ly + extra), rng.uniform(-1.0, 1.0, ly)
    scale = np.convolve(np.abs(x), np.abs(y), "valid")
    assert np.all(np.abs(_middle_product(x, y) - np.convolve(x, y, "valid"))
                  <= 1e-13 * scale)


@pytest.mark.parametrize("order", [1, 2, 1023, 1024, 1025, 4097])
def test_reciprocal_matches_full_newton(order):
    # f = 1 - g with g >= 0 and sum g < 1: every coefficient of 1/f is
    # positive, so relative error is defined everywhere
    rng = np.random.default_rng(order)
    g = rng.uniform(0.0, 1.0, order + 1) / np.arange(1, order + 2) ** 1.5
    g[0] = 0.0
    f = -0.9 * g / g.sum()
    f[0] = 1.0
    r = series_reciprocal(f, order)
    assert len(r) == order + 1
    assert r[0] == 1.0
    assert _within_rel(r, reciprocal_reference(f, order), 1e-13)


def test_reciprocal_of_h_over_s_matches_full_newton():
    # f0_series' reciprocal on a right-continuous law: s/h has one sign
    # from s^2 on
    hs = h_series(STABLE, 4098)[1:]
    out = series_reciprocal(hs, 4096)
    assert _within_rel(out, reciprocal_reference(hs, 4096), 1e-13)


def test_reciprocal_short_input_and_order_zero():
    assert np.array_equal(series_reciprocal(np.array([4.0]), 0), [0.25])
    out = series_reciprocal(np.array([1.0, -0.5]), 2000)
    assert np.allclose(out, 0.5 ** np.arange(2001), rtol=1e-15, atol=0)


def _stable_log_w(order, law=STABLE):
    """log W, W = 1 - h, of a stable law; both orientations share h."""
    w = -h_series(law, order)
    w[0] += 1.0
    return series_log(w, order)


@pytest.mark.parametrize("law", STABLE_LAWS, ids=["right", "left"])
def test_exp_bit_identical_to_loop(law):
    # Below one block series_exp is the recurrence itself, bit for bit;
    # past it the blocked sum differs from the loop in the last bits
    # (test_exp_block_edges_match_loop, test_exp_against_long_double),
    # but its first block is still the loop's.
    lw = _stable_log_w(3000, law)
    cases = [(lw[:40], 60)] + [(f * lw, order) for f in (1.5, 0.5)
                               for order in range(BLOCK)]
    for a, order in cases:
        assert np.array_equal(series_exp(a, order), exp_reference(a, order))
    for a, order in [(1.5 * lw, 3000), (0.5 * lw, 1100)]:
        assert np.array_equal(series_exp(a, order)[:BLOCK],
                              exp_reference(a, BLOCK - 1))


@pytest.mark.skipif(np.finfo(np.longdouble).eps > 1e-18,
                    reason="long double is no wider than double here")
def test_exp_against_long_double():
    # The one-dot-per-coefficient loop measured 1.03e-10 on W^1.5 and
    # 4.6e-15 on W^0.5 at order 4000; the bounds are 1.5 times
    # that.  W^1.5's recurrence cancels: its terms are far larger than
    # its coefficients.  On the W of the blocked h_series, series_exp
    # reads 9.8e-11 and 5.3e-15, the loop 6.8e-11 and 4.9e-15.
    order = 4000
    lw = _stable_log_w(order)
    for f, tol in [(1.5, 1.5e-10), (0.5, 7e-15)]:
        a = f * lw
        ref = exp_reference(a, order, np.longdouble)
        err = np.abs(series_exp(a, order) - ref) / np.abs(ref)
        assert float(np.max(err)) <= tol, f


def test_exp_block_edges_match_loop():
    B = BLOCK
    a = 0.5 * _stable_log_w(2 * B + 1)
    cases = [(a, order) for order in (B - 1, B, B + 1, 2 * B, 2 * B + 1)]
    # an input that stops inside the second block, zero-padded; one cut
    # blocks short of the order is test_exp_of_a_short_polynomial's
    cases.append((a[: B + B // 2], 2 * B + 1))
    for a, order in cases:
        out = series_exp(a, order)
        assert len(out) == order + 1
        assert _within_rel(out, exp_reference(a, order), 1e-14)


def test_exp_lower_orders_are_prefixes():
    # A lower order's exp shares the bits of a higher one's, as the
    # blocks are the same
    order = 3 * BLOCK + 17
    a = 1.5 * _stable_log_w(order)
    full = series_exp(a, order)
    for d in (0, 1, BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK,
              order // 2, order - 1):
        assert np.array_equal(series_exp(a[: d + 1], d), full[: d + 1]), d
        assert np.array_equal(series_exp(a, d), full[: d + 1]), d


def test_exp_prefixes_past_one_slice():
    # Past CONV_SLICE terms the history's middle product is summed over
    # slices, which depend on the block start alone, not on the order
    B, C = BLOCK, CONV_SLICE
    order = 2 * C + 3 * B + 17
    a = 0.5 * _stable_log_w(order)
    full = series_exp(a, order)
    for d in (C - 1, C, C + 1, C + B, 2 * C + 1, order - 1):
        assert np.array_equal(series_exp(a[: d + 1], d), full[: d + 1]), d
        assert np.array_equal(series_exp(a, d), full[: d + 1]), d


def test_exp_of_a_short_polynomial():
    # The block solve multiplies by 1/E = exp(-A) and then by E, which
    # cancel where exp(A)'s coefficients are far smaller than exp(|A|)'s:
    # exp of 0.5 log W cut to 40 terms, at order 4B + 1, is 7.7e-12 off
    # the loop (which is 1.6e-14 off long double) on the W of the blocked
    # h_series, and was 2.5e-12 (6.9e-15) on the Newton ladder's.  No
    # caller passes an input cut short of the order: tail_series takes
    # log W through the order it asks for.
    a = 0.5 * _stable_log_w(4 * BLOCK + 1)[:40]
    order = 4 * BLOCK + 1
    assert _within_rel(series_exp(a, order), exp_reference(a, order), 1e-11)
