"""Increment law construction, validation, serialization, and expansion."""

import json
import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from recordwalk import (
    IncrementLaw,
    LawValidationError,
    Orientation,
    expand_coefficients,
    h_series,
    mdp_constants,
    solve_h,
    truncated_explicit,
)
from recordwalk.fixed_point import (BLOCK, _first_block, _solve_blocks,
                                    one_minus_s_phi_prime_h)
from recordwalk.series import (series_eval, series_exp, series_log,
                               series_mul, series_reciprocal)
from support import (ALL_LAWS, ASYM, BUNDLED_LAWS, STABLE, STABLE_LEFT, SYM,
                     SYM_LEFT, MpLaw, bundled_law, compose_reference,
                     parse_csv, run_cli)


class TestExplicitFactory:
    def test_symmetric_walk(self):
        law = SYM
        assert law.q == 0.5
        assert law.p == (0.0, 0.5)
        assert law.sigma2 == pytest.approx(1.0)
        assert not law.is_stable

    def test_sigma2_second_factorial_moment(self):
        # sigma2 = sum (n+1) n p_n = 2*0.1 + 6*0.15
        assert ASYM.sigma2 == pytest.approx(1.1)

    @pytest.mark.parametrize("law", ALL_LAWS)
    def test_constructor_law_matches_factory(self, law):
        # sigma2 is derived from p, so a law built by the dataclass
        # constructor itself carries it too
        direct = IncrementLaw(law.orientation, law.q, p=law.p,
                              gamma=law.gamma, beta=law.beta)
        assert direct.sigma2 == law.sigma2
        assert direct.mdp_closed_form() == law.mdp_closed_form()
        assert direct.sha256() == law.sha256()

    def test_orientation_coercion(self):
        assert SYM_LEFT.orientation is Orientation.LEFT

    def test_rejects_nonpositive_q(self):
        with pytest.raises(LawValidationError):
            IncrementLaw.explicit("right", 0.0, [1.0])

    def test_rejects_negative_p(self):
        with pytest.raises(LawValidationError):
            IncrementLaw.explicit("right", 0.5, [-0.1, 0.6])

    def test_rejects_p0_at_one(self):
        with pytest.raises(LawValidationError):
            IncrementLaw.explicit("right", 0.5, [1.0, 0.5])

    def test_rejects_mass_defect(self):
        with pytest.raises(LawValidationError):
            IncrementLaw.explicit("right", 0.5, [0.0, 0.4])

    @pytest.mark.parametrize("q, p", [(math.nan, [0.0, 0.5]),
                                      (0.5, [0.0, math.nan]),
                                      (0.5, [math.inf, 0.5])])
    def test_rejects_non_finite(self, q, p):
        with pytest.raises(LawValidationError, match="finite"):
            IncrementLaw.explicit("right", q, p)

    def test_rejects_noncritical(self):
        # mass is 1 but sum n*p_n = 0.4 != q = 0.5
        with pytest.raises(LawValidationError):
            IncrementLaw.explicit("right", 0.5, [0.1, 0.4])

    @pytest.mark.parametrize("side", ["right", "left"])
    @pytest.mark.parametrize("p", [[0.999999999999], [0.999999999999, 0.0]])
    def test_rejects_a_law_without_a_jump_of_size_one_or_more(self, side, p):
        # the drift q = 1e-12 is within CRITICALITY_TOL, but exact
        # criticality needs some p_n > 0 with n >= 1
        with pytest.raises(LawValidationError, match="p_n > 0 with n >= 1"):
            IncrementLaw.explicit(side, 1e-12, p)


class TestStableFactory:
    def test_parameters(self):
        law = STABLE
        assert law.is_stable
        assert law.q == pytest.approx(0.5 / 1.5)
        assert law.p0 == pytest.approx(0.5)

    @pytest.mark.parametrize("gamma,beta", [(0.0, 0.5), (1.0, 0.5),
                                            (0.5, 0.0), (0.5, 1.0)])
    def test_rejects_boundary_parameters(self, gamma, beta):
        with pytest.raises(LawValidationError):
            IncrementLaw.stable("right", gamma, beta)


class TestGeneratingFunction:
    def test_explicit_values(self):
        law = SYM
        assert law.phi(0.6) == pytest.approx(0.5 + 0.5 * 0.36, abs=1e-15)
        assert law.phi(1.0) == pytest.approx(1.0, abs=1e-15)
        assert law.phi_prime(1.0) == pytest.approx(1.0, abs=1e-15)
        assert law.phi_second(1.0) == pytest.approx(law.sigma2)

    def test_stable_values(self):
        law = STABLE
        assert law.phi(0.0) == pytest.approx(law.q, abs=1e-15)
        assert law.phi(1.0) == 1.0
        assert law.phi_prime(1.0) == 1.0
        assert law.phi_second(1.0) == math.inf
        assert math.isfinite(law.phi_second(1.0 - 2.0**-53))
        assert law.phi_second(0.75) == pytest.approx(
            0.25 * 0.25**-0.5, abs=1e-15
        )

    def test_domain_checks(self):
        with pytest.raises(ValueError):
            SYM.phi(1.5)

    @pytest.mark.parametrize("name", BUNDLED_LAWS)
    @pytest.mark.parametrize("s", [math.nan, -2.0**-1074, 1.0 + 2.0**-52])
    def test_domain_checks_on_floats_and_arrays(self, name, s):
        # the trio takes floats only: one outside [0, 1] is rejected by
        # name, and an array is refused, not evaluated
        law = bundled_law(name)
        for f in (law.phi, law.phi_prime, law.phi_second):
            with pytest.raises(ValueError, match="outside"):
                f(s)
            with pytest.raises(ValueError):
                f(np.array([0.5, 0.25]))


def _mp_gap_over_w(mp_law, w):
    """(phi(h) - h)/w at h = 1 - w for a bundled law in mpmath, with 40
    digits more than the 2*log10(1/w) that phi(h) - h cancels."""
    with mpmath.workdps(40 - 2 * math.floor(math.log10(w))):
        w = mpmath.mpf(float(w))
        h = 1 - w
        return (mp_law.phi(h) - h) / w


def _phi_direct(law, h, order):
    """phi(H) through s^order for H = h with h[0] = 0: the explicit law's
    polynomial composed with H, or H + q*W^(1+beta), W = 1 - H, by Miller's
    recurrence one coefficient at a time in long double."""
    if not law.is_stable:
        return compose_reference(np.array([law.q, *law.p]), h, order)
    ld = np.longdouble
    w = np.zeros(order + 1, ld)
    w[: len(h)] = -h[: order + 1]
    w[0] = 1
    jw, e = np.arange(order + 1, dtype=ld) * w, 2 + ld(law.beta)
    pw = np.zeros(order + 1, ld)
    pw[0] = 1
    for m in range(1, order + 1):
        pw[m] = (e * np.dot(jw[1 : m + 1], pw[m - 1 :: -1])
                 - m * np.dot(w[1 : m + 1], pw[m - 1 :: -1])) / m
    out = ld(law.q) * pw - w  # H = 1 - W
    out[0] += 1
    return out


def _phi_prime_direct(law, h, order):
    """phi'(H) through s^order, as _phi_direct forms phi(H)."""
    if law.is_stable:
        w = -h[: order + 1]
        w[0] += 1.0
        out = -law.gamma * series_exp(law.beta * series_log(w, order), order)
        out[0] += 1.0
        return out
    a = np.array([law.q, *law.p])
    return compose_reference(a[1:] * np.arange(1, len(a)), h, order)


@pytest.mark.parametrize("name", BUNDLED_LAWS)
class TestLawInterface:
    """The family-specific methods every consumer calls, against the scalar
    generating function."""

    @pytest.mark.parametrize("s", [0.1, 0.25])
    def test_phi_series_sums_to_phi_at_h(self, name, s):
        # The running series of phi(h) that h_series solves with, summed
        # at s: the explicit family's last node is phi(h), the stable
        # family keeps P = W^(1+beta), each final through the whole blocks
        # of h; phi'(h) through s^(B-2), which G is formed from.
        law, order = bundled_law(name), 1000
        h = np.zeros(-(-(order + 1) // BLOCK) * BLOCK)
        h[:BLOCK] = _first_block(law)
        run = _solve_blocks(law, h)
        phi_h = h + law.q * run.P if law.is_stable else run.series[-1]
        x = solve_h(law, s)
        assert abs(series_eval(phi_h, s) - law.phi(x)) <= 1e-13
        assert abs(series_eval(run.phi_prime, s) - law.phi_prime(x)) <= 1e-13

    @pytest.mark.parametrize("m", [2, 3, 17, 1000, 4097, 10001])
    def test_phi_series_derivative_order(self, name, m):
        # phi'(h) through s^d, d = min(m, B - 2), and the window at the
        # last block start c <= m, R_0 = [s^(c-1)] phi(h) and
        # R_i = [s^(c+i-1)] phi(h[:c]), against phi composed with h
        # directly: support.compose_reference, one convolution per
        # coefficient and no plan of products, whose terms are nonnegative
        # as the window's are, or for the stable family log and exp of
        # W = 1 - H for phi'(h) and a long-double Miller run for the window
        # (at most 2.6e-14 read; log and exp read 5.2e-13 at order 10001).
        # Any accurate G drives the blocks, here Newton's reciprocal: the
        # window is checked against the h that this loop solves.
        law = bundled_law(name)
        h = np.zeros(-(-(max(m, BLOCK) + 1) // BLOCK) * BLOCK)
        h[:BLOCK] = _first_block(law)
        run = law.running_phi(h, BLOCK)
        g = series_reciprocal(np.concatenate([[1.0], -run.phi_prime]),
                              BLOCK - 1)
        for c in range(BLOCK, m + 1, BLOCK):
            r = run.window(c)
            run.advance(c, series_mul(g, r, BLOCK - 1))
        d = min(m, BLOCK - 2)
        ref = _phi_prime_direct(law, h, d)
        assert np.all(np.abs(run.phi_prime[: d + 1] - ref)
                      <= 1e-14 * np.abs(ref)), d
        if m < BLOCK:
            return
        if law.is_stable and np.finfo(np.longdouble).eps > 1e-18:
            pytest.skip("long double is no wider than double here")
        ref = _phi_direct(law, h[:c], c + len(r) - 2)[c - 1 :]
        assert np.all(np.abs(r - ref) <= 1e-13 * np.abs(ref))

    def test_one_minus_s_phi_prime(self, name):
        law, s = bundled_law(name), 0.5
        h = solve_h(law, s)
        for x in (0.0, 0.3, h, 0.9):
            direct = 1.0 - s * law.phi_prime(x)
            _, dp, _, _ = law.gaps(x, 1.0 - x)
            assert abs((1.0 - s) + s * dp - direct) <= 1e-12
        r, dp, _, _ = law.gaps(h, 1.0 - h)
        d = (1.0 - h) * r
        direct = 1.0 - s * law.phi_prime(h)
        assert abs((d + h * dp) / (d + h) - direct) <= 1e-12
        assert abs(one_minus_s_phi_prime_h(law, s) - direct) <= 1e-12

    def test_gaps(self, name):
        law = bundled_law(name)
        for h in (1e-9, 0.3, 0.5, 0.9):
            gaps = law.gaps(h, 1.0 - h)
            assert all(v.__class__ is float for v in gaps)
            r, dp, psi, chi = gaps
            assert abs((1.0 - h) * r - (law.phi(h) - h)) <= 1e-12
            assert abs(dp - (1.0 - law.phi_prime(h))) <= 1e-12
            assert abs(psi * h - (law.phi(h) - law.q)) <= 1e-12
            assert abs(chi * h - (law.phi_prime(h) - psi)) <= 1e-12
        assert law.gaps(0.0, 1.0)[2] == law.p0

    def test_gaps_at_w_zero(self, name):
        # h = 1, the point s = 1: D = D' = 0, psi = 1 - q and chi = phi'(1)
        # - psi = q, the limits; 1 - s*phi'(h) is 0 there
        law = bundled_law(name)
        r, dp, psi, chi = law.gaps(1.0, 0.0)
        assert r == dp == 0.0
        assert abs(psi - (1.0 - law.q)) <= 1e-15
        assert abs(chi - law.q) <= 1e-15
        assert one_minus_s_phi_prime_h(law, 1.0) == 0.0

    def test_gap_over_w(self, name):
        # w * (D/w) against D = phi(h) - h at h = 1 - w, w = 1e-1..1e-250,
        # from the law's decimal coefficients in mpmath, 40 digits beyond
        # what 1 - h cancels; where D is below the normal range, D/w itself,
        # which stays positive; 1.3 ulps measured
        law, mp_law = bundled_law(name), MpLaw(name)
        ws = 10.0 ** -np.arange(1, 251)
        ratios = law.gap_over_w(1.0 - ws, ws)
        for w, r in zip(ws, ratios):
            assert r == law.gap_over_w(1.0 - w, float(w))
            ref = _mp_gap_over_w(mp_law, w)
            d = w * r
            if d >= np.finfo(float).tiny:
                assert abs(d - w * ref) <= 1e-15 * w * ref, w
            assert 0.0 < r and abs(r - ref) <= 1e-15 * ref, w
        assert 1e-250 * law.gap_over_w(1.0, 1e-250) == 0.0

    def test_mdp_constants_are_the_closed_form(self, name):
        law = bundled_law(name)
        alpha, c, regime = law.mdp_closed_form()
        consts = mdp_constants(law)
        assert (consts.alpha, consts.c, consts.regime) == (alpha, c, regime)


class TestSerialization:
    @pytest.mark.parametrize("law", [SYM, ASYM, STABLE, STABLE_LEFT])
    def test_json_round_trip(self, law):
        assert IncrementLaw.from_json(law.to_json()) == law

    def test_hash_is_stable(self):
        rebuilt = IncrementLaw.explicit("right", SYM.q, SYM.p)
        assert SYM.sha256() == rebuilt.sha256()
        assert SYM.sha256() != SYM_LEFT.sha256()

    def test_unknown_spec_type(self):
        with pytest.raises(LawValidationError):
            IncrementLaw.from_dict(
                {"orientation": "right", "spec": {"type": "mystery"}}
            )

    def test_json_shape(self):
        d = json.loads(STABLE.to_json())
        assert d["spec"] == {"type": "stable", "gamma": 0.5, "beta": 0.5}


class TestExpansion:
    def test_explicit_coefficients(self):
        a = expand_coefficients(SYM, 5)
        assert np.allclose(a, [0.5, 0.0, 0.5, 0.0, 0.0, 0.0])

    def test_stable_leading_coefficients(self):
        # a_0 = q and a_1 = p_0 = 1 - gamma
        a = expand_coefficients(STABLE, 2000)
        assert a[0] == pytest.approx(0.5 / 1.5, abs=1e-15)
        assert a[1] == pytest.approx(0.5, abs=1e-15)
        assert np.all(a[1:] >= 0.0)
        assert a.sum() == pytest.approx(1.0, abs=1e-3)  # heavy tail remains

    def test_stable_matches_phi(self):
        law = STABLE
        a = expand_coefficients(law, 400)
        s = 0.3
        direct = float(np.polyval(a[::-1], s))
        assert direct == pytest.approx(law.phi(s), abs=1e-14)

    def test_order_check(self):
        with pytest.raises(ValueError):
            expand_coefficients(SYM, 0)


class TestTruncation:
    def test_truncated_stable_is_exactly_critical(self):
        law2, deficit = truncated_explicit(STABLE, 5000)
        assert not law2.is_stable
        assert 0.0 < deficit < 1e-5
        drift = math.fsum(n * v for n, v in enumerate(law2.p))
        assert abs(drift - law2.q) <= 1e-10
        assert law2.q + math.fsum(law2.p) == pytest.approx(1.0, abs=1e-12)

    def test_explicit_passes_through(self):
        law = SYM
        out, deficit = truncated_explicit(law, 100)
        assert out is law and deficit == 0.0

    @pytest.mark.parametrize("order", [200, 2000])
    def test_gaps_of_a_long_support(self, order):
        # the gaps of a high-degree polynomial stay sums of nonnegative terms
        law, _ = truncated_explicit(STABLE, order)
        for h in (1e-9, 0.1, 0.3, 0.5, 0.7, 0.9, 0.99):
            r, dp, psi, chi = law.gaps(h, 1.0 - h)
            d = (1.0 - h) * r
            assert abs(d - (law.phi(h) - h)) <= 1e-14
            assert abs(dp - (1.0 - law.phi_prime(h))) <= 1e-14
            assert abs(psi * h - (law.phi(h) - law.q)) <= 1e-14
            assert abs(chi * h - (law.phi_prime(h) - psi)) <= 1e-14


@st.composite
def critical_laws(draw, sides=("right", "left"),
                  families=("explicit", "stable")):
    """Random critical laws of the given orientations and families: explicit
    laws with support up to 8, built by scaling a raw weight vector with
    some weight on a jump of size 1 or more, and stable laws with gamma and
    beta in [0.02, 0.98]."""
    side = draw(st.sampled_from(sides))
    if draw(st.sampled_from(families)) == "stable":
        unit = st.floats(min_value=0.02, max_value=0.98)
        return IncrementLaw.stable(side, draw(unit), draw(unit))
    m = draw(st.integers(min_value=1, max_value=8))
    w = draw(
        st.lists(
            st.floats(min_value=0.0, max_value=1.0),
            min_size=m,
            max_size=m,
        ).filter(lambda ws: sum(ws) > 1e-3)
    )
    r = draw(st.floats(min_value=0.1, max_value=0.99))
    total = sum(w)
    mean = sum((n + 1) * v for n, v in enumerate(w))
    scale = r / (mean + total)
    p = [1.0 - scale * (mean + total)] + [scale * v for v in w]
    return IncrementLaw.explicit(side, scale * mean, p)


@given(critical_laws(), st.floats(min_value=0.0, max_value=1.0))
@settings(max_examples=100, deadline=None)
def test_random_laws_are_valid_pgfs(law, s):
    val = law.phi(s)
    assert law.q <= val <= 1.0 + 1e-12
    assert abs(law.phi(1.0) - 1.0) <= 1e-12
    assert abs(law.phi_prime(1.0) - 1.0) <= 1e-9


@pytest.mark.parametrize("family", ["explicit", "stable"])
@pytest.mark.parametrize("side", ["right", "left"])
@given(data=st.data())
@settings(max_examples=8, deadline=None, derandomize=True)
def test_random_laws_through_the_cli(tmp_path_factory, side, family, data):
    # every command exits 0, 1 or 2 with a message and raises nothing; the
    # rate is finite and nonnegative, and the two exact oracles agree
    law = data.draw(critical_laws((side,), (family,)))
    path = tmp_path_factory.mktemp("law") / "law.json"
    path.write_text(law.to_json())

    def run(command, *args):
        # exits 0, 1 or 2, and with a message
        code, out, err = run_cli(command, "--law", str(path), *args)
        assert code in (0, 1, 2), (command, args, code)
        assert out if code == 0 else err.startswith(
            ("error: ", "numeric failure: ")), (command, args, err)
        return code, out

    for x in ("1e-12", "0.5", "0.999"):
        code, out = run("rate", "--x", x)
        assert code == 0, x
        doc = json.loads(out)
        for key in ("Lambda_star", "ldp_rate"):
            assert isinstance(doc[key], float) and 0.0 <= doc[key] < math.inf
    run("mdp")
    run("series", "--what", "tau", "--order", "64")
    (dp_code, dp), (rn_code, rn) = (
        run("oracle", "--mode", mode, "--n", "30")
        for mode in ("dp", "renewal"))
    assert dp_code == rn_code == 0
    dp, rn = (np.array([float(row[1]) for row in parse_csv(text)[2]])
              for text in (dp, rn))
    assert len(dp) == len(rn) == 31
    assert np.all(np.abs(dp - rn) <= 1e-12 * rn)
