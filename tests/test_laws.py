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
from recordwalk.fixed_point import one_minus_s_phi_prime_h
from recordwalk.series import series_eval
from support import (ALL_LAWS, ASYM, BUNDLED_LAWS, STABLE, STABLE_LEFT, SYM,
                     SYM_LEFT, MpLaw, bundled_law, parse_csv, run_cli)


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


@pytest.mark.parametrize("name", BUNDLED_LAWS)
class TestLawInterface:
    """The family-specific methods every consumer calls, against the scalar
    generating function."""

    @pytest.mark.parametrize("s", [0.1, 0.25])
    def test_phi_series_sums_to_phi_at_h(self, name, s):
        law, order = bundled_law(name), 128
        phi_h, phip_h = law.phi_series(h_series(law, order), order, order)
        h = solve_h(law, s)
        assert abs(series_eval(phi_h, s) - law.phi(h)) <= 1e-13
        assert abs(series_eval(phip_h, s) - law.phi_prime(h)) <= 1e-13

    @pytest.mark.parametrize("m", [2, 3, 17, 1000, 4097, 10001])
    def test_phi_series_derivative_order(self, name, m):
        # phi'(H) through s^d is the first d + 1 terms of phi'(H) through
        # s^order, up to rounding: the stable family's exp recurrence and
        # sym's two-term composition give the same bits; asym's
        # composition with h[:d + 1] slices its long products elsewhere,
        # 2 ulps at m = 4097 and 10001 measured, against the 16 allowed
        law = bundled_law(name)
        h = h_series(law, m)
        phi_full, phip_full = law.phi_series(h, m, m)
        for d in sorted({0, 1, m // 2 - 1, (m - 1) // 2, m // 2, m - 1}):
            phi_h, phip_h = law.phi_series(h, m, d)
            assert len(phip_h) == d + 1
            assert np.array_equal(phi_h, phi_full)
            ref = phip_full[: d + 1]
            assert np.all(np.abs(phip_h - ref)
                          <= 16 * np.spacing(np.abs(ref))), d

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
