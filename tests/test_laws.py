"""Increment law construction, validation, serialization, and expansion."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from recordwalk import (
    IncrementLaw,
    LawValidationError,
    Orientation,
    bundled_law_path,
    expand_coefficients,
    h_series,
    mdp_constants,
    solve_h,
    truncated_explicit,
)
from recordwalk.fixed_point import one_minus_s_phi_prime_h
from recordwalk.series import series_eval

BUNDLED = ["sym.json", "sym_left.json", "asym.json", "stable_g05_b05.json",
           "stable_g05_b05_left.json"]


def sym_law(orientation="right"):
    return IncrementLaw.explicit(orientation, 0.5, [0.0, 0.5])


def asym_law():
    return IncrementLaw.explicit("right", 0.4, [0.35, 0.1, 0.15])


def stable_law(orientation="right"):
    return IncrementLaw.stable(orientation, 0.5, 0.5)


class TestExplicitFactory:
    def test_symmetric_walk(self):
        law = sym_law()
        assert law.q == 0.5
        assert law.p == (0.0, 0.5)
        assert law.sigma2 == pytest.approx(1.0)
        assert not law.is_stable

    def test_sigma2_second_factorial_moment(self):
        # sigma2 = sum (n+1) n p_n = 2*0.1 + 6*0.15
        assert asym_law().sigma2 == pytest.approx(1.1)

    @pytest.mark.parametrize("law", [sym_law(), sym_law("left"), asym_law(),
                                     stable_law(), stable_law("left")])
    def test_constructor_law_matches_factory(self, law):
        # sigma2 is derived from p, so a law built by the dataclass
        # constructor itself carries it too
        direct = IncrementLaw(law.orientation, law.q, p=law.p,
                              gamma=law.gamma, beta=law.beta)
        assert direct.sigma2 == law.sigma2
        assert direct.mdp_closed_form() == law.mdp_closed_form()
        assert direct.sha256() == law.sha256()

    def test_orientation_coercion(self):
        assert sym_law("left").orientation is Orientation.LEFT

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


class TestStableFactory:
    def test_parameters(self):
        law = stable_law()
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
        law = sym_law()
        assert law.phi(0.6) == pytest.approx(0.5 + 0.5 * 0.36, abs=1e-15)
        assert law.phi(1.0) == pytest.approx(1.0, abs=1e-15)
        assert law.phi_prime(1.0) == pytest.approx(1.0, abs=1e-15)
        assert law.phi_second(1.0) == pytest.approx(law.sigma2)

    def test_stable_values(self):
        law = stable_law()
        assert law.phi(0.0) == pytest.approx(law.q, abs=1e-15)
        assert law.phi(1.0) == 1.0
        assert law.phi_prime(1.0) == 1.0
        assert law.phi_second(1.0) == math.inf
        assert law.phi_second(0.75) == pytest.approx(
            0.25 * 0.25**-0.5, abs=1e-15
        )

    def test_domain_checks(self):
        with pytest.raises(ValueError):
            sym_law().phi(1.5)


@pytest.mark.parametrize("name", BUNDLED)
class TestLawInterface:
    """The family-specific methods every consumer calls, against the scalar
    generating function."""

    @staticmethod
    def law(name):
        return IncrementLaw.from_json(bundled_law_path(name).read_text())

    @pytest.mark.parametrize("s", [0.1, 0.25])
    def test_phi_series_sums_to_phi_at_h(self, name, s):
        law, order = self.law(name), 128
        phi_h, phip_h = law.phi_series(h_series(law, order).coeffs, order,
                                       order)
        h = solve_h(law, s)
        assert abs(series_eval(phi_h, s) - law.phi(h)) <= 1e-13
        assert abs(series_eval(phip_h, s) - law.phi_prime(h)) <= 1e-13

    @pytest.mark.parametrize("m", [2, 3, 17, 1000, 4097, 10001])
    def test_phi_series_derivative_order(self, name, m):
        # phi'(H) through s^d is the first d + 1 terms of phi'(H) through
        # s^order, up to rounding: the stable family's exp recurrence and
        # sym's two-term composition give the same bits; asym's
        # composition with h[:d + 1] splits its long products elsewhere,
        # 7 ulps at (10001, 5000) measured, against the 16 ulps allowed
        law = self.law(name)
        h = h_series(law, m).coeffs
        phi_full, phip_full = law.phi_series(h, m, m)
        for d in sorted({0, 1, m // 2 - 1, (m - 1) // 2, m // 2, m - 1}):
            phi_h, phip_h = law.phi_series(h, m, d)
            assert len(phip_h) == d + 1
            assert np.array_equal(phi_h, phi_full)
            ref = phip_full[: d + 1]
            assert np.all(np.abs(phip_h - ref)
                          <= 16 * np.spacing(np.abs(ref))), d

    def test_one_minus_s_phi_prime(self, name):
        law, s = self.law(name), 0.5
        h = solve_h(law, s)
        for x in (0.0, 0.3, h, 0.9):
            direct = 1.0 - s * law.phi_prime(x)
            _, dp, _, _ = law.gaps(x, 1.0 - x)
            assert abs((1.0 - s) + s * dp - direct) <= 1e-12
        d, dp, _, _ = law.gaps(h, 1.0 - h)
        direct = 1.0 - s * law.phi_prime(h)
        assert abs((d + h * dp) / (d + h) - direct) <= 1e-12
        assert abs(one_minus_s_phi_prime_h(law, s) - direct) <= 1e-12

    def test_gaps(self, name):
        law = self.law(name)
        hs = np.array([1e-9, 0.3, 0.5, 0.9])
        d, dp, psi, chi = law.gaps(hs, 1.0 - hs)
        for i, h in enumerate(hs):
            assert abs(d[i] - (law.phi(h) - h)) <= 1e-12
            assert abs(dp[i] - (1.0 - law.phi_prime(h))) <= 1e-12
            assert abs(psi[i] * h - (law.phi(h) - law.q)) <= 1e-12
            assert abs(chi[i] * h - (law.phi_prime(h) - psi[i])) <= 1e-12
            assert (d[i], dp[i], psi[i], chi[i]) == tuple(law.gaps(h, 1.0 - h))
        assert law.gaps(0.0, 1.0)[2] == law.p0

    def test_mdp_constants_are_the_closed_form(self, name):
        law = self.law(name)
        alpha, c, regime = law.mdp_closed_form()
        consts = mdp_constants(law)
        assert (consts.alpha, consts.c, consts.regime) == (alpha, c, regime)


class TestSerialization:
    @pytest.mark.parametrize("law", [sym_law(), asym_law(), stable_law(),
                                     stable_law("left")])
    def test_json_round_trip(self, law):
        assert IncrementLaw.from_json(law.to_json()) == law

    def test_hash_is_stable(self):
        law = sym_law()
        assert law.sha256() == sym_law().sha256()
        assert law.sha256() != sym_law("left").sha256()

    def test_unknown_spec_type(self):
        with pytest.raises(LawValidationError):
            IncrementLaw.from_dict(
                {"orientation": "right", "spec": {"type": "mystery"}}
            )

    def test_json_shape(self):
        d = json.loads(stable_law().to_json())
        assert d["spec"] == {"type": "stable", "gamma": 0.5, "beta": 0.5}


class TestExpansion:
    def test_explicit_coefficients(self):
        a = expand_coefficients(sym_law(), 5)
        assert np.allclose(a, [0.5, 0.0, 0.5, 0.0, 0.0, 0.0])

    def test_stable_leading_coefficients(self):
        # a_0 = q and a_1 = p_0 = 1 - gamma
        a = expand_coefficients(stable_law(), 2000)
        assert a[0] == pytest.approx(0.5 / 1.5, abs=1e-15)
        assert a[1] == pytest.approx(0.5, abs=1e-15)
        assert np.all(a[1:] >= 0.0)
        assert a.sum() == pytest.approx(1.0, abs=1e-3)  # heavy tail remains

    def test_stable_matches_phi(self):
        law = stable_law()
        a = expand_coefficients(law, 400)
        s = 0.3
        direct = float(np.polyval(a[::-1], s))
        assert direct == pytest.approx(law.phi(s), abs=1e-14)

    def test_order_check(self):
        with pytest.raises(ValueError):
            expand_coefficients(sym_law(), 0)


class TestTruncation:
    def test_truncated_stable_is_exactly_critical(self):
        law2, deficit = truncated_explicit(stable_law(), 5000)
        assert not law2.is_stable
        assert 0.0 < deficit < 1e-5
        drift = math.fsum(n * v for n, v in enumerate(law2.p))
        assert abs(drift - law2.q) <= 1e-10
        assert law2.q + math.fsum(law2.p) == pytest.approx(1.0, abs=1e-12)

    def test_explicit_passes_through(self):
        law = sym_law()
        out, deficit = truncated_explicit(law, 100)
        assert out is law and deficit == 0.0

    @pytest.mark.parametrize("order", [200, 2000])
    def test_gaps_of_a_long_support(self, order):
        # the gaps of a high-degree polynomial stay sums of nonnegative terms
        law, _ = truncated_explicit(stable_law(), order)
        for h in (1e-9, 0.1, 0.3, 0.5, 0.7, 0.9, 0.99):
            d, dp, psi, chi = law.gaps(h, 1.0 - h)
            assert abs(d - (law.phi(h) - h)) <= 1e-14
            assert abs(dp - (1.0 - law.phi_prime(h))) <= 1e-14
            assert abs(psi * h - (law.phi(h) - law.q)) <= 1e-14
            assert abs(chi * h - (law.phi_prime(h) - psi)) <= 1e-14


@st.composite
def critical_laws(draw):
    """Random critical explicit laws built by scaling a raw weight vector."""
    m = draw(st.integers(min_value=1, max_value=5))
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
    return IncrementLaw.explicit("right", scale * mean, p)


@given(critical_laws(), st.floats(min_value=0.0, max_value=1.0))
@settings(max_examples=100, deadline=None)
def test_random_laws_are_valid_pgfs(law, s):
    val = law.phi(s)
    assert law.q <= val <= 1.0 + 1e-12
    assert abs(law.phi(1.0) - 1.0) <= 1e-12
    assert abs(law.phi_prime(1.0) - 1.0) <= 1e-9
