"""Increment laws of left/right-continuous integer random walks.

A law is either an explicit finite-support p.m.f. (q, p_0..p_N) or a member
of the one-parameter family phi(s) = s + gamma/(1+beta) * (1-s)^(1+beta),
which has a regularly-varying jump tail and infinite variance.  Criticality
(phi'(1) = 1, i.e. zero drift) is enforced at construction.

Every quantity that depends on the family is a method of IncrementLaw,
written once per family here: phi and its derivatives, phi(H) and phi'(H)
on a power series, the cancellation-free gaps D, D', psi and chi of the
rate curve, the closed-form moderate-deviation constants, the jump p.m.f.
that the exact oracles and simulation read, with the jumps a walk of n steps
cannot tell apart lumped, and the jump tails T_j = sum_{n>=j} p_n with
their generating function.  No other module asks which family a law
belongs to.
"""

from __future__ import annotations

import functools
import hashlib
import json
import math
from dataclasses import dataclass
from enum import Enum
from typing import Optional

import numpy as np

from .series import series_compose_val1, series_eval, series_exp, series_log

MASS_TOL = 1e-12
CRITICALITY_TOL = 1e-10
_SMALLEST_NORMAL = np.finfo(float).tiny


class Orientation(str, Enum):
    RIGHT = "right"
    LEFT = "left"


class LawValidationError(ValueError):
    """Raised when a proposed increment law violates its invariants."""


class MdpRegime(str, Enum):
    FINITE_VARIANCE = "FiniteVariance"
    STABLE_FAMILY = "StableFamily"
    NUMERIC_ESTIMATE = "NumericEstimate"


@dataclass(frozen=True)
class IncrementLaw:
    """Critical skip-free increment law.

    For a right-continuous walk the only positive jump is +1 (probability q)
    and downward jumps of size n have probability p_n; a left-continuous walk
    is the mirror image.  Exactly one of (q, p) and (gamma, beta) is set.
    """

    orientation: Orientation
    q: float
    p: Optional[tuple] = None
    gamma: Optional[float] = None
    beta: Optional[float] = None

    # -- constructors ------------------------------------------------------

    @staticmethod
    def explicit(orientation, q, p):
        orientation = Orientation(orientation)
        p = tuple(float(v) for v in p)
        q = float(q)
        if not all(map(math.isfinite, (q, *p))):
            raise LawValidationError("q and every p_n must be finite")
        if q <= 0.0:
            raise LawValidationError("q must be positive")
        if any(v < 0.0 for v in p):
            raise LawValidationError("all p_n must be nonnegative")
        if p and p[0] >= 1.0:
            raise LawValidationError("p_0 must be < 1")
        mass = q + math.fsum(p)
        if abs(mass - 1.0) > MASS_TOL:
            raise LawValidationError(
                f"total mass {mass!r} differs from 1 by more than {MASS_TOL}"
            )
        mean_down = math.fsum(n * v for n, v in enumerate(p))
        if abs(mean_down - q) > CRITICALITY_TOL:
            raise LawValidationError(
                f"law is not critical: sum n*p_n = {mean_down!r} but q = {q!r}"
            )
        return IncrementLaw(orientation, q, p=p)

    @staticmethod
    def stable(orientation, gamma, beta):
        orientation = Orientation(orientation)
        gamma = float(gamma)
        beta = float(beta)
        if not 0.0 < gamma < 1.0:
            raise LawValidationError("gamma must lie in (0,1)")
        if not 0.0 < beta < 1.0:
            raise LawValidationError("beta must lie in (0,1)")
        q = gamma / (1.0 + beta)
        return IncrementLaw(orientation, q, gamma=gamma, beta=beta)

    # -- basic structure ---------------------------------------------------

    @property
    def is_stable(self):
        return self.gamma is not None

    @functools.cached_property
    def sigma2(self):
        """phi''(1) = sum_n (n+1) n p_n; None for the stable family, whose
        variance is infinite."""
        if self.is_stable:
            return None
        return math.fsum((n + 1) * n * v for n, v in enumerate(self.p))

    @property
    def p0(self):
        """Probability of a zero increment."""
        if self.is_stable:
            return 1.0 - self.gamma
        return self.p[0] if self.p else 0.0

    # -- generating function -----------------------------------------------

    def phi(self, s):
        """phi(s) = q + sum_n p_n s^(n+1), the step PGF reparameterization."""
        _check_unit_interval(s)
        if self.is_stable:
            # np.float_power calls the C library's pow, as float ** does, so
            # floats and arrays give the same bits; np.power may not
            e = 1.0 + self.beta
            return s + self.gamma / e * np.float_power(1.0 - s, e)
        return self.q + s * series_eval(self.p, s)

    def phi_prime(self, s):
        _check_unit_interval(s)
        if self.is_stable:
            return 1.0 - self.gamma * np.float_power(1.0 - s, self.beta)
        return series_eval([(n + 1) * v for n, v in enumerate(self.p)], s)

    def phi_second(self, s):
        _check_unit_interval(s)
        if self.is_stable:
            if s == 1.0:
                return math.inf
            return self.gamma * self.beta * (1.0 - s) ** (self.beta - 1.0)
        d2 = [(n + 1) * n * v for n, v in enumerate(self.p)]
        return series_eval(d2[1:], s)

    # -- what the consumers need ---------------------------------------------

    def phi_series(self, h, order, d):
        """phi(H) through s^order and phi'(H) through s^d, d <= order, for
        H = h with h[0] = 0 and len(h) = order + 1.

        An explicit law composes its polynomial with H, and phi' with
        h[:d + 1].  The stable family uses its closed forms in W = 1 - H
        through series log/exp, because composing with its dense coefficient
        expansion is quadratic in both order and support; log W is formed
        once, through s^order.
        """
        if self.is_stable:
            g, b = self.gamma, self.beta
            w = -h.copy()
            w[0] += 1.0  # w = 1 - H
            lw = series_log(w, order)
            # phi(H) = H + (g/(1+b)) * w^(1+b); phi'(H) = 1 - g * w^b
            phi_h = h + (g / (1.0 + b)) * series_exp((1.0 + b) * lw, order)
            phip_h = -g * series_exp(b * lw[: d + 1], d)
            phip_h[0] += 1.0
            return phi_h, phip_h
        a = np.array([self.q, *self.p[: order + 1]])
        ap = a[1:] * np.arange(1, len(a))  # coefficients of phi'
        return (series_compose_val1(a, h, order),
                series_compose_val1(ap, h[: d + 1], d))

    def gap(self, h, w):
        """D = phi(h) - h at h = 1 - w, the first of gaps, alone."""
        if self.is_stable:  # float ** and np.float_power agree, as in phi
            e = 1.0 + self.beta
            if w.__class__ is float:
                return self.gamma / e * w ** e
            return self.gamma / e * np.float_power(w, e)
        return w * w * series_eval(self._coefficients[0], h)

    def gaps(self, h, w):
        """(D, D', psi, chi) at h = 1 - w, without cancellation; floats or
        arrays.

        D = phi(h) - h (gap), D' = 1 - phi'(h) (its derivative in w),
        psi = (phi(h) - q)/h and chi = (phi'(h) - psi)/h = sum_n n p_n h^(n-1),
        which are p_0 and p_1 at h = 0.  On the curve s = h/phi(h),
        1 - s*phi'(h) = (D + h*D')/(D + h).  The stable family has
        D = gamma/(1+beta) * w^(1+beta).  An explicit law has
        D = w^2 sum_j c_j h^j and D' = w sum_j e_j h^j with the nonnegative
        c_j = sum_{k>=j+2} (k-1-j) a_k and e_j = sum_{k>=j+2} k a_k of
        phi(s) = sum_k a_k s^k; that form takes the law as exactly critical,
        so a drift residual within CRITICALITY_TOL is dropped.
        """
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            if self.is_stable:
                g, b, e = self.gamma, self.beta, 1.0 + self.beta
                # log w from h while h < 1/2, where w = 1 - h has rounded
                lw = np.where(h < 0.5, np.log1p(-h), np.log(w))
                psi = np.where(h < _SMALLEST_NORMAL, 1.0 - g,
                               1.0 + g / e * np.expm1(e * lw) / h)
                # chi = g/e * (b*(w^e - 1) - e*(w^b - 1))/h^2 cancels to
                # O(h^2) as h -> 0, so its power series serves below 1/4
                chi = np.where(h < 0.25, series_eval(self._coefficients, h),
                               g / e * (b * np.expm1(e * lw)
                                        - e * np.expm1(b * lw)) / (h * h))
                return (self.gap(h, w), g * np.float_power(w, b), psi, chi)
            _, e, n_p = self._coefficients
            return (self.gap(h, w), w * series_eval(e, h),
                    series_eval(self.p, h), series_eval(n_p, h))

    @functools.cached_property
    def _coefficients(self):
        """Power-series coefficients for gaps, lowest power first: of chi,
        through h^24, for the stable family; else c_j, e_j and n*p_n."""
        if self.is_stable:
            a = expand_coefficients(self, 26).tolist()
            return [n * a[n + 1] for n in range(1, 26)]
        a = np.array((self.q, *self.p))
        # sums over k >= j + 2 of nonnegative terms, as reversed cumsums
        c = np.cumsum(np.cumsum(a[::-1])[:-2])[::-1]
        e = np.cumsum((np.arange(len(a)) * a)[:1:-1])[::-1]
        return (c.tolist(), e.tolist(),
                [n * v for n, v in enumerate(self.p)][1:])

    def mdp_closed_form(self):
        """(alpha, c, regime) with 1 - s*phi'(h(s)) ~ c*(1-s)^alpha as s -> 1.

        alpha = 1/2 and c = sqrt(2)*sigma for finite-variance laws;
        alpha = beta/(1+beta) and c = gamma^(1/(1+beta)) (1+beta)^(beta/(1+beta))
        for the stable family.
        """
        if self.is_stable:
            beta = self.beta
            alpha = beta / (1.0 + beta)
            c = self.gamma ** (1.0 / (1.0 + beta)) * (1.0 + beta) ** (
                beta / (1.0 + beta)
            )
            return alpha, c, MdpRegime.STABLE_FAMILY
        return 0.5, math.sqrt(2.0 * self.sigma2), MdpRegime.FINITE_VARIANCE

    def jump_pmf(self, order):
        """p_n = P(opposite jump of size n), with every jump of size >= order
        lumped at index order, with mass T_order (jump_tails); order >= 1.

        A walk of n <= order steps cannot tell the lumped jumps apart: a
        right-continuous reflected chain falls one level per step, so from
        level order or above it never returns to 0 within the horizon, and a
        left-continuous one rises one level per step, so such a jump always
        lands on 0.  An explicit law lists its whole support.
        """
        if self.is_stable:
            return np.append(expand_coefficients(self, order)[1:],
                             self.jump_tails(order)[order])
        return np.asarray(self.p)

    def jump_tails(self, order):
        """T_j = sum_{n>=j} p_n, the mass of the opposite jumps of size j or
        more, for j = 0..order, each without subtraction.

        An explicit law sums its support from the top; the stable family has
        T_0 = 1 - q and T_j = q |binom(beta, j)| = p_j (j+1)/(1+beta), j >= 1.
        """
        if self.is_stable:
            t = expand_coefficients(self, order + 1)[1:]
            t *= (np.arange(order + 1) + 1.0) / (1.0 + self.beta)
            t[0] = 1.0 - self.q
            return t
        t = np.cumsum(self.p[::-1])[::-1][: order + 1]
        return np.pad(t, (0, order + 1 - len(t)))

    def tail_series(self, h, order):
        """rho(H) = sum_j T_j H^j = (1 - phi(H))/(1 - H) through s^order,
        for H as phi_series takes it.

        An explicit law composes its nonnegative tails with H.  The stable
        family has rho = 1 - q W^beta in W = 1 - H, through series log/exp.
        """
        if self.is_stable:
            w = -h[: order + 1]
            w[0] += 1.0  # w = 1 - H
            rho = -self.q * series_exp(self.beta * series_log(w, order), order)
            rho[0] += 1.0
            return rho
        return series_compose_val1(self.jump_tails(order), h, order)

    # -- serialization -------------------------------------------------------

    def to_dict(self):
        if self.is_stable:
            spec = {"type": "stable", "gamma": self.gamma, "beta": self.beta}
        else:
            spec = {"type": "explicit", "q": self.q, "p": list(self.p)}
        return {"orientation": self.orientation.value, "spec": spec}

    @staticmethod
    def from_dict(d):
        """The law of a to_dict mapping; a missing key, a value of the wrong
        type or an unknown orientation raises LawValidationError."""
        try:
            spec, orientation = d["spec"], Orientation(d["orientation"])
            if spec["type"] == "explicit":
                return IncrementLaw.explicit(orientation, spec["q"], spec["p"])
            if spec["type"] == "stable":
                return IncrementLaw.stable(orientation, spec["gamma"],
                                           spec["beta"])
        except LawValidationError:
            raise
        except (KeyError, TypeError, ValueError) as exc:
            raise LawValidationError(
                f"malformed law: {type(exc).__name__}: {exc}") from exc
        raise LawValidationError(f"unknown law spec type {spec['type']!r}")

    def to_json(self):
        return json.dumps(self.to_dict(), sort_keys=True)

    @staticmethod
    def from_json(text):
        try:
            d = json.loads(text)
        except ValueError as exc:
            raise LawValidationError(f"law is not JSON: {exc}") from exc
        return IncrementLaw.from_dict(d)

    def sha256(self):
        return hashlib.sha256(self.to_json().encode()).hexdigest()


def _check_unit_interval(s):
    if not np.all((0.0 <= s) & (s <= 1.0)):
        raise ValueError(f"s = {s!r} outside [0, 1]")


# -- coefficient expansions ------------------------------------------------

def expand_coefficients(law, order):
    """Coefficients a_0..a_order of phi(s) = sum_k a_k s^k.

    a_0 = q and a_{n+1} = p_n.  The stable family is expanded through the
    binomial series of (1-s)^(1+beta) using the term-ratio recurrence
    (1+beta-k)/(k+1), which stays exact in sign and avoids Gamma-function
    cancellation.
    """
    if order < 1:
        raise ValueError("order must be >= 1")
    if not law.is_stable:
        a = np.zeros(order + 1)
        a[0] = law.q
        m = min(len(law.p), order)
        a[1 : m + 1] = law.p[:m]
        return a
    # (1-s)^(1+beta) = sum_k (-1)^k binom(1+beta, k) s^k; the signed
    # coefficient d_k = (-1)^k binom(1+beta, k) obeys
    # d_{k+1} = d_k * (k - 1 - beta) / (k + 1).
    beta, gamma = law.beta, law.gamma
    k = np.arange(order)
    ratios = (k - 1.0 - beta) / (k + 1.0)
    d = np.empty(order + 1)
    d[0] = 1.0
    d[1:] = np.cumprod(ratios)
    a = gamma / (1.0 + beta) * d
    a[1] += 1.0  # the leading s term of phi
    return a


def truncated_explicit(law, order=10000):
    """Finite-support surrogate of a stable law, exactly critical.

    Keeps p_0..p_{order-1}, then restores total mass and the zero-drift
    constraint by adding mass at the largest retained index and nudging q.
    Returns (explicit law, removed tail mass).  It is a different law: the
    oracles and simulation read jump_pmf, which is exact for the stable law.
    """
    if not law.is_stable:
        return law, 0.0
    a = expand_coefficients(law, order)
    q = float(a[0])
    p = a[1:].copy()
    n_idx = np.arange(len(p))
    mass_deficit = 1.0 - q - float(p.sum())
    mean_deficit = q - float((n_idx * p).sum())
    top = len(p) - 1
    # Solve: dq + x = mass_deficit, top*x - dq = mean_deficit.
    x = (mean_deficit + mass_deficit) / (top + 1.0)
    dq = mass_deficit - x
    p[top] += x
    return (
        IncrementLaw.explicit(law.orientation, q + dq, p),
        mass_deficit,
    )
