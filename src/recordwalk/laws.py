"""Increment laws of left/right-continuous integer random walks.

A law is either an explicit finite-support p.m.f. (q, p_0..p_N) or a member
of the one-parameter family phi(s) = s + gamma/(1+beta) * (1-s)^(1+beta),
which has a regularly-varying jump tail and infinite variance.  Both carry
the step generating function phi and its derivatives.  Criticality
(phi'(1) = 1, i.e. zero drift) is enforced at construction.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass
from enum import Enum
from typing import Optional

import numpy as np

MASS_TOL = 1e-12
CRITICALITY_TOL = 1e-10


class Orientation(str, Enum):
    RIGHT = "right"
    LEFT = "left"


class LawValidationError(ValueError):
    """Raised when a proposed increment law violates its invariants."""


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
    sigma2: Optional[float] = None

    # -- constructors ------------------------------------------------------

    @staticmethod
    def explicit(orientation, q, p):
        orientation = Orientation(orientation)
        p = tuple(float(v) for v in p)
        q = float(q)
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
        sigma2 = math.fsum((n + 1) * n * v for n, v in enumerate(p))
        return IncrementLaw(orientation, q, p=p, sigma2=sigma2)

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

    @property
    def p0(self):
        """Probability of a zero increment."""
        if self.is_stable:
            return 1.0 - self.gamma
        return self.p[0] if self.p else 0.0

    # -- generating function -----------------------------------------------

    def phi(self, s):
        """phi(s) = q + sum_n p_n s^(n+1), the step PGF reparameterization."""
        if self.is_stable:
            # A float is range-tested inline.  Anything else, one-element
            # arrays included, takes the full check and np.float_power,
            # which calls the C library's pow as float ** does; np.power may
            # run a vectorised pow that differs in the last bit, and arrays
            # must give the same bits as floats.
            c, e = self.gamma / (1.0 + self.beta), 1.0 + self.beta
            if s.__class__ is float and 0.0 <= s <= 1.0:
                return s + c * (1.0 - s) ** e
            _check_unit_interval(s)
            return s + c * np.float_power(1.0 - s, e)
        _check_unit_interval(s)
        # Horner on q + s*(p_0 + s*(p_1 + ...))
        acc = 0.0
        for v in reversed(self.p):
            acc = v + s * acc
        return self.q + s * acc

    def phi_prime(self, s):
        if self.is_stable:  # dispatched as in phi
            if s.__class__ is float and 0.0 <= s <= 1.0:
                return 1.0 - self.gamma * (1.0 - s) ** self.beta
            _check_unit_interval(s)
            return 1.0 - self.gamma * np.float_power(1.0 - s, self.beta)
        _check_unit_interval(s)
        acc = 0.0
        for n in range(len(self.p) - 1, -1, -1):
            acc = (n + 1) * self.p[n] + s * acc
        return acc

    def phi_second(self, s):
        _check_unit_interval(s)
        if self.is_stable:
            if s == 1.0:
                return math.inf
            return self.gamma * self.beta * (1.0 - s) ** (self.beta - 1.0)
        acc = 0.0
        for n in range(len(self.p) - 1, 0, -1):
            acc = (n + 1) * n * self.p[n] + s * acc
        return acc

    # -- serialization -------------------------------------------------------

    def to_dict(self):
        if self.is_stable:
            spec = {"type": "stable", "gamma": self.gamma, "beta": self.beta}
        else:
            spec = {"type": "explicit", "q": self.q, "p": list(self.p)}
        return {"orientation": self.orientation.value, "spec": spec}

    @staticmethod
    def from_dict(d):
        spec = d["spec"]
        if spec["type"] == "explicit":
            return IncrementLaw.explicit(d["orientation"], spec["q"], spec["p"])
        if spec["type"] == "stable":
            return IncrementLaw.stable(d["orientation"], spec["gamma"], spec["beta"])
        raise LawValidationError(f"unknown law spec type {spec['type']!r}")

    def to_json(self):
        return json.dumps(self.to_dict(), sort_keys=True)

    @staticmethod
    def from_json(text):
        return IncrementLaw.from_dict(json.loads(text))

    def sha256(self):
        return hashlib.sha256(self.to_json().encode()).hexdigest()


def _check_unit_interval(s):
    # The float comparison comes first, as a branch condition: phi runs
    # millions of times on scalars, and a type test or a stored comparison
    # result ahead of it costs every one of those calls.
    try:
        if 0.0 <= s <= 1.0:
            return
    except ValueError:  # numpy refuses the truth value of an array
        if np.all((0.0 <= s) & (s <= 1.0)):
            return
    raise ValueError(f"s = {s!r} outside [0, 1]")


# -- module-level operation surface ----------------------------------------

def phi_eval(law, s):
    """Evaluate phi(s) for s in [0, 1]."""
    return law.phi(s)


def phi_deriv(law, s, order=1):
    """First or second derivative of phi at s in [0, 1]."""
    if order == 1:
        return law.phi_prime(s)
    if order == 2:
        return law.phi_second(s)
    raise ValueError("order must be 1 or 2")


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
    Returns (explicit law, removed tail mass).
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
