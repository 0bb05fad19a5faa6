"""Increment laws of left/right-continuous integer random walks.

A law is either an explicit finite-support p.m.f. (q, p_0..p_N) or a member
of the one-parameter family phi(s) = s + gamma/(1+beta) * (1-s)^(1+beta),
which has a regularly-varying jump tail and infinite variance.  Criticality
(phi'(1) = 1, i.e. zero drift) is enforced at construction.

Every quantity that depends on the family is a method of IncrementLaw,
written once per family here: phi and its derivatives, phi(h) as running
series that h_series advances a block of coefficients at a time (an
explicit law's plan of products of powers of h, or the stable family's
W^(1+beta) by Miller's recurrence), the cancellation-free gaps D, D', psi
and chi of the rate curve, the closed-form moderate-deviation constants,
the jump p.m.f. that the exact oracles and simulation read, with the jumps
a walk of n steps cannot tell apart lumped, the jump tails
T_j = sum_{n>=j} p_n with their generating function, and the return-time
series f0 of h.  No other module asks which family a law belongs to.
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

from .series import (CONV_SLICE, _low_product, _middle_product,
                     series_compose_val1, series_eval, series_exp, series_log,
                     series_reciprocal)

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
        if not any(p[1:]):
            raise LawValidationError(
                "law is not critical: it needs some p_n > 0 with n >= 1")
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
        """phi(s) = q + sum_n p_n s^(n+1), the step PGF reparameterization,
        at a float s in [0, 1]."""
        _check_unit_interval(s)
        if self.is_stable:
            e = 1.0 + self.beta
            return s + self.gamma / e * (1.0 - s) ** e
        return self.q + s * series_eval(self.p, s)

    def phi_prime(self, s):
        _check_unit_interval(s)
        if self.is_stable:
            return 1.0 - self.gamma * (1.0 - s) ** self.beta
        return series_eval([(n + 1) * v for n, v in enumerate(self.p)], s)

    def phi_second(self, s):
        _check_unit_interval(s)
        if self.is_stable:  # inf at s = 1
            return (math.inf if s == 1.0 else
                    self.gamma * self.beta * (1.0 - s) ** (self.beta - 1.0))
        d2 = [(n + 1) * n * v for n, v in enumerate(self.p)]
        return series_eval(d2[1:], s)

    # -- what the consumers need ---------------------------------------------

    def running_phi(self, h, block):
        """phi(h) as running series on the coefficient array h, whose first
        block h[:block] is final: the family's half of h_series's block
        step (see _ExplicitPhi and _StablePhi).

        The object's phi_prime is phi'(h) through s^(block - 2); its
        window(c), for a block start c >= block with h final through
        s^(c - 1), returns R with R_0 = [s^(c-1)] phi(h) and
        R_i = [s^(c+i-1)] phi(h_c), h_c = h[:c], through the end of h or of
        the block; its advance(c, x) stores h's block x = h[c:c+len(x)]
        and, unless it is the last, the running series' blocks that x
        implies.
        """
        if self.is_stable:
            return _StablePhi(self, h, block)
        return _ExplicitPhi(np.array([self.q, *self.p]), h, block)

    def gap_over_w(self, h, w):
        """D/w = w * sum_j c_j h^j, or gamma/(1+beta) * w^beta, at h = 1 - w,
        the first of gaps, alone: the gap D = phi(h) - h over w, which stays
        in the normal range where D, of order w^2 or w^(1+beta), has
        underflowed.  Callers form D as w * (D/w)."""
        if self.is_stable:  # C pow on floats and arrays; np.power may differ
            if w.__class__ is float:
                return self.gamma / (1.0 + self.beta) * w ** self.beta
            return self.gamma / (1.0 + self.beta) * np.float_power(w, self.beta)
        return w * series_eval(self._coefficients[0], h)

    def gaps(self, h, w):
        """(D/w, D', psi, chi) at floats h and w = 1 - h, without
        cancellation.

        D = phi(h) - h (the gap, as gap_over_w reports it), D' = 1 - phi'(h)
        (its derivative in w), psi = (phi(h) - q)/h and
        chi = (phi'(h) - psi)/h = sum_n n p_n h^(n-1), which are p_0 and p_1
        at h = 0.  On the curve s = h/phi(h),
        1 - s*phi'(h) = (D + h*D')/(D + h).  The stable family has
        D = gamma/(1+beta) * w^(1+beta).  An explicit law has
        D = w^2 sum_j c_j h^j and D' = w sum_j e_j h^j with the nonnegative
        c_j = sum_{k>=j+2} (k-1-j) a_k and e_j = sum_{k>=j+2} k a_k of
        phi(s) = sum_k a_k s^k; that form takes the law as exactly critical,
        so a drift residual within CRITICALITY_TOL is dropped.  The stable
        family's formulas run on math, each branch evaluated only on its
        own side.
        """
        if not self.is_stable:
            _, e, n_p = self._coefficients
            return (self.gap_over_w(h, w), w * series_eval(e, h),
                    series_eval(self.p, h), series_eval(n_p, h))
        g, b, e = self.gamma, self.beta, 1.0 + self.beta
        # chi = g/e * (b*(w^e - 1) - e*(w^b - 1))/h^2 cancels to O(h^2) as
        # h -> 0, so its power series serves below 1/4; log w is taken from
        # h while h < 1/2, where w = 1 - h has rounded, and is -inf at w = 0
        lw = (math.log1p(-h) if h < 0.5
              else math.log(w) if w > 0.0 else -math.inf)
        psi = (1.0 - g if h < _SMALLEST_NORMAL
               else 1.0 + g / e * math.expm1(e * lw) / h)
        chi = (series_eval(self._coefficients, h) if h < 0.25
               else g / e * (b * math.expm1(e * lw)
                             - e * math.expm1(b * lw)) / (h * h))
        return self.gap_over_w(h, w), g * w ** b, psi, chi

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
        for a series H with H[0] = 0 of at least order + 1 terms.

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

    def f0_of_h(self, h, order):
        """f0(s) = E[s^tau] through s^order, tau the return time of the
        reflected chain to 0, from the coefficients h of h(s) through
        s^(order + 1).

        A first step from 0 either stays at the maximum or leaves it by j
        levels, and then returns after j descending passages, so
        f0 = s*sum_j c_j h^j with the nonnegative c = (q + p_0, p_1, ...)
        on the right and the jump tails c_j = T_j on the left (tail_series):
        a composition with no subtraction.  The stable right law, whose c
        has no end, keeps f0 = 1 + q s - q s/h, one series reciprocal.
        """
        f0 = np.zeros(order + 1)  # tau >= 1
        if self.orientation is Orientation.LEFT:
            f0[1:] = self.tail_series(h[:order], order - 1)
        elif self.is_stable:
            r = series_reciprocal(h[1:], order)  # s/h; h/s has constant term q
            f0[1:] = -self.q * r[1:]
            f0[1] += self.q
        else:
            c = np.array(self.p)
            c[0] += self.q
            f0[1:] = series_compose_val1(c, h[:order], order - 1)
        return f0

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
    if not 0.0 <= s <= 1.0:
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


# -- phi(h) as running series, one block of coefficients at a time ---------

def _cross(a, b, c, width):
    """[s^(c+i)] of a[1:c] * b[1:c], i = 0..width - 1, for arrays a and b
    whose entries from s^c on are still zero: one middle product with the
    known prefix of b.

    A square (a is b) past 2*CONV_SLICE terms, where that is faster, takes
    each pair of terms once: a[k] for k below half = ceil(c/2) pairs only
    with a[c+i-k] at or above half, twice, and the pairs within
    a[half:c] are a product of its first block with itself."""
    if a is not b or c < 2 * CONV_SLICE:
        return _middle_product(a[1 : c + width - 1], b[1:c])
    half = (c + 1) // 2
    out = 2.0 * _middle_product(a[c - half + 1 : c + width - 1], a[1:half])
    seg = a[half : half + width]
    out[2 * half - c :] += _low_product(seg, seg)[: width + c - 2 * half]
    return out


def _ps_nodes(a):
    """series_compose_val1's Paterson-Stockmeyer plan for sum_k a_k h^k as
    nodes (see _ExplicitPhi): the baby powers h^2..h^k, k = isqrt(len(a)),
    the last the giant step, then the Horner accumulators over the rows of
    a in h^k, the last of which is phi(h)."""
    k = math.isqrt(len(a))
    rows = np.concatenate([a, np.zeros(-len(a) % k)]).reshape(-1, k)
    # h^j is node j - 1, so h^k, the giant step, is node k - 1
    nodes = [(0.0, (), None)] + [(0.0, (), (j - 2, 0))
                                 for j in range(2, k + 1)]
    acc, scale = None, 0.0  # the accumulator: a node, or the constant
    for row in rows[::-1]:
        lin = [(v, j - 1) for j, v in enumerate(row) if j and v]
        if acc is None and scale:
            lin.append((scale, k - 1))
        if acc is None and not lin:
            scale = row[0]
            continue
        nodes.append((row[0], tuple(lin),
                      None if acc is None else (acc, k - 1)))
        acc = len(nodes) - 1
    return nodes


def _power_nodes(a):
    """sum_k a_k h^k from h^2, h^4, ..., each the square of the last, and
    each power of h in a's support a product of those, high bits first:
    far fewer products than _ps_nodes when the support is sparse."""
    nodes, node = [(0.0, (), None)], {1: 0}  # node of each power of h
    support, j = np.flatnonzero(a[1:]) + 1, 1
    while 2 * j <= support[-1]:
        nodes.append((0.0, (), (node[j], node[j])))
        node[2 * j] = len(nodes) - 1
        j *= 2
    for e in support:
        done = 0
        for bit in reversed(range(int(e).bit_length())):
            if e >> bit & 1:
                if done and done + (1 << bit) not in node:
                    nodes.append((0.0, (), (node[done], node[1 << bit])))
                    node[done + (1 << bit)] = len(nodes) - 1
                done += 1 << bit
    nodes.append((a[0], tuple((a[e], node[e]) for e in support), None))
    return nodes


class _ExplicitPhi:
    """phi(h) = sum_k a_k h^k on a plan of products, each node a running
    series: _ps_nodes, or _power_nodes where it makes fewer products (a
    sparse support, or degree 2).

    Node 0 is h and the last node phi(h).  A node is
    const + sum coef*node (+ node_p*node_q), every coefficient nonnegative,
    and keeps an array of h's length, final through the blocks stored.
    With every node final below c, a product node's window, its block of
    the nodes evaluated at h_c = h[:c], is _cross of the operands'
    prefixes plus p_low*W_q + q_low*W_p, products with the operands' first
    blocks and windows (W_h = 0).  Each node's block is then W + D*X for
    h's block X, with D the node's derivative in h through the block,
    formed once, the last one phi'(h): one B-term product for every node.
    That is one middle product and at most three B-term products a product
    node a block: about 2*sqrt(deg phi) product nodes on the
    Paterson-Stockmeyer plan, and 8 for the sparse degree 51 of
    0.5 + 0.49 h + 0.01 h^51.
    """

    def __init__(self, a, h, block):
        a = a[: np.flatnonzero(a)[-1] + 1]
        nodes = min(_power_nodes(a), _ps_nodes(a),
                    key=lambda nodes: sum(1 for *_, p in nodes if p))
        self.h, self.block, self.nodes = h, block, nodes
        self.series = [h] + [np.zeros(len(h)) for _ in nodes[1:]]
        self.low = [s[:block] for s in self.series]  # the first blocks
        for (c0, lin, prod), v in zip(nodes[1:], self.low[1:]):
            if prod:
                p, q = prod
                v[:] = np.convolve(self.low[p], self.low[q])[:block]
            for coef, j in lin:
                v += coef * self.low[j]
            v[0] += c0
        self.one = np.zeros(block)
        self.one[0] = 1.0
        if len(h) > 2 * block:  # some block is not the last
            self.deriv = np.array(self._linear(self.one, {})[1:])
        self.phi_prime = series_compose_val1(
            a[1:] * np.arange(1, len(a)), h[: block - 1], block - 2)

    def _linear(self, x, cross):
        """Each node's linear response to h's block x (None: zero) through
        the block, plus its cross terms; at x = self.one, the series 1,
        that is the node's derivative in h."""
        out = [x]
        for i, (_, lin, prod) in enumerate(self.nodes[1:], 1):
            v = cross.get(i)
            if prod:  # a square's two terms are one, doubled
                p, q = prod
                for j, k in ((p, q), (q, p))[: 1 + (p != q)]:
                    f, g = self.low[j], out[k]
                    if g is not None:
                        part = f if g is self.one else _low_product(f, g)
                        part = 2.0 * part if p == q else part
                        v = part if v is None else v + part
            for coef, j in lin:
                if out[j] is not None:
                    v = coef * out[j] if v is None else v + coef * out[j]
            out.append(v)
        return out

    def window(self, c):
        s = self.series
        b = min(self.block, len(self.h) - c)
        self.w = self._linear(None, {
            i: _cross(s[prod[0]], s[prod[1]], c, b)
            for i, (_, _, prod) in enumerate(self.nodes) if prod})
        r = np.empty(b)
        r[0] = s[-1][c - 1]
        r[1:] = self.w[-1][: b - 1]
        return r

    def advance(self, c, x):
        b = len(x)
        self.h[c : c + b] = x
        if c + b < len(self.h):
            for s, w, d in zip(self.series[1:], self.w[1:], self.deriv):
                v = _low_product(d, x)
                s[c : c + b] = v if w is None else w + v


class _StablePhi:
    """phi(h) = h + q*W^(1+beta), W = 1 - h, as one running series
    P = W^(1+beta), by J.C.P. Miller's recurrence (Knuth, TAOCP vol. 2,
    4.7): m P_m = sum_{j=1..m} ((2+beta) j - m) w_j P_(m-j).

    The first blocks of P, V = W^beta and U = W^-(2+beta) come from the
    recurrence itself, one step a coefficient, U's from terms of one sign.
    For a block at c >= B, the terms with j <= i of the recurrence at
    s^(c+i) hold the block's own unknowns: with h_c = h[:c], the history
    H_i, the terms with i < j < c, is two middle products against P's
    prefix (((2+beta) j - c) w_j, and w_j times i), and the rest is solved
    as series_exp solves its blocks: W_c^(1+beta) through the block (the
    window) is P_low * ((H*U)_i / (c+i)).  h's block X adds -(1+beta)*(V*X) to it, the
    first-order term of W^(1+beta) in h: two middle products and four
    B-term products a block.
    """

    def __init__(self, law, h, block):
        B = block
        self.h, self.block, self.q, self.e = h, block, law.q, 1.0 + law.beta
        self.P = np.zeros(len(h))
        # rows B-1-m of c: P_m, V_m and U_m, so that the recurrence reads
        # the earlier rows forwards; w_j = -h_j
        e1 = np.array([self.e, law.beta, -1.0 - self.e]) + 1.0
        c = np.zeros((B, 3))
        c[-1] = 1.0
        hs = np.stack([np.arange(B) * h[:B], h[:B]])
        for m in range(1, B):
            s1, s0 = hs[:, 1 : m + 1] @ c[B - m :]
            c[B - 1 - m] = s0 - e1 / m * s1
        self.P[:B], self.V, self.U = c[::-1].T
        self.phi_prime = -law.gamma * self.V[: B - 1]  # 1 - gamma*W^beta
        self.phi_prime[0] += 1.0

    def window(self, c):
        h, P = self.h, self.P
        b = min(self.block, len(h) - c)
        i = np.arange(b, dtype=float)
        u = (c - (1.0 + self.e) * np.arange(c)) * h[:c]  # ((2+b) j - c) w_j
        hist = _cross(P, u, c, b) + i * _cross(P, h, c, b)
        self.y = _low_product(P[: self.block],
                              _low_product(self.U, hist) / (c + i))
        r = np.empty(b)
        r[0] = h[c - 1] + self.q * P[c - 1]
        r[1:] = self.q * self.y[: b - 1]
        return r

    def advance(self, c, x):
        b = len(x)
        self.h[c : c + b] = x
        if c + b < len(self.h):
            self.P[c : c + b] = self.y - self.e * _low_product(self.V, x)


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
