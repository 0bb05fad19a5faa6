"""What the test modules share: the test laws, the bundled-law names and
loader, the in-process CLI runner and CSV parser, the bundled laws in
mpmath, and the series references, some in more than one dtype.

The test laws are built by the factories, not read from the bundled files
they equal, so a test of either route compares it against the other.
"""

import contextlib
import functools
import io
import json
from importlib import resources

import mpmath
import numpy as np

from recordwalk import (IncrementLaw, Orientation, bundled_law_path,
                        expand_coefficients)
from recordwalk.cli import main

SYM = IncrementLaw.explicit("right", 0.5, [0.0, 0.5])
SYM_LEFT = IncrementLaw.explicit("left", 0.5, [0.0, 0.5])
ASYM = IncrementLaw.explicit("right", 0.4, [0.35, 0.1, 0.15])
ASYM_LEFT = IncrementLaw.explicit("left", 0.4, [0.35, 0.1, 0.15])
STABLE = IncrementLaw.stable("right", 0.5, 0.5)
STABLE_LEFT = IncrementLaw.stable("left", 0.5, 0.5)

# the five bundled laws; a test parametrized by it has ids law0..law4
ALL_LAWS = [SYM, SYM_LEFT, ASYM, STABLE, STABLE_LEFT]

# laws at the edges of the parameter space, each both ways: the stable
# family at gamma in {0.02, 0.98} and beta in {0.03, 0.97}; a lazy law; a
# long jump of 50 levels; a jump of 9 levels taken with probability 0.1
STABLE_EDGE_LAWS = [IncrementLaw.stable(side, gamma, beta)
                    for side in ("right", "left") for gamma in (0.02, 0.98)
                    for beta in (0.03, 0.97)]
LAZY, LAZY_LEFT = (IncrementLaw.explicit(side, 0.01, [0.98, 0.01])
                   for side in ("right", "left"))
LONG_JUMP, LONG_JUMP_LEFT = (
    IncrementLaw.explicit(side, 0.5, [0.49] + [0.0] * 49 + [0.01])
    for side in ("right", "left"))
JUMP_9, JUMP_9_LEFT = (IncrementLaw.explicit(side, 0.9, [0.0] * 9 + [0.1])
                       for side in ("right", "left"))
EDGE_LAWS = [*STABLE_EDGE_LAWS, LAZY, LAZY_LEFT, LONG_JUMP, LONG_JUMP_LEFT,
             JUMP_9, JUMP_9_LEFT]

BUNDLED_LAWS = sorted(
    f.name for f in resources.files("recordwalk.data").iterdir()
    if f.name.endswith(".json")
)


def bundled_law(name):
    """The bundled law file `name`, e.g. 'sym.json', loaded afresh."""
    return IncrementLaw.from_json(bundled_law_path(name).read_text())


def run_cli(*argv):
    """(exit code, stdout, stderr) of cli.main run in this process."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


def parse_csv(text):
    """(meta lines, column names, rows of fields) of a CSV output."""
    lines = text.strip().splitlines()
    meta = [l for l in lines if l.startswith("#")]
    body = [l for l in lines if not l.startswith("#")]
    header = body[0].split(",")
    rows = [l.split(",") for l in body[1:]]
    return meta, header, rows


class MpLaw:
    """q, phi and phi' of a bundled law in mpmath, from the decimal
    coefficients of its file, each formed at the working precision of the
    call, so that a caller at 900 digits gets a law exact to 900 digits."""

    def __init__(self, name):
        doc = json.loads(bundled_law_path(name).read_text())
        self.spec = doc["spec"]
        self.right = doc["orientation"] == "right"
        self.stable = self.spec["type"] == "stable"

    def _mpf(self, key):
        return mpmath.mpf(repr(self.spec[key]))

    def _p(self):
        return [mpmath.mpf(repr(v)) for v in self.spec["p"]]

    @property
    def q(self):
        if self.stable:
            return self._mpf("gamma") / (1 + self._mpf("beta"))
        return self._mpf("q")

    def phi(self, s):
        if self.stable:
            return s + self.q * (1 - s) ** (1 + self._mpf("beta"))
        return self.q + sum(v * s ** (n + 1) for n, v in enumerate(self._p()))

    def dphi(self, s):
        if self.stable:
            return 1 - self._mpf("gamma") * (1 - s) ** self._mpf("beta")
        return sum((n + 1) * v * s ** n for n, v in enumerate(self._p()))


def reciprocal_reference(f, order, dtype=float):
    """Newton doubling R <- R(2 - F R) with both products formed in full,
    in the given dtype."""
    f = np.asarray(f, dtype=dtype)[: order + 1]
    r = np.array([1 / f[0]])
    m = 1
    while m <= order:
        m = min(2 * m, order + 1)
        corr = -np.convolve(f[:m], r)[:m]
        corr[0] += 2
        r = np.convolve(r, corr)[:m]
    return np.concatenate([r, np.zeros(order + 1 - len(r), dtype)])


def compose_reference(outer, inner, order):
    """sum_j outer[j] * inner^j through s^order, one convolution per outer
    coefficient: the plain definition, with no plan of products."""
    inner = np.asarray(inner, dtype=float)[: order + 1]
    outer = np.asarray(outer, dtype=float)[: order + 1]
    nz = np.nonzero(outer)[0]
    outer = outer[: nz[-1] + 1] if nz.size else outer[:1]
    out = np.zeros(order + 1)
    out[0] = outer[0]
    power = np.array([1.0])
    for j in range(1, len(outer)):
        power = np.convolve(power, inner)[: order + 1]
        if outer[j] != 0.0:
            out[: len(power)] += outer[j] * power
    return out


def exp_reference(a, order, dtype=float):
    """e_m = (1/m) sum_{j=1..m} j a_j e_{m-j}, reading e backwards, one
    dot per coefficient in the given dtype."""
    apad = np.zeros(order + 1, dtype)
    apad[: min(len(a), order + 1)] = a[: order + 1]
    ja = np.arange(order + 1) * apad
    e = np.zeros(order + 1, dtype)
    e[0] = 1
    for m in range(1, order + 1):
        e[m] = np.dot(ja[1 : m + 1], e[m - 1 :: -1][:m]) / m
    return e


def hitting_time_returns(law, n):
    """P(tau = m), m = 0..n, for the return time tau to 0 of the reflected
    chain, by the hitting-time theorem (Kemperman, 1961):
    [s^N] h^j = (j/N) [x^(N-j)] phi^N.  With f0 = s*(c_0 + sum_j c_j h^j),
    c = (q + p_0, p_1, ...) on the right and the jump tails (T_0, T_1, ...)
    on the left, P(tau = 1) = c_0 and, for m >= 2,
    P(tau = m) = (1/(m-1)) sum_{j>=1} j c_j [x^(m-1-j)] phi^(m-1).
    Each power of phi is the last one times phi, one step of the free walk,
    convolved with phi's coefficients through its last nonzero one only;
    every term is nonnegative."""
    a = expand_coefficients(law, n)
    if law.orientation is Orientation.RIGHT:
        c = a[1:].copy()
        c[0] += a[0]
    else:
        c = law.jump_tails(n - 1)
    jc = np.arange(n) * c
    phi = a[: np.flatnonzero(a)[-1] + 1]
    f = np.zeros(n + 1)
    f[1] = c[0]
    power = np.ones(1)
    for m in range(2, n + 1):
        power = np.convolve(power, phi)[: n - 1]  # phi^(m-1) through x^(n-2)
        f[m] = np.dot(jc[1:m], power[m - 2 :: -1]) / (m - 1)
    return f


def h_reference(law, order):
    """Coefficients of h through s^order in long double, one at a time from
    those below: h_m = sum_k a_k [s^(m-1)] h^k for an explicit law, every
    term nonnegative, with the powers of h carried along; for the stable
    family h_m = h_(m-1) + q P_(m-1), P = W^(1+beta) by Miller's
    recurrence m P_m = sum_{j=1..m} ((2+beta) j - m) w_j P_(m-j), W = 1 - h.
    h does not depend on the orientation."""
    return _h_reference(law.q, law.p, law.gamma, law.beta, order).copy()


@functools.cache
def _h_reference(q, p, gamma, beta, order):
    ld = np.longdouble
    h = np.zeros(order + 1, ld)
    if gamma is not None:
        q, e = ld(gamma) / (1 + ld(beta)), 2 + ld(beta)
        w, pw = np.zeros(order + 1, ld), np.zeros(order + 1, ld)
        w[0] = pw[0] = 1
        jw = np.zeros(order + 1, ld)
        for m in range(1, order + 1):
            h[m] = h[m - 1] + q * pw[m - 1]
            w[m], jw[m] = -h[m], -m * h[m]
            pw[m] = (e * np.dot(jw[1 : m + 1], pw[m - 1 :: -1])
                     - m * np.dot(w[1 : m + 1], pw[m - 1 :: -1])) / m
        return h
    a = np.array([q, *p], ld)
    a = a[: min(np.flatnonzero(a)[-1] + 1, order + 1)]
    powers = np.zeros((len(a), order + 1), ld)  # row k: h^k
    powers[0, 0] = 1
    for m in range(1, order + 1):
        if m >= 2 and len(a) > 2:  # [s^(m-1)] h^k from h^(k-1) below it
            powers[2:, m - 1] = powers[1:-1, m - 2 :: -1] @ h[1:m]
        powers[1, m - 1] = h[m - 1]
        h[m] = a @ powers[:, m - 1]
    return h


def f0_reference(law, order):
    """Coefficients of f0 = s*sum_j c_j h^j through s^order in long double,
    for an explicit law, c = (q + p_0, p_1, ...) on the right and the jump
    tails T_j, summed from the top, on the left, from h_reference: Horner
    in h, each step a full product truncated at s^(order - 1), every term
    nonnegative."""
    ld = np.longdouble
    if law.orientation is Orientation.RIGHT:
        c = np.array(law.p, ld)
        c[0] += ld(law.q)
    else:
        c = np.cumsum(np.array(law.p, ld)[::-1])[::-1]
    c = c[: min(np.flatnonzero(c)[-1] + 1, order)]
    h = h_reference(law, order - 1).astype(ld)
    acc = np.array([c[-1]], ld)
    for cj in c[-2::-1]:
        acc = np.convolve(acc, h)[:order]
        acc[0] += cj
    f0 = np.zeros(order + 1, ld)
    f0[1 : len(acc) + 1] = acc
    return f0


def random_laws(seed, count):
    """count critical laws drawn by numpy.random.default_rng(seed): the
    same laws on every run, where a hypothesis search would pick its own.

    Each law is stable with probability 1/5, gamma and beta uniform in
    (0.01, 0.99).  Otherwise it is explicit:
    - a support size N uniform in 1..59;
    - weights r_0..r_N of one of three kinds, each with probability 1/3:
      uniform(0, 1), uniform(0, 1) times a Bernoulli(0.2) mask, or
      geometric rho^n with rho uniform(0, 1);
    - r_N = 1 if r_1..r_N are all 0;
    - with probability 0.3, each weight times 10^uniform(-3, 0);
    - p_n = r_n/T and q = sum n r_n/T, T = sum r_n + sum n r_n, so that
      sum n p_n = q: critical by construction.
    Either family is oriented right or left with probability 1/2.
    """
    rng = np.random.default_rng(seed)
    laws = []
    for _ in range(count):
        side = ("right", "left")[rng.integers(2)]
        if rng.random() < 0.2:
            laws.append(IncrementLaw.stable(side, *rng.uniform(0.01, 0.99, 2)))
            continue
        n = np.arange(rng.integers(1, 60) + 1)
        kind = rng.integers(3)
        if kind == 2:
            r = rng.random() ** n
        else:
            r = rng.random(len(n)) * (rng.random(len(n)) < 0.2 if kind else 1)
        if not r[1:].any():
            r[-1] = 1.0
        if rng.random() < 0.3:
            r *= 10.0 ** rng.uniform(-3.0, 0.0, len(n))
        total = r.sum() + (n * r).sum()
        laws.append(IncrementLaw.explicit(side, (n * r).sum() / total,
                                          r / total))
    return laws
