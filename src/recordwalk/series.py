"""Truncated power-series arithmetic on float coefficient arrays.

All functions operate on 1-D numpy arrays where index n holds the
coefficient of s^n, truncated at a common order.  Every product is a direct
np.convolve, never an FFT, so products of nonnegative series keep relative
accuracy.  Reciprocals use Newton doubling (R <- R(2 - F R)), exact through
the truncation order after ceil(log2(order+1)) steps; log W integrates
W'/W through one reciprocal; composition is Paterson-Stockmeyer.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np


@dataclass(frozen=True)
class SeriesPoly:
    """Truncated formal power series sum_n coeffs[n] * s^n."""

    coeffs: np.ndarray = field(repr=False)

    def __post_init__(self):
        c = np.asarray(self.coeffs, dtype=float)
        if c.ndim != 1 or c.size == 0:
            raise ValueError("coeffs must be a nonempty 1-D array")
        if not np.all(np.isfinite(c)):
            raise ValueError("coefficients must be finite")
        object.__setattr__(self, "coeffs", c)

    @property
    def order(self):
        return len(self.coeffs) - 1

    def __call__(self, s):
        return series_eval(self.coeffs, s)

    def __len__(self):
        return len(self.coeffs)

    def __getitem__(self, n):
        return float(self.coeffs[n])


def series_eval(coeffs, s):
    """Horner evaluation of the truncated series at s, a float or an
    array."""
    acc = 0.0
    for c in coeffs[::-1]:
        acc = c + s * acc
    return acc


def series_mul(a, b, order):
    """Product truncated at the given order."""
    return np.convolve(a[: order + 1], b[: order + 1])[: order + 1]


def series_reciprocal(f, order):
    """Series inverse of f with f[0] != 0, truncated at the given order."""
    f = np.asarray(f, dtype=float)[: order + 1]
    if f[0] == 0.0:
        raise ZeroDivisionError("series has zero constant term")
    r = np.array([1.0 / f[0]])
    m = 1
    while m <= order:
        m = min(2 * m, order + 1)
        fr = np.convolve(f[:m], r)[:m]
        # r <- r*(2 - f*r)
        corr = -fr
        corr[0] += 2.0
        r = np.convolve(r, corr)[:m]
    out = np.zeros(order + 1)
    out[: len(r)] = r
    return out


def series_log(w, order):
    """log of a series with constant term 1 (zero constant term result):
    the integral of W'/W, from one reciprocal and one product through
    order - 1."""
    w = np.asarray(w, dtype=float)[: order + 1]
    if w[0] != 1.0:
        raise ValueError("series must have constant term 1")
    l = np.zeros(order + 1)
    if order > 0:
        dw = np.zeros(order)  # W' = sum_m m w_m s^(m-1)
        dw[: len(w) - 1] = np.arange(1, len(w)) * w[1:]
        l[1:] = series_mul(dw, series_reciprocal(w, order - 1), order - 1)
        l[1:] /= np.arange(1, order + 1)
    return l


def series_exp(a, order):
    """exp of a series with zero constant term.

    e_m = (1/m) * sum_{j=1..m} j a_j e_{m-j}.
    """
    a = np.asarray(a, dtype=float)[: order + 1]
    if a[0] != 0.0:
        raise ValueError("series must have zero constant term")
    apad = np.zeros(order + 1)
    apad[: len(a)] = a
    e = np.zeros(order + 1)
    e[0] = 1.0
    ja = np.arange(order + 1) * apad
    for m in range(1, order + 1):
        e[m] = np.dot(ja[1 : m + 1], e[m - 1 :: -1][: m]) / m
    return e


def series_compose_val1(outer, inner, order):
    """Compose sum_j outer[j] * inner^j where inner has zero constant term.

    Because inner has valuation >= 1, inner^j vanishes beyond order j, so
    only outer coefficients up to the truncation order contribute.

    Paterson-Stockmeyer, about 2*sqrt(len(outer)) convolutions: one matrix
    product of the outer coefficients in blocks of k = isqrt(len(outer)) by
    the baby powers inner^0..inner^(k-1), then Horner in inner^k over the
    blocks.  For nonnegative outer and inner every intermediate is a sum of
    nonnegative products, so the result keeps relative accuracy.
    """
    inner = np.asarray(inner, dtype=float)[: order + 1]
    if inner[0] != 0.0:
        raise ValueError("inner series must have zero constant term")
    outer = np.asarray(outer, dtype=float)[: order + 1]
    nz = np.nonzero(outer)[0]
    outer = outer[: nz[-1] + 1] if nz.size else outer[:1]
    k = math.isqrt(len(outer))
    # rows j of baby: inner^j for j < k, as long as inner^(k-1) can be
    baby = np.zeros((k, min(order + 1, (k - 1) * (len(inner) - 1) + 1)))
    baby[0, 0] = 1.0
    for j in range(1, k):
        baby[j] = np.convolve(baby[j - 1], inner)[: baby.shape[1]]
    giant = np.convolve(baby[-1], inner)[: order + 1]  # inner^k
    blocks = np.concatenate([outer, np.zeros(-len(outer) % k)])
    rows = blocks.reshape(-1, k) @ baby  # row i: block i as a series
    acc = rows[-1]
    for row in rows[-2::-1]:
        acc = np.convolve(acc, giant)[: order + 1]
        acc[: len(row)] += row
    return np.concatenate([acc, np.zeros(order + 1 - len(acc))])
