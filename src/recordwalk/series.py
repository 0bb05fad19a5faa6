"""Truncated power-series arithmetic on float coefficient arrays.

All functions operate on 1-D numpy arrays where index n holds the
coefficient of s^n, truncated at a common order: the form in which
h_series, f0_series and tau_pmf return their series, checked finite.  Every
product is a direct np.convolve, never an FFT, so products of nonnegative
series keep relative accuracy, and every truncated one is series_mul.  A
long product, truncated or middle, is summed over slices of CONV_SLICE
terms of its shorter factor, one np.convolve each, so that each call's dot
products run from cache; a truncated product makes only the terms through
its order, about half of the full product.  Reciprocals use Newton
doubling, exact through the truncation order after ceil(log2(order+1))
steps, each a middle product and a truncated product; log W integrates
W'/W through one reciprocal; exp, as h_series, runs in whole blocks of
BLOCK coefficients, one middle product with the history per block, and a
lower order's exp is a bitwise prefix of a higher one's.  A polynomial in
a series (composition, and an explicit law's phi(h)) runs one plan of
products, Paterson-Stockmeyer's or binary powers', whichever makes fewer.
"""

from __future__ import annotations

import math

import numpy as np

CONV_SLICE = 1024  # terms of the shorter factor per np.convolve call
BLOCK = 128  # coefficients series_exp and h_series solve at a time


def series_eval(coeffs, s):
    """Horner evaluation of the truncated series at s, a float or an
    array."""
    acc = 0.0
    for c in coeffs[::-1]:
        acc = c + s * acc
    return acc


def series_mul(a, b, order):
    """Product truncated at the given order: np.convolve(a, b)[:order + 1].

    The shorter factor goes CONV_SLICE terms at a time: slice i, times the
    other factor through s^(order - i) and truncated there, is added in at
    s^i.  For n terms that is about n^2/2 multiplications, and each call's
    dot products are at most CONV_SLICE long, so they run from cache.
    """
    n = order + 1
    a, b = a[:n], b[:n]
    if len(a) > len(b):
        a, b = b, a
    if len(a) <= CONV_SLICE:
        return np.convolve(a, b)[:n]
    out = np.zeros(min(n, len(a) + len(b) - 1))
    for i in range(0, len(a), CONV_SLICE):
        p = np.convolve(a[i : i + CONV_SLICE], b[: n - i])[: n - i]
        out[i : i + len(p)] += p
    return out


def _middle_product(x, y):
    """np.convolve(x, y, "valid") for len(x) >= len(y), summed over slices
    of CONV_SLICE terms of y, each against the window of x it meets."""
    k = len(y)
    if k <= CONV_SLICE:
        return np.convolve(x, y, "valid")
    out = np.zeros(len(x) - k + 1)
    for j in range(0, k, CONV_SLICE):
        part = y[j : j + CONV_SLICE]
        out += np.convolve(x[k - j - len(part) : len(x) - j], part, "valid")
    return out


def series_reciprocal(f, order):
    """Series inverse of f with f[0] != 0, truncated at the given order.

    Newton from r right through h - 1 to m = min(2h, order + 1) terms:
    F r is 1 and zeros through h - 1, so only e = (F r)[h:m] is formed (a
    middle product), and r (2 - F r) sets r[h:m] = -(r e)[:m - h].
    """
    f = np.asarray(f, dtype=float)[: order + 1]
    if f[0] == 0.0:
        raise ZeroDivisionError("series has zero constant term")
    f = np.concatenate([f, np.zeros(order + 1 - len(f))])
    r = np.zeros(order + 1)
    r[0] = 1.0 / f[0]
    h = 1
    while h <= order:
        m = min(2 * h, order + 1)
        e = _middle_product(f[1:m], r[:h])
        r[h:m] = -series_mul(r[: m - h], e, m - h - 1)
        h = m
    return r


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
    """exp of a series with zero constant term: the recurrence
    m e_m = sum_{j=1..m} j a_j e_{m-j} in blocks of B = BLOCK.

    The first block E is the recurrence itself.  A block X = e[c:c+B]
    takes its history R_i = sum_{k<c} e_k (ja)_{c+i-k} in one middle product
    and solves (c + theta) X - (theta A) X = R, theta = s d/ds, as
    X = E ((R/E)_i / (c + i)), since theta E = (theta A) E.  The input is
    zero-padded to whole blocks, so every order makes the same products
    and series_exp(a[:d + 1], d) is bitwise a prefix of series_exp(a, m).
    Dividing by E and multiplying back cancels where 1/E's coefficients
    are far larger than E's: as accurate as the one-dot loop on the
    W^beta series the laws take, less so on an input cut blocks short of
    the order.
    """
    a = np.asarray(a, dtype=float)[: order + 1]
    if a[0] != 0.0:
        raise ValueError("series must have zero constant term")
    B = BLOCK
    ja = np.zeros(-(-(order + 1) // B) * B)
    ja[: len(a)] = np.arange(len(a)) * a
    e = np.zeros(len(ja))
    e[0] = 1.0
    for m in range(1, min(order + 1, B)):
        e[m] = np.dot(ja[1 : m + 1], e[m - 1 :: -1]) / m
    if order >= B:
        first = e[:B]
        inv = series_reciprocal(first, B - 1)
        for c in range(B, len(e), B):
            r = _middle_product(ja[1 : c + B], e[:c])
            y = series_mul(r, inv, B - 1) / np.arange(c, c + B)
            e[c : c + B] = series_mul(first, y, B - 1)
    return e[: order + 1]


def _ps_nodes(a):
    """Paterson and Stockmeyer's plan (SIAM J. Comput. 2, 1973): the baby
    powers h^2..h^k, k = isqrt(len(a)), the last the giant step, then the
    Horner accumulators over the rows of a in h^k."""
    k = math.isqrt(len(a))
    rows = np.concatenate([a, np.zeros(-len(a) % k)]).reshape(-1, k).tolist()
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
    support, j = (np.flatnonzero(a[1:]) + 1).tolist(), 1
    while 2 * j <= support[-1]:
        nodes.append((0.0, (), (node[j], node[j])))
        node[2 * j] = len(nodes) - 1
        j *= 2
    for e in support:
        done = 0
        for bit in reversed(range(e.bit_length())):
            if e >> bit & 1:
                if done and done + (1 << bit) not in node:
                    nodes.append((0.0, (), (node[done], node[1 << bit])))
                    node[done + (1 << bit)] = len(nodes) - 1
                done += 1 << bit
    nodes.append((a[0], tuple((a[e], node[e]) for e in support), None))
    return nodes


def _plan(a):
    """The products that form sum_k a_k h^k, as nodes: node 0 is h, the
    last the sum, and each const + sum coef*node (+ node_p*node_q), its
    coefficients a's.  _ps_nodes, or _power_nodes where that makes fewer
    products (a sparse support, or degree 2); a constant a, one node."""
    nz = np.flatnonzero(a)
    if not nz.size or not nz[-1]:
        return [(0.0, (), None), (a[0] if nz.size else 0.0, (), None)]
    a = a[: nz[-1] + 1]
    return min(_power_nodes(a), _ps_nodes(a),
               key=lambda nodes: sum(1 for *_, p in nodes if p))


def _evaluate(nodes, inner, order):
    """Every node of a plan through s^order, node 0 being inner, zero-padded:
    each product one series_mul, to which the linear terms and then the
    constant are added."""
    inner = inner[: order + 1]
    out = [np.concatenate([inner, np.zeros(order + 1 - len(inner))])]
    for c0, lin, prod in nodes[1:]:
        v = (series_mul(out[prod[0]], out[prod[1]], order) if prod
             else np.zeros(order + 1))
        for coef, j in lin:
            v += coef * out[j]
        v[0] += c0
        out.append(v)
    return out


def series_compose_val1(outer, inner, order):
    """Compose sum_j outer[j] * inner^j where inner has zero constant term.

    Because inner has valuation >= 1, inner^j vanishes beyond order j, so
    only outer coefficients up to the truncation order contribute.  The
    products are _plan's, about 2*sqrt(len(outer)) of them, or fewer on a
    sparse outer.  For nonnegative outer and inner every intermediate is a
    sum of nonnegative products, so the result keeps relative accuracy.
    """
    inner = np.asarray(inner, dtype=float)[: order + 1]
    if inner[0] != 0.0:
        raise ValueError("inner series must have zero constant term")
    outer = np.asarray(outer, dtype=float)[: order + 1]
    return _evaluate(_plan(outer), inner, order)[-1]
