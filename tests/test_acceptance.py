"""Acceptance gate: ten criteria, each printing a single pass/fail line.

Targets are closed-form constants or independently derived values; every
tolerance is stated inline next to the assertion it guards.
"""

import math
import time

import numpy as np
import pytest

from recordwalk import (
    SimConfig,
    build_kernel,
    count_weak_records,
    cumulant,
    cumulant_deriv,
    empirical_tail,
    exact_An_distribution,
    ldp_rate,
    legendre,
    mdp_constants,
    mdp_rate,
    reflected_zero_visits,
    renewal_tail_table,
    return_prob_partial_sums,
)
from recordwalk.fixed_point import one_minus_s_phi_prime_h
from recordwalk.montecarlo import _grid_index, _increments, _jump_grid
from support import ASYM, ASYM_LEFT, STABLE, STABLE_LEFT, SYM, SYM_LEFT

EXPLICIT_LAWS = [SYM, SYM_LEFT, ASYM, ASYM_LEFT]
SIX_LAWS = EXPLICIT_LAWS + [STABLE, STABLE_LEFT]


def report(capsys, num, name, ok, detail=""):
    with capsys.disabled():
        status = "PASS" if ok else "FAIL"
        line = f"[criterion {num:2d}] {status} {name}"
        if detail:
            line += f" ({detail})"
        print(line)
    assert ok, f"criterion {num}: {name} {detail}"


def test_criterion_01_oracle_equivalence(capsys):
    t0 = time.time()
    worst = 0.0
    for law in (SYM, SYM_LEFT, STABLE, STABLE_LEFT):
        for n in (20, 40, 60):
            dp = exact_An_distribution(build_kernel(law, n), n)
            rn = renewal_tail_table(law, n)
            worst = max(worst, float(np.max(np.abs(dp.tail - rn.tail))))
    elapsed = time.time() - t0
    ok = worst <= 1e-12 and elapsed <= 10.0
    report(capsys, 1, "DP tail equals renewal tail",
           ok, f"max dev {worst:.2e}, {elapsed:.1f}s")


def test_criterion_02_exact_boundary_law(capsys):
    worst = 0.0
    gap = 0.0
    for law in EXPLICIT_LAWS:
        base = law.q + law.p0 if law.orientation.value == "right" \
            else 1.0 - law.q
        for n in (10, 30, 60):
            dp = exact_An_distribution(build_kernel(law, n), n)
            worst = max(worst, abs(float(dp.tail[n]) - base**n))
        # the x = 1 rate is the boundary value with zero gap
        gap = max(gap, abs(legendre(law, 1.0) - (-math.log(base))))
    ok = worst <= 1e-12 and gap == 0.0
    report(capsys, 2, "P(A_n = n) boundary law and x = 1 rate",
           ok, f"max dev {worst:.2e}, rate gap {gap:.1e}")


def test_criterion_03_ldp_trend(capsys):
    t0 = time.time()
    x_rec = 0.5
    analytic = ldp_rate(SYM, x_rec)
    rs = []
    for n in (100, 200, 400, 800):
        k = math.ceil(x_rec * n)
        tab = renewal_tail_table(SYM, n, kmax=k)
        rs.append(-math.log(tab.tail[k]) / n)
    monotone = all(b < a for a, b in zip(rs, rs[1:])) and rs[-1] > analytic
    extrap = 2.0 * rs[-1] - rs[-2]
    rel = abs(extrap - analytic) / analytic
    elapsed = time.time() - t0
    ok = monotone and rel <= 0.10 and elapsed <= 60.0
    report(capsys, 3, "LDP finite-n trend at x_rec = 0.5",
           ok, f"extrapolant rel err {rel:.1%}, {elapsed:.1f}s")


def test_criterion_04_variance_power_law(capsys):
    worst = 0.0
    for law in (SYM, SYM_LEFT, ASYM):
        target = math.sqrt(2.0 * law.sigma2)
        s = 1.0 - 1e-8
        val = one_minus_s_phi_prime_h(law, s) / math.sqrt(1.0 - s)
        worst = max(worst, abs(val - target) / target)
    ok = worst <= 0.01
    report(capsys, 4, "(1 - s phi'(h))/sqrt(1-s) -> sqrt(2)*sigma",
           ok, f"max rel dev {worst:.2e}")


def test_criterion_05_stable_power_law_regression(capsys):
    est = mdp_constants(STABLE, method="numeric")
    alpha_t = 1.0 / 3.0
    c_t = 0.5 ** (2.0 / 3.0) * 1.5 ** (1.0 / 3.0)
    da = abs(est.alpha - alpha_t) / alpha_t
    dc = abs(est.c - c_t) / c_t
    ok = da <= 0.02 and dc <= 0.02
    report(capsys, 5, "stable (alpha, c) by log-log regression",
           ok, f"alpha dev {da:.2%}, c dev {dc:.2%}")


def test_criterion_06_tauberian_constant(capsys):
    target = 2.0 * math.sqrt(2.0) / math.sqrt(math.pi)
    _, U = return_prob_partial_sums(SYM, 10000)
    r4 = U[10000] / math.sqrt(10000.0)
    r3 = U[1000] / math.sqrt(1000.0)
    rel = abs(r4 - target) / target
    approach = (min(r3, r4) <= target <= max(r3, r4)) or (
        abs(r4 - target) <= abs(r3 - target)
    )
    ok = rel <= 0.10 and approach
    report(capsys, 6, "U_n/sqrt(n) trends to 2*sqrt(2)/sqrt(pi)",
           ok, f"rel dev {rel:.2%} at n=1e4")


def test_criterion_07_mdp_closed_forms(capsys):
    worst = 0.0
    cases = []
    for law in EXPLICIT_LAWS:
        if law.orientation.value == "right":
            coeff = law.q**2 / (2.0 * law.sigma2)
        else:
            coeff = law.sigma2 / 8.0
        cases.append((law, coeff, 2.0))
    g, b = STABLE.gamma, STABLE.beta
    cases.append((STABLE, b * g / (1.0 + b) ** (2.0 + 1.0 / b), 1.0 + 1.0 / b))
    cases.append(
        (STABLE_LEFT, g * b**b / (1.0 + b) ** (2.0 + b), 1.0 + b)
    )
    for law, coeff, exponent in cases:
        consts = mdp_constants(law)
        for x in (0.5, 1.0, 2.0):
            closed = coeff * x**exponent
            worst = max(worst, abs(mdp_rate(consts, x) - closed) / closed)
    ok = worst <= 1e-12
    report(capsys, 7, "MDP rate matches quadratic/stable closed forms",
           ok, f"max rel dev {worst:.2e}")


def test_criterion_08_pathwise_identity(capsys):
    mismatches = 0
    n, paths = 30, 10000
    for i, law in enumerate(SIX_LAWS):
        rng = np.random.default_rng(1000 + i)
        halves = rng.integers(0, 2**32, (paths, n), dtype=np.uint32)
        inc = _increments(law, _grid_index(_jump_grid(law, n), halves,
                                           1000 + i, 0))
        for row in inc:
            if count_weak_records(row) != reflected_zero_visits(row):
                mismatches += 1
    ok = mismatches == 0
    report(capsys, 8, "weak records equal reflected zero visits path-wise",
           ok, f"{len(SIX_LAWS) * paths} paths, {mismatches} mismatches")


def test_criterion_09_monte_carlo_calibration(capsys):
    n, paths, seed = 20, 10**6, 20240
    # the deepest row, k = n, has fewer than 10 of the 10^6 paths
    with pytest.warns(RuntimeWarning, match="below 10/paths"):
        one = empirical_tail(SimConfig(SYM, n, paths, seed, workers=1))
    with pytest.warns(RuntimeWarning, match="below 10/paths"):
        eight = empirical_tail(SimConfig(SYM, n, paths, seed, workers=8))
    identical = np.array_equal(one.tail, eight.tail) and np.array_equal(
        one.ci_lo, eight.ci_lo
    )
    dp = exact_An_distribution(build_kernel(SYM, n), n)
    hw = (one.ci_hi - one.ci_lo) / 2.0
    devs = np.abs(one.tail - dp.tail) / np.maximum(hw, 1e-300)
    worst = float(devs.max())
    ok = identical and worst <= 4.0
    report(capsys, 9, "MC within 4 Wilson half-widths of DP, worker-invariant",
           ok, f"max {worst:.2f} half-widths, identical={identical}")


def test_criterion_10_cumulant_limits(capsys):
    worst_slope = 0.0
    worst_gap = 0.0
    for law in SIX_LAWS:
        d = cumulant_deriv(law, -20.0)
        worst_slope = max(worst_slope, abs(d - 1.0))
        if not 1.0 <= d <= 1.001:
            worst_slope = math.inf
        boundary = -math.log(law.q + law.p0) \
            if law.orientation.value == "right" else -math.log(1.0 - law.q)
        gap = abs((-30.0 - cumulant(law, -30.0)) - boundary)
        worst_gap = max(worst_gap, gap)
    ok = worst_slope <= 1e-3 and worst_gap <= 1e-6
    report(capsys, 10, "Lambda'(-20) near 1 and deep-lambda affine asymptote",
           ok, f"slope dev {worst_slope:.1e}, gap {worst_gap:.1e}")
