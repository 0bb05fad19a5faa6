"""Verification suites run end to end on the bundled laws."""

import numpy as np
import pytest

from recordwalk import (SUITES, IncrementLaw, cumulant, invert_slope,
                        legendre, run_suite, verify)
from support import ALL_LAWS, BUNDLED_LAWS, EDGE_LAWS, SYM, bundled_law

LEGENDRE_SLOPES = (1.01, 1.1, 1.5, 2.0, 3.0, 5.0, 10.0, 20.0)


def test_unknown_suite_rejected():
    with pytest.raises(ValueError):
        run_suite(SYM, "everything")


def test_suite_names_exported():
    assert "oracle-equivalence" in SUITES
    assert len(SUITES) == 7


@pytest.mark.parametrize(
    "suite",
    ["h-limits", "lambda-limits", "oracle-equivalence", "mdp-constants",
     "ldp-trend", "tauberian"],
)
def test_fast_suites_pass_on_symmetric_walk(suite):
    report = run_suite(SYM, suite)
    assert report.suite == suite
    assert report.passed, [c for c in report.checks if not c.passed]


@pytest.mark.parametrize(
    "name", ["asym.json", "stable_g05_b05.json", "stable_g05_b05_left.json"]
)
def test_core_suites_pass_on_bundled_laws(name):
    law = bundled_law(name)
    for suite in ("h-limits", "lambda-limits", "oracle-equivalence",
                  "mdp-constants"):
        report = run_suite(law, suite)
        assert report.passed, (suite, [c for c in report.checks if not c.passed])


@pytest.mark.parametrize("law", ALL_LAWS + EDGE_LAWS)
def test_lambda_limits_pass_on_every_law(law):
    # the blow-up check reads the slope of log Lambda' near 0- against
    # theta = 1 - g, within 10%: 5.5% off at worst (stable 0.98, 0.03,
    # left); on the two beta = 0.03 right laws theta is 0.029, and Lambda'
    # grows only 1.31-fold from -1e-4 to -1e-8
    report = run_suite(law, "lambda-limits")
    assert report.passed, [c for c in report.checks if not c.passed]


def test_ldp_trend_names_the_tail_that_underflows():
    # P(A_800 >= 400) of the stable law gamma = 0.98, beta = 0.03, left, is
    # 0 in double; the suite names it rather than taking the log of 0
    law = IncrementLaw.stable("left", 0.98, 0.03)
    with pytest.raises(ValueError, match=r"^P\(A_800 >= 400\) underflows "
                       r"to 0 in double$"):
        run_suite(law, "ldp-trend")


def test_legendre_suite_on_symmetric_walk():
    report = run_suite(SYM, "legendre")
    assert report.passed
    assert all(c.provenance for c in report.checks)


def test_checks_hold_python_scalars():
    # numpy scalars from numeric checks would not serialise to JSON
    for suite in ("tauberian", "lambda-limits"):
        for c in run_suite(SYM, suite).checks:
            assert type(c.passed) is bool
            assert all(type(v) is float for v in (c.target, c.observed, c.tolerance))


@pytest.mark.parametrize("name", BUNDLED_LAWS)
def test_legendre_grid_lies_on_the_solved_curve(name):
    law = bundled_law(name)
    lam, Lam = verify._legendre_grid(law)
    assert lam.size == Lam.size == 20001
    # the solve route at the grid's lambda lands on the grid's Lambda
    # (4.0e-16 relative measured)
    for i in range(0, lam.size, 1000):
        assert abs(cumulant(law, float(lam[i])) - Lam[i]) <= 1e-14 * abs(
            Lam[i]), i
    # each slope's optimum lies strictly inside the grid
    for x in LEGENDRE_SLOPES:
        assert lam[0] < invert_slope(law, x) < lam[-1], x
    max_dev = max(abs(legendre(law, x) - float(np.max(x * lam - Lam)))
                  for x in LEGENDRE_SLOPES)
    assert run_suite(law, "legendre").checks[0].observed == max_dev
