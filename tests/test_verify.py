"""Verification suites run end to end on the bundled laws."""

import pytest

from recordwalk import IncrementLaw, SUITES, bundled_law_path, run_suite

SYM = IncrementLaw.explicit("right", 0.5, [0.0, 0.5])


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
    law = IncrementLaw.from_json(bundled_law_path(name).read_text())
    for suite in ("h-limits", "lambda-limits", "oracle-equivalence",
                  "mdp-constants"):
        report = run_suite(law, suite)
        assert report.passed, (suite, [c for c in report.checks if not c.passed])


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
