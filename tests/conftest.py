"""Hypothesis draws the same examples on every run: the suite is
deterministic, and a failing example fails again on the next run."""

from hypothesis import settings

settings.register_profile("deterministic", derandomize=True, database=None)
settings.load_profile("deterministic")
