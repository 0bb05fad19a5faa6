"""The checks that hold on every law of a seeded random draw
(support.random_laws), beyond the 19 laws chosen by hand.

check_law is also the body of a wider draw, 600 laws from another seed:

    PYTHONPATH=src:tests python -c "import test_random_laws as t; t.check_draw(2, 600)"
"""

import numpy as np
import pytest

from recordwalk import (build_kernel, exact_An_distribution, h_series,
                        renewal_tail_table, run_suite)
from support import random_laws

# DP against renewal at n = 300 on the rows whose tail is a normal double,
# relative; fixed before the first run, about three times what 40 drawn
# laws read (6.4e-14)
DP_RENEWAL_TOL = 2e-13
PREFIX_ORDERS = (132, 135, 138, 260, 263, 390)


def check_law(law):
    for suite in ("h-limits", "oracle-equivalence", "legendre"):
        report = run_suite(law, suite)
        assert report.passed, (law, [c for c in report.checks if not c.passed])
    n = 300
    dp = exact_An_distribution(build_kernel(law, n), n).tail
    rn = renewal_tail_table(law, n).tail
    assert len(dp) == len(rn) and np.array_equal(dp == 0.0, rn == 0.0), law
    normal = rn >= np.finfo(float).tiny
    dev = float(np.max(np.abs(dp - rn)[normal] / rn[normal]))
    assert dev <= DP_RENEWAL_TOL, (law, dev)
    # every order is bitwise a prefix of a longer one
    ref = h_series(law, 400)
    for order in PREFIX_ORDERS:
        assert np.array_equal(h_series(law, order), ref[: order + 1]), (
            law, order)


def check_draw(seed, count):
    for law in random_laws(seed, count):
        check_law(law)
    print(f"{count} laws of seed {seed} passed")


@pytest.mark.parametrize("law", random_laws(1, 60))
def test_random_law(law):
    check_law(law)
