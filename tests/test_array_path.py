"""A grid of s values swept through solve_h, one float at a time, on every
bundled law."""

import math
from importlib import resources

import numpy as np
import pytest

from recordwalk import IncrementLaw, bundled_law_path, solve_h

BUNDLED_LAWS = sorted(
    f.name for f in resources.files("recordwalk.data").iterdir()
    if f.name.endswith(".json")
)


@pytest.fixture(params=BUNDLED_LAWS)
def law(request):
    return IncrementLaw.from_json(bundled_law_path(request.param).read_text())


@pytest.mark.parametrize("bad", [1.5, -1e-300, math.nan])
def test_solve_h_array_rejects_point_outside_unit_interval(law, bad):
    with pytest.raises(ValueError):
        [solve_h(law, s) for s in np.array([0.2, bad, 0.7])]
