"""Rate functions and exact oracles for weak-record counts of skip-free
integer random walks."""

from importlib import resources

__version__ = "0.1.0"

from .laws import (  # noqa: F401
    IncrementLaw,
    LawValidationError,
    Orientation,
    expand_coefficients,
    truncated_explicit,
)
from .series import SeriesPoly  # noqa: F401
from .fixed_point import (  # noqa: F401
    f0_series,
    h_series,
    solve_h,
)
from .rates import (  # noqa: F401
    MdpConstants,
    MdpRegime,
    RatePoint,
    cumulant,
    cumulant_deriv,
    invert_slope,
    ldp_rate,
    legendre,
    mdp_constants,
    mdp_rate,
    rate_point,
)
from .oracle import (  # noqa: F401
    ChainKernel,
    Provenance,
    TailTable,
    build_kernel,
    exact_An_distribution,
    renewal_tail,
    renewal_tail_table,
    return_prob_partial_sums,
    tau_pmf,
)
from .montecarlo import (  # noqa: F401
    SimConfig,
    count_weak_records,
    empirical_tail,
    reflected_zero_visits,
    sample_increment,
)
from .verify import SUITES, VerifyReport, run_suite  # noqa: F401


def bundled_law_path(name):
    """Filesystem path of a bundled example law file, e.g. 'sym.json'."""
    return resources.files("recordwalk.data").joinpath(name)
