"""Bracketing bounds for comparative interrupted time-series designs.

The package estimates a treatment effect with two difference-in-differences
arms, one against a control group whose pre-study outcomes sit below the
treated unit's and one against a group above, and reports the pair as
bracket bounds together with a min-max confidence interval. It also ships
the diagnostics, placebo engine, and Monte Carlo verifier that support the
method.
"""

from .bracketing import (
    bracket_bounds,
    construct_control_groups,
    full_analysis,
    minmax_ci,
    validate_ordering,
)
from .diagnostics import gap_change_test, pattern_test, relative_trends_table
from .estimation import (
    did_point,
    did_se,
    normal_cdf,
    normal_quantile,
    pct_change,
    pct_change_se_delta,
    pct_ci_scaled,
    poisson_rate_se,
    wald_ci,
    weighted_period_mean,
)
from .model import (
    AdjacencyGraph,
    BracketReport,
    ConfInterval,
    EffectEstimate,
    OrderingReport,
    PanelDataset,
    PanelRecord,
    PeriodRange,
    PeriodSummary,
    StudyDesign,
    Violation,
    validate_design,
)
from .placebo import (
    PlaceboResult,
    histogram_export,
    rank_effect,
    run_placebo_study,
)
from .simulation import (
    McReport,
    Scenario,
    coverage_experiment,
    generate_panel,
    synthetic_control_comparison,
    verify_bracketing,
)

__version__ = "0.1.0"
