"""Bracketing bounds for comparative interrupted time-series designs.

The package estimates a treatment effect with two difference-in-differences
arms, one against a control group whose pre-study outcomes sit below the
treated unit's and one against a group above, and reports the pair as
bracket bounds together with a min-max confidence interval. It also ships
the diagnostics, placebo engine, and Monte Carlo verifier that support the
method.

The package namespace holds only the names of the README's library
example; everything else is imported from its module (``didbracket.io``,
``didbracket.placebo``, ``didbracket.simulation``, ...).
"""

from .bracketing import construct_control_groups, full_analysis
from .model import PeriodRange, StudyDesign

__version__ = "0.1.0"
