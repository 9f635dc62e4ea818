"""Compact finite-difference schemes for dispersive (third-derivative) PDEs.

Exact rational coefficient derivation, cyclic banded solvers, periodic
operator application, Fourier symbol analysis and least-squares optimization,
high-order low-pass filters, TVD-RK3 time stepping, and a KdV experiment
harness with a CSV/JSON command-line front end.
"""

from .banded import CyclicBandedSolver, SingularOperatorError
from .exact import (
    DerivationError,
    SchemeCoefficients,
    SchemeTemplate,
    TapGroup,
    TemplateError,
    UnknownSchemeError,
    builtin_scheme,
    catalogued_scheme_ids,
    derive_coefficients,
    leading_truncation_error,
)
from .kdv import (
    ConvergenceReport,
    Discretization,
    DualGridFunction,
    FilterConfig,
    GridFunction,
    KdvProblem,
    RunConfig,
    convergence_study,
    error_norms,
    integrate,
    make_problem,
)
from .operators import (
    CompactOperator,
    FilterOperator,
    FilterSpec,
    build_operator,
    derive_filter,
    filter_by_name,
)
from .spectral import (
    EfficiencyResult,
    circulant_eigenvalues,
    ls_optimize,
    modified_wavenumber,
    resolving_efficiency,
    scheme_symbol,
)
from .timeint import DivergenceError, TvdRk3, rk3_amplification, tvdrk3_step

__all__ = [
    "CompactOperator",
    "ConvergenceReport",
    "CyclicBandedSolver",
    "DerivationError",
    "Discretization",
    "DivergenceError",
    "DualGridFunction",
    "EfficiencyResult",
    "FilterConfig",
    "FilterOperator",
    "FilterSpec",
    "GridFunction",
    "KdvProblem",
    "RunConfig",
    "SchemeCoefficients",
    "SchemeTemplate",
    "SingularOperatorError",
    "TapGroup",
    "TemplateError",
    "TvdRk3",
    "UnknownSchemeError",
    "build_operator",
    "builtin_scheme",
    "catalogued_scheme_ids",
    "circulant_eigenvalues",
    "convergence_study",
    "derive_coefficients",
    "derive_filter",
    "error_norms",
    "filter_by_name",
    "integrate",
    "leading_truncation_error",
    "ls_optimize",
    "make_problem",
    "modified_wavenumber",
    "resolving_efficiency",
    "rk3_amplification",
    "scheme_symbol",
    "tvdrk3_step",
]

__version__ = "1.0.0"
