"""Two-dimensional lattice theta functions, competing-lattice energy
minimization, and the rhombic/square/rectangular phase diagram of a
two-component lattice energy.

The public API re-exports the main entry points of each submodule; see the
README for a guided tour.  The verifier's names load it, and numpy with it,
on first use.
"""

from .functionals import (
    FunctionalKind,
    NoRootError,
    SignReport,
    Thresholds,
    TrajectoryPoint,
    XYABKind,
    minimizer,
    quotient,
    quotient_derivative,
    quotient_scan,
    solve_y_branch,
    thresholds,
    w_eval,
    xyab,
)
from .halfplane import (
    GroupId,
    MoebiusWord,
    ReductionError,
    apply,
    cayley,
    cayley_inv,
    compose,
    on_trajectory,
    reduce,
)
from .kernels import (
    DEFAULT_TRUNCATION,
    DomainError,
    HalfPlanePoint,
    SeriesTruncation,
    TruncationError,
    jacobi_theta,
    tail_bound,
    theta1d,
    theta2d,
    theta2d_shifted,
)
from .phase_diagram import (
    Alpha0Result,
    CriticalPoint,
    CriticalPointReport,
    Displacement,
    PhaseRow,
    alpha_thresholds,
    critical_census,
    energy,
    hessian_universal,
    j_eval,
    optimal_lattice,
    phase_row,
    solve_alpha0,
)
__version__ = "0.1.0"

__all__ = [
    "Alpha0Result",
    "BoundKit",
    "CheckRow",
    "CriticalPoint",
    "CriticalPointReport",
    "DEFAULT_TRUNCATION",
    "Displacement",
    "DomainError",
    "FunctionalKind",
    "GroupId",
    "HalfPlanePoint",
    "MarginRow",
    "MoebiusWord",
    "NoRootError",
    "PhaseRow",
    "ReductionError",
    "SeriesTruncation",
    "SignReport",
    "Thresholds",
    "TrajectoryPoint",
    "TruncationError",
    "XYABKind",
    "alpha_thresholds",
    "appendix_margins",
    "appendix_poly",
    "apply",
    "bound_kit",
    "brute_minimize",
    "cayley",
    "cayley_inv",
    "compose",
    "critical_census",
    "energy",
    "hessian_universal",
    "j_eval",
    "jacobi_theta",
    "minimizer",
    "on_trajectory",
    "optimal_lattice",
    "phase_row",
    "quotient",
    "quotient_derivative",
    "quotient_scan",
    "reduce",
    "run_suite",
    "series_split",
    "solve_alpha0",
    "solve_y_branch",
    "tail_bound",
    "theta1d",
    "theta2d",
    "theta2d_shifted",
    "thresholds",
    "w_eval",
    "x_monotonicity_scan",
    "xyab",
    "__version__",
]

_VERIFIER_NAMES = (
    "BoundKit",
    "CheckRow",
    "MarginRow",
    "appendix_margins",
    "appendix_poly",
    "bound_kit",
    "brute_minimize",
    "run_suite",
    "series_split",
    "x_monotonicity_scan",
)


def __getattr__(name: str):
    if name in _VERIFIER_NAMES:
        from . import verifier

        return getattr(verifier, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
