"""narekit: minimal nonnegative solutions of nonsymmetric algebraic
Riccati equations X C X - A X - X D + B = 0 with M-matrix structure.

Solvers: the structured doubling iteration (`sda_solve`), the classical
rank-one shift (`classical_shift`), and the rank-k subspace-shifted
pipeline (`sushi_solve`) for close-to-critical problems.  Diagnostics
cover the spectral gap, Cayley gap, Sylvester separation, and the
conditioning of the central eigenvalue cluster.
"""

__version__ = "0.1.0"

from .core import (
    LinearizingMatrix,
    MMatrixClass,
    NareProblem,
    Solution,
    build_h,
    build_m,
    cayley,
    central_real_pair,
    classify_mmatrix,
    gamma_star,
    ordered_eigenvalues,
    relative_error,
    relative_residual,
    residual,
    verify_invariant_pair,
)
from .diagnostics import (
    DiagnosticsReport,
    cayley_gap,
    cond_uv,
    delta_central,
    gap_of,
    relsep_of_subspace,
    report_for,
    schur_basis,
    sep_f,
    stable_basis,
    solution_distance_bound,
)
from .errors import NarekitError
from .kernel import subspace_distance
from .problems import (
    RandomMnareSpec,
    TransportSpec,
    random_mnare,
    reverse_engineered_problem,
    transport_problem,
)
from .sda import SdaConfig, SdaOutcome, SdaState, sda_init, sda_solve, sda_step
from .shift import (
    CentralSubspaces,
    ShiftPlan,
    SushiOptions,
    build_shifted_h,
    choose_shift_s,
    classical_shift,
    compute_central_pair,
    detect_k,
    inverse_orthogonal_iteration,
    sushi_report,
    sushi_solve,
)

__all__ = [
    "CentralSubspaces",
    "DiagnosticsReport",
    "LinearizingMatrix",
    "MMatrixClass",
    "NareProblem",
    "NarekitError",
    "RandomMnareSpec",
    "SdaConfig",
    "SdaOutcome",
    "SdaState",
    "ShiftPlan",
    "Solution",
    "SushiOptions",
    "TransportSpec",
    "build_h",
    "build_m",
    "build_shifted_h",
    "cayley",
    "cayley_gap",
    "central_real_pair",
    "choose_shift_s",
    "classical_shift",
    "classify_mmatrix",
    "compute_central_pair",
    "cond_uv",
    "delta_central",
    "detect_k",
    "gamma_star",
    "gap_of",
    "inverse_orthogonal_iteration",
    "ordered_eigenvalues",
    "random_mnare",
    "relative_error",
    "relative_residual",
    "relsep_of_subspace",
    "report_for",
    "residual",
    "reverse_engineered_problem",
    "schur_basis",
    "sda_init",
    "sda_solve",
    "sda_step",
    "sep_f",
    "solution_distance_bound",
    "stable_basis",
    "subspace_distance",
    "sushi_report",
    "sushi_solve",
    "transport_problem",
    "verify_invariant_pair",
]
