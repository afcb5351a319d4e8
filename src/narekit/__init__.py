"""narekit: minimal nonnegative solutions of nonsymmetric algebraic
Riccati equations X C X - A X - X D + B = 0 with M-matrix structure.

Solvers: the structured doubling iteration (`sda_solve`) and the rank-k
subspace-shifted pipeline (`sushi_solve`) for close-to-critical problems,
both answering with an `SdaOutcome`.  Diagnostics
cover the spectral gap, Cayley gap, Sylvester separation, and the
conditioning of the central eigenvalue cluster.  Every failure is a
`NarekitError` (see narekit.errors) with a message and a `diagnostics`
dict or None.
"""

__version__ = "0.1.0"

from .core import (
    LinearizingMatrix,
    MMatrixClass,
    NareProblem,
    build_h,
    build_m,
    cayley,
    classify_mmatrix,
    gamma_star,
    ordered_eigenvalues,
    relative_residual,
    residual,
)
from .diagnostics import (
    DiagnosticsReport,
    cayley_gap,
    delta_central,
    gap_of,
    relsep_of_subspace,
    report_for,
    schur_basis,
    sep_f,
    stable_basis,
)
from .errors import NarekitError
from .kernel import cond_uv, subspace_distance
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
    "SushiOptions",
    "TransportSpec",
    "build_h",
    "build_m",
    "build_shifted_h",
    "cayley",
    "cayley_gap",
    "choose_shift_s",
    "classical_shift",
    "classify_mmatrix",
    "compute_central_pair",
    "cond_uv",
    "delta_central",
    "gamma_star",
    "gap_of",
    "ordered_eigenvalues",
    "random_mnare",
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
    "stable_basis",
    "subspace_distance",
    "sushi_solve",
    "transport_problem",
]
