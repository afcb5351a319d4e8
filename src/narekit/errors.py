"""Exception hierarchy for narekit.

Every failure mode raised by the library derives from :class:`NarekitError`,
so callers (and the CLI) can catch one base class and map subclasses to
exit codes.
"""


class NarekitError(Exception):
    """Base class for all narekit errors."""


# --- dense kernel -----------------------------------------------------------

class SingularMatrix(NarekitError):
    """A pivot of a factorization fell below the singularity threshold."""


class NoConvergence(NarekitError):
    """An iteration exceeded its step cap without meeting its tolerance."""

    def __init__(self, message, diagnostics=None):
        super().__init__(message)
        self.diagnostics = diagnostics


# --- problem model ----------------------------------------------------------

class DegenerateDenominator(NarekitError):
    """The relative-residual denominator is numerically zero."""


class PoleHit(NarekitError):
    """A Cayley transform was evaluated at (numerically) its pole."""


class ClassificationAmbiguous(NarekitError):
    """Eigenvalues could not be split into stable/antistable groups."""


# --- doubling solver --------------------------------------------------------

class InitSingular(NarekitError):
    """One of the matrices inverted by the doubling initialization is singular."""

    def __init__(self, which, message=None):
        super().__init__(message or f"initialization matrix {which!r} is singular")
        self.which = which


class Breakdown(NarekitError):
    """The doubling iteration hit a (near-)singular I - G@H."""

    def __init__(self, step, cond_estimate):
        super().__init__(
            f"doubling breakdown at step {step}: "
            f"cond(I - G@H) estimate {cond_estimate:.3e}"
        )
        self.step = step
        self.cond_estimate = cond_estimate


# --- subspace shift ---------------------------------------------------------

class SingularH(NarekitError):
    """Inverse iteration requires a nonsingular matrix."""


class CentralPairIllConditioned(NarekitError):
    """The left/right central bases are too close to orthogonal to pair."""

    def __init__(self, cond_uv):
        super().__init__(f"cond(U^T V) = {cond_uv:.3e} exceeds the acceptance cap")
        self.cond_uv = cond_uv


class KMaxReached(NarekitError):
    """Adaptive enlargement of the central dimension hit its cap."""

    def __init__(self, k_max, t_estimate):
        super().__init__(
            f"no well-separated central subspace up to k={k_max} "
            f"(rate estimate {t_estimate:.3g})"
        )
        self.k_max = k_max
        self.t_estimate = t_estimate


class DegenerateSpectrum(NarekitError):
    """The smallest central eigenvalue is numerically zero."""


class UVSingular(NarekitError):
    """U^T V is singular; the rank-k update cannot be formed."""


class OrthogonalPair(NarekitError):
    """The rank-one shift received u, v with u^T v numerically zero."""


# --- diagnostics ------------------------------------------------------------

class NotInvariant(NarekitError):
    """A basis handed to a subspace metric does not span an invariant subspace."""

    def __init__(self, defect, tol):
        super().__init__(f"invariance defect {defect:.3e} exceeds tolerance {tol:.1e}")
        self.defect = defect


class MatchFailure(NarekitError):
    """Claimed central eigenvalues could not be matched to the spectrum."""


# --- problem generation / IO ------------------------------------------------

class QuadratureFailure(NarekitError):
    """Quadrature node computation failed."""


class InvalidProblem(NarekitError):
    """Problem data is dimensionally inconsistent or non-finite."""
