"""Exception hierarchy for narekit.

Every failure mode raised by the library derives from :class:`NarekitError`
and has its one constructor: a message and a ``diagnostics`` dict of the
values behind it, or None.  The CLI maps three cases to exit codes:
SingularMatrix (InitSingular and Breakdown included) to 2, InvalidProblem
to 4 and any other NarekitError to 3.  A defined value is no error: a
relative residual with a zero denominator is 0.0, and a Cayley transform at
its pole is infinite.
"""


class NarekitError(Exception):
    """Base class for all narekit errors."""

    def __init__(self, message, diagnostics=None):
        super().__init__(message)
        self.diagnostics = diagnostics


# --- dense kernel -----------------------------------------------------------

class SingularMatrix(NarekitError):
    """A pivot of a factorization fell below the singularity threshold, or
    the matrix has non-finite entries."""


class NoConvergence(NarekitError):
    """An iteration exceeded its step cap without meeting its tolerance."""


# --- problem model ----------------------------------------------------------

class InvalidProblem(NarekitError):
    """Problem data is malformed, dimensionally inconsistent or non-finite,
    or the problem lies outside what a solver accepts (no M-matrix
    structure, a spectrum that does not split, a bad parameter)."""


# --- doubling solver --------------------------------------------------------

class InitSingular(SingularMatrix):
    """One of the matrices inverted by the doubling initialization is
    singular; diagnostics: which."""


class Breakdown(SingularMatrix):
    """The doubling iteration hit a (near-)singular I - G@H; diagnostics:
    step, cond_estimate."""


# --- subspace shift ---------------------------------------------------------

class CentralPairIllConditioned(NarekitError):
    """The left/right central bases are too close to orthogonal to pair, or
    U^T V is singular; diagnostics: cond_uv."""


class KMaxReached(NarekitError):
    """No central dimension k <= k_max has a probed modulus gap
    |xi_k| / |xi_{k+1}| <= shift.SLOW_RATE; diagnostics: k_max, t_estimate
    (that ratio at k = k_max)."""


class DegenerateSpectrum(NarekitError):
    """The smallest central eigenvalue is numerically zero."""


# --- diagnostics ------------------------------------------------------------

class NotInvariant(NarekitError):
    """A basis handed to a subspace metric does not span an invariant
    subspace; diagnostics: defect."""


class MatchFailure(NarekitError):
    """Claimed central eigenvalues could not be matched to the spectrum."""
