"""Exception hierarchy for narekit.

Every failure mode raised by the library derives from :class:`NarekitError`
and has its one constructor: a message and a ``diagnostics`` dict of the
values behind it, or None.  The CLI maps three cases to exit codes:
SingularMatrix (Breakdown included) to 2, InvalidProblem to 4 and any
other NarekitError to 3.  A defined value is no error: a relative residual
with a zero denominator is 0.0, and a Cayley transform at its pole is
infinite.
"""


class NarekitError(Exception):
    """Base class for all narekit errors."""

    def __init__(self, message, diagnostics=None):
        super().__init__(message)
        self.diagnostics = diagnostics


# --- dense kernel -----------------------------------------------------------

class SingularMatrix(NarekitError):
    """An LU met an exact zero pivot or non-finite entries."""


class Breakdown(SingularMatrix):
    """A matrix to invert (the doubling's start, a doubling step's I - G@H,
    the polish's P + gI or Q + gI) had a condition estimate above
    kernel.BREAKDOWN_COND, or a doubling step's E or F overflowed;
    diagnostics: which (the start's matrix) or step, and cond_estimate."""


class NoConvergence(NarekitError):
    """An iteration exceeded its step cap without meeting its tolerance."""


# --- problem model ----------------------------------------------------------

class InvalidProblem(NarekitError):
    """Problem data is malformed, dimensionally inconsistent or non-finite,
    or the problem lies outside what a solver accepts (no M-matrix
    structure, a spectrum that does not split, a bad parameter)."""


# --- subspace shift ---------------------------------------------------------

class CentralPairIllConditioned(NarekitError):
    """Raised on building a shift.CentralSubspaces whose left and right bases
    have cond(U^T V) above shift.COND_CAP (inf for a singular U^T V), too
    close to orthogonal to pair; diagnostics: cond_uv."""


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
