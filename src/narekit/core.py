"""Problem model for the Riccati equation X C X - A X - X D + B = 0.

A problem is defined by the four coefficient blocks (A: m x m, B: m x n,
C: n x m, D: n x n).  The linearizing matrix

    H = [[D, -C], [B, -A]]

carries the equation's spectral structure: solutions X correspond to
invariant subspaces spanned by the columns of [I; X].  For problems whose
sign-flipped block matrix M = [[D, -C], [-B, A]] is an M-matrix, the
eigenvalues of H split n right / m left of the imaginary axis and the
minimal entrywise-nonnegative solution exists.
"""

from dataclasses import dataclass, field
from functools import cached_property
import json

import numpy as np

from .errors import InvalidProblem, SingularMatrix
from .kernel import as_matrix, eigenvalues, frobenius_norm, lu_factor, lu_solve

ZERO_TOL = 1e-10  #: relative size of classify_mmatrix's certificate shift tau


@dataclass(frozen=True)
class NareProblem:
    """Coefficient blocks of X C X - A X - X D + B = 0."""

    A: np.ndarray
    B: np.ndarray
    C: np.ndarray
    D: np.ndarray
    metadata: dict = field(default_factory=dict, compare=False)

    def __post_init__(self):
        a = as_matrix(self.A, name="A")
        b = as_matrix(self.B, name="B")
        c = as_matrix(self.C, name="C")
        d = as_matrix(self.D, name="D")
        m, n = b.shape
        if m < 1 or n < 1:
            raise InvalidProblem("block sizes m, n must be at least 1")
        if a.shape != (m, m):
            raise InvalidProblem(f"A must be {m}x{m}, got {a.shape}")
        if c.shape != (n, m):
            raise InvalidProblem(f"C must be {n}x{m}, got {c.shape}")
        if d.shape != (n, n):
            raise InvalidProblem(f"D must be {n}x{n}, got {d.shape}")
        object.__setattr__(self, "A", a)
        object.__setattr__(self, "B", b)
        object.__setattr__(self, "C", c)
        object.__setattr__(self, "D", d)

    @property
    def m(self):
        return self.B.shape[0]

    @property
    def n(self):
        return self.B.shape[1]

    @property
    def dtype(self):
        return self.A.dtype

    def astype(self, dtype):
        """Same problem with coefficient blocks cast to dtype (float32/float64)."""
        return NareProblem(
            self.A.astype(dtype), self.B.astype(dtype),
            self.C.astype(dtype), self.D.astype(dtype),
            metadata=dict(self.metadata),
        )

    def dual(self):
        """The dual equation Y B Y - Y A - D Y + C = 0 as a NareProblem."""
        return NareProblem(self.D, self.C, self.B, self.A)

    # --- serialization -------------------------------------------------------

    def to_json(self):
        payload = {
            "m": self.m,
            "n": self.n,
            "A": self.A.tolist(),
            "B": self.B.tolist(),
            "C": self.C.tolist(),
            "D": self.D.tolist(),
        }
        if self.metadata:
            payload["metadata"] = self.metadata
        return json.dumps(payload)

    @classmethod
    def from_json(cls, text):
        """The problem of a to_json payload; InvalidProblem for any malformed
        one (bad JSON or encoding, nesting too deep to parse, a missing key,
        a ragged, non-numeric or overflowing block, a payload that is not an
        object)."""
        try:
            payload = json.loads(text)
            blocks = [np.array(payload[k], dtype=float) for k in "ABCD"]
            prob = cls(*blocks, metadata=payload.get("metadata", {}))
            declared = (payload["m"], payload["n"])
        except (ValueError, TypeError, KeyError, OverflowError, RecursionError) as exc:
            raise InvalidProblem(str(exc)) from exc
        if (prob.m, prob.n) != declared:
            raise InvalidProblem("declared m, n disagree with block shapes")
        return prob

    def save(self, path):
        with open(path, "w") as fh:
            fh.write(self.to_json())

    @classmethod
    def load(cls, path):
        with open(path, "rb") as fh:  # json.loads detects the encoding
            return cls.from_json(fh.read())


@dataclass(frozen=True)
class LinearizingMatrix:
    """The matrix [[D, -C], [B, -A]] with its block partition sizes.  Its
    ordered spectrum is kept once read: H is not to be modified in place."""

    H: np.ndarray
    n: int
    m: int

    def __post_init__(self):
        h = as_matrix(self.H, name="H")
        if h.shape != (self.n + self.m, self.n + self.m):
            raise InvalidProblem("H shape disagrees with n + m")
        object.__setattr__(self, "H", h)

    def to_problem(self):
        """Coefficient blocks read back from H (sign conventions included)."""
        h, n = self.H, self.n
        return NareProblem(-h[n:, n:], h[n:, :n], -h[:n, n:], h[:n, :n])

    @cached_property
    def _spectrum(self):  # not a field: eq, repr and replace ignore it
        ev = eigenvalues(self.H)
        return ev[np.lexsort((-ev.imag, -ev.real))]


@dataclass(frozen=True)
class MMatrixClass:
    tag: str  # "NonsingularM" | "SingularM" | "NotM"
    spectral_abscissa_evidence: float

    def is_mmatrix(self):
        return self.tag in ("NonsingularM", "SingularM")


def build_h(p: NareProblem) -> LinearizingMatrix:
    """Assemble the linearizing matrix [[D, -C], [B, -A]]."""
    h = np.block([[p.D, -p.C], [p.B, -p.A]])
    return LinearizingMatrix(h, p.n, p.m)


def build_m(p: NareProblem) -> np.ndarray:
    """Assemble [[D, -C], [-B, A]], the block matrix tested for M-structure."""
    return np.block([[p.D, -p.C], [-p.B, p.A]])


def _z_tau(diag, negated=()):
    """None unless the block matrix with square diagonal blocks diag and
    off-diagonal blocks -negated (build_m's are [D, A] and [C, B]) has
    off-diagonal entries <= 0 up to roundoff, else the certificate shift
    tau = ZERO_TOL * max(|s|, 1), s = its largest diagonal entry."""
    top = max([np.max(d, where=~np.eye(len(d), dtype=bool), initial=0.0) for d in diag]
              + [-np.min(b) for b in negated])
    if top > 1e-14 * np.sqrt(sum(frobenius_norm(b) ** 2 for b in (*diag, *negated))):
        return None
    return ZERO_TOL * max(abs(float(max(np.max(np.diag(d)) for d in diag))), 1.0)


def classify_mmatrix(m) -> MMatrixClass:
    """Classify a square matrix as nonsingular M-matrix, singular M-matrix, or neither.

    After _z_tau's sign test, the Z-matrix m = s*I - N is certified by
    solves, not eigenvalues: (m -+ tau*I) x = 1 has a solution x > 0
    exactly when s - rho(N) > +-tau: NonsingularM for m - tau*I, else
    SingularM for m + tau*I, else NotM.  The evidence is the lower bound on
    s - rho(N) the accepted x certifies: tau + 1/max(x), 1/max(x) - tau, or
    nan for NotM.
    """
    m = as_matrix(m, name="M")
    if m.shape[0] != m.shape[1]:
        raise InvalidProblem("classify_mmatrix needs a square matrix")
    tau = _z_tau([m])
    if tau is None:
        return MMatrixClass("NotM", float("nan"))
    m = m.astype(np.float64, copy=False)
    for tag, shift in (("NonsingularM", tau), ("SingularM", -tau)):
        try:
            factor = lu_factor(m - shift * np.eye(m.shape[0]), pivot_tol=0.0)
        except SingularMatrix:
            continue
        x = lu_solve(factor, np.ones(m.shape[0]))
        if np.all(np.isfinite(x)) and np.all(x > 0):
            return MMatrixClass(tag, shift + 1.0 / float(x.max()))
    return MMatrixClass("NotM", float("nan"))


def require_mmatrix(p: NareProblem, factor=None) -> MMatrixClass:
    """The solvers' guard: InvalidProblem unless build_m(p) is an M-matrix.

    With factor, H's LU, one solve of H x = J 1 (M = J H, J = diag(I, -I))
    decides first: for a Z-matrix M and x > 0, s - rho(N) >= min(M x / x)
    (in float64, as a float32 x needs; Berman and Plemmons 1994, ch. 6), so
    a bound above -tau certifies (M + tau I) x > 0, classify_mmatrix's
    SingularM test.  That bound is the evidence, tagged by the tau rule, so
    only is_mmatrix() is sure to agree with classify_mmatrix, which can
    prove NonsingularM where it says SingularM (transport n = 256, beta =
    1e-6).  Near a singular M, x is H's near-kernel direction, and roundoff
    can leave the bound just below 0 (-3.4e-15 at transport n = 512, beta =
    1e-12, with tau = 1.8e-7).  Otherwise classify_mmatrix decides."""
    tau = _z_tau([p.D, p.A], [p.C, p.B])
    if factor is not None and tau is not None:
        x = lu_solve(factor, np.repeat(np.array([1.0, -1.0], p.dtype), [p.n, p.m]))
        if np.all(np.isfinite(x)) and np.all(x > 0):
            d, c, b, a = (blk.astype(np.float64, copy=False) for blk in (p.D, p.C, p.B, p.A))
            x = x.astype(np.float64)
            xn, xm = x[:p.n], x[p.n:]  # M x by blocks, M unassembled
            bound = float(np.min(np.concatenate([d @ xn - c @ xm, a @ xm - b @ xn]) / x))
            if bound > -tau:
                return MMatrixClass("NonsingularM" if bound > tau else "SingularM", bound)
    cls = classify_mmatrix(build_m(p))
    if not cls.is_mmatrix():
        raise InvalidProblem("problem is not M-matrix-structured (override with force)")
    return cls


def residual(p: NareProblem, x) -> np.ndarray:
    """The equation residual X C X - A X - X D + B."""
    return _residual_with_size(p, x)[0]


def _residual_with_size(p: NareProblem, x):
    """(R(X), ||R(X)||_F / (||X C X + B||_F + ||A X + X D||_F)), each product
    formed once.  The size is 0.0 when the denominator is 0, which by the
    triangle inequality forces R(X) = 0 (B = 0 at X = 0, say)."""
    x = np.asarray(x)
    xcx, ax, xd = x @ p.C @ x, p.A @ x, x @ p.D
    den = frobenius_norm(xcx + p.B) + frobenius_norm(ax + xd)
    r = xcx - ax - xd + p.B
    return r, frobenius_norm(r) / den if den else 0.0


def relative_residual(p: NareProblem, x) -> float:
    """||R(X)||_F / (||X C X + B||_F + ||A X + X D||_F), the relative
    residual; 0.0 when the denominator is 0, as R(X) = 0 then."""
    return _residual_with_size(p, x)[1]


def gamma_star(p: NareProblem) -> float:
    """Optimal doubling parameter: max over the diagonals of A and D."""
    return float(max(np.max(np.diag(p.A)), np.max(np.diag(p.D))))


def cayley(z, gamma):
    """(z - gamma) / (z + gamma), infinite at the pole z = -gamma;
    InvalidProblem unless 0 < gamma < inf."""
    z = complex(z)
    if not 0.0 < gamma < np.inf:
        raise InvalidProblem(f"Cayley parameter {gamma} must be finite and > 0")
    if z == -gamma:
        return complex(np.inf, 0.0)
    w = (z - gamma) / (z + gamma)
    return w if z.imag != 0 else complex(w.real, 0.0)


def ordered_eigenvalues(h: LinearizingMatrix):
    """Eigenvalues of H sorted by descending real part (ties: descending imag),
    computed once per LinearizingMatrix; every call on h returns that array.

    Position n-1 and n of the returned array are the two eigenvalues that
    straddle the imaginary axis for an M-matrix-structured problem.
    """
    return h._spectrum

