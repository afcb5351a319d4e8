"""Dense linear-algebra primitives shared by the whole package.

Thin, contract-enforcing wrappers around LAPACK (via numpy/scipy): a
guarded pivoted LU, thin QR with a fixed sign convention, the distance
between subspaces, dense nonsymmetric eigenvalues and singular values.
All functions are pure and accept/return plain ndarrays; float32 inputs
are honored for the single-precision mode.
"""

import numpy as np
import scipy.linalg

from .errors import InvalidProblem, NoConvergence, SingularMatrix


def as_matrix(a, name="matrix"):
    """Validate and return a 2-d float array with finite entries."""
    m = np.asarray(a)
    if m.dtype not in (np.float32, np.float64):
        m = m.astype(np.float64)
    if m.ndim != 2:
        raise InvalidProblem(f"{name} must be 2-dimensional, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise InvalidProblem(f"{name} contains NaN or Inf entries")
    return m


def frobenius_norm(m):
    return float(np.linalg.norm(m, "fro"))


def spectral_norm(m):
    return float(np.linalg.norm(m, 2))


def _eps(dtype):
    return float(np.finfo(np.dtype(dtype)).eps)


def lu_factor(m, pivot_tol=None, error=SingularMatrix):
    """Guarded pivoted LU factors (lu, piv) of a square matrix.

    Raises `error` for non-finite entries and when the smallest pivot
    modulus is zero or below pivot_tol, which defaults to eps * ||m||_F * dim.
    pivot_tol=0.0 rejects only an exact zero pivot, for inverse iteration,
    which wants a nearly singular matrix.
    """
    m = np.asarray(m)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise InvalidProblem("lu_factor needs a square matrix")
    if not np.all(np.isfinite(m)):
        raise error("matrix has non-finite entries")
    n = m.shape[0]
    if pivot_tol is None:
        pivot_tol = _eps(m.dtype) * frobenius_norm(m) * n
    lu, piv = scipy.linalg.lu_factor(m, check_finite=False)
    small = np.abs(np.diag(lu)).min() if n else np.inf
    if small < pivot_tol or small == 0.0:
        raise error(f"matrix is numerically singular: smallest pivot {small:.3e}, "
                    f"threshold {pivot_tol:.3e}")
    return lu, piv


def thin_qr(m):
    """Thin QR with nonnegative diagonal of R (deterministic sign convention).

    No rank check: inverse iteration, its only use, feeds it iterates that
    are close to rank deficient on purpose.
    """
    m = np.asarray(m)
    rows, cols = m.shape
    if rows < cols:
        raise InvalidProblem("thin_qr needs rows >= cols")
    q, r = np.linalg.qr(m)
    sign = np.sign(np.diag(r))
    sign[sign == 0] = 1.0
    q = q * sign
    r = sign[:, None] * r
    return q, r


def subspace_distance(b1, b2) -> float:
    """Spectral-norm distance ||P1 - P2||_2 between the orthogonal projectors
    of two orthonormal bases, computed thinly as ||B1 - B2 (B2^T B1)||_2
    with B1 the wider basis (for unequal widths the distance is 1)."""
    b1 = np.asarray(b1)
    b2 = np.asarray(b2)
    if b1.shape[0] != b2.shape[0]:
        raise InvalidProblem("bases live in different ambient dimensions")
    if b1.shape[1] < b2.shape[1]:
        b1, b2 = b2, b1
    return spectral_norm(b1 - b2 @ (b2.T @ b1))


def coupling_cond(u, v) -> float:
    """||(U^T V)^-1||_2 = 1 / sigma_min(U^T V), the conditioning of a pair of
    left and right bases; inf when U^T V is exactly singular."""
    uv = np.asarray(u).T @ np.asarray(v)
    if uv.shape[0] != uv.shape[1]:
        raise InvalidProblem("U^T V must be square")
    smin = smallest_singular_value(uv)
    return 1.0 / smin if smin > 0 else np.inf


def eigenvalues(m):
    """All eigenvalues of a square dense matrix, as a complex 1-d array."""
    m = np.asarray(m)
    if m.shape[0] != m.shape[1]:
        raise InvalidProblem("eigenvalues needs a square matrix")
    try:
        return np.linalg.eigvals(m.astype(np.float64, copy=False))
    except np.linalg.LinAlgError as exc:  # QR iteration failed to converge
        raise NoConvergence(str(exc)) from exc


def smallest_singular_value(m):
    """sigma_min(m); 0.0 is a valid return for singular input."""
    sv = np.linalg.svd(np.asarray(m), compute_uv=False)
    return float(sv[-1]) if sv.size else 0.0
