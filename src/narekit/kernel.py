"""Dense linear-algebra primitives shared by the whole package.

Thin, contract-enforcing wrappers around LAPACK (via numpy/scipy): a
guarded pivoted LU, thin QR with a fixed sign convention, the 1- and
2-norm, the distance between subspaces, dense nonsymmetric eigenvalues and
singular values.  All functions are pure and accept/return plain ndarrays;
float32 inputs are honored for the single-precision mode.  lu_factor and
lu_solve, the only LU entry points, call getrf/getrs directly, looked up
on each call by scipy.linalg.get_lapack_funcs, uncached, so the
benchmark's tracer sees it.  The per-step kernels on N x k iterates skip
numpy's wrappers, whose dispatch costs more than the work: thin_qr calls
geqrf/orgqr and the thin spectral_norm syevd on a k x k Gram, which that
tracer does not count.

both(first, second, dim) runs two halves of a step that share no data on
two threads from dim >= PAR_MIN_DIM, if the process may use two CPUs, else
in sequence; LAPACK and BLAS release the interpreter lock, and each half
makes the calls, so gets the bits, it makes in sequence.  With OpenBLAS on
one thread of a 2-vCPU Xeon a dense doubling step took 1.00-1.76x its
sequential time at n = 64, 0.70-0.78x at 96 and 0.43-0.53x at 256, and a
rank-8 tail step first gained at 128 (0.85-1.22x).  The worker thread
starts on first use and is dropped in a forked child; an error in first is
raised once second is done, so errors keep the sequential order.
"""

import functools
import os

import numpy as np
import scipy.linalg

from .errors import InvalidProblem, NoConvergence, SingularMatrix

#: smallest dim at which both() runs its halves on two threads (see above)
PAR_MIN_DIM = 128
_cpus = getattr(os, "sched_getaffinity", lambda _: range(os.cpu_count() or 1))


@functools.cache
def _worker():
    from concurrent.futures import ThreadPoolExecutor  # 6 ms to import
    return ThreadPoolExecutor(1)


os.register_at_fork(after_in_child=_worker.cache_clear)


def both(first, second, dim):
    """(first(), second()), second on the worker thread under the caller's
    numpy error state when dim >= PAR_MIN_DIM; second must not call both."""
    if dim < PAR_MIN_DIM or len(_cpus(0)) < 2:
        return first(), second()
    future = _worker().submit(np.errstate(**np.geterr())(second))
    try:
        out = first()
    except BaseException:
        future.exception()  # waits for second
        raise
    return out, future.result()


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


def one_norm(m):
    """||m||_1, the largest column sum of |m|, as np.linalg.norm(m, 1)
    computes it (a scalar of m's dtype) without that function's dispatch."""
    return np.abs(m).sum(axis=0).max()


def spectral_norm(m):
    """||m||_2.  For a thin m (rows > cols), the root of the largest
    eigenvalue of its Gram m^T m, formed in float64 after an exact scaling by
    a power of two that brings the largest entry into [0.5, 1), so neither
    overflow nor underflow of the squares spoils it at any finite scale:
    within a few eps of the SVD's value.  nan or inf when m holds one (syevd
    would not propagate nan).  Other shapes by the SVD."""
    m = np.asarray(m)
    if m.shape[0] <= m.shape[1]:
        return float(np.linalg.norm(m, 2))
    top = float(np.abs(m).max())
    if top == 0.0 or not np.isfinite(top):
        return top
    exp = int(np.frexp(top)[1])
    m = np.ldexp(m.astype(np.float64, copy=False), -exp)
    gram = m.T @ m
    w = scipy.linalg.get_lapack_funcs("syevd", (gram,))(gram, compute_v=0)[0]
    return float(np.ldexp(np.sqrt(w[-1]), exp))


def lu_factor(m, pivot_tol=None):
    """Guarded pivoted LU factors (lu, piv) of a square matrix, by getrf.

    Raises SingularMatrix for non-finite entries and when the smallest pivot
    modulus is zero or below pivot_tol, which defaults to eps * ||m||_F * dim.
    pivot_tol=0.0 rejects only an exact zero pivot, for inverse iteration,
    which wants a nearly singular matrix.  m is left unchanged.
    """
    m = np.asarray(m)
    if m.ndim != 2 or m.shape[0] != m.shape[1] or not m.size:
        raise InvalidProblem("lu_factor needs a nonempty square matrix")
    if not np.all(np.isfinite(m)):
        raise SingularMatrix("matrix has non-finite entries")
    if pivot_tol is None:
        pivot_tol = float(np.finfo(m.dtype).eps) * frobenius_norm(m) * m.shape[0]
    lu, piv, _ = scipy.linalg.get_lapack_funcs("getrf", (m,))(m)
    small = np.abs(np.diag(lu)).min()
    if small < pivot_tol or small == 0.0:
        raise SingularMatrix(f"matrix is numerically singular: smallest pivot "
                             f"{small:.3e}, threshold {pivot_tol:.3e}")
    return lu, piv


def lu_solve(factor, b, trans=0):
    """x with a x = b (a^T x = b for trans=1) from lu_factor's (lu, piv) of a,
    by getrs in the precision scipy's lu_solve picks; b is not overwritten."""
    lu, piv = factor
    return scipy.linalg.get_lapack_funcs("getrs", (lu, b))(lu, piv, b, trans=trans)[0]


def thin_qr(m):
    """Thin QR with nonnegative diagonal of R (deterministic sign convention),
    by geqrf and orgqr in float64, float32 input included, as np.linalg.qr
    factors it; q and r come back in m's precision.

    No rank check: inverse iteration and the moduli probe feed it iterates
    that are close to rank deficient on purpose, and sda._thin a sketch of
    a matrix whose rank it is testing.
    """
    m = np.asarray(m)
    rows, cols = m.shape
    if rows < cols:
        raise InvalidProblem("thin_qr needs rows >= cols")
    a = np.array(m, dtype=np.float64, order="F")  # a copy, factored in place
    geqrf, orgqr = scipy.linalg.get_lapack_funcs(("geqrf", "orgqr"), (a,))
    a, tau = geqrf(a, overwrite_a=True)[:2]
    sign = np.sign(a.diagonal())
    sign[sign == 0] = 1.0
    r = np.triu(a[:cols]) * sign[:, None]
    q = orgqr(a, tau, overwrite_a=True)[0] * sign
    out = np.result_type(m.dtype, np.float32)
    return q.astype(out, copy=False), r.astype(out, copy=False)


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


def cond_uv(u, v) -> float:
    """||(U^T V)^-1||_2 = 1 / sigma_min(U^T V), the conditioning of a pair of
    left and right bases of equal shape; inf when U^T V is exactly singular,
    as a Cayley transform is at its pole."""
    if np.shape(u) != np.shape(v):
        raise InvalidProblem("U and V must have the same shape")
    uv = np.asarray(u).T @ np.asarray(v)
    smin = smallest_singular_value(uv)
    return 1.0 / smin if smin > 0 else np.inf


def eigenvalues(m):
    """All eigenvalues of a square dense matrix, as a complex 1-d array."""
    return _eig(np.linalg.eigvals, m)


def eigenpairs(m):
    """(w, c) with m c = c diag(w): the eigenvalues and right eigenvectors
    of a square dense matrix."""
    return tuple(_eig(np.linalg.eig, m))


def _eig(decompose, m):
    m = np.asarray(m)
    if m.shape[0] != m.shape[1]:
        raise InvalidProblem("eigenvalues needs a square matrix")
    try:
        return decompose(m.astype(np.float64, copy=False))
    except np.linalg.LinAlgError as exc:  # QR iteration failed to converge
        raise NoConvergence(str(exc)) from exc


def smallest_singular_value(m):
    """sigma_min(m); 0.0 is a valid return for singular input."""
    sv = np.linalg.svd(np.asarray(m), compute_uv=False)
    return float(sv[-1]) if sv.size else 0.0
