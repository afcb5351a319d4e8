"""Dense linear-algebra primitives shared by the whole package.

Thin, contract-enforcing wrappers around LAPACK (via numpy/scipy): a
pivoted LU, thin QR with a fixed sign convention, the 1- and 2-norm, the
distance between subspaces, dense nonsymmetric eigenvalues and singular
values.  All functions are pure and accept/return plain ndarrays; float32
inputs are honored for the single-precision mode.  lu_factor,
lu_factor_cond, lu_solve and lu_inverse, the only LU entry points, call
getrf, gecon, getrs and getri directly, looked up on each call by
scipy.linalg.get_lapack_funcs, uncached, so the benchmark's tracer sees
it.  lu_factor refuses only an exact zero pivot, for the H and M -+ tau I
the shift wants nearly singular; lu_factor_cond adds gecon's estimate
for every matrix the solvers invert, and check_cond raises Breakdown
above BREAKDOWN_COND, the one rule for "too singular to invert".
The per-step kernels skip numpy's wrappers, whose dispatch costs more
than the work at small orders: thin_qr calls geqrf/orgqr, the thin
spectral_norm syevd on a k x k Gram, which that tracer does not count,
and one_norm lange up to _LANGE_MAX_SIZE entries.

both(first, second, dim) runs two halves of a step that share no data on
two threads from dim >= PAR_MIN_DIM, if the process may use two CPUs, else
in sequence; LAPACK and BLAS release the interpreter lock, and each half
makes the same calls on the same arrays as in sequence.  Its results are
the sequential ones but for gecon's estimate, cond and err_est, which
moves in its last bits with where memory lands, in sequence too (ROADMAP
item 11).  The worker thread starts on first use and is dropped in a
forked child; an error in first is raised once second is done, so errors
keep the sequential order.  The halves may share an LU factor: scipy's
getrs wrapper shifts the pivot array to 1-based and back in place with the
interpreter lock released, so two threads solving on one factor aborted
the interpreter (double free) or solved wrongly; lu_solve, and lu_inverse
for getri, pass each call a private copy of the pivots.
"""

import functools
import math
import os

import numpy as np
import scipy.linalg

from .errors import Breakdown, InvalidProblem, NoConvergence, SingularMatrix

#: 1-norm condition estimate above which a matrix to invert is refused
BREAKDOWN_COND = 1e13
#: smallest dim at which both() runs its halves on two threads, which repay the hand-off
PAR_MIN_DIM = 128
#: most entries for which one_norm calls lange: past it numpy's sum is faster
_LANGE_MAX_SIZE = 96 * 96
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
    computes it (a scalar of m's dtype) without that function's dispatch;
    a small C-ordered m by lange on m^T, which sums in numpy's order."""
    if m.flags.c_contiguous and m.size <= _LANGE_MAX_SIZE:
        lange = scipy.linalg.get_lapack_funcs("lange", (m,))
        return m.dtype.type(lange("I", m.T))
    return np.abs(m).sum(axis=0).max()


def spectral_norm(m):
    """||m||_2.  For a thin m (rows > cols), the root of the largest
    eigenvalue of its Gram m^T m, formed in float64 after an exact scaling by
    a power of two that brings the largest entry into [0.5, 1), so neither
    overflow nor underflow of the squares spoils it at any finite scale:
    within a few eps of the SVD's value.  nan or inf when m holds one (syevd
    would not propagate nan).  Other shapes by the SVD; 0.0 for an empty m."""
    m = np.asarray(m)
    if not m.size:
        return 0.0
    if m.shape[0] <= m.shape[1]:
        return float(np.linalg.norm(m, 2))
    top = float(np.abs(m).max())
    if top == 0.0 or not top < np.inf:  # zero, inf or nan
        return top
    exp = math.frexp(top)[1]
    m = np.ldexp(m.astype(np.float64, copy=False), -exp)
    gram = m.T @ m
    w = scipy.linalg.get_lapack_funcs("syevd", (gram,))(gram, compute_v=0)[0]
    return float(np.ldexp(np.sqrt(w[-1]), exp))


def lu_factor(m):
    """Pivoted LU factors (lu, piv) of a square matrix, by getrf, for the
    matrices the shift wants nearly singular: H and M -+ tau I.

    Raises SingularMatrix for non-finite entries and an exact zero pivot
    only; a matrix to invert goes to lu_factor_cond.  m is left unchanged.
    """
    m = np.asarray(m)
    if m.ndim != 2 or m.shape[0] != m.shape[1] or not m.size:
        raise InvalidProblem("lu_factor needs a nonempty square matrix")
    if not np.all(np.isfinite(m)):
        raise SingularMatrix("matrix has non-finite entries")
    lu, piv, info = scipy.linalg.get_lapack_funcs("getrf", (m,))(m)
    if info > 0:
        raise SingularMatrix(f"matrix is singular: pivot {info} is exactly zero")
    return lu, piv


def lu_factor_cond(m, **context):
    """(factor, cond, ||m^-1||_1) of a square m to be inverted: getrf's
    (lu, piv), gecon's 1-norm estimate and cond / ||m||_1, with ||m||_1
    taken once.  check_cond(cond, **context) refuses it, cond inf for a
    non-finite ||m||_1 or getrf's info > 0, an exact zero pivot."""
    anorm = one_norm(m)
    factor, cond = None, np.inf
    if anorm < np.inf:  # not for inf or nan
        lu, piv, info = scipy.linalg.get_lapack_funcs("getrf", (m,))(m)
        if info == 0:
            rcond, _ = scipy.linalg.get_lapack_funcs("gecon", (lu,))(lu, anorm)
            factor, cond = (lu, piv), 1.0 / rcond if rcond > 0 else np.inf
    check_cond(cond, **context)
    return factor, cond, float(cond / anorm)


def check_cond(cond, **context):
    """Breakdown, diagnostics context and cond_estimate, unless cond <=
    BREAKDOWN_COND; a nan cond reads as inf."""
    if not cond <= BREAKDOWN_COND:
        cond = np.inf if np.isnan(cond) else cond
        where = ", ".join(f"{key}={value}" for key, value in context.items())
        raise Breakdown(f"matrix too singular to invert ({where}): condition estimate "
                        f"{cond:.3e} > {BREAKDOWN_COND:.0e}", {**context, "cond_estimate": cond})


def lu_solve(factor, b, trans=0):
    """x with a x = b (a^T x = b for trans=1) from lu_factor's (lu, piv) of a,
    by getrs in the precision scipy's lu_solve picks; b is not overwritten."""
    lu, piv = factor  # getrs gets a private copy of piv: see both
    return scipy.linalg.get_lapack_funcs("getrs", (lu, b))(lu, piv.copy(), b, trans=trans)[0]


def lu_inverse(factor):
    """a^-1 from lu_factor's (lu, piv) of a, by getri; piv as in lu_solve."""
    lu, piv = factor
    return scipy.linalg.get_lapack_funcs("getri", (lu,))(lu, piv.copy())[0]


def thin_qr(m):
    """Thin QR with nonnegative diagonal of R (deterministic sign convention),
    by geqrf and orgqr in float64, float32 input included, as np.linalg.qr
    factors it; q and r come back in float32 for float32 m, else float64.

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
    r = np.where(_upper(cols), a[:cols], 0.0) * sign[:, None]  # np.triu, mask cached
    q = orgqr(a, tau, overwrite_a=True)[0] * sign
    if m.dtype == np.float32:
        return q.astype(np.float32), r.astype(np.float32)
    return q, r


@functools.lru_cache(maxsize=16)
def _upper(cols):
    """Read-only cols x cols mask of the upper triangle, diagonal included."""
    mask = np.triu(np.ones((cols, cols), dtype=bool))
    mask.flags.writeable = False
    return mask


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
