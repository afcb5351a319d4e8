"""Reference quantities the tests check the solvers against."""

import numpy as np

from narekit.core import LinearizingMatrix, ordered_eigenvalues
from narekit.kernel import frobenius_norm

#: largest imaginary part, relative to ||H||_F, of a boundary eigenvalue
#: that central_real_pair still takes as real
REAL_PAIR_TOL = 1e-10


def relative_error(x_approx, x_ref) -> float:
    """||X~ - X*||_F / ||X*||_F; ValueError on differing shapes or X* = 0."""
    x_approx = np.asarray(x_approx)
    x_ref = np.asarray(x_ref)
    if x_approx.shape != x_ref.shape:
        raise ValueError("shapes of the two solutions differ")
    ref = frobenius_norm(x_ref)
    if ref == 0.0:
        raise ValueError("reference solution has zero norm")
    return frobenius_norm(x_approx - x_ref) / ref


def central_real_pair(h: LinearizingMatrix):
    """(lambda_n, lambda_{n+1}) as reals; they are real for M-NARE problems."""
    lam = ordered_eigenvalues(h)
    scale = frobenius_norm(h.H)
    pair = lam[h.n - 1], lam[h.n]
    for v in pair:
        if abs(v.imag) > REAL_PAIR_TOL * scale:
            raise ValueError(f"boundary eigenvalue {v} is not real within tolerance")
    return float(pair[0].real), float(pair[1].real)


def solution_distance_bound(x, xt, dist) -> float:
    """sqrt(n + ||X||_F^2) * sqrt(n + ||X~||_F^2) * dist.

    Frobenius form of the bound relating the solution difference to the
    distance between the invariant subspaces spanned by [I; X] and [I; X~].
    """
    x = np.asarray(x)
    xt = np.asarray(xt)
    if x.shape != xt.shape:
        raise ValueError("shapes of the two solutions differ")
    n = x.shape[1]
    return float(
        np.sqrt(n + frobenius_norm(x) ** 2)
        * np.sqrt(n + frobenius_norm(xt) ** 2)
        * dist
    )
