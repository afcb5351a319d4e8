"""Criticality and conditioning metrics of the linearizing matrix, one
implementation each; gap, cayley and delta read its one ordered spectrum.

gap       |lambda_n - lambda_{n+1}|, the distance between the two
          eigenvalues straddling the imaginary axis.
cayley    max antistable / min stable modulus after the Cayley transform;
          this is the quadratic convergence factor of the doubling solver.
sep       smallest singular value of the Sylvester operator
          X -> M X - X N; always a lower bound of the minimal
          eigenvalue-pair distance, and equal to it for normal matrices.
          Found by trsyl solves on the real Schur forms of M and N (Byers,
          IEEE Trans. Automat. Control 29, 1984), with no Kronecker matrix.
relsep    sep of the (A11, A22) blocks of a unitary reduction of H along
          an invariant subspace, divided by ||H||_F.
delta     minimum distance from the central eigenvalues to the rest of
          the spectrum; large delta with small gap is the regime where
          the subspace shift pays off.
cond_uv   ||(U^T V)^-1||_2 = 1 / sigma_min(U^T V) for the left and right
          central bases, measured by kernel.cond_uv (narekit.cond_uv) when a
          CentralSubspaces is built; report_for reports it, refusing nothing.
"""

from dataclasses import asdict, dataclass
import json

import numpy as np
import scipy.linalg

from .core import LinearizingMatrix, cayley, ordered_eigenvalues
from .errors import InvalidProblem, MatchFailure, NoConvergence, NotInvariant
from .kernel import frobenius_norm

#: step cap of the Lanczos iteration in sep_f
SEP_MAX_STEPS = 5000
#: sep_f stops once a step raises the Ritz value by at most this fraction
SEP_RTOL = 1e-14
#: largest distance, relative to max(||H||_F, 1), from a claimed central
#: eigenvalue to the spectrum point it is matched to
MATCH_TOL = 1e-6
#: largest relative invariance defect that relsep_of_subspace accepts
DEFECT_TOL = 1e-8


def gap_of(h: LinearizingMatrix) -> float:
    """|lambda_n - lambda_{n+1}| under the descending-real-part ordering."""
    lam = ordered_eigenvalues(h)
    return float(abs(lam[h.n - 1] - lam[h.n]))


def cayley_gap(h: LinearizingMatrix, gamma: float) -> float:
    """max_i |C_gamma(lambda_i)| / min_j |C_gamma(lambda_{n+j})|, the
    quadratic convergence rate of doubling on H.

    The general form: valid for shifted matrices, where the extremal
    eigenvalues need not be the two central ones.  InvalidProblem
    unless the spectrum splits into n antistable and m stable eigenvalues.
    """
    lam = ordered_eigenvalues(h)
    scale = frobenius_norm(h.H)
    if lam[h.n - 1].real < -1e-8 * scale or lam[h.n].real > 1e-8 * scale:
        raise InvalidProblem("spectrum does not split n antistable / m stable")
    num = max(abs(cayley(z, gamma)) for z in lam[: h.n])
    den = min(abs(cayley(z, gamma)) for z in lam[h.n:])
    return float(num / den)


def sep_f(m, n) -> float:
    """sigma_min of T: X -> M X - X N, the separation of M and N.

    Lanczos iteration on (T^T T)^-1 in the coordinates of the real Schur
    forms Tm, Tn, which leave the singular values of T unchanged: one step
    solves Tm^T U - U Tn^T = V, then Tm Z - Z Tn = U, with LAPACK trsyl.
    The largest Ritz value grows to 1/sigma_min^2.  The Schur forms carry a
    backward error of about eps (||M||_F + ||N||_F), which the Ritz value
    inherits, so the answer is ||M X - X N||_F / ||X||_F at the Ritz vector
    X mapped back by the Schur vectors, formed in long double on M and N
    themselves: an upper bound of sigma_min with an error quadratic in the
    vector's.  0.0 when T is numerically singular.
    """
    m, n = (np.asarray(a, dtype=np.float64) for a in (m, n))
    if any(a.ndim != 2 or a.shape[0] != a.shape[1] for a in (m, n)):
        raise InvalidProblem("sep_f needs square matrices")
    if not m.size * n.size:
        return 0.0
    (tm, qm), (tn, qn) = (scipy.linalg.schur(a, output="real") for a in (m, n))
    trsyl = scipy.linalg.get_lapack_funcs("trsyl", (tm, tn))
    v = np.full((len(m), len(n)), 1.0 / np.sqrt(len(m) * len(n)))
    v_prev, b = np.zeros_like(v), 0.0
    alpha, beta, theta, basis = [], [], 0.0, []
    for step in range(1, SEP_MAX_STEPS + 1):
        basis.append(v)
        u, scale_u, info_u = trsyl(tm, tn, v, trana="T", tranb="T", isgn=-1)
        w, scale_w, info_w = trsyl(tm, tn, u, isgn=-1)
        w /= scale_u * scale_w
        if info_u or info_w or not np.all(np.isfinite(w)):
            return 0.0  # trsyl perturbed a (near-)common eigenvalue, or overflow
        alpha.append(float(np.vdot(v, w)))
        w -= alpha[-1] * v + b * v_prev
        new, ritz = scipy.linalg.eigh_tridiagonal(
            alpha, beta, select="i", select_range=(step - 1, step - 1))
        b = frobenius_norm(w)
        if new[0] - theta <= SEP_RTOL * new[0] or b == 0.0:
            x = (qm @ np.tensordot(ritz[:, 0], basis, axes=1) @ qn.T).astype(np.longdouble)
            r = m.astype(np.longdouble) @ x - x @ n.astype(np.longdouble)
            return float(np.sqrt(np.sum(r * r) / np.sum(x * x)))
        theta = new[0]
        beta.append(b)
        v_prev, v = v, w / b
    raise NoConvergence(f"sep_f: no convergence in {SEP_MAX_STEPS} steps", diagnostics={
        "steps": SEP_MAX_STEPS, "estimate": float(1.0 / np.sqrt(theta))})


def schur_basis(m, select):
    """Orthonormal basis of the invariant subspace of the eigenvalues picked
    by select(re, im) -> bool, from a sorted real Schur decomposition."""
    t, z, sdim = scipy.linalg.schur(np.asarray(m), output="real", sort=select)
    if sdim == 0:
        raise InvalidProblem("no eigenvalue satisfies the selection predicate")
    return z[:, :sdim]


def stable_basis(m):
    """Orthonormal basis of the invariant subspace of the left-half-plane
    eigenvalues."""
    return schur_basis(m, lambda re, im: re < 0)


def _complete_basis(basis):
    """Unitary [basis | complement]; the complement from a full QR."""
    k = basis.shape[1]
    q, _ = np.linalg.qr(basis, mode="complete")
    return np.hstack([basis, q[:, k:]])


def relsep_of_subspace(h, basis) -> float:
    """sep(A11, A22) / ||H||_F for the unitary reduction of h along basis.

    basis must have orthonormal columns spanning an invariant subspace of
    h; the invariance defect ||h V - V (V^T h V)||_F / ||h||_F is checked
    against DEFECT_TOL.
    """
    h = np.asarray(h)
    basis = np.asarray(basis)
    k = basis.shape[1]
    scale = frobenius_norm(h)
    compressed = basis.T @ h @ basis
    defect = frobenius_norm(h @ basis - basis @ compressed) / scale
    if defect > DEFECT_TOL:
        raise NotInvariant(f"invariance defect {defect:.3e} exceeds tolerance "
                           f"{DEFECT_TOL:.1e}", {"defect": defect})
    q = _complete_basis(basis)
    t = q.T @ h @ q
    a11, a22 = t[:k, :k], t[k:, k:]
    return sep_f(a11, a22) / scale


def delta_central(h: LinearizingMatrix, central_eigs) -> float:
    """Minimum distance from the central eigenvalues to the rest of sigma(H).

    Each claimed central eigenvalue is matched greedily to its nearest
    spectrum point; a match farther than MATCH_TOL (relative to ||H||_F)
    raises MatchFailure.
    """
    lam = ordered_eigenvalues(h)
    scale = frobenius_norm(h.H)
    central = np.atleast_1d(np.asarray(central_eigs, dtype=complex))
    remaining, matched = list(range(lam.size)), []
    for c in central:
        dists = np.abs(lam[remaining] - c)
        j = int(np.argmin(dists))
        if dists[j] > MATCH_TOL * max(scale, 1.0):
            raise MatchFailure(f"central eigenvalue {c} is {dists[j]:.3e} "
                               "from the spectrum")
        matched.append(remaining.pop(j))
    others = lam[remaining]
    if others.size == 0:
        raise InvalidProblem("no non-central eigenvalues to measure against")
    return float(min(np.min(np.abs(others - lam[i])) for i in matched))


@dataclass(frozen=True)
class DiagnosticsReport:
    """Per-problem criticality metrics, serializable to JSON or a text table."""

    gap: float
    cayley_gap: float
    sep_f_stable: float = None
    relsep_stable: float = None
    relsep_central: float = None
    delta_central: float = None
    cond_uv: float = None
    lambda_n: float = None
    lambda_n1: float = None

    _COLUMNS = (
        ("gap", "gap"),
        ("cayley_gap", "gap_C"),
        ("sep_f_stable", "sep(W)"),
        ("relsep_stable", "rsep(W)"),
        ("relsep_central", "rsep(U)"),
        ("delta_central", "delta"),
        ("cond_uv", "cond(UV)"),
        ("lambda_n", "lam_n"),
        ("lambda_n1", "lam_n+1"),
    )

    def to_json(self):
        return json.dumps(asdict(self))

    def to_table(self):
        """Two aligned rows, header and values, skipping absent metrics."""
        cells = [
            (label, f"{getattr(self, name):.2e}")
            for name, label in self._COLUMNS
            if getattr(self, name) is not None
        ]
        widths = [max(len(a), len(b)) for a, b in cells]
        head = "  ".join(label.rjust(w) for (label, _), w in zip(cells, widths))
        vals = "  ".join(value.rjust(w) for (_, value), w in zip(cells, widths))
        return head + "\n" + vals


def report_for(h: LinearizingMatrix, gamma, stable_basis=None,
               central_pair=None) -> DiagnosticsReport:
    """Assemble a DiagnosticsReport from whatever pieces the caller has.

    gap_of, cayley_gap and delta_central give their metrics, so a spectrum
    that does not split raises InvalidProblem, as cayley_gap does.
    stable_basis: orthonormal basis of the stable invariant subspace, used
    for sep/relsep.  central_pair: a CentralSubspaces instance, used for
    relsep of the central subspace and delta; its cond_uv, which its
    construction capped, is reported as it stands.
    """
    lam = ordered_eigenvalues(h)
    kwargs = {
        "gap": gap_of(h),
        "cayley_gap": cayley_gap(h, gamma),
        "lambda_n": float(lam[h.n - 1].real),
        "lambda_n1": float(lam[h.n].real),
    }
    if stable_basis is not None:
        rs = relsep_of_subspace(h.H, stable_basis)
        kwargs["relsep_stable"] = rs
        kwargs["sep_f_stable"] = rs * frobenius_norm(h.H)
    if central_pair is not None:
        kwargs["relsep_central"] = relsep_of_subspace(h.H, central_pair.V)
        kwargs["delta_central"] = delta_central(h, central_pair.central_eigs)
        kwargs["cond_uv"] = central_pair.cond_uv
    return DiagnosticsReport(**kwargs)
