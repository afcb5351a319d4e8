"""Structured doubling iteration with Cayley initialization.

One doubling step maps (E, F, G, H) to

    E <- E (I - G H)^-1 E
    F <- F (I - H G)^-1 F
    G <- G + E (I - G H)^-1 G F
    H <- H + F (I - H G)^-1 H E

started from the Cayley-transformed coefficients.  The m x n iterate H_k
converges to the minimal nonnegative solution X of the primal equation and
the n x m iterate G_k to the solution Y of the dual equation.  Convergence
is quadratic with rate equal to the Cayley-transformed spectral gap of the
linearizing matrix; close-to-critical problems push that rate toward 1,
which is what the subspace shift in :mod:`narekit.shift` repairs.
"""

from dataclasses import dataclass, field
import json

import numpy as np
import scipy.linalg

from .core import (
    LinearizingMatrix,
    NareProblem,
    cayley,
    gamma_star,
    ordered_eigenvalues,
    relative_residual,
)
from .errors import (
    Breakdown,
    ClassificationAmbiguous,
    InitSingular,
    NoConvergence,
    SingularMatrix,
)
from .kernel import frobenius_norm, lu_factor, lu_solve

#: 1-norm condition estimate of I - G@H or I - H@G above which a step breaks down
BREAKDOWN_COND = 1e13


@dataclass(frozen=True)
class SdaConfig:
    gamma: float = None  # default: gamma_star of the problem being initialized
    tol: float = 1e-15
    max_steps: int = 60
    trace: object = None  # callable(dict) per step: step, delta_rel, residual, cond


@dataclass
class SdaState:
    E: np.ndarray  # n x n
    F: np.ndarray  # m x m
    G: np.ndarray  # n x m, converges to the dual solution
    Hm: np.ndarray  # m x n, converges to the primal solution
    step: int = 0
    cond: float = np.nan  # max cond estimate of the step's two factors; nan before a step


@dataclass(frozen=True)
class SdaOutcome:
    X: np.ndarray  # m x n minimal nonnegative solution (limit of Hm)
    Y: np.ndarray  # n x m dual solution (limit of G)
    steps: int
    residual_history: list = field(repr=False)
    converged: bool = True
    residual: float = 0.0
    dual_residual: float = 0.0
    gamma: float = 0.0

    def report(self):
        return {
            "steps": self.steps,
            "converged": self.converged,
            "residual": self.residual,
            "dual_residual": self.dual_residual,
            "gamma": self.gamma,
        }


def sda_init(p: NareProblem, gamma: float) -> SdaState:
    """Cayley-transformed starting matrices.

    E0 = I - 2 gamma V^-1,   V = (D + gamma I) - C (A + gamma I)^-1 B
    F0 = I - 2 gamma W^-1,   W = (A + gamma I) - B (D + gamma I)^-1 C
    G0 = 2 gamma (D + gamma I)^-1 C W^-1
    H0 = 2 gamma W^-1 B (D + gamma I)^-1

    Each matrix is factored once; D + gamma I is solved on [C | I].
    """
    dt = p.dtype
    m, n = p.m, p.n
    g = dt.type(gamma)
    eye_m, eye_n = np.eye(m, dtype=dt), np.eye(n, dtype=dt)
    a_g = p.A + g * eye_m
    d_g = p.D + g * eye_n

    def solve(mat, rhs, which):
        try:
            return lu_solve(mat, rhs)
        except SingularMatrix as exc:
            raise InitSingular(which, f"{which} is singular: {exc}") from exc

    dg_sol = solve(d_g, np.hstack([p.C, eye_n]), "D+gamma*I")
    dg_inv_c, dg_inv = dg_sol[:, :m], dg_sol[:, m:]
    ag_inv_b = solve(a_g, p.B, "A+gamma*I")
    w = a_g - p.B @ dg_inv_c
    v = d_g - p.C @ ag_inv_b
    e0 = eye_n - 2 * g * solve(v, eye_n, "V_gamma")
    w_inv = solve(w, eye_m, "W_gamma")
    f0 = eye_m - 2 * g * w_inv
    g0 = 2 * g * dg_inv_c @ w_inv
    h0 = 2 * g * w_inv @ p.B @ dg_inv
    return SdaState(E=e0, F=f0, G=g0, Hm=h0, step=0)


def _guarded_factor(mat, step):
    """LU factor of I - G@H or I - H@G and its 1-norm condition estimate;
    raises Breakdown(step, cond) when the estimate exceeds BREAKDOWN_COND,
    and Breakdown(step, inf) on an exact zero pivot or non-finite entries."""
    try:
        factor = lu_factor(mat, pivot_tol=0.0)
    except SingularMatrix:
        raise Breakdown(step, np.inf) from None
    gecon = scipy.linalg.get_lapack_funcs("gecon", (mat,))
    rcond, _ = gecon(factor[0], np.linalg.norm(mat, 1))
    cond = 1.0 / rcond if rcond > 0 else np.inf
    if cond > BREAKDOWN_COND:
        raise Breakdown(step, cond)
    return factor, float(cond)


def sda_step(s: SdaState) -> SdaState:
    """One doubling step; raises Breakdown when I - G@H is numerically singular.

    The inverses enter only as left factors of E and F, so each factor is
    applied once, by a transposed solve: Z_g = E (I - G H)^-1 (n columns)
    and Z_h = F (I - H G)^-1 (m columns).  Then E' = Z_g E,
    G' = G + Z_g (G F), F' = Z_h F and H' = H + Z_h (H E).
    """
    n, m = s.G.shape
    f_igh, cond_gh = _guarded_factor(np.eye(n, dtype=s.G.dtype) - s.G @ s.Hm, s.step)
    f_ihg, cond_hg = _guarded_factor(np.eye(m, dtype=s.G.dtype) - s.Hm @ s.G, s.step)
    z_g = scipy.linalg.lu_solve(f_igh, s.E.T, trans=1, check_finite=False).T
    z_h = scipy.linalg.lu_solve(f_ihg, s.F.T, trans=1, check_finite=False).T
    return SdaState(E=z_g @ s.E, F=z_h @ s.F, G=s.G + z_g @ (s.G @ s.F),
                    Hm=s.Hm + z_h @ (s.Hm @ s.E), step=s.step + 1,
                    cond=max(cond_gh, cond_hg))


def sda_solve(p: NareProblem, cfg: SdaConfig = SdaConfig(),
              residual_problem: NareProblem = None) -> SdaOutcome:
    """Run the doubling iteration to convergence.

    residual_problem, when given, is the equation the primal residual is
    measured against; a shifted solve passes the original problem here,
    since both share the minimal solution.  The dual residual is always
    measured against p's dual: the shift keeps right invariant subspaces
    only, so G converges to the dual solution of the equation iterated.

    Stops when the relative change of the primal iterate drops below
    cfg.tol, or earlier when the relative residual stagnates at its
    attainable floor (stagnation detection only arms once the residual is
    already below max(100*tol, 1e-10), so slow linear phases are not cut
    short).
    """
    gamma = cfg.gamma if cfg.gamma is not None else gamma_star(p)
    target = residual_problem if residual_problem is not None else p
    state = sda_init(p, gamma)
    history = []
    prev_res = np.inf
    stagnation_floor = max(100.0 * cfg.tol, 1e-10)
    converged = False
    while state.step < cfg.max_steps:
        new = sda_step(state)
        dx = frobenius_norm(new.Hm - state.Hm) / max(frobenius_norm(new.Hm),
                                                     np.finfo(np.float64).tiny)
        state = new
        res = relative_residual(target, state.Hm)
        history.append(res)
        if cfg.trace is not None:
            cfg.trace({"step": state.step, "delta_rel": float(dx),
                       "residual": float(res), "cond": state.cond})
        if dx <= cfg.tol:
            converged = True
            break
        if prev_res <= stagnation_floor and res > 0.9 * prev_res:
            converged = True
            break
        prev_res = res
    final_res = history[-1] if history else np.inf
    if not converged and final_res > cfg.tol * 100:
        raise NoConvergence(
            f"doubling did not converge in {cfg.max_steps} steps "
            f"(relative residual {final_res:.3e})",
            diagnostics={"residual_history": history},
        )
    dual_res = relative_residual(p.dual(), state.G)
    return SdaOutcome(
        X=state.Hm, Y=state.G, steps=state.step, residual_history=history,
        converged=converged, residual=float(final_res),
        dual_residual=float(dual_res), gamma=float(gamma),
    )


def predicted_rate(h: LinearizingMatrix, gamma: float) -> float:
    """Quadratic convergence rate of the doubling iteration on H.

    max over the n antistable eigenvalues of |cayley| divided by the min
    over the m stable ones; for M-matrix-structured problems this reduces
    to the ratio at the two boundary eigenvalues.
    """
    lam = ordered_eigenvalues(h)
    anti, stab = lam[: h.n], lam[h.n:]
    scale = frobenius_norm(h.H)
    if anti.size and stab.size:
        if anti[-1].real < -1e-8 * scale or stab[0].real > 1e-8 * scale:
            raise ClassificationAmbiguous(
                "eigenvalues do not split n antistable / m stable"
            )
    num = max(abs(cayley(z, gamma)) for z in anti)
    if num == 0.0:
        # an exact Cayley zero on the antistable side; skip the stable
        # minimum, which may sit at the transform's pole
        return 0.0
    den = min(abs(cayley(z, gamma)) for z in stab)
    return float(num / den)


def trace_writer(stream):
    """A cfg.trace callable that emits one JSON line per step."""
    def emit(record):
        stream.write(json.dumps(record) + "\n")
    return emit
