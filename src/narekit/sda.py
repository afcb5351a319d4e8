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

The iterates carry their own error (Guo, Lin and Xu, Numer. Math. 103,
2006):

    X - H_k = F_k X (I - G_k X)^-1 E_k,

so err_est = ||E_k||_1 ||F_k||_1 ||(I - G_{k-1} H_{k-1})^-1||_1, the
inverse norm read off the condition estimate of the factor step k already
made, estimates the relative error ||X - H_k||_1 / ||X||_1 at O(n^2) extra
cost per step.  The iteration stops when err_est <= max(tol, 10 eps); the
primal and dual residuals are taken once, after the loop.

That error lies in the ranges of E_k and F_k, which near criticality
collapse onto the slow mode: both are within 6 eps of rank 1 from step 15
of 32 on transport n = 256, beta = 1e-12, and from step 4 of 12 on random
n = 128, alpha = 1e-3.  So at min(n, m) >= TAIL_MIN_DIM sda_solve checks
each dense step's E and F against a seeded Gaussian sketch of r + 1 =
TAIL_RANK + 1 columns (O(n^2) work); once both are within TAIL_TOL_EPS eps
||.||_F of the range of its first r, the state carries them as thin (left,
right) factors to the end (E' = E (I - G H)^-1 E lies in E's row and column
spaces).  Each later step solves for r columns instead of n, and O(n^2 r)
products replace six of its eight n^3 ones.  TAIL_MIN_DIM is where that
starts to pay: with OpenBLAS on one thread of a 2-vCPU Xeon, solves took
1.20x the dense loop's time at n = 32, 0.97-1.00x at n = 48, 0.92-0.93x
at n = 64 and 0.71-0.74x at n = 128.
"""

from dataclasses import dataclass
import json
import numbers

import numpy as np
import scipy.linalg

from .core import NareProblem, gamma_star, relative_residual
from .errors import Breakdown, InitSingular, InvalidProblem, NoConvergence, SingularMatrix
from .kernel import frobenius_norm, lu_factor, lu_solve, one_norm, thin_qr

#: 1-norm condition estimate of I - G@H or I - H@G above which a step breaks down
BREAKDOWN_COND = 1e13
#: multiple of the dtype's eps below which the stopping tolerance is not taken
TOL_FLOOR_EPS = 10.0
#: smallest min(n, m) at which sda_solve looks for a low-rank tail (see above)
TAIL_MIN_DIM = 64
#: largest rank r of a factored tail (measured: rank 1; r = 8 costs 4% of a step)
TAIL_RANK = 8
#: multiple of eps ||E||_F within which E or F is thin (measured: 1.4-5.6 of rank 1)
TAIL_TOL_EPS = 8.0


@dataclass(frozen=True)
class SdaConfig:
    gamma: float = None  # default: gamma_star of the problem being initialized
    tol: float = 1e-15
    max_steps: int = 60
    trace: object = None  # callable(dict) per step: step, err_est, cond


@dataclass
class SdaState:
    """A doubling iterate.  E and F are dense, or, in sda_solve's tail, thin
    factor pairs (left, right) with E = left @ right (n x r times r x n)."""
    E: np.ndarray  # n x n
    F: np.ndarray  # m x m
    G: np.ndarray  # n x m, converges to the dual solution
    Hm: np.ndarray  # m x n, converges to the primal solution
    step: int = 0
    cond: float = np.nan  # max cond estimate of the step's two factors; nan before a step
    err_est: float = np.nan  # estimate of ||X - Hm||_1 / ||X||_1; nan before a step


@dataclass(frozen=True)
class SdaOutcome:
    X: np.ndarray  # m x n minimal nonnegative solution (limit of Hm)
    Y: np.ndarray  # n x m dual solution (limit of G)
    steps: int
    converged: bool = True
    residual: float = 0.0
    dual_residual: float = 0.0
    gamma: float = 0.0
    tail_from: int = None  # step after which E and F were thin factors

    def report(self):
        return {
            "steps": self.steps,
            "converged": self.converged,
            "residual": self.residual,
            "dual_residual": self.dual_residual,
            "gamma": self.gamma,
            "tail_from": self.tail_from,
        }


def sda_init(p: NareProblem, gamma: float) -> SdaState:
    """Cayley-transformed starting matrices.

    E0 = I - 2 gamma V^-1,   V = (D + gamma I) - C (A + gamma I)^-1 B
    F0 = I - 2 gamma W^-1,   W = (A + gamma I) - B (D + gamma I)^-1 C
    G0 = 2 gamma (D + gamma I)^-1 C W^-1
    H0 = 2 gamma W^-1 B (D + gamma I)^-1

    Each matrix is factored once; D + gamma I is solved on [C | I].
    InvalidProblem unless 0 < gamma < inf (gamma = 0 starts at a fixed point).
    """
    if not 0.0 < gamma < np.inf:
        raise InvalidProblem(f"Cayley parameter gamma={gamma} must be finite and > 0")
    dt = p.dtype
    m, n = p.m, p.n
    g = dt.type(gamma)
    eye_m, eye_n = np.eye(m, dtype=dt), np.eye(n, dtype=dt)
    a_g = p.A + g * eye_m
    d_g = p.D + g * eye_n

    def solve(mat, rhs, which):
        try:
            factor = lu_factor(mat)
        except SingularMatrix as exc:
            raise InitSingular(f"{which} is singular: {exc}", {"which": which}) from exc
        return lu_solve(factor, rhs)

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
    """LU factor of I - G@H or I - H@G, its 1-norm condition estimate and the
    1-norm of its inverse (cond / ||mat||_1); raises Breakdown when the
    estimate exceeds BREAKDOWN_COND, with cond_estimate inf on an exact zero
    pivot or non-finite entries."""
    try:
        factor = lu_factor(mat, pivot_tol=0.0)
    except SingularMatrix:
        cond = np.inf
    else:
        gecon = scipy.linalg.get_lapack_funcs("gecon", (mat,))
        anorm = one_norm(mat)
        rcond, _ = gecon(factor[0], anorm)
        cond = 1.0 / rcond if rcond > 0 else np.inf
    if cond > BREAKDOWN_COND:
        raise Breakdown(f"doubling breakdown at step {step}: "
                        f"cond(I - G@H) estimate {cond:.3e}",
                        {"step": step, "cond_estimate": cond})
    return factor, float(cond), float(cond / anorm)


def sda_step(s: SdaState) -> SdaState:
    """One doubling step; raises Breakdown when I - G@H is numerically singular
    or the new E or F overflows (a non-finite err_est).

    The inverses enter only as left factors of E and F, so each factor is
    applied once, by a transposed solve: Z_g = E (I - G H)^-1 (n columns)
    and Z_h = F (I - H G)^-1 (m columns).  Then E' = Z_g E,
    G' = G + Z_g (G F), F' = Z_h F and H' = H + Z_h (H E).  The new state's
    err_est is ||E'||_1 ||F'||_1 ||(I - G H)^-1||_1.  A factored E = El Er
    gives Z_g = El (Er (I - G H)^-1), solved on r columns; E' keeps El.
    """
    n, m = s.G.shape
    eye_n, eye_m = np.eye(n, dtype=s.G.dtype), np.eye(m, dtype=s.G.dtype)
    f_igh, cond_gh, inv_norm = _guarded_factor(eye_n - s.G @ s.Hm, s.step)
    f_ihg, cond_hg, _ = _guarded_factor(eye_m - s.Hm @ s.G, s.step)
    cond = max(cond_gh, cond_hg)
    with np.errstate(over="ignore", invalid="ignore"):  # overflow: breakdown
        if isinstance(s.E, tuple):  # E = el @ er and F = fl @ fr, of rank r
            (el, er), (fl, fr) = s.E, s.F
            w_g = lu_solve(f_igh, er.T, trans=1).T
            w_h = lu_solve(f_ihg, fr.T, trans=1).T
            e, f = (el, w_g @ el @ er), (fl, w_h @ fl @ fr)
            g = s.G + el @ (w_g @ (s.G @ fl) @ fr)
            h = s.Hm + fl @ (w_h @ (s.Hm @ el) @ er)
            e_norm, f_norm = (one_norm(left @ right) for left, right in (e, f))
        else:
            z_g = lu_solve(f_igh, s.E.T, trans=1).T
            z_h = lu_solve(f_ihg, s.F.T, trans=1).T
            e, f = z_g @ s.E, z_h @ s.F
            g, h = s.G + z_g @ (s.G @ s.F), s.Hm + z_h @ (s.Hm @ s.E)
            e_norm, f_norm = one_norm(e), one_norm(f)
        err_est = float(e_norm) * float(f_norm) * inv_norm
    if not np.isfinite(err_est):
        raise Breakdown(f"doubling breakdown at step {s.step}: E or F overflowed "
                        f"(error estimate {err_est})",
                        {"step": s.step, "cond_estimate": cond})
    return SdaState(E=e, F=f, G=g, Hm=h, step=s.step + 1, cond=cond, err_est=err_est)


def _thin(a, sketch):
    """(left, right) within TAIL_TOL_EPS eps ||a||_F of a, left r columns of the
    Q of a @ sketch, else None; sketch column r + 1 first probes for rank > r."""
    q, r = thin_qr(a @ sketch[:a.shape[1]])
    if r[-1, -1] > np.sqrt(np.finfo(a.dtype).eps) * r[0, 0]:
        return None
    left = q[:, :-1]
    right = left.T @ a
    gap = left @ right
    gap -= a  # in place: a - left @ right took 360 us, not 60, at n = 256
    tol = TAIL_TOL_EPS * float(np.finfo(a.dtype).eps) * frobenius_norm(a)
    return (left, right) if frobenius_norm(gap) <= tol else None


def sda_solve(p: NareProblem, cfg: SdaConfig = SdaConfig()) -> SdaOutcome:
    """Run the doubling iteration until err_est <= max(cfg.tol, 10 eps).

    The primal and dual residuals are taken once, after the loop, against
    p, the equation iterated.  One threshold, bound = residual_bound(p,
    cfg.tol), decides: NoConvergence when the step cap is reached with a
    primal residual above bound; otherwise the outcome is returned, with
    converged = True only if the stop rule fired and the residual is at
    most bound.  InvalidProblem unless cfg.tol is finite and cfg.max_steps
    an integer >= 1.  outcome.tail_from is the step after which E and F
    were thin factors (see the module docstring), None if they never were.
    """
    if not np.isfinite(cfg.tol):  # a NaN tol would disable the stop
        raise InvalidProblem(f"stopping tolerance {cfg.tol} must be finite")
    if not (isinstance(cfg.max_steps, numbers.Integral) and cfg.max_steps >= 1):
        raise InvalidProblem(f"step cap {cfg.max_steps!r} must be an integer >= 1")
    gamma = cfg.gamma if cfg.gamma is not None else gamma_star(p)
    tol = max(cfg.tol, TOL_FLOOR_EPS * float(np.finfo(p.dtype).eps))
    state = sda_init(p, gamma)
    converged, tail_from = False, None
    sketch = (np.random.default_rng(0).standard_normal((max(p.n, p.m), TAIL_RANK + 1))
              .astype(p.dtype) if min(p.n, p.m) >= TAIL_MIN_DIM else None)
    while state.step < cfg.max_steps:
        state = sda_step(state)
        if cfg.trace is not None:
            cfg.trace({"step": state.step, "err_est": state.err_est,
                       "cond": state.cond})
        if state.err_est <= tol:
            converged = True
            break
        if tail_from is None and sketch is not None:
            e = _thin(state.E, sketch)
            if e and (f := _thin(state.F, sketch)):
                state.E, state.F, tail_from = e, f, state.step
    res, bound = relative_residual(p, state.Hm), residual_bound(p, cfg.tol)
    if not converged and res > bound:
        raise NoConvergence(
            f"doubling did not converge in {cfg.max_steps} steps "
            f"(error estimate {state.err_est:.3e}, relative residual {res:.3e})",
            diagnostics={"err_est": state.err_est, "residual": float(res)},
        )
    dual_res = relative_residual(p.dual(), state.G)
    return SdaOutcome(
        X=state.Hm, Y=state.G, steps=state.step, tail_from=tail_from,
        converged=converged and res <= bound,
        residual=float(res), dual_residual=float(dual_res), gamma=float(gamma),
    )


def residual_bound(p: NareProblem, tol):
    """Largest relative residual a converged solve reports: 100 max(tol, (n+m) eps)."""
    return 100.0 * max(tol, (p.n + p.m) * float(np.finfo(p.dtype).eps))


def trace_writer(stream):
    """A cfg.trace callable that emits one JSON line per step."""
    def emit(record):
        stream.write(json.dumps(record) + "\n")
    return emit
