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
made (exact in the tail, below), estimates the relative error
||X - H_k||_1 / ||X||_1 at O(n^2) extra cost per step.  A step is two
halves that share no data, E' and G' from I - G H and F' and H' from
I - H G; from min(n, m) >= kernel.PAR_MIN_DIM kernel.both runs them on two
threads, as it does sda_init's two pairs of solves and the residuals.

That error lies in the ranges of E_k and F_k, which near criticality
collapse onto the slow mode, within a few eps of rank 1 about halfway
through the steps.  So at min(n, m) >= TAIL_MIN_DIM sda_solve checks
each dense step's E and F against a seeded Gaussian sketch of TAIL_RANK + 1
columns (O(n^2) work); once each is within TAIL_TOL_EPS eps ||.||_F of the
range of the sketch's first r (its numerical rank, else TAIL_RANK: 1 at rank
one), it switches to the tail (_switch).  There E = El Er and F = Fl Fr keep
their left factors, and G = G_t + El A and H = H_t + Fl B move only inside
span(El) and span(Fl), so I - G H = M0 - P Q^T with M0 = I - G_t H_t and
P = [G_t Fl, El] fixed at the switch (t) and Q^T = [B; A H].  One inverse
of M0, made there, gives each tail step (I - G H)^-1 by the
Sherman-Morrison-Woodbury identity (Hager, SIAM Review 31, 1989) at
O(n^2 r): no LU, no n^3 product, and G and H formed once, after the loop.
"""

from dataclasses import dataclass, fields, replace
import json
import numbers
from typing import NamedTuple

import numpy as np

from .core import NareProblem, gamma_star, relative_residual
from .errors import Breakdown, InvalidProblem, NoConvergence
from .kernel import (both, check_cond, frobenius_norm, lu_factor_cond, lu_inverse, lu_solve,
                     one_norm, thin_qr)

#: multiple of the dtype's eps below which the stopping tolerance is not taken
TOL_FLOOR_EPS = 10.0
#: smallest min(n, m) at which a low-rank tail repays its sketch checks and switch
TAIL_MIN_DIM = 64
#: widest factor of a tail; _thin tries the sketch's numerical rank first (measured: 1)
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
    """A doubling iterate.  E and F are dense, or, in sda_solve's tail,
    _Tail halves made by _switch; G and Hm are then the iterates at the
    switch, and _iterates(state) forms the current ones."""
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
        """Every field but X and Y."""
        return {f.name: getattr(self, f.name) for f in fields(self)
                if f.name not in ("X", "Y")}


def sda_init(p: NareProblem, gamma: float) -> SdaState:
    """Cayley-transformed starting matrices.

    E0 = I - 2 gamma V^-1,   V = (D + gamma I) - C (A + gamma I)^-1 B
    F0 = I - 2 gamma W^-1,   W = (A + gamma I) - B (D + gamma I)^-1 C
    G0 = 2 gamma (D + gamma I)^-1 C W^-1
    H0 = 2 gamma W^-1 B (D + gamma I)^-1

    Each matrix is factored once; D + gamma I is solved on [C | I].
    Breakdown (which, cond_estimate) past kernel.BREAKDOWN_COND.
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
        return lu_solve(lu_factor_cond(mat, which=which)[0], rhs)

    dim = min(m, n)
    dg_sol, ag_inv_b = both(lambda: solve(d_g, np.hstack([p.C, eye_n]), "D+gamma*I"),
                            lambda: solve(a_g, p.B, "A+gamma*I"), dim)
    dg_inv_c, dg_inv = dg_sol[:, :m], dg_sol[:, m:]
    v_inv, w_inv = both(lambda: solve(d_g - p.C @ ag_inv_b, eye_n, "V_gamma"),
                        lambda: solve(a_g - p.B @ dg_inv_c, eye_m, "W_gamma"), dim)
    e0 = eye_n - 2 * g * v_inv
    f0 = eye_m - 2 * g * w_inv
    g0 = 2 * g * dg_inv_c @ w_inv
    h0 = 2 * g * w_inv @ p.B @ dg_inv
    return SdaState(E=e0, F=f0, G=g0, Hm=h0, step=0)


def sda_step(s: SdaState) -> SdaState:
    """One doubling step; raises Breakdown when I - G@H is numerically singular
    or the new E or F overflows (a non-finite err_est).

    The inverses enter only as left factors of E and F, so each factor is
    applied once, by a transposed solve: Z_g = E (I - G H)^-1 (n columns)
    and Z_h = F (I - H G)^-1 (m columns).  Then E' = Z_g E,
    G' = G + Z_g (G F), F' = Z_h F and H' = H + Z_h (H E), the halves
    _half(E, F, G, H) and _half(F, E, H, G).  The new state's err_est is
    ||E'||_1 ||F'||_1 ||(I - G H)^-1||_1.  A tail state (see _switch) steps
    by _tail_half, with no LU, on two threads only from twice both's
    threshold, its halves being O(n^2 r) work, not O(n^3).
    """
    dim = min(s.G.shape) // (2 if isinstance(s.E, _Tail) else 1)
    with np.errstate(over="ignore", invalid="ignore"):  # overflow: breakdown
        (e, g, cond_gh, inv_norm, e_norm), (f, h, cond_hg, _, f_norm) = both(
            lambda: _half(s.E, s.F, s.G, s.Hm, s.step),
            lambda: _half(s.F, s.E, s.Hm, s.G, s.step), dim)
    cond = max(cond_gh, cond_hg)
    err_est = float(e_norm) * float(f_norm) * inv_norm
    if not np.isfinite(err_est):
        raise Breakdown(f"doubling breakdown at step {s.step}: E or F overflowed "
                        f"(error estimate {err_est})",
                        {"step": s.step, "cond_estimate": cond})
    return SdaState(E=e, F=f, G=g, Hm=h, step=s.step + 1, cond=cond, err_est=err_est)


def _half(e, f, g, h, step):
    """(E', G', cond, ||(I - G H)^-1||_1, ||E'||_1) of a doubling step, and
    (F', H', ...) with the roles swapped; see sda_step.  A dense half makes
    three LAPACK calls: getrf and gecon by kernel.lu_factor_cond, which
    raises Breakdown (step, cond_estimate) past its cap, getrs by lu_solve."""
    if isinstance(e, _Tail):
        return _tail_half(e, f, g, h, step)
    factor, cond, inv_norm = lu_factor_cond(np.eye(len(g), dtype=g.dtype) - g @ h, step=step)
    z = lu_solve(factor, e.T, trans=1).T
    del factor
    e, zgf = z @ e, z @ (g @ f)
    zgf += g  # G + Z (G F) in place: IEEE addition commutes
    return e, zgf, cond, inv_norm, one_norm(e)


class _Tail(NamedTuple):
    """The E half of a tail state (the F half mirrors it): E = left @ right
    and G = G_t + left @ coef, with G_t, H_t the state's G and Hm, kept from
    the switch; m0 = I - G_t H_t, n0 = m0^-1, p = [G_t F_left, left] and
    n0p = n0 @ p are fixed there, and work is an n x n scratch array, so
    one thread at a time steps a tail state; r is _thin's width, m0, n0, work C-ordered."""
    left: np.ndarray  # n x r
    right: np.ndarray  # r x n
    coef: np.ndarray  # r x m
    m0: np.ndarray
    n0: np.ndarray
    p: np.ndarray  # n x (r_F + r)
    n0p: np.ndarray
    work: np.ndarray


def _switch(s, e, f):
    """s, with E = e[0] @ e[1] and F = f[0] @ f[1] (thin factor pairs), as a
    tail state: each half takes the guarded LU of its next step's I - G H or
    I - H G once, here, and its inverse by getri."""
    def half(left, right, f_left, g, h):
        m0 = np.eye(len(g), dtype=g.dtype) - g @ h
        n0 = np.ascontiguousarray(lu_inverse(lu_factor_cond(m0, step=s.step)[0]))
        p = np.hstack([g @ f_left, left])
        return _Tail(left, right, np.zeros((len(right), g.shape[1]), g.dtype),
                     m0, n0, p, n0 @ p, np.empty_like(m0))

    e, f = both(lambda: half(*e, f[0], s.G, s.Hm),
                lambda: half(*f, e[0], s.Hm, s.G), min(s.G.shape))
    return replace(s, E=e, F=f)


def _tail_half(e, f, g, h, step):
    """_half of a tail state at O(n^2 r), no LU: G H = G_t H_t + p q^T with
    q^T = [B; A H] (A = e.coef, B = f.coef, H = h + F_left B), so
    M = I - G H = m0 - p q^T and, by Woodbury, M^-1 = n0 + n0p C^-1 q^T n0,
    C = I - q^T n0p of order r_F + r.  M^-1 goes to e.work; cond is the exact
    ||M||_1 ||M^-1||_1, inf for an exactly singular C; ||E'||_1 = ||l||_1 max|r| at rank 1."""
    a, b = e.coef, f.coef
    qt = np.vstack([b, a @ h + (a @ f.left) @ b])
    work = np.matmul(e.p, qt, out=e.work)
    anorm = one_norm(np.subtract(e.m0, work, out=work))
    try:  # inv: cheaper than getrs on the (r_F + r) x n right-hand side
        y = np.linalg.inv(np.eye(len(qt), dtype=qt.dtype) - qt @ e.n0p) @ (qt @ e.n0)
    except np.linalg.LinAlgError:
        inv_norm = np.inf
    else:
        work = np.add(e.n0, np.matmul(e.n0p, y, out=work), out=work)
        inv_norm = one_norm(work)
    cond = float(anorm) * float(inv_norm)
    check_cond(cond, step=step)
    w = e.right @ work
    right = w @ e.left @ e.right
    coef = a + w @ (e.p[:, :len(b)] + e.left @ (a @ f.left)) @ f.right
    e_norm = one_norm(e.left @ right) if len(right) > 1 else abs(e.left).sum() * abs(right).max()
    return e._replace(right=right, coef=coef), g, cond, float(inv_norm), e_norm


def _product(left, right):
    """left @ right, by broadcasting when one wide: the same bits, faster than matmul."""
    return left * right if left.shape[1] == 1 else left @ right


def _iterates(s):
    """(G, Hm) of a state, formed from a tail state's halves."""
    if not isinstance(s.E, _Tail):
        return s.G, s.Hm
    return s.G + _product(s.E.left, s.E.coef), s.Hm + _product(s.F.left, s.F.coef)


def _thin(a, sketch):
    """(left, right) within TAIL_TOL_EPS eps ||a||_F of a, left the first r columns of
    the Q of a @ sketch, r first the count of R's diagonal entries above sqrt(eps) R_00,
    then TAIL_RANK, else None; sketch column TAIL_RANK + 1 probes for rank > TAIL_RANK."""
    q, r = thin_qr(a @ sketch[:a.shape[1]])
    above = r.diagonal() > np.sqrt(np.finfo(a.dtype).eps) * r[0, 0]
    if above[-1]:
        return None
    tol = TAIL_TOL_EPS * float(np.finfo(a.dtype).eps) * frobenius_norm(a)
    for width in sorted({int(above.sum()), TAIL_RANK}):
        left = q[:, :width]
        right = left.T @ a
        gap = _product(left, right)
        gap -= a  # in place: a - left @ right allocates a second n x n array
        if frobenius_norm(gap) <= tol:
            return left, right
    return None


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
              .astype(p.dtype) if min(p.n, p.m) >= TAIL_MIN_DIM else None)  # seeded: reproducible
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
                state, tail_from = _switch(state, e, f), state.step
    y, x = _iterates(state)
    steps, err_est = state.step, state.err_est
    del state  # E and F, or a tail's m0, n0 and work: no residual reads them
    res, dual_res = both(lambda: relative_residual(p, x),
                         lambda: relative_residual(p.dual(), y), min(p.n, p.m))
    bound = residual_bound(p, cfg.tol)
    if not converged and res > bound:
        raise NoConvergence(
            f"doubling did not converge in {cfg.max_steps} steps "
            f"(error estimate {err_est:.3e}, relative residual {res:.3e})",
            diagnostics={"err_est": err_est, "residual": float(res)},
        )
    return SdaOutcome(
        X=x, Y=y, steps=steps, tail_from=tail_from,
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
