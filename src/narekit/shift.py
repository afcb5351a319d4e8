"""Subspace shift: move the troublesome central eigenvalues of H outward.

Close-to-critical problems have a cluster of k small-modulus eigenvalues
of the linearizing matrix H responsible for slow doubling convergence and
ill conditioning.  Given orthonormal bases V and U of the right and left
invariant subspaces of that cluster, the rank-k update

    H_shifted = H (I + s V (U^T V)^-1 U^T)

multiplies the k central eigenvalues by (1 + s) while leaving every right
invariant subspace of H (and hence the minimal solution) unchanged.  One
short orthogonal iteration probes the smallest eigenvalue moduli
|xi_1| <= |xi_2| <= ... of H; k is the first k >= 2 with |xi_k| / |xi_{k+1}|
<= SLOW_RATE, and s = |xi_{k+1}| / |xi_1| - 1.  The bases come from inverse
orthogonal iteration.  H is LU-factored once per solve, and the stages take
that LU, not H: the M-matrix guard, the probe and every inverse iteration,
the left one with H^T included, solve with it.  A central subspace has
1 <= k < n + m.  The fixed settings (seed, step caps, k and s limits) are
the module constants below.

`sushi_solve` chains the whole pipeline: probe the moduli, detect k,
compute the central pair, choose s, build the shifted equation, run the
doubling solver on it with the original problem's gamma, and polish the
result with a Newton defect-correction step on the original equation
(forming the shifted coefficients in floating point perturbs the solution
at level eps * (1 + s), which the correction removes), forming R(X) once
per iterate.  The step's Sylvester equation has M-matrix coefficients and
is solved by Smith doubling on their Cayley transforms: two LUs, one solve
each, and products, no Schur form.
"""

from dataclasses import dataclass, field, replace
import time

import numpy as np

from .core import (
    LinearizingMatrix,
    NareProblem,
    _residual_with_size,
    build_h,
    gamma_star,
    relative_residual,
    require_mmatrix,
)
from .diagnostics import check_coupling
from .errors import (
    CentralPairIllConditioned,
    DegenerateSpectrum,
    InvalidProblem,
    KMaxReached,
    NoConvergence,
    SingularMatrix,
)
from .kernel import coupling_cond, eigenvalues, frobenius_norm, lu_factor
from .kernel import lu_solve, subspace_distance, thin_qr
from .sda import SdaConfig, residual_bound, sda_solve

DEFAULT_SEED = 20120601    #: seed of the starting bases, so step counts reproduce
PAIR_MAX_ITERS = 100       #: inverse-iteration step cap of the central pair
COND_CAP = 1e8             #: largest ||(U^T V)^-1||_2 of an accepted central pair
K_MAX = 8                  #: largest central dimension detect_k tries, from k = 2
SLOW_RATE = 0.5            #: largest |xi_k| / |xi_{k+1}| that separates a central k
PROBE_ITERS = 8            #: orthogonal-iteration steps of the moduli probe
S_MIN, S_MAX = 0.1, 1e6    #: clamp of the shift magnitude s
POLISH_MAX_STEPS = 2       #: Newton corrections the polish tries
POLISH_MAX_DOUBLINGS = 50  #: doubling cap of the polish's Sylvester solve (2^50 terms)


@dataclass(frozen=True)
class CentralSubspaces:
    V: np.ndarray  # right basis, orthonormal columns
    U: np.ndarray  # left basis, orthonormal columns
    k: int
    central_eigs: np.ndarray  # eigenvalues of V^T H V
    inv_iter_steps: int
    cond_uv: float  # ||(U^T V)^-1||_2 = 1 / sigma_min(U^T V)


@dataclass(frozen=True)
class ShiftPlan:
    s: float
    rationale: dict = field(default_factory=dict)


def inverse_orthogonal_iteration(factor, k, tol, max_iters, trans=0):
    """Orthonormal basis of the invariant subspace of the k smallest-modulus
    eigenvalues of H (of H^T when trans=1), by repeated solve + thin QR on
    factor, H's LU from kernel.lu_factor; 1 <= k < N, N the order of H.

    Stops when the subspace distance between successive bases drops below
    tol, or when it stagnates at its roundoff floor (once past the initial
    transient, a step that recovers less than a factor 0.9 means the basis
    only jitters).  Returns (Q, steps); NoConvergence after max_iters steps,
    with diagnostics basis, steps and distance (the last step's).
    """
    dim = factor[0].shape[0]
    if not 1 <= k < dim:
        raise InvalidProblem(f"central dimension k={k} is outside 1..{dim - 1}")
    rng = np.random.default_rng(DEFAULT_SEED)
    q, _ = thin_qr(rng.standard_normal((dim, k)).astype(factor[0].dtype))
    dists, armed = [], False
    for _ in range(max_iters):
        q_new, _ = thin_qr(lu_solve(factor, q, trans=trans))
        dists.append(subspace_distance(q_new, q))
        q = q_new
        if dists[-1] <= tol or (armed and dists[-1] >= 0.9 * dists[-2]):
            break
        armed = armed or dists[-1] < 1e-2
    else:
        distance = dists[-1] if dists else np.inf
        raise NoConvergence(
            f"inverse iteration did not settle in {max_iters} steps "
            f"(distance {distance:.3g})",
            diagnostics={"basis": q, "steps": len(dists), "distance": distance},
        )
    return q, len(dists)


def compute_central_pair(h, k, tol=1e-12, factor=None) -> CentralSubspaces:
    """Left and right central bases plus the central eigenvalues.

    The right basis comes from inverse iteration on h, the left one from
    the same iteration on h^T, both on one LU factor of h (factor, or a
    fresh one).  Refuses to return a pair with ||(U^T V)^-1||_2 above
    COND_CAP.
    """
    h = np.asarray(h)
    if factor is None:
        factor = lu_factor(h, pivot_tol=0.0)
    v, steps_v = inverse_orthogonal_iteration(factor, k, tol, PAIR_MAX_ITERS)
    u, _ = inverse_orthogonal_iteration(factor, k, tol, PAIR_MAX_ITERS, trans=1)
    cond_uv = coupling_cond(u, v)
    if cond_uv > COND_CAP:
        raise CentralPairIllConditioned(
            f"cond(U^T V) = {cond_uv:.3e} exceeds the acceptance cap",
            {"cond_uv": cond_uv})
    central = eigenvalues(v.T @ h @ v)
    return CentralSubspaces(V=v, U=u, k=k, central_eigs=central,
                            inv_iter_steps=steps_v, cond_uv=cond_uv)


def smallest_moduli(factor, count):
    """Estimates of the count <= N smallest eigenvalue moduli |xi_1|, ... of H:
    1 / diag(R) after PROBE_ITERS steps of a seeded count-column orthogonal
    iteration on factor, H's LU.  A few steps give the one digit that k and
    s need, even for a modulus not separated from the next one up;
    DegenerateSpectrum when R is exactly singular."""
    lu = factor[0]
    rng = np.random.default_rng(DEFAULT_SEED)
    q, r = thin_qr(rng.standard_normal((lu.shape[0], count)).astype(lu.dtype))
    for _ in range(PROBE_ITERS):
        q, r = thin_qr(lu_solve(factor, q))
    diag = np.diag(r).astype(np.float64)  # thin_qr's R has diag(R) >= 0
    if not np.all(diag > 0.0):
        raise DegenerateSpectrum("probe iteration collapsed to a singular R")
    return 1.0 / diag


def detect_k(moduli):
    """First k >= 2 whose central cluster is separated from the rest:
    moduli[k - 1] / moduli[k] = |xi_k| / |xi_{k+1}| <= SLOW_RATE, for moduli
    from smallest_moduli (len(moduli) >= 2).  KMaxReached when no k up to
    k_max = len(moduli) - 1 qualifies; its t_estimate is the ratio at k_max.
    """
    k_max = len(moduli) - 1
    ratios = np.asarray(moduli[:-1]) / np.asarray(moduli[1:])
    for k in range(2, k_max + 1):
        if ratios[k - 1] <= SLOW_RATE:
            return k
    t = float(ratios[k_max - 1])
    raise KMaxReached(f"no well-separated central subspace up to k={k_max} "
                      f"(|xi_k| / |xi_k+1| = {t:.3g})",
                      {"k_max": k_max, "t_estimate": t})


def choose_shift_s(cs: CentralSubspaces, xi_next, h_norm) -> ShiftPlan:
    """Shift magnitude s = |xi_{k+1}| / |xi_1| - 1, clamped to [S_MIN, S_MAX].

    xi_next is |xi_{k+1}|, estimated (smallest_moduli) or exact; the
    rationale records t_estimate = |xi_k| / |xi_{k+1}| from it and the
    central eigenvalues.  DegenerateSpectrum when |xi_1| is zero or below
    eps * h_norm, with h_norm = ||H||_F.
    """
    mods = np.sort(np.abs(cs.central_eigs))
    xi1, xik = float(mods[0]), float(mods[-1])
    if xi1 == 0.0 or xi1 < np.finfo(np.float64).eps * h_norm:
        raise DegenerateSpectrum(
            f"smallest central eigenvalue {xi1:.3e} is numerically zero")
    target = float(xi_next)
    s = target / xi1 - 1.0
    clamped = not (S_MIN <= s <= S_MAX)
    s = float(min(max(s, S_MIN), S_MAX))
    return ShiftPlan(s=s, rationale={
        "xi_1": xi1, "xi_k": xik, "xi_next_estimate": target,
        "t_estimate": xik / target, "clamped": clamped,
    })


def build_shifted_h(h: LinearizingMatrix, cs: CentralSubspaces,
                    s: float) -> LinearizingMatrix:
    """The rank-k update H (I + s V (U^T V)^-1 U^T) as a LinearizingMatrix,
    formed as H + s (H V)((U^T V)^-1 U^T) in O(N^2 k);
    CentralPairIllConditioned by diagnostics.cond_uv's rule, applied to
    cs.cond_uv, or when the k x k solve finds U^T V exactly singular.

    InvalidProblem unless s is finite and 1 + s > 0: a factor 1 + s <= 0
    moves the central eigenvalues onto or across the imaginary axis, so the
    doubling would stall or converge to a nonnegative solution other than
    the minimal one.
    """
    if not 0.0 < 1.0 + s < np.inf:
        raise InvalidProblem(f"shift s={s} must be finite with 1 + s > 0")
    check_coupling(cs.cond_uv, cs.k)
    try:
        w = np.linalg.solve(cs.U.T @ cs.V, cs.U.T)
    except np.linalg.LinAlgError as exc:
        raise CentralPairIllConditioned(f"U^T V is singular: {exc}",
                                        {"cond_uv": cs.cond_uv}) from exc
    return LinearizingMatrix(h.H + (s * (h.H @ cs.V)) @ w, h.n, h.m)


def classical_shift(h, v, u, s):
    """Rank-one update h + s * v u^T / (u^T v), moving one eigenvalue by s.

    v must be an eigenvector of h; u any vector not orthogonal to v
    (InvalidProblem otherwise).  All other eigenvalues are unchanged.
    """
    h = np.asarray(h)
    v = np.asarray(v, dtype=float).reshape(-1)
    u = np.asarray(u, dtype=float).reshape(-1)
    uv = float(u @ v)
    if abs(uv) < 1e-12 * np.linalg.norm(u) * np.linalg.norm(v):
        raise InvalidProblem("u and v are numerically orthogonal")
    return h + (s / uv) * np.outer(v, u)


def newton_polish(p: NareProblem, x, r, res, xi):
    """Newton defect correction on the original equation.

    Solves (A - X C) D + D (D_coef - C X) = R(X) for the correction D by
    Smith doubling and keeps the update, for up to POLISH_MAX_STEPS
    corrections, while the relative residual improves.  r and res are R(x)
    and its relative size (a candidate's come from one evaluation); the
    polish is a no-op when res is at the floor 100 * eps of x's dtype.  xi,
    the smallest central eigenvalue modulus, gives the Cayley parameter
    sqrt(xi * gamma*), the best single shift for a real spectrum in
    [xi, gamma*]; xi = gamma* gives gamma*.
    """
    x = np.asarray(x)
    floor = 100.0 * float(np.finfo(x.dtype).eps)
    for _ in range(POLISH_MAX_STEPS):
        if res <= floor:
            break
        delta = _smith_correction(p, x, r, xi)
        if delta is None:
            break
        candidate = x + delta
        new_r, new_res = _residual_with_size(p, candidate)
        if not new_res < res:
            break
        x, r, res = candidate, new_r, new_res
    return x, float(res)


def _smith_correction(p: NareProblem, x, r, xi):
    """Sum over j of S^j D0 T^j, with S = I - 2g P_g^-1, T = I - 2g Q_g^-1 and
    D0 = P_g^-1 (2g r) Q_g^-1, r = R(X), P_g = P + gI, Q_g = Q + gI, P = A - X C
    and Q = D_coef - C X (one solve per LU, against I), by doubling until
    an increment no longer changes X (a residual target would drop the
    slowly converging part); None when a factor is singular or the sum
    diverges, as it can unless P and Q are M-matrices."""
    g_star = gamma_star(p)
    eps = float(np.finfo(x.dtype).eps)
    g = float(np.sqrt(max(xi, eps * g_star) * g_star))
    pm, qm = p.A - x @ p.C, p.D - p.C @ x
    eye_m, eye_n = np.eye(p.m, dtype=x.dtype), np.eye(p.n, dtype=x.dtype)
    try:
        fp, fq = lu_factor(pm + g * eye_m), lu_factor(qm + g * eye_n)
    except SingularMatrix:
        return None
    p_inv, q_inv = lu_solve(fp, eye_m), lu_solve(fq, eye_n)
    s, t = eye_m - 2.0 * g * p_inv, eye_n - 2.0 * g * q_inv
    delta = p_inv @ (2.0 * g * r) @ q_inv
    stop = eps * frobenius_norm(x)
    with np.errstate(over="ignore", invalid="ignore"):  # overflow: divergence
        for _ in range(POLISH_MAX_DOUBLINGS):
            inc = s @ delta @ t
            size = frobenius_norm(inc)
            if not np.isfinite(size):
                return None
            delta += inc
            if size <= stop:
                break
            s, t = s @ s, t @ t
    return delta


@dataclass(frozen=True)
class SushiOptions:
    k: int = None          # fixed central dimension; None: detect dynamically
    s: float = None        # fixed shift magnitude; None: automatic
    tol: float = 1e-15
    max_steps: int = 60
    iter_tol: float = 1e-12
    force: bool = False    # skip the M-matrix classification guard
    trace: object = None


def sushi_solve(p: NareProblem, opts: SushiOptions = SushiOptions()):
    """Shifted solve of a close-to-critical problem.

    Pipeline: factor H, classify on that factor, probe the smallest
    eigenvalue moduli once (min(K_MAX, N - 1) + 1 of them, k + 1 under a
    fixed k, none when k and s are both fixed), (detect k), compute the
    central pair, choose s, build the shifted equation, run the doubling
    solver on it with the original problem's gamma, and polish the result
    with Newton defect correction on the original equation.

    Returns (result, CentralSubspaces, ShiftPlan, shifted), two
    SdaOutcomes.  shifted is the doubling's outcome on the shifted
    equation, its residuals and flag that equation's.  result answers the
    original equation: the polished X and its residual, converged when that
    residual meets sda.residual_bound, and the shifted doubling's steps,
    gamma, tail_from and Y with the dual residual of the original equation.
    The shift keeps every invariant subspace of H and the sign of every
    eigenvalue's real part, so that Y is the original dual solution,
    unpolished.
    """
    t0 = time.perf_counter()
    h = build_h(p)
    try:
        factor = lu_factor(h.H, pivot_tol=0.0)  # shared below
    except SingularMatrix:
        if not opts.force:
            require_mmatrix(p)  # a problem that is not M-structured says so first
        raise
    if not opts.force:
        require_mmatrix(p, factor)
    iter_tol = max(opts.iter_tol, 100.0 * float(np.finfo(p.dtype).eps))
    k = opts.k
    if k is None:
        moduli = smallest_moduli(factor, min(K_MAX, h.H.shape[0] - 1) + 1)
        k = detect_k(moduli)
    cs = compute_central_pair(h.H, k, iter_tol, factor=factor)
    if opts.s is not None:
        plan = ShiftPlan(s=float(opts.s), rationale={"fixed": True})
    else:
        if opts.k is not None:
            moduli = smallest_moduli(factor, k + 1)
        plan = choose_shift_s(cs, moduli[k], frobenius_norm(h.H))
    shifted_problem = build_shifted_h(h, cs, plan.s).to_problem()
    cfg = SdaConfig(gamma=gamma_star(p), tol=opts.tol,
                    max_steps=opts.max_steps, trace=opts.trace)
    shifted = sda_solve(shifted_problem, cfg)
    x, res = newton_polish(p, shifted.X, *_residual_with_size(p, shifted.X),
                           float(np.min(np.abs(cs.central_eigs))))
    result = replace(shifted, X=x, residual=res,
                     converged=res <= residual_bound(p, opts.tol),
                     dual_residual=relative_residual(p.dual(), shifted.Y))
    plan = replace(plan, rationale=dict(plan.rationale,
                                        elapsed_s=time.perf_counter() - t0))
    return result, cs, plan, shifted
