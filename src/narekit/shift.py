"""Subspace shift: move the troublesome central eigenvalues of H outward.

Close-to-critical problems have a cluster of k small-modulus eigenvalues
of the linearizing matrix H responsible for slow doubling convergence and
ill conditioning.  Given orthonormal bases V and U of the right and left
invariant subspaces of that cluster, the rank-k update

    H_shifted = H (I + s V (U^T V)^-1 U^T)

multiplies the k central eigenvalues by (1 + s) while leaving every right
invariant subspace of H (and hence the minimal solution) unchanged.  The
bases are computed by inverse orthogonal iteration, which also yields a
convergence-rate estimate t ~ |xi_k| / |xi_{k+1}| used to pick k; s comes
from a (k + 1)-column probe of |xi_{k+1}|.  H is LU-factored once per
solve; every inverse iteration, the left one with H^T included, reuses
that factor.  The pipeline's fixed settings (seed, step caps, k and s
limits) are the module constants below.

`sushi_solve` chains the whole pipeline: detect k, compute the central
pair, choose s, build the shifted equation, run the doubling solver on it
with the original problem's gamma, and polish the result with a Newton
defect-correction step on the original equation (forming the shifted
coefficients in floating point perturbs the solution at level
eps * (1 + s), which the correction removes).  The step's Sylvester
equation has M-matrix coefficients and is solved by Smith doubling on
their Cayley transforms: two LUs and matrix products, no Schur form.
"""

from dataclasses import dataclass, field, replace
import time

import numpy as np
import scipy.linalg

from .core import (
    LinearizingMatrix,
    NareProblem,
    Solution,
    build_h,
    gamma_star,
    relative_residual,
    require_mmatrix,
    residual,
)
from .diagnostics import check_coupling
from .errors import (
    CentralPairIllConditioned,
    DegenerateSpectrum,
    InvalidProblem,
    KMaxReached,
    NoConvergence,
    OrthogonalPair,
    SingularH,
    SingularMatrix,
    UVSingular,
)
from .kernel import coupling_cond, eigenvalues, frobenius_norm, lu_factor
from .kernel import subspace_distance, thin_qr
from .sda import SdaConfig, SdaOutcome, sda_solve

DEFAULT_SEED = 20120601    #: seed of the starting bases, so step counts reproduce
PAIR_MAX_ITERS = 100       #: inverse-iteration step cap of the central pair
COND_CAP = 1e8             #: largest ||(U^T V)^-1||_2 of an accepted central pair
K_MAX = 8                  #: largest central dimension detect_k tries, from k = 2
SLOW_RATE = 0.5            #: contraction rate up to which a probed k is accepted
PROBE_ITERS = 12           #: inverse-iteration steps of each detect_k probe
NEXT_MODULUS_STEPS = 8     #: steps of the (k + 1)-column probe of |xi_{k+1}|
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
    rate_estimate_t: float
    cond_uv: float  # ||(U^T V)^-1||_2 = 1 / sigma_min(U^T V)


@dataclass(frozen=True)
class ShiftPlan:
    s: float
    k: int
    rationale: dict = field(default_factory=dict)


def inverse_orthogonal_iteration(h, k, tol=1e-12, max_iters=100, factor=None,
                                 trans=0):
    """Orthonormal basis of the invariant subspace of the k smallest-modulus
    eigenvalues of h (of h^T when trans=1), by repeated solve + thin QR.

    factor is h's LU factor from kernel.lu_factor; without one, h is
    factored here.  Stops when the subspace distance between successive
    bases drops below tol, or when it stagnates at its roundoff floor (once
    past the initial transient, a step that recovers less than a factor 0.9
    means the basis only jitters).  Returns (Q, steps, t_estimate) where
    t_estimate is the geometric-mean contraction per step over the
    genuinely converging window, an estimate of |xi_k| / |xi_{k+1}|.
    """
    h = np.asarray(h)
    dim = h.shape[0]
    if k < 1 or k > dim:
        raise InvalidProblem(f"subspace dimension k={k} out of range")
    if factor is None:
        factor = lu_factor(h, pivot_tol=0.0, error=SingularH)
    rng = np.random.default_rng(DEFAULT_SEED)
    q, _ = thin_qr(rng.standard_normal((dim, k)).astype(h.dtype))
    dists, armed = [], False
    for _ in range(max_iters):
        z = scipy.linalg.lu_solve(factor, q, trans=trans, check_finite=False)
        q_new, _ = thin_qr(z)
        dists.append(subspace_distance(q_new, q))
        q = q_new
        if dists[-1] <= tol or (armed and dists[-1] >= 0.9 * dists[-2]):
            break
        armed = armed or dists[-1] < 1e-2
    else:
        t = _contraction_estimate(dists)
        raise NoConvergence(
            f"inverse iteration did not settle in {max_iters} steps "
            f"(rate estimate {t:.3g})",
            diagnostics={"basis": q, "steps": len(dists), "t_estimate": t,
                         "distance": dists[-1] if dists else np.inf},
        )
    return q, len(dists), _contraction_estimate(dists)


def _contraction_estimate(dists):
    """Geometric-mean step ratio over the genuinely converging window.

    The window starts at the first distance below 0.5 (end of the initial
    transient) and ends at the first stagnating step (less than a factor
    0.9 of progress, i.e. the roundoff floor).  Returns 0.0 when no such
    window exists, meaning convergence was too fast to measure.
    """
    a = np.asarray(dists)
    j0 = next((i for i, v in enumerate(a) if v < 0.5), None)
    if j0 is None:
        return 0.0
    j1 = next((i for i in range(j0, a.size - 1) if a[i + 1] >= 0.9 * a[i]),
              a.size - 1)
    if j1 <= j0:
        return 0.0
    return float((a[j1] / a[j0]) ** (1.0 / (j1 - j0)))


def compute_central_pair(h, k, tol=1e-12, factor=None) -> CentralSubspaces:
    """Left and right central bases plus the central eigenvalues.

    The right basis comes from inverse iteration on h, the left one from
    the same iteration on h^T, both on one LU factor of h (factor, or a
    fresh one).  Refuses to return a pair with ||(U^T V)^-1||_2 above
    COND_CAP.
    """
    h = np.asarray(h)
    if factor is None:
        factor = lu_factor(h, pivot_tol=0.0, error=SingularH)
    v, steps_v, t = inverse_orthogonal_iteration(h, k, tol, PAIR_MAX_ITERS,
                                                 factor=factor)
    u, _, _ = inverse_orthogonal_iteration(h, k, tol, PAIR_MAX_ITERS,
                                           factor=factor, trans=1)
    cond_uv = coupling_cond(u, v)
    if cond_uv > COND_CAP:
        raise CentralPairIllConditioned(cond_uv)
    central = eigenvalues(v.T @ h @ v)
    return CentralSubspaces(
        V=v, U=u, k=k, central_eigs=central,
        inv_iter_steps=steps_v, rate_estimate_t=t, cond_uv=cond_uv,
    )


def detect_k(h, tol=1e-12, factor=None):
    """Smallest k >= 2 whose inverse iteration contracts fast enough.

    Runs PROBE_ITERS probe iterations per candidate k, all on one LU factor
    of h (factor, or a fresh one), and accepts the first one with rate
    estimate <= SLOW_RATE (a zero estimate means convergence was immediate
    and counts as fast, as does a probe that ran out of steps within
    sqrt(tol) of settling).  Raises KMaxReached when no k up to K_MAX
    separates the central cluster from the rest of the spectrum.
    """
    if factor is None:
        factor = lu_factor(h, pivot_tol=0.0, error=SingularH)
    last_t = 1.0
    for k in range(2, K_MAX + 1):
        try:
            _, _, t = inverse_orthogonal_iteration(h, k, tol, PROBE_ITERS,
                                                   factor=factor)
        except NoConvergence as exc:
            t = exc.diagnostics["t_estimate"]
            if t == 0.0 and exc.diagnostics["distance"] > np.sqrt(tol):
                # the probe neither settled nor yielded a measurable
                # contraction window: treat as too slow
                t = 1.0
        last_t = t
        if t <= SLOW_RATE:
            return k
    raise KMaxReached(K_MAX, last_t)


def estimate_next_modulus(h, k, factor=None):
    """Estimate of |xi_{k+1}| from a (k + 1)-column probe iteration on an
    LU factor of h (factor, or a fresh one).

    Once the leading k columns have settled, the last diagonal entry of R
    in the iteration's thin QR converges to 1 / |xi_{k+1}|; a handful of
    steps gives the one correct digit the shift selection needs, even when
    |xi_{k+1}| is not separated from the eigenvalues above it.
    """
    h = np.asarray(h)
    if factor is None:
        factor = lu_factor(h, pivot_tol=0.0, error=SingularH)
    rng = np.random.default_rng(DEFAULT_SEED)
    q, r = thin_qr(rng.standard_normal((h.shape[0], k + 1)).astype(h.dtype))
    for _ in range(NEXT_MODULUS_STEPS):
        q, r = thin_qr(scipy.linalg.lu_solve(factor, q, check_finite=False))
    entry = abs(float(r[k, k]))
    if entry == 0.0:
        raise DegenerateSpectrum("probe iteration collapsed to a singular R")
    return 1.0 / entry


def choose_shift_s(cs: CentralSubspaces, xi_next, h_norm) -> ShiftPlan:
    """Shift magnitude s = |xi_{k+1}| / |xi_1| - 1, clamped to [S_MIN, S_MAX].

    xi_next is |xi_{k+1}|, estimated (estimate_next_modulus) or exact.
    DegenerateSpectrum when |xi_1| is zero or below eps * h_norm, with
    h_norm = ||H||_F.
    """
    mods = np.sort(np.abs(cs.central_eigs))
    xi1, xik = float(mods[0]), float(mods[-1])
    if xi1 == 0.0 or xi1 < np.finfo(np.float64).eps * h_norm:
        raise DegenerateSpectrum(
            f"smallest central eigenvalue {xi1:.3e} is numerically zero"
        )
    target = float(xi_next)
    s = target / xi1 - 1.0
    clamped = not (S_MIN <= s <= S_MAX)
    s = float(min(max(s, S_MIN), S_MAX))
    return ShiftPlan(s=s, k=cs.k, rationale={
        "xi_1": xi1, "xi_k": xik, "xi_next_estimate": target,
        "t_estimate": cs.rate_estimate_t, "clamped": clamped,
    })


def build_shifted_h(h: LinearizingMatrix, cs: CentralSubspaces,
                    s: float) -> LinearizingMatrix:
    """The rank-k update H (I + s V (U^T V)^-1 U^T) as a LinearizingMatrix;
    UVSingular by diagnostics.cond_uv's rule, applied to cs.cond_uv.

    InvalidProblem unless 1 + s > 0: a factor 1 + s <= 0 moves the central
    eigenvalues onto or across the imaginary axis, so the doubling would
    stall or converge to a nonnegative solution other than the minimal one.
    """
    if not 1.0 + s > 0.0:
        raise InvalidProblem(f"shift s={s} must satisfy 1 + s > 0")
    check_coupling(cs.cond_uv, cs.k)
    try:
        correction = cs.V @ np.linalg.solve(cs.U.T @ cs.V, cs.U.T)
    except np.linalg.LinAlgError as exc:
        raise UVSingular(f"U^T V is singular: {exc}") from exc
    shifted = h.H @ (np.eye(h.dim, dtype=h.H.dtype) + s * correction)
    return LinearizingMatrix(shifted, h.n, h.m)


def classical_shift(h, v, u, s):
    """Rank-one update h + s * v u^T / (u^T v), moving one eigenvalue by s.

    v must be an eigenvector of h; u any vector not orthogonal to v.  All
    other eigenvalues are unchanged.
    """
    h = np.asarray(h)
    v = np.asarray(v, dtype=float).reshape(-1)
    u = np.asarray(u, dtype=float).reshape(-1)
    uv = float(u @ v)
    if abs(uv) < 1e-12 * np.linalg.norm(u) * np.linalg.norm(v):
        raise OrthogonalPair("u and v are numerically orthogonal")
    return h + (s / uv) * np.outer(v, u)


def newton_polish(p: NareProblem, x, res, xi):
    """Newton defect correction on the original equation.

    Solves (A - X C) D + D (D_coef - C X) = R(X) for the correction D by
    Smith doubling and keeps the update, for up to POLISH_MAX_STEPS
    corrections, while the relative residual improves.  res is x's
    relative residual; the polish is a no-op when it is already at the
    floor 100 * eps of x's dtype.  xi, the smallest central eigenvalue
    modulus, gives the Cayley parameter sqrt(xi * gamma*), the best single
    shift for a real spectrum in [xi, gamma*]; xi = gamma* gives gamma*.
    """
    x = np.asarray(x)
    floor = 100.0 * float(np.finfo(x.dtype).eps)
    for _ in range(POLISH_MAX_STEPS):
        if res <= floor:
            break
        delta = _smith_correction(p, x, xi)
        if delta is None:
            break
        candidate = x + delta
        new_res = relative_residual(p, candidate)
        if not new_res < res:
            break
        x, res = candidate, new_res
    return x, float(res)


def _smith_correction(p: NareProblem, x, xi):
    """Sum over j of S^j D0 T^j, with S = (P + gI)^-1 (P - gI), T = (Q + gI)^-1
    (Q - gI), D0 = 2g (P + gI)^-1 R(X) (Q + gI)^-1, P = A - X C and
    Q = D_coef - C X, by doubling until an increment no longer changes X (a
    residual target would drop the slowly converging part); None when a
    factor is singular or the sum diverges, as it can unless P and Q are
    M-matrices."""
    g_star = gamma_star(p)
    eps = float(np.finfo(x.dtype).eps)
    g = float(np.sqrt(max(xi, eps * g_star) * g_star))
    pm, qm = p.A - x @ p.C, p.D - p.C @ x
    eye_m, eye_n = np.eye(p.m, dtype=x.dtype), np.eye(p.n, dtype=x.dtype)
    try:
        fp, fq = lu_factor(pm + g * eye_m), lu_factor(qm + g * eye_n)
    except SingularMatrix:
        return None
    s = scipy.linalg.lu_solve(fp, pm - g * eye_m, check_finite=False)
    t = scipy.linalg.lu_solve(fq, qm - g * eye_n, check_finite=False)
    left = scipy.linalg.lu_solve(fp, 2.0 * g * residual(p, x), check_finite=False)
    delta = scipy.linalg.lu_solve(fq, left.T, trans=1, check_finite=False).T
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

    Pipeline: classify, (detect k), compute central pair, choose s, build
    the shifted equation, run the doubling solver on it with the original
    problem's gamma, and polish the result with Newton defect correction
    on the original equation.

    Returns (Solution, CentralSubspaces, ShiftPlan, SdaOutcome).
    """
    t0 = time.perf_counter()
    if not opts.force:
        require_mmatrix(p)
    h = build_h(p)
    work = h.H
    factor = lu_factor(work, pivot_tol=0.0, error=SingularH)  # shared below
    iter_tol = max(opts.iter_tol, 100.0 * float(np.finfo(p.dtype).eps))
    k = opts.k if opts.k is not None else detect_k(work, tol=iter_tol,
                                                   factor=factor)
    cs = compute_central_pair(work, k, iter_tol, factor=factor)
    if opts.s is not None:
        plan = ShiftPlan(s=float(opts.s), k=k, rationale={"fixed": True})
    else:
        xi_next = estimate_next_modulus(work, k, factor=factor)
        plan = choose_shift_s(cs, xi_next, frobenius_norm(work))
    shifted = build_shifted_h(h, cs, plan.s)
    shifted_problem = shifted.to_problem()
    cfg = SdaConfig(gamma=gamma_star(p), tol=opts.tol,
                    max_steps=opts.max_steps, trace=opts.trace)
    outcome = sda_solve(shifted_problem, cfg, residual_problem=p)
    x, res = newton_polish(p, outcome.X, outcome.residual,
                           float(np.min(np.abs(cs.central_eigs))))
    solution = Solution(X=x, residual=float(res), iterations=outcome.steps)
    plan = replace(plan, rationale=dict(plan.rationale,
                                        elapsed_s=time.perf_counter() - t0))
    return solution, cs, plan, outcome


def sushi_report(solution: Solution, cs: CentralSubspaces, plan: ShiftPlan,
                 outcome: SdaOutcome):
    """Structured summary of a shifted solve, JSON-serializable."""
    return {
        "k": cs.k,
        "s": plan.s,
        "central_eigs": [[z.real, z.imag] for z in np.atleast_1d(cs.central_eigs)],
        "inv_iter_steps": cs.inv_iter_steps,
        "cond_uv": cs.cond_uv,
        "sda_steps": outcome.steps,
        "residual": solution.residual,
        "dual_residual": outcome.dual_residual,
        "timings": {"total_s": plan.rationale.get("elapsed_s")},
    }
