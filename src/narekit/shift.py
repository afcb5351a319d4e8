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
<= SLOW_RATE, and s = |xi_{k+1}| / |xi_1| - 1 in [S_MIN, S_MAX].  The bases
come from inverse orthogonal iteration.  H is LU-factored once per solve,
and the stages take that LU, not H: the M-matrix guard, the probe and every
inverse iteration, the left one with H^T included, solve with it.  A
central subspace has 1 <= k < n + m.  The fixed settings (seed, step
caps, k limit, s clamp) are the module constants below.
"""

from dataclasses import dataclass, field, replace
import functools
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
from .errors import (
    CentralPairIllConditioned,
    DegenerateSpectrum,
    InvalidProblem,
    KMaxReached,
    NoConvergence,
    SingularMatrix,
)
from .kernel import as_matrix, cond_uv, eigenpairs, frobenius_norm
from .kernel import both, lu_factor, lu_factor_cond, lu_solve, spectral_norm, thin_qr
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
    """Right and left central bases V, U, paired: k = V.shape[1] and cond_uv
    = ||(U^T V)^-1||_2 = 1 / sigma_min(U^T V) are read off the bases.
    InvalidProblem for non-finite or mismatched bases, central_eigs not of
    length k or central_vecs not k x k, and CentralPairIllConditioned
    unless cond_uv <= COND_CAP."""

    V: np.ndarray  # right basis, orthonormal columns
    U: np.ndarray  # left basis, orthonormal columns
    central_eigs: np.ndarray  # eigenvalues lam of V^T H V
    central_vecs: np.ndarray  # C, V^T H V = C diag(lam) C^-1
    inv_iter_steps: int
    k: int = field(init=False)
    cond_uv: float = field(init=False)

    def __post_init__(self):
        v = as_matrix(self.V, name="V")
        cond = cond_uv(as_matrix(self.U, name="U"), v)
        k = v.shape[1]
        if np.shape(self.central_eigs) != (k,) or np.shape(self.central_vecs) != (k, k):
            raise InvalidProblem(f"central_eigs must have length k={k} and central_vecs "
                                 f"be {k}x{k}")
        if not cond <= COND_CAP:
            raise CentralPairIllConditioned(
                f"cond(U^T V) = {cond:.3e} exceeds the acceptance cap",
                {"cond_uv": cond})
        object.__setattr__(self, "k", k)
        object.__setattr__(self, "cond_uv", cond)


@dataclass(frozen=True)
class ShiftPlan:
    s: float
    rationale: dict = field(default_factory=dict)


@functools.lru_cache(maxsize=8)
def _seeded_start(dim, cols, dtype):
    """Orthonormal dim x cols start of the probe and the inverse iterations,
    thin_qr of a standard normal block drawn from DEFAULT_SEED; drawn once
    per process and key, and read-only, as every caller shares it."""
    rng = np.random.default_rng(DEFAULT_SEED)
    q = thin_qr(rng.standard_normal((dim, cols)).astype(dtype))[0]
    q.flags.writeable = False
    return q


def inverse_orthogonal_iteration(factor, k, tol, trans=0):
    """Orthonormal basis of the invariant subspace of the k smallest-modulus
    eigenvalues of H (of H^T when trans=1), by repeated solve + thin QR on
    factor, H's LU from kernel.lu_factor; 1 <= k < N, N the order of H.

    Each step forms Q' R = H^-1 Q and the gap G = Q' - Q (Q^T Q'); the
    subspace distance between successive bases is ||G||_2.  Stops when it
    drops below tol, or when it stalls at its roundoff floor: once a
    distance has fallen below 1e-2, a step that recovers less than a factor
    0.9 ends the iteration only if Q is invariant, ||G R||_F <= tol ||R||_F
    (G R = (I - Q Q^T) H^-1 Q), so a transient stall iterates on.  Returns
    the last step's (Q', steps); NoConvergence after PAIR_MAX_ITERS steps,
    or at the first non-finite distance (the solve overflowed), with
    diagnostics basis, steps and distance (the last step's).
    """
    dim = factor[0].shape[0]
    if not 1 <= k < dim:
        raise InvalidProblem(f"central dimension k={k} is outside 1..{dim - 1}")
    q = _seeded_start(dim, k, factor[0].dtype)
    dists, armed = [], False
    for _ in range(PAIR_MAX_ITERS):
        q_new, r = thin_qr(lu_solve(factor, q, trans=trans))
        gap = q_new - q @ (q.T @ q_new)
        dists.append(spectral_norm(gap))
        q = q_new
        if not dists[-1] < np.inf:  # nan or inf: the solve overflowed
            break
        if dists[-1] <= tol or (armed and dists[-1] >= 0.9 * dists[-2] and
                                frobenius_norm(gap @ r) <= tol * frobenius_norm(r)):
            return q, len(dists)
        armed = armed or dists[-1] < 1e-2
    distance = dists[-1] if dists else np.inf
    raise NoConvergence(
        f"inverse iteration did not settle in {len(dists)} steps "
        f"(distance {distance:.3g})",
        diagnostics={"basis": q, "steps": len(dists), "distance": distance},
    )


def compute_central_pair(h, k, tol=1e-12, factor=None) -> CentralSubspaces:
    """Left and right central bases plus the eigendecomposition of V^T H V.

    The right basis comes from inverse iteration on h, the left one from
    the same iteration on h^T, both on one LU factor of h (factor, or a
    fresh one).  The CentralSubspaces refuses a pair with ||(U^T V)^-1||_2
    above COND_CAP.
    """
    h = np.asarray(h)
    if factor is None:
        factor = lu_factor(h)
    v, steps_v = inverse_orthogonal_iteration(factor, k, tol)
    u, _ = inverse_orthogonal_iteration(factor, k, tol, trans=1)
    lam, c = eigenpairs(v.T @ h @ v)
    return CentralSubspaces(V=v, U=u, central_eigs=lam, central_vecs=c,
                            inv_iter_steps=steps_v)


def smallest_moduli(factor, count):
    """Estimates of the count <= N smallest eigenvalue moduli |xi_1|, ... of H:
    1 / diag(R) after PROBE_ITERS steps of a seeded count-column orthogonal
    iteration on factor, H's LU.  A few steps give the one digit that k and
    s need, even for a modulus not separated from the next one up;
    DegenerateSpectrum when R is exactly singular."""
    lu = factor[0]
    q = _seeded_start(lu.shape[0], count, lu.dtype)
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
    formed as H + s (H V)((U^T V)^-1 U^T) in O(N^2 k).  cs holds
    cond(U^T V) <= COND_CAP, so the k x k solve meets no zero pivot.

    InvalidProblem unless s is finite and 1 + s > 0: a factor 1 + s <= 0
    moves the central eigenvalues onto or across the imaginary axis, so the
    doubling would stall or converge to a nonnegative solution other than
    the minimal one.
    """
    if not 0.0 < 1.0 + s < np.inf:
        raise InvalidProblem(f"shift s={s} must be finite with 1 + s > 0")
    w = np.linalg.solve(cs.U.T @ cs.V, cs.U.T)
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


def newton_polish(p: NareProblem, x, r, res, g, modes):
    """Newton defect correction on the original equation.

    Solves (A - X C) D + D (D_coef - C X) = R(X) for the correction D and
    keeps the update, for up to POLISH_MAX_STEPS corrections, while the
    relative residual improves.  r and res are R(x) and its relative size
    (a candidate's come from one evaluation); the polish is a no-op when
    res is at the floor 100 * eps of x's dtype.  modes = (on_q, right,
    left) are H's eigenvectors to deflate (central_modes; with no columns
    nothing is deflated), and g > 0 is Smith's Cayley parameter for the
    rest: sqrt(xi * gamma*) is the best single one for a real spectrum in
    [xi, gamma*].  Returns (x, res, doublings), Smith's doubling count per
    correction.
    """
    x = np.asarray(x)
    floor, doublings = 100.0 * float(np.finfo(x.dtype).eps), []
    for _ in range(POLISH_MAX_STEPS):
        if res <= floor:
            break
        correction = _smith_correction(p, x, r, g, modes)
        if correction is None:
            break
        doublings.append(correction[1])
        candidate = x + correction[0]
        new_r, new_res = _residual_with_size(p, candidate)
        if not new_res < res:
            break
        x, r, res = candidate, new_r, new_res
    return x, float(res), doublings


def central_modes(cs: CentralSubspaces):
    """(Re lam > 0, V C, (U^T V C)^-1 U^T): H's central right and left
    eigenvectors from the pair's V^T H V = C diag(lam) C^-1, a complex
    pair's as its real and imaginary parts, in O(N k^2)."""
    lam = cs.central_eigs
    c = np.where(lam.imag < 0, cs.central_vecs.imag, cs.central_vecs.real)
    vc = cs.V @ c.astype(cs.V.dtype)
    return lam.real > 0, vc, np.linalg.solve(cs.U.T @ vc, cs.U.T)


def _smith_correction(p: NareProblem, x, r, g, modes):
    """(D, doublings) with P D + D Q = r, r = R(X), P = A - X C, Q = D_coef - C X;
    None when P_g or Q_g (below) is past kernel.BREAKDOWN_COND or the sum
    diverges, as it can unless P and Q are M-matrices.  The modes' r, l
    with Re lam > 0 give Q's slow vectors z = r[:n], y = l[:n] + l[n:] X,
    the others P's w = r[n:] - X r[:n], t = l[n:].  D = W D_s Y^T +
    sum_j S^j D0 T^j: (T^T P W) D_s (Y^T Z) + (T^T W) D_s (Y^T Q Z) =
    T^T r Z, S = I - 2g P_g^-1, T = I - 2g Q_g^-1, D0 = P_g^-1 2g (r -
    P W D_s Y^T - W D_s Y^T Q) Q_g^-1, P_g = P + gI and Q_g = Q + gI (one
    solve per LU, against I), doubled until an increment no
    longer changes X (a residual target would drop the slowly converging part)."""
    eps, n, (on_q, right, left) = float(np.finfo(x.dtype).eps), p.n, modes
    pm, qm = p.A - x @ p.C, p.D - p.C @ x
    z, y = right[:n, on_q], left[on_q, :n] + left[on_q, n:] @ x
    w, tp = right[n:, ~on_q] - x @ right[:n, ~on_q], left[~on_q, n:]
    pw, rs = pm @ w, tp @ r @ z
    lhs = np.multiply.outer((y @ z).T, tp @ pw) + np.multiply.outer(
        (y @ (qm @ z)).T, tp @ w)  # sum of kron(b, a), without np.kron's cost
    eye_m, eye_n = np.eye(p.m, dtype=x.dtype), np.eye(n, dtype=x.dtype)
    delta, dim = 2.0 * g * r, min(p.m, n)  # 2g r', then D0

    def inverse(mat, eye, which):  # refused as a doubling step refuses its I - G H
        return lu_solve(lu_factor_cond(mat, which=which)[0], eye)

    try:
        p_inv, q_inv = both(lambda: inverse(pm + g * eye_m, eye_m, "P+g*I"),
                            lambda: inverse(qm + g * eye_n, eye_n, "Q+g*I"), dim)
        by = np.linalg.solve(lhs.swapaxes(1, 2).reshape(rs.size, rs.size),
                             rs.ravel("F")).reshape(rs.shape, order="F") @ y  # D_s Y^T
    except (SingularMatrix, np.linalg.LinAlgError):
        return None
    delta -= (2.0 * g * np.hstack([pw, w])) @ np.vstack([by, by @ qm])
    s, t = eye_m - 2.0 * g * p_inv, eye_n - 2.0 * g * q_inv
    delta = p_inv @ delta @ q_inv
    stop = eps * frobenius_norm(x)
    with np.errstate(over="ignore", invalid="ignore"):  # overflow: divergence
        for doublings in range(1, POLISH_MAX_DOUBLINGS + 1):
            # S^2 and T^2 are formed beside the increment, unused at the stop
            inc, (s, t) = both(lambda: s @ delta @ t, lambda: (s @ s, t @ t), dim)
            size = frobenius_norm(inc)
            if not np.isfinite(size):
                return None
            delta += inc
            if size <= stop:
                break
    return delta + w @ by, doublings


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
    fixed k), (detect k), compute the central pair, choose s, build the
    shifted equation, run the doubling solver on it with the original
    problem's gamma, and polish the result on the original equation with
    the central modes deflated, Smith at g = sqrt(|xi_{k+1}| gamma*);
    plan.rationale records polish_g and polish_doublings.

    Returns (result, CentralSubspaces, ShiftPlan, shifted), two
    SdaOutcomes.  shifted is the doubling's outcome on the shifted
    equation, its residuals and flag that equation's.  result answers the
    original equation: the polished X and its residual, converged when that
    residual meets sda.residual_bound, and the shifted doubling's steps,
    gamma, tail_from and Y with the dual residual of the original equation.
    The shift keeps every invariant subspace of H and the sign of every
    eigenvalue's real part, so that X and Y are the original solutions up
    to the eps * (1 + s) perturbation of forming the shifted equation; X
    is polished, and S_MAX bounds Y's error.
    """
    t0 = time.perf_counter()
    h = build_h(p)
    try:
        factor = lu_factor(h.H)  # shared below
    except SingularMatrix:
        if not opts.force:
            require_mmatrix(p)  # a problem that is not M-structured says so first
        raise
    if not opts.force:
        require_mmatrix(p, factor)
    eps = float(np.finfo(p.dtype).eps)
    iter_tol = max(opts.iter_tol, 100.0 * eps)
    k = opts.k
    moduli = smallest_moduli(factor, np.clip(k or K_MAX, 1, h.H.shape[0] - 1) + 1)
    k = detect_k(moduli) if k is None else k
    cs = compute_central_pair(h.H, k, iter_tol, factor=factor)
    if opts.s is not None:
        plan = ShiftPlan(s=float(opts.s), rationale={"fixed": True})
    else:
        plan = choose_shift_s(cs, moduli[k], frobenius_norm(h.H))
    shifted_problem = build_shifted_h(h, cs, plan.s).to_problem()
    del h, factor  # N x N arrays the doubling does not read
    cfg = SdaConfig(gamma=gamma_star(p), tol=opts.tol,
                    max_steps=opts.max_steps, trace=opts.trace)
    shifted = sda_solve(shifted_problem, cfg)
    del shifted_problem
    g = float(np.sqrt(max(moduli[k], eps * cfg.gamma) * cfg.gamma))
    (r, res), dual_res = both(lambda: _residual_with_size(p, shifted.X),
                              lambda: relative_residual(p.dual(), shifted.Y), min(p.n, p.m))
    x, res, doublings = newton_polish(p, shifted.X, r, res, g, central_modes(cs))
    result = replace(shifted, X=x, residual=res, dual_residual=dual_res,
                     converged=res <= residual_bound(p, opts.tol))
    plan = replace(plan, rationale=dict(plan.rationale, polish_g=g,
                                        polish_doublings=doublings,
                                        elapsed_s=time.perf_counter() - t0))
    return result, cs, plan, shifted
