"""Benchmark problem generators.

Two families:

* the neutron-transport discretization, a structured n x n equation built
  from Gauss-Legendre quadrature on (0, 1), close to critical when
  (alpha, c) approaches (0, 1);
* random M-matrix equations, where a 2n x 2n matrix
  M = (rho(N) + alpha) I - N with entrywise-uniform N is carved into the
  four coefficient blocks, close to critical as alpha -> 0.

Plus a reverse-engineering helper that manufactures B so a prescribed X0
is an exact solution, used as a test oracle.
"""

from dataclasses import dataclass

import numpy as np

from .core import NareProblem
from .errors import InvalidProblem


@dataclass(frozen=True)
class TransportSpec:
    n: int
    alpha: float  # in [0, 1); criticality as alpha -> 0
    c: float      # in (0, 1]; criticality as c -> 1

    def __post_init__(self):
        if self.n < 1:
            raise InvalidProblem("transport size n must be positive")
        if not 0.0 <= self.alpha < 1.0:
            raise InvalidProblem("alpha must lie in [0, 1)")
        if not 0.0 < self.c <= 1.0:
            raise InvalidProblem("c must lie in (0, 1]")

    @classmethod
    def near_critical(cls, n, beta):
        """The one-parameter family (alpha, c) = (beta, 1 - beta)."""
        return cls(n=n, alpha=beta, c=1.0 - beta)


@dataclass(frozen=True)
class RandomMnareSpec:
    n: int
    alpha: float  # distance of M from singularity; criticality as alpha -> 0
    seed: int

    def __post_init__(self):
        if self.n < 1:
            raise InvalidProblem("size n must be positive")
        if self.alpha <= 0.0:
            raise InvalidProblem("alpha must be positive")


def gauss_legendre_nodes(n):
    """Nodes and weights of a rule of order n on (0, 1).

    Composite rule when 4 divides n: n/4 equal subintervals, 4-point
    Gauss-Legendre on each; a plain n-point rule otherwise.  The composite
    rule keeps the largest node well inside (0, 1), so the coefficient
    diagonals (proportional to 1/node) stay moderate as n grows.
    """
    try:
        if n % 4 == 0:
            x, w = np.polynomial.legendre.leggauss(4)
            width = 1.0 / (n // 4)
            nodes = np.concatenate(
                [i * width + width * 0.5 * (x + 1.0) for i in range(n // 4)]
            )
            weights = np.tile(width * 0.5 * w, n // 4)
        else:
            x, w = np.polynomial.legendre.leggauss(n)
            nodes = 0.5 * (x + 1.0)
            weights = 0.5 * w
    except np.linalg.LinAlgError as exc:
        raise InvalidProblem(str(exc)) from exc
    if not (np.all(nodes > 0.0) and np.all(nodes < 1.0) and np.all(weights > 0.0)):
        raise InvalidProblem("quadrature nodes left the open interval (0, 1)")
    return nodes, weights


def transport_problem(spec: TransportSpec) -> NareProblem:
    """Transport-theory equation of size n x n.

    With nodes omega_i and weights c_i on (0, 1):

        delta_i = 1 / (c omega_i (1 + alpha)),  gamma_i = 1 / (c omega_i (1 - alpha)),
        q_i = c_i / (2 omega_i),  e = ones,
        A = diag(delta) - e q^T,  B = e e^T,  C = q q^T,  D = diag(gamma) - q e^T.
    """
    om, cw = gauss_legendre_nodes(spec.n)
    delta = 1.0 / (spec.c * om * (1.0 + spec.alpha))
    gamma = 1.0 / (spec.c * om * (1.0 - spec.alpha))
    q = cw / (2.0 * om)
    e = np.ones(spec.n)
    return NareProblem(
        A=np.diag(delta) - np.outer(e, q),
        B=np.outer(e, e),
        C=np.outer(q, q),
        D=np.diag(gamma) - np.outer(q, e),
        metadata={"family": "transport", "n": spec.n,
                  "alpha": spec.alpha, "c": spec.c},
    )


def random_mnare(spec: RandomMnareSpec) -> NareProblem:
    """Random M-matrix equation: blocks of (rho(N) + alpha) I - N.

    N is 2n x 2n with entries uniform on (0, 1) from a seeded PCG64
    generator, so a fixed seed reproduces the problem bit for bit.
    """
    rng = np.random.default_rng(spec.seed)
    n = spec.n
    big = rng.uniform(0.0, 1.0, (2 * n, 2 * n))
    rho = float(np.max(np.abs(np.linalg.eigvals(big))))
    m = (rho + spec.alpha) * np.eye(2 * n) - big
    return NareProblem(
        A=m[n:, n:],
        B=-m[n:, :n],
        C=-m[:n, n:],
        D=m[:n, :n],
        metadata={"family": "random_mnare", "n": n, "alpha": spec.alpha,
                  "seed": spec.seed, "prng": "PCG64"},
    )


def reverse_engineered_problem(x0, a, c, d) -> NareProblem:
    """Problem with prescribed exact solution: B := A X0 + X0 D - X0 C X0."""
    x0 = np.asarray(x0, dtype=float)
    a = np.asarray(a, dtype=float)
    c = np.asarray(c, dtype=float)
    d = np.asarray(d, dtype=float)
    b = a @ x0 + x0 @ d - x0 @ c @ x0
    return NareProblem(A=a, B=b, C=c, D=d,
                       metadata={"family": "reverse_engineered"})
