"""Perron-Frobenius eigentriples for nonnegative matrices.

The solver is a deterministic power iteration (all-ones start, sup-norm
normalization each step) run simultaneously for the right vector and,
on the transpose, for the left one.  Iteration happens on M + eps*I with
a small eps: matrices whose positivity digraph is periodic make plain
power iteration oscillate, and the shift cures that without changing the
eigenvectors (every eigenvalue moves by exactly eps, which breaks the
balanced |eigenvalue| ties behind the oscillation and barely perturbs
well-separated spectra).  The reported eigenvalue
comes from the two-sided Rayleigh quotient u'Mv / u'v on the original
matrix, which is accurate to roundoff once the vectors have converged and
avoids subtracting the shift back out of the estimate.

Normalization convention for a triple (rho, u, v):

    sum_x u(x) = 1        and        sum_x u(x) v(x) = 1.

The limit matrix of a side keeps the columns of P on the side's extreme
set of f (the core) and zeroes the rest: [[A, 0], [B, 0]] up to a
renumbering, with A = P[core, core].  Its triple is assembled from the
core: rho = rho(A), u is u_A on the core and 0 elsewhere, and v is v_A on
the core and B v_A / rho(A) off it.  This needs A irreducible and no zero
row in B, which are the side's assumptions (A1-A2 or A3-A4), so
``assumptions.require`` gates it.
"""

from dataclasses import dataclass

import numpy as np

from . import assumptions as _assumptions
from .errors import ConvergenceError, DomainError
from .model import MarkovModel, level_sets

RESIDUAL_TOL = 1e-11      # times the max entry of the matrix
RHO_REL_TOL = 1e-13       # successive eigenvalue-estimate agreement
ITERATION_BUDGET = 100_000
SHIFT_FRACTION = 1e-3     # eps = SHIFT_FRACTION * max entry

__all__ = ["PerronTriple", "pf_irreducible", "limit_matrix"]


@dataclass(frozen=True, eq=False)
class PerronTriple:
    """Spectral radius with left/right eigenvectors in the convention above.

    ``residual`` is the max-norm eigen-residual actually achieved on the
    matrix the triple was computed from.
    """

    rho: float
    u: np.ndarray
    v: np.ndarray
    residual: float

    def __post_init__(self):
        u = np.asarray(self.u, dtype=np.float64)
        v = np.asarray(self.v, dtype=np.float64)
        u.setflags(write=False)
        v.setflags(write=False)
        object.__setattr__(self, "u", u)
        object.__setattr__(self, "v", v)

    @property
    def pi(self) -> np.ndarray:
        """Stationary vector of the normalized chain: pi = u * v."""
        return self.u * self.v


def _power_vectors(M_it: np.ndarray, budget: int):
    """Run the two-sided power iteration; return (u, v, iterations) or None.

    Vectors are sup-normalized each step.  The cheap trigger is agreement
    of successive eigenvalue estimates to RHO_REL_TOL relative, but the
    decisive test is the sup-norm eigen-residual: per-step rounding keeps
    the estimates jittering at about eps/(spectral gap), which for nearly
    balanced spectra sits above RHO_REL_TOL, so the residual is also
    polled periodically.  The gate anticipates the final normalization:
    the right vector will be rescaled by sum(u)/(u.v), which can be large
    when eigenvector entries are lopsided, so the raw residual must be
    smaller by that factor.
    """
    n = M_it.shape[0]
    MT = np.ascontiguousarray(M_it.T)
    v = np.ones(n)
    u = np.ones(n)
    base_gate = 0.3 * RESIDUAL_TOL * float(M_it.max())
    rv_prev = ru_prev = np.inf
    for k in range(budget):
        w = M_it @ v
        rv = float(w.max())
        z = MT @ u
        ru = float(z.max())
        if rv <= 0.0 or ru <= 0.0 or not np.isfinite(rv) or not np.isfinite(ru):
            return None
        v = w / rv
        u = z / ru
        triggered = (abs(rv - rv_prev) <= RHO_REL_TOL * rv
                     and abs(ru - ru_prev) <= RHO_REL_TOL * ru)
        if triggered or k % 50 == 49:
            res_v = float(np.abs(M_it @ v - rv * v).max())
            res_u = float(np.abs(MT @ u - ru * u).max())
            v_rescale = float(u.sum()) / float(u @ v)
            if res_v * max(1.0, v_rescale) <= base_gate and res_u <= base_gate:
                return u, v, k + 1
        rv_prev, ru_prev = rv, ru
    return None


def _gated_residual(M: np.ndarray, rho: float, u: np.ndarray, v: np.ndarray,
                    what: str) -> float:
    """Max-norm eigen-residual of (rho, u, v) on M; raises above tolerance."""
    residual = max(float(np.abs(M.T @ u - rho * u).max()),
                   float(np.abs(M @ v - rho * v).max()))
    tol = RESIDUAL_TOL * float(M.max())
    if residual > tol:
        raise ConvergenceError(
            f"perron: {what} {residual:.3e} exceeds tolerance {tol:.3e}",
            residual=residual)
    return residual


def _finish(M: np.ndarray, u: np.ndarray, v: np.ndarray) -> PerronTriple:
    """Apply the normalization convention and measure the residual on M."""
    denom = float(u @ v)
    rho = float(u @ (M @ v)) / denom
    if not np.isfinite(rho) or rho <= 0.0:
        raise ConvergenceError(
            f"perron: iteration produced a non-positive eigenvalue ({rho!r})")
    u = u / u.sum()
    v = v / float(u @ v)
    residual = _gated_residual(M, rho, u, v, "eigen-residual")
    if v.min() <= 0.0:
        raise ConvergenceError(
            "perron: right eigenvector lost strict positivity")
    return PerronTriple(rho=rho, u=u, v=v, residual=residual)


def pf_irreducible(M: np.ndarray) -> PerronTriple:
    """Perron-Frobenius triple of a nonnegative irreducible square matrix.

    Irreducibility is the caller's responsibility (`is_irreducible`); the
    solver also copes with the [[A, 0], [B, 0]] pattern that arises when
    tilted matrices underflow toward their limit.  Output is deterministic
    for identical input.
    """
    M = np.asarray(M, dtype=np.float64)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise ValueError("perron: matrix must be square")
    if M.min() < 0.0:
        raise ValueError("perron: matrix must be nonnegative")
    n = M.shape[0]
    if n == 1:
        rho = float(M[0, 0])
        if rho <= 0.0:
            raise DomainError("perron: 1x1 matrix with zero entry is reducible")
        return PerronTriple(rho=rho, u=np.ones(1), v=np.ones(1), residual=0.0)

    eps = SHIFT_FRACTION * float(M.max())
    res = _power_vectors(M + eps * np.eye(n), ITERATION_BUDGET)
    if res is None:
        raise ConvergenceError(
            "perron: power iteration did not converge within "
            f"{ITERATION_BUDGET} iterations (ill-conditioned spectrum)")
    u, v, _ = res
    return _finish(M, u, v)


def limit_matrix(model: MarkovModel, side: str = "upper"):
    """Limit of the rescaled tilted matrices and its Perron triple.

    For the upper side this keeps exactly the columns of P indexed by the
    argmax set of f and zeroes the rest; the lower side uses the argmin
    set (equivalently, the construction for -f).  Requires the side's
    positivity assumptions; returns ``(matrix, PerronTriple)``, the triple
    assembled from the core block as described in the module docstring.
    """
    _assumptions.require(model, side)
    ls = level_sets(model)
    core = list(ls.S_b if side == "upper" else ls.S_a)
    fringe = [i for i in range(model.n_states) if i not in core]
    P = model.P
    Mbar = np.zeros_like(P)
    Mbar[:, core] = P[:, core]
    tri = pf_irreducible(P[np.ix_(core, core)])
    u = np.zeros(model.n_states)
    v = np.zeros(model.n_states)
    u[core] = tri.u
    v[core] = tri.v
    v[fringe] = P[np.ix_(fringe, core)] @ tri.v / tri.rho
    residual = _gated_residual(Mbar, tri.rho, u, v, "assembled eigen-residual")
    return Mbar, PerronTriple(rho=tri.rho, u=u, v=v, residual=residual)
