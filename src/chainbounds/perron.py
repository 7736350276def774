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

The iteration runs on a stack of matrices (``pf_stack``), each member
with its own stopping tests, budget and gates, and ``pf_irreducible`` is
the stack of one.  numpy's stacked ``matmul`` computes each member's
product with the same BLAS call as ``M @ v``, so a member's triple is
bit-identical to its solo solve; stacking only spreads the per-step
interpreter overhead over the members.

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

import math
from dataclasses import dataclass

import numpy as np

from . import assumptions as _assumptions
from .errors import ConvergenceError, DomainError
from .model import MarkovModel, level_sets

RESIDUAL_TOL = 1e-11      # times the max entry of the matrix
RHO_REL_TOL = 1e-13       # successive eigenvalue-estimate agreement
ITERATION_BUDGET = 100_000
SHIFT_FRACTION = 1e-3     # eps = SHIFT_FRACTION * max entry

__all__ = ["PerronTriple", "pf_irreducible", "pf_stack", "limit_matrix"]


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


def _matvec(Ms: np.ndarray, X: np.ndarray) -> np.ndarray:
    """Row b is Ms[b] @ X[b], by the BLAS call that product makes alone."""
    return np.matmul(Ms, X[:, :, None])[:, :, 0]


def _dot(X: np.ndarray, Y: np.ndarray) -> np.ndarray:
    """Entry b is X[b] @ Y[b], by the BLAS call that product makes alone."""
    return np.matmul(X[:, None, :], Y[:, :, None])[:, 0, 0]


def _power_vectors(Ms: np.ndarray, eps: np.ndarray):
    """Run the two-sided power iteration on a stack; return (U, V, done).

    Member b iterates on Ms[b] + eps[b] I; where ``done[b]``, rows b of U
    and V are its left and right vectors.  Each member iterates exactly as
    it would alone: numpy's stacked ``matmul`` runs the same per-slice
    product as ``M @ v``, and every test below is taken per member, so a
    member's vectors and iteration count do not depend on the rest of the
    stack.  Members that converge or fail leave the active set.

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
    B, n, _ = Ms.shape
    # rows 0..b-1 iterate the right vectors, rows b..2b-1 the left ones on
    # the transposes, so one stacked product advances both.  Adding 0.0
    # and then eps to the diagonal gives exactly M + eps * I.
    A = np.empty((2 * B, n, n))
    np.add(Ms, 0.0, out=A[:B])
    A[:B, np.arange(n), np.arange(n)] += eps[:, None]
    A[B:] = A[:B].transpose(0, 2, 1)
    X = np.ones(A.shape[:2])
    gate = 0.3 * RESIDUAL_TOL * A[:B].max(axis=(1, 2))
    prev = np.full(2 * B, np.inf)
    members = np.arange(B)             # input index of each row pair
    active = np.ones(B, dtype=bool)    # converged rows linger until compacted
    U, V = np.ones((B, n)), np.ones((B, n))
    done = np.zeros(B, dtype=bool)
    for k in range(ITERATION_BUDGET):
        Y = _matvec(A, X)
        r = np.maximum.reduce(Y, axis=1)
        b = members.size
        failed = not (np.minimum.reduce(r) > 0.0 and np.maximum.reduce(r) < np.inf)
        if failed:
            # a non-positive or non-finite estimate fails its member
            good = (r > 0.0) & (r < np.inf)
            good = np.tile(good[:b] & good[b:], 2)
            active &= good[:b]
            r[~good] = 1.0
        X = Y / r[:, None]
        if k % 50 == 49:
            check = active.copy()
        else:
            close = np.abs(r - prev) <= RHO_REL_TOL * r
            check = close[:b] & close[b:] & active
        left = False
        for i in check.nonzero()[0]:
            v, u = X[i], X[b + i]
            rv, ru = float(r[i]), float(r[b + i])
            res_v = float(np.abs(A[i] @ v - rv * v).max())
            res_u = float(np.abs(A[b + i] @ u - ru * u).max())
            v_rescale = float(u.sum()) / float(u @ v)
            if res_v * max(1.0, v_rescale) <= gate[i] and res_u <= gate[i]:
                U[members[i]], V[members[i]] = u, v
                done[members[i]] = True
                active[i] = False
                left = True
        prev = r
        if failed or left:
            alive = int(np.count_nonzero(active))
            if not alive:
                break
            # copying the stack is the costly part: drop converged rows once
            # they are half of it, and failed ones at once
            if failed or 2 * alive <= b:
                keep = np.tile(active, 2)
                A, X, prev = A[keep], X[keep], prev[keep]
                gate, members = gate[active], members[active]
                active = np.ones(alive, dtype=bool)
    return U, V, done


def _gated_residuals(Ms: np.ndarray, rho: np.ndarray, U: np.ndarray,
                     V: np.ndarray, what: str) -> list:
    """Per member, the max-norm eigen-residual of (rho, u, v) on M, or the
    ConvergenceError for one above tolerance."""
    res_u = np.abs(_matvec(Ms.transpose(0, 2, 1), U) - rho[:, None] * U).max(axis=1)
    res_v = np.abs(_matvec(Ms, V) - rho[:, None] * V).max(axis=1)
    out = []
    for ru, rv, top in zip(res_u.tolist(), res_v.tolist(),
                           Ms.max(axis=(1, 2)).tolist()):
        residual, tol = max(ru, rv), RESIDUAL_TOL * top
        out.append(ConvergenceError(
            f"perron: {what} {residual:.3e} exceeds tolerance {tol:.3e}",
            residual=residual) if residual > tol else residual)
    return out


def _finish(Ms: np.ndarray, U: np.ndarray, V: np.ndarray) -> list:
    """Apply the normalization convention and measure the residual on each
    member; entry b is its PerronTriple or the ConvergenceError of a gate.
    Values of members that fail the eigenvalue test are computed but unused."""
    with np.errstate(divide="ignore", invalid="ignore"):
        rho = _dot(U, _matvec(Ms, V)) / _dot(U, V)
        U = U / U.sum(axis=1)[:, None]
        V = V / _dot(U, V)[:, None]
        residuals = _gated_residuals(Ms, rho, U, V, "eigen-residual")
    positive = (V.min(axis=1) > 0.0).tolist()
    out = []
    for b, (r, residual) in enumerate(zip(rho.tolist(), residuals)):
        if not math.isfinite(r) or r <= 0.0:
            out.append(ConvergenceError(
                f"perron: iteration produced a non-positive eigenvalue ({r!r})"))
        elif isinstance(residual, ConvergenceError):
            out.append(residual)
        elif not positive[b]:
            out.append(ConvergenceError(
                "perron: right eigenvector lost strict positivity"))
        else:
            out.append(PerronTriple(rho=r, u=U[b], v=V[b], residual=residual))
    return out


def pf_stack(Ms: np.ndarray) -> list:
    """Perron-Frobenius triples of a stack of nonnegative irreducible matrices.

    ``Ms`` has shape (B, S, S).  Entry b of the result is member b's
    ``PerronTriple``, bit-identical to ``pf_irreducible(Ms[b])``, or the
    exception that call would raise: every input check, the iteration and
    the residual and positivity gates apply to each member alone, so one
    bad member cannot spoil the others.
    """
    Ms = np.asarray(Ms, dtype=np.float64)
    if Ms.ndim != 3 or Ms.shape[1] != Ms.shape[2]:
        raise ValueError("perron: stack must have shape (B, S, S)")
    out: list = [None] * Ms.shape[0]
    # min and max carry any NaN, and any infinity, of their member
    lo, hi = Ms.min(axis=(1, 2)), Ms.max(axis=(1, 2))
    finite = np.isfinite(lo) & np.isfinite(hi)
    for i, (ok, low) in enumerate(zip(finite.tolist(), lo.tolist())):
        if not ok:
            out[i] = ValueError("perron: matrix entries must be finite")
        elif low < 0.0:
            out[i] = ValueError("perron: matrix must be nonnegative")
    todo = [i for i, res in enumerate(out) if res is None]
    n = Ms.shape[1]
    if n == 1:
        for i in todo:
            rho = float(Ms[i, 0, 0])
            if rho <= 0.0:
                out[i] = DomainError(
                    "perron: 1x1 matrix with zero entry is reducible")
            else:
                out[i] = PerronTriple(rho=rho, u=np.ones(1), v=np.ones(1),
                                      residual=0.0)
        return out
    if not todo:
        return out
    valid = Ms if len(todo) == len(Ms) else Ms[todo]
    U, V, done = _power_vectors(valid, SHIFT_FRACTION * hi[todo])
    for i, ok, result in zip(todo, done.tolist(), _finish(valid, U, V)):
        out[i] = result if ok else ConvergenceError(
            "perron: power iteration did not converge within "
            f"{ITERATION_BUDGET} iterations (ill-conditioned spectrum)")
    return out


def pf_irreducible(M: np.ndarray) -> PerronTriple:
    """Perron-Frobenius triple of a nonnegative irreducible square matrix.

    Irreducibility is the caller's responsibility (`is_irreducible`); the
    solver also copes with the [[A, 0], [B, 0]] pattern that arises when
    tilted matrices underflow toward their limit.  Output is deterministic
    for identical input.  This is ``pf_stack`` on a stack of one.
    """
    M = np.asarray(M, dtype=np.float64)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise ValueError("perron: matrix must be square")
    result = pf_stack(M[None])[0]
    if isinstance(result, Exception):
        raise result
    return result


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
    residual = _gated_residuals(Mbar[None], np.array([tri.rho]), u[None],
                                v[None], "assembled eigen-residual")[0]
    if isinstance(residual, ConvergenceError):
        raise residual
    return Mbar, PerronTriple(rho=tri.rho, u=u, v=v, residual=residual)
