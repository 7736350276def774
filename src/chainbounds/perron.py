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

Matrices come in factored form: one shared nonnegative P and rows D, and
member b of the family is M_b = P diag(D[b]), the shape of every tilt of
one chain.  ``pf_stack`` iterates all members at once without forming any
M_b: the right product is P (D[b] * v) and the left one D[b] * (P'u), one
matrix-vector product per member against the shared P and its transpose.
Each member keeps its own stopping tests, budget and gates, and numpy's
stacked ``matmul`` computes each member's product with the same BLAS call
as the member alone, so a member's triple is bit-identical to its solo
solve; stacking only spreads the per-step interpreter overhead over the
members.  ``pf_irreducible`` is the stack of one, with D = 1 for a
general matrix.

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


def _right(P: np.ndarray, D: np.ndarray, X: np.ndarray) -> np.ndarray:
    """Row b is P diag(D[b]) @ X[b], one matrix-vector product per row."""
    return np.matmul(P, (D * X)[:, :, None])[:, :, 0]


def _left(P: np.ndarray, D: np.ndarray, X: np.ndarray) -> np.ndarray:
    """Row b is (P diag(D[b]))' @ X[b], one matrix-vector product per row
    against a contiguous copy of P'."""
    return D * np.matmul(np.ascontiguousarray(P.T), X[:, :, None])[:, :, 0]


def _dot(X: np.ndarray, Y: np.ndarray) -> np.ndarray:
    """Entry b is X[b] @ Y[b], by the BLAS call that product makes alone."""
    return np.matmul(X[:, None, :], Y[:, :, None])[:, 0, 0]


def _top(P: np.ndarray, D: np.ndarray) -> np.ndarray:
    """Max entry of each member: max_j D[b, j] * colmax_j(P), which for
    nonnegative D is exactly the max over P diag(D[b])."""
    return (D * P.max(axis=0)).max(axis=1)


def _shifted_products(PP: np.ndarray, W_in: np.ndarray, W_out: np.ndarray,
                      eps: np.ndarray, X: np.ndarray) -> np.ndarray:
    """(M_b + eps_b I) X[0, b] and (M_b + eps_b I)' X[1, b] for each row b,
    from PP = (P, P') and the weights W_in = (D, 1), W_out = (1, D)."""
    Y = np.matmul(PP, (W_in * X)[..., None])[..., 0]
    Y *= W_out
    Y += eps * X
    return Y


def _power_vectors(P: np.ndarray, D: np.ndarray, hi: np.ndarray):
    """Run the two-sided power iteration on a stack; return (U, V, done).

    Member b iterates on M_b + eps[b] I with M_b = P diag(D[b]) and eps[b]
    = SHIFT_FRACTION * hi[b], hi[b] the max entry of M_b; where
    ``done[b]``, rows b of U and V are its left and right vectors.  Each
    member iterates exactly as it would alone: numpy's stacked ``matmul``
    runs the same per-slice product as ``P @ x``, and every test below is
    taken per member, so a member's vectors and iteration count do not
    depend on the rest of the stack.  Members that converge or fail leave
    the active set.

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
    B, n = D.shape
    # slice 0 iterates the right vectors against P, slice 1 the left ones
    # against P', so one stacked product advances both
    PP = np.empty((2, 1, n, n))
    PP[0, 0], PP[1, 0] = P, P.T
    W_in = np.ones((2, B, n))
    W_in[0] = D
    W_out = W_in[::-1].copy()
    eps = SHIFT_FRACTION * hi
    # max entry of M + eps I, diagonal shift included
    gate = 0.3 * RESIDUAL_TOL * np.maximum(
        hi, (np.diagonal(P) * D).max(axis=1) + eps)
    eps = eps[:, None]
    X = np.ones((2, B, n))
    prev = np.full((2, B), np.inf)
    members = np.arange(B)             # input index of each member row
    active = np.ones(B, dtype=bool)    # converged rows linger until compacted
    U, V = np.ones((B, n)), np.ones((B, n))
    done = np.zeros(B, dtype=bool)
    for k in range(ITERATION_BUDGET):
        Y = _shifted_products(PP, W_in, W_out, eps, X)
        r = np.maximum.reduce(Y, axis=2)
        b = members.size
        failed = not (np.minimum.reduce(r, axis=None) > 0.0
                      and np.maximum.reduce(r, axis=None) < np.inf)
        if failed:
            # a non-positive or non-finite estimate fails its member
            good = (r > 0.0) & (r < np.inf)
            good = good[0] & good[1]
            active &= good
            r[:, ~good] = 1.0
        X = Y / r[:, :, None]
        if k % 50 == 49:
            check = active.copy()
        else:
            close = np.abs(r - prev) <= RHO_REL_TOL * r
            check = close[0] & close[1] & active
        c = check.nonzero()[0]
        if c.size:
            # the trigger's members take the residual test together, each
            # row by the same arithmetic as alone
            Xc = X[:, c]
            res = np.abs(_shifted_products(PP, W_in[:, c], W_out[:, c],
                                           eps[c], Xc)
                         - r[:, c, None] * Xc).max(axis=2)
            v, u = Xc
            with np.errstate(divide="ignore", invalid="ignore"):
                v_rescale = u.sum(axis=1) / _dot(u, v)
            ok = ((res[0] * np.fmax(1.0, v_rescale) <= gate[c])
                  & (res[1] <= gate[c]))
            c = c[ok]
            U[members[c]], V[members[c]] = u[ok], v[ok]
            done[members[c]] = True
            active[c] = False
        left = c.size > 0
        prev = r
        if failed or left:
            alive = int(np.count_nonzero(active))
            if not alive:
                break
            # drop converged rows once they are half of the stack, and
            # failed ones at once
            if failed or 2 * alive <= b:
                X, prev = X[:, active], prev[:, active]
                W_in, W_out = W_in[:, active], W_out[:, active]
                eps, gate = eps[active], gate[active]
                members = members[active]
                active = np.ones(alive, dtype=bool)
    return U, V, done


def _gated_residuals(P: np.ndarray, D: np.ndarray, rho: np.ndarray,
                     U: np.ndarray, V: np.ndarray, what: str) -> list:
    """Per member, the max-norm eigen-residual of (rho, u, v) on
    P diag(D[b]), or the ConvergenceError for one above tolerance."""
    res_u = np.abs(_left(P, D, U) - rho[:, None] * U).max(axis=1)
    res_v = np.abs(_right(P, D, V) - rho[:, None] * V).max(axis=1)
    out = []
    for ru, rv, top in zip(res_u.tolist(), res_v.tolist(),
                           _top(P, D).tolist()):
        residual, tol = max(ru, rv), RESIDUAL_TOL * top
        out.append(ConvergenceError(
            f"perron: {what} {residual:.3e} exceeds tolerance {tol:.3e}",
            residual=residual) if residual > tol else residual)
    return out


def _finish(P: np.ndarray, D: np.ndarray, U: np.ndarray,
            V: np.ndarray) -> list:
    """Apply the normalization convention and measure the residual on each
    member; entry b is its PerronTriple or the ConvergenceError of a gate.
    Values of members that fail the eigenvalue test are computed but unused."""
    with np.errstate(divide="ignore", invalid="ignore"):
        rho = _dot(U, _right(P, D, V)) / _dot(U, V)
        U = U / U.sum(axis=1)[:, None]
        V = V / _dot(U, V)[:, None]
        residuals = _gated_residuals(P, D, rho, U, V, "eigen-residual")
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


def pf_stack(P: np.ndarray, D: np.ndarray) -> list:
    """Perron-Frobenius triples of the irreducible matrices P diag(D[b]).

    ``P`` has shape (S, S) and ``D`` shape (B, S).  Entry b of the result
    is member b's ``PerronTriple``, bit-identical to
    ``pf_irreducible(P, D[b])``, or the exception that call would raise:
    every check of D, the iteration and the residual and positivity gates
    apply to each member alone, so one bad row cannot spoil the others.
    A P with a negative or non-finite entry fails every member.
    """
    P = np.asarray(P, dtype=np.float64)
    D = np.asarray(D, dtype=np.float64)
    if P.ndim != 2 or P.shape[0] != P.shape[1] or D.ndim != 2 \
            or D.shape[1] != P.shape[0]:
        raise ValueError("perron: stack must have shape (S, S) with rows "
                         "(B, S)")
    B, n = D.shape
    if not np.isfinite(P).all():
        return [ValueError("perron: matrix entries must be finite")
                for _ in range(B)]
    if P.min() < 0.0:
        return [ValueError("perron: matrix must be nonnegative")
                for _ in range(B)]
    out: list = [None] * B
    with np.errstate(invalid="ignore", over="ignore"):
        hi = _top(P, D)
    finite = np.isfinite(D).all(axis=1) & np.isfinite(hi)
    for i, (ok, low) in enumerate(zip(finite.tolist(), D.min(axis=1).tolist())):
        if not ok:
            out[i] = ValueError("perron: matrix entries must be finite")
        elif low < 0.0:
            out[i] = ValueError("perron: matrix must be nonnegative")
    todo = [i for i, res in enumerate(out) if res is None]
    if n == 1:
        for i in todo:
            rho = float(P[0, 0] * D[i, 0])
            if rho <= 0.0:
                out[i] = DomainError(
                    "perron: 1x1 matrix with zero entry is reducible")
            else:
                out[i] = PerronTriple(rho=rho, u=np.ones(1), v=np.ones(1),
                                      residual=0.0)
        return out
    if not todo:
        return out
    valid = D if len(todo) == B else D[todo]
    U, V, done = _power_vectors(P, valid, hi[todo])
    for i, ok, result in zip(todo, done.tolist(), _finish(P, valid, U, V)):
        out[i] = result if ok else ConvergenceError(
            "perron: power iteration did not converge within "
            f"{ITERATION_BUDGET} iterations (ill-conditioned spectrum)")
    return out


def pf_irreducible(M: np.ndarray, d: np.ndarray | None = None) -> PerronTriple:
    """Perron-Frobenius triple of the nonnegative irreducible matrix
    M diag(d), with d = 1 (M itself) by default.

    Irreducibility is the caller's responsibility (`is_irreducible`); the
    solver also copes with the [[A, 0], [B, 0]] pattern that arises when
    tilted matrices underflow toward their limit.  Output is deterministic
    for identical input.  This is ``pf_stack`` on a stack of one.
    """
    M = np.asarray(M, dtype=np.float64)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise ValueError("perron: matrix must be square")
    d = np.ones(M.shape[0]) if d is None else np.asarray(d, dtype=np.float64)
    if d.shape != M.shape[:1]:
        raise ValueError("perron: weights must have one entry per column")
    result = pf_stack(M, d[None])[0]
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
    residual = _gated_residuals(Mbar, np.ones((1, model.n_states)),
                                np.array([tri.rho]), u[None], v[None],
                                "assembled eigen-residual")[0]
    if isinstance(residual, ConvergenceError):
        raise residual
    return Mbar, PerronTriple(rho=tri.rho, u=u, v=v, residual=residual)
