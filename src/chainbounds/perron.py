"""Perron-Frobenius eigentriples for nonnegative matrices.

Matrices come in factored form: one shared nonnegative P and rows D, and
member b of the family is M_b = P diag(D[b]), the shape of every tilt of
one chain.  ``pf_stack`` returns the stack as arrays, row b for member b;
``pf_irreducible`` is the stack of one, with D = 1 for a general matrix,
returned as a ``PerronTriple``.  The right vector v is the Perron vector
of M = P diag(d); the left one is taken in factored form, u = d * z with
z the Perron vector of P' diag(d), since then
M' u = diag(d) P' diag(d) z = rho u.
Where a tilt starves a state (d tiny) z stays well scaled, while the
entries of u itself would be noise.

A positive vector x of a nonnegative A is judged by its Collatz-Wielandt
ratios (A x)_i / x_i, whose least and greatest values enclose rho(A).  A
member is done once both of its vectors have an enclosure of relative
width (max - min) / max, its gap, at most ENCLOSURE * S * 2**-53: a
componentwise test that does not depend on scale.  Entries with
x_i = (A x)_i = 0, which arise through underflow or the zero weights of
a limit matrix, are skipped; v must still be positive.

Every member starts with up to WARM_UP power steps (all-ones start,
sup-norm normalization), the stack advancing together: one stacked
``matmul`` against (P, P') makes the products P (d * v) and P' (d * z) of
every member, and members leave as they are enclosed.  A member still
open after the warm-up takes Noda's inverse iteration alone (Noda 1971;
quadratic convergence by Elsner 1976), on each vector up to NODA_CAP
times: shift by sigma, the greatest ratio, and solve
(sigma I - A) w = x.  As sigma >= rho, (sigma I - A)^-1 is nonnegative;
rounding can flip the sign of w once sigma is within roundoff of rho, so
x becomes |w|, which is sound because the enclosure certifies whatever
positive vector it is given.  The adaptive shift also copes with the
periodic patterns that make plain power iteration oscillate.  Stacked
``matmul`` runs the same per-slice product as ``P @ x``, every test is
per member and the Noda steps run per member, so a member's triple is
bit-identical to its solo solve.  The eigenvalue is the two-sided
Rayleigh quotient u'Mv / u'v, a convex combination of the right ratios.

Normalization convention for a triple (rho, u, v):

    sum_x u(x) = 1        and        sum_x u(x) v(x) = 1.

The limit matrix of a side keeps the columns of P on the side's extreme
set of f (the core) and zeroes the rest: it is the member P diag(d) with
d = 1 on the core and 0 elsewhere, [[A, 0], [B, 0]] up to a renumbering,
so ``limit_matrix`` is one ``pf_irreducible`` call.  The side's
assumptions (A1-A2 or A3-A4), which ``assumptions.require`` gates, make
it irreducible on the core and v positive; u = d * z is zero off the
core.
"""

from dataclasses import dataclass

import numpy as np

from . import assumptions as _assumptions
from .errors import ConvergenceError
from .model import MarkovModel

# Each fixed by measurement: bounds_dense members all meet the enclosure
# within 13 power steps; sparse chains tilted by |theta| <= 200 needed up
# to 196 Noda steps; and rounding alone can spread the ratios of a
# correctly rounded eigenvector by 2 (S + 2) 2**-53 <= 8 S 2**-53.
WARM_UP = 15      # power steps before a member turns to Noda steps
NODA_CAP = 256    # Noda steps per vector
ENCLOSURE = 8     # gap tolerance ENCLOSURE * S * 2**-53

__all__ = ["PerronTriple", "pf_irreducible", "pf_stack", "limit_matrix"]


@dataclass(frozen=True, eq=False)
class PerronTriple:
    """Spectral radius with left/right eigenvectors in the convention above.

    ``gap`` is the relative width of the solver's Collatz-Wielandt
    enclosure of ``rho``, the larger of its two vectors' gaps.
    """

    rho: float
    u: np.ndarray
    v: np.ndarray
    gap: float

    def __post_init__(self):
        u = np.asarray(self.u, dtype=np.float64)
        v = np.asarray(self.v, dtype=np.float64)
        u.setflags(write=False)
        v.setflags(write=False)
        object.__setattr__(self, "u", u)
        object.__setattr__(self, "v", v)


def _dot(X: np.ndarray, Y: np.ndarray) -> np.ndarray:
    """Entry b is X[b] @ Y[b], by the BLAS call that product makes alone."""
    return np.matmul(X[:, None, :], Y[:, :, None])[:, 0, 0]


def _enclosure(Y: np.ndarray, X: np.ndarray):
    """The greatest Collatz-Wielandt ratio Y / X along the last axis and
    the gap (max - min) / max, skipping 0/0; the gap is NaN where the top
    ratio is not finite and positive.  Callers silence 0/0 warnings."""
    R = Y / X
    hi = np.fmax.reduce(R, axis=-1)
    return hi, (hi - np.fmin.reduce(R, axis=-1)) / hi


def _noda(A: np.ndarray, x: np.ndarray, tol: float):
    """Noda steps on A from x until its gap is at most tol: (x, gap).
    Raises ConvergenceError when the cap is reached, the ratios are not
    finite or a shift is singular.

    Each step solves in the coordinates of s = x (1 where x is 0):
    w = s * (sigma I - S^-1 A S)^-1 (x / s) is (sigma I - A)^-1 x, and as
    the rows of S^-1 A S sum to the ratios, sigma I - S^-1 A S is a
    diagonally dominant M-matrix whose solution is accurate entry by entry
    relative to x, however graded x is.
    """
    eye = np.eye(x.size)
    for _ in range(NODA_CAP):
        sigma, gap = _enclosure(A @ x, x)
        if gap <= tol:
            return x, gap
        if not gap <= 1.0:
            raise ConvergenceError(
                "perron: Collatz-Wielandt ratios are not finite")
        s = np.where(x > 0.0, x, 1.0)
        try:
            w = s * np.abs(np.linalg.solve(sigma * eye - A * s / s[:, None],
                                           x / s))
        except np.linalg.LinAlgError:
            raise ConvergenceError(
                f"perron: Noda shift {sigma!r} is singular") from None
        x = w / w.max()
    raise ConvergenceError(f"perron: enclosure gap {gap:.3e} exceeds "
                           f"tolerance {tol:.3e} after {NODA_CAP} Noda steps")


def _vectors(P: np.ndarray, D: np.ndarray):
    """Enclosed vectors of each member P diag(D[b]): (Z, V, gap, errors),
    with errors[b] None where rows b of Z and V hold member b's vectors and
    gap[b] their gap, and otherwise the ConvergenceError it raised."""
    B, n = D.shape
    tol = ENCLOSURE * n * 2.0 ** -53
    PP = np.stack((P, P.T))[:, None]
    X = np.ones((2, B, n))
    out, gap = np.ones((2, B, n)), np.full(B, np.nan)
    errors: list = [None] * B
    members = np.arange(B)          # input index of each row of X
    weights = D
    for _ in range(WARM_UP):
        Y = np.matmul(PP, (weights * X)[..., None])[..., 0]
        g = np.maximum(*_enclosure(Y, X)[1])
        scale = np.maximum.reduce(Y, axis=2)
        done = g <= tol
        failed = ~done & ~((scale > 0.0) & (scale < np.inf)).all(axis=0)
        stay = ~(done | failed)
        if not stay.all():
            out[:, members[done]], gap[members[done]] = X[:, done], g[done]
            for b in members[failed].tolist():
                errors[b] = ConvergenceError(
                    "perron: a power step lost every entry or overflowed")
            Y, scale = Y[:, stay], scale[:, stay]
            weights, members = weights[stay], members[stay]
            if not members.size:
                break
        X = Y / scale[..., None]
    for row, b in enumerate(members.tolist()):
        try:
            for side, A in enumerate((P, P.T)):
                out[side, b], g = _noda(A * D[b], X[side, row], tol)
                gap[b] = np.fmax(gap[b], g)
        except ConvergenceError as exc:
            errors[b] = exc
    return out[1], out[0], gap, errors


def pf_stack(P: np.ndarray, D: np.ndarray) -> tuple:
    """Perron-Frobenius triples of the irreducible matrices P diag(D[b]).

    ``P`` has shape (S, S) and ``D`` shape (B, S).  A non-finite or
    negative entry in P or in D * colmax(P) raises ValueError for the
    whole call.  Otherwise the result is the stack (rho, U, V, gap,
    errors): read-only arrays whose entry or row b is member b's triple in
    the convention above, and a list whose entry b is None, or the
    ConvergenceError of a member whose iteration or its eigenvalue or
    positivity check failed; that member's rows hold unused values.  The
    iteration and the checks apply to each member alone, so a row is
    bit-identical to ``pf_irreducible(P, D[b])`` and one member that fails
    cannot spoil the others.
    """
    P = np.asarray(P, dtype=np.float64)
    D = np.asarray(D, dtype=np.float64)
    if P.ndim != 2 or P.shape[0] != P.shape[1] or D.ndim != 2 \
            or D.shape[1] != P.shape[0]:
        raise ValueError("perron: stack must have shape (S, S) with rows "
                         "(B, S)")
    with np.errstate(invalid="ignore", over="ignore"):
        W = D * P.max(axis=0)
    if not (np.isfinite(P).all() and np.isfinite(W).all()):
        raise ValueError("perron: matrix entries must be finite")
    if P.min() < 0.0 or (W < 0.0).any():
        raise ValueError("perron: matrix must be nonnegative")
    with np.errstate(divide="ignore", invalid="ignore"):
        Z, V, gap, errors = _vectors(P, D)
        U = D * Z
        U /= U.sum(axis=1)[:, None]
        uv = _dot(U, V)
        rho = _dot(U, np.matmul(P, (D * V)[:, :, None])[:, :, 0]) / uv
        V = V / uv[:, None]
        root_ok = (rho > 0.0) & (rho < np.inf)
        checked = root_ok & (V.min(axis=1) > 0.0)
    for b in np.flatnonzero(~checked).tolist():
        if errors[b] is None:
            errors[b] = ConvergenceError(
                "perron: iteration produced a non-positive eigenvalue "
                f"({rho[b].item()!r})" if not root_ok[b] else
                "perron: right eigenvector lost strict positivity")
    for x in (rho, U, V, gap):
        x.setflags(write=False)
    return rho, U, V, gap, errors


def pf_irreducible(M: np.ndarray, d: np.ndarray | None = None) -> PerronTriple:
    """Perron-Frobenius triple of the nonnegative irreducible matrix
    M diag(d), with d = 1 (M itself) by default.

    Irreducibility is the caller's responsibility (`is_irreducible`); the
    solver also copes with the [[A, 0], [B, 0]] pattern of the limit
    matrix and of tilts that underflow toward it.  Output is deterministic
    for identical input.  This is ``pf_stack`` on a stack of one.
    """
    M = np.asarray(M, dtype=np.float64)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise ValueError("perron: matrix must be square")
    d = np.ones(M.shape[0]) if d is None else np.asarray(d, dtype=np.float64)
    if d.shape != M.shape[:1]:
        raise ValueError("perron: weights must have one entry per column")
    rho, U, V, gap, errors = pf_stack(M, d[None])
    if errors[0] is not None:
        raise errors[0]
    return PerronTriple(rho=rho[0].item(), u=U[0], v=V[0], gap=gap[0].item())


def limit_matrix(model: MarkovModel, side: str = "upper"):
    """Limit of the rescaled tilted matrices and its Perron triple.

    For the upper side this keeps exactly the columns of P indexed by the
    argmax set of f and zeroes the rest; the lower side uses the argmin
    set (equivalently, the construction for -f).  Requires the side's
    positivity assumptions; returns ``(matrix, PerronTriple)``, the triple
    of the 0/1-weighted member described in the module docstring.
    """
    _assumptions.require(model, side)
    extreme = model.f.max() if side == "upper" else model.f.min()
    d = (model.f == extreme).astype(float)
    return model.P * d, pf_irreducible(model.P, d)
