"""The exponential family of tilted stochastic matrices.

Tilting an irreducible stochastic matrix P by a real parameter theta
reweights each column y by exp(theta*f(y)); normalizing with the
Perron-Frobenius triple of the reweighted matrix produces another
stochastic matrix P_theta with stationary law pi_theta = u_theta*v_theta.
The log spectral radius Lambda(theta) plays the role of a cumulant
generating function: Lambda'(theta) is the tilted stationary mean and
Lambda''(theta) the asymptotic variance of f under P_theta, so theta and
mu = Lambda'(theta) are dual coordinates.  The convex conjugate Lambda*
is the large deviations rate used by the tail bounds.  Lambda'' and
d log v / d theta take one fundamental-matrix solve at a cached point
(Kemeny and Snell 1960; Meyer 1975), and mean inversion is Newton's
method with that Lambda'' as slope, bracketed on the initial tilt grid of
a half-line (``half_line_grid``) and started from a Hermite fit of the
inverse map through the nearest tilts of the lattice of that grid and
the blocks (E, 2E] added as the extent E doubles (``extension_block``).
This module owns the lattice, which the constant search of ``bounds``
evaluates too, so after ``bounds.constants`` a mean inversion finds its
bracket and nodes memoized and usually takes one Perron solve.

To avoid overflow all spectral work happens on exp(-m) * P_tilde with
m = max_y theta*f(y), and m is added back in log space.  That matrix is
the column reweighting P diag(d) of the generator, d = exp(theta*f - m)
<= 1, and it is never formed: the Perron solver takes P and d
(``perron.pf_irreducible``, ``perron.pf_stack``) and returns the left
vector as d times a vector of P' diag(d), so states the tilt starves get
left entries that are small, not noise.  ``_weights`` alone forms d and
m, for ``sim`` too, and rejects a theta that is not finite or overflows.

A ``TiltedFamily`` memoizes points by theta, each built with its
derivatives by one stacked Perron solve and one stacked linear solve per
batch, bit-identical to a batch of one; the family and each side's
limit-matrix triple are memoized on the model (``model.memo``).  Lambda''
is checked against the tilted means Lambda', which every solve returns:
across a cell [t0, t2] of evaluated tilts with centre t1, Lambda' must
change by the integral of Lambda'', which Simpson's rule takes from the
three tilts (``TiltedFamily.cell_splits``).  A failing cell is split at
the midpoints of its halves, the CELL_SPLITS narrowest per pass, and
checked again; it raises only at a width floor.  A tilt that no caller
checks by cells gets a cell [theta - h, theta + h] of its own, a quarter
of the floor width, so a failing one raises at once; its two ends join
the tilt's Perron solve as bare tilted means and are never memoized.  A
point keeps read-only views of its stack rows and builds ``P_theta`` on
first read; all returned values are immutable.

The limits of Lambda' toward -inf and +inf are the least and greatest
means of f along a cycle of the graph P > 0 (Friedland 1986); Karp's
recursion gives them without a Perron solve (``_cycle_means``), for
degeneracy (they coincide) and ``mean_set``.
"""

import bisect
import itertools
import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from . import assumptions as _assumptions
from . import perron as _perron
from .errors import ConvergenceError, CrossCheckError, DomainError
from .model import MarkovModel, level_sets, memo, publish

GRID_SPACING = 0.25        # the initial tilt grid {0, 0.25, ..., 8} of a half-line,
GRID_EXTENT = 8.0          # shared by the constant search and mean inversion
EXTENSION_POINTS = 32      # tilts of the block (E, 2E] of each extent doubling
CURVE_VALUES = 2**16       # tilts times S^2 per stacked solve of spectral_curve
CELL_FLOOR = 1e-6          # width / (1 + |theta|) at which a failing cell raises
CELL_SPLITS = 16           # failing cells split per pass, the narrowest first
MEAN_ROUNDING = 4.0        # a solved mean's error in S ulps of max|f| (2.4 seen)
MEAN_TOL = 1e-10           # on a mean of f over (b - a): degeneracy, rate 0, inversion
NEWTON_TOL = 1e-12         # on |Lambda' - mu| / (b - a) or step / max(1, |theta|)

__all__ = [
    "TiltedPoint",
    "SpectralCurve",
    "MeanSet",
    "RatePoint",
    "TiltedFamily",
    "family_of",
    "half_line_grid",
    "extension_block",
    "limit_triple",
    "tilt",
    "theta_of_mean",
    "kl_rate",
    "rate_function",
    "mean_set",
    "spectral_curve",
]


@dataclass(frozen=True, eq=False)
class TiltedPoint:
    """One member of the family: parameter, spectral objects, and chain.

    ``v``, ``u`` and ``gap`` are the point's rows of the ``perron.pf_stack``
    of P diag(d), with the weights d = exp(theta*f - m) and m = max theta*f
    (``_weights``): the right and left Perron vectors, normalized to
    sum(u) = 1 and u @ v = 1, and the relative width of the eigenvalue
    enclosure, which the shift m does not change.  The Perron root is
    exp(Lambda); ``_rho`` is the solver's shifted root exp(Lambda - m),
    from which ``P_theta`` is built on first read.  Every array is a
    read-only view of the stack.  ``_derivatives`` is the point's
    ``TiltedFamily.derivatives``, None where they are singular.
    """

    theta: float
    pi_theta: np.ndarray
    Lambda: float
    mean: float
    v: np.ndarray = field(repr=False)
    u: np.ndarray = field(repr=False)
    gap: float = field(repr=False)
    _rho: float = field(repr=False)
    _P: np.ndarray = field(repr=False)
    _d: np.ndarray = field(repr=False)
    _derivatives: tuple[np.ndarray, float] | None = field(repr=False)

    @cached_property
    def P_theta(self) -> np.ndarray:
        """The tilted stochastic matrix, built on first read."""
        P_theta = _tilted_chains(self._P, self._d[None], self.v[None],
                                 np.array([self._rho]))[0]
        P_theta.setflags(write=False)
        return P_theta


def _weights(f: np.ndarray,
             thetas: np.ndarray) -> tuple[np.ndarray, np.ndarray, list]:
    """The weight rows d = exp(theta*f - m) of the tilts ``thetas``, their
    shifts m = max theta*f, and per tilt None or the DomainError that makes
    its row unusable: a theta that is not finite, or a theta*f that
    overflows.  Both leave m not finite; no other tilt does."""
    with np.errstate(over="ignore", invalid="ignore"):
        expo = np.multiply.outer(thetas, f)
        m = expo.max(axis=1)
        D = np.exp(expo - m[:, None])
    errors = [None if math.isfinite(shift) else DomainError(
                  f"family: theta={t!r} overflows theta*f" if math.isfinite(t)
                  else f"family: theta must be finite, got {t!r}")
              for t, shift in zip(thetas.tolist(), m.tolist())]
    return D, m, errors


def _tilted_chains(P: np.ndarray, D: np.ndarray, V: np.ndarray,
                   rho: np.ndarray) -> np.ndarray:
    """P_theta = P diag(d) v(y) / (rho v(x)) for each row d, v and rho of
    D, V and rho, as a stack; entry b does not depend on the other rows.
    d v and rho v come first: v(y) / v(x) alone can overflow."""
    P_theta = (P * (D * V)[:, None, :]) / (rho[:, None] * V)[:, :, None]
    # the row sums are the right Collatz-Wielandt ratios over rho: scrub
    # their roundoff so tilted chains are themselves valid generators
    P_theta /= P_theta.sum(axis=2, keepdims=True)
    return P_theta


@dataclass(frozen=True, eq=False)
class SpectralCurve:
    """Sampled Lambda, Lambda' and Lambda'' over an increasing theta grid."""

    grid: np.ndarray
    Lambda: np.ndarray
    Lambda1: np.ndarray
    Lambda2: np.ndarray

    def __post_init__(self):
        grid = np.asarray(self.grid, dtype=np.float64)
        for name in ("Lambda", "Lambda1", "Lambda2"):
            arr = np.asarray(getattr(self, name), dtype=np.float64)
            if arr.shape != grid.shape:
                raise DomainError(f"family: {name} is not aligned with the grid")
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        if not np.all(np.diff(grid) > 0.0):
            raise DomainError("family: theta grid must be strictly increasing")
        grid.setflags(write=False)
        object.__setattr__(self, "grid", grid)
        if not np.all(np.diff(self.Lambda1) >= -1e-12):
            raise DomainError("family: Lambda' must be nondecreasing in theta")
        if not np.all(self.Lambda2 >= 0.0):
            raise DomainError("family: Lambda'' must be nonnegative")
        at0 = np.flatnonzero(grid == 0.0)
        if at0.size and not abs(self.Lambda[at0[0]]) <= 1e-12:
            raise DomainError("family: Lambda(0) must vanish")


@dataclass(frozen=True)
class MeanSet:
    """Closure endpoints of the attainable tilted means, within [a, b].

    When a side's assumptions fail its endpoint is the extreme cycle mean
    of f on that side, which may lie strictly inside (a, b).
    """

    lo: float
    hi: float
    degenerate: bool
    stationary_mean: float


@dataclass(frozen=True)
class RatePoint:
    """Rate function value at mu, with the maximizing tilt if finite.

    ``theta_mu`` is +inf / -inf at the upper / lower boundary of the
    attainable mean range, where the supremum is reached only in the
    limit.
    """

    mu: float
    theta_mu: float
    value: float

    def __post_init__(self):
        if not self.value >= 0.0:
            raise DomainError(
                f"family: rate value {self.value!r} must be nonnegative")


class TiltedFamily:
    """Handle for the family generated by one model, memoized by theta.

    Lookups go through ``model.memo``, so they are safe from concurrent
    threads; all published values are immutable.  Only P and f are kept:
    the family is stored on its model and must not point back to it.
    """

    def __init__(self, model: MarkovModel):
        self.P, self.f = model.P, model.f
        self._points: dict[float, TiltedPoint] = {}
        self._checked: dict[float, bool] = {}      # tilts whose own cell passed
        # the rounding of two solved means, which a cell's slack allows
        self._rounding = 2.0 * MEAN_ROUNDING * _mean_tol(self.f, 0.0)

    def at(self, theta: float) -> TiltedPoint:
        return memo(self._points, float(theta), self._compute)

    def _compute(self, theta: float) -> TiltedPoint:
        point = self._solve([theta])[0]
        if isinstance(point, Exception):
            raise point
        return point

    def at_many(self, thetas) -> None:
        """Memoize the points of ``thetas`` from one stacked solve.

        Thetas already memoized are skipped; the rest are solved together
        (``_solve``), each point bit-identical to ``at(theta)`` on a fresh
        family.  A point whose tilt or solve fails is not published, so
        ``at(theta)`` raises its error alone.
        """
        todo = [t for t in dict.fromkeys(map(float, thetas))
                if t not in self._points]
        if todo:
            self._solve(todo)

    def _solve(self, thetas: list, ends: list = ()) -> list:
        """The published point of each of ``thetas``, then the bare tilted
        mean of each of ``ends``, or the error its tilt or solve raised;
        one ``perron.pf_stack`` for all, entries bit-identical to solo."""
        tilts = np.array([*thetas, *ends], dtype=np.float64)
        D, m, out = _weights(self.f, tilts)
        rows = [i for i, error in enumerate(out) if error is None]
        rho, U, V, gap, errors = _perron.pf_stack(self.P, D[rows])
        pi = U * V
        means = np.matmul(pi[:, None, :], self.f[:, None])[:, 0, 0]
        for k, i in enumerate(rows):           # i is the tilt of member k
            out[i] = errors[k] or means[k].item()
        built = [k for k, i in enumerate(rows)
                 if i < len(thetas) and errors[k] is None]
        if built:
            at = [rows[k] for k in built]
            Lambda = [m[i].item() + math.log(rho[k]) for k, i in zip(built, at)]
            points = self._assemble(tilts[at], D[at], Lambda, rho[built],
                                    U[built], V[built], pi[built],
                                    means[built], gap[built])
            publish(self._points, {p.theta: p for p in points})
            for i, point in zip(at, points):
                out[i] = point
        return out

    def _assemble(self, thetas: np.ndarray, D: np.ndarray, Lambda: list,
                  rho: np.ndarray, U: np.ndarray, V: np.ndarray,
                  pi: np.ndarray, means: np.ndarray,
                  gap: np.ndarray) -> list[TiltedPoint]:
        """Points from the weight rows of P, their Lambda and their rows of
        ``perron.pf_stack``, stationary laws and means, with the derivatives
        of all from one stacked linear solve (``_fundamental``)."""
        for x in (D, U, V, pi):
            x.setflags(write=False)
        P_theta = _tilted_chains(self.P, D, V, rho)
        fc = self.f - means[:, None]
        A = np.eye(self.f.size) - P_theta
        A += pi[:, None, :]
        derived = _fundamental(A, P_theta, pi, fc)
        return [TiltedPoint(theta=theta, pi_theta=pi[b], Lambda=lam, mean=mean,
                            v=V[b], u=U[b], gap=g, _rho=r, _P=self.P,
                            _d=D[b], _derivatives=derived[b])
                for b, (theta, lam, mean, r, g) in enumerate(zip(
                    thetas.tolist(), Lambda, means.tolist(), rho.tolist(),
                    gap.tolist()))]

    @property
    def stationary_mean(self) -> float:
        return self.at(0.0).mean

    @cached_property
    def cycle_means(self) -> tuple[float, float]:
        """The least and greatest cycle means of f (``_cycle_means``)."""
        return _cycle_means(self.P, self.f)

    @cached_property
    def is_degenerate(self) -> bool:
        """True iff tilting never moves the chain (constant family): f has
        one mean along every cycle of P > 0, so the ``cycle_means`` differ
        by at most ``_mean_tol``.  Decided without a Perron solve."""
        lo, hi = self.cycle_means
        return hi - lo <= _mean_tol(self.f, MEAN_TOL)

    def derivatives(self, theta: float) -> tuple[np.ndarray, float]:
        """(w, Lambda'') of the point at theta, by Z = (I - P_theta + 1 pi')^-1.

        With fc = f - Lambda' and x = Z fc, w = x - fc (= Z P_theta fc, as
        Z P_theta = Z + 1 pi' - I and pi(fc) = 0) is d log v / d theta up to
        a constant that cancels from every eigenvector ratio.  As x solves
        x - P_theta x = fc, w = P_theta x and Lambda'' is the variance of the
        martingale increments, sum_x pi(x) sum_y P_theta(x, y) (x(y) - w(x))^2
        (Meyn and Tweedie, ch. 17); ``lambda_second`` checks it.  A singular
        I - P_theta + 1 pi' (seen on sparse chains once the tilt has
        underflowed part of the chain) raises ``ConvergenceError``.
        """
        point = self.at(theta)
        if point._derivatives is None:
            raise ConvergenceError(
                f"family: I - P_theta + 1 pi' is singular at "
                f"theta={point.theta!r}; Lambda'' and d log v / d theta are "
                "unavailable there")
        return point._derivatives

    def lambda_second(self, theta: float) -> float:
        """Lambda''(theta) by the fundamental matrix (``derivatives``).

        A lone tilt is checked, once per family, by a cell of its own: the
        change of the tilted mean Lambda' across [theta - h, theta + h],
        h = CELL_FLOOR * (1 + |theta|) / 8, must equal the integral of
        Lambda'', which Simpson's rule takes with Lambda''(theta) at all
        three tilts (its values at the ends differ by about h^2 Lambda''''
        / 2).  The cell is narrower than the floor of ``cell_splits``, so a
        failing one raises instead of returning silently.
        """
        return self.lambda_second_many([theta])[0]

    def lambda_second_many(self, thetas, lone=None) -> list[float]:
        """``lambda_second`` at each of ``thetas``, in order, from one
        ``_solve`` of the new tilts and the ends of the own cells of the
        tilts checked alone: those of ``lone`` not yet checked, by default
        every tilt, so a batch equals its solo calls.

        With ``lone`` given, the caller checks the other tilts by cells, as
        the constant search does across its rounds.  The first failure
        raises, in the order of a loop: the tilt's solve, a singular
        derivative, the solves at theta + h and theta - h, then its cell.
        """
        thetas = [float(t) for t in thetas]
        given = set(thetas)
        lone = {t: _ends(t) for t in (thetas if lone is None else map(float, lone))
                if t in given and t not in self._checked}
        todo = [t for t in dict.fromkeys(thetas) if t not in self._points]
        ends = list(dict.fromkeys(s for cell in lone.values() for s in cell))
        solved = self._solve(todo, ends)
        centres, mean = dict(zip(todo, solved)), dict(zip(ends, solved[len(todo):]))
        values = []
        for theta in thetas:
            if theta not in self._points:
                raise centres[theta]
            value = self.derivatives(theta)[1]
            if theta in lone:
                lo, hi = lone.pop(theta)
                for s in (hi, lo):
                    if isinstance(mean[s], Exception):
                        raise mean[s]
                centre = self._points[theta].mean
                self.cell_splits([lo, theta, hi], [mean[lo], centre, mean[hi]],
                                 [value] * 3)
                publish(self._checked, {theta: True})
            values.append(value)
        return values

    def cell_splits(self, t, mean, curvature) -> list[float]:
        """The tilts that split the failing Simpson cells of the tilts ``t``,
        increasing or decreasing: the midpoints of both halves of each.

        Each interior t1, between t0 and t2, centres a cell of halves h0, h1
        and width H = |t2 - t0|, and the change of ``mean`` (Lambda') over it
        must equal the integral of ``curvature`` (Lambda''), which Simpson's
        rule for unequal halves takes from the three tilts; the signs of a
        decreasing grid cancel in its weights and slope.  The residual over
        the centre weight H^3 / (6 h0 h1) reads as an error of Lambda''(t1),
        and the cell fails when it exceeds max(1e-6, 1e-3 Lambda''(t1)) plus
        the rounding of two means (MEAN_ROUNDING times ``_mean_tol`` at 0
        each) over that weight: at theta = 0, in an own cell a quarter of
        CELL_FLOOR wide, about 10% (S = 10) to 400% (S = 400) of the 1e-6
        floor for max|f| = 1.  A cell that fails at a width of at most
        CELL_FLOOR * (1 + |t1|), or whose residual is not a number, raises
        ``CrossCheckError``; of the others, the CELL_SPLITS narrowest split.
        """
        t, mean, c = (np.asarray(x, dtype=np.float64) for x in (t, mean, curvature))
        H = t[2:] - t[:-2]
        width = np.abs(H)
        a0, a1 = (t[1:-1] - t[:-2]) / H, (t[2:] - t[1:-1]) / H
        # both sides over the centre weight, in a form that neither
        # overflows nor forms 0 * inf on the narrowest cells
        with np.errstate(invalid="ignore", over="ignore"):
            error = np.abs(6.0 * a0 * a1 * ((mean[2:] - mean[:-2]) / H)
                           - c[1:-1] - a1 * (2.0 * a0 - a1) * c[:-2]
                           - a0 * (2.0 * a1 - a0) * c[2:])
            tol = np.maximum(1e-6, 1e-3 * np.abs(c[1:-1]))
            slack = tol + 6.0 * a0 * a1 * (self._rounding / width)
        failing = np.flatnonzero(~(error <= slack))
        for i in failing.tolist():
            t0, t1, t2 = t[i:i + 3].tolist()
            if width[i] <= CELL_FLOOR * (1.0 + abs(t1)) or not math.isfinite(error[i]):
                lo, hi = sorted((t0, t2))
                raise CrossCheckError(
                    f"family: Lambda'' at theta={t1!r} ({float(c[i + 1])!r}) "
                    f"is off by {error[i]:.3e} against the change of Lambda' "
                    f"over [{lo!r}, {hi!r}] (tolerance {tol[i]:.1e})")
        # a wrong Lambda'' fails every cell at every width, and splitting
        # them all would double the tilts each pass on the way to the floor
        narrowest = failing[np.argsort(width[failing], kind="stable")[:CELL_SPLITS]]
        splits = []
        for i in sorted(narrowest.tolist()):
            t0, t1, t2 = t[i:i + 3].tolist()
            splits += [0.5 * (t0 + t1), 0.5 * (t1 + t2)]
        return list(dict.fromkeys(splits))


def _fundamental(A: np.ndarray, P_theta: np.ndarray, pi: np.ndarray,
                 fc: np.ndarray) -> list:
    """(w, Lambda'') of each slice from A = I - P_theta + 1 pi' and P_theta
    (``derivatives``), or None where A is singular; once x = A^-1 fc is
    solved, A holds the squared increments.  LAPACK runs once per slice, so
    an entry does not depend on the rest; numpy fails the whole stack on
    one singular slice, and then each slice is solved alone."""
    try:
        x = np.linalg.solve(A, fc[:, :, None])[:, :, 0]
    except np.linalg.LinAlgError:
        if len(A) == 1:
            return [None]
        return [d for b in range(len(A)) for d in _fundamental(
            *(y[b:b + 1] for y in (A, P_theta, pi, fc)))]
    w = x - fc
    w.setflags(write=False)
    sq = np.square(np.subtract(x[:, None, :], w[:, :, None], out=A), out=A)
    sq *= P_theta
    curvature = np.matmul(pi[:, None, :], sq.sum(axis=2)[:, :, None])
    return list(zip(w, curvature[:, 0, 0].tolist()))


def _ends(theta: float) -> tuple[float, float]:
    """(theta - h, theta + h), h = CELL_FLOOR * (1 + |theta|) / 8: the ends
    of the cell of a tilt checked alone, a quarter of the floor width."""
    h = CELL_FLOOR * (1.0 + abs(theta)) / 8.0
    return theta - h, theta + h


def _cycle_means(P: np.ndarray, f: np.ndarray) -> tuple[float, float]:
    """(least, greatest) mean of f along a cycle of the graph P > 0: the
    limits of Lambda'(theta) as theta -> -inf and +inf (Friedland 1986).

    Karp's recursion (Karp 1978) from every state, so the graph need not be
    strongly connected: D[k, :, v] is the greatest weight of a k-step walk
    ending at v, a step into y weighing f(y) (row 0) or -f(y) (row 1), and
    the greatest cycle mean is max_v min_k (D[S, v] - D[k, v]) / (S - k).
    """
    S = f.size
    edges = np.where(P > 0.0, 0.0, -np.inf)
    weights = np.stack((f, -f))
    D = np.zeros((S + 1, 2, S))
    for k in range(S):
        D[k + 1] = (D[k][:, :, None] + edges).max(axis=1) + weights
    with np.errstate(invalid="ignore"):
        ratio = ((D[S] - D[:S]) / (S - np.arange(S))[:, None, None]).min(axis=0)
    best = np.where(D[S] > -np.inf, ratio, -np.inf).max(axis=1)
    return -float(best[1]), float(best[0])


def half_line_grid() -> np.ndarray:
    """The tilts {0, GRID_SPACING, ..., GRID_EXTENT} of a half-line: the
    first round of the constant search and the bracket grid of
    ``theta_of_mean``, times the side's sign."""
    return np.arange(0.0, GRID_EXTENT + GRID_SPACING / 2, GRID_SPACING)


def extension_block(extent: float) -> np.ndarray:
    """The tilts extent + k * extent / EXTENSION_POINTS, k = 1, ...,
    EXTENSION_POINTS, of the block (extent, 2 * extent] of a half-line:
    what the constant search adds as its extent doubles from ``extent``,
    and the interpolation nodes of ``theta_of_mean`` on a bracket
    [extent, 2 * extent], times the side's sign."""
    return extent + np.arange(1, EXTENSION_POINTS + 1) * (extent / EXTENSION_POINTS)


def family_of(model: MarkovModel) -> TiltedFamily:
    """Memoized family handle for a model instance."""
    return memo(model._derived, "family", lambda _: TiltedFamily(model))


def limit_triple(model: MarkovModel, side: str) -> _perron.PerronTriple:
    """Perron triple of the side's limit matrix (``perron.limit_matrix``),
    memoized per model instance and side; the side is read first."""
    _assumptions._sign(side)
    return memo(model._derived, ("limit", side),
                lambda _: _perron.limit_matrix(model, side)[1])


def tilt(model: MarkovModel, theta: float) -> TiltedPoint:
    """The family member at canonical parameter theta.

    ``tilt(model, 0)`` reproduces the generator: P_0 = P, Lambda = 0,
    v = 1 and pi_0 the stationary law of P.
    """
    return family_of(model).at(theta)


def theta_of_mean(model: MarkovModel, mu: float) -> float:
    """Invert the strictly increasing mean map: find theta with
    Lambda'(theta) = mu.

    The bracket comes from the half-line toward mu: first the constant
    search's initial grid sign * {0, 0.25, ..., 8} (``half_line_grid``),
    memoized after ``bounds.constants`` and otherwise solved as one stack,
    then the tilts sign * 16, 32, ... one at a time.  Newton's method with
    slope Lambda'' starts at the Hermite interpolant of the inverse map
    theta(mu) through the three nearest tilts of the search's lattice on
    each side of mu, with slopes 1 / Lambda'' (``_hermite_start``): the
    grid, and on a bracket [E, 2E] past it also E and the constant
    search's block (E, 2E] (``extension_block``), solved as one stack
    unless memoized.  After ``bounds.constants`` every node is memoized,
    and the start is usually within Newton's tolerance, so an interior
    inversion takes one solo Perron solve.  Newton takes the bracket
    midpoint whenever a step would leave the bracket.  Stacked and solo
    points are bit-identical and the nodes depend on mu alone, so the
    result does not depend on what the family memoized before.  Requires
    a nondegenerate family and mu strictly inside the attainable mean
    range (``mean_set``, within [a, b]); any other mu, NaN included, is
    rejected before any solve.
    """
    fam = family_of(model)
    if fam.is_degenerate:
        raise DomainError(
            "family: the family is degenerate; only the stationary mean "
            "is attainable")
    mu = float(mu)
    lo, hi = _attainable(model)
    if not lo < mu < hi:
        where = "above" if mu >= hi else "below" if mu <= lo else "outside"
        raise DomainError(
            f"family: mu={mu!r} lies {where} every attainable mean")
    pif = fam.stationary_mean
    if mu == pif:
        return 0.0
    sign = 1.0 if mu > pif else -1.0
    grid = (sign * half_line_grid()).tolist()
    fam.at_many(grid)

    def g(t: float) -> float:
        return fam.at(t).mean - mu

    # The mean map increases, so the first tilt whose mean reaches mu ends
    # the bracket.  A grid point missing from the memo failed its solve,
    # and ``at`` raises its error.
    extension = (sign * GRID_EXTENT * 2.0 ** k for k in range(1, 58))
    last = None
    for theta in itertools.chain(grid, extension):    # up to |theta| = 2**60
        if sign * (fam.at(theta).mean - mu) >= 0.0:
            break
        last = theta
    else:
        raise DomainError(f"family: no tilt up to {theta!r} reaches mu={mu!r}")

    lattice = grid
    if abs(theta) > GRID_EXTENT:
        block = (sign * extension_block(abs(last))).tolist()
        fam.at_many(block)
        lattice = grid + [last] + block
    lo, hi = sorted((last, theta))
    theta = _hermite_start(fam, mu, lattice)
    if not lo < theta < hi:
        theta = 0.5 * (lo + hi)
    g_t = g(theta)
    tol = _mean_tol(model.f, NEWTON_TOL)
    for _ in range(100):
        if abs(g_t) <= tol:
            break
        lo, hi = (theta, hi) if g_t < 0.0 else (lo, theta)
        slope = fam.derivatives(theta)[1]
        step = -g_t / slope if slope > 0.0 else math.inf
        if abs(step) <= NEWTON_TOL * max(1.0, abs(theta)):
            break
        theta += step
        if not lo < theta < hi:
            theta = 0.5 * (lo + hi)
        g_t = g(theta)
    err = abs(fam.at(theta).mean - mu)
    if err > _mean_tol(model.f, MEAN_TOL):
        raise ConvergenceError(
            f"family: mean inversion stalled at |Lambda' - mu| = {err:.3e} "
            f"for mu={mu!r}")
    return float(theta)


def _mean_tol(f: np.ndarray, rel: float) -> float:
    """Tolerance on a mean of f: rel times the span max f - min f, but no
    less than the rounding of a computed mean pi @ f, about S ulps of
    max|f|, so constant f still matches its own mean."""
    return max(rel * float(f.max() - f.min()),
               f.size * 2.0 ** -52 * float(np.abs(f).max()))


def _hermite_start(fam: TiltedFamily, mu: float, tilts: list) -> float:
    """The Hermite interpolant at mu of the inverse mean map theta(mu)
    through the three memoized ``tilts`` of greatest mean below mu and the
    three of least mean at or above it, with slopes 1 / Lambda'' from their
    points, by confluent divided differences on the means, each taken
    twice; NaN without a node.  A tilt that failed its solve, or whose
    Lambda'' is unavailable or not positive, is no node, nor is one whose
    mean repeats a node's."""
    nodes = {}
    for t in tilts:
        point = fam._points.get(t)
        if point is not None and point._derivatives is not None \
                and point._derivatives[1] > 0.0:
            nodes.setdefault(point.mean, (t, 1.0 / point._derivatives[1]))
    means = sorted(nodes)
    k = bisect.bisect_left(means, mu)
    z = [m for m in means[max(k - 3, 0):k + 3] for _ in range(2)]
    if not z:
        return math.nan
    c = [nodes[m][0] for m in z]
    for j in range(1, len(z)):
        for i in range(len(z) - 1, j - 1, -1):
            c[i] = (nodes[z[i]][1] if z[i] == z[i - j]
                    else (c[i] - c[i - 1]) / (z[i] - z[i - j]))
    value = c[-1]
    for i in range(len(z) - 2, -1, -1):
        value = value * (mu - z[i]) + c[i]
    return value


def kl_rate(model: MarkovModel, theta1: float, theta2: float) -> float:
    """Relative entropy rate between family members, in closed form:
    Lambda(theta2) - Lambda(theta1) - Lambda'(theta1)*(theta2 - theta1).
    """
    fam = family_of(model)
    p1, p2 = fam.at(theta1), fam.at(theta2)
    return p2.Lambda - p1.Lambda - p1.mean * (float(theta2) - float(theta1))


def rate_function(model: MarkovModel, mu: float, side: str = "upper") -> RatePoint:
    """Large deviations rate Lambda*(mu) for the requested tail.

    Interior means use the dual parameter theta_mu from ``theta_of_mean``;
    the extreme value b (resp. a) gets the limit formula
    -log rho of the column-restricted limit matrix; beyond the extremes
    the rate is +inf.  Upper-side evaluation needs mu >= stationary mean
    and the upper assumptions; the lower side is symmetric.  A degenerate
    family has rate 0 at its stationary mean and +inf elsewhere.
    """
    sign = _assumptions._sign(side)
    mu = float(mu)
    fam = family_of(model)
    pif = fam.stationary_mean

    tol = _mean_tol(model.f, MEAN_TOL)
    if fam.is_degenerate:
        if abs(mu - pif) <= tol:
            return RatePoint(mu=mu, theta_mu=0.0, value=0.0)
        return RatePoint(mu=mu, theta_mu=sign * math.inf, value=math.inf)

    _assumptions.require(model, side)
    if sign * (mu - pif) < -tol:
        raise DomainError(
            f"family: mu={mu!r} is on the wrong side of the stationary "
            f"mean {pif!r} for a {side} tail")
    if abs(mu - pif) <= tol:
        return RatePoint(mu=mu, theta_mu=0.0, value=0.0)

    ls = level_sets(model)
    extreme = ls.b if sign > 0.0 else ls.a
    if sign * (mu - extreme) > 0.0:
        return RatePoint(mu=mu, theta_mu=sign * math.inf, value=math.inf)
    if mu == extreme:
        return RatePoint(mu=mu, theta_mu=sign * math.inf,
                         value=-math.log(limit_triple(model, side).rho))

    theta = theta_of_mean(model, mu)
    value = theta * mu - fam.at(theta).Lambda
    if value < 0.0:
        if value < -1e-12:
            raise ConvergenceError(
                f"family: conjugate value {value!r} went negative at mu={mu!r}")
        value = 0.0
    return RatePoint(mu=mu, theta_mu=theta, value=value)


def mean_set(model: MarkovModel) -> MeanSet:
    """Attainable tilted means: closure endpoints within [a, b], the
    extreme b (a) where the upper (lower) assumptions hold and otherwise
    the greatest (least) cycle mean of f (``_cycle_means``); a degenerate
    family's are its stationary mean, clamped into [a, b] as well."""
    fam = family_of(model)
    pif = fam.stationary_mean
    if fam.is_degenerate:
        ls = level_sets(model)
        end = min(max(pif, ls.a), ls.b)
        return MeanSet(lo=end, hi=end, degenerate=True, stationary_mean=pif)
    lo, hi = _attainable(model)
    return MeanSet(lo=lo, hi=hi, degenerate=False, stationary_mean=pif)


def _attainable(model: MarkovModel) -> tuple[float, float]:
    """The endpoints of ``mean_set`` of a nondegenerate family, without a
    Perron solve.  Karp sums f along a cycle and then divides, which can
    land an ulp outside [a, b], so the cycle means are clamped into it."""
    ls = level_sets(model)
    report = _assumptions.validate(model)
    lo, hi = family_of(model).cycle_means
    return (ls.a if report.lower_ok else max(lo, ls.a),
            ls.b if report.upper_ok else min(hi, ls.b))


def spectral_curve(model: MarkovModel, thetas) -> SpectralCurve:
    """Evaluate Lambda, Lambda' and Lambda'' over a theta grid.

    Each Lambda'' is checked by a cell of its own
    (``TiltedFamily.lambda_second_many``), whose ends are never memoized,
    so the family memoizes the grid alone.  The grid is solved in chunks
    of CURVE_VALUES / S^2 tilts (at least one), so the stacks stay bounded
    however long the grid; points do not depend on their stack, so the
    values are those of one stack, and the first failing tilt raises as
    there.  A grid that is not one-dimensional, or a finite one that does
    not increase strictly, is rejected before any solve."""
    fam = family_of(model)
    grid = np.asarray(thetas, dtype=np.float64)
    if grid.ndim != 1:
        raise DomainError(
            f"family: theta grid must be one-dimensional, got shape {grid.shape}")
    if np.isfinite(grid).all() and not (np.diff(grid) > 0.0).all():
        raise DomainError("family: theta grid must be strictly increasing")
    chunk = max(1, CURVE_VALUES // model.f.size ** 2)
    lam2 = [value for i in range(0, grid.size, chunk)
            for value in fam.lambda_second_many(grid[i:i + chunk])]
    points = [fam.at(t) for t in grid]
    return SpectralCurve(grid=grid, Lambda=[p.Lambda for p in points],
                         Lambda1=[p.mean for p in points], Lambda2=lam2)
