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
method with that Lambda'' as slope, bracketed and started on the initial
tilt grid of a half-line (``half_line_grid``).  This module owns that
grid, which the constant search of ``bounds`` starts from too, so after
``bounds.constants`` a mean inversion finds its bracket memoized.

To avoid overflow all spectral work happens on exp(-m) * P_tilde with
m = max_y theta*f(y), and m is added back in log space.  That matrix is
the column reweighting P diag(d) of the generator, d = exp(theta*f - m)
<= 1, and it is never formed: the Perron solver takes P and d
(``perron.pf_irreducible``, ``perron.pf_stack``) and returns the left
vector as d times a vector of P' diag(d), so states the tilt starves get
left entries that are small, not noise.

A ``TiltedFamily`` memoizes points by theta, each built with its
derivatives by one stacked Perron solve and one stacked linear solve per
batch, bit-identical to a batch of one; the family and each side's
limit-matrix triple are memoized on the model (``model.memo``).  The
cross-check neighbours of Lambda'' join their tilts' Perron solve as bare
Lambda values and are never memoized.  The solver hands back the stack as
arrays, a point keeps its rows of them, and ``TiltedPoint.triple`` and
``P_theta`` are built on first read.  All returned values are immutable.

The limits of Lambda' toward -inf and +inf are the least and greatest
means of f along a cycle of the graph P > 0 (Friedland 1986); Karp's
recursion gives them without a Perron solve (``_cycle_means``), for
degeneracy (they coincide) and ``mean_set``.
"""

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
CROSS_CHECK_STEP = 5e-4    # step of the mandatory quadratic-difference check
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
    "limit_triple",
    "tilt",
    "lambda_prime",
    "lambda_second",
    "theta_of_mean",
    "kl_rate",
    "kl_rate_direct",
    "rate_function",
    "detect_degenerate",
    "mean_set",
    "spectral_curve",
]


@dataclass(frozen=True, eq=False)
class TiltedPoint:
    """One member of the family: parameter, spectral objects, and chain.

    ``v``, ``_u``, ``_rho`` and ``_gap`` are the point's rows of the
    ``perron.pf_stack`` of P diag(d), with the weights
    d = exp(theta*f - m) and m = max theta*f: the right and left vectors,
    the shifted root exp(Lambda - m) and the enclosure gap, a relative
    width that the shift m does not change.  ``triple`` and ``P_theta``
    are built from them on first read.  ``triple`` is the Perron triple of
    the reweighted (untilted-scale) matrix; its ``rho`` equals exp(Lambda)
    and may overflow to inf for extreme theta, in which case ``Lambda``
    remains the reliable field.  ``_derivatives`` is the point's
    ``TiltedFamily.derivatives``, None where they are singular.
    """

    theta: float
    pi_theta: np.ndarray
    Lambda: float
    mean: float
    v: np.ndarray = field(repr=False)
    _u: np.ndarray = field(repr=False)
    _rho: float = field(repr=False)
    _gap: float = field(repr=False)
    _P: np.ndarray = field(repr=False)
    _d: np.ndarray = field(repr=False)
    _derivatives: tuple[np.ndarray, float] | None = field(repr=False)

    def __post_init__(self):
        self.pi_theta.setflags(write=False)

    @cached_property
    def triple(self) -> _perron.PerronTriple:
        """The Perron triple of the untilted-scale matrix, built on first
        read."""
        return _perron.PerronTriple(
            rho=math.exp(self.Lambda) if self.Lambda < 709.0 else math.inf,
            u=self._u, v=self.v, gap=self._gap)

    @cached_property
    def P_theta(self) -> np.ndarray:
        """The tilted stochastic matrix, built on first read."""
        P_theta = _tilted_chains(self._P, self._d[None], self.v[None],
                                 np.array([self._rho]))[0]
        P_theta.setflags(write=False)
        return P_theta


def _tilted_chains(P: np.ndarray, D: np.ndarray, V: np.ndarray,
                   rho: np.ndarray) -> np.ndarray:
    """P_theta = P diag(d) v(y) / (rho v(x)) for each row d, v and rho of
    D, V and rho, as a stack; entry b does not depend on the other rows."""
    P_theta = (P * D[:, None, :]) * (V[:, None, :] / (rho[:, None, None] * V[:, :, None]))
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
        if np.any(np.diff(grid) <= 0.0):
            raise DomainError("family: theta grid must be strictly increasing")
        grid.setflags(write=False)
        object.__setattr__(self, "grid", grid)
        if np.any(np.diff(self.Lambda1) < -1e-12):
            raise DomainError("family: Lambda' must be nondecreasing in theta")
        if np.any(self.Lambda2 < -1e-10):
            raise DomainError("family: Lambda'' must be nonnegative")
        at0 = np.flatnonzero(grid == 0.0)
        if at0.size and abs(self.Lambda[at0[0]]) > 1e-12:
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
        if self.value < 0.0:
            raise DomainError(
                f"family: rate value {self.value!r} is negative")


class TiltedFamily:
    """Handle for the family generated by one model, memoized by theta.

    Lookups go through ``model.memo``, so they are safe from concurrent
    threads; all published values are immutable.  Only P and f are kept:
    the family is stored on its model and must not point back to it.
    """

    def __init__(self, model: MarkovModel):
        self.P, self.f = model.P, model.f
        self._points: dict[float, TiltedPoint] = {}

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

    def _solve(self, thetas: list, neighbours: list = ()) -> list:
        """The published point of each of ``thetas``, then the bare Lambda
        of each of ``neighbours``, or the error its tilt or solve raised;
        one ``perron.pf_stack`` for all, entries bit-identical to solo."""
        tilts = np.array([*thetas, *neighbours], dtype=np.float64)
        D, m = self._weights(tilts)
        finite = np.isfinite(m)
        out = [None if ok else
               DomainError(f"family: theta={t!r} overflows theta*f")
               for t, ok in zip(tilts.tolist(), finite.tolist())]
        rows = np.flatnonzero(finite)          # the tilt of each stack member
        rho, U, V, gap, errors = _perron.pf_stack(self.P, D[rows])
        for k, i in enumerate(rows.tolist()):
            out[i] = (m[i].item() + math.log(rho[k]) if errors[k] is None
                      else errors[k])
        built = [k for k, i in enumerate(rows.tolist())
                 if i < len(thetas) and errors[k] is None]
        if built:
            at = rows[built].tolist()
            points = self._assemble(tilts[at], D[at], [out[i] for i in at],
                                    rho[built], U[built], V[built], gap[built])
            publish(self._points, {p.theta: p for p in points})
            for i, point in zip(at, points):
                out[i] = point
        return out

    def _weights(self, thetas: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Rows d = exp(theta*f - m) and the shifts m = max theta*f; m is
        not finite, and its row not usable, where theta*f overflows."""
        with np.errstate(over="ignore", invalid="ignore"):
            expo = np.multiply.outer(thetas, self.f)
            m = expo.max(axis=1)
            return np.exp(expo - m[:, None]), m

    def _assemble(self, thetas: np.ndarray, D: np.ndarray, Lambda: list,
                  rho: np.ndarray, U: np.ndarray, V: np.ndarray,
                  gap: np.ndarray) -> list[TiltedPoint]:
        """Points from the weight rows of P, their Lambda and their rows of
        ``perron.pf_stack``, with the derivatives of all from one stacked
        linear solve (``_fundamental``)."""
        for x in (D, U, V):
            x.setflags(write=False)
        pi = U * V
        means = np.matmul(pi[:, None, :], self.f[:, None])[:, 0, 0]
        P_theta = _tilted_chains(self.P, D, V, rho)
        fc = self.f - means[:, None]
        rhs = np.stack((np.matmul(P_theta, fc[:, :, None])[:, :, 0], fc), axis=2)
        # A = I - P_theta + 1 pi', built in the stack's own memory
        A = np.subtract(np.eye(self.f.size), P_theta, out=P_theta)
        A += pi[:, None, :]
        derived = _fundamental(A, rhs, pi, fc)
        return [TiltedPoint(theta=theta, pi_theta=pi[b], Lambda=lam, mean=mean,
                            v=V[b], _u=U[b], _rho=r, _gap=g, _P=self.P,
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
        lo, hi = self.cycle_means
        return hi - lo <= _mean_tol(self.f, MEAN_TOL)

    def derivatives(self, theta: float) -> tuple[np.ndarray, float]:
        """(w, Lambda'') of the point at theta, by Z = (I - P_theta + 1 pi')^-1.

        w = Z P_theta fc, fc = f - Lambda', is d log v / d theta up to a
        constant that cancels from every eigenvector ratio, and Lambda'' =
        2 pi(fc Z fc) - pi(fc^2); ``lambda_second`` checks it.  A singular
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

        Every value is cross-checked against the quadratic difference
        (Lambda(theta+h) - 2 Lambda(theta) + Lambda(theta-h)) / h^2 at step
        h = 5e-4*(1+|theta|) (second differences of an O(1) function below
        ~1e-3 drown in roundoff at double precision).  Disagreement raises
        instead of returning silently.
        """
        return self.lambda_second_many([theta])[0]

    def lambda_second_many(self, thetas) -> list[float]:
        """``lambda_second`` at each of ``thetas``, in order, from one
        ``_solve`` of the new tilts and every cross-check neighbour.  The
        first failure raises, in the order of a loop: the tilt's solve, a
        singular derivative, then the solves at theta + h and theta - h."""
        thetas = [float(t) for t in thetas]
        todo = [t for t in dict.fromkeys(thetas) if t not in self._points]
        near = list(dict.fromkeys(s for t in thetas for s in _stencil(t)[1:]))
        solved = self._solve(todo, near)
        centres, Lambda = dict(zip(todo, solved)), dict(zip(near, solved[len(todo):]))
        values = []
        for theta in thetas:
            if theta not in self._points:
                raise centres[theta]
            value = self.derivatives(theta)[1]
            h, lo, hi = _stencil(theta)
            for s in (hi, lo):
                if isinstance(Lambda[s], Exception):
                    raise Lambda[s]
            fd2 = (Lambda[hi] - 2.0 * self._points[theta].Lambda
                   + Lambda[lo]) / (h * h)
            tol = max(1e-6, 1e-3 * abs(value))
            if abs(value - fd2) > tol:
                raise CrossCheckError(
                    f"family: Lambda'' routes disagree at theta={theta!r}: "
                    f"fundamental matrix {value!r} vs quadratic difference "
                    f"{fd2!r} (tolerance {tol:.1e})")
            values.append(value)
        return values


def _fundamental(A: np.ndarray, rhs: np.ndarray, pi: np.ndarray,
                 fc: np.ndarray) -> list:
    """(w, Lambda'') of each slice of A = I - P_theta + 1 pi', or None where
    A is singular.  LAPACK runs once per slice, so an entry does not depend
    on the rest; numpy fails the whole stack on one singular slice, and
    then each slice is solved alone."""
    try:
        sol = np.linalg.solve(A, rhs)
    except np.linalg.LinAlgError:
        if len(A) == 1:
            return [None]
        return [d for b in range(len(A))
                for d in _fundamental(*(x[b:b + 1] for x in (A, rhs, pi, fc)))]
    sol.setflags(write=False)
    curvature = (2.0 * np.matmul(pi[:, None, :], (fc * sol[:, :, 1])[:, :, None])
                 - np.matmul(pi[:, None, :], (fc * fc)[:, :, None]))
    return list(zip(sol[:, :, 0], curvature[:, 0, 0].tolist()))


def _stencil(theta: float) -> tuple[float, float, float]:
    """(h, theta - h, theta + h): the step 5e-4*(1+|theta|) of the Lambda''
    cross-check at theta and the neighbours it solves."""
    h = CROSS_CHECK_STEP * (1.0 + abs(theta))
    return h, theta - h, theta + h


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


def family_of(model: MarkovModel) -> TiltedFamily:
    """Memoized family handle for a model instance."""
    return memo(model._derived, "family", lambda _: TiltedFamily(model))


def limit_triple(model: MarkovModel, side: str) -> _perron.PerronTriple:
    """Perron triple of the side's limit matrix (``perron.limit_matrix``),
    memoized per model instance and side."""
    return memo(model._derived, ("limit", side),
                lambda _: _perron.limit_matrix(model, side)[1])


def tilt(model: MarkovModel, theta: float) -> TiltedPoint:
    """The family member at canonical parameter theta.

    ``tilt(model, 0)`` reproduces the generator: P_0 = P, Lambda = 0,
    v = 1 and pi_0 the stationary law of P.
    """
    if not math.isfinite(theta):
        raise DomainError(f"family: theta must be finite, got {theta!r}")
    return family_of(model).at(theta)


def lambda_prime(point: TiltedPoint) -> float:
    """Lambda'(theta): the mean of f under the tilted stationary law."""
    return point.mean


def lambda_second(model: MarkovModel, theta: float) -> float:
    """Lambda''(theta); see ``TiltedFamily.lambda_second``."""
    return family_of(model).lambda_second(theta)


def theta_of_mean(model: MarkovModel, mu: float) -> float:
    """Invert the strictly increasing mean map: find theta with
    Lambda'(theta) = mu.

    The bracket comes from the half-line toward mu: first the constant
    search's initial grid sign * {0, 0.25, ..., 8} (``half_line_grid``),
    memoized after ``bounds.constants`` and otherwise solved as one stack,
    then the tilts sign * 16, 32, ... one at a time.  Newton's method with
    slope Lambda'' starts at the cubic Hermite interpolant of the inverse
    map theta(mu) on the bracket, whose slopes are 1 / Lambda'' at the ends
    (the bracket midpoint if an end has none), and takes the bracket
    midpoint whenever a step would leave the bracket.  Stacked and solo
    points are bit-identical, so the result does not depend on what the
    family memoized before.  Requires a nondegenerate family and mu
    strictly inside the attainable mean range; a mean inside (a, b) but
    beyond every cycle mean (``mean_set``) is rejected before any solve.
    """
    fam = family_of(model)
    if fam.is_degenerate:
        raise DomainError(
            "family: the family is degenerate; only the stationary mean "
            "is attainable")
    mu = float(mu)
    ls = level_sets(model)
    if not (ls.a < mu < ls.b):
        raise DomainError(
            f"family: mu={mu!r} is not strictly inside the mean range "
            f"({ls.a!r}, {ls.b!r})")
    lo, hi = _attainable(model)
    if not lo < mu < hi:
        raise DomainError(
            f"family: mu={mu!r} lies {'above' if mu >= hi else 'below'} "
            f"every attainable mean")
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

    lo, hi = sorted((last, theta))
    theta = _hermite_start(fam, mu, lo, hi)
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


def _hermite_start(fam: TiltedFamily, mu: float, lo: float,
                   hi: float) -> float:
    """The cubic Hermite interpolant at mu of the inverse mean map theta(mu)
    through the memoized bracket ends lo < hi, with slopes 1 / Lambda''
    from their points; NaN if an end has no derivative."""
    try:
        c_lo, c_hi = fam.derivatives(lo)[1], fam.derivatives(hi)[1]
    except ConvergenceError:
        return math.nan
    if not (c_lo > 0.0 and c_hi > 0.0):
        return math.nan
    m_lo = fam.at(lo).mean
    h = fam.at(hi).mean - m_lo
    s = (mu - m_lo) / h
    return ((1.0 + 2.0 * s) * (1.0 - s) ** 2 * lo + s * (1.0 - s) ** 2 * h / c_lo
            + s * s * (3.0 - 2.0 * s) * hi - s * s * (1.0 - s) * h / c_hi)


def kl_rate(model: MarkovModel, theta1: float, theta2: float) -> float:
    """Relative entropy rate between family members, in closed form:
    Lambda(theta2) - Lambda(theta1) - Lambda'(theta1)*(theta2 - theta1).
    """
    fam = family_of(model)
    p1, p2 = fam.at(theta1), fam.at(theta2)
    return p2.Lambda - p1.Lambda - p1.mean * (float(theta2) - float(theta1))


def kl_rate_direct(model: MarkovModel, theta1: float, theta2: float) -> float:
    """The same rate as ``kl_rate`` by direct summation over transitions.

    Computes sum pi_1(x) P_1(x,y) log(P_1(x,y)/P_2(x,y)); the two routes
    must agree, which the test suite asserts on random families.
    """
    fam = family_of(model)
    p1, p2 = fam.at(theta1), fam.at(theta2)
    mask = model.P > 0.0
    w = (p1.pi_theta[:, None] * p1.P_theta)[mask]
    return float((w * (np.log(p1.P_theta[mask])
                       - np.log(p2.P_theta[mask]))).sum())


def rate_function(model: MarkovModel, mu: float, side: str = "upper") -> RatePoint:
    """Large deviations rate Lambda*(mu) for the requested tail.

    Interior means use the dual parameter theta_mu from ``theta_of_mean``;
    the extreme value b (resp. a) gets the limit formula
    -log rho of the column-restricted limit matrix; beyond the extremes
    the rate is +inf.  Upper-side evaluation needs mu >= stationary mean
    and the upper assumptions; the lower side is symmetric.  A degenerate
    family has rate 0 at its stationary mean and +inf elsewhere.
    """
    if side not in ("upper", "lower"):
        raise DomainError(f"family: side must be 'upper' or 'lower', got {side!r}")
    mu = float(mu)
    fam = family_of(model)
    pif = fam.stationary_mean
    sign = 1.0 if side == "upper" else -1.0

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
    extreme = ls.b if side == "upper" else ls.a
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


def detect_degenerate(model: MarkovModel) -> bool:
    """True iff tilting never moves the chain (constant family).

    Decided without a Perron solve: the family is constant iff f has one
    mean along every cycle of the graph P > 0, i.e. the least and greatest
    cycle means differ by at most MEAN_TOL times the span of f, or by
    the rounding of a mean of f where that is larger (``_mean_tol``).
    """
    return family_of(model).is_degenerate


def mean_set(model: MarkovModel) -> MeanSet:
    """Attainable tilted means: closure endpoints within [a, b], the
    extreme b (a) where the upper (lower) assumptions hold and otherwise
    the greatest (least) cycle mean of f (``_cycle_means``)."""
    fam = family_of(model)
    pif = fam.stationary_mean
    if fam.is_degenerate:
        return MeanSet(lo=pif, hi=pif, degenerate=True, stationary_mean=pif)
    lo, hi = _attainable(model)
    return MeanSet(lo=lo, hi=hi, degenerate=False, stationary_mean=pif)


def _attainable(model: MarkovModel) -> tuple[float, float]:
    """The endpoints of ``mean_set`` of a nondegenerate family, without a
    Perron solve."""
    ls = level_sets(model)
    report = _assumptions.validate(model)
    lo, hi = family_of(model).cycle_means
    return (ls.a if report.lower_ok else lo, ls.b if report.upper_ok else hi)


def spectral_curve(model: MarkovModel, thetas) -> SpectralCurve:
    """Evaluate Lambda, Lambda' and Lambda'' over a theta grid."""
    fam = family_of(model)
    grid = np.asarray(thetas, dtype=np.float64)
    lam2 = fam.lambda_second_many(grid)
    points = [fam.at(t) for t in grid]
    return SpectralCurve(grid=grid, Lambda=[p.Lambda for p in points],
                         Lambda1=[p.mean for p in points], Lambda2=lam2)
