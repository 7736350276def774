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
method with that Lambda'' as slope.

To avoid overflow the reweighted matrix is never formed directly: all
spectral work happens on exp(-m) * P_tilde with m = max_y theta*f(y),
whose entries never exceed max(P), and m is added back in log space.

A ``TiltedFamily`` memoizes tilted points and their derivatives by theta,
so grid sweeps, Newton steps and cross-checks share eigensolves; the
family itself and the limit-matrix triple of each side are memoized on
the model (``model.memo``).  All returned values are immutable.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import assumptions as _assumptions
from . import perron as _perron
from .errors import ConvergenceError, CrossCheckError, DomainError
from .model import MarkovModel, level_sets, memo

CROSS_CHECK_STEP = 5e-4    # step of the mandatory quadratic-difference check
DEGENERACY_TOL = 1e-10
MEAN_MATCH_TOL = 1e-10
NEWTON_TOL = 1e-12         # on |Lambda' - mu| / (1 + |mu|) or step / max(1, |theta|)

__all__ = [
    "TiltedPoint",
    "SpectralCurve",
    "MeanSet",
    "RatePoint",
    "TiltedFamily",
    "family_of",
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

    ``triple`` is the Perron triple of the reweighted (untilted-scale)
    matrix; its ``rho`` equals exp(Lambda) and may overflow to inf for
    extreme theta, in which case ``Lambda`` remains the reliable field.
    """

    theta: float
    triple: _perron.PerronTriple
    P_theta: np.ndarray
    pi_theta: np.ndarray
    Lambda: float
    mean: float

    def __post_init__(self):
        self.P_theta.setflags(write=False)
        self.pi_theta.setflags(write=False)


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

    When a side's assumptions fail the corresponding endpoint is a
    numerical estimate from below/above (probed at geometrically growing
    tilts), since the closure may then end strictly inside (a, b).
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
        self._derivatives: dict[float, tuple[np.ndarray, float]] = {}
        self._degenerate: bool | None = None

    def at(self, theta: float) -> TiltedPoint:
        return memo(self._points, float(theta), self._compute)

    def _compute(self, theta: float) -> TiltedPoint:
        P, f = self.P, self.f
        expo = theta * f
        m = float(expo.max())
        shifted = P * np.exp(expo - m)[None, :]
        tri = _perron.pf_irreducible(shifted)
        Lam = m + math.log(tri.rho)
        v = tri.v
        P_theta = shifted * (v[None, :] / (tri.rho * v[:, None]))
        # scrub the ~1e-13 eigen-residual off the row sums so tilted
        # chains are themselves valid generators
        P_theta /= P_theta.sum(axis=1, keepdims=True)
        pi = tri.u * v
        scale = math.exp(m) if m < 709.0 else math.inf
        triple = _perron.PerronTriple(
            rho=math.exp(Lam) if Lam < 709.0 else math.inf,
            u=tri.u, v=v, residual=tri.residual * scale)
        return TiltedPoint(theta=theta, triple=triple, P_theta=P_theta,
                           pi_theta=pi, Lambda=Lam, mean=float(pi @ f))

    @property
    def stationary_mean(self) -> float:
        return self.at(0.0).mean

    @property
    def is_degenerate(self) -> bool:
        if self._degenerate is None:
            self._degenerate = self._detect_degenerate()
        return self._degenerate

    def _detect_degenerate(self) -> bool:
        d_matrix = float(np.abs(self.at(1.0).P_theta - self.P).max())
        d_curv = max(self.lambda_second(t) for t in (-1.0, 0.0, 1.0))
        near_const = d_matrix <= DEGENERACY_TOL
        flat = d_curv <= DEGENERACY_TOL
        if near_const != flat:
            raise CrossCheckError(
                "family: degeneracy indicators disagree: "
                f"max|P_1 - P| = {d_matrix:.3e}, max Lambda'' = {d_curv:.3e} "
                f"(threshold {DEGENERACY_TOL})")
        return near_const

    def derivatives(self, theta: float) -> tuple[np.ndarray, float]:
        """(w, Lambda'') from one solve with Z = (I - P_theta + 1 pi')^-1.

        w = Z P_theta fc, fc = f - Lambda', is d log v / d theta up to a
        constant that cancels from every eigenvector ratio, and Lambda'' =
        2 pi(fc Z fc) - pi(fc^2).  Memoized; ``lambda_second`` checks it.
        """
        return memo(self._derivatives, float(theta), self._derive)

    def _derive(self, theta: float) -> tuple[np.ndarray, float]:
        point = self.at(theta)
        pi, P_theta = point.pi_theta, point.P_theta
        fc = self.f - point.mean
        A = np.eye(pi.size) - P_theta + pi[None, :]
        sol = np.linalg.solve(A, np.column_stack((P_theta @ fc, fc)))
        sol.setflags(write=False)
        return sol[:, 0], 2.0 * float(pi @ (fc * sol[:, 1])) - float(pi @ (fc * fc))

    def lambda_second(self, theta: float, h: float | None = None) -> float:
        """Lambda''(theta) by the fundamental matrix (``derivatives``).

        Every value is cross-checked against the quadratic difference
        (Lambda(theta+h) - 2 Lambda(theta) + Lambda(theta-h)) / h^2 at step
        ``h`` (default 5e-4*(1+|theta|); second differences of an O(1)
        function below ~1e-3 drown in roundoff at double precision).
        Disagreement raises instead of returning silently.
        """
        theta = float(theta)
        if h is None:
            h = CROSS_CHECK_STEP * (1.0 + abs(theta))
        if h <= 0.0:
            raise DomainError("family: finite-difference step must be positive")
        value = self.derivatives(theta)[1]
        fd2 = (self.at(theta + h).Lambda - 2.0 * self.at(theta).Lambda
               + self.at(theta - h).Lambda) / (h * h)
        tol = max(1e-6, 1e-3 * abs(value))
        if abs(value - fd2) > tol:
            raise CrossCheckError(
                f"family: Lambda'' routes disagree at theta={theta!r}: "
                f"fundamental matrix {value!r} vs quadratic difference {fd2!r} "
                f"(tolerance {tol:.1e})")
        return value


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


def lambda_second(model: MarkovModel, theta: float,
                  h: float | None = None) -> float:
    """Lambda''(theta); see ``TiltedFamily.lambda_second``."""
    return family_of(model).lambda_second(theta, h)


def theta_of_mean(model: MarkovModel, mu: float) -> float:
    """Invert the strictly increasing mean map: find theta with
    Lambda'(theta) = mu.

    Doubles the bracket [-1, 1] until the mean map brackets mu, then runs
    Newton's method from the nearer endpoint with slope Lambda'', taking
    the bracket midpoint whenever a step would leave the bracket.  Requires
    a nondegenerate family and mu strictly inside the attainable mean
    range.
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

    def g(t: float) -> float:
        return fam.at(t).mean - mu

    def expand(endpoint: float, value: float, where: str):
        # Doubling stops early if the eigensolver gives out: that happens
        # when eigenvector ratios blow up with the tilt, i.e. exactly when
        # the attainable means end strictly before the extreme of f and mu
        # sits beyond them.
        for _ in range(60):
            if (value <= 0.0) if where == "below" else (value >= 0.0):
                return endpoint, value
            endpoint *= 2.0
            try:
                value = g(endpoint)
            except ConvergenceError as exc:
                raise DomainError(
                    f"family: mu={mu!r} lies {where} every attainable mean "
                    f"(last bracketed tilt {endpoint / 2!r}; eigensolver "
                    f"gave up beyond it)") from exc
        raise DomainError(
            f"family: mu={mu!r} lies {where} every attainable mean")

    lo, hi = -1.0, 1.0
    lo, g_lo = expand(lo, g(lo), "below")
    hi, g_hi = expand(hi, g(hi), "above")

    theta, g_t = (lo, g_lo) if -g_lo <= g_hi else (hi, g_hi)
    for _ in range(100):
        if abs(g_t) <= NEWTON_TOL * (1.0 + abs(mu)):
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
    if err > 1e-10 * (1.0 + abs(mu)):
        raise ConvergenceError(
            f"family: mean inversion stalled at |Lambda' - mu| = {err:.3e} "
            f"for mu={mu!r}")
    return float(theta)


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
    tol = MEAN_MATCH_TOL * (1.0 + abs(pif))
    sign = 1.0 if side == "upper" else -1.0

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

    Decided by two indicators that must agree: P_1 equals P entrywise and
    Lambda'' vanishes at theta in {-1, 0, 1}, both to 1e-10.  Borderline
    chains, where the indicators disagree, raise with both numbers.
    """
    return family_of(model).is_degenerate


def mean_set(model: MarkovModel) -> MeanSet:
    """Attainable tilted means: closure endpoints within [a, b]."""
    fam = family_of(model)
    pif = fam.stationary_mean
    if fam.is_degenerate:
        return MeanSet(lo=pif, hi=pif, degenerate=True, stationary_mean=pif)
    ls = level_sets(model)
    report = _assumptions.validate(model)
    hi = ls.b if report.upper_ok else _tail_mean_estimate(fam, +1.0)
    lo = ls.a if report.lower_ok else _tail_mean_estimate(fam, -1.0)
    return MeanSet(lo=lo, hi=hi, degenerate=False, stationary_mean=pif)


def _tail_mean_estimate(fam: TiltedFamily, sign: float) -> float:
    """Estimate lim Lambda'(sign*theta) by probing growing tilts.

    Stops when increments fall below 1e-9 or the eigensolver gives up
    (the latter happens for chains whose eigenvector ratios blow up,
    which is exactly the regime where the limit is not assumption-backed).
    """
    last = fam.stationary_mean
    for t in (1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0):
        try:
            cur = fam.at(sign * t).mean
        except ConvergenceError:
            break
        if abs(cur - last) < 1e-9:
            last = cur
            break
        last = cur
    return last


def spectral_curve(model: MarkovModel, thetas) -> SpectralCurve:
    """Evaluate Lambda, Lambda' and Lambda'' over a theta grid."""
    fam = family_of(model)
    grid = np.asarray(thetas, dtype=np.float64)
    lam = np.empty_like(grid)
    lam1 = np.empty_like(grid)
    lam2 = np.empty_like(grid)
    for i, t in enumerate(grid):
        point = fam.at(t)
        lam[i] = point.Lambda
        lam1[i] = point.mean
        lam2[i] = fam.lambda_second(t)
    return SpectralCurve(grid=grid, Lambda=lam, Lambda1=lam1, Lambda2=lam2)
