"""Bound constants and evaluated Chernoff / Hoeffding tail bounds.

The prefactor K is the supremum over the relevant tilt half-line of the
ratios of right Perron eigenvector entries, L the supremum of the ratio's
theta-derivative, and sigma2 the supremum of Lambda'' there; all three
are finite under the side's positivity assumptions because the spectral
objects converge to those of the column-restricted limit matrix.

K, L and sigma2 are the maxima over every evaluated tilt, the tail guard
tilts included, so each is at least every value the search computed.
A round hands all of its new tilts to ``TiltedFamily.lambda_second_many``
(one stacked Perron solve, one stacked linear solve for the
derivatives), then reduces the eigenvector ratios of the whole round as
one stack.  Lambda'' is checked against the tilted means: after each
round the tilts sign * t up to the extent are the grid of
``TiltedFamily.cell_splits``, whose interior tilts centre Simpson cells,
and the midpoints of both halves of a failing cell join the next round's
stack, or a pass of their own once the rounds end, until every cell
passes or one fails at the width floor.  The tilts that centre no cell,
theta = 0, the extent that ends the grid and the lookahead 2 * extent,
are checked by a cell of their own, whose ends join the same stack.
Constants are memoized on the model per side (``model.memo``), and the
limit-matrix triple is shared with the boundary rate
(``family.limit_triple``).

The suprema are located with an adaptive grid, not a certified global
optimizer: start from theta in {0, 0.25, ..., 8}, the grid
``family.half_line_grid`` that mean inversion brackets on too, then each
round halves the spacing around the current argmaxes and doubles the
grid extent, stopping once the running maxima move by less than 1e-6
relative and the sigma2 tail guard passes: each round also evaluates
the extent and twice the extent, and sigma2 must peak strictly inside
the extent.  The eigenvector-ratio limit of the limit matrix is always
included as a K candidate.  Diagnostics in ``grid_summary`` expose where
each supremum was attained so results can be audited.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import assumptions as _assumptions
from . import family as _family
from .errors import DomainError, _count
from .model import MarkovModel, level_sets, memo

REFINE_ROUNDS = 12
REFINE_RTOL = 1e-6
LOCAL_POINTS = 8           # points added on each side of an argmax per round
EXTENSION_POINTS = 32      # points added per extent doubling

__all__ = [
    "GridSummary",
    "BoundConstants",
    "BoundReport",
    "constants",
    "chernoff_bound",
    "two_sided_bound",
    "ergodic_gap",
]


@dataclass(frozen=True)
class GridSummary:
    """Diagnostics of the supremum search.

    ``theta_max`` is the final grid extent; evaluation reaches
    ``2 * theta_max``, the tail guard's lookahead, and those tilts count
    in ``n_points`` and the maxima.  ``argmax_K`` is +/-inf when the
    limit-matrix candidate won.  A summary with ``converged`` False means
    the refinement budget ran out and the constants are best-so-far
    values.  ``tail_guard_passed`` reports the two-point Lambda''
    lookahead, which is a pragmatic guard rather than a proof that the
    tail holds no larger value.
    """

    theta_max: float
    rounds: int
    n_points: int
    argmax_K: float
    argmax_L: float
    argmax_sigma2: float
    converged: bool
    tail_guard_passed: bool


@dataclass(frozen=True)
class BoundConstants:
    """Everything the tail bounds need for one side."""

    side: str
    K: float
    L: float
    sigma2: float
    rho_inf: float
    grid_summary: GridSummary

    def __post_init__(self):
        if not self.K >= 1.0 - 1e-9:
            raise DomainError(f"bounds: K={self.K!r} below 1")
        if not (self.L >= 0.0 and self.sigma2 >= 0.0):
            raise DomainError("bounds: L and sigma2 must be nonnegative")


@dataclass(frozen=True)
class BoundReport:
    """Evaluated bounds for one (n, mu, side) query.

    ``chernoff`` is K*exp(-n*rate); ``hoeffding_sigma`` replaces the rate
    by the quadratic (mu - pi(f))^2 / (2 sigma2); ``hoeffding_range``
    further relaxes sigma2 to the range proxy ((b-a+2KL)/2)^2.  Each
    relaxation is provably weaker, so the three are ordered.  Raw values
    are kept inspectable (they may exceed 1); ``clipped`` caps them at 1.

    The values also hold uniformly in time: each is Markov's inequality at
    time n for the nonnegative martingale exp(theta S_k - k Lambda(theta))
    v_theta(X_k), whose supremum over all k Ville's inequality bounds at
    the same price.  So ``chernoff`` also bounds the chance that theta_mu
    S_k - k Lambda(theta_mu) ever reaches n rate, which contains S_n >=
    n mu, and each Hoeffding value the crossing of its own line (Howard,
    Ramdas, McAuliffe and Sekhon, Probab. Surveys 17, 2020).
    """

    n: int
    mu: float
    side: str
    rate: float
    chernoff: float
    hoeffding_sigma: float
    hoeffding_range: float

    def __post_init__(self):
        if not (self.chernoff <= self.hoeffding_sigma + 1e-12
                and self.hoeffding_sigma <= self.hoeffding_range + 1e-12):
            raise DomainError(
                "bounds: bound ordering violated: "
                f"chernoff={self.chernoff!r}, "
                f"hoeffding_sigma={self.hoeffding_sigma!r}, "
                f"hoeffding_range={self.hoeffding_range!r}")

    @property
    def clipped(self) -> dict:
        return {
            "chernoff": min(self.chernoff, 1.0),
            "hoeffding_sigma": min(self.hoeffding_sigma, 1.0),
            "hoeffding_range": min(self.hoeffding_range, 1.0),
        }


def constants(model: MarkovModel, side: str = "upper") -> BoundConstants:
    """Compute (K, L, sigma2, rho_inf) for one tail, with diagnostics.

    Results are memoized per model instance and side; the side is read first.
    """
    _assumptions._sign(side)
    return memo(model._derived, ("constants", side),
                lambda _: _compute_constants(model, side))


def _compute_constants(model: MarkovModel, side: str) -> BoundConstants:
    # the limit matrix requires the side's assumptions, so it gates first
    limit_triple = _family.limit_triple(model, side)
    sign = _assumptions._sign(side)
    fam = _family.family_of(model)
    v_inf = limit_triple.v
    K_limit = float(v_inf.max() / v_inf.min())
    rho_inf = limit_triple.rho

    # the evaluated t >= 0 of the half-line, sorted, with K_t, L_t,
    # sigma2_t and Lambda'(sign * t) at each in the rows of ``values``; the
    # real tilt is sign * t
    done = np.empty(0)
    values = np.empty((4, 0))

    def evaluate(ts, lone) -> list:
        # one round: its new tilts' Lambda'' from one family call, with a
        # cell of their own for ``lone``, then v and w from the memo, reduced
        # as a stack; returns the tilts that split a failing cell
        nonlocal done, values
        known = set(done.tolist())
        ts = np.array([t for t in dict.fromkeys(map(float, ts)) if t not in known])
        thetas = (sign * ts).tolist()
        s2 = fam.lambda_second_many(thetas, [sign * t for t in lone])
        points = [fam.at(theta) for theta in thetas]
        V = np.array([p.v for p in points])
        W = np.array([fam.derivatives(theta)[0] for theta in thetas])
        # division rounds monotonically, so max v / min v is the largest
        # entry of ``ratio``, which L alone needs
        K_t = V.max(axis=1) / V.min(axis=1)
        ratio = V[:, None, :] / V[:, :, None]      # [b, x, y] = v(y)/v(x)
        slope = W[:, None, :] - W[:, :, None]
        slope *= ratio
        L_t = np.abs(slope, out=slope).max(axis=(1, 2))
        means = [p.mean for p in points]
        done = np.concatenate((done, ts))
        values = np.concatenate((values, [K_t, L_t, s2, means]), axis=1)
        order = np.argsort(done)
        done, values = done[order], values[:, order]
        # the lookahead 2 * extent is left out, so ``extent``, checked by a
        # cell of its own, ends the grid instead of centring a wide cell
        grid = done <= extent
        return [sign * s for s in fam.cell_splits(
            sign * done[grid], values[3, grid], values[2, grid])]

    def running_maxima():
        # the smallest maximizing t of K, L and sigma2; K_limit wins ties
        i = values[:3].argmax(axis=1)
        best = values[np.arange(3), i].tolist()
        args = (sign * done[i]).tolist()
        if not best[0] > K_limit:
            best[0], args[0] = K_limit, math.inf * sign
        return tuple(best), tuple(args)

    extent = _family.GRID_EXTENT
    spacing = _family.GRID_SPACING
    splits = evaluate(_family.half_line_grid(), [0.0])
    best, args = running_maxima()

    rounds = 0
    converged = False
    tail_ok = False
    for _ in range(REFINE_ROUNDS):
        rounds += 1
        prev = best
        spacing /= 2.0
        old_extent = extent
        extent *= 2.0
        step = (extent - old_extent) / EXTENSION_POINTS
        ts = [old_extent + k * step for k in range(1, EXTENSION_POINTS + 1)]
        for arg in set(args):
            if not math.isfinite(arg):
                continue
            center = abs(arg)
            for j in range(1, LOCAL_POINTS + 1):
                ts.extend(t for t in (center - j * spacing, center + j * spacing)
                          if 0.0 <= t <= extent)
        guards = [extent, 2.0 * extent]
        splits = evaluate(ts + splits + guards, guards)
        best, args = running_maxima()
        moved = max(
            abs(b - p) / max(abs(p), 1e-30) for b, p in zip(best, prev))
        # sigma2 at the guard tilts extent and 2 * extent is inside the
        # maximum, so the tail guard holds when it peaks before the extent
        tail_ok = abs(args[2]) < extent
        if moved < REFINE_RTOL and tail_ok:
            converged = True
            break
    while splits:
        splits = evaluate(splits, [])
        best, args = running_maxima()

    K, L, sigma2 = best
    summary = GridSummary(
        theta_max=extent,
        rounds=rounds,
        n_points=done.size,
        argmax_K=args[0],
        argmax_L=args[1],
        argmax_sigma2=args[2],
        converged=converged,
        tail_guard_passed=tail_ok,
    )
    return BoundConstants(side=side, K=K, L=L, sigma2=sigma2,
                          rho_inf=rho_inf, grid_summary=summary)


def _quadratic_exponent(dev: float, scale: float) -> float:
    """dev^2 / scale with the conventions 0/0 = 0 and x/0 = inf."""
    if dev == 0.0:
        return 0.0
    if scale == 0.0:
        return math.inf
    return dev * dev / scale


def chernoff_bound(model: MarkovModel, n: int, mu: float,
                   side: str = "upper") -> BoundReport:
    """Finite-sample tail bound K*exp(-n*Lambda*(mu)) for the given side.

    The report also carries both Hoeffding relaxations so the ordering
    invariant is visible at every call site; all three hold at every time
    k at once, as line crossings (``BoundReport``).
    """
    n = _count(n, 1, "bounds: n must be at least 1, got {!r}")
    consts = constants(model, side)
    rate_point = _family.rate_function(model, mu, side)
    pif = _family.family_of(model).stationary_mean
    ls = level_sets(model)
    dev = float(mu) - pif
    exp_sigma = _quadratic_exponent(dev, 2.0 * consts.sigma2)
    span = ls.b - ls.a + 2.0 * consts.K * consts.L
    exp_range = 2.0 * _quadratic_exponent(dev, span * span)
    return BoundReport(
        n=n,
        mu=float(mu),
        side=side,
        rate=rate_point.value,
        chernoff=consts.K * math.exp(-n * rate_point.value),
        hoeffding_sigma=consts.K * math.exp(-n * exp_sigma),
        hoeffding_range=consts.K * math.exp(-n * exp_range),
    )


def two_sided_bound(model: MarkovModel, n: int, interval) -> float:
    """Bound on P(empirical mean in [lo, hi]) via the worst endpoint.

    Needs all four assumptions.  The rate infimum over a closed interval
    of the convex rate function sits at the endpoint nearest the
    stationary mean, and is zero when the interval contains it.
    """
    n = _count(n, 1, "bounds: n must be at least 1, got {!r}")
    lo, hi = (float(interval[0]), float(interval[1]))
    if not (lo <= hi):
        raise DomainError(f"bounds: empty interval [{lo!r}, {hi!r}]")
    upper = constants(model, "upper")
    lower = constants(model, "lower")
    K = max(upper.K, lower.K)
    pif = _family.family_of(model).stationary_mean
    if lo <= pif <= hi:
        return 2.0 * K
    if lo > pif:
        rate = _family.rate_function(model, lo, "upper").value
    else:
        rate = _family.rate_function(model, hi, "lower").value
    return 2.0 * K * math.exp(-n * rate)


def ergodic_gap(model: MarkovModel, n: int) -> float:
    """Uniform bound log(K)/n on |Lambda_n - Lambda| over all tilts."""
    n = _count(n, 1, "bounds: n must be at least 1, got {!r}")
    K = max(constants(model, "upper").K, constants(model, "lower").K)
    return math.log(K) / n
