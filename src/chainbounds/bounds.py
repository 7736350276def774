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
optimizer: start from theta in {0, 0.25, ..., 8}
(``family.half_line_grid``), then each round bisects the two cells next
to each finite argmax and doubles the grid extent E, adding the block
(E, 2E] (``family.extension_block``).  ``family`` owns this lattice:
mean inversion brackets on the grid and starts Newton from its tilts and
a block, so after ``constants`` it finds them memoized.  After each
round a parabola is fitted through every local peak of K_t, L_t and
sigma2_t and its two neighbours (the first three tilts at a peak at
theta = 0, where only a vertex inside the first cell counts), and the
vertex of a concave fit whose predicted value beats the running maximum
(K_limit when it wins) joins the next round, its Lambda'' checked by the
grid cells like any other tilt (successive parabolic interpolation;
Brent, Algorithms for Minimization without Derivatives, 1973).  The
search stops once every such fit predicts a gain over its running
maximum below 1e-6 relative, a finite argmax of L whose fit spans a
change of the pair (x, y) that attains L_t has also moved by less than
that (a parabola does not see the kinks of a maximum over pairs), and
the tail guard passes.  Each round also evaluates the extent and twice
the extent, the lookahead; the guard needs every finite argmax strictly
inside the extent, and a settled tail: the Perron vector at the
lookahead within Hilbert distance 1 of the limit's, and no constant
rising into the extent or from it to the lookahead (K only above its
limit), so a peak of L far out in the tail, where the tilt has not yet
reached the limit matrix, makes the extent double on.  The vertices of
the last fits are evaluated too, so the maxima take the gain the stop
predicted.  The eigenvector-ratio limit of the limit matrix is always
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
TAIL_DISTANCE = 1.0        # Hilbert distance from v to v_inf that ends it
PAIR_TIE = 1e-9            # relative gap under which two pairs tie for L_t

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
    in ``n_points`` and the maxima.  An argmax may be the vertex of a
    parabola fit rather than a grid tilt.  ``argmax_K`` is +/-inf when the
    limit-matrix candidate won.  A summary with ``converged`` False means
    the refinement budget ran out and the constants are best-so-far
    values.  ``tail_guard_passed`` reports whether every finite argmax of
    K, L and sigma2 lies strictly inside the extent and the tail had
    settled at the last round: v at the lookahead within Hilbert distance
    ``TAIL_DISTANCE`` of v_inf, and none of K (above K_limit), L and
    sigma2 rising into the extent or on to the lookahead.  It is a
    pragmatic guard rather than a proof that the tail holds no larger
    value: a peak of K above K_limit that starts beyond the lookahead
    goes unseen.
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
        if not ts.size:
            return []
        thetas = (sign * ts).tolist()
        s2 = fam.lambda_second_many(thetas, [sign * t for t in lone])
        points = [fam.at(theta) for theta in thetas]
        V = np.array([p.v for p in points])
        W = np.array([fam.derivatives(theta)[0] for theta in thetas])
        # division rounds monotonically, so max v / min v is the largest
        # entry of ``ratio``, which L alone needs
        K_t = V.max(axis=1) / V.min(axis=1)
        L_t = _pair_slopes(V, W).max(axis=1)
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
        # the smallest maximizing t of K, L and sigma2, K_limit winning ties;
        # the vertices of the fits at every local peak whose predicted value
        # beats its running maximum, and the largest gain they predict
        i = values[:3].argmax(axis=1)
        best = values[np.arange(3), i].tolist()
        args = (sign * done[i]).tolist()
        if not best[0] > K_limit:
            best[0], args[0] = K_limit, math.inf * sign
        vertices, gain = [], 0.0
        for row, y in enumerate(values[:3]):
            rim = np.pad(y, 1, constant_values=-math.inf)
            for j in np.flatnonzero((y >= rim[:-2]) & (y >= rim[2:])).tolist():
                fit = _vertex(done, y, j)
                if fit and fit[1] > best[row]:
                    vertices.append(fit[0])
                    gain = max(gain, fit[1] / best[row] - 1.0)
        return tuple(best), tuple(args), vertices, gain

    extent = _family.GRID_EXTENT
    splits = evaluate(_family.half_line_grid(), [0.0])
    best, args, vertices, _ = running_maxima()

    rounds = 0
    converged = False
    tail_ok = False
    for _ in range(REFINE_ROUNDS):
        rounds += 1
        prev = best
        ts = _family.extension_block(extent).tolist() + vertices
        extent *= 2.0
        # bisect the two cells next to each finite argmax
        for arg in set(args):
            if math.isfinite(arg):
                j = int(np.searchsorted(done, abs(arg)))
                cells = done[max(j - 1, 0):j + 2]
                ts.extend((0.5 * (cells[:-1] + cells[1:])).tolist())
        guards = [extent, 2.0 * extent]
        splits = evaluate(ts + splits + guards, guards)
        best, args, vertices, gain = running_maxima()
        # L_t has kinks where its maximizing pair changes, which a parabola
        # does not see: a finite argmax of L whose fit spans such a change
        # must also stop moving
        j = max(int(np.searchsorted(done, abs(args[1]))) - 1, 0)
        moved = (1.0 - prev[1] / best[1]
                 if _kinked(fam, (sign * done[j:j + 3]).tolist()) else 0.0)
        # the guard tilts extent and 2 * extent are inside the maxima, so
        # the tail guard holds when every finite argmax is before the
        # extent and the tail has settled: v at the lookahead is within
        # TAIL_DISTANCE of v_inf, and no constant rises into the extent or
        # from it to the lookahead (K only above K_limit) by more than
        # REFINE_RTOL of its maximum
        e, ahead = np.searchsorted(done, [extent, 2.0 * extent]).tolist()
        tail = values[:3, [e - 1, e, ahead]]
        tail[0, :2] = np.maximum(tail[0, :2], K_limit)
        rise = np.diff(tail, axis=1).max(axis=1)
        with np.errstate(divide="ignore"):
            log_ratio = np.log(fam.at(sign * done[ahead]).v / v_inf)
        tail_ok = (log_ratio.max() - log_ratio.min() <= TAIL_DISTANCE
                   and bool(np.all(rise <= REFINE_RTOL * np.array(best)))
                   and all(abs(arg) < extent for arg in args
                           if math.isfinite(arg)))
        if max(gain, moved) < REFINE_RTOL and tail_ok:
            converged = True
            break
    # the vertices of the last fits join the split passes, so the maxima
    # take the gain the stop predicted; one before the extent is inside the
    # checked grid
    splits += [t for t in vertices if t < extent]
    while splits:
        splits = evaluate(splits, [])
        best, args, _, _ = running_maxima()

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


def _pair_slopes(V: np.ndarray, W: np.ndarray) -> np.ndarray:
    """|w(y) - w(x)| v(y) / v(x) for every pair (x, y), as column x * S + y,
    from the rows v of ``V`` and w of ``W``: L_t is the largest."""
    ratio = V[:, None, :] / V[:, :, None]      # [b, x, y] = v(y)/v(x)
    slope = W[:, None, :] - W[:, :, None]
    slope *= ratio
    return np.abs(slope, out=slope).reshape(len(V), -1)


def _kinked(fam, thetas) -> bool:
    """Whether two neighbours of ``thetas`` share no pair that attains
    L there: then L_t, the upper envelope of the pairs, has a kink between
    them.  Pairs within PAIR_TIE of the largest tie, as (x, y) and (y, x) do
    at theta = 0, where v is constant, and two states alike always do."""
    slopes = _pair_slopes(np.array([fam.at(t).v for t in thetas]),
                          np.array([fam.derivatives(t)[0] for t in thetas]))
    ties = [set(np.flatnonzero(row >= (1.0 - PAIR_TIE) * row.max()).tolist())
            for row in slopes]
    return any(not a & b for a, b in zip(ties, ties[1:]))


def _vertex(t, y, i):
    """(vertex, predicted value) of the parabola through the local peak
    ``y[i]`` at ``t[i]`` and its neighbours in the sorted ``t``.  None when
    the fit is not concave or its vertex is not strictly between the
    neighbours.  At i = 0, the end t = 0 of the half-line, the fit takes
    the first three tilts and only a vertex inside the first cell counts.
    """
    if i + 1 >= t.size:
        return None
    j = max(i - 1, 0)
    (t0, t1, t2), (y0, y1, y2) = t[j:j + 3].tolist(), y[j:j + 3].tolist()
    d0, d1 = (y1 - y0) / (t1 - t0), (y2 - y1) / (t2 - t1)
    a = (d1 - d0) / (t2 - t0)
    if not a < 0.0:
        return None
    vertex = 0.5 * (t0 + t1) - d0 / (2.0 * a)
    if not t0 < vertex < (t1 if i == 0 else t2):
        return None
    return vertex, y0 + (vertex - t0) * (d0 + a * (vertex - t1))


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
