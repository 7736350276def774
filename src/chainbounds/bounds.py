"""Bound constants and evaluated Chernoff / Hoeffding tail bounds.

The prefactor K is the supremum over the relevant tilt half-line of the
ratios of right Perron eigenvector entries, L the supremum of the ratio's
theta-derivative, and sigma2 the supremum of Lambda'' there; all three
are finite under the side's positivity assumptions because the spectral
objects converge to those of the column-restricted limit matrix.

A grid point needs three Perron solves: theta, and theta +/- 5e-4
(1 + |theta|) for the cross-check of Lambda''; derivatives come from
``TiltedFamily.derivatives``.  The points of a round are known before it
runs, so each round hands all of them with their neighbours to
``TiltedFamily.at_many``, which solves them as one stacked Perron solve,
and the round's tilts to ``TiltedFamily.derivatives_many``, which solves
their derivatives as one stacked linear solve; the evaluation loop then
finds everything memoized.  Neighbours only give Lambda, so their tilted
matrices and rescaled triples are never built.  Constants are memoized
on the model per side (``model.memo``), and the limit-matrix triple is
shared with the boundary rate (``family.limit_triple``).

The suprema are located with an adaptive grid, not a certified global
optimizer: start from theta in {0, 0.25, ..., 8}, the grid
``family.half_line_grid`` that mean inversion brackets on too, then each
round halves the spacing around the current argmaxes and doubles the
grid extent, stopping once the running maxima move by less than 1e-6
relative and the sigma2 tail guard (evaluations at the extent and at
twice the extent stay below the current maximum) passes.  The
eigenvector-ratio limit of the limit matrix is always included as a K
candidate.  Diagnostics in ``grid_summary`` expose where each supremum
was attained so results can be audited.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import family as _family
from .errors import DomainError
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
    "hoeffding_bound",
    "two_sided_bound",
    "ergodic_gap",
]


@dataclass(frozen=True)
class GridSummary:
    """Diagnostics of the supremum search.

    ``argmax_K`` is +/-inf when the limit-matrix candidate won.  A summary
    with ``converged`` False means the refinement budget ran out and the
    constants are best-so-far values.  ``tail_guard_passed`` reports the
    two-point Lambda'' lookahead, which is a pragmatic guard rather than
    a proof that the tail holds no larger value.
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
        if self.K < 1.0 - 1e-9:
            raise DomainError(f"bounds: K={self.K!r} below 1")
        if self.L < 0.0 or self.sigma2 < 0.0:
            raise DomainError("bounds: L and sigma2 must be nonnegative")


@dataclass(frozen=True)
class BoundReport:
    """Evaluated bounds for one (n, mu, side) query.

    ``chernoff`` is K*exp(-n*rate); ``hoeffding_sigma`` replaces the rate
    by the quadratic (mu - pi(f))^2 / (2 sigma2); ``hoeffding_range``
    further relaxes sigma2 to the range proxy ((b-a+2KL)/2)^2.  Each
    relaxation is provably weaker, so the three are ordered.  Raw values
    are kept inspectable (they may exceed 1); ``clipped`` caps them at 1.
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

    Results are memoized per model instance and side.
    """
    return memo(model._derived, ("constants", side),
                lambda _: _compute_constants(model, side))


def _compute_constants(model: MarkovModel, side: str) -> BoundConstants:
    # the limit matrix requires the side's assumptions, so it gates first
    limit_triple = _family.limit_triple(model, side)
    sign = 1.0 if side == "upper" else -1.0
    fam = _family.family_of(model)
    v_inf = limit_triple.v
    K_limit = float(v_inf.max() / v_inf.min())
    rho_inf = limit_triple.rho

    evals: dict[float, tuple[float, float, float]] = {}

    def evaluate(t: float) -> tuple[float, float, float]:
        # t >= 0 parametrizes the half-line; the real tilt is sign * t
        t = float(t)
        hit = evals.get(t)
        if hit is not None:
            return hit
        theta = sign * t
        v = fam.at(theta).v
        w = fam.derivatives(theta)[0]
        ratio = v[None, :] / v[:, None]            # [x, y] = v(y)/v(x)
        k_t = float(ratio.max())
        l_t = float(np.abs(ratio * (w[None, :] - w[:, None])).max())
        s2_t = fam.lambda_second(theta)
        out = (k_t, l_t, s2_t)
        evals[t] = out
        return out

    def running_maxima():
        k_arg, l_arg, s_arg = math.inf * sign, 0.0, 0.0
        k_best, l_best, s_best = K_limit, -math.inf, -math.inf
        for t in sorted(evals):
            k_t, l_t, s2_t = evals[t]
            if k_t > k_best:
                k_best, k_arg = k_t, sign * t
            if l_t > l_best:
                l_best, l_arg = l_t, sign * t
            if s2_t > s_best:
                s_best, s_arg = s2_t, sign * t
        return (k_best, l_best, s_best), (k_arg, l_arg, s_arg)

    def prefetch(ts):
        # one stacked Perron solve for the round's tilts and their
        # cross-check neighbours, and one stacked linear solve for the
        # tilts' derivatives; ``evaluate`` then finds all of it memoized
        thetas = [sign * float(t) for t in ts]
        fam.at_many(_family.cross_check_thetas(thetas))
        fam.derivatives_many(thetas)

    extent = _family.GRID_EXTENT
    spacing = _family.GRID_SPACING
    initial = _family.half_line_grid()
    prefetch(initial)
    for t in initial:
        evaluate(t)
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
        prefetch(ts + [extent, 2.0 * extent])
        for t in ts:
            evaluate(t)
        best, args = running_maxima()
        moved = max(
            abs(b - p) / max(abs(p), 1e-30) for b, p in zip(best, prev))
        s2_at_edge = evaluate(extent)[2]
        s2_beyond = evaluate(2.0 * extent)[2]
        guard_tol = 1e-12 * max(1.0, best[2])
        tail_ok = (s2_at_edge <= best[2] + guard_tol
                   and s2_beyond <= best[2] + guard_tol
                   and abs(args[2]) < extent)
        if moved < REFINE_RTOL and tail_ok:
            converged = True
            break

    K, L, sigma2 = best
    summary = GridSummary(
        theta_max=extent,
        rounds=rounds,
        n_points=len(evals),
        argmax_K=args[0],
        argmax_L=args[1],
        argmax_sigma2=args[2],
        converged=converged,
        tail_guard_passed=tail_ok,
    )
    return BoundConstants(side=side, K=max(K, 1.0), L=max(L, 0.0),
                          sigma2=max(sigma2, 0.0), rho_inf=rho_inf,
                          grid_summary=summary)


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
    invariant is visible at every call site.
    """
    if n < 1:
        raise DomainError(f"bounds: n must be at least 1, got {n!r}")
    consts = constants(model, side)
    rate_point = _family.rate_function(model, mu, side)
    pif = _family.family_of(model).stationary_mean
    ls = level_sets(model)
    dev = float(mu) - pif
    exp_sigma = _quadratic_exponent(dev, 2.0 * consts.sigma2)
    span = ls.b - ls.a + 2.0 * consts.K * consts.L
    exp_range = 2.0 * _quadratic_exponent(dev, span * span)
    return BoundReport(
        n=int(n),
        mu=float(mu),
        side=side,
        rate=rate_point.value,
        chernoff=consts.K * math.exp(-n * rate_point.value),
        hoeffding_sigma=consts.K * math.exp(-n * exp_sigma),
        hoeffding_range=consts.K * math.exp(-n * exp_range),
    )


# the same report carries the sub-Gaussian relaxations
hoeffding_bound = chernoff_bound


def two_sided_bound(model: MarkovModel, n: int, interval) -> float:
    """Bound on P(empirical mean in [lo, hi]) via the worst endpoint.

    Needs all four assumptions.  The rate infimum over a closed interval
    of the convex rate function sits at the endpoint nearest the
    stationary mean, and is zero when the interval contains it.
    """
    if n < 1:
        raise DomainError(f"bounds: n must be at least 1, got {n!r}")
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
    if n < 1:
        raise DomainError(f"bounds: n must be at least 1, got {n!r}")
    K = max(constants(model, "upper").K, constants(model, "lower").K)
    return math.log(K) / n
