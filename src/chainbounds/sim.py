"""Trajectory sampling, empirical tails, and the exact finite-n growth rate.

Randomness comes from numpy's counter-based Philox generator, which has a
stable published algorithm, so seeded runs reproduce across platforms.
Trial t of a simulation uses its own stream keyed by (seed + t); the hit
count is an associative reduction over trials, so results are identical
under any chunking or parallel schedule.  State sampling is inverse-CDF
over the stored row order.

``lambda_n_exact`` evaluates the n-step scaled log moment generating
function by n vector-matrix products against the shifted tilted matrix
with per-step sup-norm rescaling, so it is exact up to roundoff for any
theta and n in scope, with no sampling and no overflow.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import bounds as _bounds
from . import family as _family
from .errors import DomainError
from .model import MarkovModel

CONFIDENCE = 0.95
CHUNK_VALUES = 2**24       # float64 values held per chunk of trials

__all__ = [
    "TailEstimate",
    "ErgodicCheck",
    "sample_trajectory",
    "empirical_tail",
    "lambda_n_exact",
    "ergodic_check",
    "ergodic_checks",
]


@dataclass(frozen=True)
class TailEstimate:
    """Monte Carlo estimate of a tail probability with an exact interval."""

    n: int
    mu: float
    side: str
    trials: int
    hits: int
    p_hat: float
    ci_low: float
    ci_high: float
    seed: int

    def __post_init__(self):
        if not (0.0 <= self.ci_low <= self.p_hat <= self.ci_high <= 1.0):
            raise DomainError("sim: confidence interval is inconsistent")


@dataclass(frozen=True)
class ErgodicCheck:
    """Exact finite-n growth rate against its limit, with the uniform bound."""

    theta: float
    n: int
    Lambda_n: float
    Lambda: float
    gap: float
    bound: float

    @property
    def passed(self) -> bool:
        return self.gap <= self.bound + 1e-9


def _rng_for(seed) -> np.random.Generator:
    if isinstance(seed, np.random.Generator):
        return seed
    seed = int(seed)
    if seed < 0:
        raise DomainError(f"sim: seed must be nonnegative, got {seed!r}")
    return np.random.Generator(np.random.Philox(key=seed))


def _pick(cum: np.ndarray, u):
    """Inverse-CDF lookup: smallest index whose cumulative weight exceeds u."""
    idx = np.sum(np.asarray(u)[..., None] >= cum, axis=-1)
    return np.minimum(idx, cum.shape[-1] - 1)


def sample_trajectory(model: MarkovModel, n: int, rng) -> np.ndarray:
    """Sample X_0, ..., X_n as state indices: X_0 ~ q, X_{k+1} ~ P(X_k, .).

    ``rng`` is a numpy Generator or an integer seed (Philox-keyed).
    Identical inputs give identical sequences.
    """
    if n < 0:
        raise DomainError(f"sim: trajectory length must be >= 0, got {n!r}")
    gen = _rng_for(rng)
    cum_q = np.cumsum(model.q)
    cum_P = np.cumsum(model.P, axis=1)
    draws = gen.random(n + 1)
    path = np.empty(n + 1, dtype=np.int64)
    path[0] = _pick(cum_q, draws[0])
    for k in range(1, n + 1):
        path[k] = _pick(cum_P[path[k - 1]], draws[k])
    return path


def _clopper_pearson(hits: int, trials: int, confidence: float):
    # imported here: scipy.special costs the CLI nothing unless it simulates
    from scipy.special import betaincinv

    alpha = 1.0 - confidence
    low = 0.0 if hits == 0 else float(
        betaincinv(hits, trials - hits + 1, alpha / 2))
    high = 1.0 if hits == trials else float(
        betaincinv(hits + 1, trials - hits, 1 - alpha / 2))
    return low, high


def empirical_tail(model: MarkovModel, n: int, mu: float, side: str,
                   trials: int, seed: int = 0) -> TailEstimate:
    """Estimate P((1/n) sum f(X_k) >= mu) (upper; <= for lower) by
    simulation.

    The event is closed: ties count as hits.  Trials are vectorized in
    chunks but each trial consumes exactly the stream of
    ``sample_trajectory(model, n, seed + t)``, so single trajectories can
    be replayed.  The interval is an exact Clopper-Pearson 95% interval.
    """
    if side not in ("upper", "lower"):
        raise DomainError(f"sim: side must be 'upper' or 'lower', got {side!r}")
    if trials < 1:
        raise DomainError(f"sim: trials must be >= 1, got {trials!r}")
    if n < 1:
        raise DomainError(f"sim: n must be >= 1, got {n!r}")
    seed = int(seed)
    if seed < 0:
        raise DomainError(f"sim: seed must be nonnegative, got {seed!r}")
    mu = float(mu)
    f = model.f
    cum_q = np.cumsum(model.q)
    cum_P = np.cumsum(model.P, axis=1)
    # a trial holds n + 1 draws plus the (block, S) gather and compare of
    # each step
    chunk = max(1, CHUNK_VALUES // (n + 1 + 2 * model.n_states))
    hits = 0
    for start in range(0, trials, chunk):
        block = min(chunk, trials - start)
        draws = np.empty((block, n + 1))
        for i in range(block):
            key = seed + start + i
            draws[i] = np.random.Generator(
                np.random.Philox(key=key)).random(n + 1)
        state = _pick(cum_q[None, :], draws[:, 0])
        sums = np.zeros(block)
        for k in range(1, n + 1):
            state = _pick(cum_P[state], draws[:, k])
            sums += f[state]
        means = sums / n
        if side == "upper":
            hits += int(np.count_nonzero(means >= mu))
        else:
            hits += int(np.count_nonzero(means <= mu))
    low, high = _clopper_pearson(hits, trials, CONFIDENCE)
    return TailEstimate(n=int(n), mu=mu, side=side, trials=int(trials),
                        hits=hits, p_hat=hits / trials, ci_low=low,
                        ci_high=high, seed=seed)


def _lambda_n_sweep(model: MarkovModel, theta: float, ns) -> list[float]:
    """Lambda_n for every n in ns from one prefix sweep of q' M^k 1."""
    theta = float(theta)
    expo = theta * model.f
    m = float(expo.max())
    T = model.P * np.exp(expo - m)[None, :]
    w = model.q.copy()
    log_scale = 0.0
    want, found = set(ns), {}
    for k in range(1, max(want, default=0) + 1):
        w = w @ T
        s = float(w.max())
        log_scale += math.log(s)
        w /= s
        if k in want:
            found[k] = (log_scale + math.log(float(w.sum())) + k * m) / k
    return [found[n] for n in ns]


def lambda_n_exact(model: MarkovModel, theta: float, n: int) -> float:
    """(1/n) log E_q exp(theta * sum_{k=1}^n f(X_k)), computed exactly.

    Uses q' M^n 1 for the shifted tilted matrix M, rescaling by the sup
    norm each step and accumulating the scale in log space.
    """
    if n < 1:
        raise DomainError(f"sim: n must be >= 1, got {n!r}")
    return _lambda_n_sweep(model, theta, (n,))[0]


def ergodic_checks(model: MarkovModel, theta: float, ns) -> list[ErgodicCheck]:
    """Compare the exact finite-n rate with its limit at every n in ns,
    from one sweep of products (bit-identical to ``lambda_n_exact``).

    The bound field is log(K)/n from the bound constants, which requires
    all four positivity assumptions.
    """
    bounds = [_bounds.ergodic_gap(model, n) for n in ns]
    lam = _family.family_of(model).at(theta).Lambda
    return [ErgodicCheck(theta=float(theta), n=int(n), Lambda_n=lam_n,
                         Lambda=lam, gap=abs(lam_n - lam), bound=bound)
            for n, bound, lam_n in zip(ns, bounds,
                                       _lambda_n_sweep(model, theta, ns))]


def ergodic_check(model: MarkovModel, theta: float, n: int) -> ErgodicCheck:
    """``ergodic_checks`` at a single horizon n."""
    return ergodic_checks(model, theta, (n,))[0]
