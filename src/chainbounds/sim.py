"""Trajectory sampling, empirical tails, and the exact finite-n growth rate.

Randomness comes from numpy's counter-based Philox generator, which has a
stable published algorithm, so seeded runs reproduce across platforms.
Trial t of a simulation uses its own stream keyed by (seed + t); the hit
count is an associative reduction over trials, so results are identical
under any chunking or parallel schedule.

State sampling is inverse-CDF over the stored row order: the next state
is the number of cumulative row weights at or below the uniform draw u,
clipped to the last state.  Draws are handled as the integers
m = u * 2**53 (numpy's doubles are multiples of 2**-53, so this is
exact; Philox draws are read as ``random_raw() >> 11`` directly), and
each cumulative weight c as ceil(c * 2**53), so ``u >= c`` is the exact
integer test ``m >= ceil(c * 2**53)``.  A guide table per row (Chen and
Asau, 1974; Devroye, 1986, sec. III.2.4) maps the top bits of m to the
first boundary above its bucket, and a fixed number of fix-up steps,
each skipping a run of zero weights at once, finishes the search: O(1)
work per draw whatever the number of states, with the same states as a
full comparison against the row.

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
from .errors import DomainError, _count
from .model import MarkovModel, memo

CONFIDENCE = 0.95
CHUNK_VALUES = 2**24       # 8-byte values held per chunk of trials
TILE_VALUES = 2**16        # draws per transposed tile of steps
WALK_VALUES = 7            # per-trial vectors of a step: tile row, guide,
                           # position, two table gathers, f gather and sum
GUIDE_ENTRIES = 2**22      # guide-table entries per model, at most

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


_UNIT = 2**53              # doubles from numpy's random() are m / _UNIT
_NEVER = np.iinfo(np.int64).max


@dataclass(frozen=True)
class _Sampler:
    """Inverse-CDF tables for integer draws m in [0, 2**53).

    Rows 0..S-1 are the rows of P and row S is the initial law q.  A
    position is the flat index row * S + j of column j.
    """

    shift: int             # the guide bucket of draw m is m >> shift
    lo: np.ndarray         # [row * B + bucket]: first position above the bucket start
    bound: np.ndarray      # [pos]: ceil(cum * 2**53); _NEVER in the last column
    skip: np.ndarray       # [pos]: offset to the next position with a larger bound
    base: np.ndarray       # [pos]: column * B, where the column's guide row starts
    state: np.ndarray      # [pos]: column
    first: int             # row S * B, where q's guide row starts
    extra: int             # fix-up steps: most distinct bounds inside one bucket


def _build_sampler(model: MarkovModel) -> _Sampler:
    S = model.n_states
    # B = 2**bits buckets per row: 8S to 16S, at most GUIDE_ENTRIES in all
    bits = max(0, min(math.ceil(math.log2(8 * S)),
                      (GUIDE_ENTRIES // (S + 1)).bit_length() - 1))
    shift = 53 - bits
    starts = np.arange(1 << bits, dtype=np.int64) << shift
    ends = starts + (1 << shift)
    cum = np.cumsum(np.vstack([model.P, model.q]), axis=1)
    # u >= c  <=>  m >= ceil(c * 2**53); the sentinel stops the walk at S-1
    bound = np.ceil(cum * float(_UNIT)).astype(np.int64)
    bound[:, -1] = _NEVER
    lo = np.empty((S + 1, 1 << bits), dtype=np.int64)
    skip = np.empty((S + 1, S), dtype=np.int64)
    columns = np.arange(S, dtype=np.int64)
    extra = 0
    for r, row in enumerate(bound):
        lo[r] = np.searchsorted(row, starts, side="right") + r * S
        skip[r] = np.searchsorted(row, row, side="right") - columns
        distinct = row[np.r_[True, row[1:] != row[:-1]]]    # row is sorted
        inside = (np.searchsorted(distinct, ends, side="left")
                  - np.searchsorted(distinct, starts, side="right"))
        extra = max(extra, int(inside.max()))
    state = np.tile(columns, S + 1)
    return _Sampler(shift=shift, lo=lo.ravel(), bound=bound.ravel(),
                    skip=skip.ravel(), base=state << bits, state=state,
                    first=S << bits, extra=extra)


def _sampler(model: MarkovModel) -> _Sampler:
    return memo(model._derived, "sampler", lambda _: _build_sampler(model))


def _walk(sp: _Sampler, m: np.ndarray):
    """Yield the positions of X_0, ..., X_n of trials with draws m.

    ``m`` is (trials, n + 1) int64, one row per trial.  Steps run over
    tiles of columns copied out transposed, so each step reads contiguous
    draws and no second full copy of m is made.
    """
    block, steps = m.shape
    guide = np.full(block, sp.first, dtype=np.int64)
    width = max(1, TILE_VALUES // block)
    for k0 in range(0, steps, width):
        for draw in np.ascontiguousarray(m[:, k0:k0 + width].T):
            guide += draw >> sp.shift
            pos = sp.lo.take(guide)
            for _ in range(sp.extra):
                np.add(pos, sp.skip.take(pos), out=pos,
                       where=draw >= sp.bound.take(pos))
            yield pos
            guide = sp.base.take(pos)


def _exact_integers(u: np.ndarray) -> np.ndarray:
    """The integers u * 2**53, or DomainError if a draw is not a multiple
    of 2**-53 in [0, 1)."""
    scaled = u * float(_UNIT)
    m = scaled.astype(np.int64)
    if not (np.array_equal(m, scaled) and np.all((0 <= m) & (m < _UNIT))):
        raise DomainError("sim: generator draws are not multiples of 2**-53 "
                          "in [0, 1); cannot sample them exactly")
    return m


def _philox_rows(first: int, rows: int, count: int) -> np.ndarray:
    """Row i is m with m * 2**-53 the first ``count`` values of
    ``Generator(Philox(key=first + i)).random()``, for i < rows.

    One Philox serves every row: its documented ``state`` dict is set to
    key words ((first + i) mod 2**64, (first + i) >> 64), counter zero and
    an empty buffer, which is the state ``Philox(key=first + i)`` starts
    in, at a fraction of the cost of constructing one.  Building it on the
    largest key lets numpy range-check the keys.
    """
    bitgen = np.random.Philox(key=first + rows - 1)
    state = bitgen.state
    state["state"]["counter"][:] = 0
    state["buffer_pos"] = 4
    key = state["state"]["key"]
    out = np.empty((rows, count), dtype=np.uint64)
    for i in range(rows):
        key[0], key[1] = (first + i) % 2**64, (first + i) >> 64
        bitgen.state = state
        out[i] = bitgen.random_raw(count)
    return np.right_shift(out, 11, out=out).view(np.int64)


def _path(model: MarkovModel, m: np.ndarray) -> np.ndarray:
    """States X_0, ..., X_n driven by the integer draws m (length n + 1)."""
    sp = _sampler(model)
    return sp.state[np.concatenate(list(_walk(sp, m.reshape(1, -1))))]


def sample_trajectory(model: MarkovModel, n: int, rng) -> np.ndarray:
    """Sample X_0, ..., X_n as state indices: X_0 ~ q, X_{k+1} ~ P(X_k, .).

    ``rng`` is a numpy Generator or an integer seed (Philox-keyed).
    Identical inputs give identical sequences.  A Generator's doubles must
    be multiples of 2**-53, as every numpy bit generator's are; otherwise
    this raises DomainError rather than sample them inexactly.
    """
    n = _count(n, 0, "sim: trajectory length must be >= 0, got {!r}")
    if isinstance(rng, np.random.Generator):
        m = _exact_integers(rng.random(n + 1))
    else:
        seed = _count(rng, 0, "sim: seed must be nonnegative, got {!r}")
        m = _philox_rows(seed, 1, n + 1)[0]
    return _path(model, m)


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
    trials = _count(trials, 1, "sim: trials must be >= 1, got {!r}")
    n = _count(n, 1, "sim: n must be >= 1, got {!r}")
    seed = _count(seed, 0, "sim: seed must be nonnegative, got {!r}")
    mu = float(mu)
    sp = _sampler(model)
    f_at = model.f[sp.state]
    # n + 1 draws per trial plus the walk's per-trial vectors
    chunk = max(1, CHUNK_VALUES // (n + 1 + WALK_VALUES))
    hits = 0
    for start in range(0, trials, chunk):
        block = min(chunk, trials - start)
        walk = _walk(sp, _philox_rows(seed + start, block, n + 1))
        next(walk)                 # X_0 adds nothing to the sum
        sums = np.zeros(block)
        for pos in walk:
            sums += f_at.take(pos)
        means = sums / n
        if side == "upper":
            hits += int(np.count_nonzero(means >= mu))
        else:
            hits += int(np.count_nonzero(means <= mu))
    low, high = _clopper_pearson(hits, trials, CONFIDENCE)
    return TailEstimate(n=n, mu=mu, side=side, trials=trials,
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
    n = _count(n, 1, "sim: n must be >= 1, got {!r}")
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
