"""Trajectory sampling, empirical tails, and the exact finite-n growth rate.

Randomness comes from numpy's counter-based Philox generator, which has a
stable published algorithm, so seeded runs reproduce across platforms.
Trial t of a simulation uses its own stream keyed by (seed + t); the hit
count is an associative reduction over trials, so results are identical
under any chunking or parallel schedule.  Philox is counter-based (Salmon,
Moraes, Dror and Shaw, "Parallel random numbers: as easy as 1, 2, 3",
2011): draw k of a stream is addressed by its key and the counter k // 4.
So a chunk of trials walks its steps a tile at a time, each tile's draws
made into one reused buffer just before the walk reads them.  A chunk
holds at most lanes = DRAW_VALUES // (TILE_STEPS + WALK_VALUES) trials
(2034), so a call holds at most lanes x (width + WALK_VALUES) 8-byte
values for tiles of width draws (under 1 MB for 51-step trials), never
more than DRAW_VALUES, whatever n x trials is.

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

The interval around a simulated tail is the exact Clopper-Pearson one
(Clopper and Pearson, 1934): its lower end is the x with
P(Bin(trials, x) >= hits) = alpha/2 and its upper end the x with
P(Bin(trials, x) <= hits) = alpha/2.  Each tail is summed outwards from
its largest term, P(Bin(n, x) = k) in Loader's saddle-point form
(Loader, "Fast and Accurate Computation of Binomial Probabilities",
2000), which has no cancellation at any n, and each end is found by
bracketed Newton steps, using only ``math``.

``lambda_n_exact`` evaluates the n-step scaled log moment generating
function by n vector-matrix products against the shifted tilted matrix
P diag(d) (``family._weights``) with per-step sup-norm rescaling, so it
is exact up to roundoff for any theta and n in scope, with no sampling
and no overflow.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import assumptions as _assumptions
from . import bounds as _bounds
from . import family as _family
from .errors import ConvergenceError, DomainError, _count
from .model import MarkovModel, memo

CONFIDENCE = 0.95
DRAW_VALUES = 2**21        # 8-byte values held at once: trials per chunk
                           # times (draws per tile + WALK_VALUES)
TILE_STEPS = 1024          # fewest draws in a tile that ends inside a trial
WALK_VALUES = 7            # per-trial vectors of a step: shifted draws,
                           # guide, position, two table gathers, f gather
                           # and sum
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


def _walk(sp: _Sampler, block: int, tiles):
    """Yield the positions of X_0, ..., X_n of ``block`` trials whose
    draws come as ``tiles``: (width, block) int64 arrays of consecutive
    steps, one column per trial, so each step reads a contiguous row.
    """
    guide = np.full(block, sp.first, dtype=np.int64)
    for tile in tiles:
        for draw in tile:
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


def _philox_rows(first: int, start: int, out: np.ndarray) -> np.ndarray:
    """Fill the (count, streams) uint64 array ``out`` and return it as
    int64: column i is m with m * 2**-53 the values ``start`` to
    ``start + count - 1`` of ``Generator(Philox(key=first + i)).random()``.

    One Philox serves every column: its documented ``state`` dict is set to
    key words ((first + i) mod 2**64, (first + i) >> 64), counter words
    (start // 4, 0, 0, 0) and an empty buffer, the state
    ``Philox(key=first + i)`` is in after it has made its first start // 4
    blocks of four words, at a fraction of the cost of constructing one;
    the start % 4 words of the next block that precede ``start`` are
    dropped.  The dict holds lists, which the setter indexes in half the
    time it takes on the arrays the getter returns.  Building the Philox
    on the largest key lets numpy range-check the keys.
    """
    count, streams = out.shape
    bitgen = np.random.Philox(key=first + streams - 1)
    key = [0, 0]
    state = {"bit_generator": "Philox",
             "state": {"counter": [start // 4, 0, 0, 0], "key": key},
             "buffer": [0, 0, 0, 0], "buffer_pos": 4,
             "has_uint32": 0, "uinteger": 0}
    skip = start % 4
    for i in range(streams):
        key[1], key[0] = divmod(first + i, 2**64)
        bitgen.state = state
        if skip:
            bitgen.random_raw(skip)
        out[:, i] = bitgen.random_raw(count)
    return np.right_shift(out, 11, out=out).view(np.int64)


def _tiling(steps: int, trials: int) -> tuple[int, int]:
    """(block, width): trials per chunk and draws per tile for ``trials``
    trials of ``steps`` draws.

    A chunk holds min(trials, lanes) trials, where lanes =
    DRAW_VALUES // (TILE_STEPS + WALK_VALUES) (2034) is the chunk a tile
    of TILE_STEPS draws fills the budget with.  The walk's per-step numpy
    calls are already spread over that many lanes, so trials of few steps
    do not fill the budget with more of them: a call holds at most
    lanes x (width + WALK_VALUES) values (0.94 MB for 51-step trials).

    A trial is one tile if it fits in its share of DRAW_VALUES or in
    TILE_STEPS.  A longer one is cut into tiles of at least TILE_STEPS
    draws, since a tile costs each trial about as much as 400 draws
    beyond its own (setting the state, a call and a copy: 1.6 us on a
    2-core Xeon).  Either way block * (width + WALK_VALUES) <= DRAW_VALUES
    unless lanes is 1, whose chunk of one trial may exceed a budget
    smaller than one tile.
    """
    lanes = max(1, DRAW_VALUES // (TILE_STEPS + WALK_VALUES))
    width = min(steps, max(TILE_STEPS, DRAW_VALUES // trials - WALK_VALUES))
    return min(trials, lanes), width


def _philox_tiles(first: int, steps: int, buffer: np.ndarray):
    """The first ``steps`` draws of the streams first, first + 1, ... as
    ``_philox_rows`` tiles of len(buffer) steps (the last may be shorter),
    each made into the (width, streams) ``buffer`` just before it is walked.
    """
    for start in range(0, steps, len(buffer)):
        yield _philox_rows(first, start, buffer[:steps - start])


def _philox_seed(seed, trials: int) -> int:
    """``seed`` as an int, if the keys seed, ..., seed + trials - 1 of its
    trials are all Philox keys, nonnegative and below 2**128; else
    DomainError, raised before any draw is made."""
    seed = _count(seed, 0, "sim: seed must be nonnegative, got {!r}")
    if seed + trials > 2**128:
        raise DomainError(f"sim: Philox keys seed + t must be below 2**128, "
                          f"got seed {seed} with {trials} trial(s)")
    return seed


def _path(model: MarkovModel, steps: int, tiles) -> np.ndarray:
    """States X_0, ..., X_{steps - 1} of one trial whose draws come as
    (width, 1) tiles."""
    sp = _sampler(model)
    path = np.empty(steps, dtype=np.int64)
    for k, pos in enumerate(_walk(sp, 1, tiles)):
        path[k] = pos[0]
    return sp.state.take(path, out=path)


def sample_trajectory(model: MarkovModel, n: int, rng) -> np.ndarray:
    """Sample X_0, ..., X_n as state indices: X_0 ~ q, X_{k+1} ~ P(X_k, .).

    ``rng`` is a numpy Generator or an integer seed in [0, 2**128), the
    Philox key.
    Identical inputs give identical sequences.  A Generator's doubles must
    be multiples of 2**-53, as every numpy bit generator's are; otherwise
    this raises DomainError rather than sample them inexactly.
    """
    n = _count(n, 0, "sim: trajectory length must be >= 0, got {!r}")
    if isinstance(rng, np.random.Generator):
        tiles = (_exact_integers(rng.random(n + 1)).reshape(-1, 1),)
    else:
        seed = _philox_seed(rng, 1)
        width = _tiling(n + 1, 1)[1]
        tiles = _philox_tiles(seed, n + 1, np.empty((width, 1), np.uint64))
    return _path(model, n + 1, tiles)


_LOG_SQRT_2PI = 0.5 * math.log(2 * math.pi)


def _stirlerr(n: int) -> float:
    """log(n!) - log(sqrt(2 pi n) (n/e)**n) for an integer n >= 1."""
    if n <= 15:
        return (math.lgamma(n + 1.0) - (n + 0.5) * math.log(n) + n
                - _LOG_SQRT_2PI)
    nn = float(n) * n
    return (1 / 12 - (1 / 360 - (1 / 1260 - (1 / 1680 - 1 / (1188 * nn)) / nn)
                      / nn) / nn) / n


def _bd0(x: float, m: float) -> float:
    """x log(x/m) + m - x, by a series where x is near m (no cancellation)."""
    d = x - m
    if abs(d) >= 0.1 * (x + m):
        return x * math.log(x / m) - d
    v = d / (x + m)
    s, term, v2, j = d * v, 2 * x * v, v * v, 3
    while True:
        term *= v2
        nxt = s + term / j
        if nxt == s:
            return s
        s, j = nxt, j + 2


def _dbinom(k: int, n: int, p: float, q: float) -> float:
    """P(Bin(n, p) = k) with q = 1 - p passed separately, by Loader's
    saddle-point form: a sum of small terms, with no cancellation however
    large n is."""
    if k == n:
        return _dbinom(0, n, q, p)
    if k == 0:
        return math.exp(n * (math.log1p(-p) if p < q else math.log(q)))
    lc = (_stirlerr(n) - _stirlerr(k) - _stirlerr(n - k)
          - _bd0(k, n * p) - _bd0(n - k, n * q))
    return math.exp(lc) / math.sqrt(2 * math.pi * k * (n - k) / n)


def _binomial_tail(k: int, n: int, x: float, y: float):
    """P(Bin(n, x) >= k) with y = 1 - x passed separately, and its
    derivative in x, for an x below k/n: term k is then the largest, the
    terms fall from it with falling ratios, and the sum stops once the
    rest is below an ulp of it."""
    term = total = _dbinom(k, n, x, y)
    slope, odds = k / x * term, x / y
    for j in range(k, n):
        ratio = (n - j) / (j + 1) * odds
        term *= ratio
        total += term
        if term * ratio <= (1.0 - ratio) * total * 2**-53:
            break
    return total, slope


def _clopper_pearson_bound(k: int, n: int, tail: float, lower: bool):
    """The x with P(Bin(n, x) >= k) = tail (lower) or with
    P(Bin(n, x) <= k) = P(Bin(n, 1 - x) >= n - k) = tail, found in x
    itself (1 - a root in 1 - x would lose x's low digits) by Newton steps
    inside a bracket whose ends move by the tail's known monotonicity."""
    p = k / n
    lo, hi = (0.0, p) if lower else (p, 1.0)
    spread = 2 * math.sqrt((k + 1) * (n - k + 1) / n) / n
    x = max(p - spread, p / 2) if lower else min(p + spread, (1 + p) / 2)
    for _ in range(100):
        if lower:
            value, slope = _binomial_tail(k, n, x, 1.0 - x)
        else:
            value, slope = _binomial_tail(n - k, n, 1.0 - x, x)
            slope = -slope           # a tail in 1 - x falls as x rises
        if (value < tail) == lower:
            lo = x
        else:
            hi = x
        step = (tail - value) / slope if slope else math.inf
        if abs(step) <= 2**-50 * x:
            return x + step
        x += step
        if not lo < x < hi:
            x = 0.5 * (lo + hi)
            if not lo < x < hi:      # no double left inside the bracket
                return x
    raise ConvergenceError(f"sim: Clopper-Pearson bound for {k} of {n} "
                           "did not converge in 100 steps")


def _clopper_pearson(hits: int, trials: int, confidence: float):
    tail = (1.0 - confidence) / 2
    low = 0.0 if hits == 0 else _clopper_pearson_bound(
        hits, trials, tail, lower=True)
    high = 1.0 if hits == trials else _clopper_pearson_bound(
        hits, trials, tail, lower=False)
    return low, high


def empirical_tail(model: MarkovModel, n: int, mu: float, side: str,
                   trials: int, seed: int = 0) -> TailEstimate:
    """Estimate P((1/n) sum f(X_k) >= mu) (upper; <= for lower) by
    simulation.

    The event is closed: ties count as hits.  Trials are vectorized in
    chunks but each trial consumes exactly the stream of
    ``sample_trajectory(model, n, seed + t)``, so single trajectories can
    be replayed.  A chunk of at most lanes = 2034 trials makes its draws
    a tile of steps at a time, so a call holds at most
    lanes x (width + WALK_VALUES) 8-byte values for tiles of width draws
    (under 1 MB for 51-step trials), never more than the DRAW_VALUES
    budget (16 MB), whatever n x trials is.  The interval is an exact
    Clopper-Pearson 95% interval.  A NaN mu, which no mean reaches, raises
    DomainError, and so does a seed with a key seed + t of 2**128 or more,
    before any draw.
    """
    sign = _assumptions._sign(side)
    trials = _count(trials, 1, "sim: trials must be >= 1, got {!r}")
    n = _count(n, 1, "sim: n must be >= 1, got {!r}")
    seed = _philox_seed(seed, trials)
    mu = float(mu)
    if math.isnan(mu):
        raise DomainError("sim: mu must be a number, got nan")
    sp = _sampler(model)
    f_at = model.f[sp.state]
    chunk, width = _tiling(n + 1, trials)
    # one buffer serves every chunk: with a fresh one per chunk (the last
    # one smaller), glibc kept about one more buffer of freed memory
    # resident, and simulate_tail peaked at 73 MB instead of 59 MB
    buffer = np.empty((width, chunk), dtype=np.uint64)
    hits = 0
    for start in range(0, trials, chunk):
        block = min(chunk, trials - start)
        walk = _walk(sp, block,
                     _philox_tiles(seed + start, n + 1, buffer[:, :block]))
        next(walk)                 # X_0 adds nothing to the sum
        sums = np.zeros(block)
        for pos in walk:
            sums += f_at.take(pos)
        # negation is exact, so on the lower side this is sums / n <= mu
        hits += int(np.count_nonzero(sign * (sums / n) >= sign * mu))
    low, high = _clopper_pearson(hits, trials, CONFIDENCE)
    return TailEstimate(n=n, mu=mu, side=side, trials=trials,
                        hits=hits, p_hat=hits / trials, ci_low=low,
                        ci_high=high, seed=seed)


def _lambda_n_sweep(model: MarkovModel, theta: float, ns) -> list[float]:
    """Lambda_n for every n in ns from one prefix sweep of q' M^k 1."""
    D, m, errors = _family._weights(model.f, np.array([float(theta)]))
    if errors[0] is not None:
        raise errors[0]
    T, m = model.P * D, float(m[0])
    w = model.q.copy()
    log_scale = 0.0
    want, found = set(ns), {}
    for k in range(1, max(want, default=0) + 1):
        w = w @ T
        s = float(w.max())
        log_scale += math.log(s)
        w /= s
        if k in want:
            # divided before m is added: k * m alone can overflow
            found[k] = (log_scale + math.log(float(w.sum()))) / k + m
    return [found[n] for n in ns]


def lambda_n_exact(model: MarkovModel, theta: float, n: int) -> float:
    """(1/n) log E_q exp(theta * sum_{k=1}^n f(X_k)), computed exactly.

    Uses q' M^n 1 for the shifted tilted matrix M, rescaling by the sup
    norm each step and accumulating the scale in log space.  A theta that
    is not finite, or whose theta*f overflows, raises DomainError.
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
