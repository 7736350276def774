"""Trajectory sampling, empirical tails, and the exact finite-n growth rate.

Randomness comes from numpy's counter-based Philox generator, which has a
stable published algorithm, so seeded runs reproduce across platforms.
Trial t of a simulation uses its own stream keyed by (seed + t); the hit
count is an associative reduction over trials, so results are identical
under any chunking or parallel schedule.  Philox is counter-based (Salmon,
Moraes, Dror and Shaw, "Parallel random numbers: as easy as 1, 2, 3",
2011): draw k of a stream is addressed by its key and the counter k // 4.
So trials are walked in equal chunks, one lane per trial, and a chunk
walks its steps a tile at a time: each tile's words are made into one
reused (lanes, width) buffer just before the walk reads them, each
trial's ``random_raw(width)`` written into its own contiguous row.  A
chunk holds at most lanes = DRAW_VALUES // (TILE_STEPS + WALK_VALUES)
trials (2004), and a call makes ceil(trials / lanes) chunks whose sizes
differ by one trial at most, so no small remainder chunk pays the full
per-step cost.  A call holds at most lanes x (width + WALK_VALUES)
8-byte values for tiles of width draws (1.2 MB for 51-step trials),
never more than DRAW_VALUES, whatever n x trials is.

State sampling is inverse-CDF over the stored row order: the next state
is the number of cumulative row weights at or below the uniform draw u,
clipped to the last state.  Draws are handled as the integers
m = u * 2**53 (numpy's doubles are multiples of 2**-53, so this is
exact; Philox words w are read as m = w >> 11 directly), and each
cumulative weight c as ceil(c * 2**53), so ``u >= c`` is the exact
integer test ``m >= ceil(c * 2**53)``.  A guide table per row (Chen and
Asau, 1974; Devroye, 1986, sec. III.2.4) splits the draws into 8S to
16S buckets by the top bits of m, fewer where the tables would hold more
than GUIDE_ENTRIES values.  Each bucket holds ``slots`` outcome slots,
one more than the most distinct boundaries inside one bucket of any
row: the outcome below the first such boundary, below the second, and
so on, each slot with the boundary that ends it, the outcome's f and
where the outcome's own row starts, and a bucket's slots stored as one
block, so that a step's lookups share a cache line.  So a step is one
bucket lookup, slots - 1 threshold tests that move the slot on by one each
(the boundaries rise within a bucket, so a failed test leaves it in
place), one f gather and one jump to the next row, with the same states
as a full comparison against the row.
The walk shifts a tile's words to draws GROUP_STEPS = 8 steps at a
time, in one transposing pass, so each step reads a contiguous vector
of draws, and one more pass gives them their bucket offsets.  At
slots = 2 a step is 7 numpy calls, 3 of them gathers.

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
GROUP_STEPS = 8            # steps per transposing pass over a tile
WALK_VALUES = 22           # per-trial 8-byte values of the walk: a group's
                           # draws and bucket offsets (2 x GROUP_STEPS),
                           # two slot vectors, the sum, the comparison, and
                           # the threshold and f gathers
GUIDE_ENTRIES = 2**22      # 8-byte outcome-table values per model, at
                           # most, unless one bucket per row needs more

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
    """Outcome tables for integer draws m in [0, 2**53).

    Rows 0..S-1 are the rows of P and row S is the initial law q.  Each
    row has B = 2**(53 - shift) guide buckets, and each bucket ``slots``
    outcome slots: slot j is the outcome of the bucket's draws at or above
    its j-th distinct boundary (slot 0: at or above its start).  A bucket
    is one block of 3 x slots values in ``table``, so that one step's three
    lookups share a cache line: its slots' thresholds (the boundary that
    ends the slot, or _NEVER), their next-row starts (the outcome row's G
    at bucket 0) and their f values (as int64 bits; 0 in q's row, since
    X_0 adds nothing).  Slot j of bucket b of row r is at G = 3 * slots *
    (r * B + b) + j, with its values at ``table[G]``, ``table[G + slots]``
    and ``table[G + 2 * slots]``.
    """

    shift: int             # the guide bucket of draw m is m >> shift
    slots: int             # slots per bucket: most boundaries inside one, + 1
    table: np.ndarray      # int64 blocks, 3 x slots values per bucket
    row: int               # 3 * slots * B, the values of one row
    first: int             # row * S, where q's row starts


def _build_sampler(model: MarkovModel) -> _Sampler:
    S = model.n_states
    cum = np.cumsum(np.vstack([model.P, model.q]), axis=1)
    # u >= c  <=>  m >= ceil(c * 2**53); the sentinel stops the walk at S-1
    bound = np.ceil(cum * float(_UNIT)).astype(np.int64)
    bound[:, -1] = _NEVER
    # each row's distinct boundaries below 2**53 (the rows are sorted),
    # row-major, so (row, bucket) keys of them come sorted too
    fresh = np.empty(bound.shape, dtype=bool)
    fresh[:, 0] = True
    np.not_equal(bound[:, 1:], bound[:, :-1], out=fresh[:, 1:])
    fresh &= bound < _UNIT
    rows, cuts = np.nonzero(fresh)[0], bound[fresh]

    def slots_at(bits: int) -> int:
        """1 + the most distinct boundaries strictly inside one bucket."""
        shift = 53 - bits
        inside = (cuts & ((1 << shift) - 1)) != 0
        key = (rows[inside] << bits) | (cuts[inside] >> shift)
        runs = np.flatnonzero(np.diff(key, prepend=-1, append=-1))
        return 1 + int(np.diff(runs).max(initial=0))

    # B = 2**bits buckets per row: 8S to 16S, fewer while the tables
    # would exceed GUIDE_ENTRIES values; one bucket per row holds at most
    # 3 * S * (S + 1), as slots <= S
    bits = max(0, min(math.ceil(math.log2(8 * S)),
                      (GUIDE_ENTRIES // (3 * (S + 1))).bit_length() - 1))
    slots = slots_at(bits)
    while bits and 3 * slots * (S + 1) << bits > GUIDE_ENTRIES:
        bits -= 1
        slots = slots_at(bits)
    shift = 53 - bits
    starts = np.arange(1 << bits, dtype=np.int64) << shift
    ends = starts + (1 << shift)
    # pos: each bucket start's outcome, the number of bounds at or below
    # it; later: the first column whose bound exceeds a column's bound
    pos = np.empty((S + 1, 1 << bits), dtype=np.int64)
    later = np.empty((S + 1, S), dtype=np.int64)
    for r, cut in enumerate(bound):
        pos[r] = np.searchsorted(cut, starts, side="right")
        later[r] = np.searchsorted(cut, cut, side="right")
    row = 3 * slots << bits
    table = np.empty((S + 1, 1 << bits, 3, slots), dtype=np.int64)
    fv = table[:, :, 2].view(np.float64)
    # slot by slot: each bucket's outcome past its j-th boundary and the
    # boundary after it
    for j in range(slots):
        at = np.take_along_axis(bound, pos, axis=1)
        inside = at < ends
        table[:, :, 0, j] = np.where(inside, at, _NEVER)
        table[:, :, 1, j] = pos * row
        fv[..., j] = model.f[pos]
        pos = np.where(inside, np.take_along_axis(later, pos, axis=1), pos)
    fv[S] = 0.0
    return _Sampler(shift=shift, slots=slots, table=table.ravel(), row=row,
                    first=S * row)


def _sampler(model: MarkovModel) -> _Sampler:
    return memo(model._derived, "sampler", lambda _: _build_sampler(model))


def _walk(sp: _Sampler, lanes: int, tiles, path=None) -> np.ndarray:
    """Sums f(X_1) + ... + f(X_n) of ``lanes`` trials whose raw 64-bit
    words come as ``tiles``: (lanes, width) uint64 arrays of consecutive
    steps, one row per trial.  With ``path``, a (steps, lanes) int64
    array, X_0, ..., X_n are written to it instead.

    GROUP_STEPS steps at a time, one pass shifts a tile's words to the
    integer draws m = word >> 11 in step-major order, so each step reads
    a contiguous row, and one more gives each draw its bucket's offset.
    A step then adds the offset to the slot G of its row's bucket 0,
    moves G on by one slot per boundary inside the bucket at or below the
    draw (slots - 1 tests; the thresholds rise within a bucket, so a
    failed test leaves G in place), adds f of the outcome and moves G to
    the outcome's row.  Slot G's three values are read through views of
    ``table`` at offsets 0, slots and 2 * slots, and a path's next-row
    starts, divided by ``row``, are its states.
    """
    thr, nxt = sp.table, sp.table[sp.slots:]
    fv, extra = sp.table[2 * sp.slots:].view(np.float64), sp.slots - 1
    G = np.full(lanes, sp.first, dtype=np.int64)
    sums = np.zeros(lanes)
    passed = np.empty(lanes, dtype=bool)
    draws = np.empty((GROUP_STEPS, lanes), dtype=np.int64)
    offsets = np.empty_like(draws)
    k = 0
    for tile in tiles:
        for r in range(0, tile.shape[1], GROUP_STEPS):
            words = tile[:, r:r + GROUP_STEPS].T
            group = draws[:len(words)]
            np.right_shift(words, 11, out=group.view(np.uint64))
            offset = np.right_shift(group, sp.shift, out=offsets[:len(words)])
            offset *= 3 * sp.slots
            for draw, step in zip(group, offset):
                G += step
                for _ in range(extra):
                    G += np.greater_equal(draw, thr.take(G), out=passed)
                if path is None:
                    sums += fv.take(G)
                    G = nxt.take(G)
                else:
                    G = path[k] = nxt.take(G)
                    k += 1
    if path is not None:
        np.floor_divide(path, sp.row, out=path)
    return sums


def _philox_rows(first: int, start: int, out: np.ndarray) -> np.ndarray:
    """Fill the (streams, count) uint64 array ``out`` and return it: row i
    is the words ``start`` to ``start + count - 1`` of
    ``Philox(key=first + i).random_raw()``, each row written contiguously.
    Word w gives the double (w >> 11) * 2**-53 of ``Generator.random()``.

    One Philox serves every row: its documented ``state`` dict is set to
    key words ((first + i) mod 2**64, (first + i) >> 64), counter words
    (start // 4, 0, 0, 0) and an empty buffer, the state
    ``Philox(key=first + i)`` is in after it has made its first start // 4
    blocks of four words, at a fraction of the cost of constructing one;
    the start % 4 words of the next block that precede ``start`` are
    dropped.  The dict holds lists, which the setter indexes in half the
    time it takes on the arrays the getter returns.  Building the Philox
    on the largest key lets numpy range-check the keys.
    """
    streams, count = out.shape
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
        out[i] = bitgen.random_raw(count)
    return out


def _tiling(steps: int, trials: int) -> tuple[int, int, int]:
    """(chunks, block, width): the number of chunks, the most trials in
    one and draws per tile for ``trials`` trials of ``steps`` draws.

    A chunk holds at most lanes = DRAW_VALUES // (TILE_STEPS + WALK_VALUES)
    (2004) trials, the chunk a tile of TILE_STEPS draws fills the budget
    with.  The walk's per-step numpy calls are already spread over that
    many lanes, so trials of few steps do not fill the budget with more of
    them: a call holds at most lanes x (width + WALK_VALUES) values
    (1.2 MB for 51-step trials).  The trials go into the fewest chunks
    this allows, ceil(trials / lanes), of equal size: chunk i holds trials
    trials * i // chunks up to trials * (i + 1) // chunks, block or
    block - 1 of them with block = ceil(trials / chunks), so 2000 trials
    are one chunk and 5000 are three of 1666 or 1667.

    A trial is one tile if it fits in its share of DRAW_VALUES or in
    TILE_STEPS.  A longer one is cut into tiles of at least TILE_STEPS
    draws, since a tile costs each trial about as much as 400 draws
    beyond its own (setting the state, a call and a copy: 1.6 us on a
    2-core Xeon).  Either way block * (width + WALK_VALUES) <= DRAW_VALUES
    unless lanes is 1, whose chunk of one trial may exceed a budget
    smaller than one tile.
    """
    lanes = max(1, DRAW_VALUES // (TILE_STEPS + WALK_VALUES))
    chunks = -(-trials // lanes)
    width = min(steps, max(TILE_STEPS, DRAW_VALUES // trials - WALK_VALUES))
    return chunks, -(-trials // chunks), width


def _philox_tiles(first: int, steps: int, buffer: np.ndarray):
    """The first ``steps`` words of the streams first, first + 1, ... as
    ``_philox_rows`` tiles of width steps (the last may be shorter), each
    made into the (streams, width) ``buffer`` just before it is walked.
    """
    width = buffer.shape[1]
    for start in range(0, steps, width):
        yield _philox_rows(first, start, buffer[:, :steps - start])


def _philox_seed(seed, trials: int) -> int:
    """``seed`` as an int, if the keys seed, ..., seed + trials - 1 of its
    trials are all Philox keys, nonnegative and below 2**128; else
    DomainError, raised before any draw is made."""
    seed = _count(seed, 0, "sim: seed must be nonnegative, got {!r}")
    if seed + trials > 2**128:
        raise DomainError(f"sim: Philox keys seed + t must be below 2**128, "
                          f"got seed {seed} with {trials} trial(s)")
    return seed


def sample_trajectory(model: MarkovModel, n: int, seed: int) -> np.ndarray:
    """Sample X_0, ..., X_n as state indices: X_0 ~ q, X_{k+1} ~ P(X_k, .),
    from the stream of the Philox key ``seed``, an integer in [0, 2**128);
    anything else raises DomainError.  This is the stream of trial 0 of
    ``empirical_tail(..., seed)``, so identical inputs give identical
    sequences.
    """
    n = _count(n, 0, "sim: trajectory length must be >= 0, got {!r}")
    seed = _philox_seed(seed, 1)
    buffer = np.empty((1, _tiling(n + 1, 1)[2]), dtype=np.uint64)
    path = np.empty((n + 1, 1), dtype=np.int64)
    _walk(_sampler(model), 1, _philox_tiles(seed, n + 1, buffer), path)
    return path.ravel()


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
    be replayed.  The trials are walked in ceil(trials / lanes) equal
    chunks of at most lanes = 2004 trials, and a chunk makes its draws a
    tile of steps at a time, so a call holds at most
    lanes x (width + WALK_VALUES) 8-byte values for tiles of width draws
    (1.2 MB for 51-step trials), never more than the DRAW_VALUES budget
    (16 MB), whatever n x trials is.  The interval is an exact
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
    chunks, block, width = _tiling(n + 1, trials)
    # one buffer serves every chunk: with a fresh one per chunk (the last
    # one smaller), glibc kept about one more buffer of freed memory
    # resident, and simulate_tail peaked at 73 MB instead of 59 MB
    buffer = np.empty((block, width), dtype=np.uint64)
    hits = 0
    for i in range(chunks):
        start, stop = trials * i // chunks, trials * (i + 1) // chunks
        lanes = stop - start
        sums = _walk(sp, lanes,
                     _philox_tiles(seed + start, n + 1, buffer[:lanes]))
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
        if not s > 0.0:
            raise DomainError(
                f"sim: theta={float(theta)!r} underflows the weights "
                "exp(theta*(f - max f)) of every path")
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
    is not finite, or whose theta*f overflows, raises DomainError, and so
    does one whose weights exp(theta*(f - max f)) underflow on every path.
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
