"""Independent reference computations for the benchmark's correctness gates.

Nothing here imports chainbounds: every value is recomputed from the raw
(P, f, q) arrays with dense linear algebra, so a gate compares two
unrelated routes to the same number.  scipy is imported inside the
functions that use it: the setup probes import this module, and setup_s
must not pay for the oracles' imports.
"""

import math

import numpy as np

# Philox4x64-10 constants (Salmon et al., SC'11), as numpy's Philox uses them
_M0, _M1 = np.uint64(0xD2E7470EE14C6C93), np.uint64(0xCA5A826395121157)
_W0, _W1 = np.uint64(0x9E3779B97F4A7C15), np.uint64(0xBB67AE8584CAA73B)
_LO32, _32 = np.uint64(0xFFFFFFFF), np.uint64(32)


def log_spectral_radius(P, f, theta):
    """Lambda(theta) = log max|eig(P diag(exp(theta f)))|, overflow-safe."""
    expo = theta * f
    m = float(expo.max())
    M = P * np.exp(expo - m)[None, :]
    return m + math.log(float(np.abs(np.linalg.eigvals(M)).max()))


def legendre_rate(P, f, mu, side):
    """sup_theta {theta mu - Lambda(theta)} over the side's half-line.

    Brent maximization of the concave objective on a bracket that is
    widened until the objective turns down at its far end.
    """
    from scipy.optimize import minimize_scalar

    sign = 1.0 if side == "upper" else -1.0

    def neg(t):
        theta = sign * t
        return -(theta * mu - log_spectral_radius(P, f, theta))

    hi = 1.0
    while neg(hi) < neg(hi / 2) and hi < 1e4:
        hi *= 2.0
    res = minimize_scalar(neg, bounds=(0.0, hi), method="bounded",
                          options={"xatol": 1e-9})
    return max(0.0, -float(res.fun))


def boundary_rate(P, f, side):
    """-log rho of P restricted to the columns of the argmax (argmin) of f."""
    target = f.max() if side == "upper" else f.min()
    M = np.where((f == target)[None, :], P, 0.0)
    return -math.log(float(np.abs(np.linalg.eigvals(M)).max()))


def stationary_mean(P, f):
    w, V = np.linalg.eig(P.T)
    pi = np.abs(V[:, int(np.argmax(w.real))].real)
    return float(pi @ f / pi.sum())


def lambda_n(P, f, q, theta, n):
    """(1/n) log E_q exp(theta sum_{k=1..n} f(X_k)) by n rescaled products."""
    expo = theta * f
    m = float(expo.max())
    T = P * np.exp(expo - m)[None, :]
    w = np.array(q, dtype=np.float64)
    log_scale = 0.0
    for _ in range(n):
        w = w @ T
        s = float(w.max())
        log_scale += math.log(s)
        w = w / s
    return (log_scale + math.log(float(w.sum())) + n * m) / n


def _mulhilo(a, b):
    """High and low 64-bit words of the 128-bit products a * b."""
    a_lo, a_hi = a & _LO32, a >> _32
    b_lo, b_hi = b & _LO32, b >> _32
    ll, hl, lh = a_lo * b_lo, a_hi * b_lo, a_lo * b_hi
    mid = (ll >> _32) + (hl & _LO32) + lh
    return a_hi * b_hi + (hl >> _32) + (mid >> _32), a * b


def philox_uniforms(keys, count):
    """The first ``count`` values of
    ``np.random.Generator(np.random.Philox(key=k)).random()`` for each key.

    Philox4x64-10 evaluated for all keys and counters at once: block j of
    key k encrypts the counter (j+1, 0, 0, 0) under the key (k, 0); the
    four words of each block, shifted right by 11 bits and scaled by
    2**-53, are the next four doubles.
    """
    blocks = -(-count // 4)
    k0 = np.asarray(keys, dtype=np.uint64)[:, None]
    k1 = np.zeros(1, dtype=np.uint64)
    c0 = np.broadcast_to(np.arange(1, blocks + 1, dtype=np.uint64),
                         (k0.shape[0], blocks))
    c1 = c2 = c3 = np.zeros_like(c0)
    for r in range(10):
        if r:
            k0, k1 = k0 + _W0, k1 + _W1
        hi0, lo0 = _mulhilo(_M0, c0)
        hi1, lo1 = _mulhilo(_M1, c2)
        c0, c1, c2, c3 = hi1 ^ c1 ^ k0, lo1, hi0 ^ c3 ^ k1, lo0
    words = np.stack([c0, c1, c2, c3], axis=-1).reshape(k0.shape[0], -1)
    return (words[:, :count] >> np.uint64(11)) * 2.0 ** -53


def replay_paths(P, q, n, keys):
    """States X_0..X_n of the trajectories driven by Philox(key=k), k in keys.

    Each trial draws n+1 uniforms; state k is the smallest index whose
    cumulative row weight exceeds draw k (inverse CDF in row order).
    """
    draws = philox_uniforms(keys, n + 1)
    cum_q = np.cumsum(q)
    cum_P = np.cumsum(P, axis=1)
    last = len(q) - 1
    paths = np.empty((len(draws), n + 1), dtype=np.int64)
    paths[:, 0] = np.minimum((draws[:, 0, None] >= cum_q[None, :]).sum(axis=1), last)
    for k in range(1, n + 1):
        paths[:, k] = np.minimum(
            (draws[:, k, None] >= cum_P[paths[:, k - 1]]).sum(axis=1), last)
    return paths


def replay_hits(P, f, q, n, mu, side, trials, seed):
    """Tail hits of trials 0..trials-1, trial t driven by Philox(key=seed+t)."""
    hits = 0
    step = max(1, 1_000_000 // (n + 1))
    for t0 in range(0, trials, step):
        keys = np.arange(seed + t0, seed + min(trials, t0 + step), dtype=np.uint64)
        states = replay_paths(P, q, n, keys)[:, 1:]
        sums = np.zeros(len(keys))
        for k in range(n):
            sums += f[states[:, k]]
        means = sums / n
        hit = means >= mu if side == "upper" else means <= mu
        hits += int(np.count_nonzero(hit))
    return hits


def clopper_pearson(hits, trials, confidence=0.95):
    from scipy.stats import beta

    alpha = 1.0 - confidence
    low = 0.0 if hits == 0 else float(beta.ppf(alpha / 2, hits, trials - hits + 1))
    high = 1.0 if hits == trials else float(
        beta.ppf(1 - alpha / 2, hits + 1, trials - hits))
    return low, high
