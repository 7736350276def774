"""Independent oracles the tests check the library against.

Everything here is deliberately computed by a different route than the
library uses: closed forms, characteristic polynomials, brute-force path
enumeration, a dynamic program over the sums of a lattice observable,
inverse-CDF replays by plain comparison against each row,
binomial tails summed in exact rational arithmetic, and second differences
of characteristic-polynomial roots in 90-digit decimal arithmetic.
None of it imports chainbounds.
"""

import decimal
import itertools
import math
from decimal import Decimal
from fractions import Fraction

import numpy as np


def two_state_tilted_rho(p: float, q: float, theta: float) -> float:
    """Largest root of the tilted 2-state characteristic polynomial.

    For P = ((1-p, p), (q, 1-q)) with f = (0, 1), the tilted matrix has
    char poly  lam^2 - ((1-p) + (1-q)e^t) lam + ((1-p)(1-q) - pq) e^t.
    """
    et = math.exp(theta)
    b = (1.0 - p) + (1.0 - q) * et
    c = ((1.0 - p) * (1.0 - q) - p * q) * et
    return (b + math.sqrt(b * b - 4.0 * c)) / 2.0


def chain_no_selfloop_rho(theta: float) -> float:
    """Spectral radius of the tilted chain P = ((1/2, 1/2), (1, 0)),
    f = (-1, 1): (1 + sqrt(1 + 8 e^{2 theta})) e^{-theta} / 4."""
    return (1.0 + math.sqrt(1.0 + 8.0 * math.exp(2.0 * theta))) \
        * math.exp(-theta) / 4.0


def two_cycle_right_eigvec(theta: float) -> np.ndarray:
    """Normalized right eigenvector for the tilted two-cycle with f = (-1, 1):
    v = ((1+e^t)/2, (1+e^-t)/2) under sum(u)=1, sum(u*v)=1."""
    return np.array([(1.0 + math.exp(theta)) / 2.0,
                     (1.0 + math.exp(-theta)) / 2.0])


def bernoulli_rate(mu: float, p: float) -> float:
    """Classical Chernoff rate for IID Bernoulli(p) means."""
    if mu <= 0.0 or mu >= 1.0:
        if mu in (0.0, 1.0):
            q = p if mu == 1.0 else 1.0 - p
            return -math.log(q)
        return math.inf
    return mu * math.log(mu / p) + (1.0 - mu) * math.log((1.0 - mu) / (1.0 - p))


def charpoly_spectral_radius(M: np.ndarray) -> float:
    """Spectral radius via Faddeev-LeVerrier coefficients and np.roots."""
    M = np.asarray(M, dtype=np.float64)
    s = M.shape[0]
    coeffs = np.zeros(s + 1)
    coeffs[0] = 1.0
    N = np.zeros_like(M)
    eye = np.eye(s)
    for k in range(1, s + 1):
        N = M @ N + coeffs[k - 1] * eye
        coeffs[k] = -np.trace(M @ N) / k
    return float(np.abs(np.roots(coeffs)).max())


def enumerate_paths(model, n: int):
    """Yield (probability, [f-sum over steps 1..n]) over all length-n paths."""
    s = len(model.states)
    P, f, q = model.P, model.f, model.q
    for path in itertools.product(range(s), repeat=n + 1):
        prob = q[path[0]]
        for a, b in zip(path, path[1:]):
            prob *= P[a, b]
            if prob == 0.0:
                break
        if prob == 0.0:
            continue
        yield prob, sum(f[x] for x in path[1:])


def exact_tail_probability(model, n: int, mu: float, side: str) -> float:
    """P((1/n) sum f(X_k) >= mu) (closed event) by full path enumeration."""
    total = 0.0
    for prob, ssum in enumerate_paths(model, n):
        mean = ssum / n
        if (side == "upper" and mean >= mu) or (side == "lower" and mean <= mu):
            total += prob
    return total


def lattice_tail(model, n: int, h: float, k, side: str, theta=0.0,
                 log: bool = False) -> np.ndarray:
    """P_q(S_n >= k) (upper) or P_q(S_n <= k) (lower) at each integer of
    ``k``, or its natural log with ``log``, where S_n is the sum of the
    integer labels round(h f(X_j)) over j = 1..n, so {S_n >= k} is the
    closed event {sum f(X_j) / n >= mu} at mu = k / (h n).

    A dynamic program over (state, partial sum) carries the joint law
    forward one step at a time, every entry a sum of nonnegative products,
    so it is exact up to a relative rounding of about n S ulps.  Each k
    has its own run, with the mass at sum s weighted by exp(theta s) for
    its entry of ``theta`` (a tilt per unit of the labels) and the weight
    taken out at the end; the law is rescaled by its largest entry every
    step.  The tail does not depend on theta, but tails far below 1e-308
    keep their digits only where theta centres the weighted law near k,
    as the tilt of mean k / (h n) does.  Raises ValueError if h f is not
    integral."""
    f = np.asarray(model.f, dtype=np.float64)
    labels = np.rint(h * f).astype(np.int64)
    if np.abs(labels - h * f).max() > 1e-9:
        raise ValueError(f"f is not on the lattice Z / {h}")
    low = int(labels.min())
    shift = labels - low                     # S_n - n low sums these
    k, theta = np.broadcast_arrays(np.asarray(k, dtype=np.int64),
                                   np.asarray(theta, dtype=np.float64))
    theta = theta.ravel()
    # M[t, x, y] = P(x, y) exp(theta_t shift(y)), shifted by its maximum
    expo = np.multiply.outer(theta, shift)
    expo -= expo.max(axis=1, keepdims=True)
    M = np.asarray(model.P, dtype=np.float64)[None] * np.exp(expo)[:, None, :]
    law = np.repeat(np.asarray(model.q, dtype=np.float64)[None, :, None],
                    theta.size, axis=0)      # [t, state, sum]
    log_scale = np.zeros(theta.size)
    for _ in range(n):
        moved = np.matmul(M.transpose(0, 2, 1), law)   # into y from sum s
        law = np.zeros(moved.shape[:2] + (moved.shape[2] + int(shift.max()),))
        for y, d in enumerate(shift.tolist()):
            law[:, y, d:d + moved.shape[2]] = moved[:, y]
        top = law.max(axis=(1, 2))
        law /= top[:, None, None]
        log_scale += np.log(top)
    # log P(S_n = n low + j) = log pmf[t, j] - theta_t j + log_scale[t]
    # + n max(theta_t shift), up to the shift removed from expo
    j = np.arange(law.shape[2])
    with np.errstate(divide="ignore"):
        terms = (np.log(law.sum(axis=1)) - np.multiply.outer(theta, j)
                 + (log_scale + n * np.maximum(theta * shift.max(),
                                               theta * shift.min()))[:, None])
    out = np.empty(theta.size)
    for t, first in enumerate((k.ravel() - n * low).tolist()):
        part = terms[t, max(first, 0):] if side == "upper" \
            else terms[t, :max(first + 1, 0)]
        top = part.max(initial=-np.inf)
        # each tail summed after the shift by its largest term
        out[t] = top + np.log(np.exp(part - top).sum()) if top > -np.inf \
            else -np.inf
    out = out.reshape(k.shape)
    return out if log else np.exp(out)


def exact_scaled_log_mgf(model, theta: float, n: int) -> float:
    """(1/n) log E exp(theta * sum f(X_k)) by full path enumeration."""
    total = 0.0
    for prob, ssum in enumerate_paths(model, n):
        total += prob * math.exp(theta * ssum)
    return math.log(total) / n


def _tilted_perron(P, f, theta):
    """(rho, u, v) of the shifted tilted matrix by dense eigendecomposition,
    with sum(u) = 1 and u.v = 1."""
    expo = theta * np.asarray(f, dtype=np.float64)
    M = np.asarray(P, dtype=np.float64) * np.exp(expo - expo.max())[None, :]
    w, V = np.linalg.eig(M)
    k = int(np.argmax(w.real))
    v = np.abs(V[:, k].real)
    wl, U = np.linalg.eig(M.T)
    u = np.abs(U[:, int(np.argmax(wl.real))].real)
    u /= u.sum()
    return float(w[k].real), u, v / float(u @ v)


def ratio_derivative_fd(P, f, theta: float, h: float) -> np.ndarray:
    """Central difference at step h of the right Perron vector ratios
    v(y)/v(x), entry [x, y], of P diag(exp(theta f))."""
    def ratios(t):
        v = _tilted_perron(P, f, t)[2]
        return v[None, :] / v[:, None]
    return (ratios(theta + h) - ratios(theta - h)) / (2.0 * h)


def _tilted_chain(P, f, theta):
    """(pi_theta, P_theta, v) of the tilted chain by ``_tilted_perron``:
    its stationary law u * v, its matrix P diag(e^{theta f}) v(y) / (rho
    v(x)) and the right Perron vector v."""
    rho, u, v = _tilted_perron(P, f, theta)
    expo = theta * np.asarray(f, dtype=np.float64)
    M = np.asarray(P, dtype=np.float64) * np.exp(expo - expo.max())[None, :]
    return u * v, M * v[None, :] / (rho * v[:, None]), v


def lambda_second_pair_variance(P, f, theta: float, h: float) -> float:
    """Lambda''(theta) as the variance of f(y) + d/dtheta log(v(y)/v(x))
    under the stationary pair law pi_theta(x) P_theta(x, y), with the ratio
    derivative by central differences at step h."""
    pi, P_theta, v = _tilted_chain(P, f, theta)
    g = np.asarray(f)[None, :] + ratio_derivative_fd(P, f, theta, h) \
        * v[:, None] / v[None, :]
    weights = pi[:, None] * P_theta
    mean = float((weights * g).sum())
    return float((weights * (g - mean) ** 2).sum())


def _decimal_log_rho(P, expo) -> Decimal:
    """log of the largest root of det(lam I - M), M = P diag(exp(expo)),
    in the current decimal context: Faddeev-LeVerrier coefficients, then
    Newton's method from the greatest row sum of M, an upper bound of the
    root from which every derivative of the polynomial is positive."""
    d = [e.exp() for e in expo]
    M = [[Decimal(float(p)) * dy for p, dy in zip(row, d)] for row in P]
    s = len(M)
    coeffs = [Decimal(1)]
    N = [[Decimal(0)] * s for _ in range(s)]
    for k in range(1, s + 1):
        N = [[sum(M[i][j] * N[j][c] for j in range(s))
              + (coeffs[-1] if i == c else 0) for c in range(s)]
             for i in range(s)]
        trace = sum(M[i][j] * N[j][i] for i in range(s) for j in range(s))
        coeffs.append(-trace / k)
    lam = max(sum(row) for row in M)
    for _ in range(1000):
        p, dp = Decimal(0), Decimal(0)
        for c in coeffs:
            p, dp = p * lam + c, dp * lam + p
        step = p / dp
        lam -= step
        if abs(step) <= lam.scaleb(-85):
            return lam.ln()
    raise ArithmeticError("Newton's method did not converge")


def lambda_second_decimal(P, f, theta: float) -> float:
    """Lambda''(theta) as the central second difference at h = 1e-20 of log
    rho(P diag(exp(theta f))), each log rho by ``_decimal_log_rho`` at 90
    digits; the shift m = max theta f is shared by the three tilts, so it
    cancels from the difference."""
    with decimal.localcontext() as ctx:
        ctx.prec = 90
        fs = [Decimal(float(x)) for x in f]
        t, h = Decimal(float(theta)), Decimal("1e-20")
        m = max(t * x for x in fs)
        lo, mid, hi = (_decimal_log_rho(P, [s * x - m for x in fs])
                       for s in (t - h, t, t + h))
        return float((hi - 2 * mid + lo) / (h * h))


def kl_rate_direct(P, f, theta1: float, theta2: float) -> float:
    """Relative entropy rate of the tilted chain at theta1 from the one at
    theta2 by direct summation over the transitions of P,
    sum pi_1(x) P_1(x, y) log(P_1(x, y) / P_2(x, y)), with both chains from
    dense eigendecompositions (``_tilted_chain``)."""
    pi1, P1, _ = _tilted_chain(P, f, theta1)
    P2 = _tilted_chain(P, f, theta2)[1]
    mask = np.asarray(P) > 0.0
    w = (pi1[:, None] * P1)[mask]
    return float((w * (np.log(P1[mask]) - np.log(P2[mask]))).sum())


def simple_cycle_means(P, f) -> tuple[float, float]:
    """(least, greatest) mean of f over the states of a simple cycle of the
    graph P > 0, by enumerating every simple cycle: each cycle is walked
    from its smallest state through larger ones only, by depth-first
    search.  Self-loops count as cycles of length one."""
    adj = np.asarray(P) > 0.0
    f = [float(x) for x in f]
    means = []

    def extend(start, path, total):
        for y in np.flatnonzero(adj[path[-1]]).tolist():
            if y == start:
                means.append(total / len(path))
            elif y > start and y not in path:
                extend(start, path + [y], total + f[y])

    for start in range(len(f)):
        extend(start, [start], f[start])
    return min(means), max(means)


def inverse_cdf_path(P, q, u) -> np.ndarray:
    """States X_0..X_n driven by the uniforms u[0..n]: X_0 from q, X_k from
    row X_{k-1} of P, each the number of cumulative weights at or below its
    draw, clipped to the last state (a plain comparison against the row)."""
    cum_q = np.cumsum(np.asarray(q, dtype=np.float64))
    cum_P = np.cumsum(np.asarray(P, dtype=np.float64), axis=1)
    last = len(cum_q) - 1
    path = [min(int((u[0] >= cum_q).sum()), last)]
    for x in u[1:]:
        path.append(min(int((x >= cum_P[path[-1]]).sum()), last))
    return np.array(path, dtype=np.int64)


def replay_tail_hits(model, n: int, mu: float, side: str, trials: int,
                     seed: int) -> int:
    """Tail hits of trials 0..trials-1, trial t driven by the uniforms of
    Generator(Philox(key=seed + t)), with each trial's sum accumulated
    step by step."""
    hits = 0
    for t in range(trials):
        u = np.random.Generator(np.random.Philox(key=seed + t)).random(n + 1)
        total = 0.0
        for x in inverse_cdf_path(model.P, model.q, u)[1:]:
            total += model.f[x]
        mean = total / n
        hits += mean >= mu if side == "upper" else mean <= mu
    return int(hits)


def binomial_tail_exact(n: int, k: int, x: float, at_least: bool) -> Fraction:
    """P(Bin(n, x) >= k) if at_least, else P(Bin(n, x) <= k), in exact
    rational arithmetic on the rational value of the double x."""
    a, d = x.as_integer_ratio()
    js = range(k, n + 1) if at_least else range(k + 1)
    return Fraction(sum(math.comb(n, j) * a**j * (d - a)**(n - j)
                        for j in js), d**n)
