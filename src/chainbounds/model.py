"""Finite-state Markov models and the graph predicates everything else uses.

A model is the triple (P, f, q) over a labeled finite state space: a row
stochastic transition matrix P, a real observable f per state, and an
initial distribution q.  Models are immutable after construction and are
validated eagerly, so downstream numerics can trust their invariants.

Model files are YAML documents (JSON is accepted too) with keys

    states: list of state labels
    P:      list of rows, each a list of transition probabilities
    f:      list of reals, one per state
    q:      optional list of reals (default: uniform)

Values are read as 64-bit floats; bit-exact round-trips of decimal
literals are not promised.

Results derived from a model (its assumption report, tilted family,
limit-matrix triples, bound constants and sampling tables) are memoized
on the model itself through ``memo``, so they are freed together with it.
"""

import threading
from dataclasses import dataclass, field

import numpy as np
import yaml

from .errors import ModelFormatError

SUM_TOL = 1e-12    # on |sum - 1| of each row of P and of q

__all__ = [
    "MarkovModel",
    "LevelSets",
    "load_model",
    "parse_model",
    "is_irreducible",
    "level_sets",
]

_MEMO_LOCK = threading.Lock()


def memo(cache: dict, key, compute):
    """``cache[key]``, filled by ``compute(key)`` on a miss.

    The lock guards only the lookup and the publication, so ``compute``
    may itself memoize; concurrent misses may compute twice, but every
    caller gets the first value published.
    """
    with _MEMO_LOCK:
        hit = cache.get(key)
    if hit is None:
        hit = compute(key)
        with _MEMO_LOCK:
            hit = cache.setdefault(key, hit)
    return hit


def publish(cache: dict, values: dict) -> None:
    """Publish ``values`` into a ``memo`` cache under one acquisition of the
    lock; a key already there keeps its first value."""
    with _MEMO_LOCK:
        for key, value in values.items():
            cache.setdefault(key, value)


@dataclass(frozen=True, eq=False)
class MarkovModel:
    """Validated finite-state Markov model: labels, P, f and q.

    Arrays are coerced to read-only float64 on construction.  Every row of
    P must sum to 1 within ``SUM_TOL`` (no silent renormalization: the
    bounds computed downstream are only as valid as the input chain).
    ``_derived`` holds the results memoized on this instance.
    """

    states: tuple[str, ...]
    P: np.ndarray
    f: np.ndarray
    q: np.ndarray
    _derived: dict = field(default_factory=dict, init=False, repr=False)

    def __post_init__(self):
        states = tuple(str(s) for s in self.states)
        P = _as_readonly(self.P, "P")
        f = _as_readonly(self.f, "f")
        q = _as_readonly(self.q, "q")
        n = len(states)
        if n < 1:
            raise ModelFormatError("model: at least one state is required")
        if P.ndim != 2 or P.shape != (n, n):
            raise ModelFormatError(
                f"model: P has shape {P.shape}, expected ({n}, {n})")
        if f.shape != (n,):
            raise ModelFormatError(
                f"model: f has length {f.shape}, expected {n}")
        if q.shape != (n,):
            raise ModelFormatError(
                f"model: q has length {q.shape}, expected {n}")
        bad = np.argwhere(P < 0.0)
        if bad.size:
            x, y = bad[0]
            raise ModelFormatError(
                f"model: P[{x}][{y}] = {P[x, y].item()!r} is negative")
        rows = P.sum(axis=1)
        off = np.abs(rows - 1.0)
        if off.max() > SUM_TOL:
            x = int(off.argmax())
            raise ModelFormatError(
                f"model: row {x} of P is not stochastic "
                f"(sums to {rows[x].item()!r}, tolerance {SUM_TOL})")
        if np.any(q < 0.0):
            x = int(np.flatnonzero(q < 0.0)[0])
            raise ModelFormatError(
                f"model: q[{x}] = {q[x].item()!r} is negative")
        if abs(q.sum() - 1.0) > SUM_TOL:
            raise ModelFormatError(
                f"model: q sums to {q.sum().item()!r}, not 1 "
                f"(tolerance {SUM_TOL})")
        object.__setattr__(self, "states", states)
        object.__setattr__(self, "P", P)
        object.__setattr__(self, "f", f)
        object.__setattr__(self, "q", q)

    @property
    def n_states(self) -> int:
        return len(self.states)

    def negated(self) -> "MarkovModel":
        """Same chain with the observable flipped (f -> -f).

        Lower-tail questions about f are upper-tail questions about -f.
        """
        return MarkovModel(self.states, self.P, -self.f, self.q)


@dataclass(frozen=True)
class LevelSets:
    """Extremes of the observable and the states attaining them.

    ``a``/``b`` are the minimum/maximum of f; ``S_a``/``S_b`` the index
    sets where they are attained, under exact comparison of the stored
    floats.  Ties must be encoded exactly in the model file; a tolerance
    here would silently change the sets the assumptions are about.
    """

    a: float
    b: float
    S_a: tuple[int, ...]
    S_b: tuple[int, ...]


def _as_readonly(arr, name: str) -> np.ndarray:
    try:
        out = np.array(arr, dtype=np.float64)
    except (TypeError, ValueError) as exc:
        raise ModelFormatError(f"model: {name} is not numeric: {exc}") from exc
    if not np.all(np.isfinite(out)):
        raise ModelFormatError(f"model: {name} contains non-finite entries")
    out.setflags(write=False)
    return out


def parse_model(text: str) -> MarkovModel:
    """Parse a model document from a string.  See the module docstring."""
    try:
        doc = yaml.safe_load(text)
    except yaml.YAMLError as exc:
        raise ModelFormatError(f"model: parse failure: {exc}") from exc
    if not isinstance(doc, dict):
        raise ModelFormatError("model: document must be a mapping")
    missing = [k for k in ("states", "P", "f") if k not in doc]
    if missing:
        raise ModelFormatError(f"model: missing keys: {', '.join(missing)}")
    unknown = [k for k in doc if k not in ("states", "P", "f", "q")]
    if unknown:
        raise ModelFormatError(f"model: unknown keys: {', '.join(unknown)}")
    states = doc["states"]
    if not isinstance(states, (list, tuple)) or not states:
        raise ModelFormatError("model: states must be a nonempty list")
    n = len(states)
    q = doc.get("q")
    if q is None:
        q = [1.0 / n] * n
    return MarkovModel(tuple(str(s) for s in states), doc["P"], doc["f"], q)


def _read(path) -> tuple[bytes, str]:
    """The bytes of a model file and their UTF-8 text, or ModelFormatError
    if the file cannot be read or decoded."""
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
        return raw, raw.decode("utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ModelFormatError(f"model: cannot read {path}: {exc}") from exc


def load_model(path) -> MarkovModel:
    """Load and validate a model file; labels keep their input order."""
    return parse_model(_read(path)[1])


def _reachable(adj: np.ndarray, start: int) -> np.ndarray:
    """Boolean vector of vertices reachable from ``start`` (incl. itself)."""
    n = adj.shape[0]
    seen = np.zeros(n, dtype=bool)
    seen[start] = True
    frontier = seen.copy()
    while frontier.any():
        nxt = adj[frontier].any(axis=0) & ~seen
        seen |= nxt
        frontier = nxt
    return seen


def is_irreducible(M: np.ndarray) -> bool:
    """True iff the positivity digraph of the square matrix M is strongly
    connected.

    Edge (x, y) exists whenever M[x, y] > 0.  A 1x1 matrix counts as
    irreducible only if its entry is positive (a lone state needs a
    self-loop to be recurrent under the matrix-power definition).
    """
    M = np.asarray(M, dtype=np.float64)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise ValueError("is_irreducible: matrix must be square")
    n = M.shape[0]
    if n == 1:
        return bool(M[0, 0] > 0.0)
    adj = M > 0.0
    return bool(_reachable(adj, 0).all() and _reachable(adj.T, 0).all())


def level_sets(model: MarkovModel) -> LevelSets:
    """Exact argmin/argmax sets of the observable f."""
    f = model.f
    a = float(f.min())
    b = float(f.max())
    S_a = tuple(int(i) for i in np.flatnonzero(f == a))
    S_b = tuple(int(i) for i in np.flatnonzero(f == b))
    return LevelSets(a=a, b=b, S_a=S_a, S_b=S_b)
