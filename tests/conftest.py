import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))

from chainbounds import MarkovModel


def two_state(p: float = 0.3, q: float = 0.3) -> MarkovModel:
    """P = ((1-p, p), (q, 1-q)) with f = (0, 1)."""
    return MarkovModel(("0", "1"), [[1 - p, p], [q, 1 - q]],
                       [0.0, 1.0], [0.5, 0.5])


def two_cycle() -> MarkovModel:
    """Deterministic swap chain with f(x) = x on states {-1, +1}.

    The family it generates is degenerate: every tilt returns the chain.
    """
    return MarkovModel(("-1", "1"), [[0.0, 1.0], [1.0, 0.0]],
                       [-1.0, 1.0], [0.5, 0.5])


def no_selfloop_top() -> MarkovModel:
    """P(x, .) uniform from -1, forced back from +1; f(x) = x.

    The f-argmax state has no self-loop, so the upper-tail block
    assumption fails and eigenvector ratios diverge with the tilt.
    """
    return MarkovModel(("-1", "1"), [[0.5, 0.5], [1.0, 0.0]],
                       [-1.0, 1.0], [0.5, 0.5])


def birth_death() -> MarkovModel:
    """Three-state birth-death chain P(x, y) = 1{x+y != 0}/2, f(x) = -x.

    State +1 cannot reach the f-argmax state -1 in one step, so the
    one-step reach assumption fails on the upper side.
    """
    P = [[0.5, 0.5, 0.0],
         [0.5, 0.0, 0.5],
         [0.0, 0.5, 0.5]]
    return MarkovModel(("-1", "0", "1"), P, [1.0, 0.0, -1.0],
                       [1 / 3, 1 / 3, 1 / 3])


def iid_model(p: float = 0.3) -> MarkovModel:
    """Identical rows: an IID Bernoulli(p) sequence seen through f = (0, 1)."""
    return MarkovModel(("0", "1"), [[1 - p, p], [1 - p, p]],
                       [0.0, 1.0], [0.5, 0.5])


def random_positive_model(rng: np.random.Generator, n_states: int,
                          f_span=(-1.0, 1.0)) -> MarkovModel:
    """Entrywise positive chain with a generic observable.

    Positivity makes all four assumptions hold for any f.
    """
    P = rng.uniform(0.1, 1.0, (n_states, n_states))
    P /= P.sum(axis=1, keepdims=True)
    f = rng.uniform(*f_span, n_states)
    q = rng.uniform(0.1, 1.0, n_states)
    q /= q.sum()
    labels = tuple(f"s{i}" for i in range(n_states))
    return MarkovModel(labels, P, f, q)


def random_irreducible_model(rng: np.random.Generator,
                             n_states: int) -> MarkovModel:
    """Sparse-ish irreducible chain: a cycle plus random extra edges."""
    P = np.zeros((n_states, n_states))
    for i in range(n_states):
        P[i, (i + 1) % n_states] = rng.uniform(0.2, 1.0)
        extras = rng.integers(0, n_states, size=2)
        for j in extras:
            P[i, j] += rng.uniform(0.0, 1.0)
    P /= P.sum(axis=1, keepdims=True)
    f = rng.uniform(-1.0, 1.0, n_states)
    q = np.full(n_states, 1.0 / n_states)
    labels = tuple(f"s{i}" for i in range(n_states))
    return MarkovModel(labels, P, f, q)


def spike(eps: float) -> MarkovModel:
    """Three states whose Perron root crosses over near theta = 9.99 from
    the weakly coupled block {1, 2} (coupling ``eps``) to state 0; there
    Lambda'' has a narrow peak (5.16 at eps = 1e-6, 51.6 at eps = 1e-8)."""
    rest = (1.0 - eps) / 2.0
    return MarkovModel(("0", "1", "2"),
                       [[0.05, 0.95, 0.0], [eps, rest, rest], [eps, rest, rest]],
                       [1.0, 0.7, 0.7], [1 / 3, 1 / 3, 1 / 3])


def mixed_draw(k):
    """Draw k (from 0) of chains with 2-13 states from default_rng(2026):
    a positive chain for even k, a sparse irreducible one for odd k."""
    rng = np.random.default_rng(2026)
    for j in range(k + 1):
        make = random_irreducible_model if j % 2 else random_positive_model
        model = make(rng, int(rng.integers(2, 14)))
    return model


def pos01(k):
    """Draw k (from 0) of positive chains with 2-12 states from
    default_rng(17): P and f uniform on [0, 1), P normalized by rows, and a
    uniform q."""
    rng = np.random.default_rng(17)
    for _ in range(k + 1):
        S = int(rng.integers(2, 13))
        P = rng.random((S, S))
        P /= P.sum(axis=1, keepdims=True)
        f = rng.random(S)
    return MarkovModel(tuple(f"s{i}" for i in range(S)), P, f, np.full(S, 1.0 / S))


def sparse31(k, seed=31):
    """Draw k (from 0) of sparse chains with 3-12 states from
    default_rng(seed): a ``random_irreducible_model`` whose columns of the
    extreme states of f, argmax then argmin, get an edge from every state
    that had none, of weight uniform on [1e-3, 0.3), rows normalized again.
    Every state steps into both extreme states, so A1-A4 hold."""
    rng = np.random.default_rng(seed)
    for _ in range(k + 1):
        m = random_irreducible_model(rng, int(rng.integers(3, 13)))
        P = m.P.copy()
        for col in (int(np.argmax(m.f)), int(np.argmin(m.f))):
            P[:, col] += rng.uniform(1e-3, 0.3, len(P)) * (P[:, col] == 0)
        P /= P.sum(axis=1, keepdims=True)
    return MarkovModel(m.states, P, m.f, m.q)


@pytest.fixture
def write_model(tmp_path):
    def _write(text: str, name: str = "model.yaml") -> str:
        path = tmp_path / name
        path.write_text(text, encoding="utf-8")
        return str(path)
    return _write
