import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import chainbounds
import chainbounds.sim as sim
from chainbounds import (DomainError, MarkovModel, chernoff_bound,
                         empirical_tail, ergodic_check, ergodic_gap,
                         lambda_n_exact, sample_trajectory, tilt)
from conftest import (iid_model, random_positive_model, two_cycle, two_state)
from oracles import exact_scaled_log_mgf, inverse_cdf_path, replay_tail_hits

CHAIN10 = Path(__file__).resolve().parents[1] / "bench" / "fixtures" / "chain10.yaml"


def delta_start(model, index):
    q = np.zeros(model.n_states)
    q[index] = 1.0
    return MarkovModel(model.states, model.P, model.f, q)


class TestTrajectories:
    def test_deterministic_swap_chain(self):
        model = delta_start(two_cycle(), 0)
        path = sample_trajectory(model, 3, 123)
        assert np.array_equal(path, [0, 1, 0, 1])

    def test_empty_walk(self):
        model = delta_start(two_state(0.3, 0.3), 1)
        assert np.array_equal(sample_trajectory(model, 0, 9), [1])

    def test_seed_determinism(self):
        model = two_state(0.3, 0.3)
        a = sample_trajectory(model, 100, 77)
        b = sample_trajectory(model, 100, 77)
        assert np.array_equal(a, b)
        c = sample_trajectory(model, 100, 78)
        assert not np.array_equal(a, c)

    def test_empirical_frequency_sane(self):
        model = two_state(0.3, 0.3)
        path = sample_trajectory(model, 20000, 5)
        # stationary law is uniform; crude law-of-large-numbers check
        assert abs(np.mean(path == 1) - 0.5) < 0.02


class TestEmpiricalTail:
    def test_tie_counts_as_hit(self):
        model = delta_start(two_cycle(), 0)
        est = empirical_tail(model, 10, 0.0, "upper", trials=64, seed=3)
        assert est.p_hat == 1.0
        assert est.hits == 64

    def test_impossible_event(self):
        model = two_state(0.3, 0.3)
        est = empirical_tail(model, 10, 1.5, "upper", trials=200, seed=3)
        assert est.hits == 0
        assert est.ci_low == 0.0

    def test_interval_brackets_estimate(self):
        est = empirical_tail(two_state(0.3, 0.3), 20, 0.6, "upper",
                             trials=500, seed=11)
        assert 0.0 <= est.ci_low <= est.p_hat <= est.ci_high <= 1.0

    def test_trials_replay_single_trajectories(self):
        # trial t must consume exactly the stream of seed + t
        model = two_state(0.3, 0.3)
        n, trials, seed, mu = 12, 40, 90, 0.6
        est = empirical_tail(model, n, mu, "upper", trials=trials, seed=seed)
        hits = 0
        for t in range(trials):
            path = sample_trajectory(model, n, seed + t)
            if model.f[path[1:]].sum() / n >= mu:
                hits += 1
        assert hits == est.hits

    def test_chunk_draws_match_a_philox_per_key(self):
        # one generator per chunk, its state reset to each trial's key;
        # the keys carry from the low into the high key word
        for first in (0, 2**64 - 3, 2**128 - 7):
            rows = sim._philox_rows(first, 6, 9)
            for t, row in enumerate(rows):
                raw = np.random.Philox(key=first + t).random_raw(9)
                assert np.array_equal(row, (raw >> 11).view(np.int64))
        with pytest.raises(ValueError, match="2\\*\\*128"):
            sim._philox_rows(2**128 - 3, 6, 9)

    def test_lower_side_counts_small_means(self):
        model = two_state(0.3, 0.3)
        up = empirical_tail(model, 15, 0.5, "upper", trials=400, seed=2)
        lo = empirical_tail(model, 15, 0.5, "lower", trials=400, seed=2)
        # closed events on both sides: ties are counted twice
        assert up.hits + lo.hits >= 400

    def test_monte_carlo_consistent_with_bound(self):
        model = two_state(0.3, 0.3)
        report = chernoff_bound(model, 50, 0.7, "upper")
        est = empirical_tail(model, 50, 0.7, "upper", trials=20000, seed=1)
        assert est.ci_low <= report.chernoff

    def test_disjoint_seed_runs_overlap(self):
        model = two_state(0.3, 0.3)
        overlaps = 0
        for k in range(5):
            a = empirical_tail(model, 25, 0.6, "upper", 2000, seed=1000 * k)
            b = empirical_tail(model, 25, 0.6, "upper", 2000,
                               seed=1000 * k + 500_000)
            if a.ci_low <= b.ci_high and b.ci_low <= a.ci_high:
                overlaps += 1
        assert overlaps >= 4

    def test_validation(self):
        model = two_state(0.3, 0.3)
        with pytest.raises(DomainError):
            empirical_tail(model, 10, 0.5, "sideways", 10)
        with pytest.raises(DomainError):
            empirical_tail(model, 10, 0.5, "upper", 0)
        with pytest.raises(DomainError):
            empirical_tail(model, 10, 0.5, "upper", 10, seed=-4)
        # counts and seeds are integers: no truncated float, no string
        for n, trials, seed in ((2.5, 10, 0), (10, 2.5, 0), (10, 10, 2.5),
                                (10, 10, "3")):
            with pytest.raises(DomainError, match="must be"):
                empirical_tail(model, n, 0.5, "upper", trials, seed=seed)
        with pytest.raises(DomainError, match="n must be >= 1"):
            lambda_n_exact(model, 0.5, 2.5)

    def test_chunking_does_not_change_results(self, monkeypatch):
        import chainbounds.sim as sim_module
        model = two_state(0.3, 0.3)
        baseline = empirical_tail(model, 9, 0.6, "upper", 100, seed=6)
        # 7 trials of n + 1 = 10 draws and the walk's per-trial vectors
        monkeypatch.setattr(sim_module, "CHUNK_VALUES",
                            7 * (10 + sim_module.WALK_VALUES))
        rechunked = empirical_tail(model, 9, 0.6, "upper", 100, seed=6)
        assert rechunked.hits == baseline.hits
        # one trial's draws alone exceed the budget: one trial per chunk
        monkeypatch.setattr(sim_module, "CHUNK_VALUES", 5)
        single = empirical_tail(model, 9, 0.6, "upper", 100, seed=6)
        assert single.hits == baseline.hits


UNIT = 2**53

# adversarial rows: runs of zero weights, tiny weights that share one guide
# bucket, a cumulative sum that rounds below 1, and dyadic weights whose
# boundaries a draw can hit exactly
ADVERSARIAL_ROWS = (
    [0.0, 0.3, 0.0, 0.0, 0.0, 0.0, 0.0, 0.7],
    [0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 1.0],
    [1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0],
    [1e-10, 1e-10, 1e-10, 1e-12, 0.5, 0.5 - 3.01e-10, 0.0, 0.0],
    [0.1, 0.1, 0.1, 0.1, 0.1, 0.1, 0.3, 0.1],
    [0.5, 0.25, 0.125, 0.0625, 0.03125, 0.015625, 0.0078125, 0.0078125],
    [0.25, 0.0, 0.25, 0.0, 0.25, 0.0, 0.25, 0.0],
    [0.125] * 8,
)


def chain_of_rows(rows, q=None):
    s = len(rows[0])
    f = np.arange(s, dtype=float)
    q = np.full(s, 1.0 / s) if q is None else q
    return MarkovModel(tuple(map(str, range(s))), rows, f, q)


def boundary_draws(rows):
    """Integer draws on, just below and just above every boundary
    m = ceil(c * 2**53) of the rows, with both ends of the range."""
    cuts = np.ceil(np.cumsum(rows, axis=1) * float(UNIT)).astype(np.int64)
    near = np.concatenate([cuts - 1, cuts, cuts + 1]).ravel()
    return np.unique(np.clip(np.append(near, [0, UNIT - 1]), 0, UNIT - 1))


class TestGuideTableSampler:
    """The guide-table walker against a plain inverse-CDF replay."""

    def test_every_boundary_draw_from_every_row(self):
        draws = boundary_draws(ADVERSARIAL_ROWS)
        for row in ADVERSARIAL_ROWS:
            model = chain_of_rows(ADVERSARIAL_ROWS, q=row)
            for m in draws:
                want = inverse_cdf_path(model.P, model.q, [m * 2.0**-53])
                assert np.array_equal(sim._path(model, np.array([m])), want)

    @pytest.mark.parametrize("entries", [None, 9 * 4, 9])
    def test_long_walk_over_boundary_draws(self, monkeypatch, entries):
        # a capped table has fewer buckets and more fix-up steps; at 9
        # entries for 8 states and q, one bucket per row
        if entries is not None:
            monkeypatch.setattr(sim, "GUIDE_ENTRIES", entries)
        model = chain_of_rows(ADVERSARIAL_ROWS)
        assert len(sim._sampler(model).lo) <= (entries or sim.GUIDE_ENTRIES)
        draws = np.random.default_rng(4).permutation(
            np.tile(boundary_draws(ADVERSARIAL_ROWS), 6))
        want = inverse_cdf_path(model.P, model.q, draws * 2.0**-53)
        assert np.array_equal(sim._path(model, draws), want)
        assert set(want) == set(range(model.n_states))

    def test_tables_cover_the_adversarial_cases(self):
        sp = sim._sampler(chain_of_rows(ADVERSARIAL_ROWS))
        # the tiny weights put three distinct boundaries in one bucket
        assert sp.extra >= 3
        # the row of tenths sums to just below 1: the top draw clips to
        # the last state
        assert np.cumsum(ADVERSARIAL_ROWS[4])[-1] < 1.0
        assert sim._path(chain_of_rows(ADVERSARIAL_ROWS, q=ADVERSARIAL_ROWS[4]),
                         np.array([UNIT - 1]))[0] == 7

    def test_dyadic_tie_moves_to_the_next_state(self):
        model = chain_of_rows(ADVERSARIAL_ROWS, q=ADVERSARIAL_ROWS[5])
        for m, state in ((UNIT // 2 - 1, 0), (UNIT // 2, 1),
                         (3 * UNIT // 4 - 1, 1), (3 * UNIT // 4, 2)):
            assert sim._path(model, np.array([m]))[0] == state

    def test_block_walk_matches_each_trial(self, monkeypatch):
        model = chain_of_rows(ADVERSARIAL_ROWS)
        rng = np.random.default_rng(8)
        pool = boundary_draws(ADVERSARIAL_ROWS)
        m = rng.choice(pool, size=(9, 40))
        # a few steps per tile: walks cross tile boundaries mid-trial
        monkeypatch.setattr(sim, "TILE_VALUES", 9 * 3)
        sp = sim._sampler(model)
        states = np.array([sp.state[pos] for pos in sim._walk(sp, m)]).T
        for trial, draws in zip(states, m):
            want = inverse_cdf_path(model.P, model.q, draws * 2.0**-53)
            assert np.array_equal(trial, want)

    @pytest.mark.parametrize("bit_generator", [
        np.random.PCG64, np.random.MT19937, np.random.SFC64,
        np.random.Philox])
    def test_any_numpy_generator_matches_the_replay(self, bit_generator):
        model = random_positive_model(np.random.default_rng(12), 7)
        path = sample_trajectory(model, 300,
                                 np.random.Generator(bit_generator(21)))
        u = np.random.Generator(bit_generator(21)).random(301)
        assert np.array_equal(path, inverse_cdf_path(model.P, model.q, u))

    def test_inexact_generator_draws_are_refused(self):
        class Coarse(np.random.Generator):
            def __init__(self, value):
                super().__init__(np.random.PCG64(0))
                self.value = value

            def random(self, size=None):
                return np.full(size, self.value)

        model = two_state(0.3, 0.3)
        for value in (0.1, 1.0, -0.5, 2.0**-60):
            with pytest.raises(DomainError, match="multiples of 2"):
                sample_trajectory(model, 5, Coarse(value))
        assert np.array_equal(sample_trajectory(model, 2, Coarse(0.5)),
                              [1, 1, 1])

    def test_two_hundred_states_match_the_replay(self):
        model = random_positive_model(np.random.default_rng(13), 200)
        sp = sim._sampler(model)
        assert len(sp.lo) <= 16 * 200 * 201
        n, trials, seed = 30, 25, 400
        mu = float(model.f @ model.q)
        for side in ("upper", "lower"):
            est = empirical_tail(model, n, mu, side, trials, seed)
            assert est.hits == replay_tail_hits(model, n, mu, side, trials,
                                                seed)

    def test_sampling_does_not_import_numpy_ma(self):
        # np.unique imports numpy.ma (about 13 ms); the sampler's rows are
        # sorted, so their distinct values need no np.unique
        script = ("import sys\n"
                  "from chainbounds import load_model, sample_trajectory\n"
                  "sample_trajectory(load_model(sys.argv[1]), 20, 3)\n"
                  "print('numpy.ma' in sys.modules)\n")
        env = dict(os.environ, PYTHONPATH=str(
            Path(chainbounds.__file__).resolve().parents[1]))
        done = subprocess.run([sys.executable, "-c", script, str(CHAIN10)],
                              capture_output=True, text=True, env=env,
                              timeout=60, check=True)
        assert done.stdout == "False\n"

    def test_adversarial_chain_hits_match_the_replay(self):
        model = chain_of_rows(ADVERSARIAL_ROWS)
        for n, mu in ((1, 2.5), (7, 2.5), (25, 3.0)):
            est = empirical_tail(model, n, mu, "upper", 60, seed=17)
            assert est.hits == replay_tail_hits(model, n, mu, "upper", 60, 17)


class TestExactGrowthRate:
    def test_zero_tilt_gives_zero(self):
        model = two_state(0.3, 0.3)
        for n in (1, 7, 100):
            assert abs(lambda_n_exact(model, 0.0, n)) <= 1e-12

    def test_iid_equals_the_limit_for_every_n(self):
        model = iid_model(0.3)
        for theta in (-2.0, 1.0, 2.0):
            lam = tilt(model, theta).Lambda
            for n in (1, 3, 10, 50):
                assert abs(lambda_n_exact(model, theta, n) - lam) <= 1e-10

    def test_matches_enumeration_oracle(self):
        model = two_state(0.2, 0.45)
        for theta in (-1.0, 0.7):
            for n in (1, 2, 5, 8):
                exact = exact_scaled_log_mgf(model, theta, n)
                assert abs(lambda_n_exact(model, theta, n) - exact) <= 1e-12

    def test_extreme_tilt_no_overflow(self):
        model = two_state(0.3, 0.3)
        value = lambda_n_exact(model, 400.0, 50)
        assert math.isfinite(value)

    def test_eigenvector_ratio_sandwich(self):
        rng = np.random.default_rng(34)
        for _ in range(5):
            model = random_positive_model(rng, 3)
            theta = float(rng.uniform(-2, 2))
            v = tilt(model, theta).triple.v
            lam = tilt(model, theta).Lambda
            ratios = v[None, :] / v[:, None]
            for n in (1, 4, 20):
                centered = math.exp(n * (lambda_n_exact(model, theta, n) - lam))
                assert ratios.min() - 1e-9 <= centered <= ratios.max() + 1e-9


class TestErgodicCheck:
    def test_uniform_bound_holds(self):
        rng = np.random.default_rng(35)
        for _ in range(3):
            model = random_positive_model(rng, 3)
            for theta in (-2.0, -1.0, 1.0, 2.0):
                for n in (1, 5, 20, 60):
                    check = ergodic_check(model, theta, n)
                    assert check.passed

    def test_iid_gap_is_numerically_zero(self):
        model = iid_model(0.25)
        for theta in (-1.0, 2.0):
            check = ergodic_check(model, theta, 9)
            assert check.gap <= 1e-10
            assert check.bound <= 1e-9

    def test_zero_tilt_gap_vanishes(self):
        check = ergodic_check(two_state(0.3, 0.3), 0.0, 13)
        assert check.gap <= 1e-12

    def test_fields_consistent(self):
        model = two_state(0.3, 0.3)
        check = ergodic_check(model, 1.3, 21)
        assert check.gap == abs(check.Lambda_n - check.Lambda)
        assert check.bound == ergodic_gap(model, 21)
