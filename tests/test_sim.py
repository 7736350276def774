import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import chainbounds
import chainbounds.sim as sim
from chainbounds import (DomainError, MarkovModel, chernoff_bound,
                         empirical_tail, ergodic_check, ergodic_gap,
                         lambda_n_exact, sample_trajectory, tilt)
from conftest import (iid_model, random_positive_model, two_cycle, two_state)
from oracles import (binomial_tail_exact, exact_scaled_log_mgf,
                     inverse_cdf_path, replay_tail_hits)

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

    def test_path_memory_is_a_few_int64_per_step(self):
        # positions go into one int64 array, not one small array per step
        model = two_state(0.3, 0.3)
        sample_trajectory(model, 5, 1)       # builds the sampler tables
        n = 20000
        tracemalloc.start()
        try:
            sample_trajectory(model, n, 5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 8 * (n + 1)


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
        # one generator per tile, its state reset to each trial's key and
        # to the tile's start, also inside a block of four words; the keys
        # carry from the low into the high key word
        for first in (0, 2**64 - 3, 2**128 - 7):
            for start in range(10):
                # part of a buffer, as a shorter last tile is
                out = np.empty((6, 12), dtype=np.uint64)[:, :9]
                rows = sim._philox_rows(first, start, out)
                assert rows.shape == (6, 9)
                for t, row in enumerate(rows):
                    raw = np.random.Philox(key=first + t).random_raw(
                        start + 9)[start:]
                    assert np.array_equal(row, raw)
        with pytest.raises(ValueError, match="2\\*\\*128"):
            sim._philox_rows(2**128 - 3, 0, np.empty((6, 9), np.uint64))

    def test_tiles_concatenate_to_the_streams(self):
        # each tile overwrites the one buffer, so copy them as they come
        for first in (0, 2**64 - 3):
            buffer = np.empty((5, 6), dtype=np.uint64)
            tiles = [tile.copy()
                     for tile in sim._philox_tiles(first, 23, buffer)]
            assert [tile.shape for tile in tiles] == [(5, 6)] * 3 + [(5, 5)]
            assert np.array_equal(np.hstack(tiles), sim._philox_rows(
                first, 0, np.empty((5, 23), dtype=np.uint64)))

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

    def test_validation(self, monkeypatch):
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
        # no mean reaches NaN, so it is refused rather than counted as 0 hits
        with pytest.raises(DomainError, match="mu must be a number"):
            empirical_tail(model, 10, math.nan, "upper", 10)
        # trial t's Philox key is seed + t, below 2**128: the last keys
        # are taken, and a key beyond them is refused before any draw
        # (5000 trials take three chunks)
        empirical_tail(model, 10, 0.5, "upper", 10, seed=2**128 - 10)
        sample_trajectory(model, 5, 2**128 - 1)

        def no_draws(*args):
            raise AssertionError("a draw was made")

        monkeypatch.setattr(sim, "_philox_rows", no_draws)
        for seed, trials in ((2**128, 1), (2**128 - 9, 10),
                             (2**128 - 4999, 5000), (2**200, 1)):
            with pytest.raises(DomainError, match="below 2\\*\\*128"):
                empirical_tail(model, 10, 0.5, "upper", trials, seed=seed)
        for seed in (2**128, 2**128 + 5):
            with pytest.raises(DomainError, match="below 2\\*\\*128"):
                sample_trajectory(model, 5, seed)
        # a trajectory's stream is a Philox key: a Generator is refused
        with pytest.raises(DomainError, match="seed must be nonnegative"):
            sample_trajectory(model, 5, np.random.default_rng(0))

    def test_chunking_does_not_change_results(self, monkeypatch):
        model = two_state(0.3, 0.3)
        n, trials = 9, 100
        assert sim._tiling(n + 1, trials) == (1, trials, n + 1)
        # 2000 trials of 5001 draws stay one chunk, in five tiles
        assert sim._tiling(5001, 2000) == (1, 2000, 1026)
        baseline = empirical_tail(model, n, 0.6, "upper", trials, seed=6)
        assert baseline.hits == 35           # recorded before tiling
        walk = sim.WALK_VALUES
        for budget, steps, tiling in (
                # 15 chunks of 6 or 7 whole trials of n + 1 = 10 draws
                (7 * (10 + walk), 10, (15, 7, 10)),
                # the same chunks in tiles of 3 draws: tiles start
                # inside a trial and inside Philox's blocks of 4 words
                (7 * (3 + walk), 3, (15, 7, 3)),
                # a tile alone exceeds the budget: one trial per chunk
                (1, 3, (100, 1, 3))):
            monkeypatch.setattr(sim, "DRAW_VALUES", budget)
            monkeypatch.setattr(sim, "TILE_STEPS", steps)
            assert sim._tiling(n + 1, trials) == tiling
            est = empirical_tail(model, n, 0.6, "upper", trials, seed=6)
            assert est.hits == baseline.hits

    # (states, n, side, trials, seed, hits), recorded before tiling; the
    # 5000-trial shape, recorded while it was one chunk, takes three equal
    # chunks of 1667 or 1666 trials
    PINNED = ((2, 50, "upper", 3000, 11, 1416),
              (10, 200, "lower", 600, 5, 307),
              (50, 120, "upper", 400, 2**64 - 200, 196),
              (10, 2500, "lower", 40, 7, 16),
              (2, 1030, "upper", 9, 3, 4),
              (10, 50, "upper", 5000, 9, 2433))

    @pytest.mark.parametrize("budget", [None, 2**13])
    def test_seeded_hits_are_pinned(self, monkeypatch, budget):
        # at 2**13 the last two shapes cut each trial into tiles of
        # TILE_STEPS draws and every shape takes several chunks
        if budget is not None:
            monkeypatch.setattr(sim, "DRAW_VALUES", budget)
            assert sim._tiling(2501, 40) == (6, 7, sim.TILE_STEPS)
        for states, n, side, trials, seed, hits in self.PINNED:
            model = random_positive_model(np.random.default_rng(states + n),
                                          states)
            mu = float(np.linalg.matrix_power(model.P, 256)[0] @ model.f)
            est = empirical_tail(model, n, mu, side, trials, seed)
            assert est.hits == hits

    @staticmethod
    def traced_peak(model, n, trials):
        empirical_tail(model, 5, 0.5, "upper", 15)   # builds the tables
        tracemalloc.start()
        try:
            empirical_tail(model, n, 0.5, "upper", trials, seed=1)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_peak_memory_does_not_grow_with_n(self, monkeypatch):
        # draws are made a tile at a time into one buffer, so the peak is
        # set by DRAW_VALUES, not by trials x (n + 1)
        monkeypatch.setattr(sim, "DRAW_VALUES", 2**14)
        model = two_state(0.3, 0.3)
        for n in (2000, 20000):
            assert sim._tiling(n + 1, 15) == (1, 15, 1070)
            assert self.traced_peak(model, n, 15) < 2 * 8 * sim.DRAW_VALUES

    @pytest.mark.parametrize("trials", [5000, 50000])
    def test_peak_memory_does_not_grow_with_trials(self, trials):
        # short trials fill equal chunks of at most lanes trials (3 and 25
        # chunks here), not the whole budget
        lanes = sim.DRAW_VALUES // (sim.TILE_STEPS + sim.WALK_VALUES)
        assert lanes == 2004
        chunks, block = {5000: (3, 1667), 50000: (25, 2000)}[trials]
        assert sim._tiling(51, trials) == (chunks, block, 51)
        peak = self.traced_peak(two_state(0.3, 0.3), 50, trials)
        assert peak < 2 * 8 * lanes * (51 + sim.WALK_VALUES)

    @settings(max_examples=300, deadline=None)
    @given(steps=st.integers(1, 10**7), trials=st.integers(1, 10**7),
           budget=st.integers(1, 2**24), tile=st.integers(1, 4096))
    def test_tiling_keeps_its_budget(self, steps, trials, budget, tile):
        with mock.patch.multiple(sim, DRAW_VALUES=budget, TILE_STEPS=tile):
            chunks, block, width = sim._tiling(steps, trials)
        lanes = max(1, budget // (tile + sim.WALK_VALUES))
        assert 1 <= block <= min(trials, lanes)
        # equal chunks: as few as lanes allows, no two a trial apart or
        # more; the last of empirical_tail's split is the largest
        assert chunks == -(-trials // lanes)
        assert block == -(-trials // chunks)
        assert trials - trials * (chunks - 1) // chunks == block
        assert block - trials // chunks <= 1
        assert 1 <= width <= steps
        if lanes > 1:
            assert block * (width + sim.WALK_VALUES) <= budget
        # a tile that ends inside a trial holds at least TILE_STEPS draws
        assert width == steps or width >= tile


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


def words_of(draws):
    """The 64-bit words whose top 53 bits are the integer draws."""
    return np.asarray(draws, dtype=np.uint64) << np.uint64(11)


def path_of(model, draws):
    """The states of a one-lane walk over one tile holding the integer
    draws."""
    path = np.empty((len(draws), 1), dtype=np.int64)
    sim._walk(sim._sampler(model), 1, (words_of(draws).reshape(1, -1),), path)
    return path.ravel()


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
                assert np.array_equal(path_of(model, [m]), want)

    # GUIDE_ENTRIES: 2**bits buckets per row
    CAPPED_BITS = {None: 6, 3 * 9 * 6 * 4: 2, 3 * 9 * 7 * 2: 1, 9 * 4: 0, 9: 0}

    @pytest.mark.parametrize("entries", list(CAPPED_BITS))
    def test_long_walk_over_boundary_draws(self, monkeypatch, entries):
        # a capped table has fewer buckets and more fix-up steps; at 36 or
        # 9 values for 8 states and q, one bucket per row, whose table may
        # exceed the cap but not 3 * S * (S + 1) values
        if entries is not None:
            monkeypatch.setattr(sim, "GUIDE_ENTRIES", entries)
        model = chain_of_rows(ADVERSARIAL_ROWS)
        sp = sim._sampler(model)
        assert sp.shift == 53 - self.CAPPED_BITS[entries]
        assert len(sp.table) <= max(sim.GUIDE_ENTRIES, 3 * 8 * 9)
        draws = np.random.default_rng(4).permutation(
            np.tile(boundary_draws(ADVERSARIAL_ROWS), 6))
        want = inverse_cdf_path(model.P, model.q, draws * 2.0**-53)
        assert np.array_equal(path_of(model, draws), want)
        assert set(want) == set(range(model.n_states))

    def test_tables_cover_the_adversarial_cases(self):
        sp = sim._sampler(chain_of_rows(ADVERSARIAL_ROWS))
        # the tiny weights put three distinct boundaries in one bucket
        assert sp.slots - 1 >= 3
        # the row of tenths sums to just below 1: the top draw clips to
        # the last state
        assert np.cumsum(ADVERSARIAL_ROWS[4])[-1] < 1.0
        assert path_of(chain_of_rows(ADVERSARIAL_ROWS, q=ADVERSARIAL_ROWS[4]),
                       [UNIT - 1])[0] == 7

    def test_dyadic_tie_moves_to_the_next_state(self):
        model = chain_of_rows(ADVERSARIAL_ROWS, q=ADVERSARIAL_ROWS[5])
        for m, state in ((UNIT // 2 - 1, 0), (UNIT // 2, 1),
                         (3 * UNIT // 4 - 1, 1), (3 * UNIT // 4, 2)):
            assert path_of(model, [m])[0] == state

    def test_block_walk_matches_each_trial(self):
        model = chain_of_rows(ADVERSARIAL_ROWS)
        rng = np.random.default_rng(8)
        pool = boundary_draws(ADVERSARIAL_ROWS)
        m = rng.choice(pool, size=(9, 40))
        # tiles of 7, 13 and 20 steps: walks cross tile boundaries and
        # groups of GROUP_STEPS steps mid-trial
        sp = sim._sampler(model)
        words = words_of(m)
        tiles = (words[:, :7], words[:, 7:20], words[:, 20:])
        paths = np.empty((40, 9), dtype=np.int64)
        sim._walk(sp, 9, tiles, paths)
        sums = sim._walk(sp, 9, tiles)
        for trial, total, draws in zip(paths.T, sums, m):
            want = inverse_cdf_path(model.P, model.q, draws * 2.0**-53)
            assert np.array_equal(trial, want)
            # f counts X_1, ..., X_n, not X_0; f is the state's index
            assert total == want[1:].sum()

    def test_two_hundred_states_match_the_replay(self):
        model = random_positive_model(np.random.default_rng(13), 200)
        sp = sim._sampler(model)
        assert len(sp.table) <= sim.GUIDE_ENTRIES
        n, trials, seed = 30, 25, 400
        mu = float(model.f @ model.q)
        for side in ("upper", "lower"):
            est = empirical_tail(model, n, mu, side, trials, seed)
            assert est.hits == replay_tail_hits(model, n, mu, side, trials,
                                                seed)

    def test_many_tiny_weights_keep_the_table_capped(self):
        # thirty boundaries share one bucket of a row: the table has fewer
        # buckets per row, not thirty-one slots in each of 2048
        model = random_positive_model(np.random.default_rng(13), 200)
        P = model.P.copy()
        P[0] = 0.0
        P[0, 0], P[0, 1:31] = 1.0 - 3e-11, 1e-12
        model = MarkovModel(model.states, P, model.f, model.q)
        sp = sim._sampler(model)
        assert sp.slots - 1 >= 30
        assert len(sp.table) <= sim.GUIDE_ENTRIES
        mu = float(model.f @ model.q)
        est = empirical_tail(model, 30, mu, "upper", 25, 400)
        assert est.hits == replay_tail_hits(model, 30, mu, "upper", 25, 400)

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

    def test_simulation_does_not_import_scipy(self):
        # the Clopper-Pearson interval uses math alone; scipy.special
        # cost the simulate subcommand about 250 ms and 20 MB to import
        script = ("import os, sys\n"
                  "from chainbounds import cli, empirical_tail, load_model\n"
                  "empirical_tail(load_model(sys.argv[1]), 20, 0.7, 'upper',"
                  " 500, 3)\n"
                  "status = cli.main(['simulate', '--model', sys.argv[1],"
                  " '--n', '20', '--mu', '0.7', '--trials', '500',"
                  " '--seed', '3', '--out', os.devnull])\n"
                  "print(status, 'scipy' in sys.modules)\n")
        env = dict(os.environ, PYTHONPATH=str(
            Path(chainbounds.__file__).resolve().parents[1]))
        done = subprocess.run([sys.executable, "-c", script, str(CHAIN10)],
                              capture_output=True, text=True, env=env,
                              timeout=60, check=True)
        assert done.stdout == "0 False\n"

    def test_adversarial_chain_hits_match_the_replay(self):
        model = chain_of_rows(ADVERSARIAL_ROWS)
        for n, mu in ((1, 2.5), (7, 2.5), (25, 3.0)):
            est = empirical_tail(model, n, mu, "upper", 60, seed=17)
            assert est.hits == replay_tail_hits(model, n, mu, "upper", 60, 17)

    # a weight is zero, tiny (several boundaries share a guide bucket) or
    # ordinary; every row keeps at least one ordinary weight
    WEIGHTS = st.one_of(st.just(0.0), st.floats(1e-13, 1e-9),
                        st.floats(0.01, 1.0))

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_kernel_matches_the_replay(self, data):
        states = data.draw(st.integers(2, 6), label="states")
        rows = np.array([
            data.draw(st.lists(self.WEIGHTS, min_size=states,
                               max_size=states).filter(
                lambda row: max(row) >= 0.01), label=f"row {r}")
            for r in range(states + 1)])
        rows /= rows.sum(axis=1, keepdims=True)
        f = np.array(data.draw(st.lists(st.floats(-2.0, 2.0), min_size=states,
                                        max_size=states), label="f"))
        model = MarkovModel(tuple(map(str, range(states))), rows[:-1], f,
                            rows[-1])
        n = data.draw(st.integers(1, 40), label="n")
        trials = data.draw(st.integers(1, 30), label="trials")
        seed = data.draw(st.integers(0, 2**64), label="seed")
        mu = data.draw(st.floats(float(f.min()), float(f.max())), label="mu")
        side = data.draw(st.sampled_from(["upper", "lower"]), label="side")
        # a capped table (down to one bucket per row), and tiles of 1-12
        # draws in chunks of 1-5 lanes: walks cross group, tile and chunk
        # boundaries mid-trial
        entries = data.draw(st.sampled_from(
            [sim.GUIDE_ENTRIES, 36, 24 * (states + 1), states + 1]),
            label="entries")
        tile = data.draw(st.integers(1, 12), label="tile")
        lanes = data.draw(st.integers(1, 5), label="lanes")
        with mock.patch.multiple(
                sim, GUIDE_ENTRIES=entries, TILE_STEPS=tile,
                DRAW_VALUES=lanes * (tile + sim.WALK_VALUES)):
            sp = sim._sampler(model)
            assert len(sp.table) <= max(entries, 3 * states * (states + 1))
            est = empirical_tail(model, n, mu, side, trials, seed)
            path = sample_trajectory(model, n, seed)
            draws = boundary_draws(rows)
            boundary_path = path_of(model, draws)
        assert est.hits == replay_tail_hits(model, n, mu, side, trials, seed)
        u = np.random.Generator(np.random.Philox(key=seed)).random(n + 1)
        assert np.array_equal(path, inverse_cdf_path(model.P, model.q, u))
        assert np.array_equal(boundary_path, inverse_cdf_path(
            model.P, model.q, draws * 2.0**-53))


ALPHA = 1.0 - sim.CONFIDENCE


class TestClopperPearson:
    """The interval's ends against scipy.stats.beta where scipy is accurate
    (up to 1e5 trials), and against closed forms, exact rational tails and
    order properties, which need no scipy, beyond it."""

    @staticmethod
    def assert_matches_scipy(hits, trials):
        from scipy.stats import beta

        low, high = np.array([
            sim._clopper_pearson(int(k), int(n), sim.CONFIDENCE)
            for k, n in zip(hits, trials)]).T
        # the ends at 0 and at all hits are 0 and 1 by definition; the
        # clipped shapes keep scipy away from its invalid a = 0 or b = 0
        want_low = np.where(hits == 0, 0.0, beta.ppf(
            ALPHA / 2, np.maximum(hits, 1), trials - hits + 1))
        want_high = np.where(hits == trials, 1.0, beta.ppf(
            1 - ALPHA / 2, hits + 1, np.maximum(trials - hits, 1)))
        np.testing.assert_allclose(low, want_low, rtol=1e-12, atol=0)
        np.testing.assert_allclose(high, want_high, rtol=1e-12, atol=0)

    def test_every_hit_count_up_to_200_trials_matches_scipy(self):
        sizes = np.arange(1, 201)
        trials = np.repeat(sizes, sizes + 1)
        hits = np.concatenate([np.arange(n + 1) for n in sizes])
        self.assert_matches_scipy(hits, trials)

    @pytest.mark.parametrize("trials", [2_000, 20_000, 100_000])
    def test_sampled_hit_counts_match_scipy(self, trials):
        drawn = np.random.default_rng(trials).choice(trials + 1, 1000,
                                                     replace=False)
        hits = np.union1d(drawn, [0, 1, trials - 1, trials])
        self.assert_matches_scipy(hits, np.full(len(hits), trials))

    @pytest.mark.parametrize("trials", [1, 2, 3, 10, 1_000, 10**5, 10**7,
                                        10**9])
    def test_closed_forms_at_no_hits_and_at_all_hits(self, trials):
        # (1 - high)**n = alpha/2 at 0 hits and low**n = alpha/2 at n hits
        log_tail = math.log(ALPHA / 2)
        low, high = sim._clopper_pearson(0, trials, sim.CONFIDENCE)
        assert low == 0.0
        assert high == pytest.approx(-math.expm1(log_tail / trials),
                                     rel=1e-14, abs=0)
        low, high = sim._clopper_pearson(trials, trials, sim.CONFIDENCE)
        assert high == 1.0
        assert low == pytest.approx(math.exp(log_tail / trials),
                                    rel=1e-14, abs=0)

    def test_ends_solve_their_tail_equations_in_exact_arithmetic(self):
        for n in range(1, 61):
            for k in range(n + 1):
                low, high = sim._clopper_pearson(k, n, sim.CONFIDENCE)
                if k > 0:
                    assert float(binomial_tail_exact(n, k, low, True)) == \
                        pytest.approx(ALPHA / 2, rel=1e-12, abs=0)
                if k < n:
                    assert float(binomial_tail_exact(n, k, high, False)) == \
                        pytest.approx(ALPHA / 2, rel=1e-12, abs=0)

    @settings(max_examples=100, deadline=None)
    @given(case=st.integers(1, 10**7).flatmap(
        lambda n: st.tuples(st.integers(0, n), st.just(n))))
    def test_ends_are_ordered_finite_and_rise_with_hits(self, case):
        hits, trials = case
        low, high = sim._clopper_pearson(hits, trials, sim.CONFIDENCE)
        assert math.isfinite(low) and math.isfinite(high)
        assert 0.0 <= low <= hits / trials <= high <= 1.0
        if hits < trials:
            next_low, next_high = sim._clopper_pearson(hits + 1, trials,
                                                       sim.CONFIDENCE)
            assert low <= next_low and high <= next_high


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

    def test_nonfinite_theta_rejected(self):
        model = two_state(0.3, 0.4)
        for theta in (math.nan, math.inf, -math.inf):
            with pytest.raises(DomainError, match="must be finite"):
                lambda_n_exact(model, theta, 5)
            with pytest.raises(DomainError, match="must be finite"):
                sim.ergodic_checks(model, theta, (1, 5))

    def test_extreme_tilt_no_overflow(self):
        model = two_state(0.3, 0.3)
        value = lambda_n_exact(model, 400.0, 50)
        assert math.isfinite(value)

    def test_huge_finite_tilt_stays_finite(self):
        # theta * f fits a double, n * max(theta * f) does not
        assert lambda_n_exact(two_state(0.3, 0.4), 1e308, 5) == \
            pytest.approx(1e308, rel=1e-15)

    def test_underflowing_weights_raise_a_domain_error(self):
        # exp(theta (f - max f)) = 0 at the low state, which the top state
        # must step into, so every 2-step path loses its weight
        model = MarkovModel(("a", "b"), [[0.5, 0.5], [1.0, 0.0]],
                            [0.0, 1e6], [0.5, 0.5])
        assert lambda_n_exact(model, 1.0, 1) == pytest.approx(
            1e6 + math.log(0.25), rel=1e-15)
        with pytest.raises(DomainError, match=r"theta=1\.0 underflows"):
            lambda_n_exact(model, 1.0, 2)

    def test_eigenvector_ratio_sandwich(self):
        rng = np.random.default_rng(34)
        for _ in range(5):
            model = random_positive_model(rng, 3)
            theta = float(rng.uniform(-2, 2))
            v = tilt(model, theta).v
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
