import collections
import dataclasses
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import chainbounds.family as family_module
import chainbounds.perron as perron_module
from chainbounds import (ConvergenceError, CrossCheckError, DomainError,
                         MarkovModel, SpectralCurve, TiltedFamily, constants,
                         family_of, kl_rate, level_sets, load_model, mean_set,
                         rate_function, spectral_curve, theta_of_mean, tilt,
                         validate)
from conftest import (iid_model, mixed_draw, no_selfloop_top,
                      random_irreducible_model, random_positive_model,
                      two_cycle, two_state)
from oracles import (bernoulli_rate, kl_rate_direct, lambda_second_decimal,
                     lambda_second_pair_variance, ratio_derivative_fd,
                     simple_cycle_means, two_state_tilted_rho)

THETA_PAIRS = ((0.5, 0.7), (-1.0, 2.0), (1.0, 1.0))
FIXTURES = Path(__file__).resolve().parents[1] / "bench" / "fixtures"


def retilt(model, point):
    """Wrap a tilted chain as a fresh generator (same f and q)."""
    return MarkovModel(model.states, point.P_theta, model.f, model.q)


class TestTilt:
    def test_zero_tilt_is_identity(self):
        rng = np.random.default_rng(12)
        for _ in range(5):
            model = random_irreducible_model(rng, 4)
            point = tilt(model, 0.0)
            assert abs(point.Lambda) <= 1e-12
            assert np.abs(point.P_theta - model.P).max() <= 1e-11
            assert np.abs(point.v - 1.0).max() <= 1e-10

    def test_degenerate_family_never_moves(self):
        model = two_cycle()
        for theta in (-3.0, -1.0, 0.5, 2.0):
            point = tilt(model, theta)
            assert np.abs(point.P_theta - model.P).max() <= 1e-11

    def test_matches_quadratic_oracle(self):
        model = two_state(0.2, 0.45)
        for theta in (-2.0, -0.5, 1.0, 3.0):
            point = tilt(model, theta)
            expected = math.log(two_state_tilted_rho(0.2, 0.45, theta))
            assert abs(point.Lambda - expected) <= 1e-12 * max(1, abs(expected))

    def test_point_invariants(self):
        rng = np.random.default_rng(13)
        for _ in range(8):
            model = random_irreducible_model(rng, int(rng.integers(2, 6)))
            theta = float(rng.uniform(-2, 2))
            point = tilt(model, theta)
            v = point.v
            # defining formula, entrywise
            direct = model.P * np.exp(theta * model.f)[None, :]
            expected = direct * v[None, :] / (math.exp(point.Lambda) * v[:, None])
            assert np.abs(point.P_theta - expected).max() <= 1e-11
            assert np.abs(point.P_theta.sum(axis=1) - 1.0).max() <= 1e-10
            assert np.abs(point.pi_theta @ point.P_theta
                          - point.pi_theta).max() <= 1e-10
            assert np.abs(point.pi_theta - point.u * v).max() <= 1e-11

    def test_composition(self):
        rng = np.random.default_rng(14)
        for _ in range(20):
            model = random_irreducible_model(rng, int(rng.integers(3, 6)))
            for t1, t2 in THETA_PAIRS:
                once = tilt(model, t1 + t2)
                twice = tilt(retilt(model, tilt(model, t2)), t1)
                assert np.abs(twice.P_theta - once.P_theta).max() <= 1e-9

    def test_inversion(self):
        rng = np.random.default_rng(15)
        for _ in range(10):
            model = random_irreducible_model(rng, 4)
            theta = float(rng.uniform(-2, 2))
            back = tilt(retilt(model, tilt(model, theta)), -theta)
            assert np.abs(back.P_theta - model.P).max() <= 1e-9

    def test_midpoint_convexity(self):
        model = two_state(0.25, 0.4)
        grid = np.linspace(-3, 3, 13)
        lam = {t: tilt(model, t).Lambda for t in grid}
        for t1 in grid:
            for t2 in grid:
                mid = (t1 + t2) / 2
                if mid in lam:
                    assert lam[mid] <= (lam[t1] + lam[t2]) / 2 + 1e-10

    def test_nonfinite_theta_rejected(self):
        model = two_state(0.3, 0.4)
        for theta in (math.nan, math.inf, -math.inf):
            for call in (lambda: tilt(model, theta),
                         lambda: kl_rate(model, 0.0, theta),
                         lambda: kl_rate(model, theta, 0.0),
                         lambda: spectral_curve(model, [0.0, theta])):
                with pytest.raises(DomainError, match="must be finite"):
                    call()


class TestDerivatives:
    def test_lambda_prime_at_zero_is_stationary_mean(self):
        model = two_state(0.3, 0.3)
        assert abs(tilt(model, 0.0).mean - 0.5) <= 1e-12

    def test_degenerate_mean_never_moves(self):
        model = two_cycle()
        for theta in (-2.0, 0.0, 1.5):
            assert abs(tilt(model, theta).mean) <= 1e-10

    def test_prime_matches_central_difference_with_richardson(self):
        rng = np.random.default_rng(16)
        for _ in range(5):
            model = random_positive_model(rng, 4)
            theta = float(rng.uniform(-1, 1))
            exact = tilt(model, theta).mean

            def cdiff(h):
                return (tilt(model, theta + h).Lambda
                        - tilt(model, theta - h).Lambda) / (2 * h)

            e1 = abs(cdiff(2e-2) - exact)
            e2 = abs(cdiff(1e-2) - exact)
            assert e1 <= 1e-4
            if e1 > 1e-9:  # Richardson ratio is meaningless at roundoff level
                assert 0.8 * 4 <= e1 / e2 <= 1.2 * 4

    def test_second_derivative_iid_bernoulli(self):
        # tilted family of an IID chain is the Bernoulli exponential family
        assert abs(family_of(iid_model(0.3)).lambda_second(0.0) - 0.21) <= 1e-6

    def test_second_derivative_degenerate_vanishes(self):
        model = two_cycle()
        for theta in (-1.0, 0.0, 2.0):
            assert abs(family_of(model).lambda_second(theta)) <= 1e-10

    def test_second_matches_quadratic_difference(self):
        rng = np.random.default_rng(18)
        for _ in range(6):
            model = random_positive_model(rng, int(rng.integers(3, 6)))
            for theta in (-2.0, -1.0, 0.0, 1.0, 2.0):
                value = family_of(model).lambda_second(theta)
                h = 1e-3 * (1 + abs(theta))
                fd2 = (tilt(model, theta + h).Lambda
                       - 2 * tilt(model, theta).Lambda
                       + tilt(model, theta - h).Lambda) / h**2
                assert abs(value - fd2) <= max(1e-6, 1e-3 * abs(value))

    @pytest.mark.parametrize("make", [random_positive_model,
                                      random_irreducible_model])
    def test_fundamental_matrix_matches_finite_difference_oracle(self, make):
        # the eigenvector-ratio derivative behind L and Lambda'' against
        # central differences of dense-eig Perron vectors
        rng = np.random.default_rng(22)
        for _ in range(4):
            model = make(rng, int(rng.integers(3, 8)))
            fam = family_of(model)
            for theta in (-3.0, -0.8, 0.0, 0.8, 3.0):
                h = 1e-5 * (1 + abs(theta))
                v = tilt(model, theta).v
                w = fam.derivatives(theta)[0]
                dratio = (v[None, :] / v[:, None]) * (w[None, :] - w[:, None])
                want = ratio_derivative_fd(model.P, model.f, theta, h)
                assert np.abs(dratio - want).max() \
                    <= 1e-7 * np.abs(want).max()
                want2 = lambda_second_pair_variance(model.P, model.f, theta, h)
                assert abs(fam.lambda_second(theta) - want2) \
                    <= 1e-7 * abs(want2)

    @pytest.mark.parametrize("k, theta", [
        (17, 30.0), (17, 56.0), (17, -30.0), (29, -30.0)])
    def test_far_tilt_second_matches_decimal_referee(self, k, theta):
        # Lambda'' far below pi(fc^2), where 2 pi(fc x) - pi(fc^2) cancels
        # (to 0.0 at (17, 30) and 3.5e-18 at (17, 56), where 4e-35 is true)
        model = mixed_draw(k)
        ref = lambda_second_decimal(model.P, model.f, theta)
        value = TiltedFamily(model).derivatives(theta)[1]
        assert abs(value - ref) <= 1e-12 * ref + 1e-31

    def test_second_is_nonnegative_on_far_tilts(self):
        thetas = np.linspace(-60.0, 60.0, 121)
        for k in range(40):
            fam = TiltedFamily(mixed_draw(k))
            fam.at_many(thetas)
            assert all(fam.derivatives(t)[1] >= 0.0 for t in thetas)

    def test_cross_check_catches_a_wrong_value(self, monkeypatch):
        # 0.7 is checked by a cell of its own, in a grid or alone: the
        # change of the means across 0.7 +- 2.125e-7
        model = two_state(0.2, 0.45)
        fam = family_of(model)
        point = fam.at(0.7)
        w, value = point._derivatives
        for bad in (1.01 * value, math.nan):
            wrong = dataclasses.replace(point, _derivatives=(w, bad))
            monkeypatch.setitem(fam._points, 0.7, wrong)
            with pytest.raises(CrossCheckError,
                               match=r"theta=0\.7 .* is off by"):
                spectral_curve(model, [0.5, 0.7, 0.9])
            with pytest.raises(CrossCheckError,
                               match=r"theta=0\.7 .* is off by"):
                fam.lambda_second(0.7)

    def test_extreme_sparse_tilt_keeps_lambda_second_finite(self):
        # the second draw of the sweep below: 6 states at theta = -483.12,
        # where a ratio v(y) / v(x) overflows though no entry of P_theta does
        model, theta = sparse_extreme_draws(2)[-1]
        assert model.n_states == 6 and round(theta, 2) == -483.12
        assert math.isfinite(family_of(model).lambda_second(theta))
        assert np.isfinite(tilt(model, theta).P_theta).all()

    def test_sparse_extreme_tilts_fail_only_with_typed_errors(self):
        # each Lambda'' is finite and cross-checked, or one of the solver's
        # ConvergenceErrors; a numpy warning would fail the suite
        failures = ("enclosure gap", "Collatz-Wielandt ratios are not finite",
                    "right eigenvector lost strict positivity")
        outcomes = collections.Counter()
        for model, theta in sparse_extreme_draws(60):
            try:
                value = family_of(model).lambda_second(theta)
            except ConvergenceError as exc:
                outcomes[next(f for f in failures if f in str(exc))] += 1
            else:
                assert math.isfinite(value)
                outcomes["finite"] += 1
        assert outcomes == {"finite": 51, failures[0]: 5, failures[1]: 2,
                            failures[2]: 2}


def sparse_extreme_draws(count):
    """``count`` sparse chains of 2 to 12 states, each with a tilt drawn
    from [-500, 500]."""
    rng = np.random.default_rng(11)
    draws = []
    for _ in range(count):
        model = random_irreducible_model(rng, int(rng.integers(2, 13)))
        draws.append((model, float(rng.uniform(-500.0, 500.0))))
    return draws


def probe_means(model):
    """Interior means at fractions 0.2, 0.5, 0.8 of each side's span from
    the stationary mean, and the means 1e-6 of the range inside a and b."""
    pif, ls = family_of(model).stationary_mean, level_sets(model)
    interior = [mu for fr in (0.2, 0.5, 0.8)
                for mu in (pif + fr * (ls.b - pif), pif - fr * (pif - ls.a))]
    edges = [ls.a + 1e-6 * (ls.b - ls.a), ls.b - 1e-6 * (ls.b - ls.a)]
    return interior, edges


@pytest.fixture
def stack_sizes(monkeypatch):
    """Member count of every Perron solve; a solo solve is a stack of one."""
    sizes = []
    pf_stack = perron_module.pf_stack

    def counted(P, D):
        sizes.append(len(D))
        return pf_stack(P, D)

    monkeypatch.setattr(perron_module, "pf_stack", counted)
    return sizes


class TestMeanInversion:
    def test_stationary_mean_maps_to_zero(self):
        model = two_state(0.3, 0.3)
        assert abs(theta_of_mean(model, 0.5)) <= 1e-9

    def test_round_trip(self):
        model = two_state(0.3, 0.3)
        for mu in (0.55, 0.7, 0.9, 0.35, 0.12):
            theta = theta_of_mean(model, mu)
            assert abs(tilt(model, theta).mean - mu) \
                <= 1e-10 * (1 + abs(mu))

    def test_round_trip_at_the_bracket_edges(self):
        # Newton where Lambda'' is nearly flat: means within 1e-6 of a and b
        model = random_positive_model(np.random.default_rng(23), 10)
        ls = level_sets(model)
        for mu in (ls.a + 1e-6 * (ls.b - ls.a), ls.b - 1e-6 * (ls.b - ls.a)):
            theta = theta_of_mean(model, mu)
            assert abs(tilt(model, theta).mean - mu) \
                <= 1e-10 * (1 + abs(mu))

    def test_boundary_mean_rejected(self):
        with pytest.raises(DomainError):
            theta_of_mean(two_state(0.3, 0.3), 1.0)

    def test_degenerate_rejected(self):
        with pytest.raises(DomainError, match="degenerate"):
            theta_of_mean(two_cycle(), 0.0)

    def test_independent_of_call_history(self, stack_sizes):
        # the bracket grid and the interpolation nodes are stacks on a
        # fresh model and memo hits after the constant search; both give
        # the bytes of solo solves
        searched = random_positive_model(np.random.default_rng(23), 10)
        constants(searched, "upper")
        constants(searched, "lower")
        interior, edges = probe_means(searched)
        for mu in interior + edges:
            fresh = random_positive_model(np.random.default_rng(23), 10)
            assert theta_of_mean(fresh, mu) == theta_of_mean(searched, mu)
        # chain10's root at mu = 0.95 lies in the block (8, 16], which a
        # fresh model solves as one stack
        fresh = load_model(FIXTURES / "chain10.yaml")
        stack_sizes.clear()
        theta = theta_of_mean(fresh, 0.95)
        assert 8.0 < theta < 16.0
        assert family_module.EXTENSION_POINTS - 1 in stack_sizes
        searched = load_model(FIXTURES / "chain10.yaml")
        constants(searched, "upper")
        assert theta_of_mean(searched, 0.95) == theta

    def test_interior_solves_after_the_constant_search(self, stack_sizes):
        model = random_positive_model(np.random.default_rng(23), 10)
        constants(model, "upper")
        constants(model, "lower")
        stack_sizes.clear()
        for mu in probe_means(model)[0]:
            theta_of_mean(model, mu)
        assert stack_sizes == [1] * 10

    @pytest.mark.parametrize("S", [10, 50])
    def test_one_solve_per_interior_mean_on_a_bench_chain(self, S,
                                                          stack_sizes):
        # entries within a factor 1.5, as in the benchmark: the Hermite
        # start through the memoized lattice is within Newton's tolerance
        rng = np.random.default_rng(1)
        P = 1.0 + 0.5 * rng.random((S, S))
        P /= P.sum(axis=1, keepdims=True)
        f = rng.permutation(np.linspace(0.0, 1.0, S))
        model = MarkovModel(tuple(map(str, range(S))), P, f, np.full(S, 1 / S))
        constants(model, "upper")
        constants(model, "lower")
        for mu in probe_means(model)[0]:
            stack_sizes.clear()
            theta_of_mean(model, mu)
            assert stack_sizes == [1]

    def test_edge_solves_on_a_fresh_model(self, stack_sizes):
        # roots at theta = -226.6 and 53.1: the bracket grows past the grid
        for mu in probe_means(
                random_positive_model(np.random.default_rng(23), 10))[1]:
            model = random_positive_model(np.random.default_rng(23), 10)
            stack_sizes.clear()
            theta_of_mean(model, mu)
            assert stack_sizes.count(1) <= 12

    def test_unattainable_interior_mean_rejected(self, stack_sizes):
        # the no-self-loop chain can spend at most every other step on top,
        # so means above 0 are unattainable despite b = 1; the cycle means
        # decide that without a Perron solve
        model = MarkovModel(("-1", "1"), [[0.5, 0.5], [1.0, 0.0]],
                            [-1.0, 1.0], [0.5, 0.5])
        with pytest.raises(DomainError, match="above every attainable"):
            theta_of_mean(model, 0.5)
        assert stack_sizes == []

    def test_nan_mean_rejected(self):
        model = two_state(0.3, 0.4)
        with pytest.raises(DomainError, match="mu=nan lies outside"):
            theta_of_mean(model, math.nan)
        for side in ("upper", "lower"):
            with pytest.raises(DomainError):
                rate_function(model, math.nan, side)


class TestRelativeEntropyRate:
    def test_same_parameter_is_zero(self):
        model = two_state(0.3, 0.3)
        assert kl_rate(model, 1.3, 1.3) == 0.0

    def test_degenerate_family_is_flat(self):
        model = two_cycle()
        for t1, t2 in ((0.0, 1.0), (-2.0, 3.0)):
            assert abs(kl_rate(model, t1, t2)) <= 1e-10

    def test_formula_equals_direct_sum(self):
        rng = np.random.default_rng(19)
        for _ in range(20):
            model = random_irreducible_model(rng, int(rng.integers(2, 6)))
            t1, t2 = rng.uniform(-2, 2, 2)
            assert abs(kl_rate(model, t1, t2)
                       - kl_rate_direct(model.P, model.f, t1, t2)) <= 1e-9

    def test_nonnegative(self):
        rng = np.random.default_rng(20)
        for _ in range(10):
            model = random_positive_model(rng, 3)
            t1, t2 = rng.uniform(-2, 2, 2)
            assert kl_rate(model, t1, t2) >= -1e-12


class TestRateFunction:
    def test_zero_at_stationary_mean(self):
        model = two_state(0.3, 0.3)
        point = rate_function(model, 0.5, "upper")
        assert point.value == 0.0 and point.theta_mu == 0.0

    def test_iid_matches_bernoulli_oracle(self):
        model = iid_model(0.3)
        for mu in (0.4, 0.5, 0.7, 0.9):
            point = rate_function(model, mu, "upper")
            assert abs(point.value - bernoulli_rate(mu, 0.3)) <= 1e-8

    def test_boundary_value(self):
        point = rate_function(two_state(0.3, 0.3), 1.0, "upper")
        assert abs(point.value - (-math.log(0.7))) <= 1e-9
        assert point.theta_mu == math.inf

    def test_beyond_the_range_is_infinite(self):
        point = rate_function(two_state(0.3, 0.3), 1.2, "upper")
        assert point.value == math.inf

    def test_lower_side_mirror(self):
        model = two_state(0.3, 0.3)
        lower = rate_function(model, 0.3, "lower")
        upper = rate_function(model.negated(), -0.3, "upper")
        assert abs(lower.value - upper.value) <= 1e-9
        assert lower.theta_mu < 0.0

    def test_lower_boundary(self):
        point = rate_function(two_state(0.3, 0.3), 0.0, "lower")
        assert abs(point.value - (-math.log(0.7))) <= 1e-9
        assert point.theta_mu == -math.inf

    def test_wrong_side_rejected(self):
        with pytest.raises(DomainError, match="wrong side"):
            rate_function(two_state(0.3, 0.3), 0.3, "upper")

    def test_degenerate_family(self):
        model = two_cycle()
        assert rate_function(model, 0.0, "upper").value == 0.0
        assert rate_function(model, 0.5, "upper").value == math.inf
        # constant f = c: b - a = 0, and the rate is 0 at mu = c
        rng = np.random.default_rng(61)
        for c in (-1e3, -0.7, 0.0, 1e-9, 0.3, 42.0):
            chain = random_irreducible_model(rng, int(rng.integers(2, 9)))
            model = MarkovModel(chain.states, chain.P,
                                np.full(chain.n_states, c), chain.q)
            for side in ("upper", "lower"):
                assert rate_function(model, c, side).value == 0.0
        # the same with a large offset, and the swap chain shifted by it:
        # the tolerance on the mean is the rounding of pi @ f, not of 1 + c
        for c in (1e5, -3e7, 1e12):
            model = MarkovModel(("a", "b"), [[0.6, 0.4], [0.2, 0.8]],
                                [c, c], [0.5, 0.5])
            swap = MarkovModel(("a", "b"), [[0.0, 1.0], [1.0, 0.0]],
                               [c, c + 1.0], [0.5, 0.5])
            for side in ("upper", "lower"):
                assert rate_function(model, c, side).value == 0.0
                assert rate_function(swap, c + 0.5, side).value == 0.0
            assert rate_function(swap, c + 0.6, "upper").value == math.inf

    def test_convex_and_vanishing_only_at_mean(self):
        model = two_state(0.25, 0.4)
        pif = tilt(model, 0.0).mean
        mus = np.linspace(pif, 1.0, 21)
        values = [rate_function(model, mu, "upper").value for mu in mus]
        for i in range(1, len(mus) - 1):
            assert values[i] <= (values[i - 1] + values[i + 1]) / 2 + 1e-9
        assert values[0] == 0.0
        assert all(v > 0 for v in values[1:])

    def test_nan_value_rejected(self):
        point = rate_function(two_state(0.3, 0.3), 0.7, "upper")
        with pytest.raises(DomainError, match="rate value nan"):
            dataclasses.replace(point, value=math.nan)


class TestDegeneracyAndMeans:
    def test_swap_chain_degenerate(self):
        assert family_of(two_cycle()).is_degenerate

    def test_constant_observable_degenerate(self):
        model = MarkovModel(("a", "b"), [[0.6, 0.4], [0.2, 0.8]],
                            [2.0, 2.0], [0.5, 0.5])
        assert family_of(model).is_degenerate

    def test_degeneracy_does_not_depend_on_an_offset(self):
        # f + c tilts the same chains as f: a spread of 1e-5 in f stays
        # nondegenerate beside an offset of 1e5
        P = [[0.5, 0.3, 0.2], [0.2, 0.5, 0.3], [0.3, 0.2, 0.5]]
        rates = []
        for c in (0.0, 1e5, -1e5, 1e3):
            model = MarkovModel(("a", "b", "c"), P,
                                c + 1e-5 * np.array([0.0, 1.0, 0.5]),
                                np.full(3, 1.0 / 3.0))
            assert not family_of(model).is_degenerate
            rates.append(rate_function(model, c + 0.7e-5, "upper").value)
        # theta * mu - Lambda cancels about 1e-5 of the rate at c = 1e5
        assert rates[0] > 0.07
        assert max(abs(r - rates[0]) for r in rates) <= 1e-4 * rates[0]
        swap = MarkovModel(("a", "b"), [[0.0, 1.0], [1.0, 0.0]],
                           [1e5, 1e5 + 1.0], [0.5, 0.5])
        assert family_of(swap).is_degenerate

    def test_generic_chain_not_degenerate(self):
        # quadratic oracle confirms curvature at zero for p + q != 1
        p, q = 0.3, 0.3
        h = 1e-4
        lam = [math.log(two_state_tilted_rho(p, q, t)) for t in (-h, 0.0, h)]
        assert (lam[0] - 2 * lam[1] + lam[2]) / h**2 > 1e-3
        assert not family_of(two_state(p, q)).is_degenerate

    def test_mean_set_full_interval_under_assumptions(self):
        ms = mean_set(two_state(0.3, 0.3))
        assert ms.lo == 0.0 and ms.hi == 1.0
        assert not ms.degenerate
        assert abs(ms.stationary_mean - 0.5) <= 1e-12

    def test_mean_set_degenerate_singleton(self):
        ms = mean_set(two_cycle())
        assert ms.degenerate
        assert ms.lo == ms.hi == ms.stationary_mean

    @pytest.mark.parametrize("seed", [5, 93, 200])
    def test_mean_set_endpoints_lie_in_the_range_of_f(self, seed):
        # f on a 0.1 lattice: Karp's cycle sums land an ulp outside [a, b]
        # (seeds 5 and 93), and so does the stationary mean of the
        # degenerate seed 200
        rng = np.random.default_rng(seed)
        draw = random_irreducible_model(rng, int(rng.integers(2, 13)))
        model = MarkovModel(draw.states, draw.P,
                            np.round(draw.f * 10) / 10 + 0.1, draw.q)
        ms, ls = mean_set(model), level_sets(model)
        assert ls.a <= ms.lo <= ms.hi <= ls.b
        assert ms.degenerate == (seed == 200)

    def test_mean_set_estimates_interior_endpoint(self):
        model = MarkovModel(("-1", "1"), [[0.5, 0.5], [1.0, 0.0]],
                            [-1.0, 1.0], [0.5, 0.5])
        ms = mean_set(model)
        # the top state forces a bounce, capping the attainable mean at 0
        assert ms.hi < 0.01
        assert ms.lo == -1.0  # lower side assumptions hold

    def test_mean_set_equals_brute_force_cycle_means(self):
        # sparse chains: where a side's assumptions fail, its endpoint is
        # the extreme mean of f over the simple cycles of P > 0
        rng = np.random.default_rng(7)
        failing = 0
        for _ in range(60):
            model = random_irreducible_model(rng, int(rng.integers(2, 9)))
            ms = mean_set(model)
            if ms.degenerate:
                continue
            report, ls = validate(model), level_sets(model)
            lo, hi = simple_cycle_means(model.P, model.f)
            if report.upper_ok:
                assert ms.hi == ls.b
            else:
                assert abs(ms.hi - hi) <= 1e-12
            if report.lower_ok:
                assert ms.lo == ls.a
            else:
                assert abs(ms.lo - lo) <= 1e-12
            failing += not (report.upper_ok and report.lower_ok)
        assert failing >= 20

    def test_bipartite_periodic_chains_degenerate(self):
        # every cycle alternates the halves, so its mean of f = +-1 + c is c
        rng = np.random.default_rng(5)
        for na, nb, c in ((1, 1, 0.3), (2, 3, 0.3), (3, 3, -0.7), (4, 2, 0.3)):
            P = np.zeros((na + nb, na + nb))
            P[:na, na:] = rng.uniform(0.1, 1.0, (na, nb))
            P[na:, :na] = rng.uniform(0.1, 1.0, (nb, na))
            P /= P.sum(axis=1, keepdims=True)
            f = np.r_[np.full(na, 1.0 + c), np.full(nb, -1.0 + c)]
            model = MarkovModel(tuple(map(str, range(na + nb))), P, f,
                                np.full(na + nb, 1.0 / (na + nb)))
            assert family_of(model).is_degenerate
            ms = mean_set(model)
            assert ms.degenerate and abs(ms.stationary_mean - c) <= 1e-12

    def test_borderline_chain_rate_is_scale_invariant(self):
        # f = delta * (0, 1, 0.5) has Lambda_delta(theta) = Lambda_1(delta
        # theta), so the rate at mu = 0.7 delta does not depend on delta;
        # the mean tolerances are relative to the span b - a = delta
        P = [[0.5, 0.3, 0.2], [0.2, 0.5, 0.3], [0.3, 0.2, 0.5]]
        values = []
        for delta in (1e-9, 1e-7, 1e-5, 1e-3, 1.0, 1e3):
            model = MarkovModel(("a", "b", "c"), P,
                                delta * np.array([0.0, 1.0, 0.5]), [1 / 3] * 3)
            assert not family_of(model).is_degenerate
            values.append(rate_function(model, 0.7 * delta, "upper").value)
        assert values[0] > 0.0
        assert max(values) - min(values) <= 1e-12 * values[-1]
        # f + 1e3 tilts the same chain; its computed means carry ulps of
        # 1e3, far above 1e-10 (b - a), which the tolerances must admit
        model = MarkovModel(("a", "b", "c"), P,
                            1e3 + 1e-5 * np.array([0.0, 1.0, 0.5]), [1 / 3] * 3)
        value = rate_function(model, 1e3 + 0.7e-5, "upper").value
        assert abs(value - values[-1]) <= 1e-6 * values[-1]

    def test_degeneracy_makes_no_perron_solve(self, stack_sizes):
        flags = [family_of(model).is_degenerate for model in (
            two_cycle(), two_state(0.3, 0.3),
            random_irreducible_model(np.random.default_rng(3), 6))]
        assert flags == [True, False, False]
        assert stack_sizes == []

    def test_tilted_means_approach_the_max(self):
        rng = np.random.default_rng(21)
        for _ in range(5):
            model = random_positive_model(rng, 4)
            b = level_sets(model).b
            gap_8 = b - tilt(model, 8.0).mean
            gap_16 = b - tilt(model, 16.0).mean
            assert gap_8 > gap_16 >= 0.0


class TestSpectralCurve:
    def test_curve_invariants(self):
        model = two_state(0.25, 0.4)
        curve = spectral_curve(model, np.linspace(-4, 4, 41))
        assert np.all(np.diff(curve.Lambda1) >= -1e-12)
        assert np.all(curve.Lambda2 >= 0.0)
        at0 = np.flatnonzero(curve.grid == 0.0)[0]
        assert abs(curve.Lambda[at0]) <= 1e-12

    def test_a_grid_longer_than_one_chunk_gives_the_solo_bytes(
            self, monkeypatch, stack_sizes):
        # three tilts of ten states per chunk: eleven tilts take four
        # stacks, each with the two ends of its tilts' own cells
        monkeypatch.setattr(family_module, "CURVE_VALUES", 3 * 10 ** 2)
        model = random_positive_model(np.random.default_rng(49), 10)
        grid = np.linspace(-4.0, 4.0, 11)
        curve = spectral_curve(model, grid)
        assert stack_sizes == [9, 9, 9, 6]
        fam = family_of(MarkovModel(model.states, model.P, model.f, model.q))
        solo = [(fam.lambda_second(t), fam.at(t).Lambda, fam.at(t).mean)
                for t in grid]
        for field, column in zip(("Lambda2", "Lambda", "Lambda1"), zip(*solo)):
            assert getattr(curve, field).tobytes() == np.array(column).tobytes()

    def test_unordered_grid_is_refused_before_any_solve(self, monkeypatch):
        def no_solve(*args):
            raise AssertionError("a Perron stack was solved")

        monkeypatch.setattr(perron_module, "pf_stack", no_solve)
        model = two_state(0.25, 0.4)
        for grid in (np.linspace(4, -4, 81), [0.0, 0.5, 0.5, 1.0]):
            with pytest.raises(DomainError, match="strictly increasing"):
                spectral_curve(model, grid)

    def test_grid_that_is_not_one_dimensional_is_refused(self, monkeypatch):
        # a scalar raised numpy's ValueError from np.diff, a 2-D grid a
        # TypeError from the solve
        def no_solve(*args):
            raise AssertionError("a Perron stack was solved")

        monkeypatch.setattr(perron_module, "pf_stack", no_solve)
        model = two_state(0.25, 0.4)
        for grid in (0.5, [[1.0]], [[0.0, 0.5], [1.0, 1.5]]):
            with pytest.raises(DomainError, match="one-dimensional"):
                spectral_curve(model, grid)

    def test_alignment_required(self):
        with pytest.raises(DomainError):
            SpectralCurve(grid=np.array([0.0, 1.0]),
                          Lambda=np.array([0.0]),
                          Lambda1=np.array([0.0, 0.1]),
                          Lambda2=np.array([0.0, 0.1]))

    @pytest.mark.parametrize("name, index, value", [
        ("grid", 1, math.nan), ("Lambda1", 1, math.nan),
        ("Lambda2", 0, math.nan), ("Lambda", 0, math.nan),
        ("Lambda2", 0, -1e-18)], ids=[
            "grid-1", "Lambda1-1", "Lambda2-0", "Lambda-0", "Lambda2-negative"])
    def test_nan_entry_rejected(self, name, index, value):
        # index 0 of Lambda is Lambda(0); a variance has no negative roundoff
        curve = spectral_curve(two_state(0.25, 0.4), [0.0, 1.0])
        fields = {n: np.array(getattr(curve, n))
                  for n in ("grid", "Lambda", "Lambda1", "Lambda2")}
        fields[name][index] = value
        with pytest.raises(DomainError):
            SpectralCurve(**fields)


def outcome(fam, theta):
    """The point's fields and derivatives as bytes, or the error
    ``fam.at`` raises."""
    try:
        p = fam.at(theta)
    except (ConvergenceError, DomainError) as exc:
        return type(exc), str(exc)
    return tuple(np.asarray(x).tobytes() for x in (
        p.u, p.v, p.gap, p.P_theta, p.pi_theta, p.Lambda, p.mean)) + (
            derivative_outcome(fam, theta),)


@st.composite
def chains(draw):
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(2, 12))
    if draw(st.booleans()):
        return random_positive_model(rng, n)
    return random_irreducible_model(rng, n)


@st.composite
def theta_sets(draw):
    base = draw(st.lists(st.floats(-200.0, 200.0), min_size=1, max_size=6))
    thetas = [0.0] + base + draw(st.lists(st.sampled_from(base), max_size=3))
    # the tilts that split a few cells, as a failing cell asks: the
    # midpoints of both halves of a cell [t0, t2] with centre t1
    for cell in draw(st.lists(st.lists(st.sampled_from(base), min_size=3,
                                       max_size=3), max_size=2)):
        t0, t1, t2 = sorted(cell)
        thetas += [0.5 * (t0 + t1), 0.5 * (t1 + t2)]
    return draw(st.permutations(thetas))


class TestStackedPoints:
    @settings(max_examples=40, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(model=chains(), thetas=theta_sets())
    def test_at_many_equals_solo_points(self, model, thetas):
        fam = TiltedFamily(model)
        fam.at_many(thetas)
        for theta in thetas:
            solo = outcome(TiltedFamily(model), theta)
            if isinstance(solo[0], type):
                assert theta not in fam._points
            assert outcome(fam, theta) == solo

    def test_a_failed_member_is_not_published(self):
        # at theta = 1000 the weight of the f-argmin state underflows to 0,
        # so the tilted matrix of the no-self-loop chain is nilpotent
        model = no_selfloop_top()
        fam = family_of(model)
        fam.at_many([-1.0, 1000.0, 0.0, 3.5])
        assert sorted(fam._points) == [-1.0, 0.0, 3.5]
        for theta in (-1.0, 0.0, 3.5):
            assert outcome(fam, theta) == outcome(TiltedFamily(model), theta)
        with pytest.raises(ConvergenceError, match="power step"):
            fam.at(1000.0)

    def test_overflowing_tilt_is_a_domain_error(self):
        model = MarkovModel(("0", "1"), [[0.5, 0.5], [0.5, 0.5]],
                            [0.0, 4.0], [0.5, 0.5])
        fam = family_of(model)
        fam.at_many([1e308, 1.0])
        assert list(fam._points) == [1.0]
        with pytest.raises(DomainError, match="overflows"):
            tilt(model, 1e308)

    @settings(max_examples=40, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(model=chains(), thetas=theta_sets())
    # a batch that checked the cells between its tilts raised at theta =
    # 34.0951 and 26.2876, a tilt it split toward, where solo calls return
    @example(model=random_irreducible_model(np.random.default_rng(991), 11),
             thetas=[0.0, 1.0, 35.0])
    @example(model=random_irreducible_model(np.random.default_rng(100), 12),
             thetas=[0.0, 0.0, 0.0, 0.0, 27.0, 0.0, 13.5])
    def test_lambda_second_many_equals_solo_values(self, model, thetas):
        assert (curvature_outcome(TiltedFamily(model).lambda_second_many,
                                  thetas)
                == curvature_outcome(
                    lambda ts: [TiltedFamily(model).lambda_second(t)
                                for t in ts], thetas))

    def test_a_singular_slice_fails_alone(self, monkeypatch):
        # with the identity in place of P_1, I - P_1 + 1 pi' is the
        # rank-one 1 pi', which fails numpy's whole stacked solve; the
        # weights are all 1 at theta = 0 only
        chains = family_module._tilted_chains

        def identity_at_one(P, D, V, rho):
            out = chains(P, D, V, rho)
            out[(D != 1.0).any(axis=1)] = np.eye(2)
            return out

        monkeypatch.setattr(family_module, "_tilted_chains", identity_at_one)
        model = random_positive_model(np.random.default_rng(47), 2)
        fam = TiltedFamily(model)
        fam.at_many([0.0, 1.0])
        assert derivative_outcome(fam, 0.0) == derivative_outcome(
            TiltedFamily(model), 0.0)
        with pytest.raises(ConvergenceError, match="singular at theta=1.0"):
            fam.derivatives(1.0)
        assert fam.at(1.0) is fam._points[1.0]
        assert outcome(fam, 1.0) == outcome(TiltedFamily(model), 1.0)

    def test_cross_check_neighbours_are_never_memoized(self):
        model = random_positive_model(np.random.default_rng(48), 10)
        c = constants(model, "upper")
        fam = family_of(model)
        assert len(fam._points) == c.grid_summary.n_points
        grid = np.linspace(-4.0, 4.0, 17)
        fresh = MarkovModel(model.states, model.P, model.f, model.q)
        spectral_curve(fresh, grid)
        assert set(family_of(fresh)._points) == set(grid.tolist())
        # on a coarse grid too, whose cells between tilts 2.5 apart would
        # not pass: each tilt is checked by a cell of its own, whose ends
        # are solved but never memoized
        coarse = MarkovModel(model.states, model.P, model.f, model.q)
        grid = np.linspace(-40.0, 40.0, 33).tolist()
        curve = spectral_curve(coarse, grid)
        assert curve.grid.tolist() == grid
        assert set(family_of(coarse)._points) == set(grid)
        assert set(family_of(coarse)._checked) == set(grid)
        ends = {s for t in grid for s in family_module._ends(t)}
        assert not ends & set(family_of(coarse)._points)
        points = list(fam._points.values())
        assert not any("P_theta" in p.__dict__ for p in points)
        # built on read, with the bytes of the product-first formula
        point = points[len(points) // 2]
        expo = point.theta * model.f
        d = np.exp(expo - expo.max())
        solved = perron_module.pf_irreducible(model.P, d)
        rho = solved.rho
        v = point.v
        eager = (model.P * (d * v)[None, :]) / (rho * v)[:, None]
        eager /= eager.sum(axis=1, keepdims=True)
        assert point.P_theta.tobytes() == eager.tobytes()
        assert point.gap == solved.gap


def curvature_outcome(lambda_seconds, thetas):
    """``lambda_seconds(thetas)`` as bytes, or the error it raises."""
    try:
        return np.array(lambda_seconds(thetas)).tobytes()
    except (ConvergenceError, CrossCheckError, DomainError) as exc:
        return type(exc), str(exc)


def derivative_outcome(fam, theta):
    """``fam.derivatives(theta)`` as bytes, or the error it raises."""
    try:
        w, curvature = fam.derivatives(theta)
    except (ConvergenceError, DomainError) as exc:
        return type(exc), str(exc)
    return w.tobytes(), curvature
