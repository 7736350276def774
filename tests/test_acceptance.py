"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v`` (add ``-s`` to see the
PASS lines as they happen).  Every tolerance is pinned here; nothing is
calibrated elsewhere.
"""

import math

import numpy as np

from chainbounds import (chernoff_bound, constants, empirical_tail,
                         family_of, kl_rate, lambda_n_exact, level_sets,
                         rate_function, tilt, two_sided_bound, validate)
from conftest import (birth_death, iid_model, no_selfloop_top,
                      random_irreducible_model, random_positive_model,
                      two_cycle, two_state)
from oracles import (bernoulli_rate, chain_no_selfloop_rho, kl_rate_direct,
                     two_cycle_right_eigvec)

PAIRS = ((0.5, 0.7), (-1.0, 2.0), (1.0, 1.0))


def done(number, text):
    print(f"ACCEPTANCE {number:02d}: PASS - {text}")


def test_01_closed_form_spectral_radius_oracle():
    model = no_selfloop_top()
    for theta in (0.0, 0.5, 1.0, 2.0, 5.0):
        point = tilt(model, theta)
        rho = math.exp(point.Lambda)
        expected = chain_no_selfloop_rho(theta)
        assert abs(rho - expected) <= 1e-10 * expected
        v = point.v
        assert abs(v[0] / v[1] - rho * math.exp(theta)) <= 1e-9
    done(1, "tilted spectral radius and eigenvector ratio match closed forms")


def test_02_degenerate_family_closed_forms():
    model = two_cycle()
    for theta in (-1.0, 0.0, 0.5, 1.0, 2.0, 5.0):
        point = tilt(model, theta)
        assert abs(math.exp(point.Lambda) - 1.0) <= 1e-12
        expected = two_cycle_right_eigvec(theta)
        assert np.abs(point.v - expected).max() <= 1e-10
    assert family_of(model).is_degenerate
    done(2, "swap chain: unit spectral radius, closed-form v, degeneracy")


def test_03_iid_reduction():
    model = iid_model(0.3)
    consts = constants(model, "upper")
    assert abs(consts.K - 1.0) <= 1e-9
    assert consts.L <= 1e-6
    for mu in (0.4, 0.5, 0.7, 0.9):
        value = rate_function(model, mu, "upper").value
        assert abs(value - bernoulli_rate(mu, 0.3)) <= 1e-8
    done(3, "IID rows: K=1, L=0, rate equals the Bernoulli relative entropy")


def test_04_composition_suite():
    from chainbounds import MarkovModel
    rng = np.random.default_rng(104)
    for _ in range(20):
        model = random_irreducible_model(rng, int(rng.integers(3, 6)))
        for t1, t2 in PAIRS:
            inner = tilt(model, t2)
            stacked = tilt(MarkovModel(model.states, inner.P_theta, model.f,
                                       model.q), t1)
            direct = tilt(model, t1 + t2)
            assert np.abs(stacked.P_theta - direct.P_theta).max() <= 1e-9
    done(4, "composing tilts equals tilting by the sum on 20 random chains")


def test_05_kl_dual_check():
    rng = np.random.default_rng(105)
    for _ in range(20):
        model = random_irreducible_model(rng, int(rng.integers(2, 6)))
        t1, t2 = rng.uniform(-2.0, 2.0, 2)
        assert abs(kl_rate(model, t1, t2)
                   - kl_rate_direct(model.P, model.f, t1, t2)) <= 1e-9
    done(5, "closed-form relative entropy rate equals the direct sum")


def test_06_derivative_cross_checks():
    rng = np.random.default_rng(106)
    for _ in range(10):
        model = random_positive_model(rng, int(rng.integers(3, 6)))
        for theta in (-2.0, -1.0, 0.0, 1.0, 2.0):
            h = 1e-3 * (1.0 + abs(theta))
            lam = lambda t: tilt(model, t).Lambda
            d1 = tilt(model, theta).mean
            fd1 = (lam(theta + h) - lam(theta - h)) / (2 * h)
            assert abs(d1 - fd1) <= max(1e-6, 1e-3 * abs(d1))
            d2 = family_of(model).lambda_second(theta)
            fd2 = (lam(theta + h) - 2 * lam(theta) + lam(theta - h)) / h**2
            assert abs(d2 - fd2) <= max(1e-6, 1e-3 * abs(d2))
    done(6, "variance and mean formulas agree with quadratic differences")


def test_07_quadratic_rate_and_growth_envelopes():
    rng = np.random.default_rng(107)
    for _ in range(10):
        model = random_positive_model(rng, int(rng.integers(3, 5)))
        report = validate(model)
        assert report.all_ok
        pif = tilt(model, 0.0).mean
        b = level_sets(model).b
        sigma_u2 = constants(model, "upper").sigma2
        for mu in np.linspace(pif, b, 50):
            rate = rate_function(model, mu, "upper").value
            assert rate - (mu - pif) ** 2 / (2 * sigma_u2) >= -1e-9
        sigma2 = max(sigma_u2, constants(model, "lower").sigma2)
        for theta in np.linspace(-4.0, 4.0, 81):
            lam = tilt(model, theta).Lambda
            assert pif * theta + sigma2 * theta ** 2 / 2 - lam >= -1e-9
    done(7, "rate dominates its quadratic minorant; log growth is sub-Gaussian")


def test_08_uniform_finite_n_growth_gap():
    rng = np.random.default_rng(108)
    for _ in range(10):
        model = random_positive_model(rng, int(rng.integers(2, 5)))
        K = max(constants(model, "upper").K, constants(model, "lower").K)
        for theta in (-2.0, -1.0, 1.0, 2.0):
            lam = tilt(model, theta).Lambda
            for n in range(1, 101):
                gap = abs(lambda_n_exact(model, theta, n) - lam)
                assert gap <= math.log(K) / n + 1e-9
    done(8, "finite-n growth rates stay within log(K)/n of the limit")


def test_09_monte_carlo_consistency():
    model = two_state(0.3, 0.3)
    for mu in (0.6, 0.7, 0.8):
        report = chernoff_bound(model, 50, mu, "upper")
        estimate = empirical_tail(model, 50, mu, "upper",
                                  trials=100_000, seed=20_250)
        assert estimate.ci_low <= report.chernoff
        assert report.chernoff <= report.hoeffding_sigma + 1e-12
        assert report.hoeffding_sigma <= report.hoeffding_range + 1e-12
    done(9, "simulated tails never contradict the bounds at 1e5 trials")


def test_10_boundary_rate_and_two_sided_bound():
    model = two_state(0.3, 0.3)
    point = rate_function(model, 1.0, "upper")
    assert abs(point.value - (-math.log(0.7))) <= 1e-9
    K = max(constants(model, "upper").K, constants(model, "lower").K)
    for n in (1, 10, 50):
        value = two_sided_bound(model, n, (1.0, 1.0))
        expected = 2 * K * 0.7 ** n
        assert abs(value - expected) <= 1e-9 * expected
    done(10, "boundary rate is -log rho_inf; singleton interval bound matches")


def test_11_assumption_counterexamples():
    report_a = validate(no_selfloop_top())
    assert not report_a.a1
    a1 = [v for v in report_a.violations if v.assumption == "A1"]
    assert a1 and a1[0].states == ("1",)

    report_b = validate(birth_death())
    assert not report_b.a2
    a2 = [v for v in report_b.violations if v.assumption == "A2"]
    assert a2 and a2[0].states == ("1",)
    done(11, "counterexample chains are flagged with the right witnesses")
