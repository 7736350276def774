import gc
import math
import sys
import threading
import weakref

import numpy as np
import pytest

import chainbounds.perron as perron_module
from chainbounds import (AssumptionError, ChainboundsError, DomainError,
                         MarkovModel, TiltedFamily, chernoff_bound, constants,
                         ergodic_gap, family_of, hoeffding_bound, level_sets,
                         rate_function, tilt, two_sided_bound, validate)
from conftest import (iid_model, random_irreducible_model,
                      random_positive_model, two_cycle, two_state)
from oracles import bernoulli_rate, exact_tail_probability


class TestConstants:
    def test_iid_rows_unit_prefactor(self):
        consts = constants(iid_model(0.3), "upper")
        assert abs(consts.K - 1.0) <= 1e-9
        assert consts.L <= 1e-6

    def test_positive_matrix_entry_ratio_cap(self):
        rng = np.random.default_rng(24)
        for _ in range(5):
            model = random_positive_model(rng, int(rng.integers(2, 5)))
            consts = constants(model, "upper")
            P = model.P
            cap = max(P[x, z] / P[y, z]
                      for x in range(model.n_states)
                      for y in range(model.n_states)
                      for z in range(model.n_states))
            assert consts.K <= cap + 1e-9

    def test_assumption_violation_propagates(self):
        with pytest.raises(AssumptionError):
            constants(two_cycle(), "upper")

    def test_prefactor_at_least_one(self):
        rng = np.random.default_rng(25)
        for _ in range(5):
            consts = constants(random_positive_model(rng, 3), "upper")
            assert consts.K >= 1.0

    def test_variance_proxy_below_range_envelope(self):
        rng = np.random.default_rng(26)
        for _ in range(5):
            model = random_positive_model(rng, 4)
            c = constants(model, "upper")
            ls = level_sets(model)
            envelope = (ls.b - ls.a + 2 * c.K * c.L) ** 2 / 4
            assert c.sigma2 <= envelope + 1e-9

    def test_sides_mirror_under_negation(self):
        rng = np.random.default_rng(27)
        model = random_positive_model(rng, 4)
        up = constants(model, "upper")
        lo = constants(model.negated(), "lower")
        assert abs(up.K - lo.K) <= 1e-10 * up.K
        assert abs(up.L - lo.L) <= 1e-10 * max(1.0, up.L)
        assert abs(up.sigma2 - lo.sigma2) <= 1e-10 * max(1.0, up.sigma2)
        assert abs(up.rho_inf - lo.rho_inf) <= 1e-12

    def test_running_maxima_dominate_any_sample(self):
        rng = np.random.default_rng(5)
        for _ in range(14):
            twenty_states = random_positive_model(rng, int(rng.integers(2, 30)))
        cases = [(two_state(0.3, 0.3), "upper"), (twenty_states, "lower"),
                 (random_positive_model(np.random.default_rng(30), 4), "lower")]
        for model, side in cases:
            c = constants(model, side)
            fam = family_of(model)
            sign = 1.0 if side == "upper" else -1.0
            # every tilt the search solved, its guard tilts included: the
            # memo holds no cross-check neighbour
            solved = [t for t in list(fam._points) if sign * t >= 0.0]
            assert solved
            for theta in solved:
                v = fam.at(theta).v
                w = fam.derivatives(theta)[0]
                ratio = v[None, :] / v[:, None]
                assert ratio.max() <= c.K
                assert np.abs(ratio * (w[None, :] - w[:, None])).max() <= c.L
                assert fam.lambda_second(theta) <= c.sigma2
        model = cases[0][0]
        c = constants(model, "upper")
        from chainbounds import lambda_second
        fam = family_of(model)
        for theta in np.linspace(0.0, 6.0, 25):
            v = fam.at(theta).triple.v
            assert v.max() / v.min() <= c.K + 1e-9
            assert lambda_second(model, theta) <= c.sigma2 + 1e-9

    def test_diagnostics_present(self):
        gs = constants(two_state(0.3, 0.3), "upper").grid_summary
        assert gs.converged
        assert gs.tail_guard_passed
        assert gs.n_points > 30
        assert gs.theta_max >= 16.0


class TestChernoff:
    def test_at_stationary_mean_bound_is_prefactor(self):
        model = two_state(0.3, 0.3)
        report = chernoff_bound(model, 25, 0.5, "upper")
        assert report.rate == 0.0
        assert abs(report.chernoff - constants(model, "upper").K) <= 1e-12

    def test_iid_reduces_to_classical_chernoff(self):
        model = iid_model(0.3)
        for mu in (0.5, 0.7):
            report = chernoff_bound(model, 40, mu, "upper")
            classical = math.exp(-40 * bernoulli_rate(mu, 0.3))
            assert abs(report.chernoff - classical) <= 1e-7 * classical

    def test_boundary_bound_in_closed_form(self):
        model = two_state(0.3, 0.3)
        report = chernoff_bound(model, 10, 1.0, "upper")
        K = constants(model, "upper").K
        assert abs(report.chernoff - K * 0.7 ** 10) <= 1e-9

    def test_dominates_exact_tail(self):
        # brute-force enumeration: the bound must sit above the truth
        model = two_state(0.3, 0.3)
        for n, mu in ((8, 0.75), (10, 0.6), (10, 1.0)):
            exact = exact_tail_probability(model, n, mu, "upper")
            assert exact <= chernoff_bound(model, n, mu, "upper").chernoff

    def test_lower_tail_dominates_exact(self):
        model = two_state(0.2, 0.4)
        pif = tilt(model, 0.0).mean
        mu = pif - 0.2
        exact = exact_tail_probability(model, 10, mu, "lower")
        assert exact <= chernoff_bound(model, 10, mu, "lower").chernoff

    def test_wrong_side_mu_rejected(self):
        with pytest.raises(DomainError):
            chernoff_bound(two_state(0.3, 0.3), 10, 0.2, "upper")

    def test_n_validated(self):
        model = two_state(0.3, 0.4)
        # a count is an integer: floats, NaN, inf and strings fail alike
        for n in (0, 1.5, math.inf, math.nan, "5"):
            with pytest.raises(DomainError, match="n must be at least 1"):
                chernoff_bound(model, n, 0.7, "upper")
        with pytest.raises(DomainError, match="n must be at least 1"):
            ergodic_gap(model, math.nan)
        with pytest.raises(DomainError, match="n must be at least 1"):
            two_sided_bound(model, math.nan, (0.6, 0.8))
        assert chernoff_bound(model, np.int64(3), 0.7).n == 3


class TestHoeffding:
    def test_at_stationary_mean_both_forms_equal_prefactor(self):
        model = two_state(0.3, 0.3)
        report = hoeffding_bound(model, 30, 0.5, "upper")
        K = constants(model, "upper").K
        assert report.hoeffding_sigma == K
        assert report.hoeffding_range == K

    def test_ordering_chain(self):
        rng = np.random.default_rng(28)
        for _ in range(5):
            model = random_positive_model(rng, 3)
            pif = tilt(model, 0.0).mean
            b = level_sets(model).b
            mu = pif + 0.7 * (b - pif)
            report = hoeffding_bound(model, 20, mu, "upper")
            assert report.chernoff <= report.hoeffding_sigma + 1e-12
            assert report.hoeffding_sigma <= report.hoeffding_range + 1e-12

    def test_iid_range_form_approaches_classical_envelope(self):
        model = iid_model(0.3)
        report = hoeffding_bound(model, 50, 0.7, "upper")
        classical = math.exp(-2 * 50 * (0.7 - 0.3) ** 2)
        assert abs(report.hoeffding_range - classical) <= 1e-4 * classical


class TestQuadraticEnvelopes:
    def test_rate_dominates_quadratic(self):
        rng = np.random.default_rng(30)
        for _ in range(3):
            model = random_positive_model(rng, 4)
            c = constants(model, "upper")
            pif = tilt(model, 0.0).mean
            b = level_sets(model).b
            for mu in np.linspace(pif, b, 25):
                rate = rate_function(model, mu, "upper").value
                quad = (mu - pif) ** 2 / (2 * c.sigma2)
                assert rate - quad >= -1e-9

    def test_log_growth_below_quadratic_envelope(self):
        rng = np.random.default_rng(32)
        for _ in range(3):
            model = random_positive_model(rng, 4)
            sigma2 = max(constants(model, "upper").sigma2,
                         constants(model, "lower").sigma2)
            pif = tilt(model, 0.0).mean
            for theta in np.linspace(-4, 4, 41):
                lam = tilt(model, theta).Lambda
                assert pif * theta + sigma2 * theta ** 2 / 2 - lam >= -1e-9


class TestDegenerateChains:
    def test_single_state_pipeline(self):
        model = MarkovModel(("x",), [[1.0]], [0.5], [1.0])
        c = constants(model, "upper")
        assert (c.K, c.L, c.sigma2, c.rho_inf) == (1.0, 0.0, 0.0, 1.0)
        report = chernoff_bound(model, 5, 0.5, "upper")
        assert report.chernoff == 1.0
        assert rate_function(model, 0.7, "upper").value == math.inf
        assert two_sided_bound(model, 5, (0.4, 0.6)) == 2.0

    def test_constant_observable(self):
        model = MarkovModel(("a", "b"), [[0.6, 0.4], [0.2, 0.8]],
                            [2.0, 2.0], [0.5, 0.5])
        c = constants(model, "upper")
        assert abs(c.K - 1.0) <= 1e-9
        assert c.L <= 1e-12 and c.sigma2 <= 1e-12
        report = hoeffding_bound(model, 10, 2.0, "upper")
        assert abs(report.hoeffding_sigma - c.K) <= 1e-12
        assert abs(report.hoeffding_range - c.K) <= 1e-12


class TestTwoSidedAndErgodicGap:
    def test_interval_containing_mean_costs_factor_two(self):
        model = two_state(0.3, 0.3)
        K = max(constants(model, "upper").K, constants(model, "lower").K)
        assert two_sided_bound(model, 12, (0.4, 0.6)) == 2 * K

    def test_one_sided_interval_uses_near_endpoint(self):
        model = two_state(0.3, 0.3)
        K = max(constants(model, "upper").K, constants(model, "lower").K)
        rate = rate_function(model, 0.9, "upper").value
        expected = 2 * K * math.exp(-17 * rate)
        assert abs(two_sided_bound(model, 17, (0.9, 1.0)) - expected) <= 1e-12

    def test_singleton_at_extreme(self):
        model = two_state(0.3, 0.3)
        K = max(constants(model, "upper").K, constants(model, "lower").K)
        for n in (3, 9):
            value = two_sided_bound(model, n, (1.0, 1.0))
            assert abs(value - 2 * K * 0.7 ** n) <= 1e-9 * value

    def test_interval_below_mean_uses_lower_rate(self):
        model = two_state(0.3, 0.3)
        K = max(constants(model, "upper").K, constants(model, "lower").K)
        rate = rate_function(model, 0.2, "lower").value
        expected = 2 * K * math.exp(-11 * rate)
        assert abs(two_sided_bound(model, 11, (0.0, 0.2)) - expected) <= 1e-12

    def test_gap_vanishes_for_iid(self):
        assert ergodic_gap(iid_model(0.4), 7) <= 1e-9

    def test_gap_scales_inversely_with_n(self):
        model = two_state(0.3, 0.3)
        assert ergodic_gap(model, 20) == ergodic_gap(model, 10) / 2

    def test_gap_below_entry_ratio_cap(self):
        rng = np.random.default_rng(33)
        model = random_positive_model(rng, 3)
        P = model.P
        cap = max(P[x, z] / P[y, z]
                  for x in range(3) for y in range(3) for z in range(3))
        assert ergodic_gap(model, 5) <= math.log(cap) / 5 + 1e-9


def test_models_are_freed_after_a_bound():
    # derived results are memoized on the model itself, so nothing cached
    # there may refer back to the model
    model = random_positive_model(np.random.default_rng(34), 4)
    chernoff_bound(model, 20, float(model.f.max()), "upper")
    ref = weakref.ref(model)
    del model
    gc.collect()
    assert ref() is None


def test_derived_results_are_memoized_per_model(monkeypatch):
    import chainbounds.perron as perron_module
    model = random_positive_model(np.random.default_rng(35), 4)
    consts = constants(model, "upper")
    calls = []
    original = perron_module.limit_matrix
    monkeypatch.setattr(perron_module, "limit_matrix",
                        lambda *args: calls.append(args) or original(*args))
    rate_function(model, float(model.f.max()), "upper")
    assert calls == []
    assert constants(model, "upper") is consts
    assert family_of(model) is family_of(model)
    twin = MarkovModel(model.states, model.P, model.f, model.q)
    assert family_of(twin) is not family_of(model)
    assert constants(twin, "upper") is not consts
    assert constants(twin, "upper") == consts


def test_concurrent_lookups_share_one_memoized_value():
    model = random_positive_model(np.random.default_rng(36), 3)
    thetas = (-1.0, 0.0, 0.5, 2.0)
    seen = []

    def lookup():
        seen.append((family_of(model),
                     tuple(family_of(model).at(t) for t in thetas)))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        workers = [threading.Thread(target=lookup) for _ in range(8)]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join(timeout=30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(worker.is_alive() for worker in workers)
    assert len(seen) == 8
    fam, points = seen[0]
    for other_fam, other_points in seen:
        assert other_fam is fam
        assert all(p is q for p, q in zip(other_points, points))


def test_constants_do_not_depend_on_batching(monkeypatch):
    # positive chains, and sparse irreducible ones that meet a side's
    # assumptions
    rng = np.random.default_rng(44)
    models = [random_positive_model(rng, n) for n in (3, 6, 12)]
    while len(models) < 6:
        model = random_irreducible_model(rng, int(rng.integers(3, 9)))
        if validate(model).upper_ok or validate(model).lower_ok:
            models.append(model)

    def outcomes(models):
        out = []
        for model in models:
            for side in ("upper", "lower"):
                try:
                    out.append(repr(constants(model, side)))
                except ChainboundsError as exc:
                    out.append((type(exc), str(exc)))
        return out

    baseline = outcomes(models)
    # no stacked solve at all: every Perron member and every point's
    # derivative solve runs alone
    pf_stack, assemble = perron_module.pf_stack, TiltedFamily._assemble

    def solo_stacks(P, D):
        solo = [pf_stack(P, d[None]) for d in D]
        return (*(np.concatenate([s[j] for s in solo]) for j in range(4)),
                [error for s in solo for error in s[4]])

    monkeypatch.setattr(perron_module, "pf_stack", solo_stacks)
    monkeypatch.setattr(
        TiltedFamily, "_assemble", lambda self, thetas, *rows: [
            point for b in range(len(thetas))
            for point in assemble(self, thetas[b:b + 1],
                                  *(x[b:b + 1] for x in rows))])
    fresh = [MarkovModel(m.states, m.P, m.f, m.q) for m in models]
    assert outcomes(fresh) == baseline


def test_constants_build_one_perron_triple(monkeypatch):
    # the grid's stacked solves stay arrays; the one triple is the limit
    # matrix's
    built = []
    post_init = perron_module.PerronTriple.__post_init__

    def counted(self):
        built.append(self)
        post_init(self)

    monkeypatch.setattr(perron_module.PerronTriple, "__post_init__", counted)
    model = random_positive_model(np.random.default_rng(48), 10)
    assert constants(model, "upper").grid_summary.n_points > 1
    assert len(built) == 1


def test_hoeffding_bound_is_the_chernoff_report():
    assert hoeffding_bound is chernoff_bound
