import dataclasses
import gc
import math
import sys
import threading
import weakref
from pathlib import Path

import numpy as np
import pytest

import chainbounds.bounds as bounds_module
import chainbounds.family as family_module
import chainbounds.perron as perron_module
from chainbounds import (AssumptionError, ChainboundsError, ConvergenceError,
                         CrossCheckError, DomainError, MarkovModel,
                         TiltedFamily, chernoff_bound, constants, ergodic_gap,
                         family_of, level_sets, load_model, rate_function,
                         tilt, two_sided_bound, validate)
from conftest import (iid_model, mixed_draw, pos01, random_irreducible_model,
                      random_positive_model, sparse31, spike, two_cycle,
                      two_state)
from oracles import bernoulli_rate, exact_tail_probability, lattice_tail

FIXTURES = Path(__file__).resolve().parents[1] / "bench" / "fixtures"


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
        fam = family_of(model)
        for theta in np.linspace(0.0, 6.0, 25):
            v = fam.at(theta).v
            assert v.max() / v.min() <= c.K + 1e-9
            assert fam.lambda_second(theta) <= c.sigma2 + 1e-9

    def test_diagnostics_present(self):
        gs = constants(two_state(0.3, 0.3), "upper").grid_summary
        assert gs.converged
        assert gs.tail_guard_passed
        assert gs.n_points > 30
        assert gs.theta_max >= 16.0

    @pytest.mark.parametrize("name", ["K", "L", "sigma2"])
    def test_nan_constant_rejected(self, name):
        consts = constants(two_state(0.3, 0.3), "upper")
        with pytest.raises(DomainError):
            dataclasses.replace(consts, **{name: math.nan})


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

    def test_nan_mean_rejected(self):
        with pytest.raises(DomainError):
            chernoff_bound(two_state(0.3, 0.4), 10, math.nan, "upper")

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


def tenths(model):
    """The model with f rounded to tenths: a lattice chain of span 1/10."""
    return MarkovModel(model.states, model.P, np.round(model.f, 1), model.q)


def lattice_chains():
    """(name, model, h) of chains whose f lies on the lattice Z / h: both
    fixtures, positive and sparse irreducible chains with f in tenths, and
    a near-periodic chain that swaps its two states with probability
    1 - 1e-3."""
    chains = [(name, load_model(str(FIXTURES / f"{name}.yaml")), h)
              for name, h in (("chain2", 1.0), ("chain10", 9.0))]
    # sparse chains of which a side's assumptions hold: upper, lower,
    # lower, upper
    for (seed, S), (sparse, R) in zip(((31, 3), (32, 4), (33, 5), (34, 6)),
                                      ((31, 3), (35, 3), (44, 4), (35, 6))):
        chains += [(f"positive{seed}", tenths(random_positive_model(
                        np.random.default_rng(seed), S)), 10.0),
                   (f"irreducible{sparse}-{R}", tenths(random_irreducible_model(
                        np.random.default_rng(sparse), R)), 10.0)]
    swap = [[1e-3, 1.0 - 1e-3], [1.0 - 1e-3, 1e-3]]
    chains.append(("near-periodic",
                   MarkovModel(("0", "1"), swap, [0.0, 1.0], [0.5, 0.5]), 1.0))
    return chains


class TestLatticeTails:
    """The bounds against the exact tail of a lattice chain, from the
    dynamic program ``oracles.lattice_tail``, at n far beyond enumeration."""

    def test_dynamic_program_equals_enumeration(self):
        quarters = random_positive_model(np.random.default_rng(35), 3)
        quarters = MarkovModel(quarters.states, quarters.P,
                               np.round(4.0 * quarters.f) / 4.0, quarters.q)
        swap = lattice_chains()[-1][1]
        for model, h, longest in ((two_state(0.3, 0.4), 1.0, 8),
                                  (swap, 1.0, 8), (quarters, 4.0, 5)):
            span = h * float(np.abs(model.f).max())
            for n in range(1, longest + 1):
                ks = range(-round(n * span) - 1, round(n * span) + 2)
                for side in ("upper", "lower"):
                    # the tilt of a run changes its rounding, not its tail
                    plain = lattice_tail(model, n, h, list(ks), side)
                    tilted = lattice_tail(model, n, h, list(ks), side, 0.7)
                    for k, value, other in zip(ks, plain, tilted):
                        want = exact_tail_probability(model, n, k / (h * n), side)
                        assert abs(value - want) <= 1e-13
                        assert abs(other - want) <= 1e-13

    @pytest.mark.parametrize("name, model, h", lattice_chains(),
                             ids=[c[0] for c in lattice_chains()])
    def test_bounds_dominate_the_exact_tail(self, name, model, h):
        # exact <= chernoff <= hoeffding_sigma <= hoeffding_range at means
        # k / (h n) on the lattice, a quarter, half and three quarters of
        # the way from the stationary mean to the side's range end; the
        # first in log space, as chernoff rounds to 0 below 1e-308
        report = validate(model)
        pif = tilt(model, 0.0).mean
        ls = level_sets(model)
        sides = [(side, end) for side, end, ok in (
            ("upper", ls.b, report.upper_ok), ("lower", ls.a, report.lower_ok))
            if ok]
        assert sides
        for side, end in sides:
            round_in = math.ceil if side == "upper" else math.floor
            for n in (50, 200, 1000):
                ks = [round_in(h * n * (pif + fr * (end - pif)))
                      for fr in (0.25, 0.5, 0.75)]
                # tilts per label unit that centre each DP run near its k
                tilts = [rate_function(model, k / (h * n), side).theta_mu / h
                         for k in ks]
                exact = lattice_tail(model, n, h, ks, side, tilts, log=True)
                K = constants(model, side).K
                for k, log_exact in zip(ks, exact.tolist()):
                    bound = chernoff_bound(model, n, k / (h * n), side)
                    assert -math.inf < log_exact <= math.log(K) - n * bound.rate
                    assert math.exp(log_exact) <= bound.chernoff
                    assert bound.chernoff <= bound.hoeffding_sigma
                    assert bound.hoeffding_sigma <= bound.hoeffding_range


class TestHoeffding:
    def test_at_stationary_mean_both_forms_equal_prefactor(self):
        model = two_state(0.3, 0.3)
        report = chernoff_bound(model, 30, 0.5, "upper")
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
            report = chernoff_bound(model, 20, mu, "upper")
            assert report.chernoff <= report.hoeffding_sigma + 1e-12
            assert report.hoeffding_sigma <= report.hoeffding_range + 1e-12

    def test_iid_range_form_approaches_classical_envelope(self):
        model = iid_model(0.3)
        report = chernoff_bound(model, 50, 0.7, "upper")
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
        report = chernoff_bound(model, 10, 2.0, "upper")
        assert abs(report.hoeffding_sigma - c.K) <= 1e-12
        assert abs(report.hoeffding_range - c.K) <= 1e-12

    def test_constant_observable_off_its_mean(self):
        # sigma2 = L = 0, so both quadratic exponents are x / 0 = inf
        model = MarkovModel(("a", "b"), [[0.7, 0.3], [0.4, 0.6]],
                            [0.5, 0.5], [0.5, 0.5])
        report = chernoff_bound(model, 10, 0.6, "upper")
        assert report.rate == math.inf
        assert (report.chernoff, report.hoeffding_sigma,
                report.hoeffding_range) == (0.0, 0.0, 0.0)
        at_mean = chernoff_bound(model, 10, 0.5, "upper")
        assert (at_mean.chernoff, at_mean.hoeffding_sigma,
                at_mean.hoeffding_range) == (1.0, 1.0, 1.0)
        assert constants(model, "upper").K == 1.0


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
    init = perron_module.PerronTriple.__init__

    def counted(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(perron_module.PerronTriple, "__init__", counted)
    model = random_positive_model(np.random.default_rng(48), 10)
    assert constants(model, "upper").grid_summary.n_points > 1
    assert len(built) == 1



def count_stacks(monkeypatch) -> list:
    """Record the member count of every ``perron.pf_stack`` call."""
    stacks = []
    pf_stack = perron_module.pf_stack
    monkeypatch.setattr(perron_module, "pf_stack",
                        lambda P, D: stacks.append(len(D)) or pf_stack(P, D))
    return stacks


@pytest.mark.parametrize("name, side, points, calls, members", [
    ("chain2", "upper", 113, 5, 122), ("chain2", "lower", 106, 5, 115),
    ("chain10", "upper", 74, 4, 81), ("chain10", "lower", 69, 4, 76)],
    ids=["chain2-upper", "chain2-lower", "chain10-upper", "chain10-lower"])
def test_constants_perron_work_is_pinned(monkeypatch, name, side, points,
                                         calls, members):
    # one stack for the limit matrix, one per round and one for the
    # vertices of the last fits; a member for each grid point and the limit
    # matrix, and the two ends of an own cell only for theta = 0 and each
    # new guard tilt (a neighbour pair per point gave 337, 961, 349 and 211
    # members; stopping on movement instead of predicted gain took 112,
    # 320, 116 and 70 points in 2, 7, 2 and 1 rounds)
    stacks = count_stacks(monkeypatch)
    c = constants(load_model(str(FIXTURES / f"{name}.yaml")), side)
    assert (c.grid_summary.n_points, len(stacks), sum(stacks)) == (
        points, calls, members)


def test_second_side_reuses_the_checked_zero_tilt(monkeypatch):
    # theta = 0 and the ends of its own cell are solved by the first side only
    model = load_model(str(FIXTURES / "chain2.yaml"))
    constants(model, "upper")
    stacks = count_stacks(monkeypatch)
    assert constants(model, "lower").grid_summary.n_points == 106
    assert sum(stacks) == 115 - 3


def swept_peak(model, side, name, lo, hi, points=401, refinements=4):
    """(argmax, max) of ``name``'s function of the tilt, "K", "L" or "sigma2",
    over the tilts sign * t for ``points`` t evenly spaced on [lo, hi],
    refined ``refinements`` times on the two cells around the sweep's own
    argmax."""
    sign = 1.0 if side == "upper" else -1.0
    fam = TiltedFamily(model)

    def at(theta):
        v, (w, lam2) = fam.at(theta).v, fam.derivatives(theta)
        if name == "sigma2":
            return lam2
        if name == "K":
            return float(v.max() / v.min())
        # max over (x, y) of |w(y) - w(x)| v(y) / v(x)
        ratio = v[None, :] / v[:, None]
        return float(np.max(np.abs(w[None, :] - w[:, None]) * ratio))

    t = np.linspace(lo, hi, points)
    for _ in range(refinements + 1):
        fam.at_many(sign * t)
        y = [at(sign * s) for s in t.tolist()]
        i = int(np.argmax(y))
        peak = (float(sign * t[i]), y[i])
        t = np.linspace(t[max(i - 1, 0)], t[min(i + 1, t.size - 1)], points)
    return peak


@pytest.mark.parametrize("eps", [1e-6, 1e-8])
def test_narrow_crossing_gets_constants_and_a_bound(eps):
    # a quadratic difference of Lambda at step h = 5e-4 (1 + |theta|) read
    # a false alarm at theta = 10.125 (eps = 1e-6) and 10.0 (eps = 1e-8),
    # where the peak of Lambda'' is narrower than 9 h; the cells there
    # split until the peak is resolved, and the fit's vertex reaches it
    # (a stop on movement reported 5.144036 and 51.579069)
    model = spike(eps)
    c = constants(model, "upper")
    report = chernoff_bound(model, 100, 0.9, "upper")
    assert c.grid_summary.converged
    assert report.chernoff <= report.hoeffding_sigma <= report.hoeffding_range
    ref, ref_sup = swept_peak(model, "upper", "sigma2", 9.98, 9.99, points=201)
    assert abs(c.grid_summary.argmax_sigma2 - ref) <= 1e-4
    assert (1.0 - 1e-6) * ref_sup <= c.sigma2 <= ref_sup


@pytest.mark.parametrize("make, side, name, lo, hi", [
    # sigma2 peaks at theta = 0.019, inside the first cell of the grid
    (lambda: mixed_draw(4), "upper", "sigma2", 0.0, 2.0),
    (lambda: spike(1e-4), "upper", "sigma2", 9.0, 11.0),
    # L peaks at theta = -73.3, beyond the first extent 16
    (lambda: pos01(45), "lower", "L", 0.0, 100.0),
    # K peaks at theta = 17.84, beyond the first extent 16: only the second
    # round's block (16, 32] reaches it
    (lambda: bench_positive_chain(1, 348, 10), "upper", "K", 10.0, 30.0),
    # L has two peaks of nearly equal height: fits through the argmax alone
    # stayed at the lower one and read 0.0198939 at theta = -0.757, against
    # 0.0198969 at -1.145
    (lambda: bench_positive_chain(1, 19, 50), "lower", "L", 0.0, 3.0)],
    ids=["chain4-upper-sigma2", "spike-1e-4-sigma2", "pos01-45-lower-L",
         "job348-upper-K", "job19-lower-L"])
def test_suprema_reach_their_dense_sweep(make, side, name, lo, hi):
    # on the first three cases a stop on movement read 0.528567, 0.514224
    # and 2.032075
    model = make()
    c = constants(model, side)
    _, sup = swept_peak(model, side, name, lo, hi)
    assert c.grid_summary.converged and c.grid_summary.tail_guard_passed
    assert (1.0 - 1e-6) * sup <= getattr(c, name) <= sup


@pytest.mark.parametrize("k, side, floor", [
    (49, "upper", 0.12255), (37, "lower", 0.33066), (0, "upper", 0.44725)])
def test_L_beyond_the_first_extent_reaches_the_s_grid(k, side, floor):
    # L peaks beyond theta = 16 on these searches; 64 to 256 points uniform
    # in s = exp(-theta delta) found these values, and a stop on movement
    # read 0.119824, 0.328080 and 0.447194
    assert constants(pos01(k), side).L >= floor


@pytest.mark.parametrize("k, side, lo, hi", [
    (2, "lower", 400.0, 600.0), (33, "upper", 350.0, 450.0),
    (45, "upper", 30.0, 60.0), (28, "upper", 100.0, 170.0)])
def test_L_far_in_the_tail_reaches_its_dense_sweep(k, side, lo, hi):
    # L peaks at theta = -496, 402, 47 and 137, beyond the first lookahead
    # 32, while v there is still far from v_inf; a tail guard that only
    # placed the argmaxes inside the extent stopped at 16 and read 0.1357,
    # 0.2770, 0.1500 and 0.4809 (a stop on movement, which doubled the
    # extent while other constants moved, read 44.812, 0.8743, 0.1611 and
    # 0.4809)
    model = pos01(k)
    c = constants(model, side)
    _, sup = swept_peak(model, side, "L", lo, hi)
    assert c.grid_summary.converged and c.grid_summary.tail_guard_passed
    assert abs(c.grid_summary.argmax_L) > 32.0
    assert (1.0 - 1e-6) * sup <= c.L <= sup


def test_an_unsettled_tail_is_reported(monkeypatch):
    # two rounds reach the lookahead 64, where v is still far from v_inf
    # and L rises towards its peak at theta = -496
    monkeypatch.setattr(bounds_module, "REFINE_ROUNDS", 2)
    summary = constants(pos01(2), "lower").grid_summary
    assert (summary.rounds, summary.theta_max) == (2, 32.0)
    assert not summary.converged and not summary.tail_guard_passed


def test_kinks_of_L_are_told_from_ties():
    # on this chain L's pair (7, 0) ties (0, 7) at theta = 0, where v is
    # constant, keeps the maximum to 0.0175, and hands it to (5, 0) there
    fam = TiltedFamily(bench_positive_chain(1, 240, 10))
    assert not bounds_module._kinked(fam, [0.0, 0.005, 0.01])
    assert bounds_module._kinked(fam, [0.005, 0.01, 0.025])
    # states 1 and 2 of the spike are alike, so their pairs tie
    assert not bounds_module._kinked(TiltedFamily(spike(1e-4)),
                                     [10.44, 10.45, 10.46])


def test_L_next_to_a_kink_reaches_its_dense_sweep():
    # L peaks at theta = 0, and its maximizing pair changes at 0.0175,
    # inside the first cell
    c = constants(bench_positive_chain(1, 240, 10), "upper")
    _, sup = swept_peak(bench_positive_chain(1, 240, 10), "upper", "L",
                        0.0, 0.5)
    assert c.grid_summary.converged
    assert (1.0 - 1e-6) * sup <= c.L <= sup


def test_sparse_searches_return_or_raise_a_typed_error():
    # sparse31 meets A1-A4 on both sides, yet some far tilts, where the
    # weights exp(theta (f - max f)) turn subnormal, fail their Perron solve
    raised = 0
    for k in range(40):
        for side in ("upper", "lower"):
            try:
                constants(sparse31(k), side)
            except (ConvergenceError, CrossCheckError):
                raised += 1
    assert raised == 5


def test_a_kinked_L_must_also_stop_moving(monkeypatch):
    # chain10's upper L moves by more than REFINE_RTOL in the first round,
    # while every fit already predicts less; read as kinked, L holds the
    # search for a second round
    path = str(FIXTURES / "chain10.yaml")
    assert constants(load_model(path), "upper").grid_summary.rounds == 1
    monkeypatch.setattr(bounds_module, "_kinked", lambda fam, thetas: True)
    assert constants(load_model(path), "upper").grid_summary.rounds == 2


def bench_positive_chain(seed: int, job: int, S: int) -> MarkovModel:
    """The bounds_dense benchmark's model of one job (its positive_chain
    draw from default_rng([seed, job])), with a uniform q."""
    rng = np.random.default_rng([seed, job])
    P = 1.0 + 0.5 * rng.random((S, S))
    P /= P.sum(axis=1, keepdims=True)
    f = rng.permutation(np.linspace(0.0, 1.0, S))
    return MarkovModel(tuple(f"s{i}" for i in range(S)), P, f,
                       np.full(S, 1.0 / S))


def mutation_searches():
    """(model maker, side) of every search of the 2026 set whose side's
    assumptions hold, and of the benchmark's fixtures and first two
    bounds_dense jobs."""
    makers = [lambda k=k: mixed_draw(k) for k in range(40)]
    makers += [lambda n=n: load_model(str(FIXTURES / f"{n}.yaml"))
               for n in ("chain2", "chain10")]
    makers += [lambda: bench_positive_chain(1, 0, 10),
               lambda: bench_positive_chain(1, 1, 50)]
    out = []
    for make in makers:
        report = validate(make())
        out += [(make, side) for side, ok in (("upper", report.upper_ok),
                                              ("lower", report.lower_ok)) if ok]
    return out


def first_round(model, side):
    """The first round's tilts, Lambda' and Lambda'' of a search, from the
    model's family, unchecked."""
    fam = family_of(model)
    t = (1.0 if side == "upper" else -1.0) * family_module.half_line_grid()
    fam.at_many(t)
    return (fam, t, [fam.at(s).mean for s in t],
            [fam.derivatives(s)[1] for s in t])


# theta = 0 and the first guard tilt of the searches on both fixtures
LONE_TILTS = [(name, side, sign * t) for name in ("chain2", "chain10")
              for side, sign in (("upper", 1.0), ("lower", -1.0))
              for t in (0.0, 16.0)]


class TestCellCheck:
    @pytest.mark.parametrize("scale", [1.0 + 2e-3, 1.0 - 2e-3])
    def test_one_scaled_value_is_caught(self, scale):
        searches = mutation_searches()
        assert len(searches) == 46 + 8
        for make, side in searches:
            model = make()
            fam, t, _, curvature = first_round(model, side)
            # the first round's cell centre with the largest Lambda''
            i = 1 + int(np.argmax(curvature[1:-1]))
            theta = float(t[i])
            assert curvature[i] >= 5e-3
            point = fam.at(theta)
            fam._points[theta] = dataclasses.replace(
                point, _derivatives=(point._derivatives[0],
                                     scale * curvature[i]))
            with pytest.raises(CrossCheckError,
                               match=rf"theta={theta!r} .* is off by"):
                constants(model, side)

    @pytest.mark.parametrize("increments", [
        lambda x, w: x[None, :] + w[:, None],      # the wrong sign
        lambda x, w: x[None, :] + 0.0 * w[:, None],  # w replaced by 0
    ], ids=["wrong-sign", "w-zero"])
    def test_wrong_variance_formulas_are_caught(self, monkeypatch, increments):
        # Lambda'' = sum_x pi(x) sum_y P_theta(x, y) (x(y) - w(x))^2, with
        # the increments mutated: the mutant fails cells of the first round
        # that pass on clean values (a clean round may split a cell that the
        # next round's tilts resolve anyway), and the search raises
        fundamental = family_module._fundamental

        def mutant(A, P_theta, pi, fc):
            return [None if d is None else (d[0], float(
                        pi[b] @ (P_theta[b] * increments(d[0] + fc[b], d[0]) ** 2
                                 ).sum(axis=1)))
                    for b, d in enumerate(fundamental(A, P_theta, pi, fc))]

        for make, side in mutation_searches():
            fam, t, means, curvature = first_round(make(), side)
            clean = fam.cell_splits(t, means, curvature)
            monkeypatch.setattr(family_module, "_fundamental", mutant)
            model = make()
            fam, t, means, curvature = first_round(model, side)
            assert not set(fam.cell_splits(t, means, curvature)) <= set(clean)
            with pytest.raises(CrossCheckError):
                constants(model, side)
            monkeypatch.setattr(family_module, "_fundamental", fundamental)

    def test_a_mirrored_grid_gives_the_mirrored_splits(self):
        # theta -> -theta with Lambda' -> -Lambda' mirrors every cell: the
        # splits are negated, and a cell at the width floor raises on both
        fam = family_of(spike(1e-6))

        def inputs(t):
            fam.at_many(t)
            return (np.array([fam.at(s).mean for s in t]),
                    np.array([fam.derivatives(s)[1] for s in t]))

        t = np.array([9.5, 9.75, 10.0, 10.25, 10.5])
        means, curvature = inputs(t)
        splits = fam.cell_splits(t, means, curvature)
        assert splits == [9.625, 9.875, 10.125, 10.375]
        assert fam.cell_splits(-t, -means, curvature) == [-s for s in splits]
        # the same grid in decreasing order
        assert fam.cell_splits(t[::-1], means[::-1], curvature[::-1]) \
            == splits[::-1]

        t = 10.0 + np.array([-2e-6, 0.0, 2e-6])
        means, curvature = inputs(t)
        for sign in (1.0, -1.0):
            with pytest.raises(CrossCheckError,
                               match=rf"theta={sign * 10.0!r} .* is off by"):
                fam.cell_splits(sign * t, sign * means, 1.01 * curvature)

    @pytest.mark.parametrize("name, side, theta, scale", [
        (name, side, theta, scale) for name, side, theta in LONE_TILTS
        for scale in (1.0 + 2e-3, 1.0 - 2e-3, math.nan)
        # Lambda''(+-16) of chain2 is below 4e-8, and 2e-3 of it is far
        # below the 1e-6 floor of the tolerance: only NaN is caught there
        if math.isnan(scale) or name == "chain10" or theta == 0.0])
    def test_a_wrong_lone_tilt_is_caught(self, name, side, theta, scale):
        # theta = 0 and the guard tilts centre no cell of the grid: each is
        # checked by a cell of its own
        model = load_model(str(FIXTURES / f"{name}.yaml"))
        fam = family_of(model)
        point = fam.at(theta)
        w, value = point._derivatives
        fam._points[theta] = dataclasses.replace(
            point, _derivatives=(w, scale * value))
        with pytest.raises(CrossCheckError,
                           match=rf"theta={theta!r} \(.*\) is off by"):
            constants(model, side)


@pytest.mark.parametrize("alpha", [300.0, 1000.0])
def test_scaled_f_keeps_its_constants(alpha):
    # the constants of alpha f are K, alpha L and alpha^2 sigma2: only the
    # search grid, in units of theta, is not scale-free
    searches = 0
    for k in range(40):
        model = mixed_draw(k)
        scaled = MarkovModel(model.states, model.P, alpha * model.f, model.q)
        report = validate(model)
        for side, ok in (("upper", report.upper_ok), ("lower", report.lower_ok)):
            if not ok:
                continue
            searches += 1
            c, cs = constants(model, side), constants(scaled, side)
            assert abs(cs.K - c.K) <= 1e-12 * c.K
            assert cs.L / alpha >= 0.98 * c.L
            assert cs.sigma2 / alpha ** 2 >= 0.98 * c.sigma2
    assert searches == 46
