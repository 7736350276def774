import math
import re
import time

import numpy as np
import pytest

from chainbounds import (AssumptionError, ConvergenceError, MarkovModel,
                         TiltedFamily, constants, limit_matrix,
                         pf_irreducible)
from chainbounds.perron import pf_stack
from conftest import (birth_death, iid_model, no_selfloop_top,
                      random_irreducible_model, random_positive_model,
                      two_cycle, two_state)
from oracles import (charpoly_spectral_radius, two_cycle_right_eigvec,
                     two_state_tilted_rho)


def tilted(P, f, theta):
    return np.asarray(P) * np.exp(theta * np.asarray(f))[None, :]


def triple_invariants(M, tri):
    """The normalization and residual contract every triple must meet."""
    tol = 1e-11 * M.max()
    assert np.abs(M.T @ tri.u - tri.rho * tri.u).max() <= tol
    assert np.abs(M @ tri.v - tri.rho * tri.v).max() <= tol
    assert abs(tri.u.sum() - 1.0) <= 1e-12
    assert abs(float(tri.u @ tri.v) - 1.0) <= 1e-12
    assert tri.v.min() > 0.0


class TestIrreducibleSolver:
    def test_scalar_matrix(self):
        tri = pf_irreducible(np.array([[0.37]]))
        assert tri.rho == 0.37
        assert tri.u[0] == 1.0 and tri.v[0] == 1.0

    def test_tilted_two_cycle_closed_form(self):
        P, f = two_cycle().P, two_cycle().f
        for theta in (0.0, 0.5, 1.0, 2.0, 5.0):
            tri = pf_irreducible(tilted(P, f, theta))
            assert abs(tri.rho - 1.0) <= 1e-12
            assert np.abs(tri.v - two_cycle_right_eigvec(theta)).max() <= 1e-10

    def test_quadratic_oracle(self):
        rng = np.random.default_rng(5)
        for _ in range(30):
            p, q = rng.uniform(0.05, 0.95, 2)
            theta = rng.uniform(-3, 3)
            model = two_state(p, q)
            tri = pf_irreducible(tilted(model.P, model.f, theta))
            expected = two_state_tilted_rho(p, q, theta)
            assert abs(tri.rho - expected) <= 1e-12 * expected

    def test_invariants_on_random_matrices(self):
        rng = np.random.default_rng(17)
        for _ in range(25):
            n = int(rng.integers(2, 7))
            M = rng.uniform(0.05, 2.0, (n, n))
            tri = pf_irreducible(M)
            triple_invariants(M, tri)
            assert tri.u.min() > 0.0

    def test_scale_equivariance(self):
        rng = np.random.default_rng(23)
        M = rng.uniform(0.1, 1.0, (4, 4))
        base = pf_irreducible(M)
        for c in (0.5, 2.0, 10.0):
            tri = pf_irreducible(c * M)
            assert abs(tri.rho - c * base.rho) <= 1e-10 * c * base.rho
            assert np.abs(tri.u - base.u).max() <= 1e-10
            assert np.abs(tri.v - base.v).max() <= 1e-10

    def test_permutation_equivariance(self):
        rng = np.random.default_rng(29)
        M = rng.uniform(0.1, 1.0, (5, 5))
        base = pf_irreducible(M)
        for _ in range(5):
            perm = rng.permutation(5)
            tri = pf_irreducible(M[np.ix_(perm, perm)])
            assert abs(tri.rho - base.rho) <= 1e-10
            assert np.abs(tri.u - base.u[perm]).max() <= 1e-10
            assert np.abs(tri.v - base.v[perm]).max() <= 1e-10

    def test_deterministic(self):
        M = np.array([[0.2, 0.8], [0.6, 0.4]])
        a, b = pf_irreducible(M), pf_irreducible(M)
        assert a.rho == b.rho
        assert np.array_equal(a.v, b.v)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_nonfinite_entries_rejected(self, bad):
        M = np.array([[0.5, 0.5], [0.25, 0.75]])
        M[1, 0] = bad
        with pytest.raises(ValueError, match="finite"):
            pf_irreducible(M)

    def test_birth_death_closed_form(self):
        # radical coefficient -5 checked against a dense eigensolver;
        # with it the formula gives rho(0) = 1 as it must
        model = birth_death()
        for theta in (0.0, 0.25, 0.5, 1.0, 2.0, 4.0):
            tri = pf_irreducible(tilted(model.P, model.f, theta))
            e = math.exp(-theta)
            radicand = 1 + 2 * e - 5 * e**2 + 2 * e**3 + e**4
            expected = 0.25 * math.exp(theta) * (1 + e + e**2
                                                 + math.sqrt(radicand))
            assert abs(tri.rho - expected) <= 1e-10 * expected
            ratio = tri.v[1] / tri.v[2]
            assert abs(ratio - (2 * tri.rho - e)) <= 1e-9 * max(1.0, ratio)


def same_member(stack, b, tri):
    """Member b of a ``pf_stack`` result is solved and equals the triple
    byte for byte."""
    rho, U, V, gap, errors = stack
    return (errors[b] is None and rho[b] == tri.rho and gap[b] == tri.gap
            and U[b].tobytes() == tri.u.tobytes()
            and V[b].tobytes() == tri.v.tobytes())


class TestStackedSolver:
    """``pf_stack(P, D)``: member b is P diag(D[b]), solved as alone."""

    def test_members_equal_solo_solves(self):
        rng = np.random.default_rng(41)
        for n in (2, 3, 5, 10, 50):
            P = rng.uniform(0.0, 1.0, (n, n))
            D = rng.uniform(0.0, 1.0, (7, n))
            D[3] *= 1e-200
            stack = pf_stack(P, D)
            assert not any(x.flags.writeable for x in stack[:4])
            for b, d in enumerate(D):
                assert same_member(stack, b, pf_irreducible(P, d))

    def test_a_bad_member_fails_alone(self):
        # bad input fails the whole call; a member whose solve fails (the
        # zero row) fails alone, and its neighbours equal their solo solves
        P = np.array([[0.2, 0.8], [0.6, 0.4]])
        D = np.array([[1.0, 0.5], [0.0, 0.0], [0.3, 2.0]])
        for row, match in (([1.0, np.nan], "finite"),
                           ([-0.1, 1.0], "nonnegative")):
            with pytest.raises(ValueError, match=match):
                pf_stack(P, np.vstack([D, row]))
        stack = pf_stack(P, D)
        error = stack[4][1]
        assert isinstance(error, ConvergenceError)
        with pytest.raises(ConvergenceError, match=re.escape(str(error))):
            pf_irreducible(P, D[1])
        for i in (0, 2):
            assert same_member(stack, i, pf_irreducible(P, D[i]))

    @pytest.mark.parametrize("bad, match", [(np.nan, "finite"),
                                            (-0.1, "nonnegative")])
    def test_a_bad_matrix_fails_every_member(self, bad, match):
        P = np.array([[0.2, 0.8], [0.6, 0.4]])
        P[1, 0] = bad
        with pytest.raises(ValueError, match=match):
            pf_stack(P, np.ones((3, 2)))

    def test_scalar_members(self):
        # the general path gives rho = P[0, 0] * d exactly; a zero member
        # fails its solve alone
        rho, U, V, _, errors = pf_stack(np.array([[1.0]]),
                                        np.array([[0.37], [0.0]]))
        assert errors[0] is None and rho[0] == 0.37
        assert U[0, 0] == 1.0 and V[0, 0] == 1.0
        assert isinstance(errors[1], ConvergenceError)
        with pytest.raises(ValueError, match="finite"):
            pf_stack(np.array([[1.0]]), np.array([[0.37], [np.inf]]))

    def test_shape_checked(self):
        with pytest.raises(ValueError, match="shape"):
            pf_stack(np.ones((2, 3)), np.ones((1, 3)))
        with pytest.raises(ValueError, match="shape"):
            pf_stack(np.ones((2, 2)), np.ones((1, 3)))


def support(x):
    return tuple(int(i) for i in np.flatnonzero(x))


def tiny_selfloop_chain():
    """The f-argmax state c keeps itself with probability 1e-9 only."""
    P = np.array([[0.5, 0.25, 0.25],
                  [0.3, 0.3, 0.4],
                  [0.5, 0.5 - 1e-9, 1e-9]])
    return MarkovModel(("a", "b", "c"), P, [0.0, 0.5, 1.0],
                       [1 / 3, 1 / 3, 1 / 3])


def near_periodic_cycle():
    """The 3-cycle a -> b -> c -> a, mixed with 1e-3 of uniform jumps."""
    P = (1 - 1e-3) * np.roll(np.eye(3), 1, axis=1) + 1e-3 / 3
    return MarkovModel(("a", "b", "c"), P, [0.0, 0.5, 1.0],
                       [1 / 3, 1 / 3, 1 / 3])


def positive_draw(k):
    """Draw k (from 0) of positive chains with 2-12 states: P and f uniform
    on [0, 1), rows of P normalized, from default_rng(17)."""
    rng = np.random.default_rng(17)
    for _ in range(k + 1):
        S = int(rng.integers(2, 13))
        P = rng.random((S, S))
        P /= P.sum(axis=1, keepdims=True)
        f = rng.random(S)
    return MarkovModel(tuple(f"s{i}" for i in range(S)), P, f,
                       np.full(S, 1.0 / S))


class TestExtendedSolver:
    """``limit_matrix``: the member of P with weight 1 on the core (the
    side's extreme set of f) and 0 elsewhere, solved by ``pf_irreducible``."""

    def test_full_core_matches_irreducible(self):
        # constant f: every state is in the argmax set, so the limit
        # matrix is P itself, with rho = 1 and v = 1
        rng = np.random.default_rng(31)
        P = rng.uniform(0.1, 1.0, (4, 4))
        P /= P.sum(axis=1, keepdims=True)
        model = MarkovModel(tuple("abcd"), P, [0.5] * 4, [0.25] * 4)
        Mbar, tri = limit_matrix(model, "upper")
        base = pf_irreducible(P)
        assert np.array_equal(Mbar, model.P)
        assert abs(tri.rho - 1.0) <= 1e-12
        assert np.abs(tri.v - 1.0).max() <= 1e-12
        assert abs(tri.rho - base.rho) <= 1e-12
        assert np.abs(tri.v - base.v).max() <= 1e-12
        triple_invariants(Mbar, tri)

    def test_tiny_block_example(self):
        # identical rows: the fringe row equals the core row, so v = 1
        Mbar, tri = limit_matrix(iid_model(0.25), "upper")
        assert tri.rho == 0.25
        assert np.array_equal(tri.u, [0.0, 1.0])
        assert np.array_equal(tri.v, [1.0, 1.0])

    def test_two_state_limit_by_hand(self):
        # columns of P kept on the f-argmax state only
        Mbar, tri = limit_matrix(two_state(0.3, 0.3), "upper")
        assert np.array_equal(Mbar, [[0.0, 0.3], [0.0, 0.7]])
        assert abs(tri.rho - 0.7) <= 1e-14
        assert np.abs(tri.v - np.array([0.3 / 0.7, 1.0])).max() <= 1e-12
        assert np.array_equal(tri.u, [0.0, 1.0])

    def test_against_charpoly_oracle(self):
        # f ties at its maximum on k = 1..3 of 4 states, in random places
        rng = np.random.default_rng(37)
        for _ in range(20):
            k = int(rng.integers(1, 4))
            model = random_positive_model(rng, 4)
            top = rng.permutation(4)[:k]
            f = rng.uniform(-1.0, 0.5, 4)
            f[top] = 1.0
            model = MarkovModel(model.states, model.P, f, model.q)
            Mbar, tri = limit_matrix(model, "upper")
            assert support(tri.u) == tuple(sorted(int(i) for i in top))
            assert abs(tri.rho - charpoly_spectral_radius(Mbar)) <= 1e-9
            triple_invariants(Mbar, tri)

    def test_tiny_argmax_selfloop(self):
        # the core is the state c alone, so u = (0, 0, 1) and the
        # Rayleigh quotient u'Mv / u'v is rho = P(c, c) exactly
        model = tiny_selfloop_chain()
        Mbar, tri = limit_matrix(model, "upper")
        assert tri.rho == 1e-9
        assert np.array_equal(tri.u, [0.0, 0.0, 1.0])
        assert np.abs(tri.v / [0.25e9, 0.4e9, 1.0] - 1.0).max() <= 1e-12
        triple_invariants(Mbar, tri)


def periodic_core_draws(count=20):
    """Positive chains of 3-8 states whose f-argmax set, two random states,
    is a 2-cycle: the core keeps no self-loop, so its limit block has the
    eigenvalues +-rho and power steps on it oscillate."""
    rng = np.random.default_rng(53)
    for _ in range(count):
        n = int(rng.integers(3, 9))
        core = rng.permutation(n)[:2]
        P = rng.uniform(0.1, 1.0, (n, n))
        P[core, core] = 0.0
        P /= P.sum(axis=1, keepdims=True)
        f = rng.uniform(-1.0, 0.5, n)
        f[core] = 1.0
        yield MarkovModel(tuple(f"s{i}" for i in range(n)), P, f,
                          np.full(n, 1.0 / n)), tuple(sorted(core.tolist()))


class TestLimitMatrix:
    def test_iid_rank_one(self):
        model = iid_model(0.3)
        Mbar, tri = limit_matrix(model, "upper")
        assert support(tri.u) == (1,)
        assert abs(tri.rho - 0.3) <= 1e-14
        assert np.array_equal(Mbar[:, 0], [0.0, 0.0])

    def test_assumption_violation_propagates(self):
        with pytest.raises(AssumptionError, match="A1"):
            limit_matrix(two_cycle(), "upper")
        with pytest.raises(AssumptionError, match="A2"):
            limit_matrix(birth_death(), "upper")

    def test_selfloop_weight_is_rho(self):
        P = np.array([[0.6, 0.2, 0.2],
                      [0.3, 0.3, 0.4],
                      [0.25, 0.25, 0.5]])
        model = MarkovModel(("a", "b", "c"), P, [0.0, 0.2, 1.0],
                            [1 / 3, 1 / 3, 1 / 3])
        _, tri = limit_matrix(model, "upper")
        assert support(tri.u) == (2,)
        assert abs(tri.rho - 0.5) <= 1e-14

    def test_lower_side_uses_argmin_columns(self):
        model = two_state(0.3, 0.3)
        Mbar, tri = limit_matrix(model, "lower")
        assert support(tri.u) == (0,)
        assert abs(tri.rho - 0.7) <= 1e-14
        assert np.array_equal(Mbar[:, 1], [0.0, 0.0])

    def test_periodic_core(self):
        for model, core in periodic_core_draws():
            Mbar, tri = limit_matrix(model, "upper")
            assert support(tri.u) == core
            assert abs(tri.rho - charpoly_spectral_radius(Mbar)) <= 1e-9
            triple_invariants(Mbar, tri)


class TestHardChains:
    """Tilts with starved states or a nearly periodic pattern: Lambda
    against values computed once with 60+ digit arithmetic (mpmath eig of
    P diag(exp(theta f)), precision grown with |theta|)."""

    @pytest.mark.parametrize("chain, side, reference", [
        # tiny argmax self-loop, upper side
        (tiny_selfloop_chain, "upper", {52.0: 38.19577643336203,
                                        64.0: 47.20521588995445,
                                        128.0: 107.27673416308566,
                                        256.0: 235.2767341630536}),
        # near-periodic 3-cycle: theta = 7.625 and its cross-check stencil
        (near_periodic_cycle, "upper", {7.6206875: 3.8199456466527777,
                                        7.625: 3.8221235605842043,
                                        7.6293125: 3.824301521317414}),
        # 11-state positive chain with smallest entry 6.1e-6, lower side
        (lambda: positive_draw(43), "lower", {-51.25: -13.945694572883596,
                                              -51.5: -13.98772653536945,
                                              -51.75: -14.02902981375559,
                                              -2048.75: -114.21741051051814}),
    ], ids=["tiny_selfloop", "near_periodic_cycle", "positive_draw_43"])
    def test_constants_and_lambda(self, chain, side, reference):
        model = chain()
        consts = constants(model, side)
        assert consts.K >= 1.0 and math.isfinite(consts.L)
        family = TiltedFamily(model)
        for theta, expected in reference.items():
            assert (abs(family.at(theta).Lambda - expected)
                    <= 1e-14 * abs(expected))

    def test_sparse_tilts_agree_with_eig_or_fail_fast(self):
        # sparse tilts agree with a dense eigensolver, nilpotent ones raise,
        # and each takes at most 50 ms
        rng = np.random.default_rng(1)
        models = [random_irreducible_model(rng, n) for n in range(3, 15, 2)]
        sparse = [(model, theta) for model in models
                  for theta in (-200.0, -50.0, 200.0)]
        # nilpotent tilts: the weight of the f-argmin state underflows to 0
        nilpotent = [(no_selfloop_top(), 1000.0), (two_cycle(), 600.0)]
        for k, (model, theta) in enumerate(sparse + nilpotent):
            start = time.perf_counter()
            try:
                Lambda = TiltedFamily(model).at(theta).Lambda
            except ConvergenceError:
                Lambda = None
            assert time.perf_counter() - start <= 0.05
            if k >= len(sparse):
                assert Lambda is None
                continue
            assert Lambda is not None
            expo = theta * model.f
            M = model.P * np.exp(expo - expo.max())
            dense = math.log(np.abs(np.linalg.eigvals(M)).max()) + expo.max()
            assert abs(Lambda - dense) <= 1e-13 * max(1.0, abs(dense))
