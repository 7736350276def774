import numpy as np
import pytest

from chainbounds import (AssumptionError, DomainError, MarkovModel,
                         chernoff_bound, constants, empirical_tail,
                         limit_matrix, rate_function, validate)
from chainbounds.assumptions import require
from chainbounds.family import limit_triple
from conftest import (birth_death, no_selfloop_top, random_positive_model,
                      two_cycle, two_state)


def test_positive_matrix_all_hold():
    rng = np.random.default_rng(2)
    model = random_positive_model(rng, 3)
    report = validate(model)
    assert report.all_ok
    assert report.violations == ()


def test_missing_selfloop_breaks_block_assumption():
    report = validate(no_selfloop_top())
    assert not report.a1
    assert report.a2  # state -1 does transit to +1
    assert report.S_b == ("1",)
    bad = [v for v in report.violations if v.assumption == "A1"]
    assert len(bad) == 1
    assert bad[0].states == ("1",)
    assert "self-loop" in bad[0].witness


def test_reducible_extreme_block_witness():
    # s0 and s1 both lead only to s2, so P on S_b = {s0, s1} has no cycle
    model = MarkovModel(("s0", "s1", "s2"),
                        [[0, 0, 1], [0, 0, 1], [0.5, 0.5, 0]],
                        [1.0, 1.0, 0.0], [1 / 3, 1 / 3, 1 / 3])
    bad = [v for v in validate(model).violations if v.assumption == "A1"]
    assert [v.witness for v in bad] == [
        "A1: submatrix of P on S_b={s0, s1} is not irreducible"]
    assert bad[0].states == ("s0", "s1")


def test_birth_death_breaks_one_step_reach():
    report = validate(birth_death())
    assert report.a1  # argmax state -1 has a self-loop
    assert not report.a2
    bad = [v for v in report.violations if v.assumption == "A2"]
    assert len(bad) == 1
    assert bad[0].states == ("1",)


def test_negating_f_swaps_sides():
    rng = np.random.default_rng(8)
    for _ in range(10):
        model = random_positive_model(rng, 4)
        # knock out some transitions so the report is not trivially all-true
        P = model.P.copy()
        P[0, 1] = 0.0
        P[0] /= P[0].sum()
        model = MarkovModel(model.states, P, model.f, model.q)
        rep = validate(model)
        neg = validate(model.negated())
        assert (rep.a1, rep.a2) == (neg.a3, neg.a4)
        assert (rep.a3, rep.a4) == (neg.a1, neg.a2)
        assert rep.S_b == neg.S_a and rep.S_a == neg.S_b


def test_positive_rows_any_observable():
    rng = np.random.default_rng(9)
    for _ in range(10):
        model = random_positive_model(rng, int(rng.integers(2, 6)))
        assert validate(model).all_ok


def test_relabeling_invariance():
    rng = np.random.default_rng(10)
    model = birth_death()
    perm = rng.permutation(3)
    permuted = MarkovModel(
        tuple(model.states[i] for i in perm),
        model.P[np.ix_(perm, perm)],
        model.f[perm],
        model.q[perm],
    )
    rep, prep = validate(model), validate(permuted)
    assert (rep.a1, rep.a2, rep.a3, rep.a4) == (prep.a1, prep.a2, prep.a3, prep.a4)
    assert sorted(rep.S_b) == sorted(prep.S_b)
    assert sorted(rep.S_a) == sorted(prep.S_a)


def test_reducible_chain_is_an_error():
    model = MarkovModel(("a", "b"), [[1.0, 0.0], [0.5, 0.5]],
                        [0.0, 1.0], [0.5, 0.5])
    with pytest.raises(AssumptionError, match="not irreducible"):
        validate(model)


def test_two_cycle_fails_both_block_assumptions():
    report = validate(two_cycle())
    assert not report.a1 and not report.a3
    assert report.a2 and report.a4


def test_require_raises_the_side_violations():
    model = no_selfloop_top()
    report = validate(model)
    with pytest.raises(AssumptionError) as exc:
        require(model, "upper")
    assert exc.value.violations == tuple(
        v for v in report.violations if v.assumption in ("A1", "A2"))
    require(model, "lower")
    with pytest.raises(DomainError):
        require(model, "sideways")


@pytest.mark.parametrize("side", ["sideways", ["upper"], None],
                         ids=["sideways", "list", "none"])
def test_every_side_is_read_by_one_gate(side):
    model = two_state(0.3, 0.4)
    calls = (lambda: require(model, side),
             lambda: limit_matrix(model, side),
             lambda: limit_triple(model, side),
             lambda: rate_function(model, 0.5, side),
             lambda: constants(model, side),
             lambda: chernoff_bound(model, 10, 0.5, side),
             lambda: empirical_tail(model, 10, 0.5, side, 10))
    for call in calls:
        with pytest.raises(DomainError) as exc:
            call()
        assert str(exc.value) == (
            f"assumptions: side must be 'upper' or 'lower', got {side!r}")
    # a side that cannot be read never reaches the model's memo
    assert not any(isinstance(key, tuple) for key in model._derived)


def test_report_is_memoized_per_model():
    model = no_selfloop_top()
    report = validate(model)
    assert validate(model) is report
    negated = model.negated()
    flipped = validate(negated)
    assert flipped is not report and validate(negated) is flipped
    assert (flipped.S_b, flipped.S_a) == (report.S_a, report.S_b)
    for _ in range(2):
        with pytest.raises(AssumptionError) as exc:
            require(model, "upper")
        assert str(exc.value) == (
            "assumptions: the upper tail requires A1-A2; A1: submatrix of P "
            "on S_b={1} has no self-loop")


def test_reducible_chain_raises_on_every_call():
    model = MarkovModel(("a", "b"), [[1.0, 0.0], [0.5, 0.5]],
                        [0.0, 1.0], [0.5, 0.5])
    for _ in range(2):
        with pytest.raises(AssumptionError) as exc:
            validate(model)
        assert str(exc.value) == \
            "assumptions: transition matrix is not irreducible"
