import numpy as np
import pytest

from chainbounds import (MarkovModel, ModelFormatError, is_irreducible,
                         level_sets, load_model, parse_model)
from conftest import birth_death, random_irreducible_model, two_cycle

TWO_CYCLE_DOC = """
states: ["-1", "1"]
P:
  - [0, 1]
  - [1, 0]
f: [-1, 1]
"""


class TestParsing:
    def test_two_cycle_file_accepted(self, write_model):
        model = load_model(write_model(TWO_CYCLE_DOC))
        assert model.states == ("-1", "1")
        assert np.array_equal(model.P, [[0.0, 1.0], [1.0, 0.0]])
        assert np.array_equal(model.f, [-1.0, 1.0])
        # q defaults to uniform
        assert np.allclose(model.q, [0.5, 0.5])

    def test_single_state_model(self):
        model = parse_model("states: [a]\nP: [[1]]\nf: [0.5]\nq: [1]\n")
        assert model.n_states == 1
        assert model.f[0] == 0.5

    def test_row_not_stochastic(self):
        doc = "states: [a, b]\nP: [[0.5, 0.4], [0.5, 0.5]]\nf: [0, 1]\n"
        with pytest.raises(ModelFormatError, match="row 0.*not stochastic"):
            parse_model(doc)

    def test_negative_entry_names_position(self):
        doc = "states: [a, b]\nP: [[1.2, -0.2], [0.5, 0.5]]\nf: [0, 1]\n"
        with pytest.raises(ModelFormatError,
                           match=r"^model: P\[0\]\[1\] = -0\.2 is negative$"):
            parse_model(doc)

    def test_negative_q_names_position(self):
        doc = "states: [a, b]\nP: [[0.5, 0.5], [0.5, 0.5]]\nf: [0, 1]\nq: [1.5, -0.5]\n"
        with pytest.raises(ModelFormatError,
                           match=r"^model: q\[1\] = -0\.5 is negative$"):
            parse_model(doc)

    def test_dimension_mismatch(self):
        doc = "states: [a, b, c]\nP: [[0.5, 0.5], [0.5, 0.5]]\nf: [0, 1, 2]\n"
        with pytest.raises(ModelFormatError, match="shape"):
            parse_model(doc)

    def test_f_length_mismatch(self):
        doc = "states: [a, b]\nP: [[0.5, 0.5], [0.5, 0.5]]\nf: [0]\n"
        with pytest.raises(ModelFormatError, match="f has length"):
            parse_model(doc)

    def test_parse_failure(self):
        with pytest.raises(ModelFormatError, match="parse failure"):
            parse_model("states: [a\n  ::: nope")

    def test_missing_keys(self):
        with pytest.raises(ModelFormatError, match="missing keys"):
            parse_model("states: [a]\nP: [[1]]\n")

    def test_unknown_key_rejected(self):
        doc = "states: [a]\nP: [[1]]\nf: [0]\ngg: 3\n"
        with pytest.raises(ModelFormatError, match="unknown keys"):
            parse_model(doc)

    def test_bad_q_sum(self):
        doc = "states: [a, b]\nP: [[0.5, 0.5], [0.5, 0.5]]\nf: [0, 1]\nq: [0.5, 0.6]\n"
        with pytest.raises(ModelFormatError, match="q sums"):
            parse_model(doc)

    @pytest.mark.parametrize("states, P, f, q, message", [
        ((), np.zeros((0, 0)), [], [], "at least one state is required"),
        (("a", "b"), np.full((2, 2), 0.5), [0.0, 1.0], [1.0], "q has length"),
        (("a", "b"), np.full((2, 2), 0.5), ["x", 1.0], [0.5, 0.5],
         "f is not numeric"),
        (("a", "b"), np.full((2, 2), 0.5), [0.0, np.inf], [0.5, 0.5],
         "f contains non-finite entries"),
        (("a", "b"), [[0.5, np.nan], [0.5, 0.5]], [0.0, 1.0], [0.5, 0.5],
         "P contains non-finite entries"),
    ])
    def test_constructor_gates(self, states, P, f, q, message):
        with pytest.raises(ModelFormatError, match=f"^model: {message}"):
            MarkovModel(states, P, f, q)

    @pytest.mark.parametrize("doc, message", [
        ("- a\n- b\n", "document must be a mapping"),
        ("states: []\nP: []\nf: []\n", "states must be a nonempty list"),
    ])
    def test_document_shape_gates(self, doc, message):
        with pytest.raises(ModelFormatError, match=f"^model: {message}$"):
            parse_model(doc)

    def test_json_document_accepted(self):
        doc = '{"states": ["a", "b"], "P": [[0.5, 0.5], [1, 0]], "f": [0, 1]}'
        model = parse_model(doc)
        assert model.P[1, 0] == 1.0

    def test_model_is_immutable(self):
        model = two_cycle()
        with pytest.raises(ValueError):
            model.P[0, 0] = 1.0


class TestIrreducibility:
    def test_two_cycle_true(self):
        assert is_irreducible(np.array([[0.0, 1.0], [1.0, 0.0]]))

    def test_identity_false(self):
        assert not is_irreducible(np.eye(2))

    def test_birth_death_true(self):
        assert is_irreducible(birth_death().P)

    def test_one_state(self):
        assert is_irreducible(np.array([[0.3]]))
        assert not is_irreducible(np.array([[0.0]]))

    def test_non_square_rejected(self):
        with pytest.raises(ValueError, match="must be square"):
            is_irreducible(np.ones((2, 3)))

    def test_lower_triangular_false(self):
        assert not is_irreducible(np.array([[1.0, 0.0], [0.5, 0.5]]))

    def test_permutation_invariance(self):
        rng = np.random.default_rng(11)
        for _ in range(25):
            n = int(rng.integers(2, 7))
            M = rng.uniform(0, 1, (n, n)) * (rng.uniform(0, 1, (n, n)) < 0.5)
            perm = rng.permutation(n)
            conj = M[np.ix_(perm, perm)]
            assert is_irreducible(M) == is_irreducible(conj)


class TestLevelSets:
    def test_two_point_observable(self):
        ls = level_sets(two_cycle())
        assert (ls.a, ls.b) == (-1.0, 1.0)
        assert ls.S_a == (0,)
        assert ls.S_b == (1,)

    def test_constant_observable(self):
        model = MarkovModel(("a", "b", "c"),
                            np.full((3, 3), 1 / 3), [3.0, 3.0, 3.0],
                            [1 / 3, 1 / 3, 1 / 3])
        ls = level_sets(model)
        assert ls.S_a == ls.S_b == (0, 1, 2)

    def test_birth_death_argmax(self):
        ls = level_sets(birth_death())
        # f = -x peaks at state -1 (index 0)
        assert ls.S_b == (0,)
        assert ls.b == 1.0

    def test_negation_swaps_sets(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            model = random_irreducible_model(rng, 4)
            ls = level_sets(model)
            neg = level_sets(model.negated())
            assert neg.a == -ls.b and neg.b == -ls.a
            assert neg.S_a == ls.S_b and neg.S_b == ls.S_a

    def test_exact_tie_detection(self):
        model = MarkovModel(("a", "b", "c"), np.full((3, 3), 1 / 3),
                            [1.0, 1.0, 0.0], [1 / 3, 1 / 3, 1 / 3])
        assert level_sets(model).S_b == (0, 1)


def test_q_stays_probability_vector():
    rng = np.random.default_rng(7)
    for _ in range(10):
        model = random_irreducible_model(rng, int(rng.integers(2, 6)))
        vec = model.q.copy()
        for _ in range(40):
            vec = vec @ model.P
            assert abs(vec.sum() - 1.0) < 1e-10
            assert vec.min() >= -1e-14
