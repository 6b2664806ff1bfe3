import numpy as np
import pytest

from conftest import decode_lattice, decode_memm
from efbtag.core import TagSet
from efbtag.discrim import predict, predict_all_prev, zero_model
from efbtag.errors import InvalidInputError
from efbtag.memm import MemmModel, forward_lattice, memm_forward
from efbtag.oracle import memm_posterior_bruteforce


def step_table(rng, n):
    # column j is the conditional given previous label j
    return rng.dirichlet(np.ones(n), size=n).T


class TestForwardLattice:
    def test_base_case(self):
        first = np.array([0.6, 0.4])
        out = forward_lattice(first, [])
        assert np.allclose(out, [[0.6, 0.4]])

    def test_worked_two_step(self):
        first = np.array([0.6, 0.4])
        step = np.array([[0.9, 0.2], [0.1, 0.8]])
        out = forward_lattice(first, [step])
        assert np.allclose(out[1], [0.62, 0.38])

    def test_rows_are_distributions_without_renormalization(self):
        rng = np.random.default_rng(41)
        for _ in range(50):
            n = int(rng.integers(2, 5))
            t_len = int(rng.integers(1, 7))
            first = rng.dirichlet(np.ones(n))
            steps = [step_table(rng, n) for _ in range(t_len - 1)]
            out = forward_lattice(first, steps)
            assert np.max(np.abs(out.sum(axis=1) - 1.0)) <= 1e-12

    def test_matches_prefix_enumeration(self):
        rng = np.random.default_rng(43)
        for _ in range(40):
            n = int(rng.integers(2, 5))
            t_len = int(rng.integers(1, 7))
            first = rng.dirichlet(np.ones(n))
            steps = [step_table(rng, n) for _ in range(t_len - 1)]
            fast = forward_lattice(first, steps)
            slow = memm_posterior_bruteforce(first, steps)
            assert np.max(np.abs(fast - slow)) <= 1e-10

    def test_shape_mismatch_rejected(self):
        with pytest.raises(InvalidInputError):
            forward_lattice(np.array([0.5, 0.5]), [np.eye(3)])


class TestDecode:
    def test_worked_example_labels(self):
        first = np.array([0.6, 0.4])
        step = np.array([[0.9, 0.2], [0.1, 0.8]])
        assert decode_lattice(forward_lattice(first, [step])) == [0, 0]

    def test_single_position_argmax(self):
        assert decode_lattice(forward_lattice(np.array([0.3, 0.7]), [])) == [1]

    def test_deterministic_one_hot_steps_follow_transitions(self):
        first = np.array([0.0, 1.0, 0.0])
        # prev 0 -> 1, prev 1 -> 2, prev 2 -> 0, deterministically
        step = np.zeros((3, 3))
        step[1, 0] = step[2, 1] = step[0, 2] = 1.0
        out = forward_lattice(first, [step, step, step])
        assert decode_lattice(out) == [1, 2, 0, 1]

    def test_prefix_causality(self):
        rng = np.random.default_rng(47)
        n, t_len = 3, 6
        first = rng.dirichlet(np.ones(n))
        steps = [step_table(rng, n) for _ in range(t_len - 1)]
        full = decode_lattice(forward_lattice(first, steps))
        for cut in range(1, t_len):
            truncated = decode_lattice(forward_lattice(first, steps[: cut - 1]))
            assert truncated == full[:cut]


class TestMemmModel:
    def _model(self, rng, n_features=4, n_labels=2):
        l0 = zero_model(n_features, n_labels, conditions_on_prev=False)
        l1 = zero_model(n_features, n_labels, conditions_on_prev=True)
        l0.weights[:] = rng.normal(0, 0.5, l0.weights.shape)
        l1.weights[:] = rng.normal(0, 0.5, l1.weights.shape)
        tagset = TagSet.from_labels([f"T{i}" for i in range(n_labels)])
        return MemmModel(l0=l0, l1=l1, tagset=tagset)

    def test_forward_matches_explicit_tables(self):
        rng = np.random.default_rng(49)
        model = self._model(rng)
        obs = [[0, 2], [1, 3], [3, 0]]
        fast = memm_forward(model, obs)
        first = predict(model.l0, obs[0])
        steps = [predict_all_prev(model.l1, fv) for fv in obs[1:]]
        slow = memm_posterior_bruteforce(first, steps)
        assert np.max(np.abs(fast - slow)) <= 1e-10

    def test_single_token_is_l0(self):
        rng = np.random.default_rng(51)
        model = self._model(rng)
        assert decode_memm(model, [[1]]) == [int(np.argmax(predict(model.l0, [1])))]

    def test_conditioning_flags_validated(self):
        l0 = zero_model(2, 2, conditions_on_prev=False)
        l1 = zero_model(2, 2, conditions_on_prev=True)
        tagset = TagSet.from_labels(["A", "B"])
        with pytest.raises(InvalidInputError):
            MemmModel(l0=l1, l1=l1, tagset=tagset)
        with pytest.raises(InvalidInputError):
            MemmModel(l0=l0, l1=l0, tagset=tagset)

    def test_empty_observation_rejected(self):
        rng = np.random.default_rng(55)
        with pytest.raises(InvalidInputError):
            memm_forward(self._model(rng), [])


def test_decode_lattice_rejects_rows_that_are_not_distributions():
    with pytest.raises(InvalidInputError):
        decode_lattice(np.array([[0.6, 0.4], [0.5, 0.2]]))
