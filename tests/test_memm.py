import numpy as np
import pytest

from conftest import decode_lattice, decode_memm
from efbtag.discrim import predict, predict_all_prev, zero_model
from efbtag.errors import InvalidInputError
from efbtag.memm import forward_lattice, memm_forward
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

    @staticmethod
    def sentence(stacked):
        """A 5-token sentence's (first, steps, lengths), alone or as a batch of one."""
        rng = np.random.default_rng(44)
        first, steps = rng.dirichlet(np.ones(3)), [step_table(rng, 3) for _ in range(4)]
        if stacked:
            return first[None], [table[None] for table in steps], [5]
        return first, steps, None

    @pytest.mark.parametrize("stacked", [False, True], ids=["alone", "stacked"])
    @pytest.mark.parametrize("case", ["iterator of steps", "nested-list step", "list first"])
    def test_array_likes_are_taken_as_their_arrays(self, case, stacked):
        first, steps, lengths = self.sentence(stacked)
        want = forward_lattice(first, steps, lengths)
        if case == "iterator of steps":
            steps = iter(steps)
        elif case == "nested-list step":
            steps[1] = steps[1].tolist()
        else:
            first = first.tolist()
        assert forward_lattice(first, steps, lengths).tobytes() == want.tobytes()

    @pytest.mark.parametrize("stacked", [False, True], ids=["alone", "stacked"])
    @pytest.mark.parametrize("case", ["text step", "ragged step", "complex step", "text first"])
    def test_what_is_not_a_real_array_is_refused(self, case, stacked):
        first, steps, lengths = self.sentence(stacked)
        bad = {"text step": "x", "ragged step": [0.5], "complex step": 0.5 + 1j}.get(case)
        if bad is None:
            first = np.full(first.shape, "x").tolist()
        else:
            steps[1] = steps[1].tolist()
            (steps[1][0] if stacked else steps[1])[0] = bad
        with pytest.raises(InvalidInputError, match="must be real numbers"):
            forward_lattice(first, steps, lengths)

    @pytest.mark.parametrize("stacked", [False, True], ids=["alone", "stacked"])
    @pytest.mark.parametrize("dtype", [complex, object, str])
    @pytest.mark.parametrize("where", ["first", "step", "every step"])
    def test_an_ndarray_that_is_not_real_is_refused(self, where, dtype, stacked):
        """A complex, object or text ndarray is refused by its dtype, not cast
        (a complex entry would lose its imaginary part) or met by a numpy
        error; alone, the steps may come as one (T - 1, N, N) array."""
        first, steps, lengths = self.sentence(stacked)
        if where == "first":
            first = first.astype(dtype)
        elif where == "step":
            steps[1] = steps[1].astype(dtype)
        else:
            steps = np.stack(steps).astype(dtype)
        with pytest.raises(InvalidInputError, match="must be real numbers"):
            forward_lattice(first, steps, lengths)

    @pytest.mark.parametrize("stacked", [False, True], ids=["alone", "stacked"])
    @pytest.mark.parametrize("dtype", [int, bool, np.float32])
    @pytest.mark.parametrize("where", ["first", "step", "every step"])
    def test_a_real_ndarray_gives_the_bytes_of_its_float64_array(self, where, dtype, stacked):
        """An int, bool or float32 ndarray is taken as its float64 array."""
        first, steps, lengths = self.sentence(stacked)
        scaled = {int: lambda a: (a * 4).astype(int), bool: lambda a: a > 0.3,
                  np.float32: lambda a: a.astype(np.float32)}[dtype]
        if where == "first":
            first = scaled(first)
            want = forward_lattice(first.astype(np.float64), steps, lengths)
        elif where == "step":
            steps[1] = scaled(steps[1])
            want = forward_lattice(first, [s.astype(np.float64) for s in steps], lengths)
        else:
            steps = [scaled(s) for s in steps]
            want = forward_lattice(first, [s.astype(np.float64) for s in steps], lengths)
            if not stacked:
                steps = np.stack(steps)
        assert forward_lattice(first, steps, lengths).tobytes() == want.tobytes()

    def test_one_array_of_steps_gives_the_bytes_of_a_list(self):
        first, steps, _ = self.sentence(False)
        want = forward_lattice(first, steps)
        assert forward_lattice(first, np.stack(steps)).tobytes() == want.tobytes()


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


class TestMemmForward:
    def _models(self, rng, n_features=4, n_labels=2):
        l0 = zero_model(n_features, n_labels, conditions_on_prev=False)
        l1 = zero_model(n_features, n_labels, conditions_on_prev=True)
        l0.weights[:] = rng.normal(0, 0.5, l0.weights.shape)
        l1.weights[:] = rng.normal(0, 0.5, l1.weights.shape)
        return l0, l1

    def test_forward_matches_explicit_tables(self):
        rng = np.random.default_rng(49)
        l0, l1 = self._models(rng)
        obs = [[0, 2], [1, 3], [3, 0]]
        fast = memm_forward(l0, l1, obs)
        first = predict(l0, obs[0])
        steps = [predict_all_prev(l1, fv) for fv in obs[1:]]
        slow = memm_posterior_bruteforce(first, steps)
        assert np.max(np.abs(fast - slow)) <= 1e-10

    def test_single_token_is_l0(self):
        rng = np.random.default_rng(51)
        l0, l1 = self._models(rng)
        assert decode_memm(l0, l1, [[1]]) == [int(np.argmax(predict(l0, [1])))]

    @pytest.mark.parametrize("obs, lengths", [
        ([[1]], None), ([[1], [0], [1]], None), ([[1]], [1]), ([[1], [0], [1]], [2, 1]),
    ], ids=["one-token", "one-sentence", "lockstep-one-token", "lockstep"])
    def test_conditioning_flags_validated(self, obs, lengths):
        """Models swapped, or l1 not conditioned on the previous label, raise
        for every sentence, a one-token one too."""
        l0, l1 = self._models(np.random.default_rng(53))
        for first, rest in ((l1, l0), (l1, l1), (l0, l0)):
            with pytest.raises(InvalidInputError, match="condition"):
                memm_forward(first, rest, obs, lengths)

    @pytest.mark.parametrize("lengths", [None, [2, 1]], ids=["one", "lockstep"])
    def test_label_counts_must_agree(self, lengths):
        l0, _ = self._models(np.random.default_rng(57), n_labels=2)
        _, l1 = self._models(np.random.default_rng(57), n_labels=3)
        with pytest.raises(InvalidInputError, match="conditional table shape mismatch"):
            memm_forward(l0, l1, [[1], [0], [1]], lengths)

    def test_empty_observation_rejected(self):
        rng = np.random.default_rng(55)
        with pytest.raises(InvalidInputError):
            memm_forward(*self._models(rng), [])


def test_decode_lattice_rejects_rows_that_are_not_distributions():
    with pytest.raises(InvalidInputError):
        decode_lattice(np.array([[0.6, 0.4], [0.5, 0.2]]))
