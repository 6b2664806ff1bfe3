import numpy as np
import pytest

from conftest import (
    decode_efb,
    exact_conditional_table,
    random_stationary_hmc,
    stationary_distribution,
)
from efbtag.efb import (
    EfbParams,
    conditional_matrix,
    entropic_backward,
    entropic_forward,
    posterior_efb,
)
from efbtag.errors import InvalidInputError
from efbtag.hmc import (
    HmcParams,
    backward,
    forward,
    posterior_fb,
    scaled_backward,
    scaled_forward,
    unscale,
)
from efbtag.oracle import posterior_bruteforce


def table_provider(ltable: np.ndarray):
    """Provider reading conditional rows out of a (M, N) table by symbol id."""
    return lambda y, t: ltable[y]


def efb_params_for(params, ltable=None):
    if ltable is None:
        ltable = exact_conditional_table(params)
    return EfbParams(
        pi=params.pi, trans=params.trans, l_provider=table_provider(ltable)
    )


def marginal_obs_probs(params, obs):
    # stationary per-position marginals p(y_t) = sum_i pi_i b_i(y_t)
    return np.array([float(params.pi @ params.emit[:, y]) for y in obs])


class TestEntropicForward:
    def test_base_case_is_conditional(self, worked_params):
        ep = efb_params_for(worked_params)
        alphas, scales = entropic_forward(ep, [0])
        assert unscale(alphas, scales)[0] == pytest.approx([6 / 7, 1 / 7], rel=1e-12)

    def test_worked_second_step(self, worked_params):
        ep = efb_params_for(worked_params)
        alphas, scales = entropic_forward(ep, [0, 0])
        unscaled = unscale(alphas, scales)
        assert unscaled[1] == pytest.approx([6.9 / 7, 0.8 / 7], rel=1e-9)

    def test_uninformative_conditional_reduces_to_prior_chain(self, worked_params):
        # L equal to pi at every position: the ratio is 1 and the
        # recursion propagates the stationary law unchanged
        ltable = np.vstack([worked_params.pi, worked_params.pi])
        ep = efb_params_for(worked_params, ltable)
        alphas, scales = entropic_forward(ep, [0, 1, 0, 1])
        unscaled = unscale(alphas, scales)
        for row in unscaled:
            assert row == pytest.approx(worked_params.pi, rel=1e-12)

    def test_zero_prior_state_rejected(self, worked_params):
        with pytest.raises(InvalidInputError):
            EfbParams(
                pi=np.array([1.0, 0.0]),
                trans=worked_params.trans,
                l_provider=lambda y, t: np.array([0.5, 0.5]),
            )

    def test_empty_observation_rejected(self, worked_params):
        with pytest.raises(InvalidInputError):
            entropic_forward(efb_params_for(worked_params), [])


class TestEntropicBackward:
    def test_base_case_ones(self, worked_params):
        ep = efb_params_for(worked_params)
        betas, scales = entropic_backward(ep, [0])
        assert unscale(betas, scales, backward=True)[0] == pytest.approx(
            [1.0, 1.0], rel=1e-12
        )

    def test_worked_first_position(self, worked_params):
        ep = efb_params_for(worked_params)
        betas, scales = entropic_backward(ep, [0, 0])
        unscaled = unscale(betas, scales, backward=True)
        assert unscaled[0] == pytest.approx([1.15, 0.8], rel=1e-9)

    def test_uninformative_conditional_gives_ones(self, worked_params):
        ltable = np.vstack([worked_params.pi, worked_params.pi])
        ep = efb_params_for(worked_params, ltable)
        betas, scales = entropic_backward(ep, [1, 0, 1])
        assert np.allclose(unscale(betas, scales, backward=True), 1.0)


class TestPosteriorEfb:
    def test_worked_first_position(self, worked_params):
        lattice = posterior_efb(efb_params_for(worked_params), [0, 0])
        assert lattice.values[0] == pytest.approx(
            [6.9 / 7.7, 0.8 / 7.7], rel=1e-9
        )

    def test_equals_classic_fb_on_worked_instance(self, worked_params):
        efb_lat = posterior_efb(efb_params_for(worked_params), [0, 0])
        fb_lat = posterior_fb(worked_params, [0, 0])
        np.testing.assert_allclose(efb_lat.values, fb_lat.values, atol=1e-12)

    def test_uninformative_conditional_posterior_is_prior(self, worked_params):
        ltable = np.vstack([worked_params.pi, worked_params.pi])
        lattice = posterior_efb(efb_params_for(worked_params, ltable), [0, 1, 0])
        for row in lattice.values:
            assert row == pytest.approx(worked_params.pi, rel=1e-9)

    def test_single_position_is_conditional(self, worked_params):
        ltable = exact_conditional_table(worked_params)
        lattice = posterior_efb(efb_params_for(worked_params), [1])
        assert lattice.values[0] == pytest.approx(ltable[1], rel=1e-12)

class TestDecodeEfb:
    def test_worked_instance_labels(self, worked_params):
        assert decode_efb(efb_params_for(worked_params), [0, 0]) == [0, 0]

    def test_single_token_is_argmax_of_conditional(self, worked_params):
        ltable = exact_conditional_table(worked_params)
        labels = decode_efb(efb_params_for(worked_params), [1])
        assert labels == [int(np.argmax(ltable[1]))]


class TestEquivalenceProperties:
    def test_efb_equals_fb_random_stationary(self):
        rng = np.random.default_rng(31)
        for _ in range(150):
            n = int(rng.integers(2, 6))
            m = int(rng.integers(2, 7))
            params = random_stationary_hmc(rng, n, m)
            obs = [int(y) for y in rng.integers(0, m, int(rng.integers(1, 11)))]
            efb_lat = posterior_efb(efb_params_for(params), obs)
            fb_lat = posterior_fb(params, obs)
            assert np.max(np.abs(efb_lat.values - fb_lat.values)) <= 1e-10

    @pytest.mark.parametrize("near_zero_pi", [False, True], ids=["stationary", "near-zero-pi"])
    def test_efb_equals_fb_long_sentences(self, near_zero_pi):
        """T = 5,000 on chains of up to 17 states; with `near_zero_pi`, one
        state's inflow is about 1e-13 before the stationary prior is taken,
        so that state's prior is about 1e-13 too."""
        rng = np.random.default_rng(37 + near_zero_pi)
        for trial in range(10):
            n = 17 if trial == 0 else int(rng.integers(2, 18))
            m = int(rng.integers(2, 50))
            trans = rng.dirichlet(np.ones(n) * 2.0, size=n)
            if near_zero_pi:
                trans[:, rng.integers(n)] = 1e-13
                trans /= trans.sum(axis=1, keepdims=True)
            pi = stationary_distribution(trans)
            assert (pi.min() < 1e-12) == near_zero_pi
            params = HmcParams(pi=pi, trans=trans, emit=rng.dirichlet(np.ones(m), size=n))
            obs = [int(y) for y in rng.integers(0, m, 5_000)]
            efb_lat = posterior_efb(efb_params_for(params), obs)
            fb_lat = posterior_fb(params, obs)
            assert np.max(np.abs(efb_lat.values - fb_lat.values)) <= 1e-10

    def test_efb_matches_bruteforce_posterior(self):
        rng = np.random.default_rng(33)
        for _ in range(40):
            n = int(rng.integers(2, 4))
            params = random_stationary_hmc(rng, n, 3)
            obs = [int(y) for y in rng.integers(0, 3, int(rng.integers(1, 6)))]
            efb_lat = posterior_efb(efb_params_for(params), obs)
            brute = posterior_bruteforce(params, obs)
            assert np.max(np.abs(efb_lat.values - brute.values)) <= 1e-9

    def test_proof_identities(self):
        # unscaled entropic values relate to classic ones through
        # per-position observation probabilities
        rng = np.random.default_rng(35)
        for _ in range(60):
            n = int(rng.integers(2, 6))
            m = int(rng.integers(2, 7))
            params = random_stationary_hmc(rng, n, m)
            obs = [int(y) for y in rng.integers(0, m, int(rng.integers(1, 11)))]
            py = marginal_obs_probs(params, obs)
            ep = efb_params_for(params)

            ef, ef_scales = entropic_forward(ep, obs)
            f, f_scales = forward(params, obs)
            lhs = unscale(ef, ef_scales) * np.cumprod(py)[:, None]
            np.testing.assert_allclose(lhs, unscale(f, f_scales), rtol=1e-10)

            eb, eb_scales = entropic_backward(ep, obs)
            b, b_scales = backward(params, obs)
            suffix = np.cumprod(np.append(py[1:][::-1], 1.0))[::-1][1:]
            suffix = np.append(suffix, 1.0)
            lhs_b = unscale(eb, eb_scales, backward=True) * suffix[:, None]
            np.testing.assert_allclose(
                lhs_b, unscale(b, b_scales, backward=True), rtol=1e-10
            )

    def test_scale_invariance_of_posterior(self, worked_params):
        rng = np.random.default_rng(37)
        ltable = exact_conditional_table(worked_params)
        obs = [0, 1, 0, 0, 1]
        base = posterior_efb(efb_params_for(worked_params, ltable), obs)
        consts = rng.uniform(0.2, 5.0, len(obs))
        scaled_provider = lambda y, t: ltable[y] * consts[t]
        scaled = posterior_efb(
            EfbParams(
                pi=worked_params.pi,
                trans=worked_params.trans,
                l_provider=scaled_provider,
            ),
            obs,
        )
        np.testing.assert_allclose(scaled.values, base.values, atol=1e-12)

    def test_rows_sum_to_one(self, worked_params):
        lattice = posterior_efb(efb_params_for(worked_params), [0, 1, 0, 1, 1])
        assert np.allclose(lattice.values.sum(axis=1), 1.0, atol=1e-9)

    def test_zero_conditional_clamped_not_fatal(self, worked_params):
        # table providers can emit exact zeros; the engine floors them
        ltable = np.array([[1.0, 0.0], [0.0, 1.0]])
        lattice = posterior_efb(efb_params_for(worked_params, ltable), [0, 0])
        assert np.all(np.isfinite(lattice.values))


def test_entropic_recursions_are_scaled_fb_on_l_over_pi(worked_params):
    ep = efb_params_for(worked_params)
    obs = [0, 1, 1, 0]
    ratio = conditional_matrix(ep, obs) / ep.pi
    for got, want in (
        (entropic_forward(ep, obs), scaled_forward(ep.pi, ep.trans, ratio)),
        (entropic_backward(ep, obs), scaled_backward(ep.trans, ratio)),
    ):
        assert all(np.array_equal(g, w) for g, w in zip(got, want))
