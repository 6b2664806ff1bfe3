import numpy as np
import pytest

from conftest import random_stationary_hmc
from efbtag.core import LabeledSentence, TagSet, Vocabulary
from efbtag.errors import InvalidInputError
from efbtag.features import FeatureIndex, FeatureTemplate, vectorize
from efbtag.hmc import (
    HmcParams,
    backward,
    emission_naive_features,
    estimate_naive_emission,
    estimate_params,
    forward,
    naive_emission_matrix,
    naive_feature_index,
    posterior_fb,
    unscale,
)
from efbtag.oracle import (
    backward_bruteforce,
    forward_bruteforce,
    observation_probability,
    posterior_bruteforce,
)

TINY = 1e-12


class TestEstimateParams:
    def test_two_token_sentence_delta_limit(self):
        tagset = TagSet.from_labels(["A", "B"])
        vocab = Vocabulary.from_words(["w0", "w1"])
        corpus = [LabeledSentence(("w0", "w1"), (0, 1))]
        params = estimate_params(corpus, tagset, vocab, smoothing=TINY)
        assert params.pi == pytest.approx([0.5, 0.5], abs=1e-9)
        assert params.trans[0, 1] == pytest.approx(1.0, abs=1e-9)
        assert params.emit[0, 0] == pytest.approx(1.0, abs=1e-9)

    def test_degenerate_single_label(self):
        tagset = TagSet.from_labels(["A"])
        vocab = Vocabulary.from_words(["w0"])
        corpus = [LabeledSentence(("w0", "w0", "w0"), (0, 0, 0))]
        params = estimate_params(corpus, tagset, vocab, smoothing=TINY)
        assert params.pi[0] == pytest.approx(1.0)
        assert params.trans[0, 0] == pytest.approx(1.0, abs=1e-9)
        assert params.emit[0, 0] == pytest.approx(1.0, abs=1e-9)

    def test_counts_match_hand_tally(self):
        # three sentences; transitions counted within sentences only
        tagset = TagSet.from_labels(["D", "N"])
        vocab = Vocabulary.from_words(["the", "cat", "dog"])
        corpus = [
            LabeledSentence(("the", "cat"), (0, 1)),
            LabeledSentence(("the", "dog"), (0, 1)),
            LabeledSentence(("cat",), (1,)),
        ]
        delta = 0.5
        params = estimate_params(corpus, tagset, vocab, smoothing=delta)
        # label counts: D=2, N=3 over 5 positions
        assert params.pi == pytest.approx([2.5 / 6, 3.5 / 6])
        # pair counts from D: D->N twice; boundary between sentences not counted
        assert params.trans[0] == pytest.approx([0.5 / 3, 2.5 / 3])
        # N emits cat twice, dog once; plus unknown column
        assert params.emit[1] == pytest.approx(
            np.array([0.5, 2.5, 1.5, 0.5]) / 5.0
        )

    def test_empty_corpus_rejected(self):
        tagset = TagSet.from_labels(["A"])
        vocab = Vocabulary.from_words(["w"])
        with pytest.raises(InvalidInputError):
            estimate_params([], tagset, vocab)

    def test_nonpositive_smoothing_rejected(self):
        tagset = TagSet.from_labels(["A"])
        vocab = Vocabulary.from_words(["w"])
        corpus = [LabeledSentence(("w",), (0,))]
        with pytest.raises(InvalidInputError):
            estimate_params(corpus, tagset, vocab, smoothing=0.0)

    def test_invariants_on_random_corpora(self):
        rng = np.random.default_rng(7)
        tagset = TagSet.from_labels(["A", "B", "C"])
        vocab = Vocabulary.from_words(["u", "v", "w"])
        for _ in range(20):
            corpus = []
            for _ in range(rng.integers(1, 6)):
                t_len = int(rng.integers(1, 7))
                toks = tuple(vocab.words[i] for i in rng.integers(0, 3, t_len))
                labs = tuple(int(i) for i in rng.integers(0, 3, t_len))
                corpus.append(LabeledSentence(toks, labs))
            params = estimate_params(
                corpus, tagset, vocab, smoothing=float(rng.uniform(1e-6, 1.0))
            )
            assert params.pi.sum() == pytest.approx(1.0, abs=1e-12)
            assert np.all(params.pi > 0)
            assert params.trans.sum(axis=1) == pytest.approx(np.ones(3), abs=1e-12)
            assert params.emit.sum(axis=1) == pytest.approx(np.ones(3), abs=1e-12)


class TestForwardBackward:
    def test_single_state_forward_normalized(self):
        params = HmcParams(
            pi=np.array([1.0]),
            trans=np.array([[1.0]]),
            emit=np.array([[0.3, 0.7]]),
        )
        alphas, _ = forward(params, [0, 1, 0])
        assert np.allclose(alphas, 1.0)

    def test_worked_unscaled_forward(self, worked_params):
        alphas, scales = forward(worked_params, [0, 0])
        unscaled = unscale(alphas, scales)
        assert unscaled[0] == pytest.approx([0.514286, 0.085714], abs=1e-6)
        assert unscaled[1] == pytest.approx([0.354857, 0.041143], abs=1e-6)

    def test_total_probability(self, worked_params):
        _, scales = forward(worked_params, [0, 0])
        assert np.prod(scales) == pytest.approx(0.396, rel=1e-12)

    def test_backward_base_case(self, worked_params):
        betas, scales = backward(worked_params, [0])
        assert np.allclose(unscale(betas, scales, backward=True)[-1], 1.0)

    def test_worked_unscaled_backward(self, worked_params):
        betas, scales = backward(worked_params, [0, 0])
        unscaled = unscale(betas, scales, backward=True)
        assert unscaled[0] == pytest.approx([0.69, 0.48], rel=1e-12)

    def test_single_state_backward_product(self):
        params = HmcParams(
            pi=np.array([1.0]),
            trans=np.array([[1.0]]),
            emit=np.array([[0.3, 0.7]]),
        )
        obs = [0, 1, 1]
        betas, scales = backward(params, obs)
        unscaled = unscale(betas, scales, backward=True)
        for t in range(len(obs)):
            expected = np.prod([params.emit[0, y] for y in obs[t + 1 :]])
            assert unscaled[t, 0] == pytest.approx(expected, rel=1e-12)

    def test_empty_observation_rejected(self, worked_params):
        with pytest.raises(InvalidInputError):
            forward(worked_params, [])


class TestPosteriorFb:
    def test_worked_instance(self, worked_params):
        lattice = posterior_fb(worked_params, [0, 0])
        assert lattice.values[0] == pytest.approx([0.896104, 0.103896], abs=1e-6)

    def test_uniform_params_uniform_rows(self):
        params = HmcParams(
            pi=np.full(3, 1 / 3),
            trans=np.full((3, 3), 1 / 3),
            emit=np.full((3, 4), 0.25),
        )
        lattice = posterior_fb(params, [0, 2, 3])
        assert np.allclose(lattice.values, 1 / 3)

    def test_single_position_proportional_to_prior_times_emission(
        self, worked_params
    ):
        lattice = posterior_fb(worked_params, [1])
        raw = worked_params.pi * worked_params.emit[:, 1]
        assert np.allclose(lattice.values[0], raw / raw.sum())

    def test_matches_bruteforce_on_random_instances(self):
        rng = np.random.default_rng(11)
        for _ in range(60):
            n = int(rng.integers(1, 4))
            m = int(rng.integers(2, 5))
            params = random_stationary_hmc(rng, n, m)
            t_len = int(rng.integers(1, 7))
            obs = [int(y) for y in rng.integers(0, m, t_len)]
            fast = posterior_fb(params, obs)
            slow = posterior_bruteforce(params, obs)
            assert np.max(np.abs(fast.values - slow.values)) <= 1e-9

    def test_unscaled_lattices_match_bruteforce(self):
        rng = np.random.default_rng(13)
        for _ in range(20):
            n = int(rng.integers(1, 4))
            params = random_stationary_hmc(rng, n, 3)
            obs = [int(y) for y in rng.integers(0, 3, int(rng.integers(1, 6)))]
            alphas, a_scales = forward(params, obs)
            betas, b_scales = backward(params, obs)
            np.testing.assert_allclose(
                unscale(alphas, a_scales), forward_bruteforce(params, obs), rtol=1e-9
            )
            np.testing.assert_allclose(
                unscale(betas, b_scales, backward=True),
                backward_bruteforce(params, obs),
                rtol=1e-9,
            )
            total = observation_probability(params, obs)
            assert np.prod(a_scales) == pytest.approx(total, rel=1e-9)

    def test_rows_sum_to_one(self, worked_params):
        lattice = posterior_fb(worked_params, [0, 1, 0, 1])
        assert np.allclose(lattice.values.sum(axis=1), 1.0, atol=1e-9)


def naive_from_strings(corpus, tagset, feature_fn, smoothing=TINY):
    """Index `feature_fn`'s string vectors in corpus order, then count their ids.

    Returns the model and the index of the stacked columns, so tests can
    state feature vectors as strings.
    """
    fvs = [[feature_fn(tok, pos) for pos, tok in enumerate(s.tokens)] for s in corpus]
    families = tuple(fvs[0][0])
    ids = {}
    for fv in (fv for sent in fvs for fv in sent):
        for pair in fv.items():
            ids.setdefault(pair, len(ids))
    unknown = {fam: len(ids) + k for k, fam in enumerate(families)}
    index = FeatureIndex(FeatureTemplate.NF, families, ids, unknown)
    feats = [[vectorize(fv, index) for fv in sent] for sent in fvs]
    model = estimate_naive_emission(
        index, feats, [s.labels for s in corpus], len(tagset), smoothing
    )
    return model, naive_feature_index(model, FeatureTemplate.NF)


class TestNaiveFeatureEmission:
    @staticmethod
    def _simple_features(token, pos):
        return {"word": token, "first-position": "true" if pos == 0 else "false"}

    def _toy_model(self):
        tagset = TagSet.from_labels(["A", "B"])
        corpus = [
            LabeledSentence(("x", "y"), (0, 1)),
            LabeledSentence(("x", "x"), (0, 0)),
        ]
        return naive_from_strings(corpus, tagset, self._simple_features)

    def test_single_family_matches_plain_conditional(self):
        tagset = TagSet.from_labels(["A", "B"])
        corpus = [LabeledSentence(("x", "y"), (0, 1))]
        model, _ = naive_from_strings(corpus, tagset, lambda tok, pos: {"word": tok})
        assert emission_naive_features(model, {"word": "x"}, 0) == pytest.approx(
            1.0, abs=1e-9
        )

    def test_product_rule(self):
        model, index = self._toy_model()
        fv = {"word": "x", "first-position": "true"}
        expected = (
            model.tables["word"][0, model.column_of("word", "x")]
            * model.tables["first-position"][
                0, model.column_of("first-position", "true")
            ]
        )
        assert emission_naive_features(model, fv, 0) == pytest.approx(expected)
        matrix = naive_emission_matrix(model, [vectorize(fv, index)])
        assert matrix[0, 0] == expected

    def test_unknown_value_routes_to_unknown_slot(self):
        model, index = self._toy_model()
        p = emission_naive_features(model, {"word": "zzz"}, 0)
        assert p == pytest.approx(model.tables["word"][0, -1], rel=1e-12)
        row = vectorize({"word": "zzz", "first-position": "false"}, index)
        assert row[0] == index.unknown_ids["word"]
        first = model.tables["first-position"]
        np.testing.assert_array_equal(
            naive_emission_matrix(model, [row])[0],
            model.tables["word"][:, -1] * first[:, model.column_of("first-position", "false")],
        )

    def test_untrained_family_rejected(self):
        model, index = self._toy_model()
        with pytest.raises(InvalidInputError):
            emission_naive_features(model, {"suffix-2": "zz"}, 0)
        with pytest.raises(InvalidInputError):
            naive_emission_matrix(model, [[0, index.size]])  # past the last column
        with pytest.raises(InvalidInputError):
            naive_emission_matrix(model, [[0, 1, 2]])  # a third family

    def test_correlated_features_underestimated_vs_joint(self):
        # two perfectly correlated copies of the word; the product rule
        # squares the conditional, the exact joint count does not
        tagset = TagSet.from_labels(["A"])
        corpus = [LabeledSentence(("x", "y"), (0, 0))]
        model, index = naive_from_strings(
            corpus, tagset, lambda tok, pos: {"f1": tok, "f2": tok}
        )
        product = emission_naive_features(model, {"f1": "x", "f2": "x"}, 0)
        joint_exact = 0.5  # one of two observed (f1, f2) joint outcomes
        assert product == pytest.approx(0.25, abs=1e-6)
        assert product < joint_exact
        row = vectorize({"f1": "x", "f2": "x"}, index)
        assert naive_emission_matrix(model, [row])[0, 0] == product
