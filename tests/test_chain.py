"""One chain type: bare (pi, A) chains and NaN-aware distribution checks."""

import numpy as np
import pytest

from efbtag import efb, hmc
from efbtag.core import (
    LabeledSentence,
    PosteriorLattice,
    TagSet,
    Vocabulary,
    mpm_from_lattice,
)
from efbtag.dataio import Corpus
from efbtag.discrim import SgdConfig
from efbtag.errors import InvalidInputError, NumericalDegeneracyError
from efbtag.features import FeatureTemplate
from efbtag.modelfile import load_model, save_model
from efbtag.tagger import DecoderKind, train_compare_pair, train_tagger

NAN = float("nan")
PI = np.array([4 / 7, 3 / 7])
TRANS = np.array([[0.7, 0.3], [0.4, 0.6]])
EMIT = np.array([[0.9, 0.1], [0.2, 0.8]])


def toy_corpus() -> Corpus:
    sentences = [
        ("the cat runs", "DT NN VB"),
        ("a dog sleeps", "DT NN VB"),
        ("the dark city sleeps", "DT JJ NN VB"),
        ("dogs run", "NN VB"),
    ]
    tagset = TagSet.from_labels(["DT", "NN", "VB", "JJ"])
    labeled = [
        LabeledSentence(
            tuple(words.split()), tuple(tagset.id_of(t) for t in tags.split())
        )
        for words, tags in sentences
    ]
    vocab = Vocabulary.from_words(tok for s in labeled for tok in s.tokens)
    return Corpus(sentences=labeled, tagset=tagset, vocab=vocab)


SGD = SgdConfig(epochs=2, batch_size=2)


class TestBareChain:
    @pytest.mark.parametrize("kind", [DecoderKind.HMC_EFB, DecoderKind.HMC_NAIVE])
    def test_trained_chain_is_bare_and_round_trips(self, tmp_path, kind):
        tagger, _ = train_tagger(toy_corpus(), kind, FeatureTemplate.LF1, SGD)
        assert tagger.hmc_params.emit is None
        path = tmp_path / "m.bin"
        save_model(path, tagger)
        loaded = load_model(path)
        assert loaded.hmc_params.emit is None
        assert np.array_equal(loaded.hmc_params.pi, tagger.hmc_params.pi)
        assert np.array_equal(loaded.hmc_params.trans, tagger.hmc_params.trans)
        sent = ["the", "unseen", "city", "runs"]
        assert loaded.decode(sent) == tagger.decode(sent)

    def test_hmc_fb_keeps_its_emission_table(self, tmp_path):
        tagger, _ = train_tagger(toy_corpus(), DecoderKind.HMC_FB)
        path = tmp_path / "m.bin"
        save_model(path, tagger)
        loaded = load_model(path)
        assert np.array_equal(loaded.hmc_params.emit, tagger.hmc_params.emit)

    def test_compare_pair_efb_chain_is_bare(self):
        efb_tagger, memm_tagger = train_compare_pair(
            toy_corpus(), FeatureTemplate.LF1, SGD
        )
        assert efb_tagger.hmc_params.emit is None
        assert memm_tagger.hmc_params is None

    def test_naive_file_lists_no_emission_table(self, tmp_path):
        tagger, _ = train_tagger(toy_corpus(), DecoderKind.HMC_NAIVE)
        path = tmp_path / "m.bin"
        save_model(path, tagger)
        assert b'"name":"emit"' not in path.read_bytes()

    @pytest.mark.parametrize("run", [hmc.posterior_fb, hmc.forward, hmc.backward])
    def test_word_recursions_reject_a_bare_chain(self, run):
        with pytest.raises(InvalidInputError):
            run(hmc.HmcParams(pi=PI, trans=TRANS), [0, 1])

    def test_bare_chain_still_drives_the_naive_posterior(self):
        naive = hmc.NaiveFeatureEmission(
            families=("word",), value_index={"word": {"x": 0}}, tables={"word": EMIT}
        )
        bare = hmc.posterior_naive_features(
            hmc.HmcParams(pi=PI, trans=TRANS), naive, [[0], [0]]
        )
        full = hmc.posterior_fb(hmc.HmcParams(pi=PI, trans=TRANS, emit=EMIT), [0, 0])
        np.testing.assert_array_equal(bare.values, full.values)

    def test_two_dimensional_pi_rejected(self):
        with pytest.raises(InvalidInputError, match="vector"):
            hmc.HmcParams(pi=PI[None, :], trans=TRANS)
        with pytest.raises(InvalidInputError, match="vector"):
            efb.EfbParams(pi=PI[None, :], trans=TRANS, l_provider=lambda y, t: PI)


class TestNanFailsEveryCheck:
    @pytest.mark.parametrize(
        "pi, trans, emit",
        [
            (np.array([NAN, 0.5]), TRANS, EMIT),
            (PI, np.array([[NAN, 0.3], [0.4, 0.6]]), EMIT),
            (PI, TRANS, np.array([[NAN, 0.1], [0.2, 0.8]])),
        ],
        ids=["pi", "trans", "emit"],
    )
    def test_hmc_params(self, pi, trans, emit):
        with pytest.raises(InvalidInputError):
            hmc.HmcParams(pi=pi, trans=trans, emit=emit)

    def test_efb_params_share_the_chain_check(self):
        with pytest.raises(InvalidInputError):
            efb.EfbParams(
                pi=PI,
                trans=np.array([[0.7, 0.3], [NAN, 0.6]]),
                l_provider=lambda y, t: PI,
            )

    def test_naive_feature_table(self):
        with pytest.raises(InvalidInputError):
            hmc.NaiveFeatureEmission(
                families=("word",),
                value_index={"word": {"x": 0}},
                tables={"word": np.array([[NAN, 0.1], [0.2, 0.8]])},
            )

    def test_posterior_lattice(self):
        with pytest.raises(InvalidInputError):
            PosteriorLattice(np.array([[NAN, NAN], [0.5, 0.5]]))

    def test_scaled_forward(self):
        emissions = np.array([[0.9, 0.2], [NAN, 0.8], [0.9, 0.2]])
        with pytest.raises(NumericalDegeneracyError, match="position 1"):
            hmc.scaled_forward(PI, TRANS, emissions)

    def test_scaled_backward(self):
        emissions = np.array([[0.9, 0.2], [0.9, 0.2], [NAN, 0.8]])
        with pytest.raises(NumericalDegeneracyError, match="position 1"):
            hmc.scaled_backward(TRANS, emissions)

    def test_posterior_from_lattices(self):
        alphas = np.array([[0.5, 0.5], [NAN, 0.5]])
        with pytest.raises(NumericalDegeneracyError, match="position 1"):
            hmc.posterior_from_lattices(alphas, np.ones((2, 2)))

    def test_nan_conditional_inside_efb_is_a_degeneracy(self):
        params = efb.EfbParams(
            pi=PI, trans=TRANS, l_provider=lambda y, t: np.array([NAN, NAN])
        )
        with pytest.raises(NumericalDegeneracyError):
            mpm_from_lattice(efb.posterior_efb(params, [0, 1]))
