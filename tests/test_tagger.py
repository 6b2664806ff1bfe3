import hashlib

import numpy as np
import pytest

from efbtag.core import LabeledSentence, TagSet, Vocabulary
from efbtag.dataio import Corpus
from efbtag.discrim import SgdConfig, predict
from efbtag.errors import InvalidInputError
from efbtag.features import FeatureTemplate
from efbtag.modelfile import MAGIC, save_model
from efbtag.tagger import DecoderKind, Tagger, train_compare_pair, train_tagger


def toy_corpus() -> Corpus:
    tagset = TagSet.from_labels(["DT", "NN", "VB"])
    sents = [
        ("the cat runs", "DT NN VB"),
        ("a dog sleeps", "DT NN VB"),
        ("the dog runs", "DT NN VB"),
        ("a cat sleeps", "DT NN VB"),
        ("cat runs", "NN VB"),
        ("dog sleeps", "NN VB"),
    ]
    sentences = tuple(
        LabeledSentence(
            tuple(words.split()),
            tuple(tagset.id_of(t) for t in tags.split()),
        )
        for words, tags in sents
    )
    vocab = Vocabulary.from_words(w for s in sentences for w in s.tokens)
    return Corpus(sentences=sentences, tagset=tagset, vocab=vocab)


FAST_SGD = SgdConfig(learning_rate=0.5, epochs=60, batch_size=4, l2=0.0)


@pytest.mark.parametrize(
    "kind",
    [DecoderKind.HMC_FB, DecoderKind.HMC_EFB, DecoderKind.MEMM, DecoderKind.HMC_NAIVE],
)
def test_all_decoders_fit_the_unambiguous_toy_grammar(kind):
    corpus = toy_corpus()
    tagger, summary = train_tagger(corpus, kind, FeatureTemplate.LF1, FAST_SGD)
    assert summary.n_tokens == sum(len(s) for s in corpus.sentences)
    for sent in corpus.sentences:
        assert tagger.decode(sent.tokens) == list(sent.labels)


def test_efb_single_token_is_argmax_of_conditional():
    corpus = toy_corpus()
    tagger, _ = train_tagger(
        corpus, DecoderKind.HMC_EFB, FeatureTemplate.LF1, FAST_SGD
    )
    feats = tagger.pipeline.sentence_features(["cat"])
    expected = int(np.argmax(predict(tagger.l0, feats[0])))
    assert tagger.decode(["cat"]) == [expected]


def test_unknown_words_still_decode():
    corpus = toy_corpus()
    for kind in (DecoderKind.HMC_FB, DecoderKind.HMC_EFB, DecoderKind.MEMM):
        tagger, _ = train_tagger(corpus, kind, FeatureTemplate.LF1, FAST_SGD)
        labels = tagger.decode(["the", "wombat", "runs"])
        assert len(labels) == 3
        assert all(0 <= lab < len(corpus.tagset) for lab in labels)


def test_empty_sentence_rejected():
    corpus = toy_corpus()
    tagger, _ = train_tagger(corpus, DecoderKind.HMC_FB)
    with pytest.raises(InvalidInputError):
        tagger.decode([])


def test_compare_pair_shares_l0_and_pipeline():
    corpus = toy_corpus()
    efb_tagger, memm_tagger = train_compare_pair(
        corpus, FeatureTemplate.LF1, FAST_SGD
    )
    assert efb_tagger.feature_index is memm_tagger.feature_index
    assert efb_tagger.l0 is memm_tagger.l0
    assert memm_tagger.l1 is not None


def test_pipelineless_kind_has_no_pipeline():
    corpus = toy_corpus()
    tagger, _ = train_tagger(corpus, DecoderKind.HMC_FB)
    with pytest.raises(InvalidInputError):
        tagger.pipeline


# sha256 of the JSON header line each kind writes for the toy corpus; the
# header holds no float bytes, so the digests do not depend on the machine
HEADER_SHA256 = {
    DecoderKind.HMC_FB: "7af763cdfc91520c193182c48199e6c42f47d2bce5bd12f72cb13ab1d3d185d6",
    DecoderKind.HMC_EFB: "bda269699bcc9218b104c3040476984872265f9dd202a48a9e2ded3139372d39",
    DecoderKind.MEMM: "a2fd5d0a6aaacd960889ff60cbc25753b8e110e227c7a583c6a49c2b3875e306",
    DecoderKind.HMC_NAIVE: "dde5b62b8abdf3c8e80da02109f0670e2d4fac7e717492178dcd91931c54b498",
}


@pytest.mark.parametrize("kind", list(DecoderKind), ids=lambda k: k.value)
def test_model_file_header_is_pinned(tmp_path, kind):
    tagger, _ = train_tagger(toy_corpus(), kind, FeatureTemplate.LF1, SgdConfig(epochs=1))
    path = tmp_path / "m.bin"
    save_model(path, tagger)
    data = path.read_bytes()
    header = data[len(MAGIC) : data.index(b"\n", len(MAGIC))]
    assert hashlib.sha256(header).hexdigest() == HEADER_SHA256[kind]
