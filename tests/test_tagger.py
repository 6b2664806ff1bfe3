import hashlib

import numpy as np
import pytest

from efbtag.core import LabeledSentence, TagSet, Vocabulary
from efbtag.dataio import Corpus
from efbtag import discrim
from efbtag.discrim import SgdConfig, predict
from efbtag.errors import InvalidInputError
from efbtag.features import FeaturePipeline, FeatureTemplate, build_index
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


def per_token_datasets(corpus, template):
    """The l0 and l1 `Example` lists that training once built token by token."""
    pipeline = FeaturePipeline(build_index(corpus.sentences, template))
    feats = [
        [tuple(row) for row in pipeline.sentence_features(sent.tokens).tolist()]
        for sent in corpus.sentences
    ]
    l0_data, l1_data = [], []
    for sent, sent_feats in zip(corpus.sentences, feats):
        for ids, label in zip(sent_feats, sent.labels):
            l0_data.append((ids, None, label))
    # teacher forcing: gold previous label, positions t >= 2 only
    for sent, sent_feats in zip(corpus.sentences, feats):
        for t in range(1, len(sent)):
            l1_data.append((sent_feats[t], sent.labels[t - 1], sent.labels[t]))
    return pipeline.index.size, l0_data, l1_data


def corpus_of(sentences) -> Corpus:
    tagset = TagSet.from_labels(["DT", "NN", "VB"])
    sentences = tuple(
        LabeledSentence(tuple(words.split()), tuple(tagset.id_of(t) for t in tags.split()))
        for words, tags in sentences
    )
    vocab = Vocabulary.from_words(w for s in sentences for w in s.tokens)
    return Corpus(sentences=sentences, tagset=tagset, vocab=vocab)


# length-1 sentences first, in the middle and last: no l1 example starts there
SHORT_ENDS = [("dog", "NN"), ("the cat runs", "DT NN VB"), ("sleeps", "VB"),
              ("a dog sleeps", "DT NN VB"), ("cat runs", "NN VB"), ("the", "DT")]


@pytest.mark.parametrize("template", [FeatureTemplate.LF1, FeatureTemplate.LF2])
def test_training_columns_equal_the_per_token_examples(template):
    corpus = corpus_of(SHORT_ENDS)
    sgd = SgdConfig(learning_rate=0.3, epochs=3, batch_size=3, l2=1e-3)
    size, l0_data, l1_data = per_token_datasets(corpus, template)
    l0 = discrim.train(l0_data, size, 3, sgd)
    l1 = discrim.train(l1_data, size, 3, sgd, conditions_on_prev=True)
    efb_tagger, efb_summary = train_tagger(corpus, DecoderKind.HMC_EFB, template, sgd)
    memm_tagger, memm_summary = train_tagger(corpus, DecoderKind.MEMM, template, sgd)
    assert efb_tagger.l0.weights.tobytes() == l0.weights.tobytes()
    assert memm_tagger.l0.weights.tobytes() == l0.weights.tobytes()
    assert memm_tagger.l1.weights.tobytes() == l1.weights.tobytes()
    l0_loss = discrim.mean_loss(l0, l0_data, l2=sgd.l2)
    assert efb_summary.final_loss == l0_loss
    assert memm_summary.final_loss == 0.5 * (
        l0_loss + discrim.mean_loss(l1, l1_data, l2=sgd.l2)
    )


def test_memm_needs_a_sentence_of_two_tokens():
    corpus = corpus_of([("dog", "NN"), ("sleeps", "VB"), ("the", "DT")])
    with pytest.raises(
        InvalidInputError, match="MEMM training needs at least one sentence of length >= 2"
    ):
        train_tagger(corpus, DecoderKind.MEMM, FeatureTemplate.LF1, SgdConfig(epochs=1))
