import hashlib
from dataclasses import replace

import numpy as np
import pytest

from efbtag.core import LabeledSentence, PosteriorLattice, TagSet, Vocabulary
from efbtag.dataio import Corpus
from efbtag import discrim, hmc, memm
from efbtag.discrim import SgdConfig, predict
from efbtag.errors import DataError, InvalidInputError
from efbtag.features import FeaturePipeline, FeatureTemplate, build_index
from efbtag.modelfile import MAGIC, load_model, save_model
from efbtag.tagger import SCORE_LIMIT, DecoderKind, Tagger, train_compare_pair, train_tagger


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


def test_a_bare_string_is_not_a_sentence():
    """A `str` would iterate as a sentence of characters: it raises instead,
    alone or inside a batch, and a one-word sentence still decodes."""
    tagger, _ = train_tagger(toy_corpus(), DecoderKind.HMC_FB)
    with pytest.raises(InvalidInputError, match="not a string"):
        tagger.decode("hello")
    with pytest.raises(InvalidInputError, match="batch item 1 is a string"):
        tagger.decode([["the", "cat"], "dog"])
    assert len(tagger.decode(["hello"])) == 1


@pytest.mark.parametrize("bad", ["", 5, None, b"cat", ["x"], {"y": 1}],
                         ids=["empty", "int", "none", "bytes", "list", "dict"])
@pytest.mark.parametrize("kind", list(DecoderKind), ids=lambda kind: kind.value)
def test_a_malformed_token_is_invalid_input_for_every_kind(kind, bad):
    """A token that is not a non-empty string raises InvalidInputError, in one
    sentence or a batch, first or later; hmc-fb decoded it as an unknown word,
    and the featured kinds ended in a TypeError or an AttributeError.  A list
    or dict token, which cannot be hashed, ended in a TypeError for every kind."""
    tagger, _ = train_tagger(toy_corpus(), kind, FeatureTemplate.LF1, SgdConfig(epochs=1))
    fresh, _ = train_tagger(toy_corpus(), kind, FeatureTemplate.LF1, SgdConfig(epochs=1))
    for tokens in (["the", bad], [bad, "the"], [["the", "cat"], ["the", bad]], [[bad, "cat"]]):
        with pytest.raises(InvalidInputError):
            tagger.decode(tokens)
    # a refusal leaves nothing behind: the next sentence decodes as on a fresh tagger
    assert tagger.decode(["the", "wombat", "runs"]) == fresh.decode(["the", "wombat", "runs"])


def test_hmc_fb_names_the_first_malformed_token_among_unknown_words():
    """Among many words outside the vocabulary, a batch names the first
    malformed token, as the one sentence that holds it does alone."""
    tagger, _ = train_tagger(toy_corpus(), DecoderKind.HMC_FB)
    unseen = [f"w{i}" for i in range(40)]
    for bad, text in ((5, "token 5 is not a string"), ("", "token must be non-empty")):
        sentence = ["the", *unseen, bad, None, "cat"]
        for tokens in (sentence, [unseen, sentence, [None] * len(sentence)]):
            with pytest.raises(InvalidInputError, match=f"^{text}$"):
                tagger.decode(tokens)


def test_compare_pair_shares_l0_and_pipeline():
    corpus = toy_corpus()
    efb_tagger, memm_tagger = train_compare_pair(
        corpus, FeatureTemplate.LF1, FAST_SGD
    )
    assert efb_tagger.feature_index is memm_tagger.feature_index
    assert efb_tagger.arrays["l0_weights"] is memm_tagger.arrays["l0_weights"]
    assert efb_tagger.l0.weights is memm_tagger.l0.weights
    assert efb_tagger.l1 is None and memm_tagger.l1 is not None


def test_bare_chain_equals_the_counted_chain_without_emissions(tmp_path):
    corpus = toy_corpus()
    counted = hmc.estimate_params(corpus.sentences, corpus.tagset, corpus.vocab)
    bare = hmc.estimate_params(corpus.sentences, corpus.tagset, None)
    assert counted.emit is not None and bare.emit is None and bare.emit_rows is None
    assert bare.pi.tobytes() == counted.pi.tobytes()
    assert bare.trans.tobytes() == counted.trans.tobytes()
    pair_efb, _ = train_compare_pair(corpus, FeatureTemplate.LF1, FAST_SGD)
    efb, _ = train_tagger(corpus, DecoderKind.HMC_EFB, FeatureTemplate.LF1, FAST_SGD)
    naive, _ = train_tagger(corpus, DecoderKind.HMC_NAIVE, FeatureTemplate.LF1, FAST_SGD)
    for name, tagger in (("pair-efb", pair_efb), ("efb", efb), ("naive", naive)):
        assert tagger.hmc_params.emit is None
        # the file of the tagger whose chain was counted with emissions,
        # which were then dropped, has the same bytes
        dropped = replace(tagger, arrays={**tagger.arrays, "pi": counted.pi,
                                          "trans": counted.trans})
        assert dropped.hmc_params.pi is counted.pi
        save_model(tmp_path / f"{name}.bin", tagger)
        save_model(tmp_path / f"{name}-dropped.bin", dropped)
        assert (tmp_path / f"{name}.bin").read_bytes() == \
            (tmp_path / f"{name}-dropped.bin").read_bytes()


@pytest.mark.parametrize("kind", [DecoderKind.HMC_EFB, DecoderKind.MEMM,
                                  DecoderKind.HMC_NAIVE], ids=lambda k: k.value)
@pytest.mark.parametrize("template", ["lf1", None], ids=["string", "none"])
def test_featured_training_rejects_a_template_that_is_not_one(kind, template):
    with pytest.raises(InvalidInputError, match="unknown feature template"):
        train_tagger(toy_corpus(), kind, template, FAST_SGD)


def test_tagger_checks_its_kind_and_l1_when_built():
    memm, _ = train_tagger(toy_corpus(), DecoderKind.MEMM, sgd=SgdConfig(epochs=1))
    with pytest.raises(InvalidInputError, match="unknown decoder kind"):
        Tagger(kind="memm", tagset=memm.tagset, vocab=memm.vocab,
               feature_index=memm.feature_index, arrays=memm.arrays)
    # the flags hold by construction: l1 alone conditions on the previous label
    assert not memm.l0.conditions_on_prev and memm.l1.conditions_on_prev
    # so an l1 of l0's shape, which would read as unconditioned, is refused
    l0_as_l1 = {**memm.arrays, "l1_weights": memm.arrays["l0_weights"]}
    with pytest.raises(InvalidInputError, match="holds arrays"):
        replace(memm, arrays=l0_as_l1)


def test_a_memm_file_whose_scores_can_overflow_is_refused_at_load(tmp_path):
    """Finite weights can still overflow a feature row's score sum, which
    would make NaN forward rows: a file that holds such weights is a
    DataError at load, naming the file and the array."""
    tagger, _ = train_tagger(toy_corpus(), DecoderKind.MEMM, FeatureTemplate.LF1,
                             SgdConfig(epochs=1))
    save_model(tmp_path / "m.bin", tagger)
    data = (tmp_path / "m.bin").read_bytes()
    huge = np.full_like(tagger.arrays["l1_weights"], 1e308).tobytes()  # the last array
    (tmp_path / "m.bin").write_bytes(data[: -len(huge)] + huge)
    with pytest.raises(DataError, match=r"m\.bin: array 'l1_weights' holds a weight"):
        load_model(tmp_path / "m.bin")


@pytest.mark.parametrize("kind, name", [(DecoderKind.HMC_EFB, "l0_weights"),
                                        (DecoderKind.MEMM, "l0_weights"),
                                        (DecoderKind.MEMM, "l1_weights")])
def test_weights_whose_scores_can_overflow_are_refused_when_built(kind, name):
    tagger, _ = train_tagger(toy_corpus(), kind, FeatureTemplate.LF1, SgdConfig(epochs=1))
    for bad in (np.inf, np.nan, -1e308):
        weights = tagger.arrays[name].copy()
        weights[1, 2] = bad
        with pytest.raises(InvalidInputError, match=f"array '{name}' holds a weight"):
            replace(tagger, arrays={**tagger.arrays, name: weights})


@pytest.mark.parametrize("kind", [DecoderKind.HMC_EFB, DecoderKind.MEMM],
                         ids=lambda kind: kind.value)
def test_weights_at_the_score_limit_decode_without_overflow(kind):
    """Every weight the largest that the bound allows, signs alternating: the
    scores and their softmax differences stay finite, so both forms decode
    to the same labels and no RuntimeWarning (an error here) is raised."""
    tagger, _ = train_tagger(toy_corpus(), kind, FeatureTemplate.LF1, SgdConfig(epochs=1))
    limit = at_the_score_limit(
        tagger, lambda shape: np.where(np.arange(np.prod(shape)) % 2, 1.0, -1.0).reshape(shape))
    sentences = [["the", "cat", "runs"], ["a", "dog"], ["zebra"]]
    assert limit.decode(sentences) == [limit.decode(s) for s in sentences]


def at_the_score_limit(tagger: Tagger, signs) -> Tagger:
    """`tagger` with every logistic weight the largest that the bound allows,
    its signs from `signs(shape)`."""
    families = len(tagger.feature_index.families)
    arrays = dict(tagger.arrays)
    for name in ("l0_weights", "l1_weights"):
        if name in arrays:
            rows = families + 1 + (name == "l1_weights")
            arrays[name] = signs(arrays[name].shape) * (SCORE_LIMIT / rows)
    return replace(tagger, arrays=arrays)


TOY_WORDS = ["the", "cat", "runs", "a", "dog", "sleeps", "zebra", "Quick", "x-ray", "42"]


@pytest.mark.parametrize("seed", range(6))
def test_memm_rows_at_the_score_limit_pass_the_full_lattice_check(seed):
    """Weights at the bound with random signs, over random sentences: memm's
    forward rows are distributions that the full `PosteriorLattice` check
    accepts, alone and stacked, with no RuntimeWarning (an error here), which
    is why `Tagger` checks only their shape."""
    rng = np.random.default_rng(seed)
    tagger, _ = train_tagger(toy_corpus(), DecoderKind.MEMM, FeatureTemplate.LF1,
                             SgdConfig(epochs=1))
    limit = at_the_score_limit(tagger, lambda shape: rng.choice([-1.0, 1.0], size=shape))
    sentences = [[TOY_WORDS[i] for i in rng.integers(len(TOY_WORDS), size=rng.integers(1, 13))]
                 for _ in range(20)]
    for sentence in sentences:
        feats = limit.pipeline.sentence_features(sentence)
        PosteriorLattice(memm.memm_forward(limit.l0, limit.l1, feats))
    feats, token_rows = limit.pipeline.sentence_features(sentences, distinct=True)
    lengths = [len(sentence) for sentence in sentences]
    PosteriorLattice(memm.memm_forward(limit.l0, limit.l1, feats, lengths, token_rows))
    assert limit.decode(sentences) == [limit.decode(s) for s in sentences]


def model_arrays(tagger) -> dict:
    """Every array the tagger's models decode with, by the name of its part."""
    found = {}
    if tagger.hmc_params is not None:
        found.update(pi=tagger.hmc_params.pi, trans=tagger.hmc_params.trans)
        if tagger.hmc_params.emit is not None:
            found["emit"] = tagger.hmc_params.emit
    if tagger.naive is not None:
        found.update((f"naive:{fam}", table) for fam, table in tagger.naive.tables.items())
    for name, model in (("l0_weights", tagger.l0), ("l1_weights", tagger.l1)):
        if model is not None:
            found[name] = model.weights
    return found


@pytest.mark.parametrize("kind", list(DecoderKind), ids=lambda kind: kind.value)
def test_models_share_the_tagger_arrays_and_a_file_holds_them(tmp_path, kind):
    """Trained or loaded, a tagger's models hold its `arrays` themselves, not
    copies, and a file loads back to the same arrays, byte for byte."""
    tagger, _ = train_tagger(toy_corpus(), kind, FeatureTemplate.LF1, SgdConfig(epochs=1))
    save_model(tmp_path / "m.bin", tagger)
    loaded = load_model(tmp_path / "m.bin")
    assert list(loaded.arrays) == list(tagger.arrays)
    for name, arr in tagger.arrays.items():
        assert loaded.arrays[name].tobytes() == arr.tobytes(), name
    for t in (tagger, loaded):
        found = model_arrays(t)
        assert list(found) == list(t.arrays)
        assert all(found[name] is arr for name, arr in t.arrays.items())
        assert (t.l0 is None or not t.l0.conditions_on_prev) and \
            (t.l1 is None or t.l1.conditions_on_prev)


def test_pipelineless_kind_has_no_pipeline():
    corpus = toy_corpus()
    tagger, _ = train_tagger(corpus, DecoderKind.HMC_FB)
    with pytest.raises(InvalidInputError):
        tagger.pipeline


# sha256 of the JSON header line each kind writes for the toy corpus; the
# header holds no float bytes, so the digests do not depend on the machine
HEADER_SHA256 = {
    DecoderKind.HMC_FB: "7af763cdfc91520c193182c48199e6c42f47d2bce5bd12f72cb13ab1d3d185d6",
    DecoderKind.HMC_EFB: "2dd8b7608b833b3203846617f6b2db5f02e96c4d5b17921acfcf27fa1b4aa01c",
    DecoderKind.MEMM: "6dec73703a898f500944b54fdc5c58558928d20d3cc48bd94055174e8bc8208f",
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


@pytest.mark.parametrize("template", list(FeatureTemplate), ids=lambda t: t.value)
def test_naive_load_gives_the_trained_rows(tmp_path, template):
    tagger, _ = train_tagger(toy_corpus(), DecoderKind.HMC_NAIVE, template, SgdConfig(epochs=1))
    path = tmp_path / "m.bin"
    save_model(path, tagger)
    loaded = load_model(path)
    # a naive column is its index id: the load builds no map of its own
    assert loaded.naive.families == tagger.feature_index.families
    assert loaded.naive.stacked_rows.tobytes() == tagger.naive.stacked_rows.tobytes()
