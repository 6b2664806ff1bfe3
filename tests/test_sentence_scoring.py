"""Sentence-level scoring equals the per-position calls it replaces, exactly."""

import sys

import numpy as np
import pytest

from efbtag import efb, features, hmc
from efbtag.core import LabeledSentence, TagSet, Vocabulary
from efbtag.dataio import Corpus, split_known_unknown
from efbtag.discrim import SgdConfig, predict, predict_all_prev, zero_model
from efbtag.errors import InvalidInputError
from efbtag.evaluation import evaluate
from efbtag.features import (
    FeaturePipeline,
    FeatureTemplate,
    build_index,
    extract,
    vectorize,
)
from efbtag.memm import MemmModel, forward_lattice, memm_forward
from efbtag.modelfile import load_model, save_model
from efbtag.tagger import DecoderKind, train_tagger

N_LABELS = 5
STEMS = ("walk", "Run", "blue", "cat", "x", "data-set", "42nd", "ab")
SUFFIXES = ("", "s", "ed", "ing", "ly")


def random_model(rng, n_features, conditions_on_prev=False):
    model = zero_model(n_features, N_LABELS, conditions_on_prev)
    model.weights[:] = rng.normal(0.0, 1.5, model.weights.shape)
    return model


def random_corpus(rng, n_sentences=40, stems=STEMS) -> Corpus:
    tagset = TagSet.from_labels([f"T{i}" for i in range(N_LABELS)])
    sentences = []
    for _ in range(n_sentences):
        length = int(rng.integers(1, 9))
        tokens = tuple(
            stems[rng.integers(len(stems))] + SUFFIXES[rng.integers(len(SUFFIXES))]
            for _ in range(length)
        )
        labels = tuple(int(v) for v in rng.integers(0, N_LABELS, length))
        sentences.append(LabeledSentence(tokens, labels))
    vocab = Vocabulary.from_words(w for s in sentences for w in s.tokens)
    return Corpus(sentences=tuple(sentences), tagset=tagset, vocab=vocab)


SGD = SgdConfig(epochs=2, batch_size=8)


class TestBatchedPredict:
    @pytest.mark.parametrize("cond", [False, True])
    def test_fixed_width_rows_equal_per_row_calls(self, cond):
        rng = np.random.default_rng(3)
        model = random_model(rng, 30, cond)
        ids = rng.integers(0, 30, size=(17, 6))
        prev = rng.integers(0, N_LABELS, 17) if cond else None
        batch = predict(model, ids, prev)
        rows = [
            predict(model, r, None if p is None else int(p))
            for r, p in zip(ids, prev if cond else [None] * 17)
        ]
        assert batch.shape == (17, N_LABELS)
        assert np.array_equal(batch, np.stack(rows))
        # a list of tuples is the same batch
        assert np.array_equal(predict(model, [tuple(r) for r in ids], prev), batch)

    def test_scalar_previous_label_applies_to_every_row(self):
        rng = np.random.default_rng(4)
        model = random_model(rng, 12, conditions_on_prev=True)
        ids = rng.integers(0, 12, size=(5, 3))
        assert np.array_equal(predict(model, ids, 2), predict(model, ids, [2] * 5))

    def test_ragged_rows_equal_per_row_calls(self):
        rng = np.random.default_rng(5)
        model = random_model(rng, 20)
        ids = [[3, 7], [1], [], [19, 0, 4, 4]]
        batch = predict(model, ids)
        assert np.array_equal(batch, np.stack([predict(model, r) for r in ids]))

    @pytest.mark.parametrize("ragged", [False, True])
    def test_all_prev_rows_equal_per_row_calls(self, ragged):
        rng = np.random.default_rng(6)
        model = random_model(rng, 25, conditions_on_prev=True)
        if ragged:
            ids = [[1, 2, 3], [24], [0, 0], [7, 8, 9, 10]]
        else:
            ids = rng.integers(0, 25, size=(9, 4))
        batch = predict_all_prev(model, ids)
        per_row = np.stack([predict_all_prev(model, r) for r in ids])
        assert batch.shape == (len(ids), N_LABELS, N_LABELS)
        assert np.array_equal(batch, per_row)
        # column j is the prediction given previous label j
        for j in range(N_LABELS):
            given_j = predict(model, ids, j)
            assert np.allclose(batch[:, :, j], given_j, rtol=0, atol=1e-15)

    @pytest.mark.parametrize("bad", [-1, 30])
    @pytest.mark.parametrize("ragged", [False, True])
    def test_out_of_range_id_rejected(self, bad, ragged):
        rng = np.random.default_rng(7)
        plain = random_model(rng, 30)
        cond = random_model(rng, 30, conditions_on_prev=True)
        ids = [[1, 2], [3, bad]] if not ragged else [[1, 2, 5], [bad]]
        with pytest.raises(InvalidInputError):
            predict(plain, ids)
        with pytest.raises(InvalidInputError):
            predict(cond, ids, 0)
        with pytest.raises(InvalidInputError):
            predict_all_prev(cond, ids)
        with pytest.raises(InvalidInputError):
            predict_all_prev(cond, ids[1])

    def test_previous_label_misuse_rejected(self):
        rng = np.random.default_rng(8)
        plain = random_model(rng, 6)
        cond = random_model(rng, 6, conditions_on_prev=True)
        ids = np.array([[0, 1], [2, 3]])
        with pytest.raises(InvalidInputError):
            predict(plain, ids, [0, 1])
        with pytest.raises(InvalidInputError):
            predict(cond, ids)
        with pytest.raises(InvalidInputError):
            predict(cond, ids, [0, N_LABELS])
        with pytest.raises(InvalidInputError):
            predict(cond, ids, -1)
        with pytest.raises(InvalidInputError):
            predict_all_prev(plain, ids)


class TestMemmForward:
    def _model(self, rng, n_features=15):
        tagset = TagSet.from_labels([f"T{i}" for i in range(N_LABELS)])
        return MemmModel(
            l0=random_model(rng, n_features),
            l1=random_model(rng, n_features, conditions_on_prev=True),
            tagset=tagset,
        )

    @staticmethod
    def _per_position(model, obs):
        first = predict(model.l0, obs[0])
        return forward_lattice(first, [predict_all_prev(model.l1, fv) for fv in obs[1:]])

    @pytest.mark.parametrize(
        "obs",
        [
            [[3]],
            [[0, 2], [1], [3, 0]],
            [[4], [], [1, 2, 3, 14], [5, 5]],
            [[1, 2], [3, 4], [5, 6], [7, 8], [9, 10]],
            np.arange(24).reshape(8, 3) % 15,
        ],
    )
    def test_equals_per_position_recursion(self, obs):
        model = self._model(np.random.default_rng(9))
        assert np.array_equal(memm_forward(model, obs), self._per_position(model, obs))


def per_token_naive(model, fvs, n_labels):
    out = np.ones((len(fvs), n_labels))
    for t, fv in enumerate(fvs):
        for fam, value in fv.items():
            idx = model.value_index[fam]
            out[t] *= model.tables[fam][:, idx.get(value, len(idx))]
    return out


def string_counted_naive(corpus, template, smoothing):
    """Per-family tables counted from each occurrence's string feature vector."""
    value_index, hits = {}, {}
    for sent in corpus.sentences:
        for pos, (token, label) in enumerate(zip(sent.tokens, sent.labels)):
            for fam, value in extract(token, pos, template).items():
                idx = value_index.setdefault(fam, {})
                col = idx.setdefault(value, len(idx))
                hits.setdefault(fam, []).extend((label, col))
    tables = {}
    for fam, idx in value_index.items():
        counts = np.zeros((N_LABELS, len(idx) + 1))
        np.add.at(counts, tuple(np.array(hits[fam]).reshape(-1, 2).T), 1.0)
        counts += smoothing
        tables[fam] = counts / counts.sum(axis=1, keepdims=True)
    return value_index, tables


class TestNaiveEmissionMatrix:
    def _tagger(self, template=FeatureTemplate.LF2):
        corpus = random_corpus(np.random.default_rng(10))
        tagger, _ = train_tagger(corpus, DecoderKind.HMC_NAIVE, template, smoothing=1e-3)
        return tagger

    @pytest.mark.parametrize("template", list(FeatureTemplate))
    def test_equals_per_token_product(self, template):
        tagger = self._tagger(template)
        tokens = ["walked", "Runs", "zebra", "x", "ab-12", "cat", "walking"]
        fvs = [extract(tok, pos, template) for pos, tok in enumerate(tokens)]
        ids = tagger.pipeline.sentence_features(tokens)
        got = hmc.naive_emission_matrix(tagger.naive, ids)
        assert np.array_equal(got, per_token_naive(tagger.naive, fvs, N_LABELS))

    @pytest.mark.parametrize("template", list(FeatureTemplate))
    def test_id_counts_equal_string_counts(self, template):
        corpus = random_corpus(np.random.default_rng(10))
        index = build_index(corpus.sentences, template)
        pipeline = FeaturePipeline(index)
        model = hmc.estimate_naive_emission(
            index,
            [pipeline.sentence_features(sent.tokens) for sent in corpus.sentences],
            [sent.labels for sent in corpus.sentences],
            N_LABELS,
            smoothing=1e-3,
        )
        value_index, tables = string_counted_naive(corpus, template, 1e-3)
        assert model.families == tuple(value_index)
        for fam in model.families:
            assert list(model.value_index[fam].items()) == list(value_index[fam].items())
            assert model.tables[fam].tobytes() == tables[fam].tobytes()

    def test_untrained_family_rejected(self):
        tagger = self._tagger(FeatureTemplate.LF1)
        row = tuple(tagger.pipeline.sentence_features(["cat"])[0].tolist())
        width = tagger.naive.stacked.shape[1]
        for bad in ([row + (0,)], [row[:-1] + (width,)], [row[:-1] + (-1,)], row):
            with pytest.raises(InvalidInputError):
                hmc.naive_emission_matrix(tagger.naive, bad)


class TestFeatureMemo:
    def test_warm_and_cold_features_agree(self):
        corpus = random_corpus(np.random.default_rng(11))
        index = build_index(corpus.sentences, FeatureTemplate.LF2)
        pipeline = FeaturePipeline(index)
        tokens = ["walked", "Runs", "never-seen", "walked", "cat", "Runs"]
        cold = [list(vectorize(extract(tok, pos, index.template), index))
                for pos, tok in enumerate(tokens)]
        first = pipeline.sentence_features(tokens)
        assert first.dtype == np.intp
        assert first.tolist() == cold
        assert index.memo
        assert pipeline.sentence_features(tokens).tolist() == cold
        # a known word moved to the first position gets its own row
        assert pipeline.sentence_features(tokens[::-1]).tolist() == [
            list(vectorize(extract(tok, pos, index.template), index))
            for pos, tok in enumerate(tokens[::-1])
        ]

    def test_memo_holds_only_indexed_words(self):
        corpus = random_corpus(np.random.default_rng(12))
        tagger, _ = train_tagger(corpus, DecoderKind.HMC_EFB, FeatureTemplate.LF1, SGD)
        index = tagger.feature_index
        n_words = sum(1 for fam, _ in index.ids if fam == "word")
        filled = len(index.memo)
        assert 0 < filled <= 2 * n_words
        novel = [f"novel{i}" for i in range(1000)]
        for start in range(0, len(novel), 25):
            tagger.decode(novel[start : start + 25])
        assert len(index.memo) == filled
        assert all(("word", tok) in index.ids for tok, _ in index.memo)

    @pytest.mark.parametrize("kind", [DecoderKind.HMC_EFB, DecoderKind.MEMM])
    def test_memo_is_not_saved(self, kind, tmp_path):
        corpus = random_corpus(np.random.default_rng(13))
        tagger, _ = train_tagger(corpus, kind, FeatureTemplate.LF2, SGD)
        tagger.feature_index.memo.clear()
        save_model(tmp_path / "empty.model", tagger)
        for sent in corpus.sentences:
            tagger.decode(sent.tokens)
        assert tagger.feature_index.memo
        save_model(tmp_path / "full.model", tagger)
        assert (tmp_path / "empty.model").read_bytes() == (
            tmp_path / "full.model"
        ).read_bytes()
        fresh = build_index(corpus.sentences, FeatureTemplate.LF2)
        assert tagger.feature_index == fresh


class TestNaiveDecodingUsesTheMemo:
    @staticmethod
    def _count_extracts(monkeypatch):
        keys = []
        original = features.extract

        def counting(token, position, template):
            keys.append((token, position == 0))
            return original(token, position, template)

        # every efbtag module that binds the name, wherever decoding calls it from
        for name, module in list(sys.modules.items()):
            if name.startswith("efbtag") and hasattr(module, "extract"):
                monkeypatch.setattr(module, "extract", counting)
        return keys

    def test_trained_tagger_extracts_each_key_once(self, monkeypatch):
        corpus = random_corpus(np.random.default_rng(19))
        tagger, _ = train_tagger(corpus, DecoderKind.HMC_NAIVE, FeatureTemplate.LF2)
        keys = self._count_extracts(monkeypatch)
        for _ in range(2):
            for sent in corpus.sentences:
                tagger.decode(sent.tokens)
        assert keys and len(keys) == len(set(keys))

    def test_loaded_tagger_extracts_each_key_once(self, monkeypatch, tmp_path):
        corpus = random_corpus(np.random.default_rng(20))
        tagger, _ = train_tagger(corpus, DecoderKind.HMC_NAIVE, FeatureTemplate.LF1)
        save_model(tmp_path / "m.bin", tagger)
        loaded = load_model(tmp_path / "m.bin")
        assert loaded.feature_index == tagger.feature_index
        expected = [tagger.decode(sent.tokens) for sent in corpus.sentences]
        keys = self._count_extracts(monkeypatch)
        for _ in range(2):
            assert [loaded.decode(sent.tokens) for sent in corpus.sentences] == expected
        assert keys and len(keys) == len(set(keys))


@pytest.mark.parametrize(
    "kind", [DecoderKind.HMC_EFB, DecoderKind.MEMM, DecoderKind.HMC_NAIVE]
)
def test_training_extracts_each_key_once(monkeypatch, kind):
    corpus = random_corpus(np.random.default_rng(23))
    keys = TestNaiveDecodingUsesTheMemo._count_extracts(monkeypatch)
    train_tagger(corpus, kind, FeatureTemplate.LF2, SGD)
    distinct = {(tok, pos == 0) for s in corpus.sentences for pos, tok in enumerate(s.tokens)}
    assert len(keys) == len(set(keys)) and set(keys) == distinct


def test_naive_word_table_is_the_hmc_fb_emission_table():
    corpus = random_corpus(np.random.default_rng(21))
    fb, _ = train_tagger(corpus, DecoderKind.HMC_FB)
    naive, _ = train_tagger(corpus, DecoderKind.HMC_NAIVE, FeatureTemplate.NF)
    assert naive.naive.tables["word"].tobytes() == fb.hmc_params.emit.tobytes()
    test = random_corpus(np.random.default_rng(22), 25, STEMS + ("zebra", "Quux"))
    for sent in test.sentences:
        assert naive.decode(sent.tokens) == fb.decode(sent.tokens)


def test_efb_decode_equals_per_position_provider():
    corpus = random_corpus(np.random.default_rng(14))
    tagger, _ = train_tagger(corpus, DecoderKind.HMC_EFB, FeatureTemplate.LF2, SGD)
    params = efb.EfbParams(
        pi=tagger.hmc_params.pi,
        trans=tagger.hmc_params.trans,
        l_provider=lambda ids, t: predict(tagger.l0, ids),
    )
    test = random_corpus(np.random.default_rng(15), n_sentences=20)
    for sent in test.sentences:
        feats = tagger.pipeline.sentence_features(sent.tokens)
        assert tagger.decode(sent.tokens) == efb.decode_efb(params, feats)


def test_memm_training_extracts_each_sentence_once(monkeypatch):
    corpus = random_corpus(np.random.default_rng(16))
    calls = []
    original = FeaturePipeline.sentence_features

    def counting(self, tokens):
        calls.append(tokens)
        return original(self, tokens)

    monkeypatch.setattr(FeaturePipeline, "sentence_features", counting)
    train_tagger(corpus, DecoderKind.MEMM, FeatureTemplate.LF1, SGD)
    assert len(calls) == len(corpus.sentences)


@pytest.mark.parametrize("kind", list(DecoderKind))
def test_evaluate_equals_per_token_tally(kind):
    corpus = random_corpus(np.random.default_rng(17))
    test = random_corpus(np.random.default_rng(18), 25, STEMS + ("zebra", "Quux"))
    test = Corpus(sentences=test.sentences, tagset=corpus.tagset, vocab=test.vocab)
    tagger, _ = train_tagger(corpus, kind, FeatureTemplate.LF1, SGD)
    report = evaluate(tagger, test, corpus.vocab)
    confusion = np.zeros((N_LABELS, N_LABELS), dtype=np.int64)
    counts = {"kw_errors": 0, "kw_tokens": 0, "uw_errors": 0, "uw_tokens": 0}
    flags = split_known_unknown(test.sentences, corpus.vocab)
    for sent, sent_flags in zip(test.sentences, flags):
        for gold, pred, unk in zip(sent.labels, tagger.decode(sent.tokens), sent_flags):
            confusion[gold, pred] += 1
            bucket = "uw" if unk else "kw"
            counts[f"{bucket}_tokens"] += 1
            counts[f"{bucket}_errors"] += gold != pred
    assert np.array_equal(report.confusion, confusion)
    assert counts["uw_tokens"] > 0
    assert {k: getattr(report, k) for k in counts} == counts
