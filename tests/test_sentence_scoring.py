"""Sentence-level scoring equals the per-position calls it replaces, exactly."""

import sys

import numpy as np
import pytest
from hypothesis import given, strategies as st

from conftest import decode_efb, memo_rows, naive_column
from efbtag import efb, features, hmc
from efbtag.core import LabeledSentence, TagSet, Vocabulary
from efbtag.dataio import Corpus, split_known_unknown
from efbtag.discrim import SgdConfig, mean_loss, predict, predict_all_prev, train, zero_model
from efbtag.errors import InvalidInputError
from efbtag.evaluation import evaluate
from efbtag.features import (
    FeaturePipeline,
    FeatureTemplate,
    build_index,
    extract,
    vectorize,
)
from efbtag.memm import forward_lattice, memm_forward
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

    def test_all_prev_rows_equal_per_row_calls(self):
        rng = np.random.default_rng(6)
        model = random_model(rng, 25, conditions_on_prev=True)
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
    @pytest.mark.parametrize("slot", ["last", "first"])
    def test_out_of_range_id_rejected(self, bad, slot):
        rng = np.random.default_rng(7)
        plain = random_model(rng, 30)
        cond = random_model(rng, 30, conditions_on_prev=True)
        ids = [[1, 2], [3, bad]] if slot == "last" else [[1, 2, 5], [bad, 0, 29]]
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
        with pytest.raises(InvalidInputError, match="previous labels must be integers"):
            predict(cond, ids, [1.7, 0])
        # one label for all inputs or one each, not a column, a row or another count
        for prev in ([[0], [1]], [[0, 1]], [0, 1, 1]):
            with pytest.raises(InvalidInputError, match="one previous label or one each"):
                predict(cond, ids, prev)
        assert predict(cond, ids, [1]).tobytes() == predict(cond, ids, 1).tobytes()
        with pytest.raises(InvalidInputError):
            predict_all_prev(plain, ids)


# the first row is shorter than the others, so a check that reads only
# the rows after the first lets it through
RAGGED = [[0], [1, 2], [3, 4]]


def naive_tagger():
    corpus = random_corpus(np.random.default_rng(12), 5)
    return train_tagger(corpus, DecoderKind.HMC_NAIVE, smoothing=1e-3)[0]


def ragged_calls():
    """Each entry point that takes a batch of ids, called on a ragged one."""
    rng = np.random.default_rng(5)
    plain, cond = random_model(rng, 20), random_model(rng, 20, conditions_on_prev=True)
    examples = [(row, None, 0) for row in RAGGED]
    widths = [np.zeros((1, 2), dtype=np.intp), np.zeros((1, 3), dtype=np.intp)]
    return {
        "predict": lambda: predict(plain, RAGGED),
        "predict_all_prev": lambda: predict_all_prev(cond, RAGGED),
        "train": lambda: train(examples, 20, N_LABELS, SGD),
        "mean_loss": lambda: mean_loss(plain, examples),
        "memm_forward": lambda: memm_forward(plain, cond, RAGGED),
        "naive_emission_matrix": lambda: hmc.naive_emission_matrix(
            naive_tagger().naive, RAGGED
        ),
        "estimate_naive_emission": lambda: hmc.estimate_naive_emission(
            naive_tagger().feature_index, widths, [(0,), (1,)], N_LABELS
        ),
    }


@pytest.mark.parametrize("entry", list(ragged_calls()))
def test_ragged_batch_rejected(entry):
    with pytest.raises(InvalidInputError, match="feature ids are ragged"):
        ragged_calls()[entry]()


class TestMemmForward:
    def _models(self, rng, n_features=15):
        return random_model(rng, n_features), random_model(rng, n_features, True)

    @staticmethod
    def _per_position(l0, l1, obs):
        first = predict(l0, obs[0])
        return forward_lattice(first, [predict_all_prev(l1, fv) for fv in obs[1:]])

    @pytest.mark.parametrize(
        "obs",
        [
            [[3]],
            [[0, 2], [1, 1], [3, 0]],
            [[4, 4, 0, 0], [13, 13, 13, 13], [1, 2, 3, 14], [5, 5, 0, 9]],
            [[1, 2], [3, 4], [5, 6], [7, 8], [9, 10]],
            np.arange(24).reshape(8, 3) % 15,
        ],
    )
    def test_equals_per_position_recursion(self, obs):
        l0, l1 = self._models(np.random.default_rng(9))
        assert np.array_equal(memm_forward(l0, l1, obs), self._per_position(l0, l1, obs))


def per_token_naive(model, index, fvs, n_labels):
    out = np.ones((len(fvs), n_labels))
    for t, fv in enumerate(fvs):
        for fam, value in fv.items():
            out[t] *= model.tables[fam][:, naive_column(index, fam, value)]
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
        assert np.array_equal(got, per_token_naive(tagger.naive, tagger.feature_index, fvs, N_LABELS))

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
            # the same values in the same order: the same columns
            assert list(index.value_ids[fam]) == list(value_index[fam])
            assert model.tables[fam].tobytes() == tables[fam].tobytes()

    def test_untrained_family_rejected(self):
        tagger = self._tagger(FeatureTemplate.LF1)
        row = tuple(tagger.pipeline.sentence_features(["cat"])[0].tolist())
        width = len(tagger.naive.stacked_rows)
        for bad in ([row + (0,)], [row[:-1] + (width,)], [row[:-1] + (-1,)], row,
                    [row[:-1] + (0.5,)]):
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
        assert index.memo.n_rows
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
        n_words = len(index.value_ids["word"])
        filled = index.memo.n_rows
        assert 0 < filled <= 2 * n_words
        novel = [f"novel{i}" for i in range(1000)]
        for start in range(0, len(novel), 25):
            tagger.decode(novel[start : start + 25])
        assert index.memo.n_rows == filled
        assert all(tok in index.value_ids["word"] for tok, _ in memo_rows(index.memo))

    @pytest.mark.parametrize("kind", [DecoderKind.HMC_EFB, DecoderKind.MEMM])
    def test_memo_is_not_saved(self, kind, tmp_path):
        corpus = random_corpus(np.random.default_rng(13))
        tagger, _ = train_tagger(corpus, kind, FeatureTemplate.LF2, SGD)
        memo = tagger.feature_index.memo
        for rows in memo.rows:
            rows.clear()
        memo.n_rows = 0
        save_model(tmp_path / "empty.model", tagger)
        for sent in corpus.sentences:
            tagger.decode(sent.tokens)
        assert memo.n_rows
        save_model(tmp_path / "full.model", tagger)
        assert (tmp_path / "empty.model").read_bytes() == (
            tmp_path / "full.model"
        ).read_bytes()
        fresh = build_index(corpus.sentences, FeatureTemplate.LF2)
        assert tagger.feature_index == fresh


def stacked_per_sentence(pipeline, sentences):
    return np.concatenate([pipeline.sentence_features(sent) for sent in sentences])


def extracted_rows(index, sentences):
    """Each token's ids from its own extraction, without the memo."""
    return [list(vectorize(extract(tok, pos, index.template), index))
            for sent in sentences for pos, tok in enumerate(sent)]


class TestBatchFeatures:
    """One batch call gives the per-sentence calls' arrays stacked, byte for byte."""

    TRAIN = [["Zed", "runs"], ["the", "cat", "runs"], ["x"], ["cat", "the", "cat"]]
    # "Zed" was seen only first; "novel" and "Quux" are outside the index
    BATCH = [["runs", "Zed"], ["Zed"], ["novel", "cat", "novel"], ["x"], ["Quux"],
             ["the", "cat", "runs"]]

    @staticmethod
    def assert_same_bytes(got, expected):
        assert got.dtype == expected.dtype == np.intp
        assert got.shape == expected.shape and got.tobytes() == expected.tobytes()

    @staticmethod
    def assert_memo_rows_are_extractions(index):
        for (tok, first), row in memo_rows(index.memo).items():
            assert tok in index.value_ids["word"]
            assert row == vectorize(extract(tok, 0 if first else 1, index.template), index)

    @pytest.mark.parametrize("template", list(FeatureTemplate))
    def test_warm_index(self, template):
        per = FeaturePipeline(build_index(self.TRAIN, template))
        batch = FeaturePipeline(build_index(self.TRAIN, template))
        got = batch.sentence_features(self.BATCH)
        self.assert_same_bytes(got, stacked_per_sentence(per, self.BATCH))
        assert got.tolist() == extracted_rows(batch.index, self.BATCH)
        memo = memo_rows(batch.index.memo)
        assert memo == memo_rows(per.index.memo)
        assert ("Zed", False) in memo
        assert not {("novel", True), ("novel", False), ("Quux", True)} & set(memo)
        self.assert_memo_rows_are_extractions(batch.index)

    @pytest.mark.parametrize("kind", [DecoderKind.HMC_EFB, DecoderKind.MEMM,
                                      DecoderKind.HMC_NAIVE])
    def test_cold_memo_after_load_model(self, kind, tmp_path):
        corpus = random_corpus(np.random.default_rng(24))
        tagger, _ = train_tagger(corpus, kind, FeatureTemplate.LF2, SGD, smoothing=1e-3)
        save_model(tmp_path / "m.bin", tagger)
        test = random_corpus(np.random.default_rng(25), 30, STEMS + ("zebra", "Quux"))
        sentences = [sent.tokens for sent in test.sentences]
        per, batch = (load_model(tmp_path / "m.bin").pipeline for _ in range(2))
        assert not batch.index.memo.n_rows
        got = batch.sentence_features(sentences)
        self.assert_same_bytes(got, stacked_per_sentence(per, sentences))
        assert got.tolist() == extracted_rows(batch.index, sentences)
        assert batch.index.memo.n_rows
        assert memo_rows(batch.index.memo) == memo_rows(per.index.memo)
        self.assert_memo_rows_are_extractions(batch.index)
        # a second batch, now from a warm table, gives the same bytes
        self.assert_same_bytes(batch.sentence_features(sentences), got)

    @given(
        train=st.lists(st.lists(st.sampled_from(["a", "B", "ab", "b-1", "Ab", "7"]),
                                min_size=1, max_size=5), min_size=1, max_size=5),
        sentences=st.lists(st.lists(st.sampled_from(["a", "B", "ab", "b-1", "zz", "Q"]),
                                    max_size=5), min_size=1, max_size=6),
        template=st.sampled_from(list(FeatureTemplate)),
    )
    def test_random_batches(self, train, sentences, template):
        per = FeaturePipeline(build_index(train, template))
        batch = FeaturePipeline(build_index(train, template))
        got = batch.sentence_features(sentences)
        self.assert_same_bytes(got, stacked_per_sentence(per, sentences))
        assert got.tolist() == extracted_rows(batch.index, sentences)
        assert memo_rows(batch.index.memo) == memo_rows(per.index.memo)
        self.assert_memo_rows_are_extractions(batch.index)
        # the distinct form: one row per (token, first) key, gathered to the same bytes
        distinct = FeaturePipeline(build_index(train, template))
        rows, token_rows = distinct.sentence_features(sentences, distinct=True)
        self.assert_same_bytes(rows.take(token_rows, axis=0), got)
        keys = [(tok, pos == 0) for sent in sentences for pos, tok in enumerate(sent)]
        assert len(rows) == len(set(keys))
        assert len(set(zip(keys, token_rows.tolist()))) == len(rows)  # a row per key
        assert memo_rows(distinct.index.memo) == memo_rows(per.index.memo)


class TestNaiveDecodingUsesTheMemo:
    @staticmethod
    def _count_extracts(monkeypatch):
        keys = []
        original = features.extract

        def counting(tokens, positions, template):
            if isinstance(tokens, str):  # one token
                keys.append((tokens, positions == 0))
            else:  # every key of a batch call
                keys.extend((tok, pos == 0) for tok, pos in zip(tokens, positions))
            return original(tokens, positions, template)

        # every efbtag module that binds the name, wherever decoding calls it from
        for name, module in list(sys.modules.items()):
            if name.startswith("efbtag") and hasattr(module, "extract"):
                monkeypatch.setattr(module, "extract", counting)
        return keys

    def test_trained_tagger_extracts_each_key_once(self, monkeypatch):
        corpus = random_corpus(np.random.default_rng(19))
        tagger, _ = train_tagger(corpus, DecoderKind.HMC_NAIVE, FeatureTemplate.LF2)
        keys = self._count_extracts(monkeypatch)
        # `build_index` left every training key's row in the memo
        for sent in corpus.sentences:
            tagger.decode(sent.tokens)
        assert keys == []
        # each sentence rotated: indexed words at places they were not
        # trained at, so keys the memo lacks, and some unknown words
        train_keys = {(tok, pos == 0) for s in corpus.sentences
                      for pos, tok in enumerate(s.tokens)}
        unseen = random_corpus(np.random.default_rng(24), 25, STEMS + ("zebra", "Quux"))
        rotated = [s.tokens[1:] + s.tokens[:1] for s in corpus.sentences + unseen.sentences]
        for _ in range(2):
            for tokens in rotated:
                tagger.decode(tokens)
        indexed = [key for key in keys if key[0] in tagger.feature_index.value_ids["word"]]
        assert indexed and len(indexed) == len(set(indexed))
        assert not set(indexed) & train_keys

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
        assert tagger.decode(sent.tokens) == decode_efb(params, feats)


def test_memm_training_extracts_each_sentence_once(monkeypatch):
    corpus = random_corpus(np.random.default_rng(16))
    calls = []
    original = FeaturePipeline.sentence_features

    def counting(self, tokens):
        calls.append(tokens)
        return original(self, tokens)

    monkeypatch.setattr(FeaturePipeline, "sentence_features", counting)
    train_tagger(corpus, DecoderKind.MEMM, FeatureTemplate.LF1, SGD)
    # one batch call for l0 and l1 together, every sentence once and in order
    assert calls == [[sent.tokens for sent in corpus.sentences]]


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
