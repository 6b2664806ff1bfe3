"""MEMM step tables from N exponentials a row equal the direct softmax.

`discrim.predict_all_prev` factors each step's softmax over N x N logits
into exponentials of the input's N scores and of the previous-label
block, normalised over labels, and scores a table column whose
normaliser underflows as a direct softmax.  `reference_predict_all_prev`
below is the direct softmax it replaced.  An input's table is the same
whichever inputs are scored with it, so batched memm decoding gives the
per-sentence lattices byte for byte.
"""

import importlib.util
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from conftest import decode_memm
from efbtag import discrim, memm
from efbtag.core import ROW_SUM_TOL, PosteriorLattice
from efbtag.dataio import CorpusFormat, read_corpus
from efbtag.discrim import LogisticModel, SgdConfig, predict, predict_all_prev
from efbtag.features import FeatureTemplate
from efbtag.memm import forward_lattice
from efbtag.tagger import DecoderKind, buckets, train_tagger

_GEN = Path(__file__).resolve().parents[1] / "benchmarks" / "gen.py"


def reference_predict_all_prev(model, feature_ids):
    """The direct softmax over each previous label's N logits, as [t, i, j]."""
    ids = np.atleast_2d(np.asarray(feature_ids))
    w = model.weights
    base = w[ids].sum(axis=1) + w[model.bias_row]  # [t, i]
    block = w[model.n_features : model.n_features + model.n_labels]  # [j, i]
    scores = base[:, None, :] + block  # [t, j, i]
    e = np.exp(scores - scores.max(axis=2, keepdims=True))
    tables = (e / e.sum(axis=2, keepdims=True)).transpose(0, 2, 1)
    return tables if np.ndim(feature_ids) == 2 else tables[0]


def weight_model(rng, n_features, n_labels):
    """Weight rows at scales 1e-6 ... 1e3, as in test_bitwise_kernels."""
    d = n_features + n_labels + 1
    weights = rng.standard_normal((d, n_labels)) * 10.0 ** rng.integers(-6, 4, (d, 1))
    return LogisticModel(weights, n_features, n_labels, True)


def tables_without_warnings(model, ids):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        return predict_all_prev(model, ids)


@pytest.mark.parametrize("n_labels", [1, 2, 5, 17])
@pytest.mark.parametrize("seed", range(5))
def test_normal_weights_match_the_direct_softmax(n_labels, seed):
    rng = np.random.default_rng([seed, n_labels])
    n_features = 200
    d = n_features + n_labels + 1
    model = LogisticModel(rng.normal(0.0, 1.5, (d, n_labels)), n_features, n_labels, True)
    ids = rng.integers(0, n_features, (40, 13))
    got = tables_without_warnings(model, ids)
    assert got.shape == (40, n_labels, n_labels) and got.flags.c_contiguous
    assert np.abs(got - reference_predict_all_prev(model, ids)).max() <= 1e-13
    one = predict_all_prev(model, ids[0])
    assert np.abs(one - reference_predict_all_prev(model, ids[0])).max() <= 1e-13


@pytest.mark.parametrize("n_labels", [1, 2, 17])
@pytest.mark.parametrize("seed", range(10))
def test_wide_weight_scales_give_finite_distributions(n_labels, seed):
    rng = np.random.default_rng([seed, n_labels, 1])
    model = weight_model(rng, 300, n_labels)
    ids = rng.integers(0, 300, (23, 13))
    got = tables_without_warnings(model, ids)
    assert np.isfinite(got).all()
    assert ((got >= 0.0) & (got <= 1.0)).all()
    # column j is the distribution over labels given previous label j
    assert (np.abs(got.sum(axis=1) - 1.0) <= ROW_SUM_TOL).all()
    assert np.allclose(got, reference_predict_all_prev(model, ids), rtol=0, atol=1e-12)


def test_underflowing_normaliser_falls_back_to_the_direct_softmax():
    # the input puts all its mass on label 1, previous label 0 all of its
    # mass on label 0: each factor of the other is exp(-2000) = 0
    weights = np.array([[-1e3, 0.0],  # feature 0
                        [0.0, -2e3],  # previous label 0
                        [0.0, 0.0],   # previous label 1
                        [-1e3, 0.0]])  # bias
    model = LogisticModel(weights, 1, 2, True)
    got = tables_without_warnings(model, [[0], [0]])
    assert np.array_equal(got[:, :, 0], [[0.5, 0.5], [0.5, 0.5]])
    assert np.array_equal(got[:, :, 1], [[0.0, 1.0], [0.0, 1.0]])
    assert np.array_equal(got, reference_predict_all_prev(model, [[0], [0]]))


def test_empty_batch_gives_no_tables():
    model = weight_model(np.random.default_rng(0), 5, 3)
    assert predict_all_prev(model, np.empty((0, 2), dtype=np.intp)).shape == (0, 3, 3)


@pytest.mark.parametrize("n_labels", [1, 2, 17])
@pytest.mark.parametrize("seed", range(4))
def test_forward_rows_are_distributions_at_wide_weight_scales(n_labels, seed):
    """Forward rows pass the check a memm `Tagger` makes of them: entries in
    [0, 1] and each row summing to 1 within ROW_SUM_TOL, for a sentence of
    2,000 tokens alone and stacked with others, each stacked token reading
    its distinct row."""
    rng = np.random.default_rng([seed, n_labels, 4])
    l1 = weight_model(rng, 300, n_labels)
    scales = 10.0 ** rng.integers(-6, 4, (301, 1))
    l0 = LogisticModel(rng.standard_normal((301, n_labels)) * scales, 300, n_labels, False)
    lengths = [2_000, 1, 37, 500]
    ids = rng.integers(0, 30, (sum(lengths), 3))  # few distinct rows, so rows repeat
    distinct, token_rows = np.unique(ids, axis=0, return_inverse=True)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        alone = memm.memm_forward(l0, l1, ids[:2_000])
        stacked = memm.memm_forward(l0, l1, distinct, lengths, token_rows.ravel())
    for alphas in (alone, stacked):
        assert ((alphas >= 0.0) & (alphas <= 1.0 + ROW_SUM_TOL)).all()
        assert (np.abs(alphas.sum(axis=1) - 1.0) <= ROW_SUM_TOL).all()
        PosteriorLattice(alphas)
    assert stacked[:2_000].tobytes() == alone.tobytes()


# --- memm decoding on gen.py corpora -----------------------------------------


@pytest.fixture(scope="module")
def corpora(tmp_path_factory):
    # loaded by path, so the benchmark directory's modules stay off sys.path;
    # registered first, because its dataclasses look their module up there
    spec = importlib.util.spec_from_file_location("efbtag_bench_gen", _GEN)
    gen = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(gen)
    tmp = tmp_path_factory.mktemp("gen")
    lang = gen.Language()
    for part, (name, tokens) in enumerate((("train", 4_000), ("test", 3_000))):
        gen.write_conllu(tmp / f"{name}.conllu",
                         lang.sample([7, part], tokens, gen.ewt_lengths, 0.0))
    train = read_corpus(tmp / "train.conllu", CorpusFormat.CONLLU)
    test = read_corpus(tmp / "test.conllu", CorpusFormat.CONLLU, tagset=train.tagset)
    return train, test


@pytest.mark.parametrize("template", [FeatureTemplate.LF1, FeatureTemplate.LF2])
def test_memm_labels_equal_labels_from_reference_tables(corpora, template):
    train, test = corpora
    tagger, _ = train_tagger(train, DecoderKind.MEMM, template, SgdConfig(epochs=1))
    sentences = [sent.tokens for sent in test.sentences]
    expected = []
    for tokens in sentences:
        feats = tagger.pipeline.sentence_features(tokens)
        steps = list(reference_predict_all_prev(tagger.l1, feats[1:]))
        lattice = forward_lattice(predict(tagger.l0, feats[0]), steps)
        expected.append(lattice.argmax(axis=1).tolist())
        assert decode_memm(tagger.l0, tagger.l1, feats) == expected[-1]
    assert tagger.decode(sentences) == expected


# --- a table does not depend on the inputs scored with it --------------------


def assert_tables_are_per_input(model, ids):
    tables = tables_without_warnings(model, ids)
    for k in range(len(ids)):
        alone = tables_without_warnings(model, ids[k : k + 1])[0]
        assert alone.tobytes() == tables[k].tobytes(), k


@pytest.mark.parametrize("n_labels", [1, 2, 5, 17])
@pytest.mark.parametrize("seed", range(3))
def test_normal_weight_tables_do_not_depend_on_the_batch(n_labels, seed):
    rng = np.random.default_rng([seed, n_labels, 2])
    d = 100 + n_labels + 1
    model = LogisticModel(rng.normal(0.0, 1.5, (d, n_labels)), 100, n_labels, True)
    assert_tables_are_per_input(model, rng.integers(0, 100, (37, 13)))


def test_wide_weight_tables_do_not_depend_on_the_batch(monkeypatch):
    # the direct softmax runs only for columns whose normaliser underflows
    fallbacks = []
    softmax = discrim._softmax_rows

    def counting_softmax(scores):
        fallbacks.append(len(scores))
        return softmax(scores)

    monkeypatch.setattr(discrim, "_softmax_rows", counting_softmax)
    for seed in range(12):
        rng = np.random.default_rng([seed, 3])
        n_labels = (1, 2, 17)[seed % 3]
        model = weight_model(rng, 300, n_labels)
        assert_tables_are_per_input(model, rng.integers(0, 300, (23, 13)))
    assert fallbacks, "no column took the FACTOR_FLOOR fallback"


def test_batched_memm_lattices_equal_per_sentence_lattices(corpora, monkeypatch):
    train, test = corpora
    tagger, _ = train_tagger(train, DecoderKind.MEMM, FeatureTemplate.LF1, SgdConfig(epochs=1))
    lattices = []
    memm_forward = memm.memm_forward

    def recording_memm_forward(*args):
        lattices.append(memm_forward(*args))
        return lattices[-1]

    monkeypatch.setattr(memm, "memm_forward", recording_memm_forward)
    sentences = [sent.tokens for sent in test.sentences]
    alone = []
    for tokens in sentences:
        tagger.decode(tokens)
        alone.append(lattices.pop())
    tagger.decode(sentences)
    groups = buckets([len(tokens) for tokens in sentences])
    assert len(lattices) == len(groups) and max(map(len, groups)) > 1
    for group, stacked in zip(groups, lattices):
        expected = np.concatenate([alone[i] for i in group])
        assert stacked.tobytes() == expected.tobytes()
