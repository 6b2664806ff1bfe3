"""A featured tagger's `word_rows`: the feature ids of each vocabulary word
at a position other than its sentence's first, held as its first array and
stored in its model file.  A loaded or rebuilt tagger's empty memo starts
with them, so it extracts no training word again but a checked sample."""

import copy
import pickle
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import memo_rows, word_row_memo
from efbtag import features, tagger as tagger_module
from efbtag.core import LabeledSentence, TagSet, Vocabulary
from efbtag.dataio import Corpus
from efbtag.discrim import SgdConfig
from efbtag.errors import DataError, InvalidInputError
from efbtag.features import FeatureTemplate, extract, vectorize
from efbtag.modelfile import load_model, save_model
from efbtag.tagger import CHECKED_WORD_ROWS, DecoderKind, train_compare_pair, train_tagger
from test_modelfile_fuzz import join, split
from test_sentence_scoring import SGD, STEMS, random_corpus
from test_tagger import SHORT_ENDS, corpus_of

FEATURED = [DecoderKind.HMC_NAIVE, DecoderKind.HMC_EFB, DecoderKind.MEMM]
FAST = SgdConfig(epochs=1)


def extracted(tagger) -> np.ndarray:
    """Each vocabulary word's ids, extracted at position 1."""
    words = list(tagger.vocab.words)
    index = tagger.feature_index
    return vectorize(extract(words, [1] * len(words), index.template), index)


@pytest.mark.parametrize("template", list(FeatureTemplate), ids=lambda t: t.value)
@pytest.mark.parametrize("kind", FEATURED, ids=lambda k: k.value)
def test_word_rows_are_each_words_later_extraction(kind, template):
    corpus = corpus_of(SHORT_ENDS)  # "the" and "a" are met only first
    tagger, _ = train_tagger(corpus, kind, template, FAST)
    rows = tagger.arrays["word_rows"]
    assert list(tagger.arrays)[0] == "word_rows" and rows.dtype == np.float64
    assert rows.tolist() == extracted(tagger).tolist()


SENTENCES = st.lists(st.lists(st.sampled_from(["a", "B", "ab", "b-1", "Ab", "7", "ab-"]),
                              min_size=1, max_size=5), min_size=1, max_size=6)


@settings(max_examples=30, deadline=None)
@given(sentences=SENTENCES, kind=st.sampled_from(FEATURED),
       template=st.sampled_from(list(FeatureTemplate)), data=st.data())
def test_word_rows_of_a_random_corpus(sentences, kind, template, data):
    tagset = TagSet(("X", "Y"))
    labeled = tuple(
        LabeledSentence(tuple(sent), tuple(data.draw(st.lists(
            st.integers(0, 1), min_size=len(sent), max_size=len(sent)))))
        for sent in sentences)
    vocab = Vocabulary.from_words(tok for sent in sentences for tok in sent)
    if kind is DecoderKind.MEMM and max(map(len, sentences)) < 2:
        return  # memm needs a sentence of two tokens
    tagger, _ = train_tagger(Corpus(labeled, tagset, vocab), kind, template, FAST)
    assert tagger.arrays["word_rows"].tolist() == extracted(tagger).tolist()


def test_the_compare_pair_shares_memms_word_rows():
    efb_tagger, memm_tagger = train_compare_pair(corpus_of(SHORT_ENDS), FeatureTemplate.LF1, FAST)
    assert efb_tagger.arrays["word_rows"] is memm_tagger.arrays["word_rows"]


@pytest.mark.parametrize("template", [FeatureTemplate.LF1, FeatureTemplate.LF2],
                         ids=lambda t: t.value)
@pytest.mark.parametrize("kind", FEATURED, ids=lambda k: k.value)
def test_trained_loaded_and_rebuilt_taggers_agree(kind, template, tmp_path):
    """They decode the same labels, alone and batched, and every memo holds
    the same row for each vocabulary word it holds; the loaded and rebuilt
    ones hold every indexed vocabulary word's row, and only those."""
    tagger, _ = train_tagger(random_corpus(np.random.default_rng(5)), kind, template, SGD)
    test = random_corpus(np.random.default_rng(6), 30, STEMS + ("zebra", "Quux"))
    sentences = [sent.tokens for sent in test.sentences]
    save_model(tmp_path / "m.bin", tagger)
    others = {"loaded": load_model(tmp_path / "m.bin"),
              "unpickled": pickle.loads(pickle.dumps(tagger)),
              "deep-copied": copy.deepcopy(tagger)}
    stored = word_row_memo(tagger)
    for name, other in others.items():
        assert memo_rows(other.feature_index.memo) == stored, name
    want = tagger.decode(sentences)
    trained = memo_rows(tagger.feature_index.memo)
    assert all(trained[key] == row for key, row in stored.items() if key in trained)
    for name, other in others.items():
        assert other.decode(sentences) == want, name
        assert [other.decode(sent) for sent in sentences] == want, name


def rows_bytes(header: dict) -> int:
    """The byte length of the file's `word_rows` block, its first array."""
    entry = header["arrays"][0]
    assert entry["name"] == "word_rows"
    return int(np.prod(entry["shape"])) * 8


@pytest.mark.parametrize("template", list(FeatureTemplate), ids=lambda t: t.value)
@pytest.mark.parametrize("kind", FEATURED, ids=lambda k: k.value)
def test_a_file_without_word_rows_loads_as_the_file_with_them(kind, template, tmp_path,
                                                              monkeypatch):
    """A file written before `word_rows` was stored extracts them once at
    load, then decodes, and saves, as the current file does.  Either load
    extracts the sampled rows its tagger checks: every word of this corpus."""
    tagger, _ = train_tagger(corpus_of(SHORT_ENDS), kind, template, FAST)
    save_model(tmp_path / "current.bin", tagger)
    header, body = split((tmp_path / "current.bin").read_bytes())
    skip = rows_bytes(header)
    del header["arrays"][0]
    (tmp_path / "older.bin").write_bytes(join(header, body[skip:]))

    calls = []
    original = features.extract

    def counting(tokens, positions, template):
        calls.append(list(tokens))
        return original(tokens, positions, template)

    for module in (features, tagger_module):
        monkeypatch.setattr(module, "extract", counting)
    older = load_model(tmp_path / "older.bin")
    words = list(tagger.vocab.words)
    assert calls == [words, words]
    current = load_model(tmp_path / "current.bin")
    assert calls == [words, words, words]  # the current file extracts only the sample
    monkeypatch.undo()

    assert list(older.arrays) == list(current.arrays)
    for name, arr in current.arrays.items():
        assert older.arrays[name].tobytes() == arr.tobytes(), name
    assert memo_rows(older.feature_index.memo) == memo_rows(current.feature_index.memo)
    sentences = [s.tokens for s in corpus_of(SHORT_ENDS).sentences] + [("zebra", "the")]
    assert older.decode(sentences) == current.decode(sentences) == tagger.decode(sentences)
    save_model(tmp_path / "resaved.bin", older)
    assert (tmp_path / "resaved.bin").read_bytes() == (tmp_path / "current.bin").read_bytes()


def damage(name: str, rows: np.ndarray, tagger) -> np.ndarray:
    """`rows` with one entry made bad, on the row of "cat"."""
    rows = rows.copy()
    cat = tagger.vocab.words.index("cat")
    if name == "nan":
        rows[cat, 1] = np.nan
    elif name == "fraction":
        rows[cat, 1] = 0.5
    elif name == "negative":
        rows[cat, 1] = -1
    elif name == "other-family":  # the word's own id, in the suffix-3 column
        rows[cat, 1] = rows[cat, 0]
    elif name == "wrong-word":  # another word's id
        rows[cat, 0] = rows[cat - 1, 0]
    elif name == "other-value":  # another word's suffix-3 id: in range, but not cat's
        assert rows[cat - 1, 1] != rows[cat, 1]
        rows[cat, 1] = rows[cat - 1, 1]
    return rows


REFUSALS = {
    "nan": r"array 'word_rows' holds nan for word 'cat': not an id of family 'suffix-3'",
    "fraction": r"array 'word_rows' holds 0.5 for word 'cat': not an id of family 'suffix-3'",
    "negative": r"array 'word_rows' holds -1 for word 'cat': not an id of family 'suffix-3'",
    "other-family": r"array 'word_rows' holds \d+ for word 'cat': not an id of family 'suffix-3'",
    "wrong-word": r"array 'word_rows' gives word 'cat' the id \d+, not its own \d+",
    "other-value": r"array 'word_rows' gives word 'cat' the ids \[[\d, ]+\], "
                   r"not its extracted \[[\d, ]+\]",
}


@pytest.mark.parametrize("name", REFUSALS)
@pytest.mark.parametrize("kind", FEATURED, ids=lambda k: k.value)
def test_damaged_word_rows_are_refused(kind, name, tmp_path):
    """By `Tagger`, and at load as a DataError naming the file and the array."""
    tagger, _ = train_tagger(corpus_of(SHORT_ENDS), kind, FeatureTemplate.LF1, FAST)
    bad = damage(name, tagger.arrays["word_rows"], tagger)
    with pytest.raises(InvalidInputError, match=f"^{REFUSALS[name]}$"):
        replace(tagger, arrays={**tagger.arrays, "word_rows": bad})

    save_model(tmp_path / "m.bin", tagger)
    header, body = split((tmp_path / "m.bin").read_bytes())
    skip = rows_bytes(header)
    (tmp_path / "m.bin").write_bytes(join(header, bad.astype("<f8").tobytes() + body[skip:]))
    # the loader refuses a non-finite value itself
    message = "array 'word_rows' holds a non-finite value" if name == "nan" else REFUSALS[name]
    with pytest.raises(DataError, match=rf"m\.bin: {message}$"):
        load_model(tmp_path / "m.bin")


@pytest.mark.parametrize("kind", FEATURED, ids=lambda k: k.value)
def test_a_truncated_word_rows_block_is_refused(kind, tmp_path):
    tagger, _ = train_tagger(corpus_of(SHORT_ENDS), kind, FeatureTemplate.LF1, FAST)
    short = tagger.arrays["word_rows"][:-1]
    with pytest.raises(InvalidInputError, match=r"holds arrays \{'word_rows': \(5, 7\), "):
        replace(tagger, arrays={**tagger.arrays, "word_rows": short})

    save_model(tmp_path / "m.bin", tagger)
    data = (tmp_path / "m.bin").read_bytes()
    header, body = split(data)
    cut = len(data) - len(body) + rows_bytes(header) - 8  # the block's last value gone
    (tmp_path / "m.bin").write_bytes(data[:cut])
    with pytest.raises(DataError, match=r"m\.bin: truncated array 'word_rows'$"):
        load_model(tmp_path / "m.bin")


@pytest.mark.parametrize("kind", FEATURED, ids=lambda k: k.value)
def test_rows_of_other_feature_definitions_are_refused(kind, tmp_path, monkeypatch):
    """A file whose rows an earlier `extract` wrote, here one whose suffixes
    were a letter shorter, fails the check of the sampled rows at load;
    a large vocabulary extracts only the sample, evenly spread."""
    corpus = corpus_of([(f"the cat{k} runs", "DT NN VB") for k in range(3 * CHECKED_WORD_ROWS)])
    tagger, _ = train_tagger(corpus, kind, FeatureTemplate.LF1, FAST)
    words = tagger.vocab.words
    assert len(words) > 2 * CHECKED_WORD_ROWS
    save_model(tmp_path / "m.bin", tagger)

    original = features.extract
    def shorter(tokens, positions, template):
        cols = original(tokens, positions, template)
        return {fam: [value[1:] for value in col] if fam.startswith("suffix") else col
                for fam, col in cols.items()}
    for module in (features, tagger_module):
        monkeypatch.setattr(module, "extract", shorter)
    older, _ = train_tagger(corpus, kind, FeatureTemplate.LF1, FAST)
    monkeypatch.undo()
    save_model(tmp_path / "older.bin", older)
    with pytest.raises(DataError, match=r"older\.bin: array 'word_rows' gives word .* the ids "):
        load_model(tmp_path / "older.bin")

    calls = []
    monkeypatch.setattr(tagger_module, "extract",
                        lambda *args: calls.append(list(args[0])) or original(*args))
    load_model(tmp_path / "m.bin")
    step = -(-len(words) // CHECKED_WORD_ROWS)
    assert calls == [list(words[::step])] and len(calls[0]) <= CHECKED_WORD_ROWS
