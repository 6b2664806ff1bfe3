"""One sentence rule for every entry point, fuzzed.

A sentence is a `collections.abc.Sequence`, not a `str` or `bytes`, of
non-empty `str` tokens, and a batch is a sequence of sentences (`core`).
`Tagger.decode` (every kind), `FeaturePipeline.sentence_features` and
`build_index` give a result of the right lengths for an input that keeps
the rule and raise `InvalidInputError` for one that breaks it; nothing
else escapes.  `expected_shape` below is the rule written out on its own.
"""

from collections import UserList, deque
from collections.abc import Sequence

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from efbtag.core import LabeledSentence, TagSet, Vocabulary
from efbtag.dataio import Corpus
from efbtag.discrim import SgdConfig
from efbtag.errors import InvalidInputError
from efbtag.features import FeatureIndex, FeaturePipeline, FeatureTemplate, build_index
from efbtag.tagger import DecoderKind, train_tagger

WORDS = ["the", "cat", "runs", "a", "dog", "sleeps"]


def toy_corpus() -> Corpus:
    tagset = TagSet.from_labels(["DT", "NN", "VB"])
    sentences = tuple(
        LabeledSentence(tuple(words.split()), tuple(map(tagset.id_of, tags.split())))
        for words, tags in (("the cat runs", "DT NN VB"), ("a dog sleeps", "DT NN VB"),
                            ("cat runs", "NN VB"))
    )
    vocab = Vocabulary.from_words(w for s in sentences for w in s.tokens)
    return Corpus(sentences=sentences, tagset=tagset, vocab=vocab)


_TAGGERS: dict = {}


def tagger_of(kind: DecoderKind):
    """One tagger per kind for the whole module: hypothesis reuses it across examples."""
    if kind not in _TAGGERS:
        _TAGGERS[kind] = train_tagger(toy_corpus(), kind, FeatureTemplate.LF1,
                                      SgdConfig(epochs=1))[0]
    return _TAGGERS[kind]


# known and unknown words, drawn often enough that sentences and batches are common
_word = st.sampled_from(WORDS + ["Zebra", "wombat"])
_hashable = st.one_of(
    _word, _word, _word, st.text(max_size=3), st.binary(max_size=3), st.integers(-3, 300),
    st.floats(allow_nan=True), st.none(),
)
_sentence = st.lists(_word, max_size=4)
_leaf = st.one_of(
    _hashable, _sentence, _sentence.map(tuple),
    st.lists(st.sampled_from(WORDS + ["", "Zebra"]), max_size=3).map(np.array),
)
values = st.recursive(
    _leaf,
    lambda inner: st.one_of(
        st.lists(_sentence, max_size=4),
        st.lists(inner, max_size=4),
        st.lists(inner, max_size=4).map(tuple),
        st.dictionaries(_word, inner, max_size=3),
        st.sets(_hashable, max_size=3),
        st.frozensets(_hashable, max_size=3),
    ),
    max_leaves=10,
)


def _is_sequence(value) -> bool:
    return isinstance(value, Sequence) and not isinstance(value, (str, bytes))


def _tokens_ok(sent) -> bool:
    return all(isinstance(tok, str) and tok for tok in sent)


def expected_shape(value) -> str | None:
    """"sentence" or "batch" for an input that keeps the rule, None otherwise."""
    if not _is_sequence(value):
        return None
    if not value or isinstance(value[0], str):
        return "sentence" if _tokens_ok(value) else None
    if all(_is_sequence(sent) and _tokens_ok(sent) for sent in value):
        return "batch"
    return None


def _outcome(call, *args):
    """The call's result, or None if it raised InvalidInputError; any other
    exception fails the test."""
    try:
        return call(*args)
    except InvalidInputError:
        return None


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(value=values)
@pytest.mark.parametrize("kind", list(DecoderKind), ids=lambda kind: kind.value)
def test_decode_labels_a_sentence_or_a_batch_and_refuses_anything_else(kind, value):
    tagger = tagger_of(kind)
    n = len(tagger.tagset)
    for given_value in (value, [value]):
        shape = expected_shape(given_value)
        if shape == "batch" and not all(given_value) or shape == "sentence" and not given_value:
            shape = None  # an empty sentence has no labels
        labels = _outcome(tagger.decode, given_value)
        assert (labels is not None) == (shape is not None), (given_value, labels)
        if shape == "sentence":
            assert len(labels) == len(given_value)
            assert all(type(lab) is int and 0 <= lab < n for lab in labels)
        elif shape == "batch":
            assert [len(sent) for sent in labels] == [len(sent) for sent in given_value]
            assert all(0 <= lab < n for sent in labels for lab in sent)


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(value=values)
def test_sentence_features_and_build_index_keep_the_rule(value):
    pipeline = FeaturePipeline(tagger_of(DecoderKind.HMC_EFB).feature_index)
    shape = expected_shape(value)
    for distinct in (False, True):
        got = _outcome(pipeline.sentence_features, value, distinct)
        assert (got is not None) == (shape is not None), (value, got)
        if shape is not None:
            n_tokens = len(value) if shape == "sentence" else sum(map(len, value))
            rows = got[1] if distinct else got
            assert rows.shape[0] == n_tokens

    # a corpus is a batch; its empty sentences are skipped
    corpus_ok = (isinstance(value, Sequence) and len(value) > 0
                 and all(_is_sequence(sent) and _tokens_ok(sent) for sent in value))
    index = _outcome(build_index, value, FeatureTemplate.LF1)
    assert (index is not None) == corpus_ok, (value, index)
    if corpus_ok:
        assert isinstance(index, FeatureIndex)
        assert {tok for sent in value for tok in sent} <= set(index.value_ids["word"])


NOT_SENTENCES = {
    "dict": lambda: {"the": 1}, "set": lambda: {"the", "cat"},
    "generator": lambda: (tok for tok in ["the", "cat"]), "bytes": lambda: b"the",
    "array": lambda: np.array(["the", "cat"]), "dict-item": lambda: [{"the": 1}],
    "set-item": lambda: [{"the", "cat"}], "array-item": lambda: [np.array(["the", "cat"])],
    "bytes-item": lambda: [b"the"],
}


@pytest.mark.parametrize("kind", list(DecoderKind), ids=lambda kind: kind.value)
@pytest.mark.parametrize("make", NOT_SENTENCES.values(), ids=NOT_SENTENCES)
def test_inputs_that_are_not_sentences_are_invalid_input(kind, make):
    """Each ended in a KeyError or a TypeError, or was decoded in some order
    (hmc-fb on a dict or a set item; every kind on an array)."""
    with pytest.raises(InvalidInputError):
        tagger_of(kind).decode(make())


@pytest.mark.parametrize("kind", list(DecoderKind), ids=lambda kind: kind.value)
def test_any_sequence_is_a_sentence(kind):
    """A deque is a `Sequence` that cannot be sliced: the featured kinds
    ended in a TypeError on it, alone or as a batch item."""
    tagger = tagger_of(kind)
    labels = tagger.decode(["the", "dog", "runs"])
    for seq in (deque, UserList, tuple):
        assert tagger.decode(seq(["the", "dog", "runs"])) == labels
        assert tagger.decode([seq(["the", "dog", "runs"]), ["a"]])[0] == labels


@pytest.mark.parametrize("corpus", [[{"the", "cat"}], {("the", "cat")}, [np.array(["the"])],
                                    (sent for sent in [["the"]])],
                         ids=["set-item", "set", "array-item", "generator"])
def test_a_corpus_that_is_not_a_sequence_of_sentences_is_invalid_input(corpus):
    # a set's order, and so the index's ids, would follow the hash seed
    with pytest.raises(InvalidInputError):
        build_index(corpus, FeatureTemplate.LF1)
