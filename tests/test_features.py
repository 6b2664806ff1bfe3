import numpy as np
import pytest
from hypothesis import given, strategies as st

from conftest import memo_rows
from efbtag.core import LabeledSentence
from efbtag.errors import InvalidInputError
from efbtag.features import (
    TEMPLATE_FAMILIES,
    FeaturePipeline,
    FeatureTemplate,
    build_index,
    extract,
    vectorize,
)

tokens_st = st.text(
    alphabet=st.characters(blacklist_categories=("Cs", "Zs", "Cc")),
    min_size=1,
    max_size=12,
)


def id_of(index, family, value):
    """A value's id, read from the index's maps one value at a time."""
    return index.value_ids[family].get(value, index.unknown_ids[family])


class TestExtract:
    def test_nf_is_word_only(self):
        assert extract("Batman", 0, FeatureTemplate.NF) == {"word": "Batman"}

    def test_lf1_first_position_capitalized(self):
        fv = extract("Batman", 0, FeatureTemplate.LF1)
        assert fv == {
            "word": "Batman",
            "suffix-3": "man",
            "suffix-2": "an",
            "prefix-3": "Bat",
            "prefix-2": "Ba",
            "first-position": "true",
            "first-letter-up": "true",
        }

    def test_lf1_short_token(self):
        fv = extract("is", 1, FeatureTemplate.LF1)
        assert fv["suffix-3"] == "is"
        assert fv["suffix-2"] == "is"
        assert fv["prefix-3"] == "is"
        assert fv["prefix-2"] == "is"
        assert fv["first-position"] == "false"
        assert fv["first-letter-up"] == "false"

    def test_lf2_extends_lf1(self):
        fv = extract("vigilante", 4, FeatureTemplate.LF2)
        assert fv["suffix-5"] == "lante"
        assert fv["suffix-4"] == "ante"
        assert fv["prefix-5"] == "vigil"
        assert fv["prefix-4"] == "vigi"
        assert fv["has-digit"] == "false"
        assert fv["has-hyphen"] == "false"

    def test_digit_and_hyphen_flags(self):
        fv = extract("B-52", 2, FeatureTemplate.LF2)
        assert fv["has-digit"] == "true"
        assert fv["has-hyphen"] == "true"

    def test_nonletter_start_is_not_up(self):
        assert extract("1st", 0, FeatureTemplate.LF1)["first-letter-up"] == "false"

    def test_empty_token_rejected(self):
        with pytest.raises(InvalidInputError):
            extract("", 0, FeatureTemplate.NF)

    @pytest.mark.parametrize("template", ["lf1", None], ids=["string", "none"])
    def test_template_not_a_feature_template_rejected(self, template):
        # "lf1" used to fall through to all thirteen LF2 families
        with pytest.raises(InvalidInputError, match="unknown feature template"):
            extract("Cat", 0, template)

    @given(tokens_st, st.integers(0, 30))
    def test_lf2_restricted_to_lf1_families_equals_lf1(self, token, pos):
        lf1 = extract(token, pos, FeatureTemplate.LF1)
        lf2 = extract(token, pos, FeatureTemplate.LF2)
        assert {k: lf2[k] for k in lf1} == lf1

    @given(tokens_st, st.integers(0, 30))
    def test_family_sets_match_templates(self, token, pos):
        for template in FeatureTemplate:
            fv = extract(token, pos, template)
            assert tuple(fv) == TEMPLATE_FAMILIES[template]


# Unicode digits, a non-ASCII capital, one-character tokens and hyphens
EDGE_TOKENS = ["²", "٣", "É", "é", "a", "-", "B-52", "x-ray-", "É-2", "Batman", "٣rd"]
batch_tokens_st = st.lists(st.one_of(st.sampled_from(EDGE_TOKENS), tokens_st), max_size=12)


class TestBatchExtract:
    """The batch form is the per-token form, column by column."""

    @given(batch_tokens_st, st.data())
    def test_columns_equal_per_token_vectors(self, tokens, data):
        positions = data.draw(st.lists(st.integers(0, 3), min_size=len(tokens),
                                       max_size=len(tokens)))
        for template in FeatureTemplate:
            cols = extract(tokens, positions, template)
            assert tuple(cols) == TEMPLATE_FAMILIES[template]
            rows = [extract(tok, pos, template) for tok, pos in zip(tokens, positions)]
            assert cols == {fam: [fv[fam] for fv in rows] for fam in cols}

    @given(batch_tokens_st)
    def test_flag_columns_follow_their_definitions(self, tokens):
        cols = extract(tokens, [0] * len(tokens), FeatureTemplate.LF2)
        flag = {True: "true", False: "false"}
        assert cols["has-digit"] == [flag[any(c.isdigit() for c in t)] for t in tokens]
        assert cols["has-hyphen"] == [flag["-" in t] for t in tokens]
        assert cols["first-letter-up"] == [flag[t[0].isupper()] for t in tokens]

    def test_edge_tokens(self):
        cols = extract(["²", "٣", "É", "a-b"], [0, 1, 2, 3], FeatureTemplate.LF2)
        assert cols["has-digit"] == ["true", "true", "false", "false"]
        assert cols["first-letter-up"] == ["false", "false", "true", "false"]
        assert cols["has-hyphen"] == ["false", "false", "false", "true"]
        assert cols["first-position"] == ["true", "false", "false", "false"]
        # a token shorter than an affix is its own affix
        assert cols["suffix-5"] == ["²", "٣", "É", "a-b"]
        assert cols["prefix-2"] == ["²", "٣", "É", "a-"]

    @given(batch_tokens_st, st.sampled_from(list(FeatureTemplate)))
    def test_column_vectorize_equals_row_vectorize(self, tokens, template):
        index = build_index([["Batman", "is", "B-52", "É"], ["²", "x-ray-"]], template)
        positions = list(range(len(tokens)))
        got = vectorize(extract(tokens, positions, template), index)
        assert got.dtype == np.intp and got.shape == (len(tokens), len(index.families))
        assert got.tolist() == [
            list(vectorize(extract(tok, pos, template), index))
            for tok, pos in zip(tokens, positions)
        ]
        # and each id is its family's value id, or the family's unknown id
        assert got.tolist() == [
            [id_of(index, fam, value) for fam, value in extract(tok, pos, template).items()]
            for tok, pos in zip(tokens, positions)
        ]

    def test_column_vectorize_rejects_a_family_outside_the_index(self):
        index = build_index(toy_corpus(), FeatureTemplate.NF)
        with pytest.raises(InvalidInputError, match="'suffix-2' not in index"):
            vectorize({"suffix-2": ["is"]}, index)
        with pytest.raises(InvalidInputError, match="'suffix-2' not in index"):
            vectorize({"suffix-2": "is"}, index)

    @pytest.mark.parametrize("template", list(FeatureTemplate))
    def test_empty_token_rejected_in_both_forms(self, template):
        for args in (("", 0), (["a", ""], [0, 1])):
            with pytest.raises(InvalidInputError, match="^token must be non-empty$"):
                extract(*args, template)

    @pytest.mark.parametrize("template", ["lf1", None], ids=["string", "none"])
    def test_unknown_template_rejected_in_both_forms(self, template):
        for args in (("Cat", 0), (["Cat", "dog"], [0, 1])):
            with pytest.raises(InvalidInputError, match="^unknown feature template: "):
                extract(*args, template)

    @pytest.mark.parametrize("template", list(FeatureTemplate))
    @pytest.mark.parametrize(
        "tokens, positions, message",
        [(["a", "b"], [0], "2 tokens take as many positions, not 1"),
         (["a"], [0, 1], "1 tokens take as many positions, not 2"),
         (["a", "b"], 0, "tokens take a sequence of positions, not 0"),
         ("a", [0], r"one token's position is an integer, not \[0\]"),
         (iter(["a"]), [0], "tokens are a sequence, not a list_iterator")],
        ids=["fewer-positions", "more-positions", "int-for-a-batch", "list-for-one",
             "iterator"])
    def test_positions_must_match_the_tokens(self, template, tokens, positions, message):
        with pytest.raises(InvalidInputError, match=f"^{message}$"):
            extract(tokens, positions, template)

    def test_empty_batch_has_every_family(self):
        cols = extract([], [], FeatureTemplate.LF2)
        assert cols == {fam: [] for fam in TEMPLATE_FAMILIES[FeatureTemplate.LF2]}
        index = build_index(toy_corpus(), FeatureTemplate.LF2)
        assert vectorize(cols, index).shape == (0, len(index.families))


def toy_corpus():
    return [
        LabeledSentence(("Batman", "is"), (0, 1)),
        LabeledSentence(("is",), (1,)),
    ]


class TestBuildIndex:
    def test_nf_two_words_plus_unknown(self):
        index = build_index(toy_corpus(), FeatureTemplate.NF)
        assert index.size == 3  # two words + one unknown slot
        assert id_of(index, "word", "Batman") != id_of(index, "word", "is")
        assert id_of(index, "word", "never-seen") == index.unknown_ids["word"]

    def test_deterministic(self):
        a = build_index(toy_corpus(), FeatureTemplate.LF1)
        b = build_index(toy_corpus(), FeatureTemplate.LF1)
        assert a.value_ids == b.value_ids
        assert a.unknown_ids == b.unknown_ids

    def test_size_matches_distinct_pair_count(self):
        corpus = toy_corpus()
        index = build_index(corpus, FeatureTemplate.LF1)
        # independent set-count over (family, value) pairs
        pairs = set()
        for sent in corpus:
            for pos, tok in enumerate(sent.tokens):
                for fam, val in extract(tok, pos, FeatureTemplate.LF1).items():
                    pairs.add((fam, val))
        assert index.size == len(pairs) + len(TEMPLATE_FAMILIES[FeatureTemplate.LF1])

    def test_empty_corpus_rejected(self):
        with pytest.raises(InvalidInputError):
            build_index([], FeatureTemplate.NF)

    @pytest.mark.parametrize("template", ["lf1", None], ids=["string", "none"])
    def test_template_not_a_feature_template_rejected(self, template):
        with pytest.raises(InvalidInputError, match="unknown feature template"):
            build_index(toy_corpus(), template)

    @pytest.mark.parametrize(
        "corpus,item",
        [(["the cat"], 0), ("the cat", 0), ([["a"], "xy"], 1), ([[], ("a", "b"), "c"], 2)],
        ids=["string-item", "string-corpus", "mixed", "after-an-empty-sentence"],
    )
    def test_a_string_is_not_a_sentence(self, corpus, item):
        # its keys would be those of its characters, as `sentence_features` says
        with pytest.raises(InvalidInputError,
                           match=f"^batch item {item} is a string, not a sentence$"):
            build_index(corpus, FeatureTemplate.LF1)

    @pytest.mark.parametrize(
        "corpus,message",
        [([["the", ["x"]]], r"token \['x'\] is not a string"),
         ([["a"], [{"y": 1}]], r"token \{'y': 1\} is not a string"),
         ([["a"], 5], "batch item 1 is not a sentence"), ([None], "batch item 0 is not a sentence")],
        ids=["list-token", "dict-token", "int-item", "none-item"],
    )
    def test_an_unhashable_token_or_a_non_sentence_is_invalid_input(self, corpus, message):
        # each ended in a TypeError from a dict lookup or from len()
        with pytest.raises(InvalidInputError, match=f"^{message}$"):
            build_index(corpus, FeatureTemplate.LF1)

    def test_empty_sentences_add_no_key(self):
        index = build_index([[], ["a", "b"], (), ["b"]], FeatureTemplate.NF)
        assert set(memo_rows(index.memo)) == {("a", True), ("b", False), ("b", True)}
        assert id_order(index) == build_index_every_occurrence([["a", "b"], ["b"]],
                                                               FeatureTemplate.NF)


class TestVectorize:
    def test_seen_value_keeps_train_id(self):
        index = build_index(toy_corpus(), FeatureTemplate.NF)
        fv = extract("Batman", 0, FeatureTemplate.NF)
        assert vectorize(fv, index) == (index.value_ids["word"]["Batman"],)

    def test_unseen_value_maps_to_unknown(self):
        index = build_index(toy_corpus(), FeatureTemplate.NF)
        fv = extract("Robin", 0, FeatureTemplate.NF)
        assert vectorize(fv, index) == (index.unknown_ids["word"],)

    def test_boolean_false_is_a_real_value(self):
        index = build_index(toy_corpus(), FeatureTemplate.LF1)
        fv = extract("is", 1, FeatureTemplate.LF1)
        fid = vectorize(fv, index)[list(fv).index("first-position")]
        assert fid == index.value_ids["first-position"]["false"]

    def test_family_absent_from_index_rejected(self):
        index = build_index(toy_corpus(), FeatureTemplate.NF)
        with pytest.raises(InvalidInputError):
            vectorize({"suffix-2": "is"}, index)

    def test_a_vector_without_families_is_refused(self):
        index = build_index(toy_corpus(), FeatureTemplate.LF1)
        with pytest.raises(InvalidInputError, match="at least one family"):
            vectorize({}, index)

    @pytest.mark.parametrize("cols", [
        {"word": ["Batman", "is"], "suffix-3": ["man", "is", "man", "is"]},  # 6 ids: (3, 2)
        {"word": ["Batman", "is"], "suffix-3": ["man"]},
        {"word": ["Batman"], "suffix-3": []},
    ], ids=["total-divides", "one-short", "one-empty"])
    def test_columns_of_unequal_lengths_are_refused(self, cols):
        index = build_index(toy_corpus(), FeatureTemplate.LF1)
        with pytest.raises(InvalidInputError, match="unequal lengths: 'word' "):
            vectorize(cols, index)

    @given(tokens_st, st.integers(0, 5))
    def test_vectorize_total_after_freezing(self, token, pos):
        index = build_index(toy_corpus(), FeatureTemplate.LF2)
        ids = vectorize(extract(token, pos, FeatureTemplate.LF2), index)
        assert len(ids) == len(TEMPLATE_FAMILIES[FeatureTemplate.LF2])
        assert all(0 <= i < index.size for i in ids)


class TestPipeline:
    def test_sentence_features_positions(self):
        index = build_index(toy_corpus(), FeatureTemplate.LF1)
        pipeline = FeaturePipeline(index)
        feats = pipeline.sentence_features(["Batman", "is"])
        assert len(feats) == 2
        first_pos_slot = list(TEMPLATE_FAMILIES[FeatureTemplate.LF1]).index(
            "first-position"
        )
        assert feats[0][first_pos_slot] == index.value_ids["first-position"]["true"]
        assert feats[1][first_pos_slot] == index.value_ids["first-position"]["false"]

    def test_a_bare_string_is_not_a_sentence(self):
        pipeline = FeaturePipeline(build_index(toy_corpus(), FeatureTemplate.LF1))
        with pytest.raises(InvalidInputError, match="not a string"):
            pipeline.sentence_features("abc")
        # inside a batch, a string is named by its place
        with pytest.raises(InvalidInputError, match="batch item 1 is a string"):
            pipeline.sentence_features([["the", "cat"], "dog"])
        assert pipeline.sentence_features(["abc"]).shape[0] == 1

    @pytest.mark.parametrize(
        "tokens,message",
        [([5, "the"], "batch item 0 is not a sentence"),
         ([None], "batch item 0 is not a sentence"),
         ([["the"], 5], "batch item 1 is not a sentence"),
         (["the", ["x"]], r"token \['x'\] is not a string"),
         ([["the", ["x"]]], r"token \['x'\] is not a string"),
         ([["a"], [{"y": 1}, "a"]], r"token \{'y': 1\} is not a string")],
        ids=["int-first", "none", "int-item", "list-token", "list-token-in-batch",
             "dict-token-first"],
    )
    def test_a_non_sentence_or_unhashable_token_is_invalid_input(self, tokens, message):
        """Each ended in a TypeError (no len(), or an unhashable memo key); a
        refusal stages nothing, so the memo is as before."""
        index = build_index(toy_corpus(), FeatureTemplate.LF1)
        before = memo_rows(index.memo)
        with pytest.raises(InvalidInputError, match=f"^{message}$"):
            FeaturePipeline(index).sentence_features(tokens)
        assert memo_rows(index.memo) == before


def build_index_every_occurrence(sentences, template):
    """The index built by extracting every token occurrence: family after
    family, each family's values in the order first met in the corpus."""
    values = {}
    for tokens in sentences:
        for pos, token in enumerate(tokens):
            for fam, value in extract(token, pos, template).items():
                values.setdefault(fam, {}).setdefault(value, None)
    pairs = [(fam, value) for fam, seen in values.items() for value in seen]
    return list(zip(pairs, range(len(pairs))))


def id_order(index):
    """The index's ((family, value), id) items, family after family."""
    return [((fam, value), num) for fam, ids in index.value_ids.items()
            for value, num in ids.items()]


class TestBuildIndexSkipsRepeats:
    @pytest.mark.parametrize("template", list(FeatureTemplate))
    def test_same_ids_in_the_same_order(self, template):
        # repeats at position 0 and later, a word first seen mid-sentence
        # and then sentence-initial, and one seen only in either place
        sentences = [
            ("The",),
            ("The", "The"),
            ("The", "cat", "sat", "on", "the", "mat"),
            ("the", "cat", "sat"),
            ("The", "mat-2", "The", "cat"),
            ("cat", "sat", "on", "The", "mat"),
            ("sat",),
        ]
        index = build_index(sentences, template)
        assert id_order(index) == build_index_every_occurrence(sentences, template)

    @given(st.lists(st.lists(st.sampled_from(["a", "B", "ab", "b-1", "Ab"]),
                             min_size=1, max_size=6), min_size=1, max_size=6))
    def test_same_ids_on_random_corpora(self, sentences):
        index = build_index(sentences, FeatureTemplate.LF2)
        assert id_order(index) == build_index_every_occurrence(sentences, FeatureTemplate.LF2)


class TestBuildIndexFillsTheMemo:
    @given(st.lists(st.lists(st.sampled_from(["a", "B", "ab", "b-1", "Ab", "7"]),
                             min_size=1, max_size=6), min_size=1, max_size=6),
           st.sampled_from(list(FeatureTemplate)))
    def test_memo_rows_are_the_vectorized_extractions(self, sentences, template):
        index = build_index(sentences, template)
        keys = {(tok, pos == 0) for sent in sentences for pos, tok in enumerate(sent)}
        memo = memo_rows(index.memo)
        assert set(memo) == keys
        for token, first in keys:
            fv = extract(token, 0 if first else 1, template)
            assert memo[(token, first)] == vectorize(fv, index)
