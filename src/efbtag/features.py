"""Token feature templates and sparse feature indexing.

Three templates are supported: the bare word (NF), word plus short
affixes, sentence-initial position and initial capital (LF1), and LF1
extended with longer affixes, digit and hyphen indicators (LF2).
"""

from __future__ import annotations

import operator
from collections.abc import Iterable, Sequence
from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property

import numpy as np
from numpy.typing import ArrayLike

from .core import LabeledSentence, Rebuilt, check_tokens, is_batch
from .errors import InvalidInputError


class FeatureTemplate(Enum):
    NF = "nf"
    LF1 = "lf1"
    LF2 = "lf2"


_LF1_FAMILIES = (
    "word",
    "suffix-3",
    "suffix-2",
    "prefix-3",
    "prefix-2",
    "first-position",
    "first-letter-up",
)
_LF2_EXTRA = (
    "suffix-5",
    "suffix-4",
    "prefix-5",
    "prefix-4",
    "has-digit",
    "has-hyphen",
)

TEMPLATE_FAMILIES: dict[FeatureTemplate, tuple[str, ...]] = {
    FeatureTemplate.NF: ("word",),
    FeatureTemplate.LF1: _LF1_FAMILIES,
    FeatureTemplate.LF2: _LF1_FAMILIES + _LF2_EXTRA,
}


def extract(
    tokens: str | Sequence[str], positions: int | Sequence[int], template: FeatureTemplate
) -> dict[str, str] | dict[str, list[str]]:
    """String-valued feature columns of tokens in sentence context.

    Given a list of tokens and a list of their positions in their
    sentences, one position per token, returns one column of values per
    family, in family order, row k for token k.  Given one token and its
    integer position, returns its vector, family -> value: a batch of one.
    Affixes of tokens shorter than n are the whole token, so every
    family is present for every token.  Case is preserved in the word
    and affix families; capitalization lives only in first-letter-up.
    """
    one = isinstance(tokens, str)
    if one:
        try:
            tokens, positions = [tokens], [operator.index(positions)]
        except TypeError:
            raise InvalidInputError(
                f"one token's position is an integer, not {positions!r}") from None
    elif not isinstance(tokens, Sequence):  # an iterator would be read up by the check
        raise InvalidInputError(f"tokens are a sequence, not a {type(tokens).__name__}")
    check_tokens(tokens)
    try:
        n_positions = len(positions)
    except TypeError:
        raise InvalidInputError(
            f"tokens take a sequence of positions, not {positions!r}") from None
    if n_positions != len(tokens):
        raise InvalidInputError(
            f"{len(tokens)} tokens take as many positions, not {n_positions}")
    if not isinstance(template, FeatureTemplate):
        raise InvalidInputError(f"unknown feature template: {template!r}")
    cols = {"word": list(tokens)}
    if template is not FeatureTemplate.NF:
        cols["suffix-3"] = [tok[-3:] for tok in tokens]
        cols["suffix-2"] = [tok[-2:] for tok in tokens]
        cols["prefix-3"] = [tok[:3] for tok in tokens]
        cols["prefix-2"] = [tok[:2] for tok in tokens]
        cols["first-position"] = ["true" if pos == 0 else "false" for pos in positions]
        cols["first-letter-up"] = ["true" if tok[0].isupper() else "false" for tok in tokens]
    if template is FeatureTemplate.LF2:
        cols["suffix-5"] = [tok[-5:] for tok in tokens]
        cols["suffix-4"] = [tok[-4:] for tok in tokens]
        cols["prefix-5"] = [tok[:5] for tok in tokens]
        cols["prefix-4"] = [tok[:4] for tok in tokens]
        # no letter is a digit, so a token of letters needs no scan
        cols["has-digit"] = [
            "false" if tok.isalpha() or not any(map(str.isdigit, tok)) else "true"
            for tok in tokens
        ]
        cols["has-hyphen"] = ["true" if "-" in tok else "false" for tok in tokens]
    return {fam: col[0] for fam, col in cols.items()} if one else cols


class FeatureMemo:
    """Vectorized rows of indexed words, and of a loaded tagger's vocabulary
    words, in one growing (K, F) intp table.

    A key is (token, position == 0), the only inputs of `extract`; `rows`
    maps it to a row number of `table`, through one dict per position kind.
    Rows from `n_rows` on are spare: `sentence_features` stages the rows of
    the keys it misses there for its gather.
    """

    def __init__(self, width: int):
        # row numbers by token, for keys not first and first in their sentence
        self.rows: tuple[dict[str, int], dict[str, int]] = ({}, {})
        self.n_rows = 0
        # rows from n_rows on are spare capacity; there is always at least one row
        self.table = np.empty((1, width), dtype=np.intp)

    def spare(self, n: int) -> np.ndarray:
        """The n rows after the stored ones, where `extend` writes next; the
        table doubles when it runs out of rows."""
        end = self.n_rows + n
        if end > len(self.table):
            grown = np.empty((max(end, 2 * len(self.table)), self.table.shape[1]),
                             dtype=np.intp)
            grown[: self.n_rows] = self.table[: self.n_rows]
            self.table = grown
        return self.table[self.n_rows : end]

    def extend(self, keys: Sequence[tuple[str, bool]], rows: ArrayLike) -> None:
        """Store each new key's row."""
        self.spare(len(keys))[:] = rows
        for num, (token, first) in enumerate(keys, self.n_rows):
            self.rows[first][token] = num
        self.n_rows += len(keys)

    def start(self, words: Sequence[str], rows: np.ndarray) -> None:
        """Fill an empty memo with rows[k], a fresh (V, F) intp array it
        keeps as its table, as the row of the key (words[k], not first)."""
        if len(words):  # the table keeps at least one row
            self.table, self.n_rows = rows, len(words)
            self.rows[0].update(zip(words, range(len(words))))


@dataclass(frozen=True)
class FeatureIndex(Rebuilt):
    """Frozen map from each family's values to dense ids, family by family.

    `index_from_pairs` numbers every family's values, one family after
    another, then gives each family in turn one unknown id; values unseen
    at train time route to it, so vectorization is total.
    """

    template: FeatureTemplate
    value_ids: dict[str, dict[str, int]]
    # rows of indexed words: `build_index` fills it with every training key's
    # row and `FeaturePipeline` with the indexed words it meets; a loaded or
    # rebuilt (`core.Rebuilt`) index starts with it empty, and its tagger
    # puts its `word_rows` in it
    memo: FeatureMemo = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "memo", FeatureMemo(len(self.families)))

    @property
    def families(self) -> tuple[str, ...]:
        return tuple(self.value_ids)

    @cached_property
    def unknown_ids(self) -> dict[str, int]:
        """Each family's unknown id, after every value's id."""
        n_values = sum(map(len, self.value_ids.values()))
        return {fam: n_values + k for k, fam in enumerate(self.value_ids)}

    @cached_property
    def _lookups(self) -> dict[str, tuple]:
        """Each family's (`value_ids[family].get`, unknown id), which
        `vectorize` reads; like `unknown_ids`, it holds because an index's
        maps are never written after `index_from_pairs` numbers them."""
        unknown = self.unknown_ids
        return {fam: (ids.get, unknown[fam]) for fam, ids in self.value_ids.items()}

    @property
    def size(self) -> int:
        return sum(map(len, self.value_ids.values())) + len(self.value_ids)


def build_index(
    corpus: Sequence[LabeledSentence | Sequence[str]], template: FeatureTemplate
) -> FeatureIndex:
    """Index every (family, value) pair observed in the corpus.

    Accepts a sequence of labeled sentences or of sentences (`core.is_batch`),
    skipping empty ones; only tokens are used.  `index_from_pairs` numbers
    the pairs family by family, each family's values in the order first
    met in the corpus.  Each corpus key's id row is left in the index's
    memo, so the corpus is extracted once.
    """
    if not isinstance(corpus, Sequence):  # a set's order would follow the hash seed
        raise InvalidInputError(f"a corpus is a sequence, not a {type(corpus).__name__}")
    sents = [sent.tokens if isinstance(sent, LabeledSentence) else sent for sent in corpus]
    if not sents:
        raise InvalidInputError("corpus must be non-empty")
    if not is_batch(sents):  # its keys would be those of its characters
        raise InvalidInputError("batch item 0 is a string, not a sentence")
    tokens: list[str] = []  # every token, flat, and where each sentence starts
    starts: list[int] = []
    try:
        for sent in sents:
            if len(sent):
                starts.append(len(tokens))
                tokens.extend(sent)
        firsts = [False] * len(tokens)
        for start in starts:
            firsts[start] = True
        # (token, position == 0) are the only inputs of `extract`: a repeat adds no pair
        keys = dict.fromkeys(zip(tokens, firsts))
    except TypeError:  # an unhashable token
        check_tokens(tokens)
        raise
    cols = extract([tok for tok, _ in keys], [0 if first else 1 for _, first in keys], template)
    pairs = [(fam, value) for fam, col in cols.items() for value in dict.fromkeys(col)]
    index = index_from_pairs(template, tuple(cols), pairs)
    index.memo.extend(list(keys), vectorize(cols, index))
    return index


def word_rows(index: FeatureIndex, words: Sequence[str]) -> np.ndarray:
    """(V, F) intp ids of each of `words` at a position other than its
    sentence's first, in order: the rows the index's memo holds, and one
    `extract` call for the rest."""
    nums = list(map(index.memo.rows[0].get, words))
    # the table always has a row 0: a missed word takes it until replaced
    rows = index.memo.table.take([num or 0 for num in nums], axis=0)
    missed = [k for k, num in enumerate(nums) if num is None]
    if missed:
        cols = extract([words[k] for k in missed], [1] * len(missed), index.template)
        rows[missed] = vectorize(cols, index)
    return rows


def index_from_pairs(
    template: FeatureTemplate, families: tuple[str, ...], pairs: Iterable[tuple[str, str]]
) -> FeatureIndex:
    """Freeze `pairs` into an index, numbered family by family.

    Each of `families` in turn numbers its values in the order `pairs`
    gives them, so pairs already family by family take ids 0, 1, ... in
    order, and the families' unknown ids follow.  Rejects a repeated pair,
    a stray family, a non-string value.
    """
    value_ids: dict = {fam: [] for fam in families}  # each family's values, then their ids
    try:
        for fam, value in pairs:
            value_ids[fam].append(value)
    except KeyError as err:
        raise InvalidInputError(f"feature family {err.args[0]!r} not in index") from None
    num = 0
    for fam, values in value_ids.items():
        if not set(map(type, values)) <= {str}:
            value = next(value for value in values if type(value) is not str)
            raise InvalidInputError(f"feature value {value!r} is not a string")
        ids = value_ids[fam] = dict(zip(values, range(num, num + len(values))))
        if len(ids) != len(values):  # a repeat keeps its last id
            value = next(v for i, v in enumerate(values, num) if ids[v] != i)
            raise InvalidInputError(f"feature pair {(fam, value)!r} repeats")
        num += len(values)
    return FeatureIndex(template, value_ids)


def vectorize(
    fv: dict[str, str] | dict[str, list[str]], index: FeatureIndex
) -> tuple[int, ...] | np.ndarray:
    """Map a string-valued feature vector to dense ids, one per family.

    Given `extract`'s value columns for K tokens, returns their (K, F)
    intp ids, through the index's per-family `value_ids`; an unseen value
    takes its family's unknown id.  One vector is a batch of one.  There
    must be at least one family, and every column must have K values.
    """
    if not fv:
        raise InvalidInputError("a feature vector holds at least one family")
    if isinstance(next(iter(fv.values())), str):
        return tuple(vectorize({fam: [value] for fam, value in fv.items()}, index)[0].tolist())
    try:
        lookups = list(map(index._lookups.__getitem__, fv))
    except KeyError as err:
        raise InvalidInputError(f"feature family {err.args[0]!r} not in index") from None
    if len(set(map(len, fv.values()))) > 1:
        raise InvalidInputError("feature columns of unequal lengths: " + ", ".join(
            f"{fam!r} {len(values)}" for fam, values in fv.items()))
    flat = [get(value, unknown) for (get, unknown), values in zip(lookups, fv.values())
            for value in values]  # family by family
    return np.fromiter(flat, np.intp, len(flat)).reshape(len(fv), -1).T


@dataclass(frozen=True)
class FeaturePipeline:
    """Extraction plus indexing for whole sentences, frozen after training."""

    index: FeatureIndex

    def sentence_features(
        self, tokens: Sequence[str] | Sequence[Sequence[str]], distinct: bool = False
    ) -> np.ndarray | tuple[np.ndarray, np.ndarray]:
        """(T, F) intp ids of one sentence's tokens.

        Given a batch of token sequences, returns their (ΣT, F) ids stacked
        in order, from one gather.  Rows of indexed words come from the
        index's memo table, which keeps each indexed word's row it lacked.
        The keys a call misses are extracted with one `extract` call.

        With `distinct`, returns instead the (K, F) ids of the K distinct
        (token, first-in-sentence) keys met, and each token's (ΣT,) row
        number among them, so a scorer whose rows do not depend on each
        other scores each key once and gathers every token's scores.
        """
        batch = tokens if is_batch(tokens) else [tokens]
        index = self.index
        memo = index.memo
        words = index.value_ids.get("word", {})
        later, first = memo.rows
        nums: list = []  # each token's row number; None until a miss is resolved
        # the keys missed, in the order first met, and `extract`'s inputs for
        # them; key k's row is staged in the memo's spare row n_rows + k
        missed: dict[tuple[str, bool], int] = {}
        toks: list[str] = []
        positions: list[int] = []
        kept: list[int] = []  # the missed keys of indexed words, which the memo keeps
        base = memo.n_rows
        try:
            for sent in batch:
                if not len(sent):
                    continue
                start = len(nums)
                nums.extend(map(later.get, sent))  # a Sequence need not slice
                nums[start] = first.get(sent[0])
                if None not in nums[start:]:
                    continue
                for at, tok in enumerate(sent, start):
                    if nums[at] is None:
                        key = (tok, at == start)
                        k = missed.get(key)
                        if k is None:
                            k = missed[key] = len(toks)
                            toks.append(tok)
                            positions.append(at - start)
                            if tok in words:
                                kept.append(k)
                        nums[at] = base + k
        except TypeError:  # an unhashable token
            check_tokens(tok for sent in batch for tok in sent)
            raise
        if missed:
            staged = memo.spare(len(toks))
            staged[:] = vectorize(extract(toks, positions, index.template), index)
        if distinct:  # one memo or staged row number per key
            nums, token_rows = np.unique(np.asarray(nums, dtype=np.intp), return_inverse=True)
        ids = memo.table.take(nums, axis=0)
        if kept:  # rows of words outside the index stay spare, to be overwritten
            keys = list(missed)
            memo.extend([keys[k] for k in kept],
                        staged if len(kept) == len(keys) else staged[kept])
        return (ids, token_rows) if distinct else ids
