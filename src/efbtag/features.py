"""Token feature templates and sparse feature indexing.

Three templates are supported: the bare word (NF), word plus short
affixes, sentence-initial position and initial capital (LF1), and LF1
extended with longer affixes, digit and hyphen indicators (LF2).
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass, field
from enum import Enum
from operator import itemgetter
from typing import Iterable, Iterator, Sequence

import numpy as np
from numpy.typing import ArrayLike

from .core import LabeledSentence
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


def _bool_value(flag: bool) -> str:
    return "true" if flag else "false"


def extract(token: str, position: int, template: FeatureTemplate) -> dict[str, str]:
    """String-valued feature vector of a token in sentence context.

    Affixes of tokens shorter than n are the whole token, so every
    family is present for every token.  Case is preserved in the word
    and affix families; capitalization lives only in first-letter-up.
    """
    if not token:
        raise InvalidInputError("token must be non-empty")
    fv = {"word": token}
    if template is FeatureTemplate.NF:
        return fv
    fv["suffix-3"] = token[-3:]
    fv["suffix-2"] = token[-2:]
    fv["prefix-3"] = token[:3]
    fv["prefix-2"] = token[:2]
    fv["first-position"] = _bool_value(position == 0)
    fv["first-letter-up"] = _bool_value(token[0].isupper())
    if template is FeatureTemplate.LF1:
        return fv
    if template is not FeatureTemplate.LF2:
        raise InvalidInputError(f"unknown feature template: {template!r}")
    fv["suffix-5"] = token[-5:]
    fv["suffix-4"] = token[-4:]
    fv["prefix-5"] = token[:5]
    fv["prefix-4"] = token[:4]
    fv["has-digit"] = _bool_value(any(c.isdigit() for c in token))
    fv["has-hyphen"] = _bool_value("-" in token)
    return fv


class FeatureMemo(Mapping):
    """Vectorized rows of indexed words in one growing (K, F) intp table.

    A key is (token, position == 0), the only inputs of `extract`; it maps
    to a row number of `table`.  As a mapping, a key's value is its row as
    a tuple of ids.
    """

    def __init__(self, width: int):
        # row numbers by token, for keys not first and first in their sentence
        self.rows: tuple[dict[str, int], dict[str, int]] = ({}, {})
        self.n_rows = 0
        # rows from n_rows on are spare capacity; there is always at least one row
        self.table = np.empty((1, width), dtype=np.intp)

    def __len__(self) -> int:
        return len(self.rows[0]) + len(self.rows[1])

    def __iter__(self) -> Iterator[tuple[str, bool]]:
        for first, rows in enumerate(self.rows):
            for token in rows:
                yield token, bool(first)

    def __getitem__(self, key: tuple[str, bool]) -> tuple[int, ...]:
        token, first = key
        return tuple(self.table[self.rows[bool(first)][token]].tolist())

    def clear(self) -> None:
        for rows in self.rows:
            rows.clear()
        self.n_rows = 0

    def extend(self, keys: Sequence[tuple[str, bool]], rows: ArrayLike) -> None:
        """Store each new key's row; the table doubles when it runs out of rows."""
        start = self.n_rows
        self.n_rows += len(keys)
        if self.n_rows > len(self.table):
            grown = np.empty((max(self.n_rows, 2 * len(self.table)), self.table.shape[1]),
                             dtype=np.intp)
            grown[:start] = self.table[:start]
            self.table = grown
        self.table[start : self.n_rows] = rows
        for num, (token, first) in enumerate(keys, start):
            self.rows[first][token] = num


@dataclass(frozen=True)
class FeatureIndex:
    """Frozen map from (family, value) to dense ids, with per-family unknown ids.

    `index_from_pairs` assigns the ids and they never change afterwards;
    values unseen at train time route to their family's unknown id, so
    vectorization is total.
    """

    template: FeatureTemplate
    families: tuple[str, ...]
    ids: dict[tuple[str, str], int]
    unknown_ids: dict[str, int]
    # rows of indexed words: `build_index` fills it with every training key's
    # row and `FeaturePipeline` with the indexed words it meets
    memo: FeatureMemo = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "memo", FeatureMemo(len(self.families)))

    @property
    def size(self) -> int:
        return len(self.ids) + len(self.unknown_ids)

    def id_of(self, family: str, value: str) -> int:
        if family not in self.unknown_ids:
            raise InvalidInputError(f"feature family {family!r} not in index")
        return self.ids.get((family, value), self.unknown_ids[family])


def build_index(
    corpus: Sequence[LabeledSentence] | Iterable[Sequence[str]],
    template: FeatureTemplate,
) -> FeatureIndex:
    """Index every (family, value) pair observed in the corpus.

    Accepts labeled sentences or bare token sequences; only tokens are
    used.  `index_from_pairs` lays the pairs out in corpus order.  Each
    corpus key's id row is left in the index's memo, so the corpus is
    extracted once.
    """
    ids: dict[tuple[str, str], int] = {}
    # (token, position == 0) are the only inputs of `extract`: a repeat adds no pair
    keys: dict[tuple[str, bool], None] = {}
    flat: list[int] = []  # the keys' id rows, one after another
    saw_any = False
    for sent in corpus:
        saw_any = True
        tokens = sent.tokens if isinstance(sent, LabeledSentence) else sent
        for pos, token in enumerate(tokens):
            key = (token, pos == 0)
            if key not in keys:
                keys[key] = None
                fv = extract(token, pos, template)
                flat.extend([ids.setdefault(pair, len(ids)) for pair in fv.items()])
    if not saw_any:
        raise InvalidInputError("corpus must be non-empty")
    index = index_from_pairs(template, TEMPLATE_FAMILIES[template], ids)
    index.memo.extend(list(keys), np.reshape(flat, (len(keys), len(index.families))))
    return index


def index_from_pairs(
    template: FeatureTemplate, families: tuple[str, ...], pairs: Iterable[tuple[str, str]]
) -> FeatureIndex:
    """Freeze `pairs` into an index in the one id layout.

    Pairs take ids 0, 1, ... in order, then each of `families` in turn one
    unknown id.  Rejects a repeated pair, a stray family, a non-string value.
    """
    pairs = list(pairs)
    ids = dict(zip(pairs, range(len(pairs))))
    if len(ids) != len(pairs):  # a repeat keeps its last id
        pair = next(p for i, p in enumerate(pairs) if ids[p] != i)
        raise InvalidInputError(f"feature pair {pair!r} repeats")
    if not set(map(itemgetter(0), pairs)) <= set(families):
        fam = next(fam for fam, _ in pairs if fam not in families)
        raise InvalidInputError(f"feature family {fam!r} not in index")
    if not set(map(type, map(itemgetter(1), pairs))) <= {str}:
        value = next(value for _, value in pairs if type(value) is not str)
        raise InvalidInputError(f"feature value {value!r} is not a string")
    unknown_ids = {fam: len(ids) + k for k, fam in enumerate(families)}
    return FeatureIndex(template, families, ids, unknown_ids)


def vectorize(fv: dict[str, str], index: FeatureIndex) -> tuple[int, ...]:
    """Map a string-valued feature vector to dense ids, one per family."""
    ids, unknown_ids = index.ids, index.unknown_ids
    try:  # an unseen value takes its family's unknown id
        return tuple([ids.get(pair, unknown_ids[pair[0]]) for pair in fv.items()])
    except KeyError as err:
        raise InvalidInputError(f"feature family {err.args[0]!r} not in index") from None


@dataclass(frozen=True)
class FeaturePipeline:
    """Extraction plus indexing for whole sentences, frozen after training."""

    index: FeatureIndex

    def sentence_features(
        self, tokens: Sequence[str] | Sequence[Sequence[str]]
    ) -> np.ndarray:
        """(T, F) intp ids of one sentence's tokens.

        Given a batch of token sequences, returns their (ΣT, F) ids stacked
        in order, from one gather.  Rows of indexed words come from the
        index's memo table, which keeps each indexed word's row it lacked.
        """
        index = self.index
        memo = index.memo
        later, first = memo.rows
        nums: list = []  # each token's row number; None until a miss is resolved
        # indexed words the memo lacks take the next row numbers, in order met
        new: dict[tuple[str, bool], int] = {}
        new_rows: list[tuple[int, ...]] = []
        outside: dict[int, tuple[int, ...]] = {}  # rows of words outside the index
        for sent in tokens if len(tokens) and not isinstance(tokens[0], str) else [tokens]:
            if not len(sent):
                continue
            start = len(nums)
            nums.append(first.get(sent[0]))
            nums.extend(map(later.get, sent[1:]))
            if None not in nums[start:]:
                continue
            for at, tok in enumerate(sent, start):
                if nums[at] is not None:
                    continue
                key = (tok, at == start)
                num = new.get(key)
                if num is None:
                    row = vectorize(extract(tok, at - start, index.template), index)
                    if ("word", tok) in index.ids:
                        num = new[key] = memo.n_rows + len(new_rows)
                        new_rows.append(row)
                    else:  # row 0, which always exists, stands in until patched below
                        num, outside[at] = 0, row
                nums[at] = num
        if new:
            memo.extend(list(new), new_rows)
        ids = memo.table.take(nums, axis=0)
        for at, row in outside.items():
            ids[at] = row
        return ids
