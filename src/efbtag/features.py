"""Token feature templates and sparse feature indexing.

Three templates are supported: the bare word (NF), word plus short
affixes, sentence-initial position and initial capital (LF1), and LF1
extended with longer affixes, digit and hyphen indicators (LF2).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from operator import itemgetter
from typing import Iterable, Sequence

import numpy as np

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
    fv["suffix-5"] = token[-5:]
    fv["suffix-4"] = token[-4:]
    fv["prefix-5"] = token[:5]
    fv["prefix-4"] = token[:4]
    fv["has-digit"] = _bool_value(any(c.isdigit() for c in token))
    fv["has-hyphen"] = _bool_value("-" in token)
    return fv


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
    # vectorized rows of indexed words, keyed by (token, position == 0),
    # the only inputs of `extract`; `build_index` fills it with every
    # training key's row and `FeaturePipeline` with the indexed words it meets
    memo: dict[tuple[str, bool], tuple[int, ...]] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

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
    memo: dict[tuple[str, bool], tuple[int, ...]] = {}
    saw_any = False
    for sent in corpus:
        saw_any = True
        tokens = sent.tokens if isinstance(sent, LabeledSentence) else sent
        for pos, token in enumerate(tokens):
            key = (token, pos == 0)
            if key not in memo:
                fv = extract(token, pos, template)
                memo[key] = tuple(ids.setdefault(pair, len(ids)) for pair in fv.items())
    if not saw_any:
        raise InvalidInputError("corpus must be non-empty")
    index = index_from_pairs(template, TEMPLATE_FAMILIES[template], ids)
    index.memo.update(memo)
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

    def sentence_features(self, tokens: Sequence[str]) -> np.ndarray:
        """(T, F) intp ids of the tokens; rows of indexed words come from the memo."""
        index = self.index
        memo = index.memo
        rows = []
        for pos, tok in enumerate(tokens):
            key = (tok, pos == 0)
            row = memo.get(key)
            if row is None:
                row = vectorize(extract(tok, pos, index.template), index)
                if ("word", tok) in index.ids:
                    memo[key] = row
            rows.append(row)
        return np.array(rows, dtype=np.intp).reshape(len(rows), len(index.families))
