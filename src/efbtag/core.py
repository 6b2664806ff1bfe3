"""Domain types shared by every decoding engine.

Label and word indexing, sentences, and the per-position posterior
lattice from which maximum-posterior-mode label sequences are read.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field, fields
from types import MappingProxyType
from typing import Iterable

import numpy as np

from .errors import InvalidInputError

ROW_SUM_TOL = 1e-9


def _built(cls, init: dict):
    """`cls` built through its constructor from its init fields, by name."""
    return cls(**init)


class Rebuilt:
    """Base of every frozen record that derives fields (`init=False`) from its
    init fields: `pickle`, `copy.copy` and `copy.deepcopy` build it again
    through its constructor from those (which a deep copy copies first), so
    nothing it derives is restored as a copy.  A read-only mapping goes as a dict."""

    def __reduce__(self):
        init = ((f.name, getattr(self, f.name)) for f in fields(self) if f.init)
        return _built, (type(self), {
            name: dict(v) if type(v) is MappingProxyType else v for name, v in init
        })


@dataclass(frozen=True)
class TagSet(Rebuilt):
    """Bidirectional map between label strings and dense ids 0..N-1."""

    labels: tuple[str, ...]
    _index: dict[str, int] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if len(set(self.labels)) != len(self.labels):
            raise InvalidInputError("duplicate labels in tag set")
        object.__setattr__(
            self, "_index", {lab: i for i, lab in enumerate(self.labels)}
        )

    @classmethod
    def from_labels(cls, labels: Iterable[str]) -> "TagSet":
        return cls(tuple(labels))

    def __len__(self) -> int:
        return len(self.labels)

    def __contains__(self, label: str) -> bool:
        return label in self._index

    def id_of(self, label: str) -> int:
        try:
            return self._index[label]
        except KeyError:
            raise InvalidInputError(f"unknown label: {label!r}") from None

    def label_of(self, i: int) -> str:
        return self.labels[i]

    def ids_of(self, labels: Iterable[str]) -> list[int]:
        """`id_of` of each label, with one dict lookup per label."""
        try:
            return list(map(self._index.__getitem__, labels))
        except KeyError as err:
            raise InvalidInputError(f"unknown label: {err.args[0]!r}") from None


@dataclass(frozen=True)
class Vocabulary(Rebuilt):
    """Dense word ids plus one reserved slot for unknown words.

    Word identity is exact surface-form equality; case folding is a
    feature-template concern, not a vocabulary concern.
    """

    words: tuple[str, ...]
    _index: dict[str, int] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if len(set(self.words)) != len(self.words):
            raise InvalidInputError("duplicate words in vocabulary")
        object.__setattr__(
            self, "_index", {w: i for i, w in enumerate(self.words)}
        )

    @classmethod
    def from_words(cls, words: Iterable[str]) -> "Vocabulary":
        return cls(tuple(dict.fromkeys(words)))

    def __len__(self) -> int:
        return len(self.words)

    def __contains__(self, word: str) -> bool:
        return word in self._index

    @property
    def unknown_id(self) -> int:
        # one past the last trained word id
        return len(self.words)

    @property
    def size_with_unknown(self) -> int:
        return len(self.words) + 1

    def id_of(self, word: str) -> int:
        """Return the word's id, or the unknown id for unseen words."""
        return self._index.get(word, self.unknown_id)

    def ids_of(self, words: Iterable[str]) -> list[int]:
        """`id_of` of each word, with one dict lookup per word."""
        get, unknown = self._index.get, self.unknown_id
        return [get(w, unknown) for w in words]


def check_tokens(tokens: Iterable) -> None:
    """Require every token to be a non-empty string."""
    for tok in tokens:
        if not isinstance(tok, str):
            raise InvalidInputError(f"token {tok!r} is not a string")
        if not tok:
            raise InvalidInputError("token must be non-empty")


def _is_sequence(value) -> bool:
    # a list or a tuple first: the test for the ABC costs five times as much
    return type(value) in (list, tuple) or (
        isinstance(value, Sequence) and not isinstance(value, (str, bytes)))


def is_batch(value) -> bool:
    """Whether `value` is a batch of sentences rather than one sentence.

    A sentence is a `collections.abc.Sequence`, not a `str` or `bytes`, of
    non-empty `str` tokens (left to `check_tokens`, where a lookup fails),
    a batch a sequence of sentences; a sequence that is empty or starts with
    a `str` is a sentence.  Anything else raises.
    """
    if not _is_sequence(value):
        what = "a string" if isinstance(value, (str, bytes)) else f"a {type(value).__name__}"
        raise InvalidInputError(f"a sentence is a sequence of tokens, not {what}")
    if not len(value) or isinstance(value[0], str):
        return False
    for item, sent in enumerate(value):
        if not _is_sequence(sent):
            what = "a string, not" if isinstance(sent, (str, bytes)) else "not"
            raise InvalidInputError(f"batch item {item} is {what} a sentence")
    return True


@dataclass(frozen=True)
class LabeledSentence:
    """A token sequence paired with gold label ids of equal length."""

    tokens: tuple[str, ...]
    labels: tuple[int, ...]

    def __post_init__(self):
        if len(self.tokens) == 0:
            raise InvalidInputError("sentence must contain at least one token")
        if len(self.tokens) != len(self.labels):
            raise InvalidInputError(
                f"{len(self.tokens)} tokens but {len(self.labels)} labels"
            )

    def __len__(self) -> int:
        return len(self.tokens)


@dataclass(frozen=True)
class PosteriorLattice:
    """T x N table of posterior marginals P(X_t = label_i | observations)."""

    values: np.ndarray

    def __post_init__(self):
        v = self.values
        _check_table(v)
        # fmin/fmax skip NaN, which the row-sum check below rejects
        if np.fmin.reduce(v, axis=None) < -ROW_SUM_TOL or (
            np.fmax.reduce(v, axis=None) > 1.0 + ROW_SUM_TOL
        ):
            raise InvalidInputError("lattice entries must lie in [0, 1]")
        sums = np.add.reduce(v, axis=1)
        if not (np.abs(sums - 1.0) <= ROW_SUM_TOL).all():  # NaN fails it too
            t = int(np.argmax(np.abs(sums - 1.0)))
            raise InvalidInputError(
                f"lattice row {t} sums to {sums[t]!r}, expected 1"
            )

    @classmethod
    def _normalised(cls, values: np.ndarray) -> "PosteriorLattice":
        """A lattice of rows that its caller knows to be distributions: rows
        it divided by their sums, having found every entry finite and
        non-negative and every sum finite and > 0, or memm forward rows of
        weights that keep every score within `tagger.SCORE_LIMIT`.  Such rows
        lie in [0, 1] and sum to 1 within rounding, so only the shape is
        checked."""
        _check_table(values)
        lattice = object.__new__(cls)
        object.__setattr__(lattice, "values", values)
        return lattice

    @property
    def n_labels(self) -> int:
        return self.values.shape[1]


def _check_table(values: np.ndarray) -> None:
    if values.ndim != 2 or values.shape[0] == 0 or values.shape[1] == 0:
        raise InvalidInputError("lattice must be a non-empty T x N table")


def mpm_from_lattice(lattice: PosteriorLattice) -> list[int]:
    """Per-position argmax of the posterior lattice.

    Ties are broken toward the lowest label id so decoding is
    deterministic across runs and platforms.
    """
    return lattice.values.argmax(axis=1).tolist()


# an ndarray whose dtype is one of these objects is what `id_array` and
# `real_array` return as it is; any other (a subclass, another byte order,
# an equal dtype held in another object) takes their general path
_INTP, _FLOAT64 = np.dtype(np.intp), np.dtype(np.float64)


def id_array(values, what: str) -> np.ndarray:
    """`values` as an intp array; ragged or non-integer values raise instead of being cut.
    An intp ndarray (not a subclass) is returned as it is."""
    if type(values) is np.ndarray and values.dtype is _INTP:
        return values
    try:
        arr = np.asarray(values)
    except ValueError:  # numpy refuses to stack rows of unequal length
        raise InvalidInputError(f"{what} are ragged: rows must have one length") from None
    if arr.size and arr.dtype.kind not in "iu":
        raise InvalidInputError(f"{what} must be integers, not {arr.dtype}")
    return arr.astype(np.intp, copy=False)


def real_array(values, message: str) -> np.ndarray:
    """`values` as a float64 array; text, complex or ragged values raise
    InvalidInputError(`message`) instead of being cast (a complex entry would
    lose its imaginary part).  A float64 ndarray (not a subclass) is
    returned as it is."""
    if type(values) is np.ndarray and values.dtype is _FLOAT64:
        return values
    try:
        arr = np.asarray(values)
        if arr.dtype.kind in "biuf":
            return arr.astype(np.float64, copy=False)
    except (TypeError, ValueError):  # numpy refuses to stack rows of unequal length
        pass
    raise InvalidInputError(message)


def check_lengths(lengths, n_rows: int | None = None) -> np.ndarray:
    """Sentence lengths of `n_rows` stacked rows, as intp.

    Every length is at least 1 and, unless `n_rows` is None, they sum to
    it; anything else raises instead of reaching the recursions as a bare
    numpy error.
    """
    arr = id_array(lengths, "sentence lengths")
    if arr.ndim != 1 or arr.size == 0:
        raise InvalidInputError("sentence lengths must be a non-empty list of integers")
    if arr.min() < 1:
        raise InvalidInputError(f"sentence length {int(arr.min())} is below 1")
    if n_rows is not None and arr.sum() != n_rows:
        raise InvalidInputError(f"sentence lengths sum to {int(arr.sum())}, not {n_rows} rows")
    return arr


def check_token_rows(token_rows, n_rows: int) -> np.ndarray:
    """Each token's row number among `n_rows` rows scored once each, as intp.

    A number outside those rows raises instead of reaching numpy as an
    IndexError.
    """
    arr = id_array(token_rows, "token rows")
    if arr.ndim != 1 or arr.size and (arr.min() < 0 or arr.max() >= n_rows):
        raise InvalidInputError(f"token rows must be a vector of row numbers below {n_rows}")
    return arr
