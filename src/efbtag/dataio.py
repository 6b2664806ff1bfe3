"""Corpus readers for the CoNLL-2000, CoNLL-2003, and CoNLL-U layouts.

All three formats separate sentences with blank lines.  An optional tag
map (two-column text file) rewrites source tags, e.g. to the universal
tagset.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass
from enum import Enum
from pathlib import Path
from typing import Iterable, Iterator, Optional, Sequence

from .core import LabeledSentence, TagSet, Vocabulary
from .errors import DataError


class CorpusFormat(Enum):
    CONLL2000 = "conll2000"
    CONLL2003 = "conll2003"
    CONLLU = "conllu"


@contextmanager
def _utf8_errors(path: str | Path) -> Iterator[None]:
    """Turn undecodable bytes read within the block into one DataError."""
    try:
        yield
    except UnicodeDecodeError as exc:
        raise DataError(f"{path}: not UTF-8 text ({exc.reason})") from None


def utf8_lines(fh: Iterable[str], path: str | Path) -> Iterator[str]:
    """The lines of a text file read as UTF-8; undecodable bytes raise DataError."""
    with _utf8_errors(path):
        yield from fh


def _read_text(path: str | Path) -> str:
    """A text file's contents, UTF-8 with an optional byte-order mark."""
    with open(path, encoding="utf-8-sig") as fh, _utf8_errors(path):
        return fh.read()


def load_tagmap(path: str | Path) -> dict[str, str]:
    """Read a tag map: one 'source<TAB>target' pair per line, '#' comments.

    A source may repeat only with the same target.
    """
    first: dict[str, tuple[str, int]] = {}  # source -> (target, line) where first mapped
    for lineno, line in enumerate(_read_text(path).split("\n"), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split("\t")
        if len(parts) != 2 or not parts[0] or not parts[1]:
            raise DataError(f"{path}:{lineno}: malformed tag map line: {line!r}")
        target, at = first.setdefault(parts[0], (parts[1], lineno))
        if target != parts[1]:
            raise DataError(f"{path}:{lineno}: {line!r} conflicts with line {at}")
    return {source: target for source, (target, _) in first.items()}


@dataclass(frozen=True)
class Corpus:
    sentences: tuple[LabeledSentence, ...]
    tagset: TagSet
    vocab: Vocabulary

    @property
    def n_tokens(self) -> int:
        return sum(len(s) for s in self.sentences)


def _parse(path: str | Path, fmt: CorpusFormat) -> tuple[list[str], list[str], list[int]]:
    """Every sentence's tokens and tags, flat, and the offset just past each sentence.

    A blank line ends a sentence; so does a CoNLL-2003 `-DOCSTART-` line,
    which adds no token.
    """
    conllu = fmt is CorpusFormat.CONLLU
    docstart = fmt is CorpusFormat.CONLL2003
    want = 3 if fmt is CorpusFormat.CONLL2000 else 4
    tokens: list[str] = []
    tags: list[str] = []
    ends: list[int] = []  # the offset at every sentence boundary, empty sentences too
    for lineno, line in enumerate(_read_text(path).split("\n"), start=1):
        if conllu:
            cols = line.split("\t")
            # a word line passes every check below, so it is taken first
            if len(cols) == 10 and cols[0].isdigit() and cols[1] and cols[3]:
                tokens.append(cols[1])
                tags.append(cols[3])
                continue
        if not line or line.isspace():
            ends.append(len(tokens))
            continue
        if conllu:
            if line[0] == "#":
                continue
            if len(cols) != 10:
                raise DataError(
                    f"{path}:{lineno}: expected 10 tab-separated columns, got {len(cols)}"
                )
            # multiword ranges and empty nodes carry no single UPOS
            if "-" in cols[0] or "." in cols[0]:
                continue
            form, tag = cols[1], cols[3]
            if not (form and tag):
                raise DataError(f"{path}:{lineno}: empty {'UPOS' if form else 'FORM'} column")
        else:
            cols = line.split()
            if len(cols) != want:
                raise DataError(f"{path}:{lineno}: expected {want} columns, got {len(cols)}")
            form, tag = cols[0], cols[1]
            if docstart and form == "-DOCSTART-":
                ends.append(len(tokens))
                continue
        tokens.append(form)
        tags.append(tag)
    ends.append(len(tokens))
    return tokens, tags, [end for end in dict.fromkeys(ends) if end]


def read_corpus(
    path: str | Path,
    fmt: CorpusFormat,
    tagmap: Optional[dict[str, str]] = None,
    tagset: Optional[TagSet] = None,
) -> Corpus:
    """Read a corpus file into labeled sentences plus tag and word indices.

    When `tagset` is given (decoding a test set with a trained model's
    labels), tags outside it are an error; otherwise the tag set is
    built from the file in order of first appearance.
    """
    tokens, tags, ends = _parse(path, fmt)
    if not ends:
        raise DataError(f"{path}: no sentences")
    if tagmap is not None:
        unmapped = sorted(set(tags).difference(tagmap))
        if unmapped:
            raise DataError(f"{path}: tags missing from tag map: {', '.join(unmapped)}")
        tags = list(map(tagmap.__getitem__, tags))
    if tagset is None:
        tagset = TagSet.from_labels(dict.fromkeys(tags))
    else:
        missing = sorted(set(tags).difference(tagset.labels))
        if missing:
            raise DataError(f"{path}: tags outside the tag set: {', '.join(missing)}")
    labels = tagset.ids_of(tags)
    sentences = tuple(
        LabeledSentence(tokens=tuple(tokens[a:b]), labels=tuple(labels[a:b]))
        for a, b in zip([0] + ends, ends)
    )
    return Corpus(sentences=sentences, tagset=tagset, vocab=Vocabulary.from_words(tokens))


def split_known_unknown(
    sentences: Sequence[LabeledSentence], train_vocab: Vocabulary
) -> list[list[bool]]:
    """Per-token flags, True where the exact surface form was never trained on."""
    return [
        [tok not in train_vocab for tok in sent.tokens] for sent in sentences
    ]
