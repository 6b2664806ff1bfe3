"""Corpus readers for the CoNLL-2000, CoNLL-2003, and CoNLL-U layouts.

All three formats separate sentences with blank lines.  An optional tag
map (two-column text file) rewrites source tags, e.g. to the universal
tagset.
"""

from __future__ import annotations

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


def utf8_lines(fh: Iterable[str], path: str | Path) -> Iterator[str]:
    """The lines of a text file read as UTF-8; undecodable bytes raise DataError."""
    try:
        yield from fh
    except UnicodeDecodeError as exc:
        raise DataError(f"{path}: not UTF-8 text ({exc.reason})") from None


def load_tagmap(path: str | Path) -> dict[str, str]:
    """Read a tag map: one 'source<TAB>target' pair per line, '#' comments."""
    mapping: dict[str, str] = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(utf8_lines(fh, path), start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split("\t")
            if len(parts) != 2 or not parts[0] or not parts[1]:
                raise DataError(f"{path}:{lineno}: malformed tag map line: {line!r}")
            mapping[parts[0]] = parts[1]
    return mapping


@dataclass(frozen=True)
class Corpus:
    sentences: tuple[LabeledSentence, ...]
    tagset: TagSet
    vocab: Vocabulary

    @property
    def n_tokens(self) -> int:
        return sum(len(s) for s in self.sentences)


def _parse_raw(
    path: str | Path, fmt: CorpusFormat
) -> list[list[tuple[str, str]]]:
    sentences: list[list[tuple[str, str]]] = []
    current: list[tuple[str, str]] = []
    is_docstart = False
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(utf8_lines(fh, path), start=1):
            line = line.rstrip("\n")
            if not line.strip():
                if current and not is_docstart:
                    sentences.append(current)
                current = []
                is_docstart = False
                continue
            if fmt is CorpusFormat.CONLLU:
                if line.startswith("#"):
                    continue
                cols = line.split("\t")
                if len(cols) != 10:
                    raise DataError(
                        f"{path}:{lineno}: expected 10 tab-separated columns, "
                        f"got {len(cols)}"
                    )
                # multiword ranges and empty nodes carry no single UPOS
                if "-" in cols[0] or "." in cols[0]:
                    continue
                for name, col in (("FORM", cols[1]), ("UPOS", cols[3])):
                    if not col:
                        raise DataError(f"{path}:{lineno}: empty {name} column")
                current.append((cols[1], cols[3]))
            else:
                cols = line.split()
                want = 3 if fmt is CorpusFormat.CONLL2000 else 4
                if len(cols) != want:
                    raise DataError(
                        f"{path}:{lineno}: expected {want} columns, got {len(cols)}"
                    )
                if fmt is CorpusFormat.CONLL2003 and cols[0] == "-DOCSTART-":
                    is_docstart = True
                    continue
                current.append((cols[0], cols[1]))
    if current and not is_docstart:
        sentences.append(current)
    if not sentences:
        raise DataError(f"{path}: no sentences")
    return sentences


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
    raw = _parse_raw(path, fmt)
    if tagmap is not None:
        unmapped = sorted(
            {tag for sent in raw for _, tag in sent if tag not in tagmap}
        )
        if unmapped:
            raise DataError(f"{path}: tags missing from tag map: {', '.join(unmapped)}")
        raw = [[(tok, tagmap[tag]) for tok, tag in sent] for sent in raw]

    if tagset is None:
        seen: dict[str, None] = {}
        for sent in raw:
            for _, tag in sent:
                seen.setdefault(tag)
        tagset = TagSet.from_labels(seen)
    else:
        missing = sorted(
            {tag for sent in raw for _, tag in sent if tag not in tagset}
        )
        if missing:
            raise DataError(f"{path}: tags outside the tag set: {', '.join(missing)}")

    vocab = Vocabulary.from_words(tok for sent in raw for tok, _ in sent)
    sentences = tuple(
        LabeledSentence(
            tokens=tuple(tok for tok, _ in sent),
            labels=tuple(tagset.id_of(tag) for _, tag in sent),
        )
        for sent in raw
    )
    return Corpus(sentences=sentences, tagset=tagset, vocab=vocab)


def split_known_unknown(
    sentences: Sequence[LabeledSentence], train_vocab: Vocabulary
) -> list[list[bool]]:
    """Per-token flags, True where the exact surface form was never trained on."""
    return [
        [tok not in train_vocab for tok in sent.tokens] for sent in sentences
    ]
