"""The one-read corpus reader equals the line-by-line reader it replaced.

`line_reader` below is that reader, kept here as the reference.  On every
generated file both give an equal Corpus or the same DataError text.  The
files avoid the two inputs whose reading was changed on purpose: a
`-DOCSTART-` line inside a block of tokens, and a byte-order mark.
"""

from pathlib import Path
from typing import Optional

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from efbtag.core import LabeledSentence, TagSet, Vocabulary
from efbtag.dataio import Corpus, CorpusFormat, read_corpus, utf8_lines
from efbtag.errors import DataError


def _parse_raw(path, fmt: CorpusFormat) -> list[list[tuple[str, str]]]:
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


def line_reader(
    path, fmt: CorpusFormat, tagmap: Optional[dict[str, str]], tagset: Optional[TagSet]
) -> Corpus:
    raw = _parse_raw(path, fmt)
    if tagmap is not None:
        unmapped = sorted({tag for sent in raw for _, tag in sent if tag not in tagmap})
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
        missing = sorted({tag for sent in raw for _, tag in sent if tag not in tagset})
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


WORDS = st.sampled_from(["the", "Cat", "café", "a-b", "42", "#x", "x.1", "é"])
ALL_TAGS = ["DT", "NN", "VB", "X"]
TAGS = st.sampled_from(ALL_TAGS)
BLANK = st.sampled_from(["", " ", "\t", "  \t "])
SEP = st.sampled_from([" ", "\t", "  "])


@st.composite
def column_line(draw, fmt: CorpusFormat, damaged: bool) -> str:
    """A token line of `fmt`; a damaged one lacks a column, has one too many or an empty one."""
    if fmt is CorpusFormat.CONLLU:
        cols = [draw(st.sampled_from(["1", "2", "1-2", "3.1"])), draw(WORDS), "_",
                draw(TAGS), "_", "_", "0", "_", "_", "_"]
        damage = draw(st.sampled_from(["drop", "add", "FORM", "UPOS"])) if damaged else None
        if damage == "drop":
            del cols[draw(st.integers(0, 9))]
        elif damage == "add":
            cols.append("_")
        elif damage:
            cols[1 if damage == "FORM" else 3] = ""
        return "\t".join(cols)
    width = 3 if fmt is CorpusFormat.CONLL2000 else 4
    width += draw(st.sampled_from([-1, 1])) if damaged else 0
    cols = [draw(WORDS), draw(TAGS)] + ["O"] * (width - 2)
    return draw(SEP).join(cols[:width])


@st.composite
def corpus_file(draw, fmt: CorpusFormat) -> bytes:
    """Blocks of lines joined by blank lines, with CRLF or LF and maybe no final newline.

    One file in four has one damaged token line, one in ten ends in a byte
    that is not UTF-8.
    """
    blocks = []
    for _ in range(draw(st.integers(0, 5))):
        if fmt is CorpusFormat.CONLL2003 and draw(st.integers(0, 4)) == 0:
            blocks.append(["-DOCSTART- -X- -X- O"])  # a document break of its own
            continue
        lines = []
        for _ in range(draw(st.integers(1, 4))):
            if fmt is CorpusFormat.CONLLU and draw(st.integers(0, 4)) == 0:
                lines.append(draw(st.sampled_from(["# sent_id = 1", "#", "# text = é"])))
            else:
                lines.append(draw(column_line(fmt, damaged=False)))
        blocks.append(lines)
    lines = []
    for block in blocks:
        lines += block + [draw(BLANK)] * draw(st.integers(1, 2))
    tokens = [i for i, line in enumerate(lines) if line.strip() and line[0] != "#"]
    if tokens and draw(st.integers(0, 3)) == 0:
        lines[draw(st.sampled_from(tokens))] = draw(column_line(fmt, damaged=True))
    newline = draw(st.sampled_from(["\n", "\r\n"]))
    text = newline.join(lines) + draw(st.sampled_from(["", newline]))
    data = text.encode("utf-8")
    if data and draw(st.integers(0, 9)) == 0:
        data += b"\xff"
    return data


FORMATS = st.sampled_from(list(CorpusFormat))


def outcome(read, *args):
    try:
        return read(*args)
    except DataError as exc:
        return str(exc)


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data(), fmt=FORMATS)
def test_same_corpus_or_same_error(tmp_path, data, fmt):
    path = Path(tmp_path) / "c.txt"
    path.write_bytes(data.draw(corpus_file(fmt)))
    # a tag map or tag set usually covers every tag, and now and then misses some
    targets = st.sampled_from(["NOUN", "X"])
    tagmap = data.draw(st.none() | st.fixed_dictionaries(
        {}, optional={tag: targets for tag in ALL_TAGS}
    ) | st.fixed_dictionaries({tag: targets for tag in ALL_TAGS}))
    tagset = data.draw(st.none() | st.permutations(ALL_TAGS + ["NOUN"]).map(
        TagSet.from_labels
    ) | st.lists(st.sampled_from(ALL_TAGS), unique=True).map(TagSet.from_labels))
    expected = outcome(line_reader, path, fmt, tagmap, tagset)
    assert outcome(read_corpus, path, fmt, tagmap, tagset) == expected


def conllu_line(word_id: str, form: str = "w", upos: str = "NOUN") -> str:
    return "\t".join([word_id, form, "_", upos, "_", "_", "0", "_", "_", "_"])


# CoNLL-U files at the edges of the reader's first check, which takes a
# 10-column line with an all-digit ID, a FORM and a UPOS before the blank,
# comment and multiword checks: (lines, the error's "line: text" or None)
CHECK_ORDER_FILES = {
    "multi-digit-ids": ([conllu_line("1"), conllu_line("10"), conllu_line("123")], None),
    # `str.isdigit` holds for both, and neither holds "-" or "."
    "non-ascii-digit-ids": ([conllu_line("٣"), conllu_line("²")], None),
    "id-with-a-leading-space": ([conllu_line(" 1"), conllu_line("2")], None),
    "empty-form": ([conllu_line("1"), conllu_line("2", form="")], "2: empty FORM column"),
    "empty-upos": ([conllu_line("1"), conllu_line("2", upos="")], "2: empty UPOS column"),
    "empty-form-and-upos": ([conllu_line("1", form="", upos="")], "1: empty FORM column"),
    "nine-tabs": ([conllu_line("1"), "\t" * 9, conllu_line("1")], None),
    "comment-of-nine-tabs": (["#" + "\t" * 9, conllu_line("1"), "#"], None),
    "multiword-and-empty-node": (
        [conllu_line("1-2"), conllu_line("1"), conllu_line("2"), conllu_line("2.1")], None
    ),
}


@pytest.mark.parametrize("newline", ["\n", "\r\n"], ids=["lf", "crlf"])
@pytest.mark.parametrize("name", list(CHECK_ORDER_FILES))
def test_word_lines_taken_first_read_as_the_line_reader(tmp_path, name, newline):
    lines, error = CHECK_ORDER_FILES[name]
    path = Path(tmp_path) / "c.conllu"
    path.write_bytes((newline.join(lines) + newline).encode("utf-8"))
    fmt = CorpusFormat.CONLLU
    got = outcome(read_corpus, path, fmt, None, None)
    assert got == outcome(line_reader, path, fmt, None, None)
    if error is None:
        assert isinstance(got, Corpus)
    else:
        assert got == f"{path}:{error}"
