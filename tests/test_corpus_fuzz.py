"""Damaged corpus files: every read is a Corpus of non-empty tokens and tags
or a DataError, and every hmc-efb training ends with exit 0 or with exit 2
and one stderr line."""

import contextlib
import io

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from efbtag.cli import EXIT_DATA, EXIT_OK, main
from efbtag.dataio import Corpus, CorpusFormat, read_corpus
from efbtag.errors import DataError

CORPORA = {
    CorpusFormat.CONLL2000: """\
the DT B-NP
cat NN I-NP
runs VBZ B-VP

a DT B-NP
dark JJ I-NP
city NN I-NP
sleeps VBZ B-VP
. . O
""",
    CorpusFormat.CONLL2003: """\
-DOCSTART- -X- O O

Batman NNP B-NP B-PER
flies VBZ B-VP O

the DT B-NP O
Gotham NNP I-NP B-LOC
police NN I-NP O
waits VBZ B-VP O
""",
    CorpusFormat.CONLLU: """\
# sent_id = 1
# text = Batman isn't here
1\tBatman\tBatman\tPROPN\tNNP\t_\t2\tnsubj\t_\t_
2-3\tisn't\t_\t_\t_\t_\t_\t_\t_\t_
2\tis\tbe\tAUX\tVBZ\t_\t0\troot\t_\t_
3\tn't\tnot\tPART\tRB\t_\t2\tadvmod\t_\t_
3.1\there\there\tADV\tRB\t_\t_\t_\t_\t_

# sent_id = 2
1\tThe\tthe\tDET\tDT\t_\t2\tdet\t_\t_
2\tcity\tcity\tNOUN\tNN\t_\t3\tnsubj\t_\t_
3\tsleeps\tsleep\tVERB\tVBZ\t_\t0\troot\t_\t_
""",
}
FORMATS = list(CORPORA)
FUZZ = settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)


def check_damaged(tmp_path, fmt: CorpusFormat, data: bytes) -> None:
    """Read and train on a damaged corpus file; asserts the documented outcomes."""
    path = tmp_path / "damaged.txt"
    path.write_bytes(data)
    try:
        corpus = read_corpus(path, fmt)
    except DataError:
        pass
    else:
        assert isinstance(corpus, Corpus) and corpus.sentences
        for sent in corpus.sentences:
            assert sent.tokens and all(sent.tokens)
        assert all(corpus.tagset.labels)
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        rc = main(
            ["train", str(path), "--format", fmt.value, "--decoder", "hmc-efb",
             "--epochs", "1", "--out", str(tmp_path / "m.bin")]
        )
    lines = err.getvalue().splitlines()
    assert rc in (EXIT_OK, EXIT_DATA), err.getvalue()
    if rc == EXIT_OK:
        assert lines == []
    else:
        assert len(lines) == 1 and lines[0].startswith("efbtag: "), lines


def lines_of(fmt: CorpusFormat) -> list[str]:
    return CORPORA[fmt].splitlines()


def joined(lines: list[str]) -> bytes:
    return ("\n".join(lines) + "\n").encode("utf-8")


@pytest.mark.parametrize("fmt", FORMATS, ids=lambda f: f.value)
def test_intact_corpus_trains(tmp_path, fmt):
    check_damaged(tmp_path, fmt, CORPORA[fmt].encode("utf-8"))
    assert read_corpus(tmp_path / "damaged.txt", fmt).n_tokens > 0


@pytest.mark.parametrize("fmt", FORMATS, ids=lambda f: f.value)
@FUZZ
@given(data=st.data())
def test_truncated_anywhere(tmp_path, fmt, data):
    blob = CORPORA[fmt].encode("utf-8")
    check_damaged(tmp_path, fmt, blob[: data.draw(st.integers(0, len(blob) - 1))])


@pytest.mark.parametrize("fmt", FORMATS, ids=lambda f: f.value)
@FUZZ
@given(data=st.data())
def test_one_byte_flipped_anywhere(tmp_path, fmt, data):
    blob = bytearray(CORPORA[fmt].encode("utf-8"))
    at = data.draw(st.integers(0, len(blob) - 1))
    blob[at] ^= data.draw(st.integers(1, 255))
    check_damaged(tmp_path, fmt, bytes(blob))


@pytest.mark.parametrize("fmt", FORMATS, ids=lambda f: f.value)
@FUZZ
@given(data=st.data(), emptied=st.booleans())
def test_one_column_dropped_or_emptied(tmp_path, fmt, data, emptied):
    lines = lines_of(fmt)
    at = data.draw(st.sampled_from([i for i, line in enumerate(lines) if line.strip()]))
    sep = "\t" if fmt is CorpusFormat.CONLLU else " "
    cols = lines[at].split(sep)
    col = data.draw(st.integers(0, len(cols) - 1))
    if emptied:
        cols[col] = ""
    else:
        del cols[col]
    lines[at] = sep.join(cols)
    check_damaged(tmp_path, fmt, joined(lines))


@pytest.mark.parametrize("fmt", FORMATS, ids=lambda f: f.value)
@FUZZ
@given(data=st.data(), line=st.sampled_from(["", "   ", "# a comment"]))
def test_blank_or_comment_line_inserted(tmp_path, fmt, data, line):
    lines = lines_of(fmt)
    lines.insert(data.draw(st.integers(0, len(lines))), line)
    check_damaged(tmp_path, fmt, joined(lines))
