import pytest

from efbtag.cli import main
from efbtag.core import TagSet, Vocabulary
from efbtag.dataio import (
    CorpusFormat,
    load_tagmap,
    read_corpus,
    split_known_unknown,
)
from efbtag.errors import DataError

CONLL2000 = """\
Batman NNP B-NP
. . O

the DT B-NP
cat NN I-NP
"""

CONLL2003 = """\
-DOCSTART- -X- O O

Batman NNP I-NP I-PER
flies VBZ I-VP O

-DOCSTART- -X- O O

Gotham NNP I-NP I-LOC
"""

CONLLU = """\
# sent_id = 1
# text = Batman is
1\tBatman\tBatman\tPROPN\tNNP\t_\t2\t_\t_\t_
2-3\tisn't\t_\t_\t_\t_\t_\t_\t_\t_
2\tis\tbe\tAUX\tVBZ\t_\t0\t_\t_\t_
3.1\tnull\tnull\tX\t_\t_\t_\t_\t_\t_

1\tGotham\tGotham\tPROPN\tNNP\t_\t0\t_\t_\t_
"""


def write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text, encoding="utf-8")
    return p


class TestReadCorpus:
    def test_conll2000_columns_and_blank_line_split(self, tmp_path):
        corpus = read_corpus(
            write(tmp_path, "c.txt", CONLL2000), CorpusFormat.CONLL2000
        )
        assert len(corpus.sentences) == 2
        assert corpus.sentences[0].tokens == ("Batman", ".")
        tags = [corpus.tagset.label_of(i) for i in corpus.sentences[0].labels]
        assert tags == ["NNP", "."]

    def test_conll2003_drops_docstart(self, tmp_path):
        corpus = read_corpus(
            write(tmp_path, "c.txt", CONLL2003), CorpusFormat.CONLL2003
        )
        assert len(corpus.sentences) == 2
        assert corpus.sentences[0].tokens == ("Batman", "flies")
        assert corpus.sentences[1].tokens == ("Gotham",)

    def test_conllu_skips_comments_ranges_and_empty_nodes(self, tmp_path):
        corpus = read_corpus(write(tmp_path, "c.conllu", CONLLU), CorpusFormat.CONLLU)
        assert len(corpus.sentences) == 2
        assert corpus.sentences[0].tokens == ("Batman", "is")
        tags = [corpus.tagset.label_of(i) for i in corpus.sentences[0].labels]
        assert tags == ["PROPN", "AUX"]

    def test_malformed_row_reports_line_number(self, tmp_path):
        path = write(tmp_path, "bad.txt", "Batman NNP\n")
        with pytest.raises(DataError, match="bad.txt:1"):
            read_corpus(path, CorpusFormat.CONLL2000)

    def test_deterministic_and_order_preserving(self, tmp_path):
        path = write(tmp_path, "c.txt", CONLL2000)
        a = read_corpus(path, CorpusFormat.CONLL2000)
        b = read_corpus(path, CorpusFormat.CONLL2000)
        assert a.sentences == b.sentences
        assert a.tagset.labels == b.tagset.labels
        assert a.vocab.words == b.vocab.words

    def test_external_tagset_rejects_unseen_tag(self, tmp_path):
        path = write(tmp_path, "c.txt", CONLL2000)
        with pytest.raises(DataError, match="NNP"):
            read_corpus(path, CorpusFormat.CONLL2000, tagset=TagSet.from_labels(["DT"]))


class TestTagMap:
    def test_applied_to_pos_column(self, tmp_path):
        tagmap = load_tagmap(
            write(tmp_path, "map.tsv", "# comment\nNNP\tNOUN\n.\tPUNCT\nDT\tDET\nNN\tNOUN\n")
        )
        corpus = read_corpus(
            write(tmp_path, "c.txt", CONLL2000), CorpusFormat.CONLL2000, tagmap
        )
        tags = [corpus.tagset.label_of(i) for i in corpus.sentences[0].labels]
        assert tags == ["NOUN", "PUNCT"]

    def test_unmapped_tags_listed(self, tmp_path):
        tagmap = load_tagmap(write(tmp_path, "map.tsv", "NNP\tNOUN\n"))
        path = write(tmp_path, "c.txt", CONLL2000)
        with pytest.raises(DataError, match=r"\.\, DT, NN|tags missing"):
            read_corpus(path, CorpusFormat.CONLL2000, tagmap)

    def test_malformed_map_line(self, tmp_path):
        with pytest.raises(DataError, match=":1"):
            load_tagmap(write(tmp_path, "map.tsv", "justonetoken\n"))

    def test_conflicting_lines_name_both(self, tmp_path):
        path = write(tmp_path, "map.tsv", "NN\tNOUN\n# note\nDT\tDET\nNN\tVERB\n")
        with pytest.raises(DataError, match=r"map\.tsv:4: 'NN\\tVERB' conflicts with line 1$"):
            load_tagmap(path)

    def test_repeated_identical_line_accepted(self, tmp_path):
        path = write(tmp_path, "map.tsv", "NN\tNOUN\nDT\tDET\nNN\tNOUN\n")
        assert load_tagmap(path) == {"NN": "NOUN", "DT": "DET"}


class TestSplitKnownUnknown:
    def test_basic_flags(self, tmp_path):
        corpus = read_corpus(
            write(tmp_path, "c.txt", CONLL2000), CorpusFormat.CONLL2000
        )
        vocab = Vocabulary.from_words(["Batman", "the"])
        flags = split_known_unknown(corpus.sentences, vocab)
        assert flags == [[False, True], [False, True]]

    def test_empty_vocabulary_all_unknown(self, tmp_path):
        corpus = read_corpus(
            write(tmp_path, "c.txt", CONLL2000), CorpusFormat.CONLL2000
        )
        flags = split_known_unknown(corpus.sentences, Vocabulary.from_words([]))
        assert all(all(sent) for sent in flags)

    def test_rate_matches_set_difference(self, tmp_path):
        train = read_corpus(
            write(tmp_path, "train.txt", CONLL2000), CorpusFormat.CONLL2000
        )
        test = read_corpus(
            write(tmp_path, "test.txt", CONLL2003), CorpusFormat.CONLL2003
        )
        flags = split_known_unknown(test.sentences, train.vocab)
        n_unknown = sum(sum(s) for s in flags)
        # independent set-difference count
        train_words = {w for s in train.sentences for w in s.tokens}
        expected = sum(
            1 for s in test.sentences for w in s.tokens if w not in train_words
        )
        assert n_unknown == expected


class TestEmptyInputs:
    @pytest.mark.parametrize("column,name", [(1, "FORM"), (3, "UPOS")])
    def test_empty_conllu_column_reports_line(self, tmp_path, capsys, column, name):
        lines = CONLLU.splitlines()
        cols = lines[4].split("\t")  # token "is" on line 5
        cols[column] = ""
        lines[4] = "\t".join(cols)
        path = write(tmp_path, "c.conllu", "\n".join(lines) + "\n")
        with pytest.raises(DataError, match=f"c.conllu:5: empty {name} column"):
            read_corpus(path, CorpusFormat.CONLLU)
        rc = main(["train", str(path), "--format", "conllu",
                   "--out", str(tmp_path / "m.bin")])
        err = capsys.readouterr().err
        assert rc == 2
        assert err == f"efbtag: {path}:5: empty {name} column\n"

    @pytest.mark.parametrize(
        "fmt,text",
        [
            (CorpusFormat.CONLL2000, ""),
            (CorpusFormat.CONLL2000, "\n\n"),
            (CorpusFormat.CONLL2003, "-DOCSTART- -X- O O\n\n"),
            (CorpusFormat.CONLLU, "# sent_id = 1\n1-2\tisn't" + "\t_" * 8 + "\n"),
        ],
        ids=["empty", "blank-lines", "docstart-only", "comment-and-range-only"],
    )
    def test_file_without_sentences(self, tmp_path, capsys, fmt, text):
        path = write(tmp_path, "c.txt", text)
        with pytest.raises(DataError, match="c.txt: no sentences"):
            read_corpus(path, fmt)
        rc = main(["train", str(path), "--format", fmt.value,
                   "--out", str(tmp_path / "m.bin")])
        assert rc == 2
        assert capsys.readouterr().err == f"efbtag: {path}: no sentences\n"
