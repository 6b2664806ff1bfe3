import json

import numpy as np
import pytest

from efbtag.cli import _sgd_config, build_parser, main
from efbtag.dataio import CorpusFormat, read_corpus
from efbtag.evaluation import EvalReport, evaluate
from efbtag.features import FeatureTemplate
from efbtag.errors import DataError
from efbtag.modelfile import MAGIC, load_model, save_model
from efbtag.tagger import DecoderKind, train_tagger
from efbtag.discrim import SgdConfig
from efbtag.hmc import DEFAULT_SMOOTHING


def synthetic_conll2000(rng, n_sentences=40):
    """Sample sentences from a tiny deterministic-ish tagged grammar."""
    lexicon = {
        "DT": ["the", "a"],
        "NN": ["cat", "dog", "vigilante", "city"],
        "VB": ["runs", "sleeps", "flies"],
        "JJ": ["dark", "main"],
    }
    patterns = [
        ["DT", "NN", "VB"],
        ["DT", "JJ", "NN", "VB"],
        ["NN", "VB"],
    ]
    lines = []
    for _ in range(n_sentences):
        pat = patterns[int(rng.integers(len(patterns)))]
        for tag in pat:
            word = lexicon[tag][int(rng.integers(len(lexicon[tag])))]
            lines.append(f"{word} {tag} O")
        lines.append("")
    return "\n".join(lines) + "\n"


@pytest.fixture
def toy_files(tmp_path):
    rng = np.random.default_rng(99)
    train = tmp_path / "train.txt"
    test = tmp_path / "test.txt"
    train.write_text(synthetic_conll2000(rng, 60), encoding="utf-8")
    test.write_text(synthetic_conll2000(rng, 15), encoding="utf-8")
    return train, test


FAST = ["--epochs", "8", "--lr", "0.5", "--batch", "8"]


class TestModelRoundTrip:
    @pytest.mark.parametrize(
        "kind",
        [DecoderKind.HMC_FB, DecoderKind.HMC_EFB, DecoderKind.MEMM, DecoderKind.HMC_NAIVE],
    )
    def test_save_load_save_byte_identical(self, toy_files, tmp_path, kind):
        train_path, _ = toy_files
        corpus = read_corpus(train_path, CorpusFormat.CONLL2000)
        tagger, _ = train_tagger(
            corpus, kind, FeatureTemplate.LF1, SgdConfig(epochs=2)
        )
        p1 = tmp_path / "m1.bin"
        p2 = tmp_path / "m2.bin"
        save_model(p1, tagger)
        save_model(p2, load_model(p1))
        assert p1.read_bytes() == p2.read_bytes()

    def test_reload_decodes_identically(self, toy_files, tmp_path):
        train_path, _ = toy_files
        corpus = read_corpus(train_path, CorpusFormat.CONLL2000)
        tagger, _ = train_tagger(
            corpus, DecoderKind.HMC_EFB, FeatureTemplate.LF1, SgdConfig(epochs=3)
        )
        path = tmp_path / "m.bin"
        save_model(path, tagger)
        reloaded = load_model(path)
        for sent in corpus.sentences[:10]:
            assert tagger.decode(sent.tokens) == reloaded.decode(sent.tokens)


class TestEvalReport:
    def test_forced_arithmetic(self):
        report = EvalReport(
            kw_errors=1, kw_tokens=8, uw_errors=1, uw_tokens=2,
            confusion=np.zeros((2, 2), dtype=np.int64),
        )
        assert report.kw_rate == pytest.approx(12.5)
        assert report.uw_rate == pytest.approx(50.0)
        assert report.global_rate == pytest.approx(20.0)
        assert report.global_errors == report.kw_errors + report.uw_errors
        assert report.total_tokens == report.kw_tokens + report.uw_tokens

    def test_perfect_toy_model_zero_rates(self, toy_files):
        train_path, _ = toy_files
        corpus = read_corpus(train_path, CorpusFormat.CONLL2000)
        tagger, _ = train_tagger(corpus, DecoderKind.HMC_FB)
        report = evaluate(tagger, corpus, corpus.vocab)
        # the toy grammar is unambiguous, so held-in decoding is exact
        assert report.global_errors == 0
        assert report.uw_tokens == 0


class TestCommands:
    def test_train_tag_evaluate(self, toy_files, tmp_path, capsys):
        train_path, test_path = toy_files
        model = tmp_path / "model.bin"
        rc = main(
            ["train", str(train_path), "--format", "conll2000",
             "--decoder", "hmc-efb", "--features", "lf1", "--out", str(model)]
            + FAST
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "sentences=60" in out
        assert "final_loss=" in out

        sent_file = tmp_path / "input.txt"
        sent_file.write_text("the dark cat runs\n\ncity sleeps\n", encoding="utf-8")
        out_file = tmp_path / "tagged.txt"
        rc = main(["tag", str(model), str(sent_file), "--out", str(out_file)])
        assert rc == 0
        blocks = out_file.read_text(encoding="utf-8").strip().split("\n\n")
        assert len(blocks) == 2
        assert all("\t" in line for line in blocks[0].splitlines())
        assert len(blocks[0].splitlines()) == 4

        rc = main(["evaluate", str(model), str(test_path), "--format", "conll2000"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "global_err=" in out

    def test_tag_empty_input(self, toy_files, tmp_path, capsys):
        train_path, _ = toy_files
        model = tmp_path / "model.bin"
        assert main(
            ["train", str(train_path), "--format", "conll2000",
             "--decoder", "hmc-fb", "--out", str(model)]
        ) == 0
        empty = tmp_path / "empty.txt"
        empty.write_text("", encoding="utf-8")
        out_file = tmp_path / "out.txt"
        assert main(["tag", str(model), str(empty), "--out", str(out_file)]) == 0
        assert out_file.read_text(encoding="utf-8") == ""

    def test_train_deterministic_byte_identical(self, toy_files, tmp_path, capsys):
        train_path, _ = toy_files
        m1, m2 = tmp_path / "m1.bin", tmp_path / "m2.bin"
        base = ["train", str(train_path), "--format", "conll2000",
                "--decoder", "memm", "--seed", "7", "--epochs", "3"]
        assert main(base + ["--out", str(m1)]) == 0
        assert main(base + ["--out", str(m2)]) == 0
        assert m1.read_bytes() == m2.read_bytes()

    def test_compare_shared_counts(self, toy_files, capsys):
        train_path, test_path = toy_files
        rc = main(
            ["compare", str(train_path), str(test_path), "--format", "conll2000",
             "--features", "nf", "lf1"] + FAST
        )
        assert rc == 0
        out = capsys.readouterr().out
        totals = {
            line.split("=")[1]
            for line in out.splitlines()
            if line.startswith("total_tokens=")
        }
        assert len(totals) == 1  # both decoders scored the same test set
        assert out.count("decoder=memm") == 2
        assert out.count("decoder=hmc-efb") == 2

    def test_exit_codes(self, toy_files, tmp_path, capsys):
        train_path, _ = toy_files
        # usage error: unknown decoder
        with pytest.raises(SystemExit) as exc:
            main(["train", str(train_path), "--format", "conll2000",
                  "--decoder", "nonsense", "--out", str(tmp_path / "x.bin")])
        assert exc.value.code == 1
        # data error: missing file
        rc = main(["evaluate", str(tmp_path / "no-model.bin"),
                   str(train_path), "--format", "conll2000"])
        assert rc == 2
        capsys.readouterr()


def rewrite_header(path, edit):
    """Apply `edit` to a saved model's JSON header in place."""
    data = path.read_bytes()
    end = data.index(b"\n", len(MAGIC))
    header = json.loads(data[len(MAGIC) : end])
    edit(header)
    path.write_bytes(data[: len(MAGIC)] + json.dumps(header).encode() + data[end:])


def assert_one_line_data_error(rc, capsys, path):
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith(f"efbtag: {path}: ")
    assert len(err.strip().splitlines()) == 1


class TestMalformedInputs:
    def test_non_utf8_corpus_is_a_data_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.txt"
        bad.write_bytes(b"the DT O\ncat NN O\n\xff\xfe NN O\n")
        rc = main(["train", str(bad), "--format", "conll2000",
                   "--decoder", "hmc-fb", "--out", str(tmp_path / "m.bin")])
        assert_one_line_data_error(rc, capsys, bad)

    def test_non_utf8_tag_input_is_a_data_error(self, toy_files, tmp_path, capsys):
        train_path, _ = toy_files
        model = tmp_path / "m.bin"
        assert main(["train", str(train_path), "--format", "conll2000",
                     "--decoder", "hmc-fb", "--out", str(model)]) == 0
        capsys.readouterr()
        bad = tmp_path / "input.txt"
        bad.write_bytes(b"the cat runs\nthe \xe9t\xe9 runs\n")
        rc = main(["tag", str(model), str(bad), "--out", str(tmp_path / "out.txt")])
        assert_one_line_data_error(rc, capsys, bad)

    def test_unwritable_tag_output_closes_the_input(self, toy_files, tmp_path, capsys):
        # an unclosed input would raise ResourceWarning, an error under pytest's filters
        train_path, _ = toy_files
        model = tmp_path / "m.bin"
        assert main(["train", str(train_path), "--format", "conll2000",
                     "--decoder", "hmc-fb", "--out", str(model)]) == 0
        capsys.readouterr()
        sent_file = tmp_path / "in.txt"
        sent_file.write_text("the cat runs\n", encoding="utf-8")
        out = tmp_path / "missing" / "out.txt"
        rc = main(["tag", str(model), str(sent_file), "--out", str(out)])
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith("efbtag: ") and "out.txt" in err
        assert len(err.strip().splitlines()) == 1

    def test_conflicting_tag_map_is_a_data_error(self, toy_files, tmp_path, capsys):
        train_path, _ = toy_files
        tagmap = tmp_path / "map.tsv"
        tagmap.write_text("NN\tNOUN\nNN\tVERB\n", encoding="utf-8")
        rc = main(["train", str(train_path), "--format", "conll2000",
                   "--tagmap", str(tagmap), "--out", str(tmp_path / "m.bin")])
        assert rc == 2
        assert capsys.readouterr().err == (
            f"efbtag: {tagmap}:2: 'NN\\tVERB' conflicts with line 1\n"
        )

    @pytest.mark.parametrize("kind", list(DecoderKind))
    @pytest.mark.parametrize(
        "edit",
        [lambda h: h.pop("labels"), lambda h: h["labels"].append("EXTRA")],
        ids=["labels-deleted", "label-appended"],
    )
    def test_header_inconsistent_with_arrays(self, toy_files, tmp_path, capsys, kind, edit):
        train_path, test_path = toy_files
        corpus = read_corpus(train_path, CorpusFormat.CONLL2000)
        tagger, _ = train_tagger(corpus, kind, FeatureTemplate.LF1, SgdConfig(epochs=1))
        path = tmp_path / "m.bin"
        save_model(path, tagger)
        rewrite_header(path, edit)
        with pytest.raises(DataError):
            load_model(path)
        rc = main(["evaluate", str(path), str(test_path), "--format", "conll2000"])
        assert_one_line_data_error(rc, capsys, path)


class TestSgdSettings:
    """Bad SGD settings are usage errors; training that diverges is exit 3."""

    @pytest.mark.parametrize("command", ["train", "compare"])
    def test_defaults_are_the_library_defaults(self, command):
        paths = ["a.txt"] if command == "train" else ["a.txt", "b.txt"]
        extra = ["--out", "m.bin"] if command == "train" else []
        base = [command, *paths, "--format", "conllu", *extra]
        args = build_parser().parse_args(base)
        assert _sgd_config(args) == SgdConfig()
        assert args.delta == DEFAULT_SMOOTHING
        assert build_parser().parse_args(base + ["--delta", "0.01"]).delta == 0.01

    @pytest.mark.parametrize("command", ["train", "compare"])
    @pytest.mark.parametrize(
        "flag,value,field,parsed",
        [
            ("--seed", "7", "seed", 7),
            ("--epochs", "3", "epochs", 3),
            ("--lr", "0.25", "learning_rate", 0.25),
            ("--decay", "0.5", "decay", 0.5),
            ("--l2", "0.001", "l2", 0.001),
            ("--batch", "5", "batch_size", 5),
        ],
    )
    def test_each_flag_sets_its_field(self, command, flag, value, field, parsed):
        paths = ["a.txt"] if command == "train" else ["a.txt", "b.txt"]
        extra = ["--out", "m.bin"] if command == "train" else []
        args = build_parser().parse_args(
            [command, *paths, "--format", "conllu", *extra, flag, value]
        )
        config = _sgd_config(args)
        assert type(getattr(config, field)) is type(parsed)
        assert config == SgdConfig(**{field: parsed})

    @pytest.mark.parametrize(
        "flags,message",
        [
            (["--decay", "-1", "--epochs", "3"], "decay must be >= 0"),
            (["--l2", "1e9"], "learning rate * l2 must be < 1"),
            (["--lr", "1e308"], "learning rate * l2 must be < 1"),
            (["--lr", "nan"], "must be finite"),
            (["--decay", "inf"], "must be finite"),
        ],
        ids=["negative-decay", "huge-l2", "huge-lr", "nan-lr", "infinite-decay"],
    )
    def test_rejected_before_training(self, toy_files, tmp_path, capsys, flags, message):
        train_path, _ = toy_files
        out = tmp_path / "m.bin"
        rc = main(["train", str(train_path), "--format", "conll2000",
                   "--out", str(out), *flags])
        err = capsys.readouterr().err
        assert rc == 1
        assert err.startswith("efbtag: ") and message in err
        assert len(err.strip().splitlines()) == 1
        assert not out.exists()

    @pytest.mark.parametrize("decoder", ["hmc-efb", "memm"])
    def test_diverged_training_exits_3(self, toy_files, tmp_path, capsys, decoder):
        train_path, _ = toy_files
        out = tmp_path / "m.bin"
        rc = main(["train", str(train_path), "--format", "conll2000",
                   "--decoder", decoder, "--out", str(out),
                   "--lr", "1e308", "--l2", "0"])
        err = capsys.readouterr().err
        assert rc == 3
        assert err.strip().splitlines() == [
            "efbtag: training diverged: weights not finite after epoch 1"
        ]
        assert not out.exists()

    @pytest.mark.parametrize("decoder", ["hmc-efb", "memm"])
    def test_overflowing_weights_without_l2_give_a_finite_loss(
        self, toy_files, tmp_path, capsys, decoder
    ):
        train_path, _ = toy_files
        rc = main(["train", str(train_path), "--format", "conll2000",
                   "--decoder", decoder, "--out", str(tmp_path / "m.bin"),
                   "--lr", "1e200", "--l2", "0", "--epochs", "3"])
        out, err = capsys.readouterr()
        assert rc == 0 and err == ""
        loss = float(out.split("final_loss=")[1].split()[0])
        assert np.isfinite(loss)

    @pytest.mark.parametrize("decoder", ["hmc-efb", "memm"])
    def test_infinite_final_loss_exits_3(self, toy_files, tmp_path, capsys, decoder):
        train_path, _ = toy_files
        out = tmp_path / "m.bin"
        rc = main(["train", str(train_path), "--format", "conll2000",
                   "--decoder", decoder, "--out", str(out),
                   "--lr", "1e200", "--l2", "1e-300", "--epochs", "3"])
        err = capsys.readouterr().err
        assert rc == 3
        assert err.strip().splitlines() == [
            "efbtag: training diverged: final loss is inf"
        ]
        assert not out.exists()

    def test_diverged_compare_exits_3(self, toy_files, capsys):
        train_path, test_path = toy_files
        rc = main(["compare", str(train_path), str(test_path), "--format",
                   "conll2000", "--lr", "1e308", "--l2", "0"])
        err = capsys.readouterr().err
        assert rc == 3
        assert "training diverged" in err


DELTAS = [("nan", "smoothing must be finite"), ("inf", "smoothing must be finite"),
          ("1e308", "is too large")]


class TestUnusableDelta:
    @pytest.mark.parametrize("delta,message", DELTAS, ids=["nan", "inf", "huge"])
    @pytest.mark.parametrize("decoder", ["hmc-fb", "hmc-naive-features", "hmc-efb"])
    def test_train_names_the_setting(self, toy_files, tmp_path, capsys, decoder,
                                     delta, message):
        train_path, _ = toy_files
        out = tmp_path / "m.bin"
        rc = main(["train", str(train_path), "--format", "conll2000",
                   "--decoder", decoder, "--out", str(out), "--delta", delta])
        err = capsys.readouterr().err
        assert rc == 1
        assert len(err.strip().splitlines()) == 1
        assert err.startswith("efbtag: ") and message in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "delta,message",
        [("-1", "smoothing must be > 0"), ("0", "smoothing must be > 0"),
         ("nan", "smoothing must be finite"), ("inf", "smoothing must be finite")],
        ids=["negative", "zero", "nan", "inf"],
    )
    def test_memm_train_checks_it_too(self, toy_files, tmp_path, capsys, delta, message):
        """memm counts nothing with the setting, and still rejects what the others do."""
        train_path, _ = toy_files
        out = tmp_path / "m.bin"
        rc = main(["train", str(train_path), "--format", "conll2000",
                   "--decoder", "memm", "--out", str(out), "--delta", delta])
        err = capsys.readouterr().err
        assert rc == 1
        assert len(err.strip().splitlines()) == 1
        assert err.startswith("efbtag: ") and message in err
        assert not out.exists()

    @pytest.mark.parametrize("delta,message", DELTAS, ids=["nan", "inf", "huge"])
    def test_compare_names_the_setting(self, toy_files, capsys, delta, message):
        train_path, test_path = toy_files
        rc = main(["compare", str(train_path), str(test_path), "--format",
                   "conll2000", "--delta", delta])
        out, err = capsys.readouterr()
        assert rc == 1 and out == ""
        assert len(err.strip().splitlines()) == 1
        assert err.startswith("efbtag: ") and message in err


class TestNegativeSeed:
    @pytest.mark.parametrize(
        "decoder", ["hmc-fb", "hmc-naive-features", "hmc-efb", "memm"]
    )
    def test_train_rejects_it(self, toy_files, tmp_path, capsys, decoder):
        train_path, _ = toy_files
        out = tmp_path / "m.bin"
        rc = main(["train", str(train_path), "--format", "conll2000",
                   "--decoder", decoder, "--out", str(out), "--seed", "-1"])
        err = capsys.readouterr().err
        assert rc == 1
        assert err.strip().splitlines() == ["efbtag: seed must be >= 0"]
        assert not out.exists()

    def test_compare_rejects_it(self, toy_files, capsys):
        train_path, test_path = toy_files
        rc = main(["compare", str(train_path), str(test_path), "--format",
                   "conll2000", "--seed", "-1"])
        out, err = capsys.readouterr()
        assert rc == 1 and out == ""
        assert err.strip().splitlines() == ["efbtag: seed must be >= 0"]
