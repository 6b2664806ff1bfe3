"""Command-line interface: train, tag, evaluate, compare."""

from __future__ import annotations

import argparse
import io
import os
import stat
import sys
from contextlib import ExitStack
from pathlib import Path
from typing import Optional

from . import __version__, hmc
from .dataio import Corpus, CorpusFormat, load_tagmap, read_corpus, utf8_lines
from .discrim import SgdConfig
from .errors import DataError, InvalidInputError, NumericalDegeneracyError
from .evaluation import evaluate, format_kv, format_table
from .features import FeatureTemplate
from .modelfile import load_model, save_model
from .tagger import DecoderKind, train_tagger, train_compare_pair

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_NUMERIC = 3

DATA_DIR_ENV = "EFBTAG_DATA_DIR"


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage errors exit 1, not argparse's 2
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _resolve(path: str) -> Path:
    p = Path(path)
    if not p.is_absolute() and not p.exists():
        base = os.environ.get(DATA_DIR_ENV)
        if base and (Path(base) / p).exists():
            return Path(base) / p
    return p


def _add_corpus_flags(sub):
    sub.add_argument(
        "--format",
        choices=[f.value for f in CorpusFormat],
        required=True,
        help="corpus file layout",
    )
    sub.add_argument("--tagmap", help="two-column tag mapping file")


def _add_train_flags(sub):
    sub.add_argument(
        "--decoder",
        choices=[k.value for k in DecoderKind],
        default=DecoderKind.HMC_EFB.value,
    )
    sub.add_argument(
        "--features",
        choices=[t.value for t in FeatureTemplate],
        default=FeatureTemplate.LF1.value,
    )


# each SGD flag's `SgdConfig` field, whose default also gives the flag's type
SGD_FLAGS = {"--seed": "seed", "--epochs": "epochs", "--lr": "learning_rate",
             "--decay": "decay", "--l2": "l2", "--batch": "batch_size"}


def _add_sgd_flags(sub):
    defaults = SgdConfig()
    for flag, name in SGD_FLAGS.items():
        default = getattr(defaults, name)
        sub.add_argument(flag, type=type(default), default=default)
    sub.add_argument(
        "--delta", type=float, default=hmc.DEFAULT_SMOOTHING, help="count smoothing"
    )


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="efbtag", description="HMC / EFB / MEMM sequence tagger")
    parser.add_argument("--version", action="version", version=__version__)
    subs = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p_train = subs.add_parser("train", help="train a decoder on a labeled corpus")
    p_train.add_argument("train_path", help="training corpus file")
    _add_corpus_flags(p_train)
    _add_train_flags(p_train)
    _add_sgd_flags(p_train)
    p_train.add_argument("--out", required=True, help="model file to write")

    p_tag = subs.add_parser("tag", help="label plain-text sentences")
    p_tag.add_argument("model_path")
    p_tag.add_argument(
        "input", nargs="?", default="-", help="one sentence per line; '-' for stdin"
    )
    p_tag.add_argument("--out", default="-", help="output file; '-' for stdout")

    p_eval = subs.add_parser("evaluate", help="score a model on a labeled corpus")
    p_eval.add_argument("model_path")
    p_eval.add_argument("test_path")
    _add_corpus_flags(p_eval)

    p_cmp = subs.add_parser(
        "compare", help="train and score hmc-efb vs memm on shared features"
    )
    p_cmp.add_argument("train_path")
    p_cmp.add_argument("test_path")
    _add_corpus_flags(p_cmp)
    p_cmp.add_argument(
        "--features",
        nargs="+",
        choices=[t.value for t in FeatureTemplate],
        default=[FeatureTemplate.LF1.value],
    )
    _add_sgd_flags(p_cmp)
    return parser


def _read_corpus(args, path: str, tagset=None) -> Corpus:
    """A corpus file read with the command's --format and --tagmap."""
    tagmap = load_tagmap(_resolve(args.tagmap)) if args.tagmap else None
    return read_corpus(_resolve(path), CorpusFormat(args.format), tagmap, tagset)


def _sgd_config(args) -> SgdConfig:
    return SgdConfig(**{name: getattr(args, flag[2:]) for flag, name in SGD_FLAGS.items()})


def cmd_train(args) -> int:
    tagger, summary = train_tagger(
        _read_corpus(args, args.train_path),
        DecoderKind(args.decoder),
        FeatureTemplate(args.features),
        _sgd_config(args),
        smoothing=args.delta,
    )
    save_model(args.out, tagger)
    print(f"sentences={summary.n_sentences}")
    print(f"tokens={summary.n_tokens}")
    print(f"labels={summary.n_labels}")
    print(f"vocab={summary.vocab_size}")
    print(f"feature_index={summary.feature_index_size}")
    print(f"final_loss={summary.final_loss:.6f}")
    print(f"model={args.out}")
    return EXIT_OK


def _reads_file(stream, path: str) -> bool:
    """Whether `stream` reads the regular file at `path`, which opening `path`
    truncates (a terminal or /dev/null may be input and output at once);
    False for a stream with no descriptor."""
    try:
        st = os.fstat(stream.fileno())
        return stat.S_ISREG(st.st_mode) and os.path.samestat(st, os.stat(path))
    except (OSError, ValueError):  # io.UnsupportedOperation is both
        return False


def cmd_tag(args) -> int:
    tagger = load_model(_resolve(args.model_path))
    with ExitStack() as files:  # closes what was opened if a later open fails
        src = sys.stdin
        if args.input != "-":
            src = files.enter_context(open(_resolve(args.input), encoding="utf-8-sig"))
        dst = sys.stdout
        if args.out != "-":
            # opening --out truncates it, so it must not be the input, by any
            # name, whether the input was named or redirected to stdin
            if _reads_file(src, args.out):
                raise InvalidInputError(f"--out {args.out} is the input file")
            dst = files.enter_context(open(args.out, "w", encoding="utf-8"))
        first = True
        for line in utf8_lines(src, "<stdin>" if src is sys.stdin else args.input):
            tokens = line.split()
            if not tokens:
                continue
            labels = tagger.decode(tokens)
            if not first:
                dst.write("\n")
            for tok, lab in zip(tokens, labels):
                dst.write(f"{tok}\t{tagger.tagset.label_of(lab)}\n")
            first = False
    return EXIT_OK


def cmd_evaluate(args) -> int:
    tagger = load_model(_resolve(args.model_path))
    test = _read_corpus(args, args.test_path, tagger.tagset)
    report = evaluate(tagger, test, tagger.vocab)
    print(format_table(report))
    print()
    print(
        format_kv(
            report,
            dataset=str(args.test_path),
            decoder=tagger.kind.value,
            template=tagger.feature_index.template.value if tagger.feature_index else "none",
        )
    )
    return EXIT_OK


def cmd_compare(args) -> int:
    train_corpus = _read_corpus(args, args.train_path)
    test = _read_corpus(args, args.test_path, train_corpus.tagset)
    sgd = _sgd_config(args)
    for template_name in args.features:
        template = FeatureTemplate(template_name)
        efb_tagger, memm_tagger = train_compare_pair(
            train_corpus, template, sgd, smoothing=args.delta
        )
        for name, tagger in (("memm", memm_tagger), ("hmc-efb", efb_tagger)):
            report = evaluate(tagger, test, train_corpus.vocab)
            print(
                f"{template.value:<5} {name:<8} "
                f"{report.kw_rate:6.2f}% / {report.uw_rate:6.2f}% / "
                f"{report.global_rate:6.2f}%"
            )
            print(
                format_kv(
                    report,
                    dataset=str(args.test_path),
                    decoder=name,
                    template=template.value,
                )
            )
            print()
    return EXIT_OK


_COMMANDS = {
    "train": cmd_train,
    "tag": cmd_tag,
    "evaluate": cmd_evaluate,
    "compare": cmd_compare,
}


def main(argv: Optional[list[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    # the standard streams carry UTF-8 text like every file efbtag reads or
    # writes, whatever encoding the locale or PYTHONIOENCODING names; input
    # may start with a byte-order mark
    for stream, encoding in ((sys.stdin, "utf-8-sig"), (sys.stdout, "utf-8")):
        if isinstance(stream, io.TextIOWrapper):
            stream.reconfigure(encoding=encoding)
    try:
        return _COMMANDS[args.command](args)
    except (InvalidInputError, DataError, OSError, NumericalDegeneracyError) as exc:
        print(f"efbtag: {exc}", file=sys.stderr)
        if isinstance(exc, InvalidInputError):
            return EXIT_USAGE
        return EXIT_NUMERIC if isinstance(exc, NumericalDegeneracyError) else EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
