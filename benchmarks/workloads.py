"""The benchmark workloads: train, decode-corpus and tag-stream.

Each workload drives efbtag only through public calls, the same ones
`efbtag train`, `efbtag evaluate` and `efbtag tag` make, from a single
process and thread.  A workload returns its end-to-end metrics; with
tracing on it also runs one fixed unit of its work under the span
recorder and returns the per-layer metrics instead.

Every workload reports every end-to-end metric.  A workload measures
its own phase in the timed loop and the others where it runs them
anyway: `train` decodes when it checks its trained models, and the two
decode workloads train in set-up.
"""

from __future__ import annotations

import os
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from efbtag import dataio, efb, evaluation, hmc, modelfile
from efbtag import tagger as tagger_mod
from efbtag.dataio import CorpusFormat
from efbtag.discrim import SgdConfig
from efbtag.features import FeatureTemplate
from efbtag.tagger import DecoderKind

import gen
import layers
import retrain
from spans import Tracer
from speed import Meter

# A quarter of EWT's 205k training tokens and two SGD epochs: at full
# scale one round of the four trainings takes about 35 s on the reference
# machine, and a run must fit several rounds or set-ups.
TRAIN_TOKENS = 50_000
SGD = SgdConfig(epochs=2)
TEST_TOKENS = 34_000
STREAM_CHUNK_TOKENS = 20_000
STREAM_NOVEL_SHARE = 0.9
STREAM_MIN_SENTENCES = 1_100  # so that p99 has at least 10 samples beyond it
TRAIN_KINDS = (
    (DecoderKind.HMC_FB, FeatureTemplate.LF1),
    (DecoderKind.HMC_NAIVE, FeatureTemplate.LF1),
    (DecoderKind.HMC_EFB, FeatureTemplate.LF2),
    (DecoderKind.MEMM, FeatureTemplate.LF2),
)
STREAM_KIND = (DecoderKind.HMC_EFB, FeatureTemplate.LF1)  # the CLI defaults
SETUP_REPEATS = 3  # decode-corpus sets up once: its set-up trains four models
MIN_ROUNDS = 3  # training rounds per `train` run, at least
MIN_PASSES = 2  # evaluate passes per `decode-corpus` run, at least
CHECK_PASSES = 2  # per-sentence decode passes over the test corpus
CHILD_TIMEOUT_S = 120
EFB_FB_SENTENCES = 200
EFB_FB_TOL = 1e-10
# a trained model whose error percentages exceed these is broken
ERR_CEILING = 25.0
UW_ERR_CEILING = 80.0


@dataclass
class Tally:
    """Operations, failures, decode timings and error counts of one run.

    Timings are [scaled, raw] pairs from the meter.
    """

    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    # seconds of every timed single-sentence decode call (the fastest
    # pass of each sentence where the test corpus is decoded twice)
    latencies: list[np.ndarray] = field(default_factory=list)
    errors: dict[str, list[int]] = field(default_factory=dict)

    def fail(self, message: str) -> None:
        self.failed += 1
        self.problems.append(message)

    def crash(self, what: str) -> None:
        traceback.print_exc(file=sys.stderr)
        self.fail(f"{what}: {sys.exc_info()[1]!r}")

    def add_errors(self, kind: str, errs: int, toks: int, uw_errs: int, uw_toks: int):
        totals = self.errors.setdefault(kind, [0, 0, 0, 0])
        for i, v in enumerate((errs, toks, uw_errs, uw_toks)):
            totals[i] += v

    def rates(self, kind: str) -> tuple[float, float]:
        errs, toks, uw_errs, uw_toks = self.errors[kind]
        return 100.0 * errs / toks, 100.0 * uw_errs / max(uw_toks, 1)

    def check_ceilings(self) -> None:
        for kind in self.errors:
            err, uw_err = self.rates(kind)
            if err > ERR_CEILING or uw_err > UW_ERR_CEILING:
                self.fail(f"{kind}: error {err:.2f}% / unknown {uw_err:.2f}% above ceiling")

    def decode_metrics(self, tokens_per_s: np.ndarray) -> dict[str, np.ndarray | float]:
        lat_ms = np.array(self.latencies) * 1000.0
        errs, toks, uw_errs, uw_toks = np.sum(list(self.errors.values()), axis=0)
        return {
            "decode_tokens_per_s": tokens_per_s,
            "sentence_ms_p50": np.percentile(lat_ms, 50, axis=0),
            "sentence_ms_p99": np.percentile(lat_ms, 99, axis=0),
            "err_pct": 100.0 * errs / toks,
            "uw_err_pct": 100.0 * uw_errs / uw_toks,
        }


@dataclass
class Context:
    """What a workload is handed: seed, time budget, scratch directory and meter."""

    seed: int
    seconds: float
    workdir: Path
    trace: bool
    meter: Meter = field(default_factory=Meter)
    tally: Tally = field(default_factory=Tally)
    lang: gen.Language | None = None
    stats: dict = field(default_factory=dict)
    tracer: Tracer | None = None

    def start_op(self, count: int = 1) -> None:
        """Count `count` operations about to run as one traced operation."""
        self.tally.attempted += count
        if self.tracer is not None:
            self.tracer.op_id = self.tally.attempted

    def decode(self, tagger, tokens):
        """One checked, timed `Tagger.decode` call.

        Returns the labels, None if the call failed, and its seconds,
        None if it raised.
        """
        self.start_op()
        try:
            labels, seconds = self.meter.short(tagger.decode, tokens)
        except Exception:
            self.tally.crash(f"{tagger.kind.value} decode")
            return None, None
        if len(labels) != len(tokens):
            self.tally.fail(f"{tagger.kind.value}: {len(labels)} labels for {len(tokens)} tokens")
            return None, seconds
        if any(not 0 <= lab < len(tagger.tagset) for lab in labels):
            self.tally.fail(f"{tagger.kind.value}: label out of range")
            return None, seconds
        return labels, seconds


def make_inputs(ctx: Context, with_test: bool) -> None:
    """Build the language and write the CoNLL-U train (and test) files."""
    ctx.lang = gen.Language()
    train = ctx.lang.sample([ctx.seed, 0], TRAIN_TOKENS, gen.ewt_lengths, 0.0)
    gen.write_conllu(ctx.workdir / "train.conllu", train)
    ctx.stats["train"] = gen.input_stats(train, None)
    if with_test:
        test = ctx.lang.sample([ctx.seed, 1], TEST_TOKENS, gen.ewt_lengths, 0.0)
        gen.write_conllu(ctx.workdir / "test.conllu", test)
        vocab = {tok for toks in train.tokens for tok in toks}
        ctx.stats["test"] = gen.input_stats(test, vocab)


def train_one(corpus_path: Path, kind: DecoderKind, template: FeatureTemplate, out: Path):
    """The `efbtag train` path: read_corpus -> train_tagger -> save_model."""
    corpus = dataio.read_corpus(corpus_path, CorpusFormat.CONLLU)
    tagger, _ = tagger_mod.train_tagger(corpus, kind, template, SGD)
    modelfile.save_model(out, tagger)
    return tagger


def model_paths(ctx: Context, tag: str) -> dict[str, Path]:
    return {kind.value: ctx.workdir / f"{tag}-{kind.value}.model" for kind, _ in TRAIN_KINDS}


def train_round(ctx: Context, tag: str) -> dict[str, np.ndarray]:
    """Train every kind once into `<tag>-<kind>.model`; returns each kind's seconds."""
    seconds = {}
    corpus_path = ctx.workdir / "train.conllu"
    for (kind, template), out in zip(TRAIN_KINDS, model_paths(ctx, tag).values()):
        ctx.start_op()
        try:
            _, seconds[kind.value] = ctx.meter.run(train_one, corpus_path, kind, template, out)
        except Exception:
            ctx.tally.crash(f"train {kind.value}")
    return seconds


def check_same_models(ctx: Context, tags: list[str]) -> None:
    """Every same-seed training wrote the bytes round r0 wrote."""
    for kind, reference in model_paths(ctx, "r0").items():
        expected = reference.read_bytes()
        for tag in tags:
            path = model_paths(ctx, tag)[kind]
            if not path.exists() or path.read_bytes() != expected:
                ctx.tally.fail(f"{kind}: model file of {tag} differs from r0")


def check_other_process(ctx: Context) -> None:
    """A training in a child process with another hash seed writes r0's bytes.

    Rounds trained in this process share its hash seed, so only a second
    process shows nondeterminism that follows set or dict order of strings.
    """
    ctx.start_op(len(TRAIN_KINDS))
    hash_seed = "2" if os.environ.get("PYTHONHASHSEED") == "1" else "1"
    script = Path(__file__).with_name("retrain.py")
    try:
        subprocess.run(
            [sys.executable, str(script), str(ctx.workdir / "train.conllu"), str(ctx.workdir)],
            env=dict(os.environ, PYTHONHASHSEED=hash_seed),
            stdout=subprocess.DEVNULL,
            check=True,
            timeout=CHILD_TIMEOUT_S,
        )
    except Exception:
        ctx.tally.crash("train in a child process")
        return
    check_same_models(ctx, [retrain.TAG])


def evaluate_pass(ctx: Context, models: dict[str, Path], test) -> tuple[np.ndarray, dict]:
    """Score the test corpus once with each model, loaded afresh from its file.

    Loading before each timed `evaluation.evaluate` call means no state of
    a Tagger object carries over from an earlier pass.  Returns the
    evaluate seconds, summed over models, and the reports.
    """
    seconds, reports = np.zeros(2), {}
    for kind, path in models.items():
        tagger = modelfile.load_model(path)
        ctx.start_op(len(test.sentences))
        try:
            reports[kind], spent = ctx.meter.run(evaluation.evaluate, tagger, test, tagger.vocab)
        except Exception:
            ctx.tally.crash(f"evaluate {kind}")
            continue
        seconds += spent
    return seconds, reports


def check_passes(ctx: Context, models: dict[str, Path], test) -> tuple[dict, np.ndarray]:
    """Decode the test corpus CHECK_PASSES times, one timed, checked call per sentence.

    Each pass loads the models afresh from their files, so no state of a
    Tagger object carries over between passes, and a sentence's time is
    its fastest pass, which filters stalls of the host.  Every pass must
    decode alike; the first one's error counts are recorded.  Returns
    each kind's confusion matrix and the summed fastest times.
    """
    best, confusions = {}, {}
    for _ in range(CHECK_PASSES):
        for kind, path in models.items():
            tagger = modelfile.load_model(path)
            n = len(tagger.tagset)
            confusion = np.zeros((n, n), dtype=np.int64)
            counts = np.zeros(4, dtype=np.int64)  # errors, tokens, unknown errors, unknown
            unknown = dataio.split_known_unknown(test.sentences, tagger.vocab)
            for i, (sent, flags) in enumerate(zip(test.sentences, unknown)):
                labels, seconds = ctx.decode(tagger, sent.tokens)
                if seconds is not None:
                    key = (kind, i)
                    best[key] = np.minimum(best[key], seconds) if key in best else seconds
                if labels is None:
                    continue
                np.add.at(confusion, (list(sent.labels), labels), 1)
                wrong = np.array(sent.labels) != labels
                flags = np.array(flags)
                counts += (wrong.sum(), wrong.size, (wrong & flags).sum(), flags.sum())
            if kind not in confusions:
                confusions[kind] = confusion
                ctx.tally.add_errors(kind, *counts.tolist())
            elif not np.array_equal(confusion, confusions[kind]):
                ctx.tally.fail(f"{kind}: a second pass over the same corpus decoded differently")
    ctx.tally.latencies.extend(best.values())
    ctx.tally.check_ceilings()
    return confusions, sum(best.values())


def check_reports(ctx: Context, reports: dict, confusions: dict) -> None:
    """`evaluate` scored as the per-sentence check passes decoded."""
    for kind, report in reports.items():
        errs, toks, uw_errs, uw_toks = ctx.tally.errors[kind]
        if not np.array_equal(report.confusion, confusions[kind]) or (
            (report.global_errors, report.total_tokens, report.uw_errors, report.uw_tokens)
            != (errs, toks, uw_errs, uw_toks)
        ):
            ctx.tally.fail(f"{kind}: evaluate disagrees with per-sentence decoding")


def check_same_reports(ctx: Context, first: dict, again: dict) -> None:
    for kind, report in again.items():
        if kind in first and not np.array_equal(report.confusion, first[kind].confusion):
            ctx.tally.fail(f"{kind}: a second pass over the same corpus decoded differently")


def read_test(ctx: Context, models: dict[str, Path]):
    tagset = modelfile.load_model(models[DecoderKind.HMC_FB.value]).tagset
    return ctx.meter.run(
        dataio.read_corpus, ctx.workdir / "test.conllu", CorpusFormat.CONLLU, tagset=tagset
    )


def check_efb_equals_fb(ctx: Context, fb_tagger, test) -> None:
    """EFB on the matched conditional of the trained HMC reproduces FB posteriors."""
    params = fb_tagger.hmc_params
    joint = params.pi[:, None] * params.emit  # (N, M+1)
    ltable = (joint / joint.sum(axis=0, keepdims=True)).T  # L(y, i) = P(i | y)
    efb_params = efb.EfbParams(
        pi=params.pi, trans=params.trans, l_provider=lambda y, t: ltable[y]
    )
    worst = 0.0
    for sent in test.sentences[:EFB_FB_SENTENCES]:
        ctx.start_op()
        obs = [fb_tagger.vocab.id_of(tok) for tok in sent.tokens]
        try:
            fb_post = hmc.posterior_fb(params, obs).values
            efb_post = efb.posterior_efb(efb_params, obs).values
        except Exception:
            ctx.tally.crash("EFB = FB check")
            continue
        gap = float(np.max(np.abs(fb_post - efb_post)))
        worst = max(worst, gap)
        if gap > EFB_FB_TOL:
            ctx.tally.fail(f"EFB and FB posteriors differ by {gap:.3e}")
    ctx.stats["efb_fb_max_gap"] = worst


def traced(ctx: Context, workload: str, unit) -> dict[str, float]:
    """Run `unit()` once under the span recorder; returns the per-layer values.

    The meter is frozen meanwhile, so no speed probe runs inside the unit.
    """
    with ctx.meter.frozen(), Tracer() as tracer:
        tracer.install(layers.SPANS)
        ctx.tracer = tracer
        try:
            unit()
        finally:
            ctx.tracer = None
    for span in layers.missing_spans(tracer, workload):
        ctx.tally.fail(f"traced span {span} recorded no call on {workload}")
    tracer.write(ctx.workdir.parent / f"trace-{workload}.npz")
    return layers.layer_values(tracer)


def kind_errors(tally: Tally) -> dict[str, float]:
    """Per-kind error percentages, 0 for kinds the workload does not decode."""
    values = {}
    for kind in layers.KINDS:
        err, uw_err = tally.rates(kind) if kind in tally.errors else (0.0, 0.0)
        values[f"evaluation.err_pct.{kind}"] = err
        values[f"evaluation.uw_err_pct.{kind}"] = uw_err
    return values


def overhead_pct(ctx: Context, traced_s: np.ndarray, untraced_s: np.ndarray) -> float:
    """Tracing overhead: traced raw seconds scaled by the probes around the unit."""
    return 100.0 * (traced_s[1] * ctx.meter.frozen_factor / untraced_s[0] - 1.0)


def median(timings) -> np.ndarray:
    return np.median(np.stack(list(timings)), axis=0)


# --- workloads -------------------------------------------------------------


def run_train(ctx: Context) -> dict:
    setups = [ctx.meter.run(make_inputs, ctx, True)[1] for _ in range(SETUP_REPEATS)]
    rounds = []
    start = time.perf_counter()
    while len(rounds) < MIN_ROUNDS or time.perf_counter() - start < ctx.seconds:
        rounds.append(train_round(ctx, f"r{len(rounds)}"))
    check_same_models(ctx, [f"r{i}" for i in range(1, len(rounds))])
    # per-kind medians, so one slow training does not move the sum
    train_s = sum(median(r[kind] for r in rounds if kind in r) for kind in rounds[0])
    if ctx.trace:
        # traced right after the untraced rounds, so both see the same
        # machine state and their difference is the tracing overhead
        traced_round = []
        values = traced(ctx, "train", lambda: traced_round.append(train_round(ctx, "traced")))
        check_same_models(ctx, ["traced"])
        values["features.repeat_share"] = ctx.stats["train"]["repeat_share"]
        values["trace.overhead_pct"] = overhead_pct(ctx, sum(traced_round[0].values()), train_s)
    check_other_process(ctx)

    # check the saved models by decoding the test corpus with them
    models = model_paths(ctx, "r0")
    test, _ = read_test(ctx, models)
    _, seconds = check_passes(ctx, models, test)
    tokens_per_s = test.n_tokens * len(models) / seconds

    if ctx.trace:
        return values | kind_errors(ctx.tally)
    return {"setup_s": median(setups), "train_s": train_s, **ctx.tally.decode_metrics(tokens_per_s)}


def run_decode_corpus(ctx: Context) -> dict:
    _, inputs_s = ctx.meter.run(make_inputs, ctx, True)
    train_s = sum(train_round(ctx, "r0").values())
    models = model_paths(ctx, "r0")
    test, read_s = read_test(ctx, models)
    setup_s = inputs_s + train_s + read_s

    passes, first = [], None
    start = time.perf_counter()
    while len(passes) < MIN_PASSES or time.perf_counter() - start < ctx.seconds:
        seconds, reports = evaluate_pass(ctx, models, test)
        passes.append(seconds)
        first = first or reports
        check_same_reports(ctx, first, reports)
    tokens_per_s = test.n_tokens * len(models) / median(passes)
    check_reports(ctx, first, check_passes(ctx, models, test)[0])
    fb_tagger = modelfile.load_model(models[DecoderKind.HMC_FB.value])
    check_efb_equals_fb(ctx, fb_tagger, test)

    if ctx.trace:
        traced_pass = []

        def unit():
            seconds, reports = evaluate_pass(ctx, models, test)
            traced_pass.append(seconds)
            check_same_reports(ctx, first, reports)

        values = traced(ctx, "decode-corpus", unit)
        values["features.repeat_share"] = ctx.stats["test"]["repeat_share"]
        values["trace.overhead_pct"] = overhead_pct(ctx, traced_pass[0], median(passes))
        return values | kind_errors(ctx.tally)
    return {"setup_s": setup_s, "train_s": train_s, **ctx.tally.decode_metrics(tokens_per_s)}


def decode_stream(ctx: Context, tagger, chunk_seed: int, budget: float | None) -> tuple[np.ndarray, int]:
    """Closed loop, one client: one `Tagger.decode` call per sentence.

    Decodes chunk after chunk, each generated between calls, until
    `budget` seconds have passed and STREAM_MIN_SENTENCES sentences are
    decoded; with no budget, decodes one chunk.  Returns the decode
    seconds and tokens of this call.
    """
    tally = ctx.tally
    seconds, timed_tokens = np.zeros(2), 0
    errs = toks = uw_errs = uw_toks = decoded = 0
    start = time.perf_counter()
    chunk = 0
    done = False
    while not done:
        sents = ctx.lang.sample(
            [ctx.seed, chunk_seed, chunk], STREAM_CHUNK_TOKENS, gen.stream_lengths,
            STREAM_NOVEL_SHARE,
        )
        if chunk == 0:
            ctx.stats[f"stream-{chunk_seed}"] = gen.input_stats(sents, set(tagger.vocab.words))
        for words, gold in zip(sents.tokens, sents.labels):
            labels, spent = ctx.decode(tagger, words)
            decoded += 1
            if spent is not None:
                tally.latencies.append(spent)
                seconds += spent
                timed_tokens += len(words)
            if labels is not None:
                toks += len(words)
                for word, name, pred in zip(words, gold, labels):
                    wrong = tagger.tagset.id_of(name) != pred
                    errs += wrong
                    if word not in tagger.vocab:
                        uw_toks += 1
                        uw_errs += wrong
            done = (
                budget is not None
                and time.perf_counter() - start >= budget
                and decoded >= STREAM_MIN_SENTENCES
            )
            if done:
                break
        chunk += 1
        done = done or budget is None
    tally.add_errors(tagger.kind.value, errs, toks, uw_errs, uw_toks)
    return seconds, timed_tokens


def run_tag_stream(ctx: Context) -> dict:
    kind, template = STREAM_KIND
    model_path = ctx.workdir / "stream.model"
    setups, trains = [], []
    for _ in range(SETUP_REPEATS):
        _, inputs_s = ctx.meter.run(make_inputs, ctx, False)
        ctx.start_op()
        _, train_s = ctx.meter.run(train_one, ctx.workdir / "train.conllu", kind, template, model_path)
        tagger, load_s = ctx.meter.run(modelfile.load_model, model_path)
        setups.append(inputs_s + train_s + load_s)
        trains.append(train_s)
    seconds, tokens = decode_stream(ctx, tagger, chunk_seed=2, budget=ctx.seconds)
    ctx.tally.check_ceilings()

    if ctx.trace:
        traced_chunk = []

        def unit():
            modelfile.load_model(model_path)
            traced_chunk.append(decode_stream(ctx, tagger, chunk_seed=3, budget=None))

        values = traced(ctx, "tag-stream", unit)
        traced_s, traced_tokens = traced_chunk[0]
        values["features.repeat_share"] = ctx.stats["stream-3"]["repeat_share"]
        values["trace.overhead_pct"] = overhead_pct(ctx, traced_s / traced_tokens, seconds / tokens)
        return values | kind_errors(ctx.tally)
    return {
        "setup_s": median(setups),
        "train_s": median(trains),
        **ctx.tally.decode_metrics(tokens / seconds),
    }


WORKLOADS = {
    "train": run_train,
    "decode-corpus": run_decode_corpus,
    "tag-stream": run_tag_stream,
}
