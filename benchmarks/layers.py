"""The layer spans: which public calls are traced, and the per-layer metrics.

Every span is a public efbtag callable.  `EXPECTED` names the workloads
whose traced unit must call it at least once; a span that records no
call there fails the traced run, so renaming a traced function shows up
as a failure instead of a silent zero.
"""

from __future__ import annotations

from pathlib import Path

from spans import SpanSpec, Tracer

KINDS = ("hmc-fb", "hmc-naive-features", "hmc-efb", "memm")


def _arg(args, kwargs, pos: int, name: str):
    return args[pos] if len(args) > pos else kwargs[name]


def _train_counts(args, kwargs, result):
    config = _arg(args, kwargs, 3, "config")
    return {
        "discrim.train.examples": len(_arg(args, kwargs, 0, "dataset")),
        "discrim.train.epochs": config.epochs,
    }


def _decode_kind(args, kwargs) -> str:
    return f"tagger.decode:{args[0].kind.value}"


def _decode_counts(args, kwargs, result):
    kind = args[0].kind.value
    return {f"tagger.decode.tokens.{kind}": len(_arg(args, kwargs, 1, "tokens"))}


def _train_kind(args, kwargs) -> str:
    return f"tagger.train_tagger:{_arg(args, kwargs, 1, 'kind').value}"


SPANS = [
    SpanSpec("dataio.read_corpus",
             count=lambda a, k, r: {"dataio.read_corpus.tokens": r.n_tokens}),
    SpanSpec("features.build_index",
             count=lambda a, k, r: {"features.index_size": r.size}),
    SpanSpec("features.FeaturePipeline.sentence_features",
             name_of=lambda a, k: "features.sentence_features"),
    SpanSpec("features.extract"),
    SpanSpec("discrim.train", count=_train_counts),
    SpanSpec("discrim.mean_loss"),
    SpanSpec("discrim.predict"),
    SpanSpec("discrim.predict_all_prev"),
    SpanSpec("hmc.estimate_params"),
    SpanSpec("hmc.estimate_naive_emission"),
    SpanSpec("hmc.scaled_forward"),
    SpanSpec("hmc.scaled_backward"),
    SpanSpec("hmc.naive_emission_matrix"),
    SpanSpec("hmc.posterior_from_lattices"),
    SpanSpec("efb.conditional_matrix",
             count=lambda a, k, r: {"efb.rows": r.shape[0]}),
    SpanSpec("efb.entropic_forward"),
    SpanSpec("efb.entropic_backward"),
    SpanSpec("memm.memm_forward"),
    SpanSpec("memm.forward_lattice"),
    SpanSpec("core.mpm_from_lattice"),
    SpanSpec("tagger.train_tagger", name_of=_train_kind),
    SpanSpec("tagger.Tagger.decode", name_of=_decode_kind, count=_decode_counts),
    SpanSpec("evaluation.evaluate"),
    SpanSpec("modelfile.save_model",
             count=lambda a, k, r: {"modelfile.bytes": Path(a[0]).stat().st_size}),
    SpanSpec("modelfile.load_model"),
]

_TRAIN = {
    "dataio.read_corpus", "features.build_index", "features.sentence_features",
    "features.extract", "discrim.train", "discrim.mean_loss",
    "hmc.estimate_params", "hmc.estimate_naive_emission",
    "modelfile.save_model",
} | {f"tagger.train_tagger:{kind}" for kind in KINDS}
_DECODE_EFB = {
    "features.sentence_features", "features.extract", "discrim.predict",
    "efb.conditional_matrix", "efb.entropic_forward", "efb.entropic_backward",
    "hmc.posterior_from_lattices", "core.mpm_from_lattice", "tagger.decode:hmc-efb",
}
_DECODE_CORPUS = _DECODE_EFB | {
    "evaluation.evaluate", "discrim.predict_all_prev", "hmc.scaled_forward",
    "hmc.scaled_backward", "hmc.naive_emission_matrix", "memm.memm_forward",
    "memm.forward_lattice",
} | {f"tagger.decode:{kind}" for kind in KINDS}

EXPECTED = {
    "train": _TRAIN,
    "decode-corpus": _DECODE_CORPUS,
    "tag-stream": _DECODE_EFB | {"modelfile.load_model"},
}


def _span_names() -> list[str]:
    names = []
    for spec in SPANS:
        if spec.target == "tagger.train_tagger":
            names += [f"tagger.train_tagger:{kind}" for kind in KINDS]
        elif spec.target == "tagger.Tagger.decode":
            names += [f"tagger.decode:{kind}" for kind in KINDS]
        elif spec.name_of is not None:
            names.append(spec.name_of((), {}))
        else:
            names.append(spec.target)
    return names


def _metric_names(span: str) -> tuple[str, str]:
    base, _, kind = span.partition(":")
    if kind:
        return f"{base}.s.{kind}", f"{base}.calls.{kind}"
    return f"{span}.s", f"{span}.calls"


def missing_spans(tracer: Tracer, workload: str) -> list[str]:
    """Spans the workload should exercise that recorded no call."""
    seen = set(tracer.names)
    return sorted(EXPECTED[workload] - seen)


def layer_values(tracer: Tracer) -> dict[str, float]:
    """Self time and calls per span, plus counters derived from span arguments."""
    values = {}
    own = tracer.self_times()
    for span in _span_names():
        s_name, calls_name = _metric_names(span)
        seconds, calls = own.get(span, (0.0, 0))
        values[s_name] = seconds
        values[calls_name] = calls
    c = tracer.counters
    builds = values["features.build_index.calls"]
    epochs = c.get("discrim.train.epochs", 0)
    efb_tokens = c.get("tagger.decode.tokens.hmc-efb", 0)
    values.update({
        "dataio.read_corpus.tokens": c.get("dataio.read_corpus.tokens", 0),
        "features.index_size": c.get("features.index_size", 0) / builds if builds else 0,
        "discrim.train.examples": c.get("discrim.train.examples", 0),
        "discrim.epoch_s": values["discrim.train.s"] / epochs if epochs else 0.0,
        "efb.rows_per_token": c.get("efb.rows", 0) / efb_tokens if efb_tokens else 0.0,
        "modelfile.bytes": c.get("modelfile.bytes", 0),
        "trace.spans": tracer.n_spans,
    })
    return values
