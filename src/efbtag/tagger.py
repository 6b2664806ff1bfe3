"""Decoder assembly: training and per-sentence decoding for each engine kind."""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from itertools import accumulate, chain
from types import MappingProxyType
from typing import Mapping, Optional, Sequence

import numpy as np

from . import discrim, efb, hmc, memm
from .core import (
    PosteriorLattice, Rebuilt, TagSet, Vocabulary, check_tokens, id_array, is_batch,
    mpm_from_lattice,
)
from .dataio import Corpus
from .errors import InvalidInputError, NumericalDegeneracyError
from .features import FeatureIndex, FeaturePipeline, FeatureTemplate, build_index


# a batch decodes in buckets of sentences of similar length, each bucket
# at most this many tokens; a sentence too long to share a bucket makes a
# bucket of one
BUCKET_TOKENS = 8192


def buckets(lengths: Sequence[int]) -> list[list[int]]:
    """Sentence numbers grouped for lockstep decoding, by ascending length.

    Each group holds at most BUCKET_TOKENS tokens, unless it is one sentence.
    """
    groups: list[list[int]] = []
    tokens = 0
    for i in sorted(range(len(lengths)), key=lengths.__getitem__):
        if not groups or tokens + lengths[i] > BUCKET_TOKENS:
            groups.append([])
            tokens = 0
        groups[-1].append(i)
        tokens += lengths[i]
    return groups


# a score sums one weight row per feature family, the bias row and, for l1,
# the previous label's row, and a softmax subtracts two scores: weights whose
# rows sum to at most this keep both within half of float64's largest value
SCORE_LIMIT = np.finfo(np.float64).max / 4


def _check_score_range(name: str, model: discrim.LogisticModel, n_families: int) -> None:
    """Refuse a weight table from which a score could overflow (or is not finite)."""
    rows = n_families + 1 + model.conditions_on_prev
    largest = np.maximum(model.weights.max(), -model.weights.min())
    if not largest <= SCORE_LIMIT / rows:  # NaN fails it too
        raise InvalidInputError(
            f"array {name!r} holds a weight of magnitude {largest:g}: a score sums "
            f"{rows} rows of it, which could overflow float64"
        )


class DecoderKind(Enum):
    HMC_FB = "hmc-fb"
    HMC_EFB = "hmc-efb"
    MEMM = "memm"
    HMC_NAIVE = "hmc-naive-features"


def part_shapes(
    kind: DecoderKind, n_labels: int, n_words: int, index: Optional[FeatureIndex]
) -> dict[str, tuple[int, ...]]:
    """The arrays a kind's tagger holds, in order, and their shapes, given its
    label count, its word count with the unknown word and its feature index."""
    shapes: dict[str, tuple[int, ...]] = {}
    if kind is not DecoderKind.MEMM:
        shapes["pi"] = (n_labels,)
        shapes["trans"] = (n_labels, n_labels)
    if kind is DecoderKind.HMC_FB:
        shapes["emit"] = (n_labels, n_words)
    if kind is DecoderKind.HMC_NAIVE:
        for fam, ids in index.value_ids.items():
            shapes[f"naive:{fam}"] = (n_labels, len(ids) + 1)
    if kind in (DecoderKind.HMC_EFB, DecoderKind.MEMM):
        shapes["l0_weights"] = (index.size + 1, n_labels)
    if kind is DecoderKind.MEMM:
        shapes["l1_weights"] = (index.size + n_labels + 1, n_labels)
    return shapes


@dataclass(frozen=True)
class Tagger(Rebuilt):
    """A trained decoder plus everything needed to label new sentences.

    A tagger is its `arrays`, by name in `part_shapes` order, which are
    checked against its kind's `part_shapes` when it is built, and whose
    weights must keep every score within `SCORE_LIMIT`.  From them it
    builds the models it decodes with, sharing their arrays: `hmc_params`,
    `naive`, `l0` and `l1`, each None where its kind holds no such part,
    and, but for hmc-fb, the one `pipeline` over its feature index.
    """

    kind: DecoderKind
    tagset: TagSet
    vocab: Vocabulary
    feature_index: Optional[FeatureIndex]
    arrays: Mapping[str, np.ndarray]
    hmc_params: Optional[hmc.HmcParams] = field(init=False, repr=False, compare=False)
    naive: Optional[hmc.NaiveFeatureEmission] = field(init=False, repr=False, compare=False)
    l0: Optional[discrim.LogisticModel] = field(init=False, repr=False, compare=False)
    l1: Optional[discrim.LogisticModel] = field(init=False, repr=False, compare=False)
    _pipeline: Optional[FeaturePipeline] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        kind, index, arrays = self.kind, self.feature_index, MappingProxyType(dict(self.arrays))
        if not isinstance(kind, DecoderKind):
            raise InvalidInputError(f"unknown decoder kind: {kind!r}")
        if (index is None) != (kind is DecoderKind.HMC_FB):  # hmc-fb alone has none
            has = "has no" if index is None else "has a"
            raise InvalidInputError(f"a {kind.value} tagger {has} feature index")
        n = len(self.tagset)
        shapes = part_shapes(kind, n, self.vocab.size_with_unknown, index)
        if [(name, getattr(a, "shape", None)) for name, a in arrays.items()] != [*shapes.items()]:
            raise InvalidInputError(f"a {kind.value} tagger holds arrays {list(arrays)}; "
                                    f"its kind holds {list(shapes)}")
        params = naive = l0 = l1 = None
        if "pi" in arrays:
            params = hmc.HmcParams(arrays["pi"], arrays["trans"], arrays.get("emit"))
        if kind is DecoderKind.HMC_NAIVE:
            tables = {fam: arrays[f"naive:{fam}"] for fam in index.families}
            naive = hmc.NaiveFeatureEmission(index.families, tables)
        if "l0_weights" in arrays:
            l0 = discrim.LogisticModel(arrays["l0_weights"], index.size, n, False)
        if "l1_weights" in arrays:  # l1 alone conditions on the previous label
            l1 = discrim.LogisticModel(arrays["l1_weights"], index.size, n, True)
        for name, model in (("l0_weights", l0), ("l1_weights", l1)):
            if model is not None:
                _check_score_range(name, model, len(index.families))
        pipeline = None if index is None else FeaturePipeline(index)
        parts = dict(arrays=arrays, hmc_params=params, naive=naive, l0=l0, l1=l1,
                     _pipeline=pipeline)
        for name, part in parts.items():
            object.__setattr__(self, name, part)

    @property
    def pipeline(self) -> FeaturePipeline:
        if self._pipeline is None:
            raise InvalidInputError(f"{self.kind.value} model carries no feature index")
        return self._pipeline

    def decode(
        self, tokens: Sequence[str] | Sequence[Sequence[str]]
    ) -> list[int] | list[list[int]]:
        """One sentence's labels.

        Given a batch of sentences (`core.is_batch` tells the two apart),
        returns one label list per sentence, in input order.  The batch is
        decoded bucket by bucket (see `buckets`), and gives the labels that
        decoding each sentence alone gives.
        """
        if not is_batch(tokens):
            if len(tokens) == 0:
                raise InvalidInputError("cannot decode an empty sentence")
            return self._decode(tokens)
        lengths = [len(sent) for sent in tokens]
        if 0 in lengths:
            raise InvalidInputError(
                f"cannot decode an empty sentence (batch item {lengths.index(0)})"
            )
        labels: list = [None] * len(tokens)
        for group in buckets(lengths):
            sizes = [lengths[i] for i in group]
            flat = self._decode([tokens[i] for i in group], sizes)
            ends = list(accumulate(sizes))
            for i, start, end in zip(group, [0] + ends, ends):
                labels[i] = flat[start:end]
        return labels

    def _decode(self, tokens, lengths: Optional[list[int]] = None) -> list[int]:
        """Labels of one sentence, or the stacked labels of sentences of `lengths`:
        the argmax of one posterior lattice (memm: its forward rows).

        Stacked sentences are scored once per distinct feature row: each
        token's row number `rows[t]` picks its scores.
        """
        kind = self.kind
        if kind is DecoderKind.HMC_FB:
            words = tokens if lengths is None else list(chain.from_iterable(tokens))
            try:
                obs, unknown = self.vocab.ids_of(words), self.vocab.unknown_id
            except TypeError:  # an unhashable token
                check_tokens(words)
                raise
            if unknown in obs:  # only a word outside the vocabulary can be malformed
                check_tokens(w for w, i in zip(words, obs) if i == unknown)
            lattice = hmc.posterior_fb(self.hmc_params, obs, lengths)
        elif lengths is None:  # (T, F) ids, of a batch of one: its first token reads as a token
            feats, rows = self.pipeline.sentence_features([tokens]), None
        else:  # the sentences' distinct (K, F) ids, and each token's row among them
            feats, rows = self.pipeline.sentence_features(tokens, distinct=True)
        if kind is DecoderKind.HMC_NAIVE:
            lattice = hmc.posterior_naive_features(self.hmc_params, self.naive, feats, lengths, rows)
        elif kind is DecoderKind.HMC_EFB:
            # the (T, N) conditional, or the stacked (ΣT, N) ones, is the observation
            conditional = discrim.predict(self.l0, feats)
            if rows is not None:
                conditional = conditional.take(rows, axis=0)
            lattice = efb.posterior_efb(self.hmc_params, conditional, lengths)
        elif kind is DecoderKind.MEMM:
            # finite distributions by construction, as the weights keep every
            # score within SCORE_LIMIT: only the lattice's shape is checked
            lattice = PosteriorLattice._normalised(
                memm.memm_forward(self.l0, self.l1, feats, lengths, rows))
        return mpm_from_lattice(lattice)


@dataclass(frozen=True)
class TrainSummary:
    n_sentences: int
    n_tokens: int
    n_labels: int
    vocab_size: int
    feature_index_size: int
    final_loss: float


def train_tagger(
    corpus: Corpus,
    kind: DecoderKind,
    template: FeatureTemplate = FeatureTemplate.LF1,
    sgd: discrim.SgdConfig = discrim.SgdConfig(),
    smoothing: float = hmc.DEFAULT_SMOOTHING,
) -> tuple[Tagger, TrainSummary]:
    """Train the requested decoder kind on a labeled corpus."""
    if len(corpus.sentences) == 0:
        raise InvalidInputError("training corpus is empty")
    hmc.check_smoothing(smoothing)  # here, for memm too, which counts nothing
    tagset, vocab = corpus.tagset, corpus.vocab
    n = len(tagset)
    index = None
    arrays: dict[str, np.ndarray] = {}  # in `part_shapes` order
    final_loss = float("nan")

    if kind is not DecoderKind.MEMM:
        # the featured kinds take a bare chain: their emissions are scored apart
        words = vocab if kind is DecoderKind.HMC_FB else None
        params = hmc.estimate_params(corpus.sentences, tagset, words, smoothing)
        arrays.update(pi=params.pi, trans=params.trans)
        if words is not None:
            arrays["emit"] = params.emit
    if kind is not DecoderKind.HMC_FB:
        index = build_index(corpus.sentences, template)
        # every token in corpus order: one (ΣT, F) id array and its labels
        ids = FeaturePipeline(index).sentence_features([s.tokens for s in corpus.sentences])
        labels = id_array(np.concatenate([s.labels for s in corpus.sentences]), "labels")
    if kind is DecoderKind.HMC_NAIVE:
        # the corpus counted as one sequence: counts ignore sentence bounds
        tables = hmc.estimate_naive_emission(index, [ids], [labels], n, smoothing).tables
        arrays.update((f"naive:{fam}", table) for fam, table in tables.items())
    if kind in (DecoderKind.HMC_EFB, DecoderKind.MEMM):
        l0_data = discrim.ExampleColumns(ids, None, labels)
        l0 = discrim.train(l0_data, index.size, n, sgd, conditions_on_prev=False)
        arrays["l0_weights"] = l0.weights
        final_loss = discrim.mean_loss(l0, l0_data, l2=sgd.l2)
    if kind is DecoderKind.MEMM:
        # teacher forcing: every token but a sentence's first, with its gold predecessor
        lengths = [len(sent) for sent in corpus.sentences]
        rest = np.delete(np.arange(len(ids)), np.cumsum(lengths) - lengths)
        l1_data = discrim.ExampleColumns(ids[rest], labels[rest - 1], labels[rest])
        if len(l1_data) == 0:
            raise InvalidInputError(
                "MEMM training needs at least one sentence of length >= 2"
            )
        l1 = discrim.train(l1_data, index.size, n, sgd, conditions_on_prev=True)
        arrays["l1_weights"] = l1.weights
        final_loss = 0.5 * (final_loss + discrim.mean_loss(l1, l1_data, l2=sgd.l2))
    if "l0_weights" in arrays and not np.isfinite(final_loss):
        raise NumericalDegeneracyError(f"training diverged: final loss is {final_loss}")

    summary = TrainSummary(
        n_sentences=len(corpus.sentences),
        n_tokens=corpus.n_tokens,
        n_labels=n,
        vocab_size=len(vocab),
        feature_index_size=index.size if index is not None else 0,
        final_loss=final_loss,
    )
    return Tagger(kind, tagset, vocab, index, arrays), summary


def train_compare_pair(
    corpus: Corpus,
    template: FeatureTemplate,
    sgd: discrim.SgdConfig = discrim.SgdConfig(),
    smoothing: float = hmc.DEFAULT_SMOOTHING,
) -> tuple[Tagger, Tagger]:
    """Train HMC-EFB and MEMM sharing one feature pipeline and one l0 model.

    The fair-comparison protocol: identical features, identical
    hyperparameters and seed, and the first-position conditional shared
    between both decoders.
    """
    # counted first, so an unusable smoothing fails before any SGD runs
    chain = hmc.estimate_params(corpus.sentences, corpus.tagset, None, smoothing)
    memm_tagger, _ = train_tagger(corpus, DecoderKind.MEMM, template, sgd, smoothing)
    arrays = {"pi": chain.pi, "trans": chain.trans, "l0_weights": memm_tagger.arrays["l0_weights"]}
    efb_tagger = Tagger(
        DecoderKind.HMC_EFB, corpus.tagset, corpus.vocab, memm_tagger.feature_index, arrays
    )
    return efb_tagger, memm_tagger
