"""Decoder assembly: training and per-sentence decoding for each engine kind."""

from __future__ import annotations

from dataclasses import dataclass, replace
from enum import Enum
from typing import Optional, Sequence

import numpy as np

from . import discrim, efb, hmc, memm
from .core import TagSet, Vocabulary, mpm_from_lattice
from .dataio import Corpus
from .errors import InvalidInputError, NumericalDegeneracyError
from .features import FeatureIndex, FeaturePipeline, FeatureTemplate, build_index


class DecoderKind(Enum):
    HMC_FB = "hmc-fb"
    HMC_EFB = "hmc-efb"
    MEMM = "memm"
    HMC_NAIVE = "hmc-naive-features"


@dataclass(frozen=True)
class Tagger:
    """A trained decoder plus everything needed to label new sentences."""

    kind: DecoderKind
    tagset: TagSet
    vocab: Vocabulary
    template: Optional[FeatureTemplate] = None
    hmc_params: Optional[hmc.HmcParams] = None
    naive: Optional[hmc.NaiveFeatureEmission] = None
    feature_index: Optional[FeatureIndex] = None
    l0: Optional[discrim.LogisticModel] = None
    l1: Optional[discrim.LogisticModel] = None

    @property
    def pipeline(self) -> FeaturePipeline:
        if self.feature_index is None:
            raise InvalidInputError(f"{self.kind.value} model carries no feature index")
        return FeaturePipeline(self.feature_index)

    def decode(self, tokens: Sequence[str]) -> list[int]:
        if len(tokens) == 0:
            raise InvalidInputError("cannot decode an empty sentence")
        if self.kind is DecoderKind.HMC_FB:
            obs = [self.vocab.id_of(tok) for tok in tokens]
            return mpm_from_lattice(hmc.posterior_fb(self.hmc_params, obs))
        feats = self.pipeline.sentence_features(tokens)
        if self.kind is DecoderKind.HMC_NAIVE:
            lattice = hmc.posterior_naive_features(self.hmc_params, self.naive, feats)
            return mpm_from_lattice(lattice)
        if self.kind is DecoderKind.HMC_EFB:
            # the sentence's conditional in one batch; the provider reads its rows
            lmat = discrim.predict(self.l0, feats)
            params = efb.EfbParams(
                pi=self.hmc_params.pi,
                trans=self.hmc_params.trans,
                l_provider=lambda ids, t: lmat[t],
            )
            return efb.decode_efb(params, feats)
        model = memm.MemmModel(l0=self.l0, l1=self.l1, tagset=self.tagset)
        return memm.decode_memm(model, feats)


def _l0_dataset(
    corpus: Corpus, feats: Sequence[list[tuple[int, ...]]]
) -> list[discrim.Example]:
    data: list[discrim.Example] = []
    for sent, sent_feats in zip(corpus.sentences, feats):
        for ids, label in zip(sent_feats, sent.labels):
            data.append((ids, None, label))
    return data


def _l1_dataset(
    corpus: Corpus, feats: Sequence[list[tuple[int, ...]]]
) -> list[discrim.Example]:
    # teacher forcing: gold previous label, positions t >= 2 only
    data: list[discrim.Example] = []
    for sent, sent_feats in zip(corpus.sentences, feats):
        for t in range(1, len(sent)):
            data.append((sent_feats[t], sent.labels[t - 1], sent.labels[t]))
    return data


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
    if not isinstance(kind, DecoderKind):
        raise InvalidInputError(f"unknown decoder kind: {kind!r}")
    tagset, vocab = corpus.tagset, corpus.vocab
    n = len(tagset)
    params = naive = index = l0 = l1 = None
    final_loss = float("nan")

    if kind is not DecoderKind.MEMM:
        params = hmc.estimate_params(corpus.sentences, tagset, vocab, smoothing)
    if kind in (DecoderKind.HMC_EFB, DecoderKind.HMC_NAIVE):
        params = replace(params, emit=None)  # a bare chain: emissions are scored apart
    if kind is not DecoderKind.HMC_FB:
        index = build_index(corpus.sentences, template)
        pipeline = FeaturePipeline(index)
        feats = [pipeline.sentence_features(sent.tokens) for sent in corpus.sentences]
    if kind is DecoderKind.HMC_NAIVE:
        labels = [sent.labels for sent in corpus.sentences]
        naive = hmc.estimate_naive_emission(index, feats, labels, n, smoothing)
        index = hmc.naive_feature_index(naive, template)
    if kind in (DecoderKind.HMC_EFB, DecoderKind.MEMM):
        l0_data = _l0_dataset(corpus, feats)
        l0 = discrim.train(l0_data, index.size, n, sgd, conditions_on_prev=False)
        final_loss = discrim.mean_loss(l0, l0_data, l2=sgd.l2)
    if kind is DecoderKind.MEMM:
        l1_data = _l1_dataset(corpus, feats)
        if not l1_data:
            raise InvalidInputError(
                "MEMM training needs at least one sentence of length >= 2"
            )
        l1 = discrim.train(l1_data, index.size, n, sgd, conditions_on_prev=True)
        final_loss = 0.5 * (final_loss + discrim.mean_loss(l1, l1_data, l2=sgd.l2))
    if l0 is not None and not np.isfinite(final_loss):
        raise NumericalDegeneracyError(f"training diverged: final loss is {final_loss}")

    tagger = Tagger(
        kind=kind,
        tagset=tagset,
        vocab=vocab,
        template=None if kind is DecoderKind.HMC_FB else template,
        hmc_params=params,
        naive=naive,
        feature_index=index,
        l0=l0,
        l1=l1,
    )
    summary = TrainSummary(
        n_sentences=len(corpus.sentences),
        n_tokens=corpus.n_tokens,
        n_labels=n,
        vocab_size=len(vocab),
        feature_index_size=index.size if index is not None else 0,
        final_loss=final_loss,
    )
    return tagger, summary


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
    memm_tagger, _ = train_tagger(corpus, DecoderKind.MEMM, template, sgd, smoothing)
    chain = hmc.estimate_params(corpus.sentences, corpus.tagset, corpus.vocab, smoothing)
    efb_tagger = replace(
        memm_tagger,
        kind=DecoderKind.HMC_EFB,
        hmc_params=replace(chain, emit=None),
        l1=None,
    )
    return efb_tagger, memm_tagger
