"""Decoder assembly: training and per-sentence decoding for each engine kind."""

from __future__ import annotations

from dataclasses import dataclass, replace
from enum import Enum
from functools import cached_property
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
    hmc_params: Optional[hmc.HmcParams] = None
    naive: Optional[hmc.NaiveFeatureEmission] = None
    feature_index: Optional[FeatureIndex] = None
    l0: Optional[discrim.LogisticModel] = None
    l1: Optional[discrim.LogisticModel] = None

    @property
    def template(self) -> Optional[FeatureTemplate]:
        """The feature index's template; None for hmc-fb, which reads words alone."""
        return None if self.feature_index is None else self.feature_index.template

    @property
    def pipeline(self) -> FeaturePipeline:
        if self.feature_index is None:
            raise InvalidInputError(f"{self.kind.value} model carries no feature index")
        return FeaturePipeline(self.feature_index)

    @cached_property
    def _efb_params(self) -> efb.EfbParams:
        """hmc-efb's chain, checked once per tagger; observations are conditional rows."""
        return efb.EfbParams(
            pi=self.hmc_params.pi, trans=self.hmc_params.trans, l_provider=_own_row
        )

    def decode(self, tokens: Sequence[str]) -> list[int]:
        if len(tokens) == 0:
            raise InvalidInputError("cannot decode an empty sentence")
        if self.kind is DecoderKind.HMC_FB:
            obs = self.vocab.ids_of(tokens)
            return mpm_from_lattice(hmc.posterior_fb(self.hmc_params, obs))
        feats = self.pipeline.sentence_features(tokens)
        if self.kind is DecoderKind.HMC_NAIVE:
            lattice = hmc.posterior_naive_features(self.hmc_params, self.naive, feats)
            return mpm_from_lattice(lattice)
        if self.kind is DecoderKind.HMC_EFB:
            # the sentence's conditional in one batch, handed over row by row
            return efb.decode_efb(self._efb_params, discrim.predict(self.l0, feats))
        model = memm.MemmModel(l0=self.l0, l1=self.l1, tagset=self.tagset)
        return memm.decode_memm(model, feats)


def _own_row(row: np.ndarray, t: int) -> np.ndarray:
    return row


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
    hmc.check_smoothing(smoothing)  # here, for memm too, which counts nothing
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
        # every token in corpus order: one (ΣT, F) id array, filled sentence by
        # sentence, so no sentence's array outlives its copy
        lengths = [len(sent) for sent in corpus.sentences]
        ids = np.empty((sum(lengths), len(index.families)), dtype=np.intp)
        feats = np.split(ids, np.cumsum(lengths)[:-1])  # each sentence's rows, a view
        for sent, rows in zip(corpus.sentences, feats):
            rows[:] = pipeline.sentence_features(sent.tokens)
    if kind is DecoderKind.HMC_NAIVE:
        labels = [sent.labels for sent in corpus.sentences]
        naive = hmc.estimate_naive_emission(index, feats, labels, n, smoothing)
        index = hmc.naive_feature_index(naive, template)
    if kind in (DecoderKind.HMC_EFB, DecoderKind.MEMM):
        labels = np.concatenate([sent.labels for sent in corpus.sentences], dtype=np.intp)
        l0_data = discrim.ExampleColumns(ids, None, labels)
        l0 = discrim.train(l0_data, index.size, n, sgd, conditions_on_prev=False)
        final_loss = discrim.mean_loss(l0, l0_data, l2=sgd.l2)
    if kind is DecoderKind.MEMM:
        # teacher forcing: every token but a sentence's first, with its gold predecessor
        rest = np.delete(np.arange(len(ids)), np.cumsum(lengths) - lengths)
        l1_data = discrim.ExampleColumns(ids[rest], labels[rest - 1], labels[rest])
        if len(l1_data) == 0:
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
    # counted first, so an unusable smoothing fails before any SGD runs
    chain = hmc.estimate_params(corpus.sentences, corpus.tagset, corpus.vocab, smoothing)
    memm_tagger, _ = train_tagger(corpus, DecoderKind.MEMM, template, sgd, smoothing)
    efb_tagger = replace(
        memm_tagger,
        kind=DecoderKind.HMC_EFB,
        hmc_params=replace(chain, emit=None),
        l1=None,
    )
    return efb_tagger, memm_tagger
