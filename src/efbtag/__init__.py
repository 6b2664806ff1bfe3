"""Sequence labeling with entropic forward-backward posterior decoding.

Three decoders over a shared feature pipeline: classic Forward-Backward
on a generative hidden Markov chain, entropic Forward-Backward driven by
a discriminative per-token label model, and a forward-only MEMM
baseline.
"""

__version__ = "0.1.0"

from .core import (
    LabeledSentence,
    PosteriorLattice,
    TagSet,
    Vocabulary,
    mpm_from_lattice,
)
from .dataio import Corpus, CorpusFormat, read_corpus
from .discrim import LogisticModel, SgdConfig
from .efb import EfbParams, posterior_efb
from .features import FeaturePipeline, FeatureTemplate, build_index, extract
from .hmc import HmcParams, estimate_params, posterior_fb
from .memm import memm_forward
from .tagger import DecoderKind, Tagger, train_tagger

__all__ = [
    "Corpus",
    "CorpusFormat",
    "DecoderKind",
    "EfbParams",
    "FeaturePipeline",
    "FeatureTemplate",
    "HmcParams",
    "LabeledSentence",
    "LogisticModel",
    "PosteriorLattice",
    "SgdConfig",
    "TagSet",
    "Tagger",
    "Vocabulary",
    "build_index",
    "estimate_params",
    "extract",
    "memm_forward",
    "mpm_from_lattice",
    "posterior_efb",
    "posterior_fb",
    "read_corpus",
    "train_tagger",
]
