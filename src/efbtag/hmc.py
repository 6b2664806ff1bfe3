"""Classic generative hidden Markov chain.

Parameter estimation by frequency counting with additive smoothing,
scaled Forward-Backward recursions, posterior marginals, and the
feature-independence emission baseline, which counts and gathers its
per-family tables over the same `FeatureIndex` ids as the other
featured decoders.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain
from typing import Optional, Sequence

import numpy as np

from .core import LabeledSentence, PosteriorLattice, TagSet, Vocabulary
from .errors import InvalidInputError, NumericalDegeneracyError
from .features import FeatureIndex, FeatureTemplate

PROB_TOL = 1e-12
DEFAULT_SMOOTHING = 1e-6


def check_chain(pi: np.ndarray, trans: np.ndarray) -> None:
    """Require a strictly positive prior and row-stochastic transitions; NaN fails."""
    if pi.ndim != 1:
        raise InvalidInputError("pi must be a vector")
    if trans.shape != (pi.shape[0], pi.shape[0]):
        raise InvalidInputError("transition table shape mismatch")
    if not (abs(pi.sum() - 1.0) <= PROB_TOL and pi.min() > 0.0):
        raise InvalidInputError("pi must be a strictly positive distribution")
    if not (np.abs(trans.sum(axis=1) - 1.0) <= PROB_TOL).all():
        raise InvalidInputError("transition rows must sum to 1")


@dataclass(frozen=True)
class HmcParams:
    """A chain (pi, A), plus a word emission table for hmc-fb only.

    `emit` has one column per trained word plus a trailing unknown-word
    column, or is None for a bare (pi, A) chain; every row is a distribution.
    """

    pi: np.ndarray     # (N,)
    trans: np.ndarray  # (N, N), trans[i, j] = P(next=j | cur=i)
    emit: Optional[np.ndarray] = None  # (N, M+1), last column is the unknown-word slot

    def __post_init__(self):
        check_chain(self.pi, self.trans)
        if self.emit is None:
            return
        if self.emit.ndim != 2 or self.emit.shape[0] != self.n_labels:
            raise InvalidInputError("emission table shape mismatch")
        if not (np.abs(self.emit.sum(axis=1) - 1.0) <= PROB_TOL).all():
            raise InvalidInputError("emission rows must sum to 1")

    @property
    def n_labels(self) -> int:
        return self.pi.shape[0]


def estimate_params(
    corpus: Sequence[LabeledSentence],
    tagset: TagSet,
    vocab: Vocabulary,
    smoothing: float = DEFAULT_SMOOTHING,
) -> HmcParams:
    """Maximum-likelihood counts with additive smoothing.

    pi comes from label frequencies over all positions (the chain is
    stationary, so the all-positions estimate is the empirical
    stationary marginal).  Transition counts never cross sentence
    boundaries.  The emission table gets one smoothing-weighted
    unknown-word column.
    """
    if len(corpus) == 0:
        raise InvalidInputError("corpus must be non-empty")
    if smoothing <= 0:
        raise InvalidInputError("smoothing must be > 0")

    n = len(tagset)
    m = len(vocab)
    pi_counts = np.zeros(n)
    trans_counts = np.zeros((n, n))
    emit_counts = np.zeros((n, m + 1))

    for sent in corpus:
        prev = None
        for token, label in zip(sent.tokens, sent.labels):
            if not 0 <= label < n:
                raise InvalidInputError(f"label id {label} outside tag set")
            pi_counts[label] += 1
            emit_counts[label, vocab.id_of(token)] += 1
            if prev is not None:
                trans_counts[prev, label] += 1
            prev = label

    pi = pi_counts + smoothing
    pi /= pi.sum()
    trans = trans_counts + smoothing
    trans /= trans.sum(axis=1, keepdims=True)
    emit = emit_counts + smoothing
    emit /= emit.sum(axis=1, keepdims=True)
    return HmcParams(pi=pi, trans=trans, emit=emit)


def scaled_forward(
    pi: np.ndarray, trans: np.ndarray, emissions: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Forward recursion over an explicit T x N emission matrix.

    Each row is normalized to sum 1; `scales` holds the normalizers, so
    the unscaled value is alpha[t] * prod(scales[:t+1]) and the product
    of all scales is the total observation probability.
    """
    t_len, n = emissions.shape
    alphas = np.empty((t_len, n))
    scales = np.empty(t_len)
    row = pi * emissions[0]
    for t in range(t_len):
        if t > 0:
            row = emissions[t] * (alphas[t - 1] @ trans)
        s = row.sum()
        if not s > 0.0:
            raise NumericalDegeneracyError(
                f"forward pass degenerated to zero mass at position {t}"
            )
        scales[t] = s
        alphas[t] = row / s
    return alphas, scales


def scaled_backward(
    trans: np.ndarray, emissions: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Backward recursion with the same row-normalization scheme.

    Unscaled value: beta[t] * prod(scales[t:]).
    """
    t_len, n = emissions.shape
    betas = np.empty((t_len, n))
    scales = np.empty(t_len)
    row = np.ones(n)
    for t in range(t_len - 1, -1, -1):
        if t < t_len - 1:
            row = trans @ (emissions[t + 1] * betas[t + 1])
        s = row.sum()
        if not s > 0.0:
            raise NumericalDegeneracyError(
                f"backward pass degenerated to zero mass at position {t}"
            )
        scales[t] = s
        betas[t] = row / s
    return betas, scales


def unscale(rows: np.ndarray, scales: np.ndarray, backward: bool = False) -> np.ndarray:
    """Reconstruct unscaled forward or backward values from scale factors."""
    if backward:
        factors = np.cumprod(scales[::-1])[::-1]
    else:
        factors = np.cumprod(scales)
    return rows * factors[:, None]


def _emission_matrix(params: HmcParams, obs: Sequence[int]) -> np.ndarray:
    if params.emit is None:
        raise InvalidInputError("a bare (pi, A) chain has no word emission table")
    if len(obs) == 0:
        raise InvalidInputError("observation sequence must be non-empty")
    obs_arr = np.asarray(obs, dtype=np.intp)
    if np.any(obs_arr < 0) or np.any(obs_arr >= params.emit.shape[1]):
        raise InvalidInputError("word id outside emission table")
    return params.emit[:, obs_arr].T  # (T, N)


def forward(params: HmcParams, obs: Sequence[int]) -> tuple[np.ndarray, np.ndarray]:
    """Scaled forward lattice and per-step scale factors for a word-id sequence."""
    return scaled_forward(params.pi, params.trans, _emission_matrix(params, obs))


def backward(params: HmcParams, obs: Sequence[int]) -> tuple[np.ndarray, np.ndarray]:
    """Scaled backward lattice and per-step scale factors."""
    return scaled_backward(params.trans, _emission_matrix(params, obs))


def posterior_from_lattices(alphas: np.ndarray, betas: np.ndarray) -> PosteriorLattice:
    """Combine scaled forward/backward rows; per-row scales cancel in the ratio."""
    prod = alphas * betas
    denom = prod.sum(axis=1)
    bad = np.nonzero(~(denom > 0.0))[0]
    if bad.size:
        raise NumericalDegeneracyError(
            f"posterior denominator underflowed at position {int(bad[0])}"
        )
    return PosteriorLattice(prod / denom[:, None])


def _posterior(params: HmcParams, emissions: np.ndarray) -> PosteriorLattice:
    """Run the scaled forward and backward recursions over one emission matrix."""
    alphas, _ = scaled_forward(params.pi, params.trans, emissions)
    betas, _ = scaled_backward(params.trans, emissions)
    return posterior_from_lattices(alphas, betas)


def posterior_fb(params: HmcParams, obs: Sequence[int]) -> PosteriorLattice:
    """Posterior marginals by classic Forward-Backward."""
    return _posterior(params, _emission_matrix(params, obs))


@dataclass(frozen=True)
class NaiveFeatureEmission:
    """Per-family conditional tables under the feature-independence assumption.

    The emission probability of a feature vector is the product of
    per-family conditionals; unseen values route to each family's
    trailing unknown slot.  `stacked` holds the tables side by side in
    family order: its columns are the ids that `naive_emission_matrix`
    gathers.
    """

    families: tuple[str, ...]
    value_index: dict[str, dict[str, int]]  # family -> value -> column
    tables: dict[str, np.ndarray]           # family -> (N, V_f + 1)
    stacked: np.ndarray = field(init=False, repr=False, compare=False)  # (N, sum(V_f + 1))

    def __post_init__(self):
        for fam in self.families:
            if not (np.abs(self.tables[fam].sum(axis=1) - 1.0) <= PROB_TOL).all():
                raise InvalidInputError(f"family {fam!r} rows must sum to 1")
        stacked = np.hstack([self.tables[fam] for fam in self.families])
        object.__setattr__(self, "stacked", stacked)

    def column_of(self, family: str, value: str) -> int:
        if family not in self.tables:
            raise InvalidInputError(f"feature family {family!r} not trained")
        idx = self.value_index[family]
        return idx.get(value, len(idx))  # the trailing unknown column


def naive_feature_index(
    model: NaiveFeatureEmission, template: FeatureTemplate
) -> FeatureIndex:
    """The index whose ids are the columns of `model.stacked`."""
    ids: dict[tuple[str, str], int] = {}
    unknown_ids: dict[str, int] = {}
    start = 0
    for fam in model.families:
        ids.update(((fam, v), start + col) for v, col in model.value_index[fam].items())
        start += model.tables[fam].shape[1]
        unknown_ids[fam] = start - 1
    return FeatureIndex(template, model.families, ids, unknown_ids)


def estimate_naive_emission(
    index: FeatureIndex,
    feats: Sequence[Sequence[Sequence[int]]],
    labels: Sequence[Sequence[int]],
    n_labels: int,
    smoothing: float = DEFAULT_SMOOTHING,
) -> NaiveFeatureEmission:
    """Count per-family conditionals from each sentence's id rows and labels.

    A family's table has one column per `index` id of that family, in id
    order, then one for its unknown id.
    """
    if len(feats) == 0:
        raise InvalidInputError("corpus must be non-empty")
    if smoothing <= 0:
        raise InvalidInputError("smoothing must be > 0")
    ids = np.array([row for sent in feats for row in sent], dtype=np.intp)
    y = np.fromiter(chain.from_iterable(labels), dtype=np.intp)
    counts = np.zeros((n_labels, index.size))
    np.add.at(counts, (np.repeat(y, ids.shape[1]), ids.ravel()), 1.0)
    value_index: dict[str, dict[str, int]] = {fam: {} for fam in index.families}
    columns: dict[str, list[int]] = {fam: [] for fam in index.families}
    for (fam, value), fid in index.ids.items():  # in id order
        value_index[fam][value] = len(columns[fam])
        columns[fam].append(fid)
    tables: dict[str, np.ndarray] = {}
    for fam in index.families:
        # copied to C order: row sums of the Fortran-ordered gather differ in the last bit
        table = np.ascontiguousarray(counts[:, columns[fam] + [index.unknown_ids[fam]]])
        table += smoothing
        tables[fam] = table / table.sum(axis=1, keepdims=True)
    return NaiveFeatureEmission(index.families, value_index, tables)


def emission_naive_features(
    model: NaiveFeatureEmission, fv: dict[str, str], label: int
) -> float:
    """Product of per-family conditionals for one label (the independence rule)."""
    prob = 1.0
    for fam, value in fv.items():
        col = model.column_of(fam, value)
        prob *= model.tables[fam][label, col]
    return float(prob)


def naive_emission_matrix(
    model: NaiveFeatureEmission, ids: Sequence[Sequence[int]]
) -> np.ndarray:
    """T x N product, in family order, of the `stacked` columns of (T, F) ids."""
    ids = np.asarray(ids, dtype=np.intp)
    if ids.ndim != 2 or ids.shape[1] != len(model.families):
        raise InvalidInputError("naive emission ids must be a (T, families) array")
    if np.any((ids < 0) | (ids >= model.stacked.shape[1])):
        raise InvalidInputError("feature id outside the naive emission tables")
    return np.prod(model.stacked.T[ids], axis=1)


def posterior_naive_features(
    params: HmcParams, model: NaiveFeatureEmission, ids: Sequence[Sequence[int]]
) -> PosteriorLattice:
    """Forward-Backward posterior with the independence-product emission."""
    if len(ids) == 0:
        raise InvalidInputError("observation sequence must be non-empty")
    return _posterior(params, naive_emission_matrix(model, ids))
