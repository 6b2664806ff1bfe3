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
from .features import FeatureIndex, FeatureTemplate, index_from_pairs

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


def _check_labels(labels: np.ndarray, n_labels: int) -> None:
    bad = (labels < 0) | (labels >= n_labels)
    if bad.any():
        raise InvalidInputError(f"label id {int(labels[bad][0])} outside tag set")


def check_smoothing(smoothing: float) -> None:
    if not np.isfinite(smoothing):
        raise InvalidInputError(f"smoothing must be finite, got {smoothing}")
    if smoothing <= 0:
        raise InvalidInputError("smoothing must be > 0")


@np.errstate(over="ignore")  # an overflowing total is rejected below
def _smoothed_rows(counts: np.ndarray, smoothing: float) -> np.ndarray:
    """`counts + smoothing` with each row (or the one vector) scaled to sum 1."""
    table = counts + smoothing
    totals = table.sum(axis=-1, keepdims=True)
    if not np.isfinite(totals).all():
        raise InvalidInputError(
            f"smoothing {smoothing:g} is too large: a count total overflows"
        )
    return table / totals


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
    check_smoothing(smoothing)

    n = len(tagset)
    m1 = len(vocab) + 1
    labels = np.fromiter(chain.from_iterable(s.labels for s in corpus), dtype=np.intp)
    _check_labels(labels, n)
    tokens = chain.from_iterable(s.tokens for s in corpus)
    words = np.array(vocab.ids_of(tokens), dtype=np.intp)
    # position t has a successor in its sentence unless it ends one
    has_next = np.ones(len(labels), dtype=bool)
    has_next[np.cumsum([len(s.labels) for s in corpus]) - 1] = False
    pairs = labels[:-1][has_next[:-1]] * n + labels[1:][has_next[:-1]]

    pi = _smoothed_rows(np.bincount(labels, minlength=n), smoothing)
    trans = _smoothed_rows(np.bincount(pairs, minlength=n * n).reshape(n, n), smoothing)
    emit_counts = np.bincount(labels * m1 + words, minlength=n * m1).reshape(n, m1)
    return HmcParams(pi=pi, trans=trans, emit=_smoothed_rows(emit_counts, smoothing))


def scaled_forward(
    pi: np.ndarray, trans: np.ndarray, emissions: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Forward recursion over an explicit T x N emission matrix.

    Each row is normalized to sum 1; `scales` holds the normalizers, so
    the unscaled value is alpha[t] * prod(scales[:t+1]) and the product
    of all scales is the total observation probability.  Rows are
    written in place into the returned lattice, with the operations of
    the textbook step `emissions[t] * (alphas[t - 1] @ trans)` in that
    order, so the lattice is bitwise the one that step gives.
    """
    t_len, n = emissions.shape
    alphas = np.empty((t_len, n))
    scales = np.empty(t_len)
    np.multiply(pi, emissions[0], out=alphas[0])
    prev = None
    for t, (row, emit) in enumerate(zip(alphas, emissions)):
        if prev is not None:
            np.dot(prev, trans, out=row)
            np.multiply(emit, row, out=row)
        s = np.add.reduce(row)
        if not s > 0.0:
            raise NumericalDegeneracyError(
                f"forward pass degenerated to zero mass at position {t}"
            )
        scales[t] = s
        np.divide(row, s, out=row)
        prev = row
    return alphas, scales


def scaled_backward(
    trans: np.ndarray, emissions: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Backward recursion with the same row-normalization scheme.

    Unscaled value: beta[t] * prod(scales[t:]).  Like `scaled_forward`
    it writes rows in place, with the operations of the textbook step
    `trans @ (emissions[t + 1] * betas[t + 1])`; the product goes
    through one scratch vector.
    """
    t_len, n = emissions.shape
    betas = np.empty((t_len, n))
    scales = np.empty(t_len)
    buf = np.empty(n)
    for t in range(t_len - 1, -1, -1):
        row = betas[t]
        if t < t_len - 1:
            np.multiply(emissions[t + 1], betas[t + 1], out=buf)
            np.dot(trans, buf, out=row)
        else:
            row.fill(1.0)
        s = np.add.reduce(row)
        if not s > 0.0:
            raise NumericalDegeneracyError(
                f"backward pass degenerated to zero mass at position {t}"
            )
        scales[t] = s
        np.divide(row, s, out=row)
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
    if obs_arr.min() < 0 or obs_arr.max() >= params.emit.shape[1]:
        raise InvalidInputError("word id outside emission table")
    return params.emit.T[obs_arr]  # (T, N), C-ordered: the recursions read rows


def forward(params: HmcParams, obs: Sequence[int]) -> tuple[np.ndarray, np.ndarray]:
    """Scaled forward lattice and per-step scale factors for a word-id sequence."""
    return scaled_forward(params.pi, params.trans, _emission_matrix(params, obs))


def backward(params: HmcParams, obs: Sequence[int]) -> tuple[np.ndarray, np.ndarray]:
    """Scaled backward lattice and per-step scale factors."""
    return scaled_backward(params.trans, _emission_matrix(params, obs))


def posterior_from_lattices(alphas: np.ndarray, betas: np.ndarray) -> PosteriorLattice:
    """Combine scaled forward/backward rows; per-row scales cancel in the ratio."""
    prod = alphas * betas
    denom = np.add.reduce(prod, axis=1)
    if not (denom > 0.0).all():
        bad = np.nonzero(~(denom > 0.0))[0]
        raise NumericalDegeneracyError(
            f"posterior denominator underflowed at position {int(bad[0])}"
        )
    return PosteriorLattice(np.divide(prod, denom[:, None], out=prod))


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
    trailing unknown slot.  `stacked` holds every family's value columns
    in family order, then every family's unknown column: the layout of
    `index_from_pairs`, so its columns are the ids of `naive_feature_index`
    that `naive_emission_matrix` gathers.
    """

    families: tuple[str, ...]
    value_index: dict[str, dict[str, int]]  # family -> value -> column
    tables: dict[str, np.ndarray]           # family -> (N, V_f + 1)
    stacked: np.ndarray = field(init=False, repr=False, compare=False)  # (N, sum(V_f + 1))

    def __post_init__(self):
        for fam in self.families:
            if not (np.abs(self.tables[fam].sum(axis=1) - 1.0) <= PROB_TOL).all():
                raise InvalidInputError(f"family {fam!r} rows must sum to 1")
        tables = [self.tables[fam] for fam in self.families]
        stacked = np.hstack([t[:, :-1] for t in tables] + [t[:, -1:] for t in tables])
        object.__setattr__(self, "stacked", stacked)

    def column_of(self, family: str, value: str) -> int:
        if family not in self.tables:
            raise InvalidInputError(f"feature family {family!r} not trained")
        idx = self.value_index[family]
        return idx.get(value, len(idx))  # the trailing unknown column


def naive_value_columns(index: FeatureIndex) -> dict[str, dict[str, int]]:
    """Each family's values numbered in id order: a naive table's value columns."""
    columns: dict[str, dict[str, int]] = {fam: {} for fam in index.families}
    for fam, value in index.ids:  # in id order
        columns[fam][value] = len(columns[fam])
    return columns


def naive_feature_index(
    model: NaiveFeatureEmission, template: FeatureTemplate
) -> FeatureIndex:
    """The index of `model.stacked`'s columns: pairs family by family, in column order."""
    cols = model.value_index
    pairs = [(f, v) for f in model.families for v in sorted(cols[f], key=cols[f].get)]
    return index_from_pairs(template, model.families, pairs)


def estimate_naive_emission(
    index: FeatureIndex,
    feats: Sequence[np.ndarray | Sequence[Sequence[int]]],
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
    check_smoothing(smoothing)
    if len(labels) != len(feats) or any(len(f) != len(y) for f, y in zip(feats, labels)):
        raise InvalidInputError("labels must hold one label per feature id row")
    ids = np.concatenate(feats, dtype=np.intp)
    y = np.fromiter(chain.from_iterable(labels), dtype=np.intp)
    _check_labels(y, n_labels)
    bad = (ids < 0) | (ids >= index.size)
    if bad.any():
        raise InvalidInputError(f"feature id {int(ids[bad][0])} outside the index")
    flat = np.repeat(y, ids.shape[1]) * index.size + ids.ravel()
    counts = np.bincount(flat, minlength=n_labels * index.size).reshape(n_labels, -1)
    value_index = naive_value_columns(index)
    tables: dict[str, np.ndarray] = {}
    for fam in index.families:
        fids = [index.ids[fam, value] for value in value_index[fam]]
        # copied to C order: row sums of the Fortran-ordered gather differ in the last bit
        table = np.ascontiguousarray(counts[:, fids + [index.unknown_ids[fam]]])
        tables[fam] = _smoothed_rows(table, smoothing)
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
    if ids.size and (ids.min() < 0 or ids.max() >= model.stacked.shape[1]):
        raise InvalidInputError("feature id outside the naive emission tables")
    return np.prod(model.stacked.T[ids], axis=1)


def posterior_naive_features(
    params: HmcParams, model: NaiveFeatureEmission, ids: Sequence[Sequence[int]]
) -> PosteriorLattice:
    """Forward-Backward posterior with the independence-product emission."""
    if len(ids) == 0:
        raise InvalidInputError("observation sequence must be non-empty")
    return _posterior(params, naive_emission_matrix(model, ids))
