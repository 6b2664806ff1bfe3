"""Classic generative hidden Markov chain.

Parameter estimation by frequency counting with additive smoothing,
scaled Forward-Backward as one recursion run forward and on reversed
rows, posterior marginals, and the feature-independence emission
baseline, which counts and gathers its per-family tables over the same
`FeatureIndex` ids as the other featured decoders.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain
from numbers import Integral
from typing import NamedTuple, Optional, Sequence

import numpy as np

from .core import (
    LabeledSentence, PosteriorLattice, TagSet, Vocabulary, check_lengths, check_token_rows,
    id_array, real_array,
)
from .errors import InvalidInputError, NumericalDegeneracyError
from .features import FeatureIndex

PROB_TOL = 1e-12
DEFAULT_SMOOTHING = 1e-6
# the posteriors prepare their rows with `every` = RESCALE_EVERY: a posterior
# reads only each row of alpha * beta over its sum, so a row need not be
# normalized at every step, only often enough that none underflows
RESCALE_EVERY = 8
# a block of steps whose closing sum falls to this is run again step by step;
# in either direction no row's largest entry falls below its block's closing
# sum over N, so what a row loses to float64's subnormal range, whose values
# are under 2.2e-308, is under N * 2.2e-208 of its largest entry
RESCALE_GUARD = 1e-100
# that bounds each lattice, not their overlap: on the schedule a posterior's
# denominator is the every-step one times a factor of each row's block, each
# as small as RESCALE_GUARD over N.  A sentence whose scheduled denominator
# falls to this is run again step by step; above it, since no scheduled alpha
# entry exceeds 1 nor beta entry N, a product entry lost to the subnormal range
# is under N * 2.2e-108 of the denominator
POSTERIOR_GUARD = 1e-200
# float64's least normal number, the floor of an emission row's maximum
LEAST_NORMAL = np.finfo(np.float64).tiny


def _check_rows(table: np.ndarray, what: str) -> None:
    """Require every row to be a distribution: no negative entry, sum 1; NaN fails."""
    if not ((table >= 0.0).all() and (np.abs(table.sum(axis=1) - 1.0) <= PROB_TOL).all()):
        raise InvalidInputError(f"{what} rows must be non-negative and sum to 1")


def check_chain(pi: np.ndarray, trans: np.ndarray) -> None:
    """Require a strictly positive prior and row-stochastic transitions; NaN fails."""
    if pi.ndim != 1:
        raise InvalidInputError("pi must be a vector")
    if trans.shape != (pi.shape[0], pi.shape[0]):
        raise InvalidInputError("transition table shape mismatch")
    if not (abs(pi.sum() - 1.0) <= PROB_TOL and pi.min() > 0.0):
        raise InvalidInputError("pi must be a strictly positive distribution")
    _check_rows(trans, "transition")


class ReversedStep(NamedTuple):
    """What the backward's step reads of a chain's transitions A, derived
    from A once by `_reversed_step` and read-only; `scaled_backward` takes it
    in place of A."""

    step: np.ndarray     # (N, N): A's transpose with A's column sums c divided out
    weights: np.ndarray  # (N,): c / max c
    most: np.float64     # max c (at least LEAST_NORMAL)


def _reversed_step(trans: np.ndarray) -> ReversedStep:
    """The `ReversedStep` of a float64 (N, N) transition matrix.  The step is
    the transposed view of A / c, never a copy: over a view, a row's product
    is bitwise the column-wise one that the textbook backward forms."""
    into = np.add.reduce(trans, 0)
    most = into.max(initial=LEAST_NORMAL)
    step, weights = (trans / np.maximum(into, LEAST_NORMAL)).T, into / most
    step.flags.writeable = weights.flags.writeable = False
    return ReversedStep(step, weights, most)


@dataclass(frozen=True)
class HmcParams:
    """A chain (pi, A), plus a word emission table for hmc-fb only.

    Array-likes are taken as their float64 arrays; text, complex, object or
    ragged ones are refused.  `emit` has one column per trained word plus a
    trailing unknown-word column, or is None for a bare (pi, A) chain;
    every row is a distribution.  `emit_rows` is `emit.T` copied to C
    order, (M+1, N), so a word's N emissions are one contiguous row for
    `posterior_fb` to gather.  `reversed_step` is A's `ReversedStep`,
    derived once here, which every backward of this chain reads.
    """

    pi: np.ndarray     # (N,)
    trans: np.ndarray  # (N, N), trans[i, j] = P(next=j | cur=i)
    emit: Optional[np.ndarray] = None  # (N, M+1), last column is the unknown-word slot
    emit_rows: Optional[np.ndarray] = field(default=None, init=False, repr=False, compare=False)
    reversed_step: ReversedStep = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        pi = real_array(self.pi, "a chain's prior must be real numbers")
        trans = real_array(self.trans, "a chain's transitions must be real numbers")
        check_chain(pi, trans)
        object.__setattr__(self, "pi", pi)
        object.__setattr__(self, "trans", trans)
        object.__setattr__(self, "reversed_step", _reversed_step(trans))
        if self.emit is None:
            return
        emit = real_array(self.emit, "an emission table must be real numbers")
        if emit.ndim != 2 or emit.shape[0] != self.n_labels:
            raise InvalidInputError("emission table shape mismatch")
        _check_rows(emit, "emission")
        object.__setattr__(self, "emit", emit)
        object.__setattr__(self, "emit_rows", np.ascontiguousarray(emit.T))

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
    vocab: Optional[Vocabulary],
    smoothing: float = DEFAULT_SMOOTHING,
) -> HmcParams:
    """Maximum-likelihood counts with additive smoothing.

    pi comes from label frequencies over all positions (the chain is
    stationary, so the all-positions estimate is the empirical
    stationary marginal).  Transition counts never cross sentence
    boundaries.  The emission table gets one smoothing-weighted
    unknown-word column; with no `vocab`, no emission is counted and
    the bare (pi, A) chain is returned, as the featured kinds score
    emissions apart.
    """
    if len(corpus) == 0:
        raise InvalidInputError("corpus must be non-empty")
    check_smoothing(smoothing)

    n = len(tagset)
    labels = id_array(list(chain.from_iterable(s.labels for s in corpus)), "labels")
    _check_labels(labels, n)
    # position t has a successor in its sentence unless it ends one
    has_next = np.ones(len(labels), dtype=bool)
    has_next[np.cumsum([len(s.labels) for s in corpus]) - 1] = False
    pairs = labels[:-1][has_next[:-1]] * n + labels[1:][has_next[:-1]]

    pi = _smoothed_rows(np.bincount(labels, minlength=n), smoothing)
    trans = _smoothed_rows(np.bincount(pairs, minlength=n * n).reshape(n, n), smoothing)
    if vocab is None:
        return HmcParams(pi=pi, trans=trans)
    m1 = len(vocab) + 1
    words = np.array(vocab.ids_of(chain.from_iterable(s.tokens for s in corpus)), dtype=np.intp)
    emit_counts = np.bincount(labels * m1 + words, minlength=n * m1).reshape(n, m1)
    return HmcParams(pi=pi, trans=trans, emit=_smoothed_rows(emit_counts, smoothing))


def _degenerate(direction: str, prepared: PreparedRows, marked: np.ndarray) -> NumericalDegeneracyError:
    """The error of an every-step pass whose `marked` rows found no mass, at
    the position that `scaled_forward` or `scaled_backward` names."""
    rows = np.flatnonzero(marked)
    if prepared.lengths is not None:  # positions within their sentences
        starts = np.cumsum(prepared.lengths) - prepared.lengths
        rows = rows - starts[np.searchsorted(starts, rows, side="right") - 1]
    t = rows.min() if direction == "forward" else max(rows.max() - 1, 0)
    return NumericalDegeneracyError(f"{direction} pass degenerated to zero mass at position {t}")


class PreparedRows(NamedTuple):
    """A posterior's (ΣT, N) emission rows as both recursions read them;
    `prepare_rows` builds it, and `scaled_forward`/`scaled_backward` take it
    in place of the matrix, with the `lengths` and `every` it was built for."""

    raw: np.ndarray  # the rows as given, in float64, each +inf entry made NaN
    lengths: Optional[np.ndarray]  # the checked sentence lengths; None for one sentence
    every: int
    packed: np.ndarray  # the rows, over their maxima when every > 1, in `_packed` order
    bounds: list[int]
    place: Optional[np.ndarray]
    back: Optional[np.ndarray]
    reverse: Optional[np.ndarray]
    peaks: Optional[np.ndarray]  # each row's maximum (at least LEAST_NORMAL) when every > 1


def _row_maxima(rows: np.ndarray) -> np.ndarray:
    """Each row's maximum, or float64's least normal number if that is more
    (an all-zero row), so that no row is divided by zero."""
    # over a column-major copy the reduction's inner loop runs down the long
    # axis, not along rows of N: over an 8,192-row bucket that takes 40 % less
    # time, and over one sentence no more than a microsecond more
    return np.maximum.reduce(np.asfortranarray(rows), axis=1, initial=LEAST_NORMAL)


def prepare_rows(emissions, lengths=None, every: int = 1) -> PreparedRows:
    """The rows that both recursions of one posterior read, built once.

    `emissions` is a (ΣT, N) array-like of sentences of `lengths` stacked
    (one sentence with no `lengths`).  With `every` > 1 each row is
    divided by its maximum, as the schedule of `_recursion` requires;
    then the rows are `_packed`.  The record keeps the rows as given too,
    for the sentences that run again at every = 1.  An entry of +inf
    becomes NaN there, so that it degenerates where a NaN does, at its own
    position, rather than at the next after an inf / inf.
    """
    # an int first: the test for the ABC takes ten times as long
    if not (type(every) is int or isinstance(every, Integral)) or every < 1:
        raise InvalidInputError(f"rescaling interval must be an integer >= 1, got {every!r}")
    raw = real_array(emissions, "emissions must be a real (T, N) matrix")
    if raw.ndim != 2:
        raise InvalidInputError(f"a chain takes (T, N) emissions, not an array of {raw.shape}")
    peaks = None
    if every > 1:  # the maxima carry the check: one is +inf or NaN if any entry is
        peaks = _row_maxima(raw)
    if not np.maximum.reduce(raw if peaks is None else peaks, None, initial=0.0) < np.inf:
        infinite = raw == np.inf
        if infinite.any():
            raw = np.where(infinite, np.nan, raw)
            peaks = None if peaks is None else _row_maxima(raw)
    if lengths is not None:
        lengths = check_lengths(lengths, len(raw))
    packed = _packed(raw if peaks is None else raw / peaks[:, None], lengths)
    return PreparedRows(raw, lengths, every, *packed, peaks)


def _prepared(emissions, lengths, trans, pi=None):
    """`emissions` prepared for `lengths` at every step, or, if it is a record
    already, that record, which brings its own lengths; then `trans` and
    `pi` as float64 arrays, but for the backward, which has no `pi`, a
    `ReversedStep` as it is.  Shapes that do not fit the chain, compared
    alone, are refused."""
    if not isinstance(emissions, PreparedRows):
        emissions = prepare_rows(emissions, lengths)
    elif lengths is not None:
        raise InvalidInputError(f"a prepared record brings its own lengths, not {lengths}")
    if pi is None and isinstance(trans, ReversedStep):
        shape = trans.step.shape
    else:
        trans = real_array(trans, "a chain's transitions must be real numbers")
        shape = trans.shape
    if pi is not None:
        pi = real_array(pi, "a chain's prior must be real numbers")
    n = emissions.raw.shape[1:]
    if shape != n * 2 or (pi is not None and pi.shape != n):
        prior = "" if pi is None else f", prior {pi.shape}"
        raise InvalidInputError(
            "a chain of N labels takes (T, N) emissions, (N, N) transitions and an (N,) "
            f"prior, not emissions {emissions.raw.shape}, transitions {shape}{prior}"
        )
    return emissions, trans, pi


def _recursion(prior, step: np.ndarray, prepared: PreparedRows,
               pres: np.ndarray, rows: np.ndarray) -> tuple[np.ndarray, bool]:
    """The one scaled recursion, in place over two lattices packed as
    `prepared` packs its rows: `rows` holds the rows that the steps read on
    entry and the recursion's rows on exit.  pres[t] = rows[t - 1] @ `step`
    (`prior` at a sentence's first position), then rows[t] = read_t *
    pres[t], in packed order, so both lattices are bitwise that textbook
    step's.  While two or more sentences run, a step is one stacked matmul
    in the per-row (1, N) @ (N, N) form; then the longest runs on alone, as
    one sentence does throughout.

    A row is normalized, and its sum is its scale, where t % k == k - 1 or
    t ends its sentence (t within it, k the interval of `prepared`); other
    scales are 1.  With the reads at most 1 and no row of `step` summing to
    more than 1, mass cannot grow, so no row's or product's largest entry
    falls below its block's closing sum over N.  A sum at most RESCALE_GUARD
    (at every step, 0) or NaN becomes NaN, which the division spreads to
    the rest of the sentence without a warning.  Returns the scales, in
    packed order, and whether a block fell.
    """
    bounds, every = prepared.bounds, prepared.every
    # a step alone is a few numpy calls on N-vectors, so name lookups, keyword
    # parsing and `np.dot`'s dispatch would be a visible share of it: the
    # calls are bound once, take their output positionally, and the product
    # is the array method, which runs the same BLAS call as `np.dot`
    multiply, divide, add = np.multiply, np.divide, np.add.reduce
    scales = np.ones(len(rows))
    floor = RESCALE_GUARD if every > 1 else 0.0
    fell = False  # a block closed under the guard
    closing = every - 1
    start, shared = bounds[-1], len(bounds) - 1
    prev, tail = None, (pres, rows)
    if start:  # two or more sentences: stacked steps, then the longest alone
        for t, (lo, hi) in enumerate(zip(bounds, bounds[1:])):
            pre, row = pres[lo:hi], rows[lo:hi]
            if prev is None:
                pre[...] = prior
            else:
                np.matmul(prev[: hi - lo, None, :], step, pre[:, None, :])
            multiply(row, pre, row)
            if t % every == closing:
                s = scales[lo:hi]
                add(row, 1, None, s)
                if not (s > floor).all():
                    s[~(s > floor)], fell = np.nan, True
                divide(row, s[:, None], row)
            prev = row
        prev, tail = prev[0], (pres[start:], rows[start:])
    last = shared + len(tail[0]) - 1
    for t, pre, row in zip(range(shared, last + 1), *tail):
        if prev is None:
            pre[...] = prior
        else:
            prev.dot(step, pre)
        multiply(row, pre, row)
        if t % every == closing or t == last:
            s = add(row)
            if not s > floor:
                s, fell = np.nan, True
            divide(row, s, row)
            scales[start + t - shared] = s  # a row not normalized keeps its scale of 1
        prev = row
    if shared and every > 1:  # the last rows of sentences that end while others run on
        lengths = prepared.lengths
        ends = prepared.place[(np.cumsum(lengths) - 1)[(lengths <= shared) & (lengths % every != 0)]]
        ended = rows[ends]
        s = add(ended, 1)
        if not (s > floor).all():
            s[~(s > floor)], fell = np.nan, True
        rows[ends], scales[ends] = divide(ended, s[:, None], ended), s
    return scales, fell


def _every_step(prepared: PreparedRows, marked: np.ndarray,
                direction: str = "") -> tuple[np.ndarray, PreparedRows]:
    """The rows of the sentences that hold a `marked` row, and those rows as
    given, prepared to run at every step; if a `direction` pass ran them so
    already, it found them degenerate."""
    if prepared.every == 1 and direction:
        raise _degenerate(direction, prepared, marked)
    lengths = prepared.lengths
    if lengths is None:
        rows = np.arange(len(marked))
    else:
        ends = np.cumsum(lengths)
        which = np.unique(np.searchsorted(ends, np.flatnonzero(marked), side="right"))
        rows = np.concatenate([np.arange(ends[i] - lengths[i], ends[i]) for i in which])
        lengths = lengths[which]
    return rows, prepare_rows(prepared.raw.take(rows, axis=0), lengths)


def scaled_forward(
    pi: np.ndarray, trans: np.ndarray, emissions, lengths=None
) -> tuple[np.ndarray, np.ndarray]:
    """Forward recursion over an explicit T x N emission matrix: `_recursion`
    from `pi` over `trans`, each row normalized to sum 1, so the lattice is
    bitwise that of the step `emissions[t] * (alphas[t - 1] @ trans)`.  The
    unscaled value is alpha[t] * prod(scales[:t+1]), and the product of all
    scales is the total observation probability.  Given `lengths`, the
    sentences of those lengths come stacked, and so do the results; or
    `emissions` is a `prepare_rows` record, which brings its own lengths
    and interval k (a matrix runs every step).  For k > 1 a row is first
    divided by its maximum, which its scale takes, and normalized on the
    schedule.  A sentence with a block under RESCALE_GUARD runs again at
    every step, so it gives the rows, or raises the error, of every step:
    at its first row with no mass.
    """
    prepared, trans, pi = _prepared(emissions, lengths, trans, pi)
    pres, alphas = np.empty(prepared.packed.shape), prepared.packed.copy()
    scales, fell = _recursion(pi, trans, prepared, pres, alphas)
    if prepared.place is not None:  # into the products' lattice; "clip" spares a buffer
        alphas, scales = alphas.take(prepared.place, 0, pres, "clip"), scales.take(prepared.place)
    if prepared.every > 1:
        scales *= prepared.peaks
    if fell:
        rows, again = _every_step(prepared, np.isnan(scales), "forward")
        alphas[rows], scales[rows] = scaled_forward(pi, trans, again)
    return alphas, scales


def scaled_backward(
    trans, emissions, lengths=None
) -> tuple[np.ndarray, np.ndarray]:
    """Backward recursion: `_recursion` from a prior of ones over each
    sentence's rows last first, a row of ones read in place of its first.

    beta[t] = gamma[t + 1] @ trans.T with gamma[t] = emissions[t] * beta[t],
    so the product that the step reading row t forms is beta[t], and those
    are the returned rows.  Each label's emissions are weighted by the mass
    that `trans` moves into it, over the largest such, and the step is
    `trans.T` with that mass divided out, so a row is normalized by what the
    next step keeps of it.  `trans` may be the chain's `ReversedStep`, that
    step and those weights as `HmcParams` derives them once; from a matrix
    they are derived for the call.  The run overwrites its own reversed,
    weighted copy of the rows.  Unscaled value: beta[t] * prod(scales[t:]),
    scale t being that of the step that read row t + 1 times the largest
    mass, and 1 at a sentence's end; the rest is as in `scaled_forward`,
    but that a step which finds no mass after reading row t zeroes
    beta[t - 1], and names that position (0 for the step of ones).
    """
    prepared, trans, _ = _prepared(emissions, lengths, trans)
    back = trans if isinstance(trans, ReversedStep) else _reversed_step(trans)
    packed, lengths = prepared.packed, prepared.lengths
    betas = np.empty(packed.shape)
    if lengths is None:  # the run's rows are the sentence's, last first, as are its products
        rows, lasts = packed[::-1] * back.weights, slice(-1, None)
        rows[lasts] = 1.0
        scales, fell = _recursion(1.0, back.step, prepared, betas[::-1], rows)
        scales = scales[::-1]
    else:
        rows, lasts = packed.take(prepared.reverse, axis=0), np.cumsum(lengths) - 1
        rows *= back.weights
        rows[prepared.place.take(lasts)] = 1.0
        scales, fell = _recursion(1.0, back.step, prepared, betas, rows)
        betas, scales = betas.take(prepared.back, 0, rows, "clip"), scales.take(prepared.back)
    marked = np.isnan(scales) if fell else None
    most = back.most
    scales[:-1] = scales[1:] * (most if prepared.every == 1 else prepared.peaks[1:] * most)
    scales[lasts] = 1.0
    if fell:
        rows, again = _every_step(prepared, marked, "backward")
        betas[rows], scales[rows] = scaled_backward(back, again)
    return betas, scales


def _packed(rows: np.ndarray, lengths):
    """Stacked sentences' rows packed step by step, longest sentence first.

    Packed rows `bounds[t]:bounds[t + 1]` are position t of the sentences
    longer than t, longest first (a stable sort), so each step's sentences
    are a prefix of the step before's and no row is padding.  `bounds`
    stops at the steps that two or more sentences run, so where the
    second-longest ends; the longest one's later rows follow, one a step.
    `place` is each row's place among them, which gathers lattices back in
    input order.  The backward's steps, which read each sentence's rows
    last first, take the same places by position from its end: `back` is
    the place of the step that reads each row, and `reverse` the packed
    row that each place's step reads.  With no `lengths` (checked ones),
    one sentence is its own packing, `bounds` is [0], and the maps None.
    """
    if lengths is None:
        return rows, [0], None, None, None
    order = np.argsort(-lengths, kind="stable")
    rank = np.empty_like(order)
    rank[order] = np.arange(len(order))
    # sentences longer than t, for each step t: the sort leaves them first
    live = np.searchsorted(-lengths[order], -np.arange(lengths.max()))
    bounds = np.concatenate(([0], np.cumsum(live)))
    ends = np.cumsum(lengths)
    index = np.arange(len(rows))
    pos = index - np.repeat(ends - lengths, lengths)
    place = bounds[pos] + np.repeat(rank, lengths)
    source = np.empty_like(place)
    source[place] = index
    # the step that reads row i is at the place of i's mirror image in its sentence
    back = place.take(np.repeat(2 * ends - lengths - 1, lengths) - index)
    shared = int((live > 1).sum())
    return (rows.take(source, axis=0), bounds[: shared + 1].tolist(), place, back,
            back.take(source))


def unscale(rows: np.ndarray, scales: np.ndarray, backward: bool = False) -> np.ndarray:
    """Reconstruct unscaled forward or backward values from scale factors."""
    rows, scales = np.asarray(rows), np.asarray(scales)
    if rows.ndim != 2 or scales.shape != rows.shape[:1]:
        raise InvalidInputError(
            f"a T x N lattice takes T scale factors, not {scales.shape} for rows {rows.shape}"
        )
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
    obs_arr = id_array(obs, "word ids")
    if obs_arr.min() < 0 or obs_arr.max() >= params.emit.shape[1]:
        raise InvalidInputError("word id outside emission table")
    return params.emit_rows.take(obs_arr, axis=0)  # (T, N): the recursions read rows


def forward(params: HmcParams, obs: Sequence[int]) -> tuple[np.ndarray, np.ndarray]:
    """Scaled forward lattice and per-step scale factors for a word-id sequence."""
    return scaled_forward(params.pi, params.trans, _emission_matrix(params, obs))


def backward(params: HmcParams, obs: Sequence[int]) -> tuple[np.ndarray, np.ndarray]:
    """Scaled backward lattice and per-step scale factors."""
    return scaled_backward(params.reversed_step, _emission_matrix(params, obs))


def posterior_from_lattices(alphas: np.ndarray, betas: np.ndarray, rerun=None) -> PosteriorLattice:
    """Combine scaled forward/backward rows; per-row scales cancel in the ratio.

    Given `rerun` (see `every_step_rerun`), the lattices are the schedule's,
    and rows whose denominator falls to POSTERIOR_GUARD are handed to it as
    a mask; it returns the lattices with their sentences run step by step.

    The lattices are taken as float64 arrays; text, complex, object or
    ragged ones are refused.  Products that are all finite and
    non-negative, with finite row sums, divide into rows that the lattice
    need not check again; any others take its full check.
    """
    alphas = real_array(alphas, "a forward lattice must be real numbers")
    betas = real_array(betas, "a backward lattice must be real numbers")
    if alphas.ndim != 2 or alphas.shape != betas.shape:
        raise InvalidInputError(
            f"lattices of shapes {alphas.shape} and {betas.shape}: both must be one T x N table"
        )
    prod = alphas * betas
    denom = np.add.reduce(prod, axis=1)
    # the least denominator decides both guards; it is NaN if any is, which fails both
    least = np.minimum.reduce(denom) if len(denom) else np.inf
    if rerun is not None and not least > POSTERIOR_GUARD:
        prod = np.multiply(*rerun(~(denom > POSTERIOR_GUARD)))
        denom = np.add.reduce(prod, axis=1)
        least = np.minimum.reduce(denom)
    if not least > 0.0:
        bad = np.nonzero(~(denom > 0.0))[0]
        raise NumericalDegeneracyError(
            f"posterior denominator underflowed at position {int(bad[0])}"
        )
    # the minimum is NaN if any product is; an infinite product makes its sum infinite
    normalised = (prod.size > 0 and np.minimum.reduce(prod, axis=None) >= 0.0
                  and np.maximum.reduce(denom) < np.inf)
    values = np.divide(prod, denom[:, None], out=prod)
    return PosteriorLattice._normalised(values) if normalised else PosteriorLattice(values)


def every_step_rerun(pi: np.ndarray, trans: np.ndarray, prepared: PreparedRows,
                     alphas: np.ndarray, betas: np.ndarray):
    """A `rerun` for `posterior_from_lattices`: given a mask of rows, the
    scheduled `alphas` and `betas` with the rows of each sentence that holds
    a masked row taken from both recursions at every = 1 over the matching
    raw rows of `prepared`, so that sentence gives the every-step posterior."""
    def rerun(marked: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        rows, again = _every_step(prepared, marked)
        alphas[rows] = scaled_forward(pi, trans, again)[0]
        betas[rows] = scaled_backward(trans, again)[0]
        return alphas, betas
    return rerun


def _posterior(params: HmcParams, emissions: np.ndarray, lengths=None) -> PosteriorLattice:
    """Run the scaled forward and backward recursions over one emission matrix,
    prepared once for both, each normalizing a row every RESCALE_EVERY steps;
    a sentence whose posterior denominator falls to POSTERIOR_GUARD runs
    again every step."""
    rows = prepare_rows(emissions, lengths, RESCALE_EVERY)
    alphas, _ = scaled_forward(params.pi, params.trans, rows)
    betas, _ = scaled_backward(params.reversed_step, rows)
    return posterior_from_lattices(
        alphas, betas, every_step_rerun(params.pi, params.trans, rows, alphas, betas))


def posterior_fb(params: HmcParams, obs: Sequence[int], lengths=None) -> PosteriorLattice:
    """Posterior marginals by classic Forward-Backward.

    Given `lengths`, `obs` holds sentences of those lengths one after
    another, and the lattice their stacked posteriors.
    """
    return _posterior(params, _emission_matrix(params, obs), lengths)


@dataclass(frozen=True)
class NaiveFeatureEmission:
    """Per-family conditional tables under the feature-independence assumption.

    The emission probability of a feature vector is the product of
    per-family conditionals.  A family's table has one column per value
    of its index family, in id order, then one for its unknown id.
    `stacked_rows` holds every family's value rows, then every family's
    unknown row, in the family by family layout of every `FeatureIndex`:
    row k is index id k's N emissions, which `naive_emission_matrix` gathers.
    """

    families: tuple[str, ...]
    tables: dict[str, np.ndarray]  # family -> (N, V_f + 1)
    stacked_rows: np.ndarray = field(init=False, repr=False, compare=False)  # (S, N)

    def __post_init__(self):
        for fam in self.families:
            _check_rows(self.tables[fam], f"family {fam!r}")
        tables = [self.tables[fam].T for fam in self.families]  # (V_f + 1, N)
        parts = [t[:-1] for t in tables] + [t[-1:] for t in tables]
        # into C order: concatenated alone, the transposed parts would come out F-ordered
        rows = np.concatenate(parts, out=np.empty((sum(map(len, parts)), tables[0].shape[1])))
        object.__setattr__(self, "stacked_rows", rows)


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
    try:
        ids = id_array(np.concatenate(feats), "feature ids")
    except ValueError:  # sentences whose id rows differ in width
        raise InvalidInputError("feature ids are ragged: sentences differ in width") from None
    if ids.ndim != 2 or ids.shape[1] != len(index.families):
        raise InvalidInputError("each sentence's feature ids must be a (T, families) array")
    y = id_array(list(chain.from_iterable(labels)), "labels")
    _check_labels(y, n_labels)
    bad = (ids < 0) | (ids >= index.size)
    if bad.any():
        raise InvalidInputError(f"feature id {int(ids[bad][0])} outside the index")
    flat = np.repeat(y, ids.shape[1]) * index.size + ids.ravel()
    counts = np.bincount(flat, minlength=n_labels * index.size).reshape(n_labels, -1)
    tables: dict[str, np.ndarray] = {}
    for fam, fids in index.value_ids.items():
        # copied to C order: row sums of the Fortran-ordered gather differ in the last bit
        table = np.ascontiguousarray(counts[:, [*fids.values(), index.unknown_ids[fam]]])
        tables[fam] = _smoothed_rows(table, smoothing)
    return NaiveFeatureEmission(index.families, tables)


def naive_emission_matrix(
    model: NaiveFeatureEmission, ids: Sequence[Sequence[int]]
) -> np.ndarray:
    """T x N product, in family order, of the `stacked_rows` of (T, F) ids."""
    ids = id_array(ids, "feature ids")
    if ids.ndim != 2 or ids.shape[1] != len(model.families):
        raise InvalidInputError("naive emission ids must be a (T, families) array")
    if ids.size and (ids.min() < 0 or ids.max() >= len(model.stacked_rows)):
        raise InvalidInputError("feature id outside the naive emission tables")
    # gathered family-major, (F, T, N): the reduction multiplies whole
    # (T, N) slabs in family order, as a product over each input's F rows does
    return np.multiply.reduce(model.stacked_rows.take(ids.T, axis=0), axis=0)


def posterior_naive_features(
    params: HmcParams, model: NaiveFeatureEmission, ids: Sequence[Sequence[int]],
    lengths=None, token_rows=None,
) -> PosteriorLattice:
    """Forward-Backward posterior with the independence-product emission.

    `lengths` stacks sentences as in `posterior_fb`.  Given `token_rows`,
    token t's ids are row token_rows[t] of `ids`, so each row is scored once
    however many tokens share it; by default each token has its own row.
    """
    if len(ids) == 0:
        raise InvalidInputError("observation sequence must be non-empty")
    emissions = naive_emission_matrix(model, ids)
    if token_rows is not None:
        emissions = emissions.take(check_token_rows(token_rows, len(emissions)), axis=0)
    return _posterior(params, emissions, lengths)
