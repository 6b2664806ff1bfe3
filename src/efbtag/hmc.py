"""Classic generative hidden Markov chain.

Parameter estimation by frequency counting with additive smoothing,
scaled Forward-Backward recursions, posterior marginals, and the
feature-independence emission baseline, which counts and gathers its
per-family tables over the same `FeatureIndex` ids as the other
featured decoders.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from itertools import chain
from numbers import Integral
from typing import NamedTuple, Optional, Sequence

import numpy as np

from .core import (
    LabeledSentence, PosteriorLattice, TagSet, Vocabulary, check_lengths, check_token_rows,
    id_array,
)
from .errors import InvalidInputError, NumericalDegeneracyError
from .features import FeatureIndex

PROB_TOL = 1e-12
DEFAULT_SMOOTHING = 1e-6
# the posteriors run the recursions with `every` = RESCALE_EVERY: a posterior
# reads only each row of alpha * beta over its sum, so a row need not be
# normalized at every step, only often enough that none underflows
RESCALE_EVERY = 8
# a block of steps whose closing sum falls to this is run again step by step,
# so every row in a block keeps at least this mass (or, backward, this largest
# entry over N), and what it loses to float64's subnormal range, whose values
# are under 2.2e-308, is under 1e-207 of it
RESCALE_GUARD = 1e-100
# that bounds each lattice, not their overlap: on the schedule a posterior's
# denominator is the every-step one times its alpha and beta rows' block
# masses, so as small as the every-step one times RESCALE_GUARD squared.  A
# sentence whose scheduled denominator falls to this is run again step by
# step; above it, since no scheduled alpha or beta entry exceeds 1, a product
# entry lost to the subnormal range is under 1e-107 of the denominator
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


@dataclass(frozen=True)
class HmcParams:
    """A chain (pi, A), plus a word emission table for hmc-fb only.

    `emit` has one column per trained word plus a trailing unknown-word
    column, or is None for a bare (pi, A) chain; every row is a distribution.
    `emit_rows` is `emit.T` copied to C order, (M+1, N), so a word's N
    emissions are one contiguous row for `posterior_fb` to gather.
    """

    pi: np.ndarray     # (N,)
    trans: np.ndarray  # (N, N), trans[i, j] = P(next=j | cur=i)
    emit: Optional[np.ndarray] = None  # (N, M+1), last column is the unknown-word slot
    emit_rows: Optional[np.ndarray] = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        check_chain(self.pi, self.trans)
        if self.emit is None:
            return
        if self.emit.ndim != 2 or self.emit.shape[0] != self.n_labels:
            raise InvalidInputError("emission table shape mismatch")
        _check_rows(self.emit, "emission")
        object.__setattr__(self, "emit_rows", np.ascontiguousarray(self.emit.T))

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


def _degenerate(direction: str, t: int) -> NumericalDegeneracyError:
    return NumericalDegeneracyError(f"{direction} pass degenerated to zero mass at position {t}")


def _check_every(every) -> None:
    # an int first: the test for the ABC takes ten times as long
    if not (type(every) is int or isinstance(every, Integral)) or every < 1:
        raise InvalidInputError(f"rescaling interval must be an integer >= 1, got {every!r}")


class PreparedRows(NamedTuple):
    """A posterior's (ΣT, N) emission rows as both recursions read them;
    `prepare_rows` builds it, and `scaled_forward`/`scaled_backward` take it
    in place of the matrix, for the `lengths` and `every` it was built for."""

    raw: np.ndarray  # the rows as given, in float64, each +inf entry made NaN
    lengths: Optional[np.ndarray]  # the checked sentence lengths; None for one sentence
    every: int
    packed: np.ndarray  # the rows, over their maxima when every > 1, in `_packed` order
    bounds: list[int]
    place: Optional[np.ndarray]
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
    divided by its maximum, as the schedule of `scaled_forward` requires;
    then the rows are `_packed`.  The record keeps the rows as given too,
    for the sentences that run again at every = 1.  An entry of +inf
    becomes NaN there, so that it degenerates where a NaN does, at its own
    position, rather than at the next after an inf / inf.
    """
    _check_every(every)
    try:
        raw = np.asarray(emissions)
        if raw.dtype.kind not in "biuf":  # a complex entry would lose its imaginary part
            raise TypeError
        raw = raw.astype(np.float64, copy=False)
    except (TypeError, ValueError):
        raise InvalidInputError("emissions must be a real (T, N) matrix") from None
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
    packed, bounds, place = _packed(raw if peaks is None else raw / peaks[:, None], lengths)
    return PreparedRows(raw, lengths, every, packed, bounds, place, peaks)


def _prepared(emissions, lengths, every) -> PreparedRows:
    """`emissions` prepared for `lengths` and `every`, or, if it is a record
    already, that record, which must have been prepared for them."""
    if not isinstance(emissions, PreparedRows):
        return prepare_rows(emissions, lengths, every)
    _check_every(every)
    if every != emissions.every or not (
        lengths is emissions.lengths or np.array_equal(lengths, emissions.lengths)
    ):
        raise InvalidInputError(
            f"rows prepared for lengths {emissions.lengths} and every = {emissions.every} "
            f"are run with lengths {lengths} and every = {every!r}"
        )
    return emissions


def _misshapen(emissions: np.ndarray, trans: np.ndarray, pi=None) -> InvalidInputError:
    """The error of shapes that a recursion, comparing them alone, found unfit."""
    prior = "" if pi is None else f", prior {pi.shape}"
    return InvalidInputError(
        "a chain of N labels takes (T, N) emissions, (N, N) transitions and an (N,) "
        f"prior, not emissions {emissions.shape}, transitions {trans.shape}{prior}"
    )


def _under_guard(sums: np.ndarray, scheduled: bool, direction: str, t) -> bool:
    """Mark stacked `sums` that fell to the guard.  At every = 1 that is a
    degeneracy at step t; on a schedule they become NaN, which the division
    spreads to their rows without a warning and `_redo_every_step` finds."""
    if not scheduled:
        raise _degenerate(direction, t)
    sums[~(sums > RESCALE_GUARD)] = np.nan
    return True


def _sentence_rows(lengths, marked: np.ndarray) -> tuple[np.ndarray, np.ndarray | None]:
    """The rows of the stacked sentences that hold a `marked` row, and their
    lengths; with no `lengths`, every row of the one sentence and None."""
    if lengths is None:
        return np.arange(len(marked)), None
    lengths = np.asarray(lengths)
    ends = np.cumsum(lengths)
    which = np.unique(np.searchsorted(ends, np.flatnonzero(marked), side="right"))
    rows = np.concatenate([np.arange(ends[i] - lengths[i], ends[i]) for i in which])
    return rows, lengths[which]


def _redo_every_step(recursion, prepared: PreparedRows, lattice: np.ndarray,
                     scales: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """`lattice` and `scales`, with the rows of each sentence that holds a NaN
    scale taken from `recursion` run over its raw rows with every = 1."""
    rows, sizes = _sentence_rows(prepared.lengths, np.isnan(scales))
    lattice[rows], scales[rows] = recursion(prepared.raw.take(rows, axis=0), sizes, 1)
    return lattice, scales


def scaled_forward(
    pi: np.ndarray, trans: np.ndarray, emissions, lengths=None, every: int = 1
) -> tuple[np.ndarray, np.ndarray]:
    """Forward recursion over an explicit T x N emission matrix.

    Each row is normalized to sum 1; `scales` holds the normalizers, so
    the unscaled value is alpha[t] * prod(scales[:t+1]) and the product
    of all scales is the total observation probability.  Rows are
    written in place into the returned lattice, with the operations of
    the textbook step `emissions[t] * (alphas[t - 1] @ trans)` in that
    order, so the lattice is bitwise the one that step gives.

    Given `lengths`, `emissions` holds sentences of those lengths stacked,
    and the lattices and scales come back stacked alike.  Their `_packed`
    rows run in two phases: while two or more sentences run, a step is one
    stacked matmul in the per-row (1, N) @ (N, N) form; then the longest
    runs on alone, a row at a time, as one sentence does throughout.

    Given `every` = k > 1, each emission row is first divided by its
    maximum, and a row is normalized only where t % k == k - 1 or t is
    its sentence's last position, t counted within the sentence, so
    stacked sentences still give their own bytes.  A row's scale is its
    emission maximum, times its sum where it is normalized, so the
    unscaled value and the product of the scales keep their meaning.
    With emission rows at most 1 and `trans` row-stochastic, a row's mass
    is at most the mass of the row before, so the sum that closes a block
    of steps is the least mass in it: a block that closes above
    RESCALE_GUARD lost nothing to underflow.  A sentence with a block
    that does not is run again with every = 1, and its rows spliced in,
    so it gives the rows, or raises the error, that every = 1 gives.

    `emissions` may also be the `prepare_rows` record of those rows, for
    these `lengths` and `every`, which a posterior builds once for both
    recursions; a matrix is prepared here.
    """
    prepared = _prepared(emissions, lengths, every)
    if prepared.raw.shape[1:] != pi.shape or trans.shape != pi.shape * 2:
        raise _misshapen(prepared.raw, trans, pi)
    packed, bounds, place = prepared.packed, prepared.bounds, prepared.place
    scheduled = every > 1
    # a step alone is four numpy calls on N-vectors, so name lookups, keyword
    # parsing and `np.dot`'s dispatch would be a visible share of it: the
    # calls are bound once, take their output positionally, and the product
    # is the array method, which runs the same BLAS call as `np.dot`
    multiply, divide, add = np.multiply, np.divide, np.add.reduce
    alphas = np.empty(packed.shape)
    scales = np.ones(len(packed))
    floor = RESCALE_GUARD if scheduled else 0.0
    fell = False  # a block closed under the guard
    closing = every - 1
    start, shared = bounds[-1], len(bounds) - 1
    prev, tail = None, (alphas, packed)
    if start:  # two or more sentences: stacked steps, then the longest alone
        for t, (lo, hi) in enumerate(zip(bounds, bounds[1:])):
            rows, emit = alphas[lo:hi], packed[lo:hi]
            if prev is None:
                multiply(pi, emit, rows)
            else:
                np.matmul(prev[: hi - lo, None, :], trans, rows[:, None, :])
                multiply(emit, rows, rows)
            if t % every == closing:
                s = scales[lo:hi]
                add(rows, 1, None, s)
                if not (s > floor).all():
                    fell = _under_guard(s, scheduled, "forward", t)
                divide(rows, s[:, None], rows)
            prev = rows
        prev, tail = prev[0], (alphas[start:], packed[start:])
    last = shared + len(tail[0]) - 1
    for t, row, emit in zip(range(shared, last + 1), *tail):
        if prev is None:
            multiply(pi, emit, row)
        else:
            prev.dot(trans, row)
            multiply(emit, row, row)
        if t % every == closing or t == last:
            s = add(row)
            if not s > floor:
                if not scheduled:
                    raise _degenerate("forward", t)
                s, fell = np.nan, True
            divide(row, s, row)
            scales[start + t - shared] = s  # a row not normalized keeps its scale of 1
        prev = row
    if start:
        alphas, scales = alphas.take(place, axis=0), scales.take(place)
    if not scheduled:
        return alphas, scales
    if shared:  # the last rows of sentences that end while others run on
        lengths = prepared.lengths
        ends = (np.cumsum(lengths) - 1)[(lengths <= shared) & (lengths % every != 0)]
        rows = alphas[ends]
        s = add(rows, 1)
        if not (s > floor).all():
            fell = _under_guard(s, scheduled, "forward", None)
        alphas[ends] = divide(rows, s[:, None], rows)
        scales[ends] = s
    scales *= prepared.peaks
    if fell:
        return _redo_every_step(partial(scaled_forward, pi, trans), prepared, alphas, scales)
    return alphas, scales


def scaled_backward(
    trans: np.ndarray, emissions, lengths=None, every: int = 1
) -> tuple[np.ndarray, np.ndarray]:
    """Backward recursion with the same row-normalization scheme.

    Unscaled value: beta[t] * prod(scales[t:]).  Like `scaled_forward`
    it writes rows in place, with the operations of the textbook step
    `trans @ (emissions[t + 1] * betas[t + 1])`; the product goes
    through one scratch vector.  `lengths` stacks sentences as there, and
    the phases run in reverse: the longest sentence alone, then stacked
    steps in the per-row (N, N) @ (N, 1) form on the sentences that ran at
    the step after; those that end at a step follow them, and start their
    pass there with a row of ones.

    Given `every` = k > 1, each emission row is first divided by its
    maximum, and a row is normalized only where t % k == 0, which every
    sentence's first position is.  Row t's scale is the maximum of the
    emission row t + 1 that its step reads (1 at a sentence's last
    position), times its sum where it is normalized.  With emission rows
    at most 1 and `trans` row-stochastic, no entry of a row exceeds the
    largest entry of the row after, so the sum that closes a block bounds
    the largest entry of every row in it to within a factor N: a block
    that closes above RESCALE_GUARD lost nothing to underflow.  A sentence
    with a block that does not is run again with every = 1, as in
    `scaled_forward`, which also takes a `prepare_rows` record.
    """
    prepared = _prepared(emissions, lengths, every)
    if trans.shape != prepared.raw.shape[1:] * 2:
        raise _misshapen(prepared.raw, trans)
    packed, bounds, place = prepared.packed, prepared.bounds, prepared.place
    scheduled = every > 1
    matvec, multiply, divide, add = trans.dot, np.multiply, np.divide, np.add.reduce
    betas = np.empty(packed.shape)
    scales = np.ones(len(packed))
    floor = RESCALE_GUARD if scheduled else 0.0
    fell = False  # a block closed under the guard
    start, shared = bounds[-1], len(bounds) - 1
    buf = np.empty(packed.shape[1])
    nxt = nxt_emit = None
    tail = slice(None, start - 1 if start else None, -1)  # rows `start:`, last first
    last = shared + len(packed) - start - 1
    for t, row, emit in zip(range(last, shared - 1, -1), betas[tail], packed[tail]):
        if nxt is None:
            row.fill(1.0)
        else:
            multiply(nxt_emit, nxt, buf)
            matvec(buf, row)
        if t % every == 0:
            s = add(row)
            if not s > floor:
                if not scheduled:
                    raise _degenerate("backward", t)
                s, fell = np.nan, True
            divide(row, s, row)
            scales[start + t - shared] = s
        nxt, nxt_emit = row, emit
    if start:
        # the rows after the last stacked step: the longest sentence's, if it ran on
        nxt, nxt_emit = betas[start : start + 1], packed[start : start + 1]
        buf = np.empty((bounds[1], packed.shape[1]))
        for t in range(shared - 1, -1, -1):
            lo, hi, m = bounds[t], bounds[t + 1], len(nxt)
            rows = betas[lo:hi]
            multiply(nxt_emit, nxt, buf[:m])
            np.matmul(trans, buf[:m, :, None], rows[:m, :, None])
            rows[m:] = 1.0
            if t % every == 0:
                s = scales[lo:hi]
                add(rows, 1, None, s)
                if not (s > floor).all():
                    fell = _under_guard(s, scheduled, "backward", t)
                divide(rows, s[:, None], rows)
            nxt, nxt_emit = rows, packed[lo:hi]
        betas, scales = betas.take(place, axis=0), scales.take(place)
    if not scheduled:
        return betas, scales
    # row t's step read emission row t + 1; a sentence's last row read none,
    # and keeps its scale.  The maxima are shared with the forward: not written
    follow = prepared.peaks[1:]
    if prepared.lengths is not None:
        follow = follow.copy()
        follow[np.cumsum(prepared.lengths)[:-1] - 1] = 1.0
    scales[:-1] *= follow
    if fell:
        return _redo_every_step(partial(scaled_backward, trans), prepared, betas, scales)
    return betas, scales


def _packed(emissions: np.ndarray, lengths) -> tuple[np.ndarray, list[int], np.ndarray | None]:
    """Stacked sentences' rows packed step by step, longest sentence first.

    Packed rows `bounds[t]:bounds[t + 1]` are position t of the sentences
    longer than t, longest first (a stable sort), so each step's sentences
    are a prefix of the step before's and no row is padding.  `bounds`
    stops at the steps that two or more sentences run, so where the
    second-longest ends; the longest one's later rows follow, one a step.
    Also returns each row's place among the packed rows, which gathers
    lattices back in input order.  With no `lengths`, one sentence is its
    own packing, and `bounds` is [0].  `lengths` are checked ones.
    """
    if lengths is None:
        return emissions, [0], None
    order = np.argsort(-lengths, kind="stable")
    rank = np.empty_like(order)
    rank[order] = np.arange(len(order))
    # sentences longer than t, for each step t: the sort leaves them first
    live = np.searchsorted(-lengths[order], -np.arange(lengths.max()))
    bounds = np.concatenate(([0], np.cumsum(live)))
    starts = np.cumsum(lengths) - lengths
    pos = np.arange(len(emissions)) - np.repeat(starts, lengths)
    place = bounds[pos] + np.repeat(rank, lengths)
    source = np.empty_like(place)
    source[place] = np.arange(len(place))
    shared = int((live > 1).sum())
    return emissions.take(source, axis=0), bounds[: shared + 1].tolist(), place


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
    return scaled_backward(params.trans, _emission_matrix(params, obs))


def posterior_from_lattices(alphas: np.ndarray, betas: np.ndarray, rerun=None) -> PosteriorLattice:
    """Combine scaled forward/backward rows; per-row scales cancel in the ratio.

    Given `rerun` (see `every_step_rerun`), the lattices are the schedule's,
    and rows whose denominator falls to POSTERIOR_GUARD are handed to it as
    a mask; it returns the lattices with their sentences run step by step.

    Float64 products that are all finite and non-negative, with finite row
    sums, divide into rows that the lattice need not check again; any
    others take its full check.
    """
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
    normalised = (prod.dtype == np.float64 and prod.size > 0
                  and np.minimum.reduce(prod, axis=None) >= 0.0
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
        rows, sizes = _sentence_rows(prepared.lengths, marked)
        again = prepare_rows(prepared.raw.take(rows, axis=0), sizes)
        alphas[rows] = scaled_forward(pi, trans, again, again.lengths)[0]
        betas[rows] = scaled_backward(trans, again, again.lengths)[0]
        return alphas, betas
    return rerun


def _posterior(params: HmcParams, emissions: np.ndarray, lengths=None) -> PosteriorLattice:
    """Run the scaled forward and backward recursions over one emission matrix,
    prepared once for both, each normalizing a row every RESCALE_EVERY steps;
    a sentence whose posterior denominator falls to POSTERIOR_GUARD runs
    again every step."""
    rows = prepare_rows(emissions, lengths, RESCALE_EVERY)
    alphas, _ = scaled_forward(params.pi, params.trans, rows, rows.lengths, RESCALE_EVERY)
    betas, _ = scaled_backward(params.trans, rows, rows.lengths, RESCALE_EVERY)
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
