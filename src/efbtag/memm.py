"""MEMM baseline: forward-only recursion over discriminative conditionals.

A MEMM is two logistic models, which a memm `Tagger` builds from its
arrays: `l0` scores a sentence's first position and `l1`, conditioned on
the previous label, every later one.  A model whose flag does not fit
its place raises from `predict` or `predict_all_prev`, and models of
different label counts from `forward_lattice`.

The posterior at position t only depends on observations 1..t, so
decoding needs no backward pass and each forward row is already a
probability distribution.

Given sentence `lengths`, the functions take sentences stacked one
after another and run them in lockstep: step t advances only the
sentences longer than t, and the lattices come back stacked.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

from .core import check_lengths, check_token_rows, id_array, real_array
from .discrim import LogisticModel, predict, predict_all_prev
from .errors import InvalidInputError

_REAL = "conditional rows and tables must be real numbers"


def forward_lattice(
    first: np.ndarray, steps: Sequence[np.ndarray] | Iterable[np.ndarray], lengths=None
) -> np.ndarray:
    """Forward recursion from explicit conditional tables.

    `first` is the length-N distribution at t=1; steps[t-1] is an N x N
    table whose entry (i, j) is the probability of label i given
    previous label j at position t+1.  Rows are never renormalized: if
    the inputs are distributions, each output row sums to 1 exactly by
    construction.

    Given B sentences' `lengths`, `first` is their (B, N) first rows and
    step t a (L, N, N) stack of tables, one per sentence longer than t, in
    sentence order.  In both forms steps may be produced one at a time,
    `first` and every step are taken as their float64 arrays, and complex,
    text, object or ragged entries are refused.
    """
    first = real_array(first, _REAL)
    if lengths is not None:
        return _lockstep_lattice(first, steps, lengths)
    if first.ndim != 1:
        raise InvalidInputError(f"the first row must be a length-N vector, not of shape "
                                f"{first.shape}")
    # the decode path's one (T - 1, N, N) array of tables is checked once
    steps = (real_array(steps, _REAL) if isinstance(steps, np.ndarray)
             else [real_array(table, _REAL) for table in steps])
    n = len(first)
    alphas = np.empty((len(steps) + 1, n))
    alphas[0] = first
    for t, table in enumerate(steps):
        if table.shape != (n, n):
            raise InvalidInputError("conditional table shape mismatch")
        np.matmul(table, alphas[t], out=alphas[t + 1])
    return alphas


def _lockstep_lattice(first: np.ndarray, steps, lengths) -> np.ndarray:
    """`forward_lattice` of stacked sentences, one matmul of the live rows a step."""
    lengths = check_lengths(lengths)
    if first.ndim != 2 or len(first) != len(lengths):
        raise InvalidInputError(f"{len(lengths)} sentences need {len(lengths)} first rows")
    n = first.shape[1]
    starts = np.cumsum(lengths) - lengths
    alphas = np.empty((int(lengths.sum()), n))
    alphas[starts] = first
    t = 0
    for t, tables in enumerate((real_array(table, _REAL) for table in steps), 1):
        rows = starts[lengths > t] + t
        if tables.shape != (len(rows), n, n):
            raise InvalidInputError("conditional table shape mismatch")
        # the per-sentence (N, N) @ (N, 1) product of each live row
        before = alphas.take(rows - 1, axis=0)
        alphas[rows] = np.matmul(tables, before[:, :, None])[:, :, 0]
    if t != lengths.max() - 1:
        raise InvalidInputError(f"{t} conditional steps for sentences of {lengths.max()}")
    return alphas


def memm_forward(
    l0: LogisticModel, l1: LogisticModel, obs: Sequence[Sequence[int]],
    lengths=None, token_rows=None,
) -> np.ndarray:
    """T x N forward lattice for one sentence's (T, F) feature ids, or the
    stacked lattices of stacked sentences of `lengths`.

    Stacked sentences are scored once per model: l0 on each sentence's
    first row, and l1 in one `predict_all_prev` call on every row of `obs`,
    from whose (K, N, N) tables each step takes its own.  Given
    `token_rows`, token t's ids are row token_rows[t] of `obs`; by default
    each token has its own row.
    """
    obs = id_array(obs, "feature ids")
    if len(obs) == 0:
        raise InvalidInputError("observation sequence must be non-empty")
    if lengths is not None:
        rows = np.arange(len(obs)) if token_rows is None else check_token_rows(token_rows, len(obs))
        lengths = check_lengths(lengths, len(rows))
        starts = np.cumsum(lengths) - lengths
        # no row's scores depend on the rows scored with it; a bucket of
        # one-token sentences takes no step, and scores no rows with l1
        first = predict(l0, obs.take(rows[starts], axis=0))
        tables = predict_all_prev(l1, obs if lengths.max() > 1 else obs[:0])
        steps = (
            tables.take(rows[starts[lengths > t] + t], axis=0)
            for t in range(1, lengths.max())
        )
        return forward_lattice(first, steps, lengths)
    if token_rows is not None:
        obs = obs.take(check_token_rows(token_rows, len(obs)), axis=0)
    # scored even when empty, so that a mis-flagged l1 raises for one token too
    return forward_lattice(predict(l0, obs[0]), predict_all_prev(l1, obs[1:]))

