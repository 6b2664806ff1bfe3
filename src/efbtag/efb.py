"""Entropic Forward-Backward posterior decoding.

The classic scaled recursions of `hmc` run on per-position conditional
label distributions produced by any discriminative model, divided by
the stationary prior, and yield exactly the posterior marginals of the
matched generative chain.  No emission table is involved, so arbitrary
token features can drive the decoder.

EFB runs on any `HmcParams` chain (pi, A); an emission table, if the
chain carries one, is ignored.  On a plain chain a sentence's
observations are its T x N conditional matrix itself, as a
discriminative model scores the whole sentence in one call;
`conditional_matrix` then only checks and floors it.  An `EfbParams` is
the same chain plus an `l_provider` that fills row t from `obs[t]`, so
the observations may be anything the provider reads (symbol ids, feature
rows).  The rows then take the matrix's checks and floor, so both forms
give the same posteriors to the bit.

Every function takes `lengths=None`; given sentence lengths, `obs` holds
those sentences one after another (stacked conditional rows, or the
provider's inputs), the recursions run them in lockstep, and the results
come back stacked in the same order.

The entropic recursions rescale at every step.  `posterior_efb` builds
L / pi once, as one `hmc.prepare_rows` record on the rescaling schedule,
which both read with its lengths and interval.  It runs them through
`entropic_forward`/`entropic_backward` and `conditional_matrix`, not
through `hmc`'s recursions directly, because the benchmark's traced decode
requires those three calls by name.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

from .core import PosteriorLattice, check_lengths, real_array
from .errors import InvalidInputError
from .hmc import (
    RESCALE_EVERY, HmcParams, PreparedRows, every_step_rerun, posterior_from_lattices,
    prepare_rows, scaled_backward, scaled_forward,
)

# floor for conditional label probabilities; softmax providers never hit
# it, but table-backed providers may emit exact zeros
L_FLOOR = 1e-300

# maps (per-position input, position) to a length-N probability vector
LProvider = Callable[[object, int], np.ndarray]


@dataclass(frozen=True)
class EfbParams(HmcParams):
    """A chain (pi, A) whose observations a conditional-label provider reads row by row."""

    l_provider: Optional[LProvider] = field(default=None, kw_only=True)


def conditional_matrix(
    params: HmcParams, obs: Sequence | np.ndarray, lengths=None
) -> np.ndarray:
    """The T x N conditional matrix, floored at L_FLOOR.

    `obs` is that matrix, unless `params` is an `EfbParams` with a
    provider: then row t is the provider's output for `obs[t]`, with t
    counted within its sentence when `lengths` is given.  A row
    that is not a length-N vector, or a text or complex entry, raises
    InvalidInputError instead of being broadcast or cast.
    """
    n = params.n_labels
    if isinstance(params, EfbParams) and params.l_provider is not None:
        if len(obs) == 0:
            raise InvalidInputError("observation sequence must be non-empty")
        positions = range(len(obs))
        if lengths is not None:
            lengths = check_lengths(lengths, len(obs))
            starts = np.repeat(np.cumsum(lengths) - lengths, lengths)
            positions = (np.arange(len(obs)) - starts).tolist()
        rows = []
        for t, item in zip(positions, obs):
            row = params.l_provider(item, t)
            if np.shape(row) != (n,):
                raise InvalidInputError(
                    f"conditional row {t} has shape {np.shape(row)}, expected ({n},)"
                )
            rows.append(row)
        obs = rows
    lmat = real_array(obs, "conditional matrix must be numeric")
    if lmat.ndim != 2 or lmat.shape[0] == 0 or lmat.shape[1] != n:
        raise InvalidInputError(
            f"conditional matrix has shape {lmat.shape}, expected (T >= 1, {n})"
        )
    if lengths is not None:
        check_lengths(lengths, len(lmat))
    return np.maximum(lmat, L_FLOOR)


def entropic_forward(
    params: HmcParams, obs: Sequence | np.ndarray, lengths=None
) -> tuple[np.ndarray, np.ndarray]:
    """Entropic forward lattice: the scaled forward recursion on L / pi.

    The base case pi * (L[0] / pi) is L[0].  Unscaled value at t is
    alphas[t] * prod(scales[:t+1]).  It rescales at every step, unless
    `obs` is the `hmc.prepare_rows` record of L / pi, which brings its own
    lengths and rescaling interval, as in `scaled_forward`.
    """
    if not isinstance(obs, PreparedRows):
        obs = conditional_matrix(params, obs, lengths) / params.pi
    return scaled_forward(params.pi, params.trans, obs, lengths)


def entropic_backward(
    params: HmcParams, obs: Sequence | np.ndarray, lengths=None
) -> tuple[np.ndarray, np.ndarray]:
    """Entropic backward lattice; unscaled value at t is betas[t] * prod(scales[t:]).
    `obs` may be a record, as in `entropic_forward`."""
    if not isinstance(obs, PreparedRows):
        obs = conditional_matrix(params, obs, lengths) / params.pi
    return scaled_backward(params.reversed_step, obs, lengths)


def posterior_efb(
    params: HmcParams, obs: Sequence | np.ndarray, lengths=None
) -> PosteriorLattice:
    """Posterior marginals from the entropic recursions (scales cancel) over
    L / pi, built once for both, each normalizing a row every RESCALE_EVERY
    steps; a sentence whose posterior denominator falls to
    `hmc.POSTERIOR_GUARD` runs again every step."""
    rows = prepare_rows(conditional_matrix(params, obs, lengths) / params.pi, lengths,
                        RESCALE_EVERY)
    alphas, _ = entropic_forward(params, rows)
    betas, _ = entropic_backward(params, rows)
    return posterior_from_lattices(
        alphas, betas, every_step_rerun(params.pi, params.trans, rows, alphas, betas))

