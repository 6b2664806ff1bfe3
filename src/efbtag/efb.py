"""Entropic Forward-Backward posterior decoding.

The classic scaled recursions of `hmc` run on per-position conditional
label distributions produced by any discriminative model, divided by
the stationary prior, and yield exactly the posterior marginals of the
matched generative chain.  No emission table is involved, so arbitrary
token features can drive the decoder.

The conditionals come in one of two forms.  Built without a provider,
`EfbParams` takes a sentence's observations to be its T x N conditional
matrix itself, as a discriminative model scores the whole sentence in
one call; `conditional_matrix` then only floors it.  Built with an
`l_provider`, it asks the provider for each position's row in turn, so
the observations may be anything the provider reads (symbol ids, feature
rows).  Both forms give the same matrix, so the same posteriors to the
bit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .core import PosteriorLattice, mpm_from_lattice
from .errors import InvalidInputError
from .hmc import check_chain, posterior_from_lattices, scaled_backward, scaled_forward

# floor for conditional label probabilities; softmax providers never hit
# it, but table-backed providers may emit exact zeros
L_FLOOR = 1e-300

# maps (per-position input, position) to a length-N probability vector
LProvider = Callable[[object, int], np.ndarray]


@dataclass(frozen=True)
class EfbParams:
    """Stationary prior, transition table, and an optional conditional-label provider.

    With no provider, each observation sequence is the (T, N) conditional
    matrix of a sentence.
    """

    pi: np.ndarray
    trans: np.ndarray
    l_provider: Optional[LProvider] = None

    def __post_init__(self):
        check_chain(self.pi, self.trans)

    @property
    def n_labels(self) -> int:
        return self.pi.shape[0]


def conditional_matrix(params: EfbParams, obs: Sequence | np.ndarray) -> np.ndarray:
    """The T x N conditional matrix, floored at L_FLOOR.

    Without a provider `obs` is that matrix; with one, row t is the
    provider's output for `obs[t]`.  A row that is not a length-N vector
    raises InvalidInputError instead of being broadcast.
    """
    n = params.n_labels
    if params.l_provider is None:
        try:
            lmat = np.asarray(obs, dtype=np.float64)
        except (TypeError, ValueError):
            raise InvalidInputError("conditional matrix must be numeric") from None
        if lmat.ndim != 2 or lmat.shape[0] == 0 or lmat.shape[1] != n:
            raise InvalidInputError(
                f"conditional matrix has shape {lmat.shape}, expected (T >= 1, {n})"
            )
        return np.maximum(lmat, L_FLOOR)
    if len(obs) == 0:
        raise InvalidInputError("observation sequence must be non-empty")
    lmat = np.empty((len(obs), n))
    for t, item in enumerate(obs):
        row = params.l_provider(item, t)
        if np.shape(row) != (n,):
            raise InvalidInputError(
                f"conditional row {t} has shape {np.shape(row)}, expected ({n},)"
            )
        lmat[t] = row
    return np.maximum(lmat, L_FLOOR)


def entropic_forward(
    params: EfbParams, obs: Sequence | np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Entropic forward lattice: the scaled forward recursion on L / pi.

    The base case pi * (L[0] / pi) is L[0].  Unscaled value at t is
    alphas[t] * prod(scales[:t+1]).
    """
    return scaled_forward(
        params.pi, params.trans, conditional_matrix(params, obs) / params.pi
    )


def entropic_backward(
    params: EfbParams, obs: Sequence | np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Entropic backward lattice; unscaled value at t is betas[t] * prod(scales[t:])."""
    return scaled_backward(params.trans, conditional_matrix(params, obs) / params.pi)


def posterior_efb(params: EfbParams, obs: Sequence | np.ndarray) -> PosteriorLattice:
    """Posterior marginals from the entropic recursions (scales cancel)."""
    alphas, _ = entropic_forward(params, obs)
    betas, _ = entropic_backward(params, obs)
    return posterior_from_lattices(alphas, betas)


def decode_efb(params: EfbParams, obs: Sequence | np.ndarray) -> list[int]:
    """Maximum-posterior-mode labels for one sentence's per-position inputs."""
    return mpm_from_lattice(posterior_efb(params, obs))
