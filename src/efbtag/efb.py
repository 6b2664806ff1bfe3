"""Entropic Forward-Backward posterior decoding.

The classic scaled recursions of `hmc` run on per-position conditional
label distributions produced by any discriminative model, divided by
the stationary prior, and yield exactly the posterior marginals of the
matched generative chain.  No emission table is involved, so arbitrary
token features can drive the decoder.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

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
    """Stationary prior, transition table, and a conditional-label provider."""

    pi: np.ndarray
    trans: np.ndarray
    l_provider: LProvider

    def __post_init__(self):
        check_chain(self.pi, self.trans)

    @property
    def n_labels(self) -> int:
        return self.pi.shape[0]


def conditional_matrix(params: EfbParams, obs: Sequence) -> np.ndarray:
    """Stack the provider's outputs into a T x N matrix, floored at L_FLOOR."""
    if len(obs) == 0:
        raise InvalidInputError("observation sequence must be non-empty")
    lmat = np.empty((len(obs), params.n_labels))
    for t, item in enumerate(obs):
        lmat[t] = params.l_provider(item, t)
    return np.maximum(lmat, L_FLOOR)


def entropic_forward(
    params: EfbParams, obs: Sequence
) -> tuple[np.ndarray, np.ndarray]:
    """Entropic forward lattice: the scaled forward recursion on L / pi.

    The base case pi * (L[0] / pi) is L[0].  Unscaled value at t is
    alphas[t] * prod(scales[:t+1]).
    """
    return scaled_forward(
        params.pi, params.trans, conditional_matrix(params, obs) / params.pi
    )


def entropic_backward(
    params: EfbParams, obs: Sequence
) -> tuple[np.ndarray, np.ndarray]:
    """Entropic backward lattice; unscaled value at t is betas[t] * prod(scales[t:])."""
    return scaled_backward(params.trans, conditional_matrix(params, obs) / params.pi)


def posterior_efb(params: EfbParams, obs: Sequence) -> PosteriorLattice:
    """Posterior marginals from the entropic recursions (scales cancel)."""
    alphas, _ = entropic_forward(params, obs)
    betas, _ = entropic_backward(params, obs)
    return posterior_from_lattices(alphas, betas)


def decode_efb(params: EfbParams, obs: Sequence) -> list[int]:
    """Maximum-posterior-mode labels for one sentence's per-position inputs."""
    return mpm_from_lattice(posterior_efb(params, obs))
