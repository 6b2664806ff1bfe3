"""MEMM baseline: forward-only recursion over discriminative conditionals.

The posterior at position t only depends on observations 1..t, so
decoding needs no backward pass and each forward row is already a
probability distribution.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .core import PosteriorLattice, TagSet, id_array, mpm_from_lattice
from .discrim import LogisticModel, predict, predict_all_prev
from .errors import InvalidInputError


@dataclass(frozen=True)
class MemmModel:
    """First-position conditional plus the previous-label-conditioned one."""

    l0: LogisticModel
    l1: LogisticModel
    tagset: TagSet

    def __post_init__(self):
        if self.l0.conditions_on_prev:
            raise InvalidInputError("l0 must not condition on the previous label")
        if not self.l1.conditions_on_prev:
            raise InvalidInputError("l1 must condition on the previous label")
        if self.l0.n_labels != self.l1.n_labels or self.l0.n_labels != len(self.tagset):
            raise InvalidInputError("l0, l1, and tag set disagree on label count")


def forward_lattice(
    first: np.ndarray, steps: Sequence[np.ndarray]
) -> np.ndarray:
    """Forward recursion from explicit conditional tables.

    `first` is the length-N distribution at t=1; steps[t-1] is an N x N
    table whose entry (i, j) is the probability of label i given
    previous label j at position t+1.  Rows are never renormalized: if
    the inputs are distributions, each output row sums to 1 exactly by
    construction.
    """
    n = first.shape[0]
    alphas = np.empty((len(steps) + 1, n))
    alphas[0] = first
    for t, table in enumerate(steps):
        if table.shape != (n, n):
            raise InvalidInputError("conditional table shape mismatch")
        alphas[t + 1] = table @ alphas[t]
    return alphas


def memm_forward(model: MemmModel, obs: Sequence[Sequence[int]]) -> np.ndarray:
    """T x N forward lattice for one sentence's (T, F) feature ids."""
    obs = id_array(obs, "feature ids")
    if len(obs) == 0:
        raise InvalidInputError("observation sequence must be non-empty")
    first = predict(model.l0, obs[0])
    steps = predict_all_prev(model.l1, obs[1:]) if len(obs) > 1 else []
    return forward_lattice(first, steps)


def decode_lattice(alphas: np.ndarray) -> list[int]:
    """Maximum-posterior-mode labels of a forward lattice whose rows are distributions."""
    return mpm_from_lattice(PosteriorLattice(alphas))


def decode_memm(model: MemmModel, obs: Sequence[Sequence[int]]) -> list[int]:
    """Per-position argmax of the forward rows (forward-only posterior)."""
    return decode_lattice(memm_forward(model, obs))
