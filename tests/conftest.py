import numpy as np
import pytest

from efbtag import efb, memm
from efbtag.core import PosteriorLattice, mpm_from_lattice
from efbtag.hmc import HmcParams


@pytest.fixture
def worked_params() -> HmcParams:
    """Two-state instance with stationary prior; obs symbol 0 is the one used."""
    pi = np.array([4 / 7, 3 / 7])
    trans = np.array([[0.7, 0.3], [0.4, 0.6]])
    emit = np.array([[0.9, 0.1], [0.2, 0.8]])
    return HmcParams(pi=pi, trans=trans, emit=emit)


def stationary_distribution(trans: np.ndarray) -> np.ndarray:
    """Left eigenvector of the transition table for eigenvalue 1, normalized."""
    vals, vecs = np.linalg.eig(trans.T)
    k = int(np.argmin(np.abs(vals - 1.0)))
    v = np.real(vecs[:, k])
    v = np.abs(v)
    return v / v.sum()


def random_stationary_hmc(rng: np.random.Generator, n: int, m: int) -> HmcParams:
    """Draw a transition table, use its stationary law as the prior, draw emissions."""
    trans = rng.dirichlet(np.ones(n) * 2.0, size=n)
    pi = stationary_distribution(trans)
    emit = rng.dirichlet(np.ones(m) * 2.0, size=n)
    return HmcParams(pi=pi, trans=trans, emit=emit)


def exact_conditional_table(params: HmcParams) -> np.ndarray:
    """L table with entry (y, i) = pi_i b_i(y) / p(y), p(y) the stationary marginal."""
    joint = params.pi[None, :] * params.emit.T  # (M, N)
    return joint / joint.sum(axis=1, keepdims=True)


def memo_rows(memo) -> dict[tuple[str, bool], tuple[int, ...]]:
    """A feature memo's stored id rows, by (token, first in sentence) key."""
    return {(tok, bool(first)): tuple(memo.table[num].tolist())
            for first, rows in enumerate(memo.rows) for tok, num in rows.items()}


def naive_column(index, family: str, value: str) -> int:
    """A naive table's column for a family's value: the value's place among the
    family's index values, in id order, or the trailing unknown column."""
    values = list(index.value_ids[family])
    return values.index(value) if value in index.value_ids[family] else len(values)


def emission_naive_features(model, index, fv: dict[str, str], label: int) -> float:
    """Product of per-family conditionals for one label (the independence rule),
    each column found from the index's value ids, not from `stacked_rows`."""
    prob = 1.0
    for fam, value in fv.items():
        prob *= model.tables[fam][label, naive_column(index, fam, value)]
    return float(prob)


def decode_efb(params, obs, lengths=None) -> list[int]:
    """Labels as an hmc-efb `Tagger` reads them: the argmax of the EFB posterior."""
    return mpm_from_lattice(efb.posterior_efb(params, obs, lengths))


def decode_lattice(alphas) -> list[int]:
    """Labels as a memm `Tagger` reads a forward lattice: its check, then its argmax."""
    return mpm_from_lattice(PosteriorLattice(alphas))


def decode_memm(l0, l1, obs, lengths=None, token_rows=None) -> list[int]:
    return decode_lattice(memm.memm_forward(l0, l1, obs, lengths, token_rows))
