"""Row gathers by `take` copy the rows that fancy indexing copies.

The hmc-fb and hmc-naive-features emission matrices gather rows from
C-ordered copies of their tables (`HmcParams.emit_rows`,
`NaiveFeatureEmission.stacked_rows`) with `ndarray.take`.  These tests pin
both to the fancy-index forms they replaced, byte for byte: the emission
matrix, and the posterior computed from it.  A batch decode scores each
distinct feature row once and gathers every token's scores from those
rows; the last tests pin that to scoring every token's row.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from efbtag import hmc
from efbtag.discrim import LogisticModel, predict, predict_all_prev


def random_chain(rng, n):
    return rng.dirichlet(np.ones(n)), rng.dirichlet(np.ones(n), size=n)


@st.composite
def naive_cases(draw):
    """A random naive model and (T, F) ids, each family's unknown column among them."""
    n = draw(st.integers(1, 20))
    values = draw(st.lists(st.integers(0, 6), min_size=1, max_size=13))
    t = draw(st.integers(len(values), 40))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    families = tuple(f"f{k}" for k in range(len(values)))
    model = hmc.NaiveFeatureEmission(
        families=families,
        tables={f: rng.dirichlet(np.ones(v + 1), size=n) for f, v in zip(families, values)},
    )
    # the `stacked_rows` layout: every family's value rows, then every unknown row
    offsets = np.cumsum(values) - values
    unknown = sum(values) + np.arange(len(values))
    ids = offsets + (rng.random((t, len(values))) * np.array(values)).astype(np.intp)
    ids = np.where(np.array(values) > 0, ids, unknown)
    rows = rng.permutation(t)[: len(values)]
    ids[rows, np.arange(len(values))] = unknown  # each family's unknown column once at least
    return model, ids


@settings(max_examples=200, deadline=None)
@given(naive_cases())
def test_naive_emission_matrix_equals_the_fancy_index_product(case):
    model, ids = case
    tables = [model.tables[fam] for fam in model.families]
    stacked = np.hstack([t[:, :-1] for t in tables] + [t[:, -1:] for t in tables])  # (N, S)
    assert model.stacked_rows.flags.c_contiguous
    assert np.array_equal(model.stacked_rows, stacked.T)
    got = hmc.naive_emission_matrix(model, ids)
    expected = np.prod(stacked.T[ids], axis=1)
    assert got.shape == expected.shape and got.tobytes() == expected.tobytes()


def test_naive_emission_matrix_of_no_inputs():
    tables = {"f0": np.full((4, 3), 1 / 3), "f1": np.full((4, 2), 0.5)}
    model = hmc.NaiveFeatureEmission(("f0", "f1"), tables)
    assert hmc.naive_emission_matrix(model, np.empty((0, 2), dtype=np.intp)).shape == (0, 4)


@settings(max_examples=100, deadline=None)
@given(
    n=st.integers(1, 20),
    words=st.integers(0, 30),
    lengths=st.lists(st.integers(1, 40), min_size=1, max_size=6),
    seed=st.integers(0, 2**32 - 1),
)
def test_posterior_fb_equals_the_posterior_of_fancy_index_emissions(n, words, lengths, seed):
    rng = np.random.default_rng(seed)
    pi, trans = random_chain(rng, n)
    # `words` trained words plus the trailing unknown-word column
    params = hmc.HmcParams(pi, trans, rng.dirichlet(np.ones(words + 1), size=n))
    assert params.emit_rows.flags.c_contiguous
    assert np.array_equal(params.emit_rows, params.emit.T)
    obs = rng.integers(0, words + 1, size=sum(lengths))
    obs[rng.integers(len(obs))] = words
    emissions = params.emit.T[obs]
    for lens, part in ((None, obs[: lengths[0]]), (lengths, obs)):
        got = hmc.posterior_fb(params, part, lens).values
        e = emissions[: len(part)]
        rows = hmc.prepare_rows(e, lens, hmc.RESCALE_EVERY)
        alphas, _ = hmc.scaled_forward(pi, trans, rows)
        betas, _ = hmc.scaled_backward(trans, rows)
        expected = hmc.posterior_from_lattices(alphas, betas).values
        assert got.tobytes() == expected.tobytes()


def test_a_bare_chain_has_no_emission_rows():
    pi, trans = random_chain(np.random.default_rng(0), 3)
    assert hmc.HmcParams(pi, trans).emit_rows is None


def _repeated(rng, distinct: np.ndarray, t: int) -> tuple[np.ndarray, np.ndarray]:
    """T rows drawn from `distinct` with repeats, and each one's row number."""
    at = rng.integers(0, len(distinct), size=t)
    return distinct[at], at


@settings(max_examples=100, deadline=None)
@given(
    n=st.integers(1, 20),
    width=st.integers(1, 14),
    k=st.integers(1, 30),
    t=st.integers(1, 80),
    # at 400, factored normalisers underflow and take the direct softmax
    scale=st.sampled_from([1.0, 40.0, 400.0]),
    seed=st.integers(0, 2**32 - 1),
)
def test_scoring_distinct_rows_then_gathering_is_scoring_every_row(n, width, k, t, scale, seed):
    rng = np.random.default_rng(seed)
    n_features = 50
    distinct = rng.integers(0, n_features, size=(k, width))
    ids, at = _repeated(rng, distinct, t)
    plain = LogisticModel(scale * rng.normal(size=(n_features + 1, n)), n_features, n, False)
    cond = LogisticModel(scale * rng.normal(size=(n_features + n + 1, n)), n_features, n, True)
    for score, model in ((predict, plain), (predict_all_prev, cond)):
        every = score(model, ids)
        gathered = score(model, distinct).take(at, axis=0)
        assert gathered.shape == every.shape and gathered.tobytes() == every.tobytes()


@settings(max_examples=100, deadline=None)
@given(naive_cases(), st.integers(1, 80), st.integers(0, 2**32 - 1))
def test_naive_emissions_of_distinct_rows_gathered_are_every_row_s(case, t, seed):
    model, distinct = case
    ids, at = _repeated(np.random.default_rng(seed), distinct, t)
    every = hmc.naive_emission_matrix(model, ids)
    gathered = hmc.naive_emission_matrix(model, distinct).take(at, axis=0)
    assert gathered.shape == every.shape and gathered.tobytes() == every.tobytes()
