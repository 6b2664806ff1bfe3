"""hmc-efb's conditional matrix as the observation, and integer-only id inputs.

Any chain without a provider, a bare `HmcParams` or an `EfbParams`,
takes a sentence's (T, N) conditional matrix as its observations.  It
must give the provider form's floored matrix, recursions and posteriors
byte for byte, and reject what is not a (T, N) matrix; the provider form
must reject rows that are not numeric length-N vectors.  Id inputs that are not integers are
rejected instead of being truncated, and so are labels that are not.
"""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from conftest import decode_efb
from efbtag import discrim, efb, hmc
from efbtag.core import mpm_from_lattice
from efbtag.discrim import ExampleColumns, SgdConfig, predict, predict_all_prev, zero_model
from efbtag.errors import InvalidInputError, NumericalDegeneracyError
from efbtag.features import FeatureTemplate, index_from_pairs
from efbtag.tagger import DecoderKind, train_tagger
from test_bitwise_kernels import outcome
from test_sentence_scoring import SGD, STEMS, random_corpus


def both_forms(pi, trans, lmat):
    """(params, obs) of the matrix form, then of a provider reading row t of `lmat`."""
    matrix = efb.EfbParams(pi=pi, trans=trans)
    provider = efb.EfbParams(pi=pi, trans=trans, l_provider=lambda y, t: lmat[y])
    return [(matrix, lmat), (provider, range(len(lmat)))]


def results(params, obs):
    """The bytes of every public result of the entropic recursions, or the error."""
    lattice = outcome(lambda p, o: (efb.posterior_efb(p, o).values,), params, obs)
    return (
        efb.conditional_matrix(params, obs).tobytes(),
        outcome(efb.entropic_forward, params, obs),
        outcome(efb.entropic_backward, params, obs),
        lattice,
    )


def random_conditionals(rng, n, t_len, low, zeros):
    """A chain and a T x N matrix with entries from 10**low up to 1.

    `zeros` is "none", "entries" (about a tenth of the entries set to 0) or
    "row" (one whole row of 0): exact zeros that the L_FLOOR clamp meets.
    """
    trans = rng.dirichlet(np.ones(n), size=n)
    pi = rng.dirichlet(np.ones(n))
    lmat = 10.0 ** rng.uniform(low, 0.0, (t_len, n))
    if zeros == "entries":
        lmat[rng.random((t_len, n)) < 0.1] = 0.0
    elif zeros == "row":
        lmat[rng.integers(t_len)] = 0.0
    return pi, trans, lmat


@settings(max_examples=150, deadline=None)
@given(
    n=st.integers(1, 20),
    t_len=st.integers(1, 200),
    seed=st.integers(0, 2**32 - 1),
    low=st.sampled_from([-300.0, -100.0, -10.0, -1.0]),
    zeros=st.sampled_from(["none", "entries", "row"]),
    fortran=st.booleans(),
)
def test_matrix_form_bit_equal_to_provider_form(n, t_len, seed, low, zeros, fortran):
    rng = np.random.default_rng(seed)
    pi, trans, lmat = random_conditionals(rng, n, t_len, low, zeros)
    if fortran:
        lmat = np.asfortranarray(lmat)
    (matrix, obs), (provider, positions) = both_forms(pi, trans, lmat)
    assert results(matrix, obs) == results(provider, positions)


@pytest.mark.parametrize("t_len", [1, 5000])
def test_matrix_form_bit_equal_on_one_and_on_many_positions(t_len):
    rng = np.random.default_rng(t_len)
    n = 17
    pi = rng.dirichlet(np.ones(n))
    trans = rng.dirichlet(np.ones(n), size=n)
    lmat = rng.dirichlet(np.full(n, 0.2), size=t_len)  # softmax-like rows
    (matrix, obs), (provider, positions) = both_forms(pi, trans, lmat)
    got = results(matrix, obs)
    assert all(isinstance(r, tuple) for r in got[1:])  # no degeneracy
    assert got == results(provider, positions)
    assert decode_efb(matrix, obs) == decode_efb(provider, positions)


def test_exact_zeros_are_floored_alike(worked_params):
    lmat = np.array([[1.0, 0.0], [0.0, 0.0], [0.0, 1.0], [0.3, 0.7]])
    (matrix, obs), (provider, positions) = both_forms(
        worked_params.pi, worked_params.trans, lmat
    )
    floored = efb.conditional_matrix(matrix, obs)
    assert (floored[lmat == 0.0] == efb.L_FLOOR).all()
    assert np.isfinite(efb.posterior_efb(matrix, obs).values).all()
    assert results(matrix, obs) == results(provider, positions)


@pytest.mark.parametrize(
    "convert",
    [lambda m: m.astype(np.float32), lambda m: m.tolist()],
    ids=["float32", "nested-list"],
)
def test_matrix_form_converts_like_the_provider_stores(worked_params, convert):
    rng = np.random.default_rng(8)
    lmat = convert(rng.dirichlet(np.ones(2), size=6))
    (matrix, obs), (provider, positions) = both_forms(
        worked_params.pi, worked_params.trans, lmat
    )
    assert results(matrix, obs) == results(provider, positions)


def chain_forms(pi, trans, lmat):
    """`both_forms`, after the matrix form on a bare `HmcParams` chain."""
    return [(hmc.HmcParams(pi=pi, trans=trans), lmat)] + both_forms(pi, trans, lmat)


@settings(max_examples=100, deadline=None)
@given(
    n=st.integers(1, 20),
    t_len=st.integers(1, 200),
    seed=st.integers(0, 2**32 - 1),
    low=st.sampled_from([-300.0, -10.0, -1.0]),
    tiny_pi=st.booleans(),
)
@example(n=17, t_len=1, seed=1, low=-10.0, tiny_pi=False)
@example(n=17, t_len=5000, seed=2, low=-10.0, tiny_pi=False)
@example(n=5, t_len=50, seed=3, low=-1.0, tiny_pi=True)
def test_three_chain_forms_bit_equal(n, t_len, seed, low, tiny_pi):
    rng = np.random.default_rng(seed)
    pi, trans, lmat = random_conditionals(rng, n, t_len, low, "none")
    if tiny_pi and n > 1:  # a prior entry near 1e-12 puts L / pi near 1e12
        pi[0] = 1e-12
        pi[1:] *= (1.0 - pi[0]) / pi[1:].sum()
    forms = chain_forms(pi, trans, lmat)
    got = [results(params, obs) for params, obs in forms]
    assert got[0] == got[1] == got[2]


def test_an_hmc_fb_chain_decodes_as_its_bare_chain(worked_params):
    lmat = np.random.default_rng(4).dirichlet(np.ones(2), size=9)
    bare = replace(worked_params, emit=None)
    assert results(worked_params, lmat) == results(bare, lmat)
    assert decode_efb(worked_params, lmat) == decode_efb(bare, lmat)


@pytest.mark.parametrize(
    "row",
    [np.array(["a", "b"]), [0.5, "x"], [0.5, object()], np.array([0.5 + 1j, 0.5])],
    ids=["strings", "string-among-floats", "object", "complex"],
)
def test_non_numeric_provider_row_rejected(worked_params, row):
    params = efb.EfbParams(
        pi=worked_params.pi, trans=worked_params.trans, l_provider=lambda y, t: row
    )
    for entry in (efb.conditional_matrix, efb.posterior_efb, decode_efb):
        with pytest.raises(InvalidInputError, match="conditional matrix must be numeric"):
            entry(params, [0, 1])


def parent_posterior(tagger, lmat):
    """The earlier hmc-efb path: each row copied into a matrix, floored, then
    the recursions on the posterior's rescaling schedule (at every = 1 they are
    the textbook ones, which `test_bitwise_kernels` pins)."""
    rows = np.empty(lmat.shape)
    for t, row in enumerate(lmat):
        rows[t] = row
    pi, trans = tagger.hmc_params.pi, tagger.hmc_params.trans
    ratio = hmc.prepare_rows(np.maximum(rows, efb.L_FLOOR) / pi, every=hmc.RESCALE_EVERY)
    alphas, _ = hmc.scaled_forward(pi, trans, ratio)
    betas, _ = hmc.scaled_backward(trans, ratio)
    return hmc.posterior_from_lattices(alphas, betas)


@pytest.mark.parametrize("template", [FeatureTemplate.LF1, FeatureTemplate.LF2])
def test_efb_tagger_decodes_as_the_row_copying_path(monkeypatch, template):
    corpus = random_corpus(np.random.default_rng(31))
    tagger, _ = train_tagger(corpus, DecoderKind.HMC_EFB, template, SGD)
    lattices = []
    posterior = efb.posterior_efb

    def kept(params, obs, lengths=None):
        lattices.append(posterior(params, obs, lengths))
        return lattices[-1]

    monkeypatch.setattr(efb, "posterior_efb", kept)
    test = random_corpus(np.random.default_rng(32), 25, STEMS + ("zebra", "Quux"))
    for sent in test.sentences:
        labels = tagger.decode(sent.tokens)
        lmat = predict(tagger.l0, tagger.pipeline.sentence_features(sent.tokens))
        want = parent_posterior(tagger, lmat)
        assert lattices.pop().values.tobytes() == want.values.tobytes()
        assert labels == mpm_from_lattice(want)


@pytest.mark.parametrize(
    "row",
    [0.5, np.array([0.7]), np.array([0.2, 0.3, 0.5]), np.full((2, 1), 0.5), [[0.5, 0.5]]],
    ids=["scalar", "one-entry", "three-entries", "column", "nested"],
)
def test_provider_row_of_another_shape_rejected(worked_params, row):
    params = efb.EfbParams(
        pi=worked_params.pi, trans=worked_params.trans, l_provider=lambda y, t: row
    )
    for entry in (efb.conditional_matrix, efb.posterior_efb, decode_efb):
        with pytest.raises(InvalidInputError, match=r"conditional row 0 has shape"):
            entry(params, [0, 1])


@pytest.mark.parametrize(
    "obs",
    [0.5, [], np.full(2, 0.5), np.empty((0, 2)), np.full((3, 3), 0.2),
     np.full((3, 1), 0.5), np.full((2, 2, 1), 0.5), [[0.5, 0.5], [0.5]], [["a", "b"]],
     np.full((3, 2), 0.5 + 1j)],
    ids=["scalar", "empty-list", "vector", "no-rows", "three-columns", "one-column",
         "three-dims", "ragged", "strings", "complex"],
)
def test_matrix_form_rejects_what_is_not_a_t_by_n_matrix(worked_params, obs):
    params = efb.EfbParams(pi=worked_params.pi, trans=worked_params.trans)
    for entry in (efb.conditional_matrix, efb.entropic_forward, efb.entropic_backward,
                  efb.posterior_efb, decode_efb):
        with pytest.raises(InvalidInputError, match="conditional matrix"):
            entry(params, obs)


def test_nan_in_the_matrix_form_is_a_degeneracy(worked_params):
    params = efb.EfbParams(pi=worked_params.pi, trans=worked_params.trans)
    with pytest.raises(NumericalDegeneracyError):
        efb.posterior_efb(params, np.array([[0.5, 0.5], [np.nan, np.nan]]))


@pytest.mark.parametrize(
    "ids",
    [np.array([[0.7, 1.9]]), [0.7, 1], [(0, 1), (2, 1.0)], np.array(["0", "1"])],
    ids=["float-batch", "float-input", "float-among-ints", "strings"],
)
def test_non_integer_feature_ids_rejected(ids):
    plain = zero_model(3, 2)
    with pytest.raises(InvalidInputError, match="feature ids must be integers"):
        predict(plain, ids)
    with pytest.raises(InvalidInputError, match="feature ids must be integers"):
        predict_all_prev(zero_model(3, 2, conditions_on_prev=True), ids)


@pytest.mark.parametrize("dtype", [np.int8, np.int32, np.uint16, np.int64])
def test_integer_ids_of_any_width_accepted(dtype):
    rng = np.random.default_rng(2)
    model = discrim.LogisticModel(rng.standard_normal((6, 3)), 5, 3, False)
    ids = rng.integers(0, 5, (4, 2))
    assert predict(model, ids.astype(dtype)).tobytes() == predict(model, ids).tobytes()


# (name, columns, what): one column of otherwise valid examples is not integer
BAD_COLUMNS = [
    ("ids", (np.array([[0.0], [1.5]]), None, np.array([0, 1])), "feature ids"),
    ("targets", (np.array([[0], [1]]), None, np.array([0, 0.9])), "labels"),
    ("prev-labels", (np.array([[0], [1]]), np.array([1.7, 0]), np.array([0, 1])),
     "previous labels"),
]


@pytest.mark.parametrize("entry", ["train", "mean_loss"])
@pytest.mark.parametrize(
    "columns,what", [b[1:] for b in BAD_COLUMNS], ids=[b[0] for b in BAD_COLUMNS]
)
def test_non_integer_columns_rejected(entry, columns, what):
    data = ExampleColumns(*columns)
    cond = data.prev_labels is not None
    with pytest.raises(InvalidInputError, match=f"^{what} must be integers"):
        if entry == "train":
            discrim.train(data, 4, 3, SgdConfig(epochs=1), conditions_on_prev=cond)
        else:
            discrim.mean_loss(zero_model(4, 3, cond), data)


@pytest.mark.parametrize(
    "feats,labels,what",
    [([[(0.7,), (1,)]], [(0, 1)], "feature ids"), ([[(0,), (1,)]], [(0, 1.0)], "labels")],
    ids=["ids", "labels"],
)
def test_naive_estimate_rejects_non_integer_values(feats, labels, what):
    index = index_from_pairs(FeatureTemplate.NF, ("word",), [("word", "x"), ("word", "y")])
    with pytest.raises(InvalidInputError, match=f"^{what} must be integers"):
        hmc.estimate_naive_emission(index, feats, labels, 2)


@pytest.mark.parametrize("kind", list(DecoderKind))
def test_training_rejects_a_non_integer_corpus_label(kind):
    # the hmc kinds meet it in `estimate_params`, memm in `train_tagger` itself
    corpus = random_corpus(np.random.default_rng(34), 6)
    sent = corpus.sentences[-1]
    bad = replace(sent, labels=sent.labels[:-1] + (1.0,))
    corpus = replace(corpus, sentences=corpus.sentences[:-1] + (bad,))
    with pytest.raises(InvalidInputError, match="^labels must be integers, not float64"):
        train_tagger(corpus, kind, FeatureTemplate.LF1, SGD)


def test_fb_rejects_non_integer_word_ids(worked_params):
    with pytest.raises(InvalidInputError, match="word ids must be integers"):
        hmc.posterior_fb(worked_params, [0.5, 1])
