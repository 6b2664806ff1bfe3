"""The decode kernels give bitwise the results of their textbook forms.

Each reference below is the plain form of a kernel that the package
now runs with in-place or reordered numpy calls: a fresh-row scaled
recursion, a row-major weight-row sum with a plain softmax and the
factored previous-label tables, the elementwise range check
of a posterior lattice, a posterior that takes that check in full,
posterior guards that mask every row, and a fresh-row memm step.
Every comparison is on the bytes.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from efbtag import discrim, efb, hmc, memm
from efbtag.core import (
    ROW_SUM_TOL,
    LabeledSentence,
    PosteriorLattice,
    TagSet,
    Vocabulary,
    mpm_from_lattice,
)
from efbtag.dataio import Corpus
from efbtag.discrim import LogisticModel, SgdConfig, mean_loss, predict, predict_all_prev
from efbtag.errors import InvalidInputError, NumericalDegeneracyError
from efbtag.features import FeatureTemplate
from efbtag.hmc import scaled_backward, scaled_forward
from efbtag.tagger import DecoderKind, train_tagger


def reference_forward(pi, trans, emissions):
    t_len, n = emissions.shape
    alphas = np.empty((t_len, n))
    scales = np.empty(t_len)
    row = pi * emissions[0]
    for t in range(t_len):
        if t > 0:
            row = emissions[t] * (alphas[t - 1] @ trans)
        s = row.sum()
        if not s > 0.0:
            raise NumericalDegeneracyError(
                f"forward pass degenerated to zero mass at position {t}"
            )
        scales[t] = s
        alphas[t] = row / s
    return alphas, scales


def reference_backward(trans, emissions):
    """The forward's step over the rows last first, from a prior of ones,
    reading a row of ones in place of the first row: each row is weighted
    by the mass that `trans` moves into its labels, over the largest, and
    the step is trans.T with that mass divided out.  beta[t] is the product
    that the step reading row t forms, and scale t is the sum of the step
    reading row t + 1 times the largest mass."""
    t_len, n = emissions.shape
    betas = np.empty((t_len, n))
    scales = np.ones(t_len)
    into = trans.sum(axis=0)
    most = max(into.max(), np.finfo(np.float64).tiny)
    step = trans / np.maximum(into, np.finfo(np.float64).tiny)
    reads = np.concatenate([emissions[:0:-1] * (into / most), np.ones((min(t_len, 1), n))])
    row = None
    for s, read in enumerate(reads):
        t = t_len - 1 - s
        betas[t] = np.ones(n) if row is None else step @ row
        row = read * betas[t]
        total = row.sum()
        if not total > 0.0:
            raise NumericalDegeneracyError(
                f"backward pass degenerated to zero mass at position {max(t - 1, 0)}"
            )
        row = row / total
        if t > 0:
            scales[t - 1] = total * most
    return betas, scales


def reference_row_sums(weights, rows):
    return weights[rows].sum(axis=1)


def outcome(fn, *args):
    """The result arrays' bytes, or the degeneracy message."""
    try:
        return tuple(a.tobytes() for a in fn(*args))
    except NumericalDegeneracyError as err:
        return str(err)


def random_chain(rng, n, t_len, low, zero_row, fortran):
    """A chain and a T x N emission matrix with entries from 10**low up to 1."""
    trans = rng.dirichlet(np.ones(n), size=n)
    pi = rng.dirichlet(np.ones(n))
    emissions = 10.0 ** rng.uniform(low, 0.0, (t_len, n))
    if zero_row:
        emissions[rng.integers(t_len)] = 0.0
    if fortran:
        emissions = np.asfortranarray(emissions)
    return pi, trans, emissions


@settings(max_examples=150, deadline=None)
@given(
    n=st.integers(1, 45),
    t_len=st.integers(1, 300),
    seed=st.integers(0, 2**32 - 1),
    low=st.sampled_from([-300.0, -100.0, -10.0, -1.0]),
    zero_row=st.booleans(),
    fortran=st.booleans(),
)
def test_recursions_bit_equal_to_fresh_row_steps(n, t_len, seed, low, zero_row, fortran):
    rng = np.random.default_rng(seed)
    pi, trans, emissions = random_chain(rng, n, t_len, low, zero_row, fortran)
    assert outcome(scaled_forward, pi, trans, emissions) == outcome(
        reference_forward, pi, trans, emissions
    )
    assert outcome(scaled_backward, trans, emissions) == outcome(
        reference_backward, trans, emissions
    )


def test_recursions_bit_equal_on_a_long_sentence():
    rng = np.random.default_rng(5000)
    pi, trans, emissions = random_chain(rng, 17, 5000, -300.0, False, False)
    forward = outcome(scaled_forward, pi, trans, emissions)
    assert isinstance(forward, tuple)
    assert forward == outcome(reference_forward, pi, trans, emissions)
    assert outcome(scaled_backward, trans, emissions) == outcome(
        reference_backward, trans, emissions
    )


def test_backward_of_an_empty_matrix_is_empty():
    trans = np.array([[0.5, 0.5], [0.2, 0.8]])
    emissions = np.empty((0, 2))
    assert outcome(scaled_backward, trans, emissions) == outcome(
        reference_backward, trans, emissions
    )


@pytest.mark.parametrize("position", [0, 1, 6, 7])
def test_degeneracy_names_the_same_position(position):
    rng = np.random.default_rng(position)
    pi, trans, emissions = random_chain(rng, 4, 8, -1.0, False, False)
    emissions[position] = 0.0
    forward = outcome(scaled_forward, pi, trans, emissions)
    assert forward == outcome(reference_forward, pi, trans, emissions)
    assert forward == f"forward pass degenerated to zero mass at position {position}"
    backward = outcome(scaled_backward, trans, emissions)
    assert backward == outcome(reference_backward, trans, emissions)
    if position > 0:  # the backward pass never reads the first row
        assert backward == (
            f"backward pass degenerated to zero mass at position {position - 1}"
        )


@pytest.mark.parametrize("lengths", [None, [4, 1, 9, 6]], ids=["alone", "batched"])
@pytest.mark.parametrize("every", [None, 1, 8], ids=["matrix", "record 1", "record 8"])
@pytest.mark.parametrize("fill", [0.0, np.nan, np.inf, 1e300])
def test_the_backward_never_reads_a_sentence_first_row(fill, every, lengths):
    """Whatever each sentence's first emission row holds, `scaled_backward`
    and `entropic_backward` give the same lattice and scale bytes: the
    backward pass reads rows 1 .. T - 1 only."""
    rng = np.random.default_rng(7)
    pi, trans, emissions = random_chain(rng, 5, 20, -10.0, False, False)
    params = hmc.HmcParams(pi=pi, trans=trans)
    if lengths is None:
        emissions = emissions[:9]
    filled = emissions.copy()
    filled[np.cumsum([0] + (lengths or [])[:-1])] = fill

    def prepared(rows):
        return (rows, lengths) if every is None else (hmc.prepare_rows(rows, lengths, every),)

    def backward(rows):
        return scaled_backward(trans, *prepared(rows))

    def entropic(rows):
        if every is None:
            return efb.entropic_backward(params, rows, lengths)
        ratio = efb.conditional_matrix(params, rows, lengths) / pi
        return efb.entropic_backward(params, hmc.prepare_rows(ratio, lengths, every))

    for recursion in (backward, entropic):
        want = outcome(recursion, emissions)
        assert isinstance(want, tuple)
        assert outcome(recursion, filled) == want, recursion.__name__


def weight_model(rng, n_features, n_labels, conditions_on_prev):
    d = n_features + (n_labels if conditions_on_prev else 0) + 1
    weights = rng.standard_normal((d, n_labels)) * 10.0 ** rng.integers(-6, 4, (d, 1))
    return LogisticModel(weights, n_features, n_labels, conditions_on_prev)


def reference_softmax(scores):
    shifted = np.exp(scores - scores.max(axis=1, keepdims=True))
    return shifted / shifted.sum(axis=1, keepdims=True)


def reference_all_prev(base, block):
    """`predict_all_prev`'s factored tables from the row sums `base`, with a
    direct softmax for each column whose normaliser is at most FACTOR_FLOOR."""
    scaled = np.exp(base - base.max(axis=1, keepdims=True))
    prev = np.exp(block - block.max(axis=1, keepdims=True))
    norms = np.matmul(scaled[:, None, :], prev.T)[:, 0]
    low = norms <= discrim.FACTOR_FLOOR
    tables = scaled[:, :, None] * prev.T * (1.0 / np.where(low, 1.0, norms))[:, None, :]
    for t, j in zip(*np.nonzero(low)):
        tables[t, :, j] = reference_softmax((base[t] + block[j])[None])[0]
    return tables


@pytest.mark.parametrize("n_labels", [1, 2, 17])
def test_predict_bit_equal_to_row_major_sums(n_labels):
    """Each input's score is the sum, in slot order, of an explicit (T, W)
    table of weight rows: its feature ids, its previous label's row (none
    for `predict_all_prev`) and the bias row."""
    rng = np.random.default_rng(n_labels)
    n_features = 300
    ids = rng.integers(0, n_features, (23, 13))
    plain = weight_model(rng, n_features, n_labels, False)
    prev = weight_model(rng, n_features, n_labels, True)

    def rows(*extra):
        cols = [np.broadcast_to(row, len(ids)) for row in extra]
        return np.column_stack([ids, *cols])

    one_label = int(rng.integers(n_labels))
    per_row = rng.integers(0, n_labels, len(ids))
    cases = [
        (predict(plain, ids), rows(plain.bias_row), plain),
        (predict(prev, ids, one_label), rows(n_features + one_label, prev.bias_row), prev),
        (predict(prev, ids, per_row), rows(n_features + per_row, prev.bias_row), prev),
    ]
    for got, table, model in cases:
        assert table.shape == (len(ids), ids.shape[1] + 1 + model.conditions_on_prev)
        want = reference_softmax(reference_row_sums(model.weights, table))
        assert got.tobytes() == want.tobytes()
    base = reference_row_sums(prev.weights, rows(prev.bias_row))
    block = prev.weights[n_features : n_features + n_labels]
    assert predict_all_prev(prev, ids).tobytes() == reference_all_prev(base, block).tobytes()


@pytest.mark.parametrize("conditions_on_prev", [False, True])
def test_training_and_loss_bit_equal_to_row_major_sums(monkeypatch, conditions_on_prev):
    rng = np.random.default_rng(11)
    n_features, n_labels = 60, 5
    data = [
        (tuple(rng.integers(0, n_features, 6).tolist()),
         int(rng.integers(n_labels)) if conditions_on_prev else None,
         int(rng.integers(n_labels)))
        for _ in range(200)
    ]
    config = SgdConfig(epochs=3, batch_size=16, seed=3)

    def run():
        model = discrim.train(data, n_features, n_labels, config, conditions_on_prev)
        return model.weights.tobytes(), mean_loss(model, data, l2=config.l2)

    got = run()
    monkeypatch.setattr(discrim, "_row_sums", reference_row_sums)
    assert got == run()


def reference_lattice_check(v):
    """The elementwise range check and the row-sum check, as messages."""
    if np.any(v < -ROW_SUM_TOL) or np.any(v > 1.0 + ROW_SUM_TOL):
        return "lattice entries must lie in [0, 1]"
    sums = v.sum(axis=1)
    if not (np.abs(sums - 1.0) <= ROW_SUM_TOL).all():
        t = int(np.argmax(np.abs(sums - 1.0)))
        return f"lattice row {t} sums to {sums[t]!r}, expected 1"
    return None


ODD_ENTRIES = [np.nan, np.inf, -np.inf, -1e-8, 1 + 1e-8, -1e-10, 1 + 1e-10, 0.0]


@pytest.mark.parametrize("first", ODD_ENTRIES)
@pytest.mark.parametrize("second", [None] + ODD_ENTRIES)
def test_lattice_accepts_and_rejects_as_the_elementwise_check(first, second):
    values = np.full((3, 4), 0.25)
    values[1, 2] = first
    if second is not None:
        values[2, 0] = second
    expected = reference_lattice_check(values)
    if expected is None:
        PosteriorLattice(values)
    else:
        with pytest.raises(InvalidInputError) as err:
            PosteriorLattice(values)
        assert str(err.value) == expected


def reference_posterior(alphas, betas):
    """`posterior_from_lattices` with the lattice's full check on every input."""
    prod = alphas * betas
    denom = prod.sum(axis=1)
    if not (denom > 0.0).all():
        bad = np.nonzero(~(denom > 0.0))[0]
        raise NumericalDegeneracyError(
            f"posterior denominator underflowed at position {int(bad[0])}"
        )
    return PosteriorLattice(prod / denom[:, None])


def lattice_pair(elements):
    shape = st.tuples(st.integers(1, 8), st.integers(1, 20))
    return shape.flatmap(lambda s: st.tuples(
        arrays(np.float64, s, elements=elements), arrays(np.float64, s, elements=elements)
    ))


@settings(max_examples=300, deadline=None)
@given(lattice_pair(st.floats(0.0, 1e150, allow_subnormal=True)))
def test_a_posterior_of_finite_non_negative_lattices_passes_the_full_check(pair):
    """The lattice skips its range and row-sum checks after the products
    passed posterior_from_lattices's own: those rows must pass them anyway."""
    alphas, betas = pair
    try:
        lattice = hmc.posterior_from_lattices(alphas, betas)
    except NumericalDegeneracyError:
        assert not ((alphas * betas).sum(axis=1) > 0.0).all()
        return
    PosteriorLattice(lattice.values)
    assert lattice.values.tobytes() == reference_posterior(alphas, betas).values.tobytes()


ODD_FACTORS = st.one_of(
    st.floats(-2.0, 0.0),
    st.sampled_from([np.nan, np.inf, -np.inf, -1e-300, -1e-12, 5e-324, 1e300, 1e160]),
)


@settings(max_examples=300, deadline=None)
@given(
    pair=lattice_pair(st.floats(0.0, 2.0)),
    odd=st.lists(st.tuples(st.integers(0, 1), st.integers(0, 10**6), ODD_FACTORS),
                 max_size=3),
)
@np.errstate(all="ignore")
def test_posterior_from_lattices_raises_as_the_full_check_does(pair, odd):
    """Any input gives the lattice, or the error class and message, that
    checking every lattice in full gives: products that are negative, NaN,
    infinite or sum past the largest float among non-negative ones."""
    alphas, betas = pair
    for which, at, value in odd:
        pair[which].flat[at % alphas.size] = value
    try:
        expected = reference_posterior(alphas, betas).values
    except (InvalidInputError, NumericalDegeneracyError) as err:
        with pytest.raises(type(err)) as got:
            hmc.posterior_from_lattices(alphas, betas)
        assert str(got.value) == str(err)
    else:
        assert hmc.posterior_from_lattices(alphas, betas).values.tobytes() == expected.tobytes()


def reference_guarded_posterior(alphas, betas, rerun=None):
    """`posterior_from_lattices` with its guards as masks over every row:
    each guard tests all denominators, and the ranges take `min` and `max`."""
    prod = alphas * betas
    denom = np.add.reduce(prod, axis=1)
    if rerun is not None and not (denom > hmc.POSTERIOR_GUARD).all():
        prod = np.multiply(*rerun(~(denom > hmc.POSTERIOR_GUARD)))
        denom = np.add.reduce(prod, axis=1)
    if not (denom > 0.0).all():
        bad = np.nonzero(~(denom > 0.0))[0]
        raise NumericalDegeneracyError(
            f"posterior denominator underflowed at position {int(bad[0])}"
        )
    normalised = (prod.dtype == np.float64 and prod.size > 0
                  and prod.min() >= 0.0 and denom.max() < np.inf)
    values = np.divide(prod, denom[:, None], out=prod)
    return PosteriorLattice._normalised(values) if normalised else PosteriorLattice(values)


GUARD_DENOMINATORS = {
    "NaN": np.nan, "zero": 0.0, "negative": -1e-3, "least subnormal": 5e-324,
    "subnormal": 1e-310, "least normal": np.finfo(np.float64).tiny,
    "at the guard": hmc.POSTERIOR_GUARD,
    "above the guard": np.nextafter(hmc.POSTERIOR_GUARD, np.inf),
    "under the guard": np.nextafter(hmc.POSTERIOR_GUARD, 0.0), "infinite": np.inf,
}


def guarded_outcome(posterior, alphas, betas, rerun):
    """The lattice's bytes or the error's class and text, and the masks that
    `rerun` was handed; the rerun 'mends' the rows it is handed or 'keeps'
    them as they are."""
    alphas, betas = alphas.copy(), betas.copy()
    masks = []

    def recorded(marked):
        masks.append(marked.tobytes())
        if rerun == "mends":
            alphas[marked], betas[marked] = 0.25, 0.5
        return alphas, betas

    try:
        lattice = posterior(alphas, betas, None if rerun is None else recorded)
    except (InvalidInputError, NumericalDegeneracyError) as err:
        return (type(err), str(err)), masks
    return lattice.values.tobytes(), masks


@pytest.mark.parametrize("rerun", [None, "mends", "keeps"])
@pytest.mark.parametrize("first", list(GUARD_DENOMINATORS))
@pytest.mark.parametrize("second", [None, "NaN", "zero", "at the guard"])
@pytest.mark.parametrize("rows", [(0, 4), (6, 1)], ids=["first", "last"])
@np.errstate(all="ignore")
def test_posterior_guards_act_as_their_masks_do(rerun, first, second, rows):
    """The guards that take the least denominator raise the same error at the
    same position, hand `rerun` the same mask and give the same bytes as
    guards that test every row."""
    rng = np.random.default_rng(7)
    alphas, betas = rng.random((7, 5)), rng.random((7, 5))
    for row, name in zip(rows, (first, second)):
        if name is not None:
            alphas[row], betas[row] = 0.0, 1.0
            alphas[row, 2] = GUARD_DENOMINATORS[name]
    got = guarded_outcome(hmc.posterior_from_lattices, alphas, betas, rerun)
    assert got == guarded_outcome(reference_guarded_posterior, alphas, betas, rerun)


@settings(max_examples=200, deadline=None)
@given(n=st.integers(1, 45), t_len=st.integers(1, 60), seed=st.integers(0, 2**32 - 1))
def test_memm_rows_written_in_place_bit_equal_to_fresh_products(n, t_len, seed):
    """`forward_lattice` writes each row into the lattice; the bytes are those
    of `table @ alphas[t]` written to a fresh row."""
    rng = np.random.default_rng(seed)
    first = rng.dirichlet(np.ones(n))
    # column-distributions as `predict_all_prev` gives them, and the
    # column-major views of transposed row-distributions, which BLAS reads
    # another way
    tables = rng.dirichlet(np.ones(n), size=(t_len - 1, n))
    for steps in (np.ascontiguousarray(tables.transpose(0, 2, 1)), tables.transpose(0, 2, 1)):
        expected = np.empty((t_len, n))
        expected[0] = first
        for t, table in enumerate(steps):
            expected[t + 1] = table @ expected[t]
        assert memm.forward_lattice(first, steps).tobytes() == expected.tobytes()


@pytest.mark.parametrize("bad", [-1, 300, 10**9, -(10**9)])
@pytest.mark.parametrize("at", [0, 7, 150])
def test_an_id_out_of_range_is_named_as_the_mask_names_it(bad, at):
    """The id range check takes two reductions, and names the first bad id in
    row order, as a mask over every id does."""
    rng = np.random.default_rng(at)
    ids = rng.integers(0, 300, (23, 13))
    ids.flat[at] = bad
    ids.flat[-1] = -5  # a second bad id, later in row order
    mask = (ids < 0) | (ids >= 300)
    model = weight_model(rng, 300, 3, False)
    with pytest.raises(InvalidInputError) as err:
        predict(model, ids)
    assert str(err.value) == f"feature id {int(ids[mask][0])} out of range"


def test_mpm_returns_python_ints_with_lowest_id_ties():
    lattice = PosteriorLattice(np.array([[0.5, 0.5, 0.0], [0.1, 0.2, 0.7]]))
    labels = mpm_from_lattice(lattice)
    assert labels == [0, 2]
    assert all(type(label) is int for label in labels)


def toy_corpus() -> Corpus:
    tagset = TagSet.from_labels(["DT", "NN", "VB"])
    sentences = tuple(
        LabeledSentence(tuple(words.split()), tuple(tagset.id_of(t) for t in tags.split()))
        for words, tags in [("the cat runs", "DT NN VB"), ("a dog sleeps", "DT NN VB"),
                            ("dog runs", "NN VB")]
    )
    vocab = Vocabulary.from_words(w for s in sentences for w in s.tokens)
    return Corpus(sentences=sentences, tagset=tagset, vocab=vocab)


def test_efb_tagger_checks_its_chain_once_over_many_sentences(monkeypatch):
    tagger, _ = train_tagger(
        toy_corpus(), DecoderKind.HMC_EFB, FeatureTemplate.LF1, SgdConfig(epochs=2)
    )
    calls = []
    check = hmc.check_chain

    def counted(pi, trans):
        calls.append(1)
        check(pi, trans)

    monkeypatch.setattr(hmc, "check_chain", counted)
    first = tagger.decode(["the", "cat", "runs"])
    second = tagger.decode(["a", "dog"])
    assert len(calls) == 0  # checked when the tagger was built, not per sentence
    assert len(first) == 3 and len(second) == 2
