"""One preparation of a posterior's emission rows, read by both recursions.

`hmc.prepare_rows` divides a (ΣT, N) emission matrix by its row maxima on
the posteriors' schedule and packs it once; `hmc._posterior` and
`efb.posterior_efb` hand that record to both recursions.  These tests hold
the three chain posteriors to the path in which each recursion prepares
the matrix for itself, byte for byte and error for error, check that a
record brings its own lengths and interval, and that EFB builds its
conditional matrix once.  Infinite entries degenerate where
NaN ones do, at every step and on the schedule, with no RuntimeWarning.
"""

import numpy as np
import pytest

from efbtag import efb, hmc, memm
from efbtag.errors import InvalidInputError, NumericalDegeneracyError
from test_batch_decode import DEGENERATE, SEED, random_chain
from test_rescale_schedule import KINDS, ladder_sentence, outcome, posterior_of, recursions

K = hmc.RESCALE_EVERY
# a two-label chain and three emission rows, each array of them valid
HALF_PI, HALF_TRANS, HALF_ROWS = np.full(2, 0.5), np.full((2, 2), 0.5), np.full((3, 2), 0.5)


def each_prepares_its_own(chain, emissions, lengths=None):
    """The scheduled posterior as each recursion preparing its own rows gives
    it, with the every-step rerun of the sentences that hold a marked row."""
    alphas, _ = hmc.scaled_forward(chain.pi, chain.trans, hmc.prepare_rows(emissions, lengths, K))
    betas, _ = hmc.scaled_backward(chain.trans, hmc.prepare_rows(emissions, lengths, K))

    def rerun(marked):
        lens = [len(emissions)] if lengths is None else list(lengths)
        ends = np.cumsum(lens)
        hit = [i for i, end in enumerate(ends) if marked[end - lens[i] : end].any()]
        rows = np.concatenate([np.arange(ends[i] - lens[i], ends[i]) for i in hit])
        sizes = None if lengths is None else [lens[i] for i in hit]
        alphas[rows] = hmc.scaled_forward(chain.pi, chain.trans, emissions[rows], sizes)[0]
        betas[rows] = hmc.scaled_backward(chain.trans, emissions[rows], sizes)[0]
        return alphas, betas

    return hmc.posterior_from_lattices(alphas, betas, rerun).values


def flipping_case(rng):
    """A chain that never moves and a 10-token sentence whose conditionals
    flip between the two labels at `L_FLOOR`: its blocks close under
    RESCALE_GUARD, between two ordinary sentences."""
    chain = hmc.HmcParams(pi=np.array([0.5, 0.5]), trans=np.eye(2))
    rows = rng.dirichlet(np.ones(2), size=30)
    rows[3:13] = np.maximum(np.eye(2)[np.arange(10) % 2], efb.L_FLOOR)
    return chain, rows, [3, 10, 17]


def ladder_case(rng):
    """`ladder_sentence`, whose scheduled posterior denominator falls under
    POSTERIOR_GUARD, between two ordinary sentences."""
    chain, ladder = ladder_sentence()
    n = len(chain.pi)
    rows = np.concatenate([rng.dirichlet(np.ones(n), size=5), ladder,
                           rng.dirichlet(np.ones(n), size=7)])
    return chain, rows, [5, len(ladder), 7]


def random_case(rng):
    return random_chain(rng, 4), rng.dirichlet(np.ones(4), size=40), [9, 1, 17, 4, 9]


def degenerate_case(rng):
    """Zero rows at positions 2 and 9 of the second of five sentences."""
    chain, lengths = random_chain(rng, 4), [5, 12, 1, 7, 3]
    rows = rng.dirichlet(np.ones(4), size=sum(lengths))
    rows[[5 + 2, 5 + 9]] = 0.0
    return chain, rows, lengths


CASES = {"random": random_case, "block under the guard": flipping_case,
         "posterior under the guard": ladder_case, "degenerate": degenerate_case}


def counting_every_step(monkeypatch):
    """Count the rows prepared at every = 1, which only a rerun prepares."""
    prepare, count = hmc.prepare_rows, []

    def counted(emissions, lengths=None, every=1):
        if every == 1:
            count.append(len(emissions))
        return prepare(emissions, lengths, every)
    monkeypatch.setattr(hmc, "prepare_rows", counted)
    return count


@pytest.mark.parametrize("case", CASES)
@pytest.mark.parametrize("kind", KINDS)
def test_each_posterior_gives_the_bytes_of_recursions_that_prepare_their_own(
    kind, case, monkeypatch
):
    """Batched and alone, each posterior prepared once gives the bytes, or
    the error text, of its recursions each preparing the matrix.  The guard
    cases do run a sentence again step by step, and so do the zeroed rows,
    which degenerate (hmc-efb floors them and decodes)."""
    rng = np.random.default_rng(SEED)
    chain, rows, lengths = CASES[case](rng)
    posterior, obs, emissions = posterior_of(kind, chain, rows, rng)
    rerun = counting_every_step(monkeypatch)
    batched = outcome(lambda: posterior(obs, lengths))
    ran_again = bool(rerun)
    want = outcome(lambda: each_prepares_its_own(chain, emissions, lengths))
    def same(got, want):
        return got == want if isinstance(want, str) else got.tobytes() == want.tobytes()

    assert same(batched, want)
    ends = np.cumsum(lengths)
    for t, end in zip(lengths, ends):
        part = slice(end - t, end)
        assert same(outcome(lambda: posterior(obs[part])),
                    outcome(lambda: each_prepares_its_own(chain, emissions[part])))
    assert isinstance(batched, str) == (case == "degenerate" and kind != "hmc-efb")
    assert ran_again == (case.endswith("the guard") or isinstance(batched, str))


@pytest.mark.parametrize("lengths", [None, [6, 13, 1, 9]], ids=["alone", "batched"])
@pytest.mark.parametrize("every", [1, 3, K])
def test_one_record_read_by_both_recursions_in_any_order(every, lengths):
    """A record gives both recursions the bytes that a record of their own
    gives them, forward first or backward first and twice over, and neither
    writes into it; at every = 1 those are the matrix's bytes."""
    rng = np.random.default_rng(SEED)
    chain = random_chain(rng, 5)
    emissions = rng.random((29, 5))
    if lengths is None:
        emissions = emissions[:13]
    want = (hmc.scaled_forward(chain.pi, chain.trans, hmc.prepare_rows(emissions, lengths, every)),
            hmc.scaled_backward(chain.trans, hmc.prepare_rows(emissions, lengths, every)))
    if every == 1:
        matrix = (hmc.scaled_forward(chain.pi, chain.trans, emissions, lengths),
                  hmc.scaled_backward(chain.trans, emissions, lengths))
        for got, ref in zip(want, matrix):
            assert all(g.tobytes() == r.tobytes() for g, r in zip(got, ref))
    rows = hmc.prepare_rows(emissions, lengths, every)
    before = [a.copy() for a in rows if isinstance(a, np.ndarray)]
    calls = (lambda: hmc.scaled_forward(chain.pi, chain.trans, rows),
             lambda: hmc.scaled_backward(chain.trans, rows))
    for order in ((0, 1, 0, 1), (1, 0, 1, 0)):
        for i in order:
            got = calls[i]()
            assert all(g.tobytes() == w.tobytes() for g, w in zip(got, want[i])), (order, i)
    after = [a for a in rows if isinstance(a, np.ndarray)]
    assert [a.tobytes() for a in after] == [b.tobytes() for b in before]


@pytest.mark.parametrize("every", [1, K])
def test_entropic_recursions_read_a_record_of_the_ratio(every):
    """`entropic_forward`/`entropic_backward` given a record of L / pi give
    what `hmc`'s recursions give on it; at every = 1, what they give on the
    conditional rows."""
    rng = np.random.default_rng(SEED)
    chain = random_chain(rng, 3)
    lmat, lengths = rng.dirichlet(np.ones(3), size=20), [8, 12]
    ratio = efb.conditional_matrix(chain, lmat, lengths) / chain.pi
    plain = (lambda rows: hmc.scaled_forward(chain.pi, chain.trans, rows),
             lambda rows: hmc.scaled_backward(chain.trans, rows))
    for recursion, hmc_recursion in zip((efb.entropic_forward, efb.entropic_backward), plain):
        want = hmc_recursion(hmc.prepare_rows(ratio, lengths, every))
        got = recursion(chain, hmc.prepare_rows(ratio, lengths, every))
        assert all(g.tobytes() == w.tobytes() for g, w in zip(got, want))
        if every == 1:
            got = recursion(chain, lmat, lengths)
            assert all(g.tobytes() == w.tobytes() for g, w in zip(got, want))


@pytest.mark.parametrize("prepared, lengths", [
    (None, [10]), (None, [4, 6]), ([4, 6], [4, 6]), ([4, 6], [6, 4]), ([4, 6], np.array([4, 6])),
])
def test_a_record_refuses_lengths_and_prepare_rows_a_bad_interval(prepared, lengths):
    """A record brings its own lengths and interval: each recursion refuses
    it with any `lengths`, even those it was prepared for; and
    `prepare_rows` refuses an interval that is not an integer >= 1."""
    rng = np.random.default_rng(SEED)
    chain = random_chain(rng, 3)
    emissions = rng.random((10, 3))
    record = hmc.prepare_rows(emissions, prepared, K)
    calls = [lambda: hmc.scaled_forward(chain.pi, chain.trans, record, lengths),
             lambda: hmc.scaled_backward(chain.trans, record, lengths),
             lambda: efb.entropic_forward(chain, record, lengths),
             lambda: efb.entropic_backward(chain, record, lengths)]
    for call in calls:
        with pytest.raises(InvalidInputError, match="brings its own lengths"):
            call()
    for every in (0, K + 0.5, "8"):
        with pytest.raises(InvalidInputError, match="rescaling interval"):
            hmc.prepare_rows(emissions, prepared, every)


@pytest.mark.parametrize("lengths", [None, [7, 1, 12]], ids=["alone", "batched"])
def test_posterior_efb_builds_its_conditional_matrix_once(lengths, monkeypatch):
    """One `conditional_matrix` call of one row a token, so the benchmark's
    `efb.rows_per_token` reads 1.0."""
    rng = np.random.default_rng(SEED)
    chain = random_chain(rng, 4)
    lmat = rng.dirichlet(np.ones(4), size=20)
    build, rows = efb.conditional_matrix, []

    def counted(*args, **kwargs):
        matrix = build(*args, **kwargs)
        rows.append(len(matrix))
        return matrix
    monkeypatch.setattr(efb, "conditional_matrix", counted)
    efb.posterior_efb(chain, lmat, lengths)
    assert rows == [len(lmat)]


@pytest.mark.parametrize("direction", ["forward", "backward"])
@pytest.mark.parametrize("every", [1, K])
@pytest.mark.parametrize("lengths, which, zeroed", DEGENERATE)
def test_an_infinite_entry_is_named_where_a_nan_is(lengths, which, zeroed, every, direction):
    """Batched and alone, at every step and on the schedule, a row with an
    infinite entry degenerates at the position that the same row with a NaN
    entry names, with no RuntimeWarning (which fails the test)."""
    rng = np.random.default_rng(SEED)
    chain = random_chain(rng, 4)
    emissions = rng.random((sum(lengths), 4))
    start = sum(lengths[:which])
    recursion = recursions(chain, every)[direction]
    named = {}
    for fill in (np.nan, np.inf):
        filled = emissions.copy()
        filled[[start + p for p in zeroed], 2] = fill
        with pytest.raises(NumericalDegeneracyError) as alone:
            recursion(filled[start : start + lengths[which]])
        with pytest.raises(NumericalDegeneracyError) as batched:
            recursion(filled, lengths)
        assert str(batched.value) == str(alone.value)
        named[fill] = str(alone.value)
    assert named[np.inf] == named[np.nan]
    position = min(zeroed) if direction == "forward" else max(zeroed) - 1
    assert named[np.inf].endswith(f"at position {position}")


@pytest.mark.parametrize("call", [
    lambda: hmc.unscale(np.ones((2, 3)), np.ones(3)),
    lambda: hmc.unscale(np.ones(3), np.ones(3)),
    lambda: memm.forward_lattice(np.array(0.5), []),
    lambda: hmc.scaled_forward(np.full(3, 1 / 3), np.full((3, 3), 1 / 3), [[1.0] * 3, [1.0]]),
    lambda: hmc.scaled_backward(np.full((3, 3), 1 / 3), [["a"] * 3] * 2),
    lambda: hmc.scaled_forward(np.full(2, 0.5), np.full((2, 2), 0.5), np.full((3, 2), 0.5 + 1j)),
    lambda: hmc.prepare_rows(np.ones(3)),
    lambda: hmc.HmcParams(["a", "b"], HALF_TRANS),
    lambda: hmc.HmcParams(np.full(2, 0.5 + 0j), HALF_TRANS),
    lambda: hmc.HmcParams(HALF_PI, HALF_TRANS.astype(object)),
    lambda: hmc.HmcParams(HALF_PI, [[0.5, 0.5], [1.0]]),
    lambda: hmc.HmcParams(HALF_PI, HALF_TRANS, HALF_TRANS + 0j),
    lambda: hmc.scaled_forward(["a", "b"], HALF_TRANS, HALF_ROWS),
    lambda: hmc.scaled_forward(HALF_PI + 0j, HALF_TRANS, HALF_ROWS),
    lambda: hmc.scaled_forward(HALF_PI, HALF_TRANS + 0j, HALF_ROWS),
    lambda: hmc.scaled_forward(HALF_PI, HALF_TRANS.astype(object), HALF_ROWS),
    lambda: hmc.scaled_forward(HALF_PI, [[0.5, 0.5], [1.0]], HALF_ROWS),
    lambda: hmc.scaled_forward(HALF_PI, hmc.HmcParams(HALF_PI, HALF_TRANS).reversed_step,
                               HALF_ROWS),
    lambda: hmc.scaled_backward(HALF_TRANS + 0j, HALF_ROWS),
    lambda: hmc.scaled_backward(HALF_TRANS.astype(object), HALF_ROWS),
    lambda: hmc.scaled_backward([["a", "b"]] * 2, HALF_ROWS),
    lambda: hmc.scaled_backward([[0.5, 0.5], [1.0]], HALF_ROWS),
    lambda: hmc.every_step_rerun(HALF_PI, HALF_TRANS + 0j, hmc.prepare_rows(HALF_ROWS, every=K),
                                 HALF_ROWS.copy(), HALF_ROWS.copy())(np.ones(3, bool)),
    lambda: hmc.every_step_rerun(HALF_PI, HALF_TRANS.astype(object),
                                 hmc.prepare_rows(HALF_ROWS, every=K),
                                 HALF_ROWS.copy(), HALF_ROWS.copy())(np.ones(3, bool)),
    lambda: hmc.posterior_from_lattices([["a", "b"]] * 3, HALF_ROWS),
    lambda: hmc.posterior_from_lattices(HALF_ROWS, HALF_ROWS + 0j),
    lambda: hmc.posterior_from_lattices(HALF_ROWS.astype(object), HALF_ROWS),
    lambda: hmc.posterior_from_lattices(HALF_ROWS, [[0.5, 0.5], [0.5]]),
], ids=["unscale rows and scales", "unscale 1-D", "memm first row 0-D",
        "ragged emissions", "text emissions", "complex emissions", "1-D rows",
        "chain text prior", "chain complex prior", "chain object transitions",
        "chain ragged transitions", "chain complex emissions",
        "forward text prior", "forward complex prior", "forward complex transitions",
        "forward object transitions", "forward ragged transitions", "forward step record",
        "backward complex transitions", "backward object transitions",
        "backward text transitions", "backward ragged transitions",
        "rerun complex transitions", "rerun object transitions",
        "posterior text alphas", "posterior complex betas", "posterior object alphas",
        "posterior ragged betas"])
def test_malformed_arguments_are_refused_not_a_numpy_error(call):
    with pytest.raises(InvalidInputError):
        call()


def test_array_like_emissions_are_prepared_as_their_array():
    chain = random_chain(np.random.default_rng(SEED), 3)
    listed = [[1.0] * 3] * 2
    pairs = [(listed, np.array(listed))] + [
        (hmc.prepare_rows(listed, every=every), hmc.prepare_rows(np.array(listed), every=every))
        for every in (1, K)]
    for given, array in pairs:
        got = hmc.scaled_forward(chain.pi, chain.trans, given)
        want = hmc.scaled_forward(chain.pi, chain.trans, array)
        assert all(g.tobytes() == w.tobytes() for g, w in zip(got, want))
        got = hmc.scaled_backward(chain.trans, given)
        want = hmc.scaled_backward(chain.trans, array)
        assert all(g.tobytes() == w.tobytes() for g, w in zip(got, want))


def test_array_like_chain_arrays_and_lattices_are_taken_as_their_arrays():
    """Lists for a chain's prior, transitions and emission table, for the
    recursions' and the rerun's `pi` and `trans`, and for either lattice of
    a posterior give the bytes of their float64 arrays."""
    rng = np.random.default_rng(SEED)
    chain = random_chain(rng, 3)
    emit = rng.dirichlet(np.ones(4), size=3)
    listed = hmc.HmcParams(chain.pi.tolist(), chain.trans.tolist(), emit.tolist())
    arrays = hmc.HmcParams(chain.pi, chain.trans, emit)
    for name in ("pi", "trans", "emit", "emit_rows"):
        got, want = getattr(listed, name), getattr(arrays, name)
        assert got.dtype == np.float64 and got.tobytes() == want.tobytes()
    for got, want in zip(listed.reversed_step, arrays.reversed_step):
        assert np.asarray(got).tobytes() == np.asarray(want).tobytes()
    pi, trans = chain.pi.tolist(), chain.trans.tolist()
    emissions, marked = rng.random((7, 3)), np.arange(7) == 4
    for every in (1, K):
        for lengths in (None, [3, 4]):
            record = hmc.prepare_rows(emissions, lengths, every)
            alphas, scales = hmc.scaled_forward(chain.pi, chain.trans, record)
            betas, back = hmc.scaled_backward(chain.trans, record)
            got = [*hmc.scaled_forward(pi, trans, record), *hmc.scaled_backward(trans, record),
                   *hmc.every_step_rerun(pi, trans, record, alphas.copy(), betas.copy())(marked)]
            want = [alphas, scales, betas, back, *hmc.every_step_rerun(
                chain.pi, chain.trans, record, alphas.copy(), betas.copy())(marked)]
            assert [g.tobytes() for g in got] == [w.tobytes() for w in want]
    want = hmc.posterior_from_lattices(alphas, betas).values.tobytes()
    for pair in ((alphas.tolist(), betas), (alphas, betas.tolist())):
        assert hmc.posterior_from_lattices(*pair).values.tobytes() == want


def test_the_posterior_rerun_of_an_every_step_record_gives_its_rows_back():
    """`every_step_rerun` over a record that already runs every step runs
    the marked sentences again as they ran, and raises nothing."""
    rng = np.random.default_rng(SEED)
    chain = random_chain(rng, 3)
    record = hmc.prepare_rows(rng.random((6, 3)), [2, 4], 1)
    alphas, _ = hmc.scaled_forward(chain.pi, chain.trans, record)
    betas, _ = hmc.scaled_backward(chain.trans, record)
    rerun = hmc.every_step_rerun(chain.pi, chain.trans, record, alphas.copy(), betas.copy())
    again = rerun(np.arange(6) == 3)
    assert again[0].tobytes() == alphas.tobytes() and again[1].tobytes() == betas.tobytes()
