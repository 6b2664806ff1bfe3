"""One preparation of a posterior's emission rows, read by both recursions.

`hmc.prepare_rows` divides a (ΣT, N) emission matrix by its row maxima on
the posteriors' schedule and packs it once; `hmc._posterior` and
`efb.posterior_efb` hand that record to both recursions.  These tests hold
the three chain posteriors to the path in which each recursion prepares
the matrix for itself, byte for byte and error for error, hold a record
to the lengths and interval it was prepared for, and check that EFB
builds its conditional matrix once.  Infinite entries degenerate where
NaN ones do, at every step and on the schedule, with no RuntimeWarning.
"""

import numpy as np
import pytest

from efbtag import efb, hmc, memm
from efbtag.errors import InvalidInputError, NumericalDegeneracyError
from test_batch_decode import DEGENERATE, SEED, random_chain
from test_rescale_schedule import KINDS, ladder_sentence, outcome, posterior_of

K = hmc.RESCALE_EVERY


def each_prepares_its_own(chain, emissions, lengths=None):
    """The scheduled posterior as each recursion preparing its own rows gives
    it, with the every-step rerun of the sentences that hold a marked row."""
    alphas, _ = hmc.scaled_forward(chain.pi, chain.trans, emissions, lengths, K)
    betas, _ = hmc.scaled_backward(chain.trans, emissions, lengths, K)

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
    """A record gives both recursions the bytes that the matrix gives them,
    forward first or backward first and twice over, and neither writes into
    it."""
    rng = np.random.default_rng(SEED)
    chain = random_chain(rng, 5)
    emissions = rng.random((29, 5))
    if lengths is None:
        emissions = emissions[:13]
    want = (hmc.scaled_forward(chain.pi, chain.trans, emissions, lengths, every),
            hmc.scaled_backward(chain.trans, emissions, lengths, every))
    rows = hmc.prepare_rows(emissions, lengths, every)
    before = [a.copy() for a in rows if isinstance(a, np.ndarray)]
    calls = (lambda: hmc.scaled_forward(chain.pi, chain.trans, rows, rows.lengths, every),
             lambda: hmc.scaled_backward(chain.trans, rows, rows.lengths, every))
    for order in ((0, 1, 0, 1), (1, 0, 1, 0)):
        for i in order:
            got = calls[i]()
            assert all(g.tobytes() == w.tobytes() for g, w in zip(got, want[i])), (order, i)
    after = [a for a in rows if isinstance(a, np.ndarray)]
    assert [a.tobytes() for a in after] == [b.tobytes() for b in before]


def test_entropic_recursions_read_a_record_of_the_ratio():
    """`entropic_forward`/`entropic_backward` given the record of L / pi give
    what they give on the conditional rows."""
    rng = np.random.default_rng(SEED)
    chain = random_chain(rng, 3)
    lmat, lengths = rng.dirichlet(np.ones(3), size=20), [8, 12]
    rows = hmc.prepare_rows(efb.conditional_matrix(chain, lmat, lengths) / chain.pi, lengths, K)
    for recursion in (efb.entropic_forward, efb.entropic_backward):
        want = recursion(chain, lmat, lengths, K)
        got = recursion(chain, rows, rows.lengths, K)
        assert all(g.tobytes() == w.tobytes() for g, w in zip(got, want))


@pytest.mark.parametrize("prepared, lengths, every", [
    (None, None, 1), (None, None, K + 1), (None, [10], K), (None, [4, 6], K),
    ([4, 6], None, K), ([4, 6], [6, 4], K), ([4, 6], [4, 6], 1), ([4, 6], [4, 6], "8"),
])
def test_a_record_for_other_lengths_or_interval_is_refused(prepared, lengths, every):
    """A record prepared for `prepared` lengths at every = RESCALE_EVERY is
    refused by each recursion run with other `lengths` or `every`."""
    rng = np.random.default_rng(SEED)
    chain = random_chain(rng, 3)
    record = hmc.prepare_rows(rng.random((10, 3)), prepared, K)
    calls = [lambda: hmc.scaled_forward(chain.pi, chain.trans, record, lengths, every),
             lambda: hmc.scaled_backward(chain.trans, record, lengths, every),
             lambda: efb.entropic_forward(chain, record, lengths, every),
             lambda: efb.entropic_backward(chain, record, lengths, every)]
    for call in calls:
        with pytest.raises(InvalidInputError, match="prepared for lengths|rescaling interval"):
            call()


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
    recursion = {
        "forward": lambda e, lens=None: hmc.scaled_forward(chain.pi, chain.trans, e, lens, every),
        "backward": lambda e, lens=None: hmc.scaled_backward(chain.trans, e, lens, every),
    }[direction]
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
], ids=["unscale rows and scales", "unscale 1-D", "memm first row 0-D",
        "ragged emissions", "text emissions", "complex emissions", "1-D rows"])
def test_malformed_arguments_are_refused_not_a_numpy_error(call):
    with pytest.raises(InvalidInputError):
        call()


def test_array_like_emissions_are_prepared_as_their_array():
    chain = random_chain(np.random.default_rng(SEED), 3)
    listed = [[1.0] * 3] * 2
    for every in (1, K):
        got = hmc.scaled_forward(chain.pi, chain.trans, listed, every=every)
        want = hmc.scaled_forward(chain.pi, chain.trans, np.array(listed), every=every)
        assert all(g.tobytes() == w.tobytes() for g, w in zip(got, want))
        got = hmc.scaled_backward(chain.trans, listed, every=every)
        want = hmc.scaled_backward(chain.trans, np.array(listed), every=every)
        assert all(g.tobytes() == w.tobytes() for g, w in zip(got, want))
