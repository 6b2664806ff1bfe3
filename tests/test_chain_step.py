"""The backward's step, derived once per chain, and the in-place kernel.

`HmcParams` derives its `ReversedStep` (A's transpose over A's column
sums, and the weights of the reversed rows) once, read-only, and the
chain posteriors hand it to `hmc.scaled_backward` in place of A.  These
tests hold that record to the matrix form, which derives the step for
the call, byte for byte and error for error, and check that no recursion
writes what it is given: the kernel runs in place over its own lattices,
and a one-sentence record's packed rows are the caller's matrix itself.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from efbtag import efb, hmc
from efbtag.errors import NumericalDegeneracyError
from test_batch_decode import SEED, random_chain
from test_rescale_schedule import draw, outcome, problems

K = hmc.RESCALE_EVERY
LENGTHS = [5, 9, 1, 9]


def same(got, want):
    """Both the same error text, or both results of the same bytes."""
    if isinstance(want, str) or isinstance(got, str):
        return got == want
    return [np.asarray(g).tobytes() for g in got] == [np.asarray(w).tobytes() for w in want]


def snapshot(*arrays):
    """Copies of `arrays`, None kept as None."""
    return [None if a is None else np.array(a, copy=True) for a in arrays]


def unchanged(before, arrays):
    """Each of `arrays` still has the bytes of its `snapshot`."""
    return all(b is None and a is None or b is not None and b.tobytes() == np.asarray(a).tobytes()
               for b, a in zip(before, arrays))


def word_chain(rng, n, words):
    """A random chain with an emission table of `words` words plus the unknown one."""
    chain = random_chain(rng, n)
    return hmc.HmcParams(chain.pi, chain.trans, rng.dirichlet(np.ones(words + 1), size=n))


@settings(max_examples=100, deadline=None)
@given(every=st.sampled_from([1, 3, K]), **problems)
@example(every=8, n=3, lengths=[30], seed=2, sticky=1e-20, near_share=0.7)
@example(every=1, n=3, lengths=[5, 12, 1, 7], seed=4, sticky=1e-20, near_share=0.7)
def test_the_chain_record_gives_the_backward_of_its_matrix(
        every, n, lengths, seed, sticky, near_share):
    """On `test_rescale_schedule`'s problems, alone and batched, the chain's
    `ReversedStep` gives the lattice, scales or error text that `trans`
    gives, from which `scaled_backward` derives the step for the call."""
    _, chain, rows = draw(n, lengths, seed, sticky, near_share)
    ends = np.cumsum(lengths)
    runs = [(rows[e - t : e], None) for t, e in zip(lengths, ends)] + [(rows, lengths)]
    for emissions, lens in runs:
        record = hmc.prepare_rows(emissions, lens, every)
        want = outcome(lambda: hmc.scaled_backward(chain.trans, record))
        assert same(outcome(lambda: hmc.scaled_backward(chain.reversed_step, record)), want)
        if every == 1:  # and from the matrix, which runs every step
            matrix = outcome(lambda: hmc.scaled_backward(chain.reversed_step, emissions, lens))
            assert same(matrix, want)


def decodes(params, lmat, obs):
    """`hmc.backward`, then `efb.entropic_backward`, `efb.posterior_efb` and
    `hmc.posterior_fb` over all of LENGTHS and over its first sentence."""
    spans = [(lmat, obs, LENGTHS), (lmat[:5], obs[:5], None)]
    return [hmc.backward(params, obs)[0],
            *(efb.entropic_backward(params, m, lens)[0] for m, _, lens in spans),
            *(efb.posterior_efb(params, m, lens).values for m, _, lens in spans),
            *(hmc.posterior_fb(params, o, lens).values for _, o, lens in spans)]


def matrix_decodes(params, lmat, obs):
    """The same decodes with each backward deriving its step from
    `params.trans` for the call."""
    def posterior(emissions, lens):
        record = hmc.prepare_rows(emissions, lens, K)
        alphas, _ = hmc.scaled_forward(params.pi, params.trans, record)
        betas, _ = hmc.scaled_backward(params.trans, record)
        return hmc.posterior_from_lattices(alphas, betas).values
    ratio, emissions = efb.conditional_matrix(params, lmat) / params.pi, params.emit_rows[obs]
    spans = [(ratio, emissions, LENGTHS), (ratio[:5], emissions[:5], None)]
    return [hmc.scaled_backward(params.trans, emissions)[0],
            *(hmc.scaled_backward(params.trans, r, lens)[0] for r, _, lens in spans),
            *(posterior(r, lens) for r, _, lens in spans),
            *(posterior(e, lens) for _, e, lens in spans)]


def test_each_backward_caller_reads_its_own_chains_record():
    """`hmc.backward`, `efb.entropic_backward` and the chain posteriors,
    alone and batched, give the bytes of `scaled_backward` over the chain's
    matrix, for two chains of one size decoded alternately, whose decodes
    differ: each reads its own chain's step."""
    rng = np.random.default_rng(SEED)
    chains = [word_chain(rng, 4, 6), word_chain(rng, 4, 6)]
    lmat = rng.dirichlet(np.ones(4), size=sum(LENGTHS))
    obs = rng.integers(0, 7, sum(LENGTHS))
    wants = [matrix_decodes(chain, lmat, obs) for chain in chains]
    assert all(a.tobytes() != b.tobytes() for a, b in zip(*wants))
    for _ in range(2):
        for chain, want in zip(chains, wants):
            assert same(decodes(chain, lmat, obs), want)


def test_every_chain_carries_its_own_record():
    """A bare chain, one with emissions and an `EfbParams` derive the record
    at build time, from their own transitions, and it is read-only."""
    rng = np.random.default_rng(SEED)
    chain = random_chain(rng, 3)
    efb_chain = efb.EfbParams(chain.pi, chain.trans, l_provider=lambda item, t: item)
    emitting = hmc.HmcParams(chain.pi, chain.trans, rng.dirichlet(np.ones(3), size=3))
    other = random_chain(rng, 3)
    for params in (chain, efb_chain, emitting, other):
        record = params.reversed_step
        assert isinstance(record, hmc.ReversedStep)
        into = params.trans.sum(axis=0)
        assert np.allclose(record.step, (params.trans / into).T, rtol=1e-15, atol=0)
        assert np.allclose(record.weights, into / into.max(), rtol=1e-15, atol=0)
        assert record.most == into.max()
        for array in (record.step, record.weights):
            assert not array.flags.writeable
            with pytest.raises(ValueError):
                array[...] = 0.0
    assert not np.array_equal(chain.reversed_step.step, other.reversed_step.step)


@pytest.mark.parametrize("lengths", [None, LENGTHS], ids=["alone", "batched"])
def test_no_recursion_writes_the_callers_matrix_or_chain(lengths):
    """The caller's float64 emission matrix, `pi` and `trans` keep their
    bytes through every recursion at every step, from the matrix and from
    the chain's record; alone, the record's packed rows are that matrix."""
    rng = np.random.default_rng(SEED)
    chain = random_chain(rng, 4)
    emissions = rng.random((sum(LENGTHS) if lengths else 9, 4))
    if lengths is None:
        assert hmc.prepare_rows(emissions).packed is emissions
    inputs = (emissions, chain.pi, chain.trans, *chain.reversed_step[:2])
    before = snapshot(*inputs)
    hmc.scaled_forward(chain.pi, chain.trans, emissions, lengths)
    hmc.scaled_backward(chain.trans, emissions, lengths)
    hmc.scaled_backward(chain.reversed_step, emissions, lengths)
    efb.entropic_forward(chain, emissions, lengths)
    efb.entropic_backward(chain, emissions, lengths)
    assert unchanged(before, inputs)


@pytest.mark.parametrize("every", [1, 3, K])
@pytest.mark.parametrize("degenerate", [False, True], ids=["mass", "no mass"])
def test_no_recursion_writes_its_record(every, degenerate):
    """A record's arrays keep their bytes through both recursions, alone and
    batched, where blocks fall under the guard and run again step by step,
    and where a sentence has no mass and the recursions raise."""
    chain = hmc.HmcParams(pi=np.array([0.5, 0.5]), trans=np.eye(2))
    rng = np.random.default_rng(SEED)
    emissions = rng.dirichlet(np.ones(2), size=sum(LENGTHS))
    emissions[5:14] = np.eye(2)[np.arange(9) % 2]  # flips each step: a block falls
    ratio = efb.conditional_matrix(chain, emissions) / chain.pi
    if degenerate:
        ratio[16] = 0.0
    for emissions, lengths in ((ratio[5:14], None), (ratio, LENGTHS)):
        record = hmc.prepare_rows(emissions, lengths, every)
        before = snapshot(*record)
        for run in (lambda: hmc.scaled_forward(chain.pi, chain.trans, record),
                    lambda: hmc.scaled_backward(chain.reversed_step, record),
                    lambda: hmc.scaled_backward(chain.trans, record)):
            outcome(run)
        assert unchanged(before, record)


def test_the_chain_record_keeps_its_bytes_through_decodes():
    """Batched and per-sentence posteriors of every chain kind, and a
    sentence that degenerates, leave the record read-only and unchanged."""
    rng = np.random.default_rng(SEED)
    params = word_chain(rng, 4, 6)
    record = params.reversed_step
    before = snapshot(*record[:2], params.pi, params.trans)
    lmat = rng.dirichlet(np.ones(4), size=sum(LENGTHS))
    obs = rng.integers(0, 7, sum(LENGTHS))
    efb.posterior_efb(params, lmat, LENGTHS)
    efb.posterior_efb(params, lmat[:9])
    hmc.posterior_fb(params, obs, LENGTHS)
    hmc.posterior_fb(params, obs[:9])
    lmat[3] = np.nan
    with pytest.raises(NumericalDegeneracyError):
        efb.posterior_efb(params, lmat, LENGTHS)
    assert params.reversed_step is record
    assert not record.step.flags.writeable and not record.weights.flags.writeable
    assert unchanged(before, (*record[:2], params.pi, params.trans))
