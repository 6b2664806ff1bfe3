"""The posteriors' rescaling schedule against rescaling at every step.

`hmc.posterior_fb`, `posterior_naive_features` and `efb.posterior_efb` run
the scaled recursions on rows that `hmc.prepare_rows` prepared with
`every=hmc.RESCALE_EVERY`: each emission row is divided by its maximum,
and a row is normalized only every k steps and at its sentence's end.
These tests hold the schedule to the every-step recursions on random
chains and emissions, with exact zeros, `L_FLOOR` and near-zero entries
among them: wherever the every-step posterior is
within TOL (stated before any run) of the exact one, which a 50-digit
decimal recursion gives, the schedule's is within TOL of it, with the
same label wherever its top two are further apart than TOL; `unscale`
keeps its meaning; a batch gives each sentence its own bytes; and a
sentence with no mass, or whose block or posterior denominator falls
under its guard, is run again step by step, so it raises the every-step
error or gives the every-step rows.  A row divided by zero would raise a RuntimeWarning, which pytest
turns into a failure here.

Where near-zero emissions meet a chain that almost never moves, the
every-step recursion itself can lose its small entries to float64's
subnormal range and miss the exact posterior by far more than TOL, or
call a sentence that has mass degenerate; the schedule, whose rows are
divided by their maxima first, is then as a rule the closer of the two,
and nothing more is asserted of it.
"""

from decimal import Decimal, localcontext

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from efbtag import efb, hmc
from efbtag.errors import InvalidInputError, NumericalDegeneracyError
from test_batch_decode import DEGENERATE, SEED, random_chain

TOL = 1e-12
# entries that a random emission row may take in place of its own
NEAR_ZERO = (0.0, efb.L_FLOOR, 1e-200, 1e-60)
# `unscale` is compared on rows whose exact maximum is at least this: below
# it the cumulative product of the scales is itself near underflow
UNSCALED_FLOOR = 1e-200
KINDS = ["hmc-fb", "hmc-naive-features", "hmc-efb"]


def chain_of(rng, n, sticky):
    """A random chain, or with `sticky` one that stays put but for `sticky`
    a move, so that rows which disagree drain a block's mass."""
    if sticky is None:
        return random_chain(rng, n)
    trans = np.full((n, n), sticky)
    np.fill_diagonal(trans, 1.0 - (n - 1) * sticky)
    return hmc.HmcParams(pi=rng.dirichlet(np.ones(n)), trans=trans)


def word_table(rows: np.ndarray) -> np.ndarray:
    """An (N, T + 1) emission table whose column t is proportional to rows[t]
    for every label, plus an unknown-word column that keeps each row's sum > 0."""
    table = np.concatenate([rows.T, np.ones((rows.shape[1], 1))], axis=1)
    return table / table.sum(axis=1, keepdims=True)


def posterior_of(kind, chain, rows, rng):
    """The posterior function of `kind` from (obs, lengths) to its lattice rows,
    the observations, and the emission matrix that the posterior runs on."""
    total = len(rows)
    if kind == "hmc-fb":
        params = hmc.HmcParams(chain.pi, chain.trans, word_table(rows))
        obs = np.arange(total)
        return (lambda o, lens=None: hmc.posterior_fb(params, o, lens).values,
                obs, params.emit_rows[obs])
    if kind == "hmc-naive-features":
        # family "a" holds one value per token, family "b" three shared ones
        model = hmc.NaiveFeatureEmission(("a", "b"), {
            "a": word_table(rows), "b": rng.dirichlet(np.ones(4), size=len(chain.pi))
        })
        obs = np.stack([np.arange(total), total + rng.integers(0, 3, total)], axis=1)
        return (lambda o, lens=None: hmc.posterior_naive_features(chain, model, o, lens).values,
                obs, hmc.naive_emission_matrix(model, obs))
    return (lambda o, lens=None: efb.posterior_efb(chain, o, lens).values,
            rows, efb.conditional_matrix(chain, rows) / chain.pi)


def every_step(chain, emissions, lengths=None):
    """The posterior of the recursions at every = 1."""
    alphas, _ = hmc.scaled_forward(chain.pi, chain.trans, emissions, lengths)
    betas, _ = hmc.scaled_backward(chain.trans, emissions, lengths)
    return hmc.posterior_from_lattices(alphas, betas).values


def exact_lattices(chain, emissions):
    """The unscaled forward and backward values of one sentence, in 50-digit
    decimals, whose exponents do not underflow."""
    with localcontext() as ctx:
        ctx.prec = 50
        pi, trans, emit = (np.vectorize(Decimal, otypes=[object])(a)
                           for a in (chain.pi, chain.trans, emissions))
        alphas, betas = [pi * emit[0]], [np.full(len(pi), Decimal(1), dtype=object)]
        for t in range(1, len(emit)):
            alphas.append(emit[t] * alphas[-1].dot(trans))
            betas.append(trans.dot(emit[-t] * betas[-1]))
        return np.array(alphas), np.array(betas[::-1])


def exact_posterior(chain, emissions):
    """The exact posterior of one sentence, or None if it has no mass."""
    alphas, betas = exact_lattices(chain, emissions)
    joint = alphas * betas
    total = joint.sum(axis=1, keepdims=True)
    if (total == 0).any():
        return None
    return (joint / total).astype(float)


def outcome(fn):
    """The result, or the degeneracy message."""
    try:
        return fn()
    except NumericalDegeneracyError as err:
        return str(err)


def draw(n, lengths, seed, sticky, near_share):
    rng = np.random.default_rng(seed)
    chain = chain_of(rng, n, sticky)
    rows = rng.dirichlet(np.ones(n), size=sum(lengths))
    near = rng.random(rows.shape) < near_share
    rows[near] = rng.choice(NEAR_ZERO, size=int(near.sum()))
    return rng, chain, rows


problems = dict(
    n=st.integers(1, 6),
    lengths=st.lists(st.integers(1, 40), min_size=1, max_size=6),
    seed=st.integers(0, 2**32 - 1),
    sticky=st.sampled_from([None, None, 1e-12, 1e-20]),
    near_share=st.sampled_from([0.0, 0.3, 0.7]),
)


@pytest.mark.parametrize("kind", KINDS)
@settings(max_examples=60, deadline=None)
@given(**problems)
@example(n=3, lengths=[5, 12, 1, 7], seed=4, sticky=1e-20, near_share=0.7)
def test_scheduled_posteriors_are_the_every_step_ones(kind, n, lengths, seed, sticky, near_share):
    rng, chain, rows = draw(n, lengths, seed, sticky, near_share)
    posterior, obs, emissions = posterior_of(kind, chain, rows, rng)
    ends = np.cumsum(lengths)
    alone = []
    for t, e in zip(lengths, ends):
        exact = exact_posterior(chain, emissions[e - t : e])
        want = outcome(lambda: every_step(chain, emissions[e - t : e]))
        got = outcome(lambda: posterior(obs[e - t : e]))
        alone.append(got)
        if exact is None:  # no mass: every step finds it degenerate too
            assert isinstance(want, str) and got == want
        elif not isinstance(want, str) and np.max(np.abs(want - exact)) <= TOL:
            assert np.max(np.abs(got - want)) <= TOL
            top2 = np.sort(want, axis=1)[:, -2:] if n > 1 else np.ones((t, 2))
            clear = top2[:, 1] - top2[:, 0] > TOL
            assert (got.argmax(axis=1) == want.argmax(axis=1))[clear].all()
    batched = outcome(lambda: posterior(obs, lengths))
    failed = [a for a in alone if isinstance(a, str)]
    if failed:  # the step-by-step run of the failed sentences names the first failure
        assert batched in failed
    else:
        assert batched.tobytes() == np.concatenate(alone).tobytes()


def recursions(chain, every):
    """Each recursion on the rows that `prepare_rows` prepares at interval `every`."""
    return {
        "forward": lambda e, lens=None: hmc.scaled_forward(
            chain.pi, chain.trans, hmc.prepare_rows(e, lens, every)),
        "backward": lambda e, lens=None: hmc.scaled_backward(
            chain.trans, hmc.prepare_rows(e, lens, every)),
    }


@settings(max_examples=100, deadline=None)
@given(every=st.sampled_from([2, 3, hmc.RESCALE_EVERY]), **problems)
@example(every=8, n=3, lengths=[9, 4, 9], seed=1, sticky=None, near_share=0.0)
@example(every=8, n=3, lengths=[30], seed=2, sticky=1e-20, near_share=0.7)
def test_scheduled_recursions_unscale_to_the_every_step_values(
    every, n, lengths, seed, sticky, near_share
):
    """Per sentence, wherever the every-step pass unscales to the exact
    values to TOL of a row's largest entry, a scheduled pass does too; a
    batch gives each sentence its own lattice and scales, byte for byte;
    and a sentence the every-step pass finds degenerate for want of mass
    raises its error on the schedule."""
    _, chain, rows = draw(n, lengths, seed, sticky, near_share)
    emissions = efb.conditional_matrix(chain, rows) / chain.pi if seed % 2 else rows
    ends = np.cumsum(lengths)
    every_one = recursions(chain, 1)
    for name, recursion in recursions(chain, every).items():
        backward = name == "backward"
        alone = []
        for t, e in zip(lengths, ends):
            exact = exact_lattices(chain, emissions[e - t : e])[backward]
            want = outcome(lambda: every_one[name](emissions[e - t : e]))
            got = outcome(lambda: recursion(emissions[e - t : e]))
            alone.append(got)
            if isinstance(want, str):
                if not exact.max(axis=1).all():  # a row with no mass
                    assert got == want, name
                continue
            peak = exact.max(axis=1, keepdims=True).astype(float)
            exact = exact.astype(float)
            kept = (peak[:, 0] >= UNSCALED_FLOOR) & (
                np.abs(hmc.unscale(*want, backward) - exact) <= TOL * peak).all(axis=1)
            assert (np.abs(hmc.unscale(*got, backward) - exact)[kept] <= TOL * peak[kept]).all()
        batched = outcome(lambda: recursion(emissions, lengths))
        failed = [a for a in alone if isinstance(a, str)]
        if failed:
            assert batched in failed, name
            continue
        for got, want in zip(batched, zip(*alone)):
            assert got.tobytes() == np.concatenate(want).tobytes(), name


def test_a_block_under_the_guard_is_run_again_step_by_step():
    """Conditionals that disagree by `L_FLOOR` over a chain that never moves
    drain a block's mass to nothing; that sentence alone is run every step,
    and gives the every-step bytes, batched among others, while the others
    keep the schedule."""
    rng = np.random.default_rng(SEED)
    chain = hmc.HmcParams(pi=np.array([0.5, 0.5]), trans=np.eye(2))
    lengths = [3, 10, 17]
    lmat = rng.dirichlet(np.ones(2), size=sum(lengths))
    lmat[3:13] = np.eye(2)[np.arange(10) % 2]  # the 10-token sentence flips each step
    ratio = efb.conditional_matrix(chain, lmat) / chain.pi
    for name, recursion in recursions(chain, hmc.RESCALE_EVERY).items():
        lattice, scales = recursion(ratio, lengths)
        alone = recursions(chain, 1)[name](ratio[3:13])
        assert lattice[3:13].tobytes() == alone[0].tobytes(), name
        assert scales[3:13].tobytes() == alone[1].tobytes(), name
        others = recursions(chain, 1)[name](ratio[13:])
        assert scales[13:].tobytes() != others[1].tobytes(), name
    posterior = efb.posterior_efb(chain, lmat, lengths).values
    assert posterior[3:13].tobytes() == every_step(chain, ratio[3:13]).tobytes()


@pytest.mark.parametrize("kind, n, length, seed, fallen", [
    ("hmc-fb", 4, 22, 96, "forward"), ("hmc-efb", 5, 12, 1986, "backward"),
])
def test_each_recursion_reruns_only_its_own_fallen_blocks(kind, n, length, seed, fallen):
    """One sentence, over a chain that moves with odds 1e-20, in which only
    the `fallen` recursion has a block under RESCALE_GUARD: that recursion
    alone runs again step by step, and the posterior read from its rerun
    and the other's scheduled lattice is within TOL of the exact one, while
    the every-step posterior is not.  Rerunning the whole sentence every
    step, in place of each recursion's own rerun, would give the latter."""
    rng, chain, rows = draw(n, [length], seed, sticky=1e-20, near_share=0.7)
    posterior, obs, emissions = posterior_of(kind, chain, rows, rng)
    every_one = recursions(chain, 1)
    for name, recursion in recursions(chain, hmc.RESCALE_EVERY).items():
        ran_again = recursion(emissions)[1].tobytes() == every_one[name](emissions)[1].tobytes()
        assert ran_again == (name == fallen), name
    exact = exact_posterior(chain, emissions)
    assert np.max(np.abs(posterior(obs) - exact)) <= TOL
    assert np.max(np.abs(every_step(chain, emissions) - exact)) > TOL


def ladder_sentence(steps=9, move=1e-33, drain=10 ** -12.3, r=0.1, k=hmc.RESCALE_EVERY):
    """A chain that climbs states 0..steps one `move` at a time, plus a last
    state that it never enters, and a sentence over it whose alpha and beta
    rows disagree by about `move` ** `steps` in its middle block: its past
    pulls down the ladder and its future up it, each by `r` a rung a step,
    so no block of either pass pays the climb at once; the middle block
    favours the last state, so both passes lose `drain` of their mass a step
    there, and no block closes under the guard."""
    n = steps + 2
    trans = np.zeros((n, n))
    trans[:-1, :-1] = np.eye(n - 1) * (1 - move) + np.eye(n - 1, k=1) * move
    trans[-2, -2] = 1.0
    trans[-1, :-1] = 1.0 / (n - 1)
    chain = hmc.HmcParams(pi=np.full(n, 1.0 / n), trans=trans)
    down = np.append(r ** np.arange(steps + 1.0), 1e-30)
    middle = np.append(np.full(steps + 1, drain), 1.0)
    rows = np.concatenate([np.tile(down, (10 * k, 1)), np.tile(middle, (k, 1)),
                           np.tile(down[-2::-1].tolist() + [1e-30], (10 * k, 1))])
    return chain, rows / rows.sum(axis=1, keepdims=True)


@pytest.mark.parametrize("kind", KINDS)
def test_a_posterior_denominator_under_the_guard_is_run_again_step_by_step(kind):
    """Alpha and beta rows that disagree by about 1e-297, each at a block
    mass near the guard, overlap under POSTERIOR_GUARD on the schedule,
    though every step finds a posterior within TOL of the exact one: that
    sentence alone is run every step, batched among others, and gives the
    every-step bytes.  Unguarded, the schedule's denominators fall under
    float64's least normal number for hmc-naive-features and hmc-efb, which
    raises 'posterior denominator underflowed'; hmc-fb's fall to 1.5e-233."""
    rng = np.random.default_rng(SEED)
    chain, ladder = ladder_sentence()
    lengths = [5, len(ladder), 7]
    rows = np.concatenate([rng.dirichlet(np.ones(len(chain.pi)), size=5), ladder,
                           rng.dirichlet(np.ones(len(chain.pi)), size=7)])
    posterior, obs, emissions = posterior_of(kind, chain, rows, rng)
    sentence = slice(5, 5 + len(ladder))
    want = every_step(chain, emissions[sentence])
    assert np.max(np.abs(want - exact_posterior(chain, emissions[sentence]))) <= TOL
    scheduled = recursions(chain, hmc.RESCALE_EVERY)
    alphas, _ = scheduled["forward"](emissions[sentence])
    betas, _ = scheduled["backward"](emissions[sentence])
    assert (alphas * betas).sum(axis=1).min() < hmc.POSTERIOR_GUARD
    batched = posterior(obs, lengths)
    assert batched[sentence].tobytes() == want.tobytes()
    assert posterior(obs[sentence]).tobytes() == want.tobytes()
    for part in (slice(0, 5), slice(5 + len(ladder), None)):
        assert batched[part].tobytes() == posterior(obs[part]).tobytes()


def test_the_scales_are_the_row_maxima_times_the_sums():
    """Forward scale t is emission row t's maximum, times the row's sum where
    it is normalized; backward scale t is that of the reverse run's step
    11 - 2 - t, which read emission row t + 1: its maximum, times the
    largest mass that the transitions move into a label, times the row's
    sum where that step is normalized, and 1 at the last position."""
    rng = np.random.default_rng(SEED)
    chain = random_chain(rng, 4)
    emissions = rng.random((11, 4))
    peaks = emissions.max(axis=1)
    rows = hmc.prepare_rows(emissions, every=4)
    _, forward = hmc.scaled_forward(chain.pi, chain.trans, rows)
    _, backward = hmc.scaled_backward(chain.trans, rows)
    normalized = np.zeros(11, dtype=bool)
    normalized[[3, 7, 10]] = True
    assert (forward[~normalized] == peaks[~normalized]).all()
    assert (forward[normalized] != peaks[normalized]).all()
    normalized = np.zeros(11, dtype=bool)
    normalized[[6, 2]] = True  # steps 3 and 7 of the reverse run
    follow = np.append(peaks[1:] * chain.trans.sum(axis=0).max(), 1.0)
    assert (backward[~normalized] == follow[~normalized]).all()
    assert (backward[normalized] != follow[normalized]).all()


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("lengths, which, zeroed", DEGENERATE)
def test_a_degenerate_sentence_raises_the_every_step_error_in_each_posterior(
    kind, lengths, which, zeroed
):
    """Zero-mass emission rows at `zeroed` of sentence `which`: each posterior
    raises the forward pass's every-step error at the first of them, batched
    and alone.  EFB floors an all-zero conditional at `L_FLOOR`, so there it
    decodes, as at every step; a NaN or infinite conditional row degenerates
    instead, with no RuntimeWarning."""
    rng = np.random.default_rng(SEED)
    chain = random_chain(rng, 4)
    rows = rng.dirichlet(np.ones(4), size=sum(lengths))
    start = sum(lengths[:which])
    rows[[start + p for p in zeroed]] = 0.0
    sentence = slice(start, start + lengths[which])
    posterior, obs, emissions = posterior_of(kind, chain, rows, rng)
    degenerate = [obs]
    if kind == "hmc-efb":
        batched = posterior(obs, lengths)
        assert batched[sentence].tobytes() == posterior(obs[sentence]).tobytes()
        assert np.max(np.abs(batched - every_step(chain, emissions, lengths))) <= TOL
        degenerate = [obs.copy(), obs.copy()]
        for filled, fill in zip(degenerate, (np.nan, np.inf)):
            filled[[start + p for p in zeroed]] = fill
    for obs in degenerate:
        with pytest.raises(NumericalDegeneracyError) as alone:
            posterior(obs[sentence])
        with pytest.raises(NumericalDegeneracyError) as together:
            posterior(obs, lengths)
        named = f"forward pass degenerated to zero mass at position {min(zeroed)}"
        assert str(alone.value) == named
        assert str(together.value) == str(alone.value)


@pytest.mark.parametrize("lengths, which, zeroed", DEGENERATE)
def test_a_degenerate_sentence_names_its_position_on_the_schedule(lengths, which, zeroed):
    """The recursions on the posteriors' schedule name, batched and alone, the
    positions that they name at every step: those of zero-mass rows, and of
    rows with an infinite entry, which are named as NaN rows are."""
    rng = np.random.default_rng(SEED)
    chain = random_chain(rng, 4)
    emissions = rng.random((sum(lengths), 4))
    start = sum(lengths[:which])
    for fill in (0.0, [0.5, np.inf, 0.5, 0.0]):
        emissions[[start + p for p in zeroed]] = fill
        sentence = emissions[start : start + lengths[which]]
        for name, recursion in recursions(chain, hmc.RESCALE_EVERY).items():
            with pytest.raises(NumericalDegeneracyError) as alone:
                recursion(sentence)
            with pytest.raises(NumericalDegeneracyError) as batched:
                recursion(emissions, lengths)
            named = min(zeroed) if name == "forward" else max(zeroed) - 1
            assert str(alone.value).endswith(f"at position {named}"), name
            assert str(batched.value) == str(alone.value), name


@pytest.mark.parametrize("every", [0, -1, 1.5, "8", None])
def test_the_rescaling_interval_is_a_positive_integer(every):
    chain = random_chain(np.random.default_rng(SEED), 3)
    emissions = np.full((4, 3), 0.5)
    for recursion in recursions(chain, every).values():
        with pytest.raises(InvalidInputError, match="rescaling interval"):
            recursion(emissions)



@pytest.mark.parametrize("every", [1, hmc.RESCALE_EVERY])
@pytest.mark.parametrize("direction", ["forward", "backward"])
@pytest.mark.parametrize("shape", [(5,), (5, 3), (5, 1), (5, 2, 2), ()],
                         ids=["1-D", "3 columns", "1 column", "3-D", "0-D"])
def test_emissions_that_do_not_fit_the_chain_are_refused(every, direction, shape):
    """Emissions that are not one (T, N) matrix of the chain's N labels are an
    InvalidInputError at every interval, not a numpy error."""
    chain = random_chain(np.random.default_rng(SEED), 2)
    with pytest.raises(InvalidInputError, match=r"takes \(T, N\) emissions"):
        recursions(chain, every)[direction](np.full(shape, 0.5))


def test_a_prior_or_transitions_of_another_label_count_are_refused():
    chain = random_chain(np.random.default_rng(SEED), 3)
    emissions = np.full((4, 3), 0.5)
    with pytest.raises(InvalidInputError, match=r"prior \(2,\)"):
        hmc.scaled_forward(chain.pi[:2], chain.trans, emissions)
    with pytest.raises(InvalidInputError, match=r"transitions \(3, 2\), prior"):
        hmc.scaled_forward(chain.pi, chain.trans[:, :2], emissions)
    with pytest.raises(InvalidInputError, match=r"transitions \(3, 2\)$"):
        hmc.scaled_backward(chain.trans[:, :2], emissions)


@pytest.mark.parametrize("rerun", [False, True], ids=["alone", "with rerun"])
@pytest.mark.parametrize("shapes", [((4, 3), (4, 2)), ((4, 3), (3, 3)), ((4,), (4,)),
                                    ((2, 2, 2), (2, 2, 2))],
                         ids=["widths", "lengths", "1-D", "3-D"])
def test_lattices_of_other_shapes_are_refused(shapes, rerun):
    alphas, betas = (np.full(shape, 0.5) for shape in shapes)
    with pytest.raises(InvalidInputError, match="both must be one T x N table"):
        hmc.posterior_from_lattices(alphas, betas, (lambda marked: (alphas, betas))
                                    if rerun else None)
