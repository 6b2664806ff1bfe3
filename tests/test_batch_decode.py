"""Batched decoding: a batch decodes as its sentences do one at a time.

`Tagger.decode` given a batch sorts it by length into buckets, and each
bucket runs through the public layers' `lengths=` form: the recursions
take every sentence one step at a time in lockstep, each step over the
packed rows of the sentences still running; the featured kinds score
each distinct feature row of a bucket once.  These tests check that the
batch form gives each sentence the posteriors (to 1e-12), the scaled
lattices and scales (to the byte), the degeneracy errors and the labels
that the per-sentence form gives, in input order, that the bucket cap
holds, and that bad lengths and token rows raise `InvalidInputError`.  A
row divided by zero would raise a `RuntimeWarning`, which pytest turns
into a failure here.
"""

import importlib.util
import json
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from conftest import memo_rows
import efbtag.modelfile  # noqa: F401  a traced module: the span recorder wraps it
from efbtag import efb, evaluation, features, hmc, memm
from efbtag import tagger as tagger_module
from efbtag.core import check_lengths
from efbtag.dataio import CorpusFormat, read_corpus
from efbtag.discrim import LogisticModel, SgdConfig
from efbtag.errors import InvalidInputError, NumericalDegeneracyError
from efbtag.features import FeatureTemplate
from efbtag.modelfile import load_model, save_model
from efbtag.tagger import BUCKET_TOKENS, DecoderKind, buckets, train_tagger

BENCH = Path(__file__).resolve().parents[1] / "benchmarks"


def _load(name: str, path: Path):
    """A benchmark module loaded by path, so its directory stays off sys.path;
    registered first, because its dataclasses look their module up there."""
    spec = importlib.util.spec_from_file_location(name, path)
    module = sys.modules[name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


gen = _load("efbtag_bench_gen", BENCH / "gen.py")

TOL = 1e-12
SEED = 3
LONG = BUCKET_TOKENS + 1  # a sentence this long shares no bucket


# --- the layers' lengths= form, on random models -----------------------------


def random_chain(rng, n):
    trans = rng.dirichlet(np.ones(n), size=n)
    return hmc.HmcParams(pi=rng.dirichlet(np.ones(n)), trans=trans)


def random_memm(rng, n, n_features=40):
    l0 = LogisticModel(rng.normal(size=(n_features + 1, n)), n_features, n, False)
    l1 = LogisticModel(rng.normal(size=(n_features + n + 1, n)), n_features, n, True)
    return l0, l1


def random_naive(rng, n, values=(5, 3)):
    families = tuple(f"f{k}" for k in range(len(values)))
    return hmc.NaiveFeatureEmission(
        families=families,
        tables={f: rng.dirichlet(np.ones(v + 1), size=n) for f, v in zip(families, values)},
    )


def kind_posteriors(kind: str, rng, n: int, lengths: list[int]):
    """One random model of `kind` and a function from (obs, lengths) to its
    stacked posterior rows, with stacked observations for `lengths`."""
    total = sum(lengths)
    if kind == "hmc-fb":
        chain = random_chain(rng, n)
        params = hmc.HmcParams(chain.pi, chain.trans, rng.dirichlet(np.ones(8), size=n))
        obs = rng.integers(0, 8, size=total)
        return obs, lambda o, lens=None: hmc.posterior_fb(params, o, lens).values
    if kind == "hmc-naive-features":
        chain, model = random_chain(rng, n), random_naive(rng, n)
        obs = rng.integers(0, len(model.stacked_rows), size=(total, 2))
        return obs, lambda o, lens=None: hmc.posterior_naive_features(
            chain, model, o, lens
        ).values
    if kind == "hmc-efb":
        chain = random_chain(rng, n)
        obs = rng.dirichlet(np.ones(n), size=total)
        return obs, lambda o, lens=None: efb.posterior_efb(chain, o, lens).values
    model = random_memm(rng, n)
    obs = rng.integers(0, 40, size=(total, 3))
    return obs, lambda o, lens=None: memm.memm_forward(*model, o, lens)


KINDS = [kind.value for kind in DecoderKind]

# length-1 sentences mixed with long ones, in no particular order
batch_lengths = st.lists(
    st.one_of(st.just(1), st.integers(1, 30), st.integers(150, 400)), min_size=1, max_size=12
)


@pytest.mark.parametrize("kind", KINDS)
@settings(max_examples=25, deadline=None)
@given(n=st.integers(1, 20), lengths=batch_lengths, seed=st.integers(0, 2**32 - 1))
def test_stacked_posteriors_equal_per_sentence(kind, n, lengths, seed):
    obs, posterior = kind_posteriors(kind, np.random.default_rng(seed), n, lengths)
    batched = posterior(obs, lengths)
    ends = np.cumsum(lengths)
    alone = np.concatenate([posterior(obs[e - t : e]) for t, e in zip(lengths, ends)])
    assert batched.shape == alone.shape
    assert np.max(np.abs(batched - alone)) <= TOL
    assert batched.argmax(axis=1).tolist() == alone.argmax(axis=1).tolist()


@pytest.mark.parametrize("kind", KINDS)
def test_a_long_sentence_alone_and_among_short_ones(kind):
    lengths = [1, LONG, 3, 1]
    obs, posterior = kind_posteriors(kind, np.random.default_rng(SEED), 17, lengths)
    batched = posterior(obs, lengths)
    assert np.max(np.abs(batched[1 : 1 + LONG] - posterior(obs[1 : 1 + LONG]))) <= TOL
    assert np.array_equal(posterior(obs[1 : 1 + LONG], [LONG]), batched[1 : 1 + LONG])


def test_each_backward_pass_starts_at_its_sentence_end():
    """A sentence's last backward row is the prior of ones, with scale 1, as
    alone, however many steps the longest sentence runs before it."""
    rng = np.random.default_rng(SEED)
    chain = random_chain(rng, 5)
    lengths = [4, 1, 30, 7]
    betas, scales = hmc.scaled_backward(chain.trans, rng.random((sum(lengths), 5)), lengths)
    ends = np.cumsum(lengths) - 1
    assert (betas[ends] == 1.0).all() and (scales[ends] == 1.0).all()


def _recursions(chain):
    """The scaled forward and backward recursions of `chain`, each from
    (emissions, lengths=None) to its (lattice, scales)."""
    return {
        "forward": lambda e, lens=None: hmc.scaled_forward(chain.pi, chain.trans, e, lens),
        "backward": lambda e, lens=None: hmc.scaled_backward(chain.trans, e, lens),
    }


# many sentences of one length, length-1 sentences and longer ones, shuffled
packed_lengths = st.lists(
    st.one_of(st.just(1), st.sampled_from([4, 9]), st.integers(1, 60)), min_size=1, max_size=40
).flatmap(st.permutations)


@settings(max_examples=60, deadline=None)
@given(n=st.integers(1, 20), lengths=packed_lengths, seed=st.integers(0, 2**32 - 1))
@example(n=5, lengths=[9, 4, 9], seed=1)  # the longest two tie: no step runs alone
@example(n=5, lengths=[30], seed=2)  # one sentence: no stacked step
@example(n=5, lengths=[1, 1, 1, 1], seed=3)
def test_lockstep_lattices_and_scales_are_the_per_sentence_bytes(n, lengths, seed):
    rng = np.random.default_rng(seed)
    chain = random_chain(rng, n)
    emissions = rng.random((sum(lengths), n))
    ends = np.cumsum(lengths)
    for name, recursion in _recursions(chain).items():
        lattice, scales = recursion(emissions, lengths)
        alone = [recursion(emissions[e - t : e]) for t, e in zip(lengths, ends)]
        expected = np.concatenate([rows for rows, _ in alone])
        assert lattice.shape == expected.shape and lattice.tobytes() == expected.tobytes(), name
        expected = np.concatenate([s for _, s in alone])
        assert scales.shape == expected.shape and scales.tobytes() == expected.tobytes(), name


# (lengths, sentence, zeroed positions): the 12-token sentence of the second
# batch runs alone from position 7, where the 7-token one ends
DEGENERATE = [([5, 7, 1, 7, 3], 3, (p,)) for p in (1, 3, 6)] + [
    ([5, 12, 1, 7, 3], 1, zeroed) for zeroed in ((2,), (6,), (7,), (8,), (11,), (2, 9), (6, 8))
]


@pytest.mark.parametrize("lengths, which, zeroed", DEGENERATE)
def test_a_degenerate_sentence_names_its_own_position_in_a_batch(lengths, which, zeroed):
    """Zero-mass emission rows at `zeroed` of sentence `which` zero its
    forward row at the first of them and its backward row just before the
    last; the batch names the positions that decoding the sentence alone
    names, in either phase of the recursion."""
    rng = np.random.default_rng(SEED)
    chain = random_chain(rng, 4)
    emissions = rng.random((sum(lengths), 4))
    start = sum(lengths[:which])
    emissions[[start + p for p in zeroed]] = 0.0
    sentence = emissions[start : start + lengths[which]]
    for name, recursion in _recursions(chain).items():
        with pytest.raises(NumericalDegeneracyError) as alone:
            recursion(sentence)
        with pytest.raises(NumericalDegeneracyError) as batched:
            recursion(emissions, lengths)
        named = min(zeroed) if name == "forward" else max(zeroed) - 1
        assert str(alone.value).endswith(f"at position {named}"), name
        assert str(batched.value) == str(alone.value), name


def test_provider_rows_count_positions_within_each_sentence(worked_params):
    seen = []
    params = efb.EfbParams(
        pi=worked_params.pi, trans=worked_params.trans,
        l_provider=lambda y, t: seen.append(t) or np.array([0.3, 0.7]),
    )
    efb.conditional_matrix(params, [0, 1, 0, 1, 1, 0], [2, 1, 3])
    assert seen == [0, 1, 0, 0, 1, 2]


# --- bad lengths -------------------------------------------------------------


def _length_takers(params, chain, naive, model):
    """Every public function with a lengths= form but `forward_lattice`, on
    three stacked rows."""
    lmat = np.full((3, 2), 0.5)
    ids = np.zeros((3, 2), dtype=int)
    return {
        "check_lengths": lambda lens: check_lengths(lens, 3),
        "scaled_forward": lambda lens: hmc.scaled_forward(chain.pi, chain.trans, lmat, lens),
        "scaled_backward": lambda lens: hmc.scaled_backward(chain.trans, lmat, lens),
        "posterior_fb": lambda lens: hmc.posterior_fb(params, [0, 1, 0], lens),
        "posterior_naive_features": lambda lens: hmc.posterior_naive_features(
            chain, naive, ids, lens
        ),
        "conditional_matrix": lambda lens: efb.conditional_matrix(chain, lmat, lens),
        "provider conditional_matrix": lambda lens: efb.conditional_matrix(
            efb.EfbParams(chain.pi, chain.trans, l_provider=lambda y, t: lmat[0]),
            [0, 1, 0], lens,
        ),
        "entropic_forward": lambda lens: efb.entropic_forward(chain, lmat, lens),
        "entropic_backward": lambda lens: efb.entropic_backward(chain, lmat, lens),
        "posterior_efb": lambda lens: efb.posterior_efb(chain, lmat, lens),
        "memm_forward": lambda lens: memm.memm_forward(*model, ids, lens),
    }


@pytest.mark.parametrize(
    "lengths",
    [[], [0, 3], [-1, 4], [2, 2], [1, 1], [1.5, 1.5], [[1, 2]], 3, ["1", "2"]],
    ids=["none", "zero", "negative", "too-many", "too-few", "float", "nested",
         "scalar", "strings"],
)
def test_bad_lengths_raise_invalid_input(worked_params, lengths):
    rng = np.random.default_rng(SEED)
    chain = hmc.HmcParams(worked_params.pi, worked_params.trans)
    takers = _length_takers(worked_params, chain, random_naive(rng, 2), random_memm(rng, 2, 2))
    for call in takers.values():
        with pytest.raises(InvalidInputError):
            call(lengths)


def _row_takers(rng):
    """Every public function with a token_rows= form, as a function of id
    rows, sentence lengths (None for one sentence) and token rows."""
    chain, naive, model = random_chain(rng, 2), random_naive(rng, 2), random_memm(rng, 2, 2)
    return {
        "posterior_naive_features": lambda ids, lens, rows: hmc.posterior_naive_features(
            chain, naive, ids, lens, rows
        ).values,
        "memm_forward": lambda ids, lens, rows: memm.memm_forward(*model, ids, lens, rows),
    }


@pytest.mark.parametrize("rows", [[0, 3], [-1, 0], [0.5, 1.0], [[0, 1]], ["0", "1"]],
                         ids=["past-the-end", "negative", "float", "nested", "strings"])
def test_bad_token_rows_raise_invalid_input(rows):
    ids = np.zeros((3, 2), dtype=int)
    for call in _row_takers(np.random.default_rng(SEED)).values():
        for lengths in (None, [1, 1]):
            with pytest.raises(InvalidInputError):
                call(ids, lengths, rows)


def test_token_rows_give_the_bytes_of_one_row_per_token():
    rng = np.random.default_rng(SEED)
    ids, rows = rng.integers(0, 2, size=(3, 2)), rng.integers(0, 3, size=9)
    for name, call in _row_takers(rng).items():
        for lengths in (None, [4, 1, 4], [2, 3, 1, 3]):
            got, expected = call(ids, lengths, rows), call(ids[rows], lengths, None)
            assert np.asarray(got).tobytes() == np.asarray(expected).tobytes(), (name, lengths)


def test_forward_lattice_rejects_steps_that_do_not_fit_the_lengths():
    """Its rows are the first rows and the steps' tables, so it checks those
    against the lengths."""
    first = np.full((2, 2), 0.5)
    table = np.full((1, 2, 2), 0.5)
    for lengths in ([0, 1], [-1, 3], [1.5, 1.5], [[1, 1]]):
        with pytest.raises(InvalidInputError):
            memm.forward_lattice(first, iter([]), lengths)
    with pytest.raises(InvalidInputError, match="shape"):  # two live sentences at t=1
        memm.forward_lattice(first, iter([table]), [2, 2])
    with pytest.raises(InvalidInputError, match="steps"):  # one step short
        memm.forward_lattice(first, iter([table]), [3, 1])
    with pytest.raises(InvalidInputError, match="first rows"):
        memm.forward_lattice(first, iter([]), [1, 1, 1])


# --- buckets -----------------------------------------------------------------


@settings(max_examples=50, deadline=None)
@given(st.lists(st.one_of(st.integers(1, 200), st.integers(3000, 9000)), max_size=300))
def test_buckets_cover_every_sentence_within_the_cap(lengths):
    groups = buckets(lengths)
    assert sorted(i for g in groups for i in g) == list(range(len(lengths)))
    order = [lengths[i] for g in groups for i in g]
    assert order == sorted(order)
    tokens = [sum(lengths[i] for i in g) for g in groups]
    for g, total in zip(groups, tokens):
        assert len(g) == 1 or total <= BUCKET_TOKENS
    # each bucket is full: the next bucket's first sentence would overflow it
    for total, nxt in zip(tokens, groups[1:]):
        assert total + lengths[nxt[0]] > BUCKET_TOKENS


def test_bucket_boundaries():
    half = BUCKET_TOKENS // 2
    assert buckets([LONG, 3, 1]) == [[2, 1], [0]]
    assert buckets([half, half]) == [[0, 1]]  # exactly the cap
    assert buckets([half + 1, half]) == [[1], [0]]  # the cap + 1
    assert buckets([BUCKET_TOKENS - 1, 1]) == [[1, 0]]
    assert buckets([BUCKET_TOKENS, 1]) == [[1], [0]]
    assert [len(g) for g in buckets([2] * (half + 1))] == [half, 1]


# --- Tagger.decode on gen.py corpora -----------------------------------------

KIND_TEMPLATES = [(DecoderKind.HMC_FB, FeatureTemplate.LF1)] + [
    (kind, template)
    for kind in (DecoderKind.HMC_NAIVE, DecoderKind.HMC_EFB, DecoderKind.MEMM)
    for template in FeatureTemplate
]


@pytest.fixture(scope="module")
def gen_dir(tmp_path_factory):
    """A directory holding a gen.py train.conllu and test.conllu."""
    tmp = tmp_path_factory.mktemp("gen")
    lang = gen.Language()
    for part, (name, tokens) in enumerate((("train", 4_000), ("test", 3_000))):
        gen.write_conllu(tmp / f"{name}.conllu",
                         lang.sample([SEED, part], tokens, gen.ewt_lengths, 0.0))
    return tmp


@pytest.fixture(scope="module")
def corpora(gen_dir):
    train = read_corpus(gen_dir / "train.conllu", CorpusFormat.CONLLU)
    test = read_corpus(gen_dir / "test.conllu", CorpusFormat.CONLLU, tagset=train.tagset)
    return train, test


@pytest.fixture(scope="module")
def taggers(corpora):
    train, _ = corpora
    return {
        (kind, template): train_tagger(train, kind, template, SgdConfig(epochs=1))[0]
        for kind, template in KIND_TEMPLATES
    }


def test_gen_corpus_batch_equals_per_sentence(taggers, corpora):
    sentences = [s.tokens for s in corpora[1].sentences]
    # shuffled, so buckets reorder them and the result must undo that
    order = np.random.default_rng(SEED).permutation(len(sentences))
    batch = [sentences[i] for i in order]
    for (kind, template), tagger in taggers.items():
        assert tagger.decode(batch) == [tagger.decode(s) for s in batch], (kind, template)


def test_long_sentences_and_bucket_edges_equal_per_sentence(taggers, corpora):
    stream = [tok for s in corpora[1].sentences for tok in s.tokens]
    words = stream * (LONG // len(stream) + 1)
    side = BUCKET_TOKENS // 64
    at_cap = [words[i : i + side] for i in range(0, 64 * side, side)]
    edges = {
        "a long sentence alone": ([words[:3], tuple(words[:LONG]), words[3:4]], [2, 1]),
        "300 sentences of 1 to 7": ([words[i : i + 1 + i % 7] for i in range(300)], [300]),
        "exactly the cap": (at_cap, [64]),
        "the cap + 1": (at_cap + [words[:1]], [64, 1]),
    }
    for (kind, template), tagger in taggers.items():
        if template is FeatureTemplate.LF2 or kind is DecoderKind.HMC_FB:
            for name, (batch, sizes) in edges.items():
                assert [len(g) for g in buckets([len(s) for s in batch])] == sizes, name
                assert tagger.decode(batch) == [tagger.decode(s) for s in batch], (kind, name)


def test_empty_batch_and_empty_sentence_raise(taggers):
    tagger = taggers[DecoderKind.HMC_EFB, FeatureTemplate.LF1]
    with pytest.raises(InvalidInputError):
        tagger.decode([])
    for batch in ([("a", "b"), ()], [(), ("a",)], [[]]):
        with pytest.raises(InvalidInputError, match="empty sentence"):
            tagger.decode(batch)


def test_one_sentence_batch_is_a_list_of_one(taggers):
    tagger = taggers[DecoderKind.MEMM, FeatureTemplate.LF1]
    assert tagger.decode([("the", "cat")]) == [tagger.decode(("the", "cat"))]


# --- each bucket scores each distinct feature row once -------------------------


@pytest.fixture
def lattices(monkeypatch):
    """A function from a tagger and a sentence or batch to the lattice rows
    that its decode reads labels from, stacked in the order it reads them."""
    seen = []
    mpm = tagger_module.mpm_from_lattice

    def recording(lattice):
        seen.append(lattice.values.copy())
        return mpm(lattice)

    monkeypatch.setattr(tagger_module, "mpm_from_lattice", recording)

    def decode(tagger, tokens):
        seen.clear()
        tagger.decode(tokens)
        return np.concatenate(seen)

    return decode


def distinct_row_cases(train):
    """Batches whose (token, first) keys repeat in the ways a bucket's
    distinct rows must keep apart, or do not repeat at all."""
    words = list(dict.fromkeys(tok for s in train.sentences for tok in s.tokens))
    w, x = words[:2]
    novel = "Zq-9x"  # outside the index: its rows are staged, never kept
    assert novel not in words
    # 1,024 sentences of 8, one bucket: distinct first tokens, distinct later ones
    fresh = words + [f"{'Q' if i % 3 else 'q'}{i}{'-x' if i % 5 else ''}" for i in range(8192)]
    full = [[fresh[i]] + fresh[1024 + 7 * i : 1024 + 7 * i + 7] for i in range(1024)]
    return {
        "every token the same word": ([[w] * n for n in (1, 3, 7, 2, 12)], 2),
        "one word first and later": ([[w, x, w], [x, w], [w]], 4),
        "a word outside the index repeats": ([[novel, w, novel], [novel], [x, novel, novel]], 4),
        "every key distinct in a full bucket": (full, BUCKET_TOKENS),
    }


@pytest.mark.parametrize("kind, template", KIND_TEMPLATES, ids=lambda v: v.value)
def test_distinct_row_cases_give_the_per_sentence_bytes(taggers, corpora, lattices, kind,
                                                       template):
    """Batched lattices equal the per-sentence ones byte for byte, whether a
    bucket's tokens share one key, keep a word's first and later keys apart,
    repeat a word outside the index, or share none."""
    tagger = taggers[kind, template]
    for name, (batch, n_keys) in distinct_row_cases(corpora[0]).items():
        lengths = [len(s) for s in batch]
        assert len(buckets(lengths)) == 1, name
        if tagger.feature_index is not None:
            rows, _ = tagger.pipeline.sentence_features(batch, distinct=True)
            assert len(rows) == n_keys, name
        got = lattices(tagger, batch)
        order = buckets(lengths)[0]
        expected = np.concatenate([lattices(tagger, batch[i]) for i in order])
        assert got.shape == expected.shape and got.tobytes() == expected.tobytes(), name


def test_memm_scores_step_tables_once_per_bucket(taggers, corpora, monkeypatch):
    """One `predict_all_prev` call per multi-sentence bucket, on fewer rows
    than the bucket has later positions, since keys repeat."""
    sentences = [s.tokens for s in corpora[1].sentences] * 3
    groups = buckets([len(s) for s in sentences])
    assert len(groups) > 1 and min(map(len, groups)) > 1
    calls = []
    original = memm.predict_all_prev

    def counting(model, ids):
        calls.append(len(ids))
        return original(model, ids)

    monkeypatch.setattr(memm, "predict_all_prev", counting)
    taggers[DecoderKind.MEMM, FeatureTemplate.LF2].decode(sentences)
    assert len(calls) == len(groups)
    later = [sum(len(sentences[i]) - 1 for i in group) for group in groups]
    assert all(rows < n for rows, n in zip(calls, later))


# --- model files from before ids went family by family ------------------------


def save_key_by_key(tagger, train, path):
    """Write `tagger` as a file from before `build_index` numbered ids family
    by family: its header lists each distinct (token, first) key's pairs in
    turn, in corpus order, and its weight rows follow that order.  Returns
    the pairs in file order."""
    index = tagger.feature_index
    keys = dict.fromkeys((tok, pos == 0) for s in train.sentences
                         for pos, tok in enumerate(s.tokens))
    pairs: dict = {}
    for tok, first in keys:
        fv = features.extract(tok, 0 if first else 1, index.template)
        pairs.update(dict.fromkeys(fv.items()))
    # each file row's id in the trained weights; unknown ids keep their rows
    source = [index.value_ids[fam][value] for fam, value in pairs]
    save_model(path, tagger)
    with open(path, "rb") as fh:
        magic, header = fh.readline(), json.loads(fh.readline())
    header["feature_index"]["entries"] = [list(pair) for pair in pairs]
    with open(path, "wb") as fh:
        fh.write(magic)
        fh.write(json.dumps(header, sort_keys=True, ensure_ascii=False,
                            separators=(",", ":")).encode("utf-8") + b"\n")
        for name, arr in tagger.arrays.items():
            if name in ("l0_weights", "l1_weights"):
                arr = arr.copy()
                arr[: len(source)] = arr[source]
            fh.write(np.ascontiguousarray(arr, dtype="<f8").tobytes())
    return list(pairs)


def id_layout(index):
    """Each family and its values in id order."""
    return [(fam, list(ids.items())) for fam, ids in index.value_ids.items()]


@pytest.mark.parametrize("kind", [DecoderKind.HMC_EFB, DecoderKind.MEMM], ids=lambda k: k.value)
def test_a_key_by_key_model_file_decodes_the_same(taggers, corpora, tmp_path, kind):
    """The older file loads family by family, decodes as the tagger does and
    saves as the family-by-family file, byte for byte."""
    train, test = corpora
    tagger = taggers[kind, FeatureTemplate.LF2]
    index = tagger.feature_index
    pairs = save_key_by_key(tagger, train, tmp_path / "key-by-key")
    assert pairs != [(fam, value) for fam, ids in index.value_ids.items() for value in ids]
    loaded = load_model(tmp_path / "key-by-key")
    assert id_layout(loaded.feature_index) == id_layout(index)
    sentences = [s.tokens for s in test.sentences]
    labels = loaded.decode(sentences)
    assert labels == [loaded.decode(s) for s in sentences] == tagger.decode(sentences)
    save_model(tmp_path / "family-by-family", tagger)
    save_model(tmp_path / "resaved", loaded)
    assert (tmp_path / "resaved").read_bytes() == (tmp_path / "family-by-family").read_bytes()


# --- every traced layer is still called -----------------------------------------


@pytest.fixture
def bench(monkeypatch):
    """The benchmark's span recorder and span table.  layers.py imports the
    recorder as `spans`, so that name is registered for this test only."""
    monkeypatch.setitem(sys.modules, "spans", None)
    return _load("spans", BENCH / "spans.py"), _load("efbtag_bench_layers", BENCH / "layers.py")


@pytest.fixture
def workloads(bench, monkeypatch):
    """The benchmark's workloads module.  It imports its sibling modules by
    name, so those names are registered for this test only."""
    monkeypatch.setitem(sys.modules, "gen", gen)
    monkeypatch.setitem(sys.modules, "layers", bench[1])
    for name in ("retrain", "speed"):
        monkeypatch.setitem(sys.modules, name, None)
        _load(name, BENCH / f"{name}.py")
    return _load("efbtag_bench_workloads", BENCH / "workloads.py")


def test_training_calls_every_train_span(bench, workloads, gen_dir, tmp_path):
    """The benchmark's traced train unit, `train_one` for each of its kinds,
    requires these spans; a renamed or bypassed layer fails here first."""
    spans, layers = bench
    with spans.Tracer() as tracer:
        tracer.install(layers.SPANS)
        for kind, template in workloads.TRAIN_KINDS:
            out = tmp_path / f"{kind.value}.model"
            workloads.train_one(gen_dir / "train.conllu", kind, template, out)
    assert layers.missing_spans(tracer, "train") == []


def test_tagging_a_stream_calls_every_tag_stream_span(bench, workloads, gen_dir, tmp_path):
    """The traced tag-stream unit loads its model and decodes a stream of
    mostly novel words one sentence a call; it requires these spans."""
    spans, layers = bench
    kind, template = workloads.STREAM_KIND
    path = tmp_path / "stream.model"
    workloads.train_one(gen_dir / "train.conllu", kind, template, path)
    stream = gen.Language().sample([SEED, 2], 1_000, gen.stream_lengths,
                                   workloads.STREAM_NOVEL_SHARE).tokens
    with spans.Tracer() as tracer:
        tracer.install(layers.SPANS)
        tagger = efbtag.modelfile.load_model(path)  # the module's binding is replaced
        for words in stream:
            assert len(tagger.decode(words)) == len(words)
    assert layers.missing_spans(tracer, "tag-stream") == []
    assert tracer.self_times()[f"tagger.decode:{kind.value}"][1] == len(stream)


def test_evaluate_calls_every_decode_corpus_span(bench, taggers, corpora):
    """The benchmark's traced decode-corpus unit requires these spans: a batch
    path that bypassed a traced layer would fail there, and fails here first."""
    spans, layers = bench
    train, test = corpora
    with spans.Tracer() as tracer:
        tracer.install(layers.SPANS)
        for kind in (DecoderKind.HMC_FB, DecoderKind.HMC_NAIVE, DecoderKind.HMC_EFB,
                     DecoderKind.MEMM):
            tagger = taggers[kind, FeatureTemplate.LF1]
            # through the module, whose binding the recorder replaces
            report = evaluation.evaluate(tagger, test, train.vocab)
            assert report.total_tokens == test.n_tokens
    assert layers.missing_spans(tracer, "decode-corpus") == []
    calls = tracer.self_times()
    for kind in DecoderKind:  # one batch call per evaluate
        assert calls[f"tagger.decode:{kind.value}"][1] == 1


# --- a freshly loaded model extracts its misses once per bucket ----------------


@pytest.mark.parametrize("kind", [DecoderKind.HMC_NAIVE, DecoderKind.HMC_EFB, DecoderKind.MEMM])
def test_loaded_tagger_extracts_once_per_bucket(taggers, corpora, tmp_path, monkeypatch, kind):
    """After a load the memo is empty: a batch decode makes one `extract` call
    per bucket at most, naming each missed key once; an indexed word's key,
    kept in the memo, is not missed again, and a decode without a miss makes
    no call."""
    sentences = [s.tokens for s in corpora[1].sentences]
    save_model(tmp_path / "m.bin", taggers[kind, FeatureTemplate.LF2])
    loaded = load_model(tmp_path / "m.bin")
    calls = []
    original = features.extract

    def counting(tokens, positions, template):
        one = isinstance(tokens, str)
        calls.append([(tok, pos == 0) for tok, pos in
                      zip([tokens] if one else tokens, [positions] if one else positions)])
        return original(tokens, positions, template)

    monkeypatch.setattr(features, "extract", counting)
    loaded.decode(sentences)
    assert 0 < len(calls) <= len(buckets([len(s) for s in sentences]))
    assert all(len(keys) == len(set(keys)) for keys in calls)
    every_key = {(tok, pos == 0) for s in sentences for pos, tok in enumerate(s)}
    assert set().union(*calls) == every_key
    words = loaded.feature_index.value_ids["word"]
    indexed = [key for keys in calls for key in keys if key[0] in words]
    assert len(indexed) == len(set(indexed))

    memo = memo_rows(loaded.feature_index.memo)
    warm = next(s for s in sentences
                if all((tok, pos == 0) in memo for pos, tok in enumerate(s)))
    cold = next(s for s in sentences
                if not all((tok, pos == 0) in memo for pos, tok in enumerate(s)))
    calls.clear()
    loaded.decode(warm)
    assert calls == []
    loaded.decode(cold)
    assert len(calls) == 1
