"""One rebuild rule for every record with derived fields (`core.Rebuilt`).

A frozen record with an `init=False` field pickles and copies as its class
and its init fields, so `pickle`, `copy.copy` and `copy.deepcopy` build it
again through its constructor: what it derives (a chain's read-only
`reversed_step`, an index's memo and lookups) is derived again from the
restored fields, never restored as a copy.  A pickled tagger is therefore
the tagger that `load_model` gives.
"""

import copy
import dataclasses
import importlib
import pickle
import pkgutil

import numpy as np
import pytest

import efbtag
from efbtag import core, tagger as tagger_module
from efbtag.features import FeatureTemplate
from efbtag.modelfile import load_model, save_model
from efbtag.tagger import DecoderKind, Tagger, train_tagger
from conftest import memo_rows, word_row_memo
from test_sentence_scoring import SGD, random_corpus

RESTORES = {
    "pickle": lambda record: pickle.loads(pickle.dumps(record)),
    "deepcopy": copy.deepcopy,
    "copy": copy.copy,
}
FEATURED = [kind for kind in DecoderKind if kind is not DecoderKind.HMC_FB]
LF1, LF2 = FeatureTemplate.LF1, FeatureTemplate.LF2
CASES = [(DecoderKind.HMC_FB, LF1)] + [(kind, t) for kind in FEATURED for t in (LF1, LF2)]
CASE_IDS = ["hmc-fb"] + [f"{kind.value}-{template.value}" for kind, template in CASES[1:]]


@pytest.fixture(scope="module")
def corpus():
    return random_corpus(np.random.default_rng(0))


@pytest.fixture(scope="module")
def taggers(corpus):
    return {case: train_tagger(corpus, *case, SGD)[0] for case in CASES}


@pytest.fixture
def decoded(monkeypatch, corpus):
    """A function from a tagger to its labels and the bytes of every lattice
    it reads them from, each sentence decoded alone, then all as a batch; a
    sentence of words outside the training text rides along."""
    seen = []
    mpm = tagger_module.mpm_from_lattice
    monkeypatch.setattr(tagger_module, "mpm_from_lattice",
                        lambda lattice: seen.append(lattice.values.tobytes()) or mpm(lattice))
    sentences = [s.tokens for s in corpus.sentences] + [("Zq-9x", "wombat", "the")]

    def decode(tagger):
        seen.clear()
        labels = [tagger.decode(s) for s in sentences], tagger.decode(sentences)
        return labels, list(seen)

    return decode


def arrays_of(tagger: Tagger) -> list[np.ndarray]:
    """Every array a tagger holds or derives."""
    arrays = list(tagger.arrays.values())
    if tagger.hmc_params is not None:
        chain = tagger.hmc_params
        arrays += [chain.pi, chain.trans, *chain.reversed_step[:2]]
        arrays += [a for a in (chain.emit, chain.emit_rows) if a is not None]
    if tagger.naive is not None:
        arrays += [*tagger.naive.tables.values(), tagger.naive.stacked_rows]
    arrays += [model.weights for model in (tagger.l0, tagger.l1) if model is not None]
    if tagger.feature_index is not None:
        arrays.append(tagger.feature_index.memo.table)
    return arrays


@pytest.mark.parametrize("restore", RESTORES.values(), ids=RESTORES)
@pytest.mark.parametrize("case", CASES, ids=CASE_IDS)
def test_a_restored_tagger_decodes_the_originals_bytes(taggers, decoded, case, restore):
    """Labels and every lattice handed to `mpm_from_lattice`, alone and
    batched, are the original's to the byte; restored after the original has
    decoded, so that its index's memo and lookups are warm."""
    original = taggers[case]
    want = decoded(original)
    restored = restore(original)
    assert type(restored) is Tagger and restored is not original
    assert decoded(restored) == want
    if restored.hmc_params is not None:
        for array in restored.hmc_params.reversed_step[:2]:
            assert not array.flags.writeable
            with pytest.raises(ValueError):
                array[0] = 0.0


@pytest.mark.parametrize("restore", ["pickle", "deepcopy"])
@pytest.mark.parametrize("case", CASES, ids=CASE_IDS)
def test_a_deep_copy_shares_no_array_with_the_original(taggers, case, restore):
    original = taggers[case]
    restored = RESTORES[restore](original)
    for got in arrays_of(restored):
        assert not any(np.shares_memory(got, had) for had in arrays_of(original))


@pytest.mark.parametrize("restore", RESTORES.values(), ids=RESTORES)
@pytest.mark.parametrize("kind", FEATURED, ids=lambda kind: kind.value)
def test_a_copied_index_looks_up_its_own_maps(taggers, kind, restore):
    original = taggers[kind, LF1]
    original.decode(("the", "wombat"))  # the lookups are cached on the index
    index = restore(original).feature_index
    assert index.value_ids == original.feature_index.value_ids
    for fam, (get, unknown) in index._lookups.items():
        assert get.__self__ is index.value_ids[fam] and unknown == index.unknown_ids[fam]


@pytest.mark.parametrize("case", CASES, ids=CASE_IDS)
def test_a_pickled_tagger_is_the_loaded_one(taggers, decoded, case, tmp_path):
    """Unpickled, a tagger holds what `load_model` reads back from its file,
    and its index's memo starts with exactly its vocabulary's rows, as a
    loaded one does."""
    original = taggers[case]
    original.decode(("the", "wombat"))
    save_model(tmp_path / "model.bin", original)
    loaded, restored = load_model(tmp_path / "model.bin"), RESTORES["pickle"](original)
    for tagger in (loaded, restored):
        if tagger.feature_index is not None:
            assert memo_rows(tagger.feature_index.memo) == word_row_memo(tagger)
    assert (restored.kind, restored.tagset, restored.vocab) == (loaded.kind, loaded.tagset,
                                                                loaded.vocab)
    if loaded.feature_index is not None:
        assert [[*ids.items()] for ids in restored.feature_index.value_ids.values()] == [
            [*ids.items()] for ids in loaded.feature_index.value_ids.values()]
    assert {name: a.tobytes() for name, a in restored.arrays.items()} == {
        name: a.tobytes() for name, a in loaded.arrays.items()}
    assert decoded(restored) == decoded(loaded)


def test_every_record_with_derived_fields_is_rebuilt_by_the_one_rule():
    """Every dataclass in efbtag with an `init=False` field is a `core.Rebuilt`,
    and no class but `core.Rebuilt` defines `__reduce__`."""
    derived, reducers = set(), set()
    for info in pkgutil.iter_modules(efbtag.__path__):
        module = importlib.import_module(f"efbtag.{info.name}")
        for obj in vars(module).values():
            if not isinstance(obj, type) or obj.__module__ != module.__name__:
                continue
            if "__reduce__" in vars(obj) or "__reduce_ex__" in vars(obj):
                reducers.add(obj.__qualname__)
            if dataclasses.is_dataclass(obj) and any(
                not f.init for f in dataclasses.fields(obj)
            ):
                derived.add(obj)
    assert {cls.__qualname__ for cls in derived} >= {
        "TagSet", "Vocabulary", "FeatureIndex", "HmcParams", "EfbParams",
        "NaiveFeatureEmission", "Tagger",
    }
    assert [cls.__qualname__ for cls in derived if not issubclass(cls, core.Rebuilt)] == []
    assert reducers == {"Rebuilt"}


@pytest.mark.parametrize("restore", RESTORES.values(), ids=RESTORES)
def test_the_small_records_are_rebuilt(restore):
    """A tag set and a vocabulary derive their lookups again."""
    for record in (core.TagSet(("A", "B")), core.Vocabulary(("the", "cat"))):
        restored = restore(record)
        assert restored == record and restored._index == record._index
        assert restored._index is not record._index
