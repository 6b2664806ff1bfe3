"""Damaged model files: every load is a Tagger or a DataError, every tag run
ends with a documented exit code and at most one stderr line."""

import contextlib
import io
import json
import struct
from itertools import zip_longest

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from efbtag.cli import EXIT_DATA, EXIT_NUMERIC, EXIT_OK, main
from efbtag.dataio import CorpusFormat, read_corpus
from efbtag.discrim import SgdConfig
from efbtag.errors import DataError
from efbtag.features import TEMPLATE_FAMILIES, FeatureTemplate, index_from_pairs
from efbtag.modelfile import MAGIC, load_model, save_model
from efbtag.tagger import DecoderKind, Tagger, part_shapes, train_tagger

TRAIN = """\
the DT O
cat NN O
runs VB O

a DT O
dark JJ O
city NN O
sleeps VB O

dogs NN O
fly VB O

The DT O
main JJ O
vigilante NN O
flies VB O
"""
# known and unseen words, a sentence-initial capital, a length-1 line
TAG_INPUT = "the cat runs\nThe unseen-3 city sleeps\nfly\n"
KINDS = list(DecoderKind)
FUZZ = settings(
    max_examples=50,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz")
    (root / "train.txt").write_text(TRAIN, encoding="utf-8")
    (root / "input.txt").write_text(TAG_INPUT, encoding="utf-8")
    return root


@pytest.fixture(scope="module")
def models(workdir):
    """Saved bytes of one toy model per decoder kind."""
    corpus = read_corpus(workdir / "train.txt", CorpusFormat.CONLL2000)
    out = {}
    for kind in KINDS:
        tagger, _ = train_tagger(corpus, kind, FeatureTemplate.LF1, SgdConfig(epochs=2))
        path = workdir / f"{kind.value}.bin"
        save_model(path, tagger)
        out[kind] = path.read_bytes()
    return out


def split(data: bytes) -> tuple[dict, bytes]:
    end = data.index(b"\n", len(MAGIC))
    return json.loads(data[len(MAGIC) : end]), data[end + 1 :]


def join(header: dict, body: bytes) -> bytes:
    return MAGIC + json.dumps(header).encode() + b"\n" + body


def check_damaged(workdir, data: bytes) -> tuple[int, str]:
    """Load and tag with a damaged model file; returns the exit code and stderr."""
    path = workdir / "damaged.bin"
    path.write_bytes(data)
    try:
        assert isinstance(load_model(path), Tagger)
    except DataError:
        pass
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        rc = main(
            ["tag", str(path), str(workdir / "input.txt"),
             "--out", str(workdir / "out.txt")]
        )
    lines = err.getvalue().splitlines()
    assert rc in (EXIT_OK, EXIT_DATA, EXIT_NUMERIC), err.getvalue()
    if rc == EXIT_OK:
        assert lines == []
    else:
        assert len(lines) == 1 and lines[0].startswith("efbtag: "), lines
    return rc, err.getvalue()


@pytest.mark.parametrize("kind", KINDS, ids=lambda k: k.value)
def test_intact_model_tags(workdir, models, kind):
    assert check_damaged(workdir, models[kind])[0] == EXIT_OK


@pytest.mark.parametrize("kind", KINDS, ids=lambda k: k.value)
def test_nan_in_last_float_is_a_data_error(workdir, models, kind):
    data = models[kind]
    header, _ = split(data)
    rc, err = check_damaged(workdir, data[:-8] + struct.pack("<d", float("nan")))
    assert rc == EXIT_DATA
    assert repr(header["arrays"][-1]["name"]) in err


@pytest.mark.parametrize("kind", KINDS, ids=lambda k: k.value)
@FUZZ
@given(data=st.data())
def test_truncated_anywhere(workdir, models, kind, data):
    blob = models[kind]
    cut = data.draw(st.integers(0, len(blob) - 1))
    assert check_damaged(workdir, blob[:cut])[0] == EXIT_DATA


@pytest.mark.parametrize("kind", KINDS, ids=lambda k: k.value)
@FUZZ
@given(data=st.data())
def test_one_byte_flipped_anywhere(workdir, models, kind, data):
    blob = bytearray(models[kind])
    at = data.draw(st.integers(0, len(blob) - 1))
    blob[at] ^= data.draw(st.integers(1, 255))
    check_damaged(workdir, bytes(blob))


@pytest.mark.parametrize("kind", KINDS, ids=lambda k: k.value)
def test_each_header_key_deleted(workdir, models, kind):
    header, body = split(models[kind])
    for key in header:
        damaged = {k: v for k, v in header.items() if k != key}
        assert check_damaged(workdir, join(damaged, body))[0] == EXIT_DATA, key


def test_naive_file_with_the_old_emission_table(workdir, models):
    """The layout written before bare chains: `emit` listed and stored after
    `trans`, and no `word_rows`, which later files list and store first."""
    header, body = split(models[DecoderKind.HMC_NAIVE])
    rows = header["arrays"].pop(0)
    assert rows["name"] == "word_rows"
    body = body[int(np.prod(rows["shape"])) * 8 :]
    n, m1 = len(header["labels"]), len(header["words"]) + 1
    emit = np.full((n, m1), 1.0 / m1).astype("<f8").tobytes()
    at = (n + n * n) * 8  # after pi and trans
    header["arrays"].insert(2, {"name": "emit", "shape": [n, m1]})
    rc, err = check_damaged(workdir, join(header, body[:at] + emit + body[at:]))
    assert rc == EXIT_DATA
    assert "header arrays do not match" in err


@pytest.mark.parametrize(
    "kind", [k for k in KINDS if k is not DecoderKind.HMC_FB], ids=lambda k: k.value
)
@pytest.mark.parametrize("template", ["nf", "lf2"])
def test_template_swapped_for_another_valid_one(workdir, models, kind, template):
    header, body = split(models[kind])
    header["template"] = template
    assert check_damaged(workdir, join(header, body))[0] == EXIT_DATA


def test_naive_family_with_a_repeated_value(workdir, models):
    """Same array shapes, but the index names one family's first value twice."""
    header, body = split(models[DecoderKind.HMC_NAIVE])
    entries = header["feature_index"]["entries"]
    assert entries[0][0] == entries[1][0]  # two values of the first family
    entries[1] = entries[0]
    rc, err = check_damaged(workdir, join(header, body))
    assert rc == EXIT_DATA
    assert f"{tuple(entries[0])!r} repeats" in err


FEATURED = [k for k in KINDS if k is not DecoderKind.HMC_FB]


@pytest.mark.parametrize("kind", FEATURED, ids=lambda k: k.value)
@pytest.mark.parametrize(
    "last, message",
    [
        (lambda first: ["bogus-family", first[1]], "'bogus-family' not in index"),
        (lambda first: [first[0], 7], "value 7 is not a string"),
        (lambda first: first, "repeats"),
    ],
    ids=["family-outside-template", "value-not-a-string", "repeated-pair"],
)
def test_bad_feature_index_entry(workdir, models, kind, last, message):
    """The last index entry remade from the first; the array shapes still match."""
    header, body = split(models[kind])
    entries = header["feature_index"]["entries"]
    entries[-1] = last(entries[0])
    rc, err = check_damaged(workdir, join(header, body))
    assert rc == EXIT_DATA
    assert message in err


def test_naive_pairs_interleaving_families(workdir, models):
    """Every family's first value, then every second one, and so on: each
    family's values keep their order, so the file loads as the family by
    family file, tags as it does and saves to its bytes."""
    header, body = split(models[DecoderKind.HMC_NAIVE])
    by_family: dict = {}
    for entry in header["feature_index"]["entries"]:
        by_family.setdefault(entry[0], []).append(entry)
    interleaved = [entry for row in zip_longest(*by_family.values()) for entry in row if entry]
    assert interleaved != header["feature_index"]["entries"]
    header["feature_index"]["entries"] = interleaved
    tagged = []
    for data in (models[DecoderKind.HMC_NAIVE], join(header, body)):
        assert check_damaged(workdir, data)[0] == EXIT_OK
        tagged.append((workdir / "out.txt").read_text(encoding="utf-8"))
    assert tagged[0] == tagged[1]
    save_model(workdir / "resaved.bin", load_model(workdir / "damaged.bin"))
    assert (workdir / "resaved.bin").read_bytes() == models[DecoderKind.HMC_NAIVE]


@pytest.mark.parametrize("kind", KINDS, ids=lambda k: k.value)
def test_empty_label_list(workdir, models, kind):
    """No labels, and every array shaped for none, as memm's (S + 1, 0)
    weights: a DataError at load, not a traceback at decode."""
    header, _ = split(models[kind])
    index = None
    if kind is not DecoderKind.HMC_FB:
        template = FeatureTemplate(header["template"])
        index = index_from_pairs(template, TEMPLATE_FAMILIES[template],
                                 header["feature_index"]["entries"])
    shapes = part_shapes(kind, 0, len(header["words"]) + 1, index)
    header["labels"] = []
    header["arrays"] = [{"name": name, "shape": list(shape)} for name, shape in shapes.items()]
    rc, err = check_damaged(workdir, join(header, b""))
    assert rc == EXIT_DATA
    assert "header key 'labels' is empty" in err


def test_naive_file_in_the_layout_before_the_shared_index(workdir, models):
    """Values under `naive`, a null `feature_index`, the same arrays."""
    header, body = split(models[DecoderKind.HMC_NAIVE])
    entries = header["feature_index"]["entries"]
    families = list(dict.fromkeys(fam for fam, _ in entries))
    header["feature_index"] = None
    header["naive"] = {
        "families": families,
        "values": {fam: [v for f, v in entries if f == fam] for fam in families},
    }
    rc, err = check_damaged(workdir, join(header, body))
    assert rc == EXIT_DATA
    assert "'naive' must be null for hmc-naive-features" in err


JSON_VALUES = st.recursive(
    st.booleans() | st.integers() | st.floats(allow_nan=False) | st.text(),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(), inner, max_size=3),
    max_leaves=6,
)


@pytest.mark.parametrize(
    "kind, key",
    [(kind, "naive") for kind in KINDS]
    + [(DecoderKind.HMC_FB, "template"), (DecoderKind.HMC_FB, "feature_index")],
    ids=lambda v: getattr(v, "value", v),
)
@FUZZ
@given(value=JSON_VALUES)
@example(value="lf2")
def test_unused_header_key_set(workdir, models, kind, key, value):
    """A key the kind does not use must be null, whatever else it holds."""
    header, body = split(models[kind])
    header[key] = value
    rc, err = check_damaged(workdir, join(header, body))
    assert rc == EXIT_DATA
    assert f"{key!r} must be null for {kind.value}" in err



@pytest.mark.parametrize("kind", KINDS, ids=lambda k: k.value)
@pytest.mark.parametrize(
    "key, edit",
    [
        ("labels", lambda h: h.update(labels=list(range(len(h["labels"]))))),
        ("labels", lambda h: h["labels"].__setitem__(-1, 6)),
        ("labels", lambda h: h.update(labels="".join(h["labels"]))),
        ("words", lambda h: h.update(words=list(range(len(h["words"]))))),
        ("words", lambda h: h["words"].__setitem__(0, None)),
        ("format_version", lambda h: h.update(format_version=True)),
        ("format_version", lambda h: h.update(format_version=1.0)),
    ],
    ids=["int-labels", "one-int-label", "labels-string", "int-words", "null-word",
         "version-true", "version-float"],
)
def test_mistyped_header_value(workdir, models, kind, key, edit):
    """Values equal to what the loader wants in Python, but of the wrong JSON type."""
    header, body = split(models[kind])
    edit(header)
    rc, err = check_damaged(workdir, join(header, body))
    assert rc == EXIT_DATA
    assert key in err


@pytest.mark.parametrize("kind", KINDS, ids=lambda k: k.value)
@pytest.mark.parametrize(
    "extra", [b"\0", bytes(16), struct.pack("<d", 0.5)], ids=["byte", "16-zeros", "float"]
)
def test_bytes_after_the_last_array(workdir, models, kind, extra):
    rc, err = check_damaged(workdir, models[kind] + extra)
    assert rc == EXIT_DATA
    assert "bytes after the last array" in err


@pytest.mark.parametrize("kind", FEATURED, ids=lambda k: k.value)
@pytest.mark.parametrize(
    "key, edit",
    [
        ("feature_index", lambda h: h.update(feature_index=None)),
        ("template", lambda h: h.update(template=None)),
        ("feature_index", lambda h: h["feature_index"].update(entries=5)),
    ],
    ids=["null-index", "null-template", "entries-not-a-list"],
)
def test_damaged_index_key_is_named(workdir, models, kind, key, edit):
    """The line names the key and gives the reason, not a Python repr."""
    header, body = split(models[kind])
    edit(header)
    rc, err = check_damaged(workdir, join(header, body))
    assert rc == EXIT_DATA
    assert f"bad header key {key!r}: " in err
    assert "Error(" not in err
