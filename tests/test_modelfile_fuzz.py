"""Damaged model files: every load is a Tagger or a DataError, every tag run
ends with a documented exit code and at most one stderr line."""

import contextlib
import io
import json
import struct

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from efbtag.cli import EXIT_DATA, EXIT_NUMERIC, EXIT_OK, main
from efbtag.dataio import CorpusFormat, read_corpus
from efbtag.discrim import SgdConfig
from efbtag.errors import DataError
from efbtag.features import FeatureTemplate
from efbtag.modelfile import MAGIC, load_model, save_model
from efbtag.tagger import DecoderKind, Tagger, train_tagger

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
    """The layout written before bare chains: `emit` listed and stored after `trans`."""
    header, body = split(models[DecoderKind.HMC_NAIVE])
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
    """Same array shapes, but one family's value list names a value twice."""
    header, body = split(models[DecoderKind.HMC_NAIVE])
    values = header["naive"]["values"]
    fam = next(f for f in header["naive"]["families"] if len(values[f]) > 1)
    values[fam][0] = values[fam][1]
    rc, err = check_damaged(workdir, join(header, body))
    assert rc == EXIT_DATA
    assert "repeats a value" in err
