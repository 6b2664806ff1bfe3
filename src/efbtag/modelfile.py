"""Versioned model persistence.

Layout: a magic line, one line of JSON metadata (sorted keys, compact
separators), then the raw bytes of every array listed in the metadata,
concatenated in order as little-endian float64.  Writing the same model
twice therefore produces byte-identical files.

A file holds a tagger's `arrays`, which are its kind's
`tagger.part_shapes`, in that order.  Loading reads them back into that
dict, and `Tagger` builds its models from it.  Loading rejects a header
with any other array list, any non-finite value, and any array value
that `Tagger` refuses, such as weights whose scores could overflow.

The featured kinds store their index as `feature_index.entries`, its
(family, value) pairs in id order, and `features.index_from_pairs`
rebuilds it.  Older efb and memm files list theirs key by key, and their
weight rows in that order: loading moves the rows to the ids.  Keys a
kind does not use are null: `template` and `feature_index` for hmc-fb,
and `naive` (where older naive files kept their values) for every kind.

A featured kind's first array is `word_rows`, the feature ids of each
vocabulary word at a position other than its sentence's first, which a
loaded tagger puts in its index's memo instead of extracting those words
again; the tagger extracts only a sample of them to check the rest
against the current feature definitions.  A file without it, as every
file written before it was stored, loads too: its rows are extracted
once, at load.
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from pathlib import Path
from typing import BinaryIO

import numpy as np

from .core import TagSet, Vocabulary
from .errors import DataError, InvalidInputError
from .features import TEMPLATE_FAMILIES, FeatureTemplate, index_from_pairs, word_rows
from .tagger import DecoderKind, Tagger, part_shapes

MAGIC = b"EFBTAG-MODEL\n"
FORMAT_VERSION = 1
_DTYPE = np.dtype("<f8")
# keys every header written by `save_model` carries
_HEADER_KEYS = ("arrays", "feature_index", "labels", "naive", "template", "words")


def save_model(path: str | Path, tagger: Tagger) -> None:
    """Write a tagger's header, then its `arrays` in order."""
    arrays, index = tagger.arrays, tagger.feature_index
    header = {
        "format_version": FORMAT_VERSION,
        "kind": tagger.kind.value,
        "template": None if index is None else index.template.value,
        "labels": list(tagger.tagset.labels),
        "words": list(tagger.vocab.words),
        "feature_index": None if index is None else {
            "entries": [[fam, value] for fam, ids in index.value_ids.items() for value in ids]
        },
        "naive": None,
        "arrays": [
            {"name": name, "shape": list(arr.shape)} for name, arr in arrays.items()
        ],
    }
    blob = json.dumps(
        header, sort_keys=True, ensure_ascii=False, separators=(",", ":")
    ).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(blob)
        fh.write(b"\n")
        for arr in arrays.values():
            fh.write(np.ascontiguousarray(arr, dtype=_DTYPE).tobytes())


def load_model(path: str | Path) -> Tagger:
    """Load a model file.

    The header must list exactly the arrays, in order and with the
    shapes, of `part_shapes` for its kind, labels, words and feature
    index, and the file must end with the last of them.  Any missing
    key, mistyped value or inconsistency is a DataError.
    """
    with open(path, "rb") as fh:
        if fh.read(len(MAGIC)) != MAGIC:
            raise DataError(f"{path}: not an efbtag model file")
        try:
            header = json.loads(fh.readline().decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise DataError(f"{path}: corrupt model header: {exc}") from exc
        if not isinstance(header, dict):
            raise DataError(f"{path}: corrupt model header: not a JSON object")
        version = header.get("format_version")
        if type(version) is not int or version != FORMAT_VERSION:  # JSON true == 1
            raise DataError(f"{path}: unsupported format_version {version!r}")
        try:
            kind = DecoderKind(header["kind"])
        except (KeyError, ValueError):
            raise DataError(f"{path}: unknown decoder kind in header") from None
        missing = [key for key in _HEADER_KEYS if key not in header]
        if missing:
            raise DataError(f"{path}: model header lacks {', '.join(missing)}")
        try:
            return _tagger_from(path, fh, header, kind)
        except (InvalidInputError, KeyError, TypeError, ValueError) as exc:
            raise DataError(f"{path}: inconsistent model header: {exc}") from None


def _strings(path: str | Path, header: dict, key: str) -> tuple[str, ...]:
    value = header[key]
    if type(value) is not list or not all(type(v) is str for v in value):
        raise DataError(f"{path}: header key {key!r} must be a list of strings")
    return tuple(value)


@contextmanager
def _header_key(path: str | Path, key: str):
    """A value of header `key` that the body cannot use is a DataError naming it."""
    try:
        yield
    except (InvalidInputError, KeyError, TypeError, ValueError) as exc:
        raise DataError(f"{path}: bad header key {key!r}: {exc}") from None


def _tagger_from(
    path: str | Path, fh: BinaryIO, header: dict, kind: DecoderKind
) -> Tagger:
    """Check the header's array list against the rest of it, then read the arrays."""
    fb_only = ("template", "feature_index") if kind is DecoderKind.HMC_FB else ()
    for key in ("naive",) + fb_only:
        if header[key] is not None:
            raise DataError(f"{path}: header key {key!r} must be null for {kind.value}")
    tagset = TagSet(_strings(path, header, "labels"))
    if not tagset.labels:
        raise DataError(f"{path}: header key 'labels' is empty")
    vocab = Vocabulary(_strings(path, header, "words"))
    index = None
    if kind is not DecoderKind.HMC_FB:
        with _header_key(path, "template"):
            template = FeatureTemplate(header["template"])
        with _header_key(path, "feature_index"):
            entries = header["feature_index"]["entries"]
            index = index_from_pairs(template, TEMPLATE_FAMILIES[template], entries)
    shapes = part_shapes(kind, len(tagset), vocab.size_with_unknown, index)
    listed = [{"name": name, "shape": list(shape)} for name, shape in shapes.items()]
    # a featured file from before `word_rows` was stored lists every other array
    older = index is not None and header["arrays"] == listed[1:]
    if older:
        del shapes["word_rows"]
    elif header["arrays"] != listed:
        raise DataError(
            f"{path}: header arrays do not match its kind, labels, words "
            f"and feature index"
        )

    arrays: dict[str, np.ndarray] = {}
    for name, shape in shapes.items():
        size = int(np.prod(shape)) * _DTYPE.itemsize
        raw = fh.read(size)
        if len(raw) != size:
            raise DataError(f"{path}: truncated array {name!r}")
        arrays[name] = np.frombuffer(raw, dtype=_DTYPE).reshape(shape).copy()
        if not np.isfinite(arrays[name]).all():
            raise DataError(f"{path}: array {name!r} holds a non-finite value")
    if fh.read(1):
        raise DataError(f"{path}: bytes after the last array")
    # each family's values keep their file order, so the families alone tell
    # whether the file lists its pairs, and so its weight rows, in id order
    if "l0_weights" in arrays and [fam for fam, _ in entries] != [
        fam for fam, ids in index.value_ids.items() for _ in ids
    ]:
        # an older file, whose pairs go key by key: id k's row is rows[k]
        rows = np.argsort([index.value_ids[fam][value] for fam, value in entries])
        for name in ("l0_weights", "l1_weights"):
            if name in arrays:
                arrays[name][: len(rows)] = arrays[name][rows]
    if older:
        arrays = {"word_rows": word_rows(index, vocab.words).astype(_DTYPE), **arrays}

    try:
        return Tagger(kind, tagset, vocab, index, arrays)
    except InvalidInputError as exc:  # values of the arrays that a tagger refuses
        raise DataError(f"{path}: {exc}") from None
