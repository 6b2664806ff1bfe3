"""Versioned model persistence.

Layout: a magic line, one line of JSON metadata (sorted keys, compact
separators), then the raw bytes of every array listed in the metadata,
concatenated in order as little-endian float64.  Writing the same model
twice therefore produces byte-identical files.

A kind stores only the arrays it decodes with: `pi` and `trans` for the
chain decoders, `emit` for hmc-fb alone, `naive:<family>` tables for
hmc-naive-features, and `l0_weights` (plus `l1_weights` for memm) for
the discriminative kinds.  Loading rejects any other array list and any
non-finite value.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import BinaryIO, Optional

import numpy as np

from . import discrim, hmc
from .core import TagSet, Vocabulary
from .errors import DataError, InvalidInputError
from .features import TEMPLATE_FAMILIES, FeatureIndex, FeatureTemplate
from .tagger import DecoderKind, Tagger

MAGIC = b"EFBTAG-MODEL\n"
FORMAT_VERSION = 1
_DTYPE = np.dtype("<f8")
# keys every header written by `save_model` carries
_HEADER_KEYS = ("arrays", "feature_index", "labels", "naive", "template", "words")


def _index_header(index: Optional[FeatureIndex]):
    if index is None:
        return None
    entries = sorted(index.ids, key=index.ids.__getitem__)
    return {"entries": [[fam, val] for fam, val in entries]}


def _index_from_header(header, template: FeatureTemplate) -> FeatureIndex:
    entries = header["entries"]
    ids = {(fam, val): i for i, (fam, val) in enumerate(entries)}
    families = TEMPLATE_FAMILIES[template]
    unknown_ids = {fam: len(ids) + k for k, fam in enumerate(families)}
    return FeatureIndex(
        template=template, families=families, ids=ids, unknown_ids=unknown_ids
    )


def _tagger_arrays(tagger: Tagger) -> dict[str, np.ndarray]:
    arrays: dict[str, np.ndarray] = {}
    if tagger.hmc_params is not None:
        arrays["pi"] = tagger.hmc_params.pi
        arrays["trans"] = tagger.hmc_params.trans
        if tagger.hmc_params.emit is not None:
            arrays["emit"] = tagger.hmc_params.emit
    if tagger.naive is not None:
        for fam in tagger.naive.families:
            arrays[f"naive:{fam}"] = tagger.naive.tables[fam]
    if tagger.l0 is not None:
        arrays["l0_weights"] = tagger.l0.weights
    if tagger.l1 is not None:
        arrays["l1_weights"] = tagger.l1.weights
    return arrays


def save_model(path: str | Path, tagger: Tagger) -> None:
    arrays = _tagger_arrays(tagger)
    header = {
        "format_version": FORMAT_VERSION,
        "kind": tagger.kind.value,
        "template": tagger.template.value if tagger.template else None,
        "labels": list(tagger.tagset.labels),
        "words": list(tagger.vocab.words),
        "feature_index": _index_header(None if tagger.naive else tagger.feature_index),
        "naive": (
            {
                "families": list(tagger.naive.families),
                "values": {
                    fam: sorted(
                        tagger.naive.value_index[fam],
                        key=tagger.naive.value_index[fam].__getitem__,
                    )
                    for fam in tagger.naive.families
                },
            }
            if tagger.naive
            else None
        ),
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


def load_model(path: str | Path, expect_kind: Optional[DecoderKind] = None) -> Tagger:
    """Load a model file; optionally require a specific decoder kind.

    The header must list exactly the arrays, in order and with the
    shapes, that `save_model` writes for its kind, labels, words,
    feature index and naive families.  Any missing key or inconsistency
    is a DataError.
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
        if header.get("format_version") != FORMAT_VERSION:
            raise DataError(
                f"{path}: unsupported format version {header.get('format_version')!r}"
            )
        try:
            kind = DecoderKind(header["kind"])
        except (KeyError, ValueError):
            raise DataError(f"{path}: unknown decoder kind in header") from None
        if expect_kind is not None and kind is not expect_kind:
            raise InvalidInputError(
                f"{path}: model kind is {kind.value}, expected {expect_kind.value}"
            )
        missing = [key for key in _HEADER_KEYS if key not in header]
        if missing:
            raise DataError(f"{path}: model header lacks {', '.join(missing)}")
        try:
            return _tagger_from(path, fh, header, kind)
        except (InvalidInputError, KeyError, TypeError, ValueError) as exc:
            raise DataError(f"{path}: inconsistent model header: {exc!r}") from None


def _tagger_from(
    path: str | Path, fh: BinaryIO, header: dict, kind: DecoderKind
) -> Tagger:
    """Check the header's array list against the rest of it, then read the arrays."""
    tagset = TagSet.from_labels(header["labels"])
    vocab = Vocabulary(tuple(header["words"]))
    template = FeatureTemplate(header["template"]) if header["template"] else None
    n = len(tagset)
    discriminative = kind in (DecoderKind.HMC_EFB, DecoderKind.MEMM)
    index = (
        _index_from_header(header["feature_index"], template) if discriminative else None
    )
    families = (
        tuple(header["naive"]["families"]) if kind is DecoderKind.HMC_NAIVE else ()
    )
    if families and families != TEMPLATE_FAMILIES[template]:
        raise DataError(f"{path}: naive families differ from template {template.value}")

    shapes: dict[str, tuple[int, ...]] = {}
    if kind is not DecoderKind.MEMM:
        shapes["pi"] = (n,)
        shapes["trans"] = (n, n)
    if kind is DecoderKind.HMC_FB:
        shapes["emit"] = (n, vocab.size_with_unknown)
    for fam in families:
        shapes[f"naive:{fam}"] = (n, len(header["naive"]["values"][fam]) + 1)
    if discriminative:
        shapes["l0_weights"] = (index.size + 1, n)
    if kind is DecoderKind.MEMM:
        shapes["l1_weights"] = (index.size + n + 1, n)
    listed = [{"name": name, "shape": list(shape)} for name, shape in shapes.items()]
    if header["arrays"] != listed:
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

    params = None
    if "pi" in arrays:
        params = hmc.HmcParams(arrays["pi"], arrays["trans"], arrays.get("emit"))

    naive = None
    if families:
        value_index = {
            fam: {v: i for i, v in enumerate(header["naive"]["values"][fam])}
            for fam in families
        }
        for fam in families:
            if len(value_index[fam]) != len(header["naive"]["values"][fam]):
                raise DataError(f"{path}: naive family {fam!r} repeats a value")
        naive = hmc.NaiveFeatureEmission(
            families=families,
            value_index=value_index,
            tables={fam: arrays[f"naive:{fam}"] for fam in families},
        )
        index = hmc.naive_feature_index(naive, template)

    def _logistic(name: str, conditions_on_prev: bool):
        if name not in arrays:
            return None
        return discrim.LogisticModel(
            weights=arrays[name],
            n_features=index.size,
            n_labels=n,
            conditions_on_prev=conditions_on_prev,
        )

    return Tagger(
        kind=kind,
        tagset=tagset,
        vocab=vocab,
        template=template,
        hmc_params=params,
        naive=naive,
        feature_index=index,
        l0=_logistic("l0_weights", False),
        l1=_logistic("l1_weights", True),
    )
